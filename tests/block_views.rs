//! Soundness of block placement reuse: one [`ProgramRunner`] compiles its
//! program for many machines, and each block narrower than a machine's
//! ISA is list-scheduled once per view of the block's family
//! (`MachineConfig::view_for`); later machines with that view reuse its
//! placement.  That is only right if every machine of a view would have
//! placed the block the same way itself.
//!
//! Machines are drawn through `SpecFile` from seeded random values of every
//! axis a view can see or reset (`issue_width`, `vector_units`,
//! `vector_lanes`, `l2_port_elems`, `chaining`, `l2_latency`), over every
//! ISA, and some get larger register files.  They are shuffled, so reuse
//! spans machines compiled far apart.  For every program, each machine's
//! compile through the shared runner must equal a fresh
//! `vmv_sched::compile` + `lower` for that machine alone: the schedule
//! dump, every block's source positions, and the lowered program.
//!
//! No kernel's vector program has a µSIMD block, so a second test compiles
//! a small program with a scalar, a µSIMD and a vector block on vector
//! machines, some with µSIMD units of their own and some running µSIMD
//! operations on their vector units.

use vector_usimd_vliw as vmv;

use vmv::core::{variant_for, ProgramRunner};
use vmv::isa::{Elem, Program, ProgramBuilder, Sat};
use vmv::kernels::rng::SmallRng;
use vmv::kernels::Benchmark;
use vmv::machine::{IsaSupport, MachineConfig};
use vmv::sweep::SpecFile;

/// `k` distinct values of `values`, in their listed order.
fn pick(rng: &mut SmallRng, values: &[u32], k: usize) -> String {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    for i in 0..k {
        let j = i + (rng.next_u64() % (values.len() - i) as u64) as usize;
        idx.swap(i, j);
    }
    let mut chosen = idx[..k].to_vec();
    chosen.sort_unstable();
    let items: Vec<String> = chosen.iter().map(|&i| values[i].to_string()).collect();
    items.join(", ")
}

/// The seeded machines of one ISA: a drawn spec's points, shuffled, the
/// first `n` of them, and one in three with a larger register file of
/// some class.
fn drawn_machines(rng: &mut SmallRng, isa: &str, n: usize) -> Vec<MachineConfig> {
    let text = format!(
        r#"{{"name": "views", "axes": [
            {{"axis": "isa", "values": ["{isa}"]}},
            {{"axis": "issue_width", "values": [{}]}},
            {{"axis": "vector_units", "values": [{}]}},
            {{"axis": "vector_lanes", "values": [{}]}},
            {{"axis": "l2_port_elems", "values": [{}]}},
            {{"axis": "chaining", "values": [true, false]}},
            {{"axis": "l2_latency", "values": [{}]}}]}}"#,
        pick(rng, &[2, 4, 8, 16], 2),
        pick(rng, &[1, 2, 4], 2),
        pick(rng, &[1, 2, 4, 8, 16], 2),
        pick(rng, &[1, 2, 4, 8], 2),
        pick(rng, &[3, 5, 7, 9, 11], 2),
    );
    let spec = SpecFile::parse(&text).expect("the drawn spec parses");
    let points = spec.lower().expect("the drawn spec lowers").spec.expand();
    let mut machines: Vec<MachineConfig> = points.points.into_iter().map(|p| p.machine).collect();
    for i in (1..machines.len()).rev() {
        machines.swap(i, rng.next_u64() as usize % (i + 1));
    }
    machines.truncate(n);
    for machine in &mut machines {
        let regs = &mut machine.regs;
        match rng.next_u64() % 12 {
            0 => regs.int += 16,
            1 if regs.simd > 0 => regs.simd += 8,
            2 if regs.vec > 0 => regs.vec += 4,
            3 if regs.acc > 0 => regs.acc += 2,
            _ => {}
        }
    }
    machines
}

/// Everything a schedule is: the dump, each block's positions and the
/// lowered program.
type Schedule = (String, Vec<Vec<u32>>, vmv::sched::LoweredProgram);

fn schedule_of(compiled: vmv::sched::Compiled, lowered: vmv::sched::LoweredProgram) -> Schedule {
    let positions = compiled.program.blocks.iter();
    let positions = positions.map(|b| b.positions.clone()).collect();
    (compiled.program.dump(), positions, lowered)
}

/// `program` compiled and lowered for `machine` alone.
fn fresh(program: &Program, machine: &MachineConfig, what: &str) -> Schedule {
    let compiled = vmv::sched::compile(program, machine).unwrap_or_else(|e| panic!("{what}: {e}"));
    let lowered = vmv::sched::lower(&compiled.program, machine).unwrap();
    schedule_of(compiled, lowered)
}

fn assert_same(shared: &Schedule, fresh: &Schedule, what: &str) {
    assert!(shared.0 == fresh.0, "{what}: schedules differ");
    assert!(shared.1 == fresh.1, "{what}: positions differ");
    assert!(shared.2 == fresh.2, "{what}: lowered programs differ");
}

#[test]
fn reused_block_placements_match_fresh_compiles() {
    let mut rng = SmallRng::seed_from_u64(0xB10C_F1E5);
    let machines: Vec<MachineConfig> = ["vliw", "usimd", "vector"]
        .iter()
        .flat_map(|isa| drawn_machines(&mut rng, isa, 14))
        .collect();
    assert!(machines.iter().any(|m| m.isa == IsaSupport::Vector));
    for &benchmark in Benchmark::ALL.iter() {
        for isa in [IsaSupport::Vliw, IsaSupport::Usimd, IsaSupport::Vector] {
            let program: Vec<&MachineConfig> = machines.iter().filter(|m| m.isa == isa).collect();
            let variant = variant_for(program[0]);
            let build = benchmark.build(variant);
            let mut runner = ProgramRunner::new(benchmark, variant, 0);
            for &machine in &program {
                let what = format!("{} on {}", benchmark.name(), machine.name);
                let (compiled, lowered) = runner
                    .compile(machine)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let shared = schedule_of(compiled, lowered);
                assert_same(&shared, &fresh(&build.program, machine, &what), &what);
            }
        }
    }
}

/// A scalar block, a µSIMD block of independent packed operations that
/// compete for units, a vector block with a chained dependence, and a
/// scalar tail.
fn every_family_program() -> Program {
    let mut b = ProgramBuilder::new("families");
    let base = b.imm(0x1000);
    let sum = b.imm(0);
    for i in 0..8 {
        let (t, u) = (b.ri(), b.ri());
        b.ld32s(t, base, 4 * i);
        b.mul(u, t, t);
        b.add(sum, sum, u);
    }
    b.begin_region(1, "packed");
    let (a, c) = (b.psplat_imm(Elem::H, 3), b.psplat_imm(Elem::H, 5));
    for i in 0..12 {
        let (s, m) = (b.rs(), b.rs());
        b.padd(Elem::H, Sat::Wrap, s, a, c);
        b.pmullo(Elem::H, m, s, a);
        b.pstore(base, 64 + 8 * i, m);
    }
    b.end_region();
    b.begin_region(2, "vector");
    b.setvl(16);
    b.setvs(8);
    let (v1, v2, v3, v4) = (b.rv(), b.rv(), b.rv(), b.rv());
    b.vload(v1, base, 512);
    b.vload(v2, base, 640);
    b.vadd(Elem::H, Sat::Wrap, v3, v1, v2);
    b.vmullo(Elem::H, v4, v3, v1);
    b.vstore(base, 768, v4);
    b.end_region();
    b.st32(base, 1024, sum);
    b.halt();
    b.finish()
}

#[test]
fn placements_of_every_family_match_fresh_compiles() {
    let mut rng = SmallRng::seed_from_u64(0x0FA4_11E5);
    let program = every_family_program();
    let mut machines = drawn_machines(&mut rng, "vector", 24);
    for machine in machines.iter_mut().step_by(3) {
        // µSIMD operations on µSIMD units of their own: the µSIMD view no
        // longer sees the vector units.
        machine.simd_units = 1 + rng.next_u64() as usize % 4;
    }
    let mut analysis = vmv::sched::analyze(&program).unwrap();
    for machine in &machines {
        let what = format!("{} (simd units {})", machine.name, machine.simd_units);
        let compiled = analysis
            .compile(&program, machine)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let lowered = vmv::sched::lower(&compiled.program, machine).unwrap();
        let shared = schedule_of(compiled, lowered);
        assert_same(&shared, &fresh(&program, machine, &what), &what);
    }
}
