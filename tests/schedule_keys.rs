//! Soundness of the schedule keys: a sweep compiles one schedule per
//! [`CompileCache::key_for`] key, on the first machine that reaches it, and
//! runs every other machine of the key on that schedule.  That is only
//! right if every machine of a key would have compiled the same schedule
//! itself.
//!
//! Machines are drawn through `SpecFile` from seeded random values of every
//! machine axis the key can see or must ignore (`isa`, `issue_width`,
//! `vector_units`, `vector_lanes`, `l2_port_elems`, `chaining`,
//! `l2_latency`), joined by the Table 2 presets, by copies of the scalar
//! and µSIMD machines with every field their view resets scrambled, and by
//! copies of every machine with one schedule-relevant field changed (a
//! view that resets a field the code reads puts such a copy on its
//! original's key).  For each benchmark, the machines of one key must
//! compile to the same `ScheduledProgram::dump()` and the same lowered
//! program, and a sampled run retimed on the shared schedule must equal
//! `run_one` on its own machine.

use std::collections::HashMap;

use vector_usimd_vliw as vmv;

use vmv::core::ProgramRunner;
use vmv::kernels::rng::SmallRng;
use vmv::kernels::Benchmark;
use vmv::machine::{all_configs, IsaSupport, MachineConfig};
use vmv::mem::MemoryModel;
use vmv::sched::LoweredProgram;
use vmv::sweep::{schedule_fingerprint, CompileCache, SpecFile};

/// `k` distinct values of `values`, in their listed order.
fn pick<T: Copy>(rng: &mut SmallRng, values: &[T], k: usize) -> Vec<T> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    for i in 0..k {
        let j = i + (rng.next_u64() % (values.len() - i) as u64) as usize;
        idx.swap(i, j);
    }
    let mut chosen = idx[..k].to_vec();
    chosen.sort_unstable();
    chosen.into_iter().map(|i| values[i]).collect()
}

fn list<T: std::fmt::Display>(values: &[T]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    items.join(", ")
}

/// The machines of one seeded spec over every ISA and both chaining
/// settings.
fn drawn_machines(rng: &mut SmallRng) -> Vec<MachineConfig> {
    let text = format!(
        r#"{{"name": "keys", "axes": [
            {{"axis": "isa", "values": ["vliw", "usimd", "vector"]}},
            {{"axis": "issue_width", "values": [{}]}},
            {{"axis": "vector_units", "values": [{}]}},
            {{"axis": "vector_lanes", "values": [{}]}},
            {{"axis": "l2_port_elems", "values": [{}]}},
            {{"axis": "chaining", "values": [true, false]}},
            {{"axis": "l2_latency", "values": [{}]}}]}}"#,
        list(&pick(rng, &[2, 4, 8, 16], 2)),
        list(&pick(rng, &[1, 2, 4], 1)),
        list(&pick(rng, &[1, 2, 4, 8, 16], 1)),
        list(&pick(rng, &[1, 2, 4, 8], 1)),
        list(&pick(rng, &[3, 5, 7, 9, 11], 2)),
    );
    let spec = SpecFile::parse(&text).expect("the drawn spec parses");
    let points = spec
        .lower()
        .expect("the drawn spec lowers")
        .spec
        .expand()
        .points;
    points.into_iter().map(|p| p.machine).collect()
}

/// A copy of a scalar or µSIMD `machine` with every field its view resets
/// changed to another value lowering accepts.
fn scrambled(rng: &mut SmallRng, machine: &MachineConfig) -> MachineConfig {
    let mut s = machine.clone();
    let mut draw = |lo: i64, hi: i64| rng.gen_range_i64(lo, hi) as u32;
    s.chaining = !s.chaining;
    s.vector_lanes = draw(1, 32);
    s.l2_ports = draw(1, 4) as usize;
    s.l2_port_elems = draw(1, 16);
    s.latencies.vec_alu = draw(1, 8);
    s.latencies.vec_mul = draw(1, 8);
    s.latencies.vec_mem = draw(1, 40);
    if s.isa == IsaSupport::Vliw {
        s.vector_units = draw(1, 8) as usize;
        s.simd_units = draw(1, 8) as usize;
        s.latencies.simd_alu = draw(1, 8);
        s.latencies.simd_mul = draw(1, 8);
    } else if s.simd_units > 0 {
        s.vector_units = draw(1, 8) as usize;
    }
    s
}

/// A copy of `machine` with one schedule-relevant field changed.
fn perturbed(rng: &mut SmallRng, machine: &MachineConfig) -> MachineConfig {
    let mut m = machine.clone();
    let l = &mut m.latencies;
    match rng.next_u64() % 14 {
        0 => m.chaining = !m.chaining,
        1 => m.int_units += 1,
        2 => m.simd_units += 1,
        3 => m.vector_units += 1,
        4 => m.vector_lanes += 1,
        5 => m.l1_ports += 1,
        6 => m.l2_ports += 1,
        7 => m.l2_port_elems += 1,
        8 => l.int_mul += 1,
        9 => l.simd_alu += 1,
        10 => l.simd_mul += 1,
        11 => l.vec_alu += 1,
        12 => l.vec_mul += 1,
        _ => l.vec_mem += 3,
    }
    m
}

/// Everything a schedule is: the scheduled program's dump and the lowered
/// program.
fn schedule_of(runner: &mut ProgramRunner, machine: &MachineConfig) -> (String, LoweredProgram) {
    let (compiled, lowered) = runner
        .compile(machine)
        .unwrap_or_else(|e| panic!("{}: {e}", machine.name));
    (compiled.program.dump(), lowered)
}

#[test]
fn machines_with_one_key_compile_one_schedule() {
    let mut rng = SmallRng::seed_from_u64(0x5C4E_D01E);
    let mut machines = all_configs();
    for _ in 0..2 {
        let drawn = drawn_machines(&mut rng);
        for machine in &drawn {
            if machine.isa != IsaSupport::Vector {
                machines.push(scrambled(&mut rng, machine));
            }
            machines.push(perturbed(&mut rng, machine));
        }
        machines.extend(drawn);
    }

    let mut shared = 0;
    let mut retime_cases = Vec::new();
    for &benchmark in Benchmark::ALL.iter() {
        // The machines of each key, in first-seen order.
        let mut keys: Vec<Vec<&MachineConfig>> = Vec::new();
        let mut index = HashMap::new();
        for machine in &machines {
            let key = CompileCache::key_for(benchmark, machine);
            let k = *index.entry(key).or_insert_with(|| {
                keys.push(Vec::new());
                keys.len() - 1
            });
            keys[k].push(machine);
        }
        let mut runners = HashMap::new();
        for group in keys.iter().filter(|g| g.len() > 1) {
            let variant = vmv::core::variant_for(group[0]);
            let runner = runners
                .entry(variant)
                .or_insert_with(|| ProgramRunner::new(benchmark, variant, 0));
            let (dump, lowered) = schedule_of(runner, group[0]);
            for &other in &group[1..] {
                let (other_dump, other_lowered) = schedule_of(runner, other);
                let what = format!(
                    "{} on {} vs {}",
                    benchmark.name(),
                    group[0].name,
                    other.name
                );
                assert!(other_dump == dump, "{what}: schedules differ");
                assert!(other_lowered == lowered, "{what}: lowered programs differ");
                if schedule_fingerprint(other) != schedule_fingerprint(group[0]) {
                    shared += 1;
                    retime_cases.push((benchmark, group[0], other));
                }
            }
        }
    }
    // The scalar and µSIMD machines differ in chaining and the vector-cache
    // latency at least, so most of them share a key with another machine.
    assert!(shared >= 100, "only {shared} machines shared a schedule");

    // A sample of runs retimed on the shared schedule from the recording
    // of the key's first machine.
    for i in 0..4 {
        let pick = rng.next_u64() as usize % retime_cases.len();
        let (benchmark, first, other) = retime_cases[pick];
        let model = [MemoryModel::Perfect, MemoryModel::Realistic][i % 2];
        let prepared = vmv::core::prepare(benchmark, first).unwrap();
        let batch = vmv::core::simulate_batch(&prepared, &[(first, model), (other, model)])
            .unwrap_or_else(|e| panic!("{} on {}: {e}", benchmark.name(), other.name));
        let alone = vmv::core::run_one(benchmark, other, model).unwrap();
        let what = format!("{} on {} from {}", benchmark.name(), other.name, first.name);
        assert_eq!(batch[1].stats, alone.stats, "{what}");
        assert_eq!(batch[1].check_failures, alone.check_failures, "{what}");
        assert!(alone.check_failures.is_empty(), "{what}");
    }
}
