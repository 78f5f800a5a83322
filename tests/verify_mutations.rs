//! Seeded mutation harness for the static verifier: prove that every
//! fault class the verifier claims to cover is actually *rejected*.
//!
//! A hand-built, provably legal schedule is mutated one fault at a time —
//! co-bundled write→read, an operation after the terminator, a consumer
//! placed inside its producer's latency shadow, oversubscribed issue
//! width / unit pools / cache ports, duplicate same-bundle writes,
//! dangling branch labels, doctored lowered metadata, and a replay
//! analysis that drops a must-track slot — and the harness asserts 100%
//! rejection with the expected diagnostic class, plus golden-pinned
//! rendering for one representative of each class.

use vector_usimd_vliw::isa::{BrCond, MemWidth, Op, Opcode, Reg, RegionId, RegionInfo, Sign};
use vector_usimd_vliw::kernels::Benchmark;
use vector_usimd_vliw::machine::{presets, MachineConfig};
use vector_usimd_vliw::sched::{ScheduledBlock, ScheduledProgram};
use vector_usimd_vliw::verify::{
    has_errors, must_track, verify_compiled, verify_lowered, verify_replay_subset, verify_schedule,
    Check, Diagnostic, Severity,
};

fn movi(dst: u32, imm: i64) -> Op {
    Op::new(Opcode::MovI).with_dst(Reg::int(dst)).with_imm(imm)
}

fn imul(dst: u32, a: u32, b: u32) -> Op {
    Op::new(Opcode::IMul)
        .with_dst(Reg::int(dst))
        .with_srcs(&[Reg::int(a), Reg::int(b)])
}

fn iadd(dst: u32, a: u32, b: u32) -> Op {
    Op::new(Opcode::IAdd)
        .with_dst(Reg::int(dst))
        .with_srcs(&[Reg::int(a), Reg::int(b)])
}

fn load(dst: u32, addr: u32) -> Op {
    Op::new(Opcode::Load(MemWidth::B4, Sign::Signed))
        .with_dst(Reg::int(dst))
        .with_srcs(&[Reg::int(addr)])
        .with_imm(0)
}

fn store(addr: u32, value: u32) -> Op {
    Op::new(Opcode::Store(MemWidth::B4))
        .with_srcs(&[Reg::int(addr), Reg::int(value)])
        .with_imm(0)
}

/// A small schedule that is legal on the 2-issue scalar VLIW preset
/// (`int_mul` latency 3, `int_alu` latency 1, 2 integer units, 1 L1 port):
///
/// ```text
/// bundle 0: movi r0 #1 | movi r1 #2
/// bundle 1: imul r2 r0 r0
/// bundle 2: (empty)
/// bundle 3: (empty)
/// bundle 4: iadd r3 r2 r1        // 3 cycles after its imul producer
/// bundle 5: halt
/// ```
fn baseline() -> (ScheduledProgram, MachineConfig) {
    let machine = presets::vliw(2);
    let program = ScheduledProgram {
        name: "mutation-baseline".to_string(),
        blocks: vec![ScheduledBlock {
            label: "entry".to_string(),
            region: RegionId::SCALAR,
            bundles: vec![
                vec![movi(0, 1), movi(1, 2)],
                vec![imul(2, 0, 0)],
                vec![],
                vec![],
                vec![iadd(3, 2, 1)],
                vec![Op::new(Opcode::Halt)],
            ],
            positions: vec![0, 1, 2, 3, 4],
        }],
        regions: vec![RegionInfo {
            id: RegionId::SCALAR,
            name: "scalar".to_string(),
        }],
    };
    (program, machine)
}

fn classes(diags: &[Diagnostic]) -> Vec<Check> {
    diags.iter().map(|d| d.check).collect()
}

#[test]
fn baseline_is_certified_clean() {
    let (program, machine) = baseline();
    let diags = verify_schedule(&program, &machine);
    assert!(diags.is_empty(), "baseline must verify clean: {diags:?}");
}

/// Every seeded fault must be rejected with (at least) its own class, and
/// everything the verifier says about a faulty schedule must be an error.
#[test]
fn every_fault_class_is_rejected() {
    type Mutation = (&'static str, fn(&mut ScheduledProgram), Check);
    let mutations: [Mutation; 9] = [
        (
            "co-bundled RAW (consumer beside producer)",
            |p| {
                let op = p.blocks[0].bundles[4].remove(0);
                p.blocks[0].bundles[1].push(op);
            },
            Check::Hazard,
        ),
        (
            "operation placed after the terminator",
            |p| {
                p.blocks[0].bundles.swap(4, 5);
            },
            Check::Hazard,
        ),
        (
            "co-bundled stores (memory order lost)",
            |p| {
                p.blocks[0].bundles[2] = vec![store(0, 1), store(1, 0)];
            },
            Check::Hazard,
        ),
        (
            "consumer inside the producer's latency shadow",
            |p| {
                let op = p.blocks[0].bundles[4].remove(0);
                p.blocks[0].bundles[2].push(op);
            },
            Check::Latency,
        ),
        (
            "issue width exceeded",
            |p| {
                p.blocks[0].bundles[0].push(movi(4, 3));
            },
            Check::Resource,
        ),
        (
            "L1 ports oversubscribed",
            |p| {
                p.blocks[0].bundles[2] = vec![load(4, 0), load(5, 0)];
            },
            Check::Resource,
        ),
        (
            "duplicate same-bundle write",
            |p| {
                p.blocks[0].bundles[0] = vec![movi(0, 1), movi(0, 2)];
            },
            Check::DuplicateWrite,
        ),
        (
            "branch to an unknown label",
            |p| {
                p.blocks[0].bundles[5] = vec![Op::new(Opcode::Br(BrCond::Ne))
                    .with_srcs(&[Reg::int(3)])
                    .with_target("nowhere")];
            },
            Check::Label,
        ),
        (
            "branch with no target at all",
            |p| {
                p.blocks[0].bundles[5] =
                    vec![Op::new(Opcode::Br(BrCond::Ne)).with_srcs(&[Reg::int(3)])];
            },
            Check::Label,
        ),
    ];

    for (name, mutate, expected) in mutations {
        let (mut program, machine) = baseline();
        mutate(&mut program);
        let diags = verify_schedule(&program, &machine);
        assert!(
            has_errors(&diags),
            "mutation '{name}' must be rejected, got no errors"
        );
        assert!(
            diags.iter().any(|d| d.check == expected),
            "mutation '{name}' must produce a {expected:?} diagnostic, got {:?}",
            classes(&diags)
        );
        assert!(
            diags.iter().all(|d| d.severity == Severity::Error),
            "mutation '{name}' produced non-error diagnostics: {diags:?}"
        );
    }
}

type GoldenCase = (fn(&mut ScheduledProgram), &'static str);

/// Golden renderings: one representative diagnostic per fault class, so
/// the exact operator-facing text is pinned.
#[test]
fn diagnostics_render_golden() {
    let cases: [GoldenCase; 6] = [
        (
            |p| {
                let op = p.blocks[0].bundles[4].remove(0);
                p.blocks[0].bundles[1].push(op);
            },
            "error[hazard] block 'entry', bundle 1: 'iadd r3 r2 r1' reads r2 \
             in the same bundle its producer 'imul r2 r0 r0' issues in",
        ),
        (
            |p| p.blocks[0].bundles.swap(4, 5),
            "error[hazard] block 'entry', bundle 5: 'iadd r3 r2 r1' is placed \
             after the block terminator 'halt' (bundle 4)",
        ),
        (
            |p| {
                let op = p.blocks[0].bundles[4].remove(0);
                p.blocks[0].bundles[2].push(op);
            },
            "error[latency] block 'entry', bundle 2: 'iadd r3 r2 r1' issues 1 \
             cycle(s) after its producer 'imul r2 r0 r0' (bundle 1); the raw \
             dependence on r2 requires 3",
        ),
        (
            |p| p.blocks[0].bundles[0].push(movi(4, 3)),
            "error[resource] block 'entry', bundle 0: issue width exceeded: \
             3 operations in one bundle, width is 2",
        ),
        (
            |p| p.blocks[0].bundles[0] = vec![movi(0, 1), movi(0, 2)],
            "error[duplicate-write] block 'entry', bundle 0: duplicate write \
             to r0: 'movi r0 #1' and 'movi r0 #2' share the bundle",
        ),
        (
            |p| {
                p.blocks[0].bundles[5] = vec![Op::new(Opcode::Br(BrCond::Ne))
                    .with_srcs(&[Reg::int(3)])
                    .with_target("nowhere")]
            },
            "error[label] block 'entry', bundle 5: branch 'br_ne r3 ->nowhere' \
             targets unknown label 'nowhere'",
        ),
    ];
    for (mutate, expected) in cases {
        let (mut program, machine) = baseline();
        mutate(&mut program);
        let rendered: Vec<String> = verify_schedule(&program, &machine)
            .iter()
            .map(|d| d.to_string())
            .collect();
        assert!(
            rendered.iter().any(|r| r == expected),
            "expected golden diagnostic\n  {expected}\ngot\n  {rendered:#?}"
        );
    }
}

/// Lowered-level mutations: doctored packed metadata, a mis-pointed branch
/// target, and a block that falls off the end of the program.
#[test]
fn lowered_mutations_are_rejected() {
    let machine = presets::vliw(2);
    let clean = vector_usimd_vliw::core::prepare(Benchmark::GsmDec, &machine).unwrap();
    assert!(
        verify_lowered(&clean.lowered, &machine).is_empty(),
        "prepared program must verify clean"
    );

    // Shrink one op's flow latency: the replay engines would release
    // consumers early.  The verifier re-derives it from the machine table.
    let mut doctored = clean.lowered.clone();
    let victim = doctored
        .ops
        .iter()
        .position(|op| op.flow > 1)
        .expect("some op with flow > 1");
    doctored.ops[victim].flow -= 1;
    let diags = verify_lowered(&doctored, &machine);
    assert!(
        diags
            .iter()
            .any(|d| d.check == Check::Latency && d.message.contains("flow latency")),
        "{diags:?}"
    );

    // Mis-point a branch: target index past the block list.
    let mut doctored = clean.lowered.clone();
    let branch = doctored
        .ops
        .iter()
        .position(|op| op.opcode.is_branch())
        .expect("GSM_DEC has loops");
    doctored.ops[branch].target = 9999;
    let diags = verify_lowered(&doctored, &machine);
    assert!(
        diags
            .iter()
            .any(|d| d.check == Check::Label && d.message.contains("out of range")),
        "{diags:?}"
    );

    // A program whose last block has no halt falls off the end.
    let no_halt = ScheduledProgram {
        name: "no-halt".to_string(),
        blocks: vec![ScheduledBlock {
            label: "entry".to_string(),
            region: RegionId::SCALAR,
            bundles: vec![vec![movi(0, 1)]],
            positions: vec![0],
        }],
        regions: vec![RegionInfo {
            id: RegionId::SCALAR,
            name: "scalar".to_string(),
        }],
    };
    let lowered = vector_usimd_vliw::sched::lower(&no_halt, &machine).unwrap();
    let diags = verify_lowered(&lowered, &machine);
    assert!(
        diags.iter().any(|d| d.check == Check::Label),
        "missing halt must be a label-class error: {diags:?}"
    );
    assert!(has_errors(&diags));
}

/// The replay subset proof: the engine's tracked set covers every
/// must-track slot on a real program, and a doctored all-false tracked
/// set (an analysis that "optimizes away" the whole scoreboard) is
/// rejected with a replay-class diagnostic naming a register.
#[test]
fn replay_subset_holds_and_mutations_are_rejected() {
    let machine = presets::vliw(2);
    let prepared = vector_usimd_vliw::core::prepare(Benchmark::GsmDec, &machine).unwrap();
    let analysis = vector_usimd_vliw::sim::ReplayAnalysis::build(&prepared.lowered);
    assert!(
        verify_replay_subset(&prepared.lowered, analysis.tracked_slots()).is_empty(),
        "the engine's tracked set must cover every must-track slot"
    );
    let must = must_track(&prepared.lowered);
    assert!(
        must.iter().any(|&m| m),
        "GSM_DEC has loads whose destinations are read"
    );

    let none = vec![false; prepared.lowered.total_slots()];
    let diags = verify_replay_subset(&prepared.lowered, &none);
    assert!(has_errors(&diags));
    assert!(diags.iter().all(|d| d.check == Check::Replay), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.message.contains("drops r")),
        "diagnostic should name the dropped register: {diags:?}"
    );

    // A tracked set of the wrong size is its own structural error.
    let short = vec![true; 1];
    let diags = verify_replay_subset(&prepared.lowered, &short);
    assert!(has_errors(&diags));
    assert!(diags[0].message.contains("covers 1 slots"), "{}", diags[0]);
}

/// The acceptance sweep: every (preset machine, benchmark) schedule in the
/// matrix must certify with zero diagnostics — the same contract the
/// `verify --all` CI step enforces on the release build.
#[test]
fn full_matrix_certifies_clean() {
    for machine in vector_usimd_vliw::machine::all_configs() {
        for &benchmark in Benchmark::ALL.iter() {
            let prepared = vector_usimd_vliw::core::prepare(benchmark, &machine)
                .unwrap_or_else(|e| panic!("{} / {}: {e}", machine.name, benchmark.name()));
            let diags = verify_compiled(&prepared.compiled.program, &prepared.lowered, &machine);
            assert!(
                diags.is_empty(),
                "{} / {} failed certification: {diags:?}",
                machine.name,
                benchmark.name()
            );
        }
    }
}
