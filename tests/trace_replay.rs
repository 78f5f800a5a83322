//! Trace-replay behaviour beyond the three-engine differential: the batched
//! walk is deterministic and bit-identical to fresh execution for any
//! variant subset (a batch of one included, batches whose class trees
//! hold several L1 fronts, and L2 ladders whose shared back overflows in
//! the middle of the walk), `simulate_batch`'s record-and-
//! retime call agrees with fresh execution, one program's trace is the same
//! on every schedule and retimes all of them exactly, a retime under the
//! recording's own configuration and memory issue order reads the recorded
//! latencies while any other prices through the class tree, and malformed
//! or foreign traces are rejected with typed errors instead of garbage
//! statistics — also under seeded random corruption.

use std::sync::Arc;

use vector_usimd_vliw as vmv;
use vmv::core::{
    prepare, simulate_batch, simulate_fresh, simulate_schedule, variant_for, TraceFrom,
};
use vmv::isa::ProgramBuilder;
use vmv::kernels::rng::SmallRng;
use vmv::kernels::{Benchmark, IsaVariant};
use vmv::machine::{presets, IsaSupport, MachineConfig};
use vmv::mem::MemoryModel;
use vmv::sched::LoweredProgram;
use vmv::sim::{
    replay_batch, replay_batch_profiled, ProfileStatics, ReplayAnalysis, ReplayError, RunStats,
    SimError, SimOptions, Simulator, Trace, TraceLayout, VariantState,
};
use vmv::sweep::{CompileCache, SpecFile};

const MAX_CYCLES: u64 = 2_000_000_000;

/// A simulator loaded with `prepared`'s initial memory image.
fn simulator(
    prepared: &vmv::core::Prepared,
    machine: &MachineConfig,
    model: MemoryModel,
    max_cycles: u64,
) -> Simulator {
    let mut sim = Simulator::new(
        machine,
        SimOptions {
            memory_model: model,
            mem_size: prepared.build.mem_size.max(1 << 20),
            max_cycles,
        },
    );
    for (addr, bytes) in &prepared.build.init {
        sim.mem.write_bytes(*addr, bytes);
    }
    sim
}

fn record(
    bench: Benchmark,
    machine: &MachineConfig,
    model: MemoryModel,
) -> (vmv::core::Prepared, vmv::sim::RunStats, Trace) {
    let prepared = prepare(bench, machine).expect("prepares");
    let (stats, trace, _) = simulator(&prepared, machine, model, MAX_CYCLES)
        .run_lowered_recording(&prepared.lowered, None)
        .expect("recording run");
    (prepared, stats, trace)
}

/// Retime `trace` for one variant: a batched walk of width one.
fn retime_one(
    prepared: &vmv::core::Prepared,
    trace: &Trace,
    machine: &MachineConfig,
    model: MemoryModel,
) -> Result<RunStats, ReplayError> {
    let analysis = ReplayAnalysis::build(&prepared.lowered);
    let mut variant = [VariantState::new(&analysis, machine, model, MAX_CYCLES)];
    let mut out = replay_batch(trace, &analysis, &mut variant)?;
    assert_eq!(out.len(), 1, "one RunStats per variant");
    Ok(out.remove(0))
}

/// A marker no hierarchy counts to: the stall total of [`marked`]'s
/// recorded statistics.
const MARK: u64 = u64::MAX - 0x5EED;

/// `trace` with [`MARK`] in its recorded memory statistics: a walk that
/// prices from the recording reports the mark, one that prices through a
/// class tree never does.
fn marked(trace: &Trace) -> Trace {
    let mut t = trace.clone();
    t.pricing
        .as_mut()
        .expect("the recording priced")
        .stats
        .total_stall_cycles = MARK;
    t
}

/// Whether `stats` came from a walk that read the recorded pricing.
fn read_the_recording(stats: &RunStats) -> bool {
    stats.memory.total_stall_cycles == MARK
}

#[test]
fn replaying_the_same_trace_twice_is_deterministic() {
    let machine = presets::vector2(4);
    let (prepared, stats, trace) = record(Benchmark::GsmDec, &machine, MemoryModel::Realistic);
    let a = retime_one(&prepared, &trace, &machine, MemoryModel::Realistic).expect("first replay");
    let b = retime_one(&prepared, &trace, &machine, MemoryModel::Realistic).expect("second replay");
    assert_eq!(a, b, "replay must be a pure function of (program, trace)");
    assert_eq!(a, stats, "and must reproduce the recorded run exactly");
}

#[test]
fn adaptive_simulate_matches_fresh_execution_across_models() {
    // One batch over both models executes and records the first and
    // replays the second.  Both must agree bit-for-bit with a fresh
    // execution of the same model.
    let machine = presets::vector2(2);
    let prepared = prepare(Benchmark::JpegEnc, &machine).unwrap();
    let models = [MemoryModel::Perfect, MemoryModel::Realistic];
    let variants: Vec<_> = models.iter().map(|&model| (&machine, model)).collect();
    let adaptive = simulate_batch(&prepared, &variants).unwrap();
    for (adaptive, model) in adaptive.iter().zip(models) {
        let fresh = simulate_fresh(&prepared, &machine, model).unwrap();
        assert_eq!(adaptive.stats, fresh.stats, "{model:?}");
        assert_eq!(adaptive.check_failures, fresh.check_failures, "{model:?}");
    }
}

#[test]
fn truncated_access_stream_is_rejected() {
    let machine = presets::vector2(2);
    let (prepared, _, trace) = record(Benchmark::GsmDec, &machine, MemoryModel::Perfect);
    assert!(!trace.accesses.is_empty());
    let mut cut = trace.clone();
    cut.accesses.truncate(trace.accesses.len() / 2);
    match retime_one(&prepared, &cut, &machine, MemoryModel::Perfect) {
        Err(ReplayError::TruncatedAccesses { consumed }) => {
            assert_eq!(consumed, cut.accesses.len())
        }
        other => panic!("expected TruncatedAccesses, got {other:?}"),
    }
}

#[test]
fn truncated_vl_stream_is_rejected() {
    let machine = presets::vector2(2);
    let (prepared, _, trace) = record(Benchmark::GsmEnc, &machine, MemoryModel::Perfect);
    assert!(
        !trace.vl_sets.is_empty(),
        "a strip-mined vector kernel sets VL at least once"
    );
    let mut cut = trace.clone();
    cut.vl_sets.clear();
    match retime_one(&prepared, &cut, &machine, MemoryModel::Perfect) {
        Err(ReplayError::TruncatedVlSets { consumed }) => assert_eq!(consumed, 0),
        other => panic!("expected TruncatedVlSets, got {other:?}"),
    }
}

#[test]
fn out_of_range_block_and_trailing_events_are_rejected() {
    let machine = presets::vector2(2);
    let (prepared, _, trace) = record(Benchmark::GsmDec, &machine, MemoryModel::Perfect);

    let mut bogus = trace.clone();
    bogus.blocks[0] = prepared.lowered.blocks.len() as u32 + 7;
    assert!(matches!(
        retime_one(&prepared, &bogus, &machine, MemoryModel::Perfect),
        Err(ReplayError::BlockOutOfRange { step: 0, .. })
    ));

    let mut padded = trace.clone();
    padded.accesses.push(*padded.accesses.last().unwrap());
    assert!(matches!(
        retime_one(&prepared, &padded, &machine, MemoryModel::Perfect),
        Err(ReplayError::TrailingEvents { accesses: 1, .. })
    ));
}

#[test]
fn empty_trace_is_rejected_as_missing_halt() {
    let machine = presets::vector2(2);
    let (prepared, _, _) = record(Benchmark::GsmDec, &machine, MemoryModel::Perfect);
    let empty = Trace::default();
    assert!(matches!(
        retime_one(&prepared, &empty, &machine, MemoryModel::Perfect),
        Err(ReplayError::MissingHalt)
    ));
}

#[test]
fn replay_errors_render_as_text() {
    // The sweep surfaces these through `e.to_string()` — make sure every
    // variant has a stable human-readable rendering.
    let errors: Vec<ReplayError> = vec![
        ReplayError::ProgramMismatch {
            trace: 0x1234,
            program: 0x5678,
        },
        ReplayError::MalformedAccess { entry: 7 },
        ReplayError::BlockOutOfRange { step: 3, block: 9 },
        ReplayError::TruncatedAccesses { consumed: 12 },
        ReplayError::TruncatedVlSets { consumed: 0 },
        ReplayError::MissingHalt,
        ReplayError::BlocksAfterHalt { step: 5 },
        ReplayError::TrailingEvents {
            accesses: 2,
            vl_sets: 1,
        },
        ReplayError::VariantSlotMismatch {
            variant: 1,
            expected: 40,
            got: 64,
        },
        ReplayError::TruncatedLatencies { consumed: 40 },
        ReplayError::TrailingLatencies { latencies: 3 },
        ReplayError::CycleLimit(1_000_000),
    ];
    for e in errors {
        assert!(!e.to_string().is_empty(), "{e:?}");
    }
}

/// A memory-parameter variant of `machine`: same schedule-relevant fields,
/// slower lower levels.  Tag-equivalent to the base machine, so a batch
/// containing both exercises the echo-priced follower path.
fn slow_memory(machine: &MachineConfig) -> MachineConfig {
    let mut m = machine.clone();
    m.memory.l3_latency += 15;
    m.memory.mem_latency *= 3;
    m
}

#[test]
fn batched_replay_is_bit_identical_to_fresh_execution_on_the_full_matrix() {
    // For every Table 2 preset and every kernel, retiming one trace against
    // K variants in a single fused walk must produce exactly the RunStats
    // that K fresh lowered executions produce.  The variant set mixes both
    // memory models and a latency-shifted machine so the batch spans
    // tag-equivalence classes (leaders) and pure latency followers.
    let configs = vmv::machine::all_configs();
    assert_eq!(configs.len(), 10, "Table 2 has ten configurations");
    for machine in &configs {
        for bench in Benchmark::ALL {
            let (prepared, _, trace) = record(bench, machine, MemoryModel::Perfect);
            let analysis = ReplayAnalysis::build(&prepared.lowered);
            let slow = slow_memory(machine);
            let plan: Vec<(&MachineConfig, MemoryModel)> = vec![
                (machine, MemoryModel::Perfect),
                (machine, MemoryModel::Realistic),
                (&slow, MemoryModel::Realistic),
            ];
            let mut variants: Vec<VariantState> = plan
                .iter()
                .map(|(m, model)| VariantState::new(&analysis, m, *model, MAX_CYCLES))
                .collect();
            let batched = replay_batch(&trace, &analysis, &mut variants)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), machine.name));
            assert_eq!(batched.len(), plan.len());
            for ((m, model), got) in plan.iter().zip(&batched) {
                let fresh = simulate_fresh(&prepared, m, *model)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), machine.name));
                assert_eq!(
                    *got,
                    fresh.stats,
                    "batched replay diverged from execution: {} on {} under {:?} (mem_latency {})",
                    bench.name(),
                    machine.name,
                    model,
                    m.memory.mem_latency
                );
            }
            // A batch of one takes the walk compiled for width one.
            let single = retime_one(&prepared, &trace, &slow, MemoryModel::Realistic)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), machine.name));
            assert_eq!(
                single,
                batched[2],
                "batch of one diverged: {} on {}",
                bench.name(),
                machine.name
            );
        }
    }
}

#[test]
fn random_variant_subsets_match_fresh_execution() {
    // Property test: any subset of memory variants, in any order (with
    // repeats), batch-replays to exactly what each variant gets from a
    // fresh lowered execution — from the degenerate batch of one up to
    // sweep-sized batches with many tag classes, long follower columns and
    // stalls confined to a few lanes.
    let machine = presets::vector2(4);
    let (prepared, _, trace) = record(Benchmark::JpegEnc, &machine, MemoryModel::Perfect);
    let analysis = ReplayAnalysis::build(&prepared.lowered);

    // A pool of candidate variants: both models × four L2 geometries × four
    // latency points.  Each geometry is its own tag-equivalence class and
    // the latency points are its followers; the three 8 KiB geometries are
    // small enough to change this kernel's hit/miss behaviour.
    let geometries = [(8 << 10, 1), (8 << 10, 2), (8 << 10, 4), (256 << 10, 4)];
    let mut pool: Vec<(MachineConfig, MemoryModel)> = Vec::new();
    for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
        for (l2_size, l2_assoc) in geometries {
            for (l2_lat, mem_lat) in [(8, 100), (8, 400), (12, 100), (5, 900)] {
                let mut m = machine.clone();
                m.memory.l2_size = l2_size;
                m.memory.l2_assoc = l2_assoc;
                m.memory.l2_latency = l2_lat;
                m.memory.mem_latency = mem_lat;
                pool.push((m, model));
            }
        }
    }

    // Fresh-execution oracle per pool entry, computed once.
    let oracle: Vec<RunStats> = pool
        .iter()
        .map(|(m, model)| simulate_fresh(&prepared, m, *model).unwrap().stats)
        .collect();
    // Test premise: under the realistic model, every geometry misses
    // differently (same latency point, distinct L2 miss counts).
    let realistic = &oracle[geometries.len() * 4..];
    let mut l2_misses: Vec<u64> = realistic
        .iter()
        .step_by(4)
        .map(|s| s.memory.l2_misses)
        .collect();
    l2_misses.sort_unstable();
    l2_misses.dedup();
    assert_eq!(l2_misses.len(), geometries.len(), "{l2_misses:?}");

    let mut rng = SmallRng::seed_from_u64(0x5EED_BA7C);
    for round in 0..16 {
        // Round 0 pins the batch-of-one case, rounds 1–11 draw 1..=6
        // variants and rounds 12–15 sweep-sized batches of 7..=64, with
        // replacement, in random order.
        let width = match round {
            0 => 1,
            1..=11 => rng.gen_range_i64(1, 6) as usize,
            _ => rng.gen_range_i64(7, 64) as usize,
        };
        let picks: Vec<usize> = (0..width)
            .map(|_| rng.gen_range_i64(0, pool.len() as i64 - 1) as usize)
            .collect();
        let mut variants: Vec<VariantState> = picks
            .iter()
            .map(|&i| VariantState::new(&analysis, &pool[i].0, pool[i].1, MAX_CYCLES))
            .collect();
        let batched = replay_batch(&trace, &analysis, &mut variants).unwrap();
        assert_eq!(batched.len(), picks.len());
        for (slot, &i) in picks.iter().enumerate() {
            assert_eq!(
                batched[slot], oracle[i],
                "round {round}: batch slot {slot} (pool entry {i}) diverged"
            );
        }
    }
}

#[test]
fn multi_front_batches_match_fresh_execution() {
    // Property test over batches whose class trees hold several L1 fronts:
    // the pool spans two L1 geometries (256 B and 16 KiB), two L2 line sizes
    // (64 and 128 bytes, so the backs under one front interleave its
    // coherence pushes with L2 line walks of different shapes), two L2
    // sizes and two latency points, under both models.  Any subset, in any
    // order, must retime to exactly what each variant gets from a fresh
    // lowered execution.
    let machine = presets::vector2(4);
    let (prepared, _, trace) = record(Benchmark::JpegDec, &machine, MemoryModel::Perfect);
    let analysis = ReplayAnalysis::build(&prepared.lowered);
    let mut pool: Vec<(MachineConfig, MemoryModel)> = Vec::new();
    for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
        for l1_size in [256, 16 << 10] {
            for l2_line in [64, 128] {
                for (l2_size, l2_lat, mem_lat) in [(2 << 10, 5, 100), (256 << 10, 9, 400)] {
                    let mut m = machine.clone();
                    m.memory.l1_size = l1_size;
                    m.memory.l2_line = l2_line;
                    m.memory.l2_size = l2_size;
                    m.memory.l2_latency = l2_lat;
                    m.memory.mem_latency = mem_lat;
                    pool.push((m, model));
                }
            }
        }
    }
    let oracle: Vec<RunStats> = pool
        .iter()
        .map(|(m, model)| simulate_fresh(&prepared, m, *model).unwrap().stats)
        .collect();
    // Test premise, under the realistic model: each L1 size misses
    // differently, each L2 line size too, and vector accesses invalidate
    // L1 lines.
    let realistic = &oracle[pool.len() / 2..];
    let distinct = |f: fn(&RunStats) -> u64| {
        let mut v: Vec<u64> = realistic.iter().map(f).collect();
        v.sort_unstable();
        v.dedup();
        v.len()
    };
    assert!(distinct(|s| s.memory.l1_misses) >= 2);
    assert!(distinct(|s| s.memory.l2_misses) >= 4);
    assert!(realistic
        .iter()
        .all(|s| s.memory.coherence_invalidations > 0));

    let mut rng = SmallRng::seed_from_u64(0xF2_0475);
    for round in 0..12 {
        let width = match round {
            0 => 1,
            1..=5 => rng.gen_range_i64(2, 8) as usize,
            _ => rng.gen_range_i64(9, 48) as usize,
        };
        let picks: Vec<usize> = (0..width)
            .map(|_| rng.gen_range_i64(0, pool.len() as i64 - 1) as usize)
            .collect();
        let mut variants: Vec<VariantState> = picks
            .iter()
            .map(|&i| VariantState::new(&analysis, &pool[i].0, pool[i].1, MAX_CYCLES))
            .collect();
        let batched = replay_batch(&trace, &analysis, &mut variants).unwrap();
        for (slot, &i) in picks.iter().enumerate() {
            assert_eq!(
                batched[slot], oracle[i],
                "round {round}: batch slot {slot} (pool entry {i}) diverged"
            );
        }
    }
}

/// Retime `trace` on every variant of `plan` in one batch, unprofiled and
/// profiled, and compare each lane with a fresh profiled execution of its
/// variant on `simulator(machine, model)`: identical `RunStats` and an
/// identical `Profile`.  Returns the fresh stats.
fn assert_batch_matches_fresh_profiled(
    lowered: &LoweredProgram,
    trace: &Trace,
    plan: &[(MachineConfig, MemoryModel)],
    simulator: impl Fn(&MachineConfig, MemoryModel) -> Simulator,
    what: &str,
) -> Vec<RunStats> {
    let analysis = ReplayAnalysis::build(lowered);
    let statics = Arc::new(ProfileStatics::build(lowered, &plan[0].0));
    let states = || -> Vec<VariantState> {
        plan.iter()
            .map(|(m, model)| VariantState::new(&analysis, m, *model, MAX_CYCLES))
            .collect()
    };
    let batched =
        replay_batch(trace, &analysis, &mut states()).unwrap_or_else(|e| panic!("{what}: {e}"));
    let (profiled, profiles) = replay_batch_profiled(trace, &analysis, &mut states(), &statics)
        .unwrap_or_else(|e| panic!("{what} profiled: {e}"));
    plan.iter()
        .enumerate()
        .map(|(lane, (m, model))| {
            let (fresh, _, profile) = simulator(m, *model)
                .run_lowered_recording(lowered, Some(&statics))
                .unwrap_or_else(|e| panic!("{what} lane {lane}: {e}"));
            let ctx = format!(
                "{what} lane {lane} (l1_latency {}, mem_latency {})",
                m.memory.l1_latency, m.memory.mem_latency
            );
            assert_eq!(batched[lane], fresh, "{ctx}");
            assert_eq!(profiled[lane], fresh, "{ctx}, profiled");
            assert_eq!(Some(&profiles[lane]), profile.as_ref(), "{ctx}, profile");
            fresh
        })
        .collect()
}

/// `machine` with memory latencies `f(i)` for each of `n` variants.
fn ladder(
    machine: &MachineConfig,
    model: MemoryModel,
    n: u32,
    f: impl Fn(&mut vmv::machine::MemoryParams, u32),
) -> Vec<(MachineConfig, MemoryModel)> {
    (0..n)
        .map(|i| {
            let mut m = machine.clone();
            f(&mut m.memory, i);
            (m, model)
        })
        .collect()
}

#[test]
fn wide_batches_whose_lanes_stall_apart_match_fresh_execution() {
    // The walk writes a result every lane shares (fixed-latency and
    // VL-dependent results, and scalar loads that hit every L1 front when
    // all lanes share one L1 latency) as a bound and an epoch stamp, and
    // writes its per-lane row out only when a segment stalls the lanes
    // apart while the result is still in flight.  A DRAM-latency ladder on
    // memory-bound kernels stalls each lane by its own amount at every
    // miss, so these segments are many; a second ladder also varies the L1
    // latency, so no load is shared and every load writes its row.
    for (bench, machine) in [
        (Benchmark::JpegDec, presets::vector2(4)),
        (Benchmark::Mpeg2Enc, presets::vliw(4)),
    ] {
        let (prepared, _, trace) = record(bench, &machine, MemoryModel::Realistic);
        let dram = |p: &mut vmv::machine::MemoryParams, i| p.mem_latency = 40 + 90 * i;
        for (plan, what) in [
            (
                ladder(&machine, MemoryModel::Realistic, 10, dram),
                "DRAM ladder",
            ),
            (
                ladder(&machine, MemoryModel::Realistic, 10, |p, i| {
                    dram(p, i);
                    p.l1_latency = 1 + i % 3;
                }),
                "DRAM x L1 ladder",
            ),
        ] {
            let what = format!("{} on {}: {what}", bench.name(), machine.name);
            let fresh = assert_batch_matches_fresh_profiled(
                &prepared.lowered,
                &trace,
                &plan,
                |m, model| simulator(&prepared, m, model, MAX_CYCLES),
                &what,
            );
            // Test premise: every lane stalls by its own amount.
            let mut cycles: Vec<u64> = fresh.iter().map(RunStats::cycles).collect();
            cycles.sort_unstable();
            cycles.dedup();
            assert_eq!(cycles.len(), plan.len(), "{what}: {cycles:?}");
        }
    }
}

#[test]
fn l2_ladders_whose_shared_back_overflows_mid_walk_match_fresh_execution() {
    // The committed cache_geometry study's L2 ladder (8, 64 and 256 KiB,
    // 1-, 2- and 4-way, each at four DRAM latencies) is one group of nine
    // tag classes under one L1 front: the batch's class tree serves them
    // from one shared back until some class's L2 would evict, and then the
    // batch is walked again with one back per class.  On every kernel, the
    // batch, unprofiled and profiled, must match fresh execution of every
    // variant.
    let study = SpecFile::parse(include_str!("../examples/specs/cache_geometry.json"))
        .unwrap()
        .lower()
        .unwrap();
    let plan: Vec<(MachineConfig, MemoryModel)> = study
        .spec
        .expand()
        .points
        .into_iter()
        .map(|point| (point.machine, point.model))
        .collect();
    assert_eq!(plan.len(), 36);
    for bench in Benchmark::ALL {
        let (prepared, _, trace) = record(bench, &plan[0].0, MemoryModel::Realistic);
        let fresh = assert_batch_matches_fresh_profiled(
            &prepared.lowered,
            &trace,
            &plan,
            |m, model| simulator(&prepared, m, model, MAX_CYCLES),
            &format!("{} on the L2 ladder", bench.name()),
        );
        // Test premise: on JPEG_DEC the classes part ways, so some L2
        // evicted and the shared back overflowed; the 8 KiB direct-mapped L2
        // costs cycles over the 256 KiB 4-way one at every DRAM latency.
        if bench == Benchmark::JpegDec {
            let cycles = |l2_size, l2_assoc, mem_latency| {
                let lane = plan.iter().position(|(m, _)| {
                    (m.memory.l2_size, m.memory.l2_assoc, m.memory.mem_latency)
                        == (l2_size, l2_assoc, mem_latency)
                });
                fresh[lane.expect("a ladder point")].cycles()
            };
            for mem_latency in [100, 200, 300, 400] {
                assert!(
                    cycles(8 << 10, 1, mem_latency) > cycles(256 << 10, 4, mem_latency),
                    "DRAM latency {mem_latency}"
                );
            }
        }
    }
}

#[test]
fn a_shared_result_in_flight_binds_after_the_lanes_stall_apart() {
    // In the kernels a stall that splits the lanes outlasts every shared
    // result still in flight, so none of them binds afterwards.  This loop
    // makes one bind: its first block issues a 12-cycle divide and a load,
    // and the next block uses the load, then the quotient.  The lanes
    // differ in L1 latency, so each stalls by its own amount at the load's
    // use while the divide is in flight, and then every lane waits for the
    // divide at the quotient's use, the lane with the fastest L1 longest.
    // Settling the divide's row under the offsets grown by that stall, or
    // not at all, changes the lanes' cycles.
    let mut b = ProgramBuilder::new("shared_in_flight");
    let (i, dividend, divisor, ptr) = (b.ri(), b.ri(), b.ri(), b.ri());
    b.li(i, 0);
    b.li(dividend, 1000);
    b.li(divisor, 7);
    b.li(ptr, 0x1000);
    b.label("produce");
    let (quotient, loaded) = (b.ri(), b.ri());
    b.div(quotient, dividend, divisor);
    b.ld32s(loaded, ptr, 0);
    b.label("consume");
    let (sum, total) = (b.ri(), b.ri());
    b.addi(sum, loaded, 1);
    b.add(total, quotient, sum);
    b.addi(i, i, 1);
    b.blt_i(i, 8, "produce");
    b.label("done");
    b.halt();
    let program = b.finish();
    let machine = presets::vliw(4);
    let compiled = vmv::sched::compile(&program, &machine).expect("compiles");
    let lowered = vmv::sched::lower(&compiled.program, &machine).expect("lowers");
    let simulator = |m: &MachineConfig, model| {
        let options = SimOptions {
            memory_model: model,
            mem_size: 1 << 20,
            max_cycles: MAX_CYCLES,
        };
        Simulator::new(m, options)
    };
    let (_, trace, _) = simulator(&machine, MemoryModel::Perfect)
        .run_lowered_recording(&lowered, None)
        .expect("records");
    for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
        let plan = ladder(&machine, model, 8, |p, i| p.l1_latency = 1 + i);
        let fresh = assert_batch_matches_fresh_profiled(
            &lowered,
            &trace,
            &plan,
            simulator,
            &format!("{model:?} L1 ladder"),
        );
        // Test premise: with every load an L1 hit, the divide hides each
        // lane's L1 latency, so all lanes take the same cycles, and the
        // lane with a one-cycle L1 stalls on the divide alone.
        if model == MemoryModel::Perfect {
            assert!(fresh.iter().all(|s| s.cycles() == fresh[0].cycles()));
            assert!(fresh[0].total().stall_cycles > 0);
        }
    }
}

#[test]
fn batch_cycle_limit_names_the_first_variant_in_batch_order_to_overrun() {
    // Every variant of a batch carries its own cycle cap: above, exactly
    // at or below its fresh cycle count, in mixed positions and tag
    // classes.  The batch fails with the cap of the first variant in batch
    // order that overruns — the error a fresh execution under that cap
    // reports — and returns the fresh stats once no cap is below its run.
    let machine = presets::vector2(4);
    let (prepared, _, trace) = record(Benchmark::GsmDec, &machine, MemoryModel::Perfect);
    let analysis = ReplayAnalysis::build(&prepared.lowered);
    let mut small_l2 = machine.clone();
    small_l2.memory.l2_size = 8 * 1024;
    small_l2.memory.l2_assoc = 1;
    let configs: Vec<(MachineConfig, MemoryModel)> = vec![
        (machine.clone(), MemoryModel::Realistic),
        (slow_memory(&machine), MemoryModel::Realistic),
        (machine.clone(), MemoryModel::Perfect),
        (small_l2.clone(), MemoryModel::Realistic),
        (slow_memory(&small_l2), MemoryModel::Realistic),
    ];
    let fresh: Vec<RunStats> = configs
        .iter()
        .map(|(m, model)| simulate_fresh(&prepared, m, *model).unwrap().stats)
        .collect();
    let cycles: Vec<u64> = fresh.iter().map(RunStats::cycles).collect();

    // A capped fresh execution agrees on where each cap lies.
    let capped = |c: usize, cap: u64| {
        simulator(&prepared, &configs[c].0, configs[c].1, cap).run_lowered(&prepared.lowered)
    };
    for c in 0..configs.len() {
        assert_eq!(
            capped(c, cycles[c]).unwrap(),
            fresh[c],
            "config {c} at its cap"
        );
        assert_eq!(
            capped(c, cycles[c] - 1),
            Err(SimError::CycleLimit(cycles[c] - 1)),
            "config {c} one cycle short"
        );
    }

    let run = |plan: &[(usize, u64)]| {
        let mut variants: Vec<VariantState> = plan
            .iter()
            .map(|&(c, cap)| VariantState::new(&analysis, &configs[c].0, configs[c].1, cap))
            .collect();
        replay_batch(&trace, &analysis, &mut variants)
    };

    // Variant 2 overruns half-way through; variants 4 and 6 only at the
    // final segment.  Variant 2 comes first in batch order.
    let half = cycles[1] / 2;
    let plan = [
        (0, cycles[0] + 1000),
        (2, cycles[2]),
        (1, half),
        (3, cycles[3]),
        (4, cycles[4] - 1),
        (0, cycles[0]),
        (2, cycles[2] - 1),
    ];
    assert_eq!(run(&plan), Err(ReplayError::CycleLimit(half)));
    assert_eq!(capped(1, half), Err(SimError::CycleLimit(half)));

    // Without it, two variants of different classes overrun at the same
    // (final) segment: the earlier in batch order is named.
    assert_ne!(cycles[4], cycles[2], "test premise: distinct caps");
    let late: Vec<(usize, u64)> = plan.iter().copied().filter(|&(c, _)| c != 1).collect();
    assert_eq!(run(&late), Err(ReplayError::CycleLimit(cycles[4] - 1)));

    // Every cap at or above its run's cycles: the fresh stats, in order.
    let fits = [
        (0, cycles[0] + 1000),
        (2, cycles[2]),
        (1, cycles[1]),
        (3, cycles[3]),
        (4, cycles[4]),
        (0, cycles[0]),
        (2, cycles[2] + 1),
    ];
    let out = run(&fits).expect("no variant overruns");
    for (slot, &(c, _)) in fits.iter().enumerate() {
        assert_eq!(out[slot], fresh[c], "batch slot {slot} (config {c})");
    }
}

#[test]
fn empty_batch_and_foreign_variants_are_rejected_cleanly() {
    let machine = presets::vector2(2);
    let (prepared, _, trace) = record(Benchmark::GsmDec, &machine, MemoryModel::Perfect);
    let analysis = ReplayAnalysis::build(&prepared.lowered);

    // A batch of zero variants is a no-op, not an error.
    assert_eq!(replay_batch(&trace, &analysis, &mut []).unwrap(), vec![]);

    // A variant stamped from a *different* program's analysis must be
    // rejected before the walk starts, naming the offending slot.
    let vliw = presets::vliw(2);
    let other = prepare(Benchmark::JpegEnc, &vliw).expect("prepares");
    let other_analysis = ReplayAnalysis::build(&other.lowered);
    assert_ne!(
        analysis.total_slots(),
        other_analysis.total_slots(),
        "test premise: the two programs use different slot universes"
    );
    let mut variants = vec![
        VariantState::new(&analysis, &machine, MemoryModel::Perfect, MAX_CYCLES),
        VariantState::new(&other_analysis, &vliw, MemoryModel::Perfect, MAX_CYCLES),
    ];
    match replay_batch(&trace, &analysis, &mut variants) {
        Err(ReplayError::VariantSlotMismatch {
            variant,
            expected,
            got,
        }) => {
            assert_eq!(variant, 1);
            assert_eq!(expected, analysis.total_slots());
            assert_eq!(got, other_analysis.total_slots());
        }
        other => panic!("expected VariantSlotMismatch, got {other:?}"),
    }
}

/// Every program `(benchmark, ISA variant)` the ten Table 2 presets and the
/// committed `latency_tolerance` and `wider_issue` studies run, with one
/// machine per distinct schedule key of it — the presets first.
fn program_schedules() -> Vec<((Benchmark, IsaVariant), Vec<MachineConfig>)> {
    let mut runs: Vec<(Benchmark, MachineConfig)> = Vec::new();
    for machine in vmv::machine::all_configs() {
        for bench in Benchmark::ALL {
            runs.push((bench, machine.clone()));
        }
    }
    for spec in [
        include_str!("../examples/specs/latency_tolerance.json"),
        include_str!("../examples/specs/wider_issue.json"),
    ] {
        let lowered = SpecFile::parse(spec).unwrap().lower().unwrap();
        for point in lowered.spec.expand().points {
            for &bench in &lowered.benchmarks {
                runs.push((bench, point.machine.clone()));
            }
        }
    }
    let mut seen = std::collections::HashSet::new();
    let mut programs: Vec<((Benchmark, IsaVariant), Vec<MachineConfig>)> = Vec::new();
    for (bench, machine) in runs {
        if !seen.insert(CompileCache::key_for(bench, &machine)) {
            continue;
        }
        let program = (bench, variant_for(&machine));
        match programs.iter_mut().find(|(p, _)| *p == program) {
            Some((_, machines)) => machines.push(machine),
            None => programs.push((program, vec![machine])),
        }
    }
    programs
}

#[test]
fn every_schedule_of_a_program_records_the_same_trace() {
    // Retiming one schedule from another schedule's trace is exact only if
    // the trace does not depend on the schedule: the block sequence, every
    // access entry and every VL value, filed by source position, must be
    // identical on every schedule of a program.  A scheduler or allocator
    // change that alters dataflow fails here.
    let programs = program_schedules();
    assert_eq!(programs.len(), 18, "six kernels in three ISA variants");
    let mut schedules = 0;
    for ((bench, variant), machines) in &programs {
        let mut first: Option<(String, Trace)> = None;
        for machine in machines {
            let (_, _, trace) = record(*bench, machine, MemoryModel::Perfect);
            schedules += 1;
            let Some((first_name, expected)) = &first else {
                first = Some((machine.name.clone(), trace));
                continue;
            };
            let what = format!(
                "{} {variant:?}: {} vs {first_name}",
                bench.name(),
                machine.name
            );
            assert_eq!(trace.program, expected.program, "{what}: fingerprint");
            assert_eq!(trace.initial_vl, expected.initial_vl, "{what}: initial VL");
            assert!(trace.blocks == expected.blocks, "{what}: block sequence");
            assert!(
                trace.accesses == expected.accesses,
                "{what}: access entries"
            );
            assert!(trace.vl_sets == expected.vl_sets, "{what}: VL values");
        }
    }
    assert!(schedules > 60, "presets plus study schedules: {schedules}");
}

#[test]
fn one_recording_retimes_every_schedule_of_its_program_exactly() {
    // Record each program once, on its first preset, and retime every
    // other preset and study schedule of it under both memory models,
    // plain and profiled.  Each outcome must equal a fresh lowered
    // execution of that schedule bit for bit, and each profile must equal
    // the profiled execution's and sum exactly to its stats.
    for ((bench, _), machines) in program_schedules() {
        let (first, others) = machines.split_first().unwrap();
        let recorder = prepare(bench, first).unwrap();
        let recording = simulate_schedule(
            recorder.schedule(),
            &[(first, MemoryModel::Perfect)],
            TraceFrom::FirstRunRecorded,
            false,
        )
        .unwrap()
        .recording
        .expect("a kept first run records");
        for machine in others {
            let prepared = prepare(bench, machine).unwrap();
            let variants = [
                (machine, MemoryModel::Perfect),
                (machine, MemoryModel::Realistic),
            ];
            let what = |model| format!("{} on {} under {model:?}", bench.name(), machine.name);
            let plain = simulate_schedule(
                prepared.schedule(),
                &variants,
                TraceFrom::Recording(&recording),
                false,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", what(MemoryModel::Perfect)));
            let profiled = simulate_schedule(
                prepared.schedule(),
                &variants,
                TraceFrom::Recording(&recording),
                true,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", what(MemoryModel::Perfect)));
            assert!(plain.recording.is_none() && plain.profiles.is_empty());
            for (i, &(_, model)) in variants.iter().enumerate() {
                let mut fresh = simulate_schedule(
                    prepared.schedule(),
                    &variants[i..=i],
                    TraceFrom::FirstRun,
                    true,
                )
                .unwrap();
                let (fresh, fresh_profile) = (fresh.outcomes.remove(0), fresh.profiles.remove(0));
                assert!(fresh.check_failures.is_empty(), "{}", what(model));
                assert_eq!(plain.outcomes[i].stats, fresh.stats, "{}", what(model));
                assert_eq!(profiled.outcomes[i].stats, fresh.stats, "{}", what(model));
                assert_eq!(
                    plain.outcomes[i].check_failures,
                    fresh.check_failures,
                    "{}",
                    what(model)
                );
                let profile = &profiled.profiles[i];
                profile
                    .check_against(&fresh.stats)
                    .unwrap_or_else(|e| panic!("{}: {e}", what(model)));
                assert!(*profile == fresh_profile, "{}: profile", what(model));
            }
        }
    }
}

#[test]
fn retimes_under_the_recording_configuration_read_its_latencies() {
    // A Table 2 program runs on every preset of its ISA with one memory
    // configuration, and every schedule of it issues each block's memory
    // operations in one order.  So one recording, under either model,
    // retimes every other preset's schedule under that model from its own
    // latencies (no class tree), through the program's one trace layout,
    // and each retime equals a fresh execution.
    let presets = vmv::machine::all_configs();
    let mut retimed = 0;
    for bench in Benchmark::ALL {
        for isa in [IsaSupport::Vliw, IsaSupport::Usimd, IsaSupport::Vector] {
            let machines: Vec<&MachineConfig> = presets.iter().filter(|m| m.isa == isa).collect();
            let (first, others) = machines.split_first().unwrap();
            for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
                let (recorder, _, trace) = record(bench, first, model);
                let layout = TraceLayout::of(&recorder.lowered);
                let mark = marked(&trace);
                for machine in others {
                    let what = format!("{} on {} under {model:?}", bench.name(), machine.name);
                    let prepared = prepare(bench, machine).unwrap();
                    let analysis = ReplayAnalysis::with_layout(&prepared.lowered, &layout);
                    let retime = |trace: &Trace| {
                        let state = VariantState::new(&analysis, machine, model, MAX_CYCLES);
                        replay_batch(trace, &analysis, &mut [state])
                            .unwrap_or_else(|e| panic!("{what}: {e}"))
                            .remove(0)
                    };
                    assert!(read_the_recording(&retime(&mark)), "{what}: tree");
                    let fresh = simulate_fresh(&prepared, machine, model).unwrap();
                    assert_eq!(retime(&trace), fresh.stats, "{what}");
                    retimed += 1;
                }
            }
        }
    }
    assert_eq!(
        retimed,
        6 * 2 * (10 - 3),
        "every other preset of each program"
    );
}

#[test]
fn a_schedule_with_another_memory_order_prices_through_the_tree() {
    // Two loads of one bundle issue in the same cycle, so swapping them
    // gives a legal schedule of the same program whose hierarchy sees the
    // two accesses in the other order.  Retimed from a recording of the
    // original under the recording's own configuration, it must price
    // through the class tree and equal its own fresh execution, while the
    // original schedule still reads the recording.
    let machine = presets::vliw(8);
    let model = MemoryModel::Realistic;
    let mut swapped_any = 0;
    for bench in Benchmark::ALL {
        let (prepared, recorded, trace) = record(bench, &machine, model);
        let lowered = &prepared.lowered;
        let two_loads = (0..lowered.bundle_bounds.len() as u32 - 1).find_map(|b| {
            let first = lowered.bundle_bounds[b as usize] as usize;
            let loads: Vec<usize> = (lowered.bundle_ops(b).iter().enumerate())
                .filter(|(_, op)| op.opcode.is_memory() && !op.opcode.is_store())
                .map(|(k, _)| first + k)
                .collect();
            (loads.len() >= 2).then(|| (loads[0], loads[1]))
        });
        let Some((i, j)) = two_loads else {
            continue;
        };
        let mut swapped = lowered.clone();
        swapped.ops.swap(i, j);
        let layout = TraceLayout::of(lowered);
        let retime = |schedule: &LoweredProgram, trace: &Trace| {
            let analysis = ReplayAnalysis::with_layout(schedule, &layout);
            let state = VariantState::new(&analysis, &machine, model, MAX_CYCLES);
            replay_batch(trace, &analysis, &mut [state])
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name()))
                .remove(0)
        };
        let what = format!("{} with ops {i} and {j} swapped", bench.name());
        assert!(
            read_the_recording(&retime(lowered, &marked(&trace))),
            "{what}: premise"
        );
        assert_eq!(retime(lowered, &trace), recorded, "{what}: premise");
        assert!(
            !read_the_recording(&retime(&swapped, &marked(&trace))),
            "{what}"
        );
        let fresh = simulator(&prepared, &machine, model, MAX_CYCLES)
            .run_lowered(&swapped)
            .expect("the swapped schedule runs");
        assert_eq!(retime(&swapped, &trace), fresh, "{what}");
        swapped_any += 1;
    }
    assert!(
        swapped_any > 0,
        "some kernel issues two loads in one bundle"
    );
}

#[test]
fn a_trace_of_another_program_is_rejected() {
    // Same kernel, other ISA variant; and same ISA, other kernel.
    let vector = presets::vector2(2);
    let (prepared, _, trace) = record(Benchmark::GsmDec, &vector, MemoryModel::Perfect);
    for (bench, machine) in [
        (Benchmark::GsmDec, presets::usimd(2)),
        (Benchmark::GsmEnc, vector.clone()),
    ] {
        let other = prepare(bench, &machine).unwrap();
        match retime_one(&other, &trace, &machine, MemoryModel::Perfect) {
            Err(ReplayError::ProgramMismatch { trace: t, .. }) => assert_eq!(t, trace.program),
            other => panic!("expected ProgramMismatch, got {other:?}"),
        }
        // Handed the recording program's layout, the other program's
        // schedule is analysed on its own and rejected the same way.
        let layout = TraceLayout::of(&prepared.lowered);
        let shared = ReplayAnalysis::with_layout(&other.lowered, &layout);
        let mut variant = [VariantState::new(
            &shared,
            &machine,
            MemoryModel::Perfect,
            MAX_CYCLES,
        )];
        match replay_batch(&trace, &shared, &mut variant) {
            Err(ReplayError::ProgramMismatch { trace: t, .. }) => assert_eq!(t, trace.program),
            other => panic!("expected ProgramMismatch with a shared layout, got {other:?}"),
        }
    }
    // A program with this one's blocks, operation counts and memory
    // operations but one opcode changed is another program too, also when
    // handed this program's layout.
    let mut doctored = prepared.lowered.clone();
    let add = doctored
        .ops
        .iter_mut()
        .find(|op| op.opcode == vmv::isa::Opcode::IAdd)
        .expect("the kernel adds");
    add.opcode = vmv::isa::Opcode::ISub;
    let layout = TraceLayout::of(&prepared.lowered);
    let shared = ReplayAnalysis::with_layout(&doctored, &layout);
    let mut variant = [VariantState::new(
        &shared,
        &vector,
        MemoryModel::Perfect,
        MAX_CYCLES,
    )];
    match replay_batch(&trace, &shared, &mut variant) {
        Err(ReplayError::ProgramMismatch { trace: t, .. }) => assert_eq!(t, trace.program),
        other => panic!("expected ProgramMismatch for a changed opcode, got {other:?}"),
    }
    // The recording program itself still retimes.
    assert!(retime_one(&prepared, &trace, &vector, MemoryModel::Perfect).is_ok());
}

/// The role of every access entry of `trace`, recorded on `program`:
/// 0 an address, 1 a vector stride, 2 a vector element count.
fn entry_roles(program: &vmv::sched::LoweredProgram, trace: &Trace) -> Vec<u8> {
    let per_block: Vec<Vec<u8>> = program
        .blocks
        .iter()
        .map(|b| {
            let op_at = |bundle: u32| program.bundle_bounds[bundle as usize] as usize;
            let mut order: Vec<usize> =
                (op_at(b.first_bundle)..op_at(b.first_bundle + b.bundle_count)).collect();
            order.sort_by_key(|&i| program.ops[i].pos);
            order
                .into_iter()
                .map(|i| &program.ops[i])
                .filter(|op| op.opcode.is_memory())
                .flat_map(|op| {
                    if op.is_vector_memory {
                        &[0, 1, 2][..]
                    } else {
                        &[0][..]
                    }
                })
                .copied()
                .collect()
        })
        .collect();
    let roles: Vec<u8> = trace
        .blocks
        .iter()
        .flat_map(|&b| per_block[b as usize].iter().copied())
        .collect();
    assert_eq!(roles.len(), trace.accesses.len(), "one role per entry");
    roles
}

#[test]
fn corrupted_traces_fail_typed_and_never_panic() {
    // Seeded mutation fuzzing of the trace boundary: truncation and
    // extension of every stream, flipped block ids, corrupted vector
    // strides and element counts (and addresses), dropped or duplicated VL
    // values, addresses past the 4 GiB memory-image cap, traces of other
    // programs, and recorded latencies cut short, extended, or recorded
    // under another configuration.  Every replay must return Ok or a typed
    // ReplayError, promptly: a batch that mixes configurations, and a
    // batch of the recorded configuration alone, which reads the recorded
    // latencies unless their configuration no longer matches.
    let machine = presets::vector2(4);
    let mut small_l2 = machine.clone();
    small_l2.memory.l2_size = 8 * 1024;
    small_l2.memory.l2_assoc = 1;
    let cases: Vec<_> = [Benchmark::JpegEnc, Benchmark::Mpeg2Dec, Benchmark::GsmEnc]
        .into_iter()
        .map(|bench| {
            let (prepared, _, trace) = record(bench, &machine, MemoryModel::Perfect);
            let roles = entry_roles(&prepared.lowered, &trace);
            (prepared, trace, roles)
        })
        .collect();
    let extremes = [
        0,
        1,
        7,
        8,
        16,
        17,
        u32::MAX as u64,
        i64::MAX as u64,
        i64::MIN as u64,
        u64::MAX,
        (-8i64) as u64,
        1 << 62,
    ];
    let mut rng = SmallRng::seed_from_u64(0xF022_7ACE);
    let mut pick = |n: usize| rng.gen_range_i64(0, n.max(1) as i64 - 1) as usize;
    let (mut ok, mut typed) = (0, 0);
    for round in 0..360 {
        let c = round % cases.len();
        let (prepared, trace, roles) = &cases[c];
        let mut t = trace.clone();
        let blocks = prepared.lowered.blocks.len();
        let mutation = round / cases.len() % 12;
        let (mut past_cap, mut extra) = (None, 0);
        match mutation {
            0 => {
                let n = pick(t.accesses.len());
                t.accesses.truncate(n);
            }
            1 => {
                let n = pick(t.blocks.len());
                t.blocks.truncate(n);
                let m = pick(t.vl_sets.len() + 1);
                t.vl_sets.truncate(m);
            }
            2 => {
                let extra = 1 + pick(8);
                for _ in 0..extra {
                    let v = extremes[pick(extremes.len())];
                    t.accesses.push(v);
                }
                let b = t.blocks[pick(t.blocks.len())];
                t.blocks.push(b);
            }
            3 => {
                for _ in 0..1 + pick(4) {
                    let i = pick(t.blocks.len());
                    t.blocks[i] = pick(blocks + 2) as u32;
                }
            }
            4 | 5 => {
                // Strides and element counts (mutation 4), then anything
                // including addresses (mutation 5).
                let targets: Vec<usize> = (0..roles.len())
                    .filter(|&i| mutation == 5 || roles[i] != 0)
                    .collect();
                assert!(!targets.is_empty(), "vector program has vector entries");
                for _ in 0..1 + pick(6) {
                    let i = targets[pick(targets.len())];
                    t.accesses[i] = if pick(2) == 0 {
                        extremes[pick(extremes.len())]
                    } else {
                        t.accesses[i] ^ (1 << pick(64))
                    };
                }
            }
            6 => {
                assert!(!t.vl_sets.is_empty(), "vector kernels set VL");
                let i = pick(t.vl_sets.len());
                if pick(2) == 0 {
                    t.vl_sets.remove(i);
                } else {
                    let v = t.vl_sets[i];
                    t.vl_sets.insert(i, v);
                }
            }
            7 => {
                // One address at or past the image cap: the access no
                // execution could make must be named, not priced against
                // aliased cache tags.
                let addresses: Vec<usize> = (0..roles.len()).filter(|&i| roles[i] == 0).collect();
                let i = addresses[pick(addresses.len())];
                t.accesses[i] = vmv::mem::ADDRESS_LIMIT + pick(1 << 20) as u64;
                past_cap = Some(i);
            }
            8 => {
                // Replay another case's trace: a foreign program.
                t = cases[(c + 1) % cases.len()].1.clone();
            }
            9 => {
                // Fewer priced accesses, or fewer latencies of the accesses
                // that missed the L1 latency.
                let pricing = t.pricing.as_mut().expect("priced");
                assert!(!pricing.latencies.is_empty(), "vector accesses miss the L1");
                if pick(2) == 0 {
                    pricing.accesses = pick(pricing.accesses);
                } else {
                    let n = pick(pricing.latencies.len());
                    pricing.latencies.truncate(n);
                }
            }
            10 => {
                let pricing = t.pricing.as_mut().expect("priced");
                extra = 1 + pick(4);
                if pick(2) == 0 {
                    pricing.accesses += extra;
                } else {
                    for _ in 0..extra {
                        pricing.latencies.push(pick(1000) as u32);
                    }
                }
            }
            _ => {
                let pricing = t.pricing.as_mut().expect("priced");
                match pick(3) {
                    0 => pricing.model = MemoryModel::Realistic,
                    1 => pricing.memory.l1_latency += 1,
                    _ => pricing.port_elems += 1,
                }
            }
        }
        let analysis = ReplayAnalysis::build(&prepared.lowered);
        let mut variants: Vec<VariantState> = [
            (&machine, MemoryModel::Perfect),
            (&machine, MemoryModel::Realistic),
            (&small_l2, MemoryModel::Realistic),
        ]
        .iter()
        .map(|&(m, model)| VariantState::new(&analysis, m, model, MAX_CYCLES))
        .collect();
        let start = std::time::Instant::now();
        let alone = replay_batch(
            &t,
            &analysis,
            &mut [VariantState::new(
                &analysis,
                &machine,
                MemoryModel::Perfect,
                MAX_CYCLES,
            )],
        );
        match (mutation, past_cap, &alone) {
            (_, Some(entry), alone) => {
                assert_eq!(
                    *alone,
                    Err(ReplayError::MalformedAccess { entry }),
                    "round {round}"
                )
            }
            (8, _, Err(ReplayError::ProgramMismatch { .. }))
            | (9, _, Err(ReplayError::TruncatedLatencies { .. })) => {}
            (10, _, alone) => assert_eq!(
                *alone,
                Err(ReplayError::TrailingLatencies { latencies: extra }),
                "round {round}"
            ),
            (8 | 9, _, alone) => panic!("round {round}: {alone:?} replaying alone"),
            _ => {}
        }
        match replay_batch(&t, &analysis, &mut variants) {
            Ok(out) => {
                assert_eq!(out.len(), 3);
                assert_eq!(
                    past_cap, None,
                    "round {round}: an access past the cap replayed"
                );
                if mutation == 11 {
                    // Recorded under another configuration: the variant
                    // alone prices through the tree, as this batch does.
                    assert_eq!(alone, Ok(vec![out[0].clone()]), "round {round}");
                }
                ok += 1;
            }
            Err(e) => {
                assert_ne!(mutation, 11, "round {round}: {e:?}");
                if mutation == 8 {
                    assert!(matches!(e, ReplayError::ProgramMismatch { .. }), "{e:?}");
                }
                assert!(!e.to_string().is_empty());
                // Past-cap rounds must each fail, so they are checked
                // apart and do not count toward the other kinds' floor.
                match past_cap {
                    Some(entry) => {
                        assert_eq!(e, ReplayError::MalformedAccess { entry }, "round {round}")
                    }
                    None => typed += 1,
                }
            }
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(20),
            "round {round} (mutation {mutation}) took {:?}",
            start.elapsed()
        );
    }
    assert!(
        typed > 120,
        "most corruptions are caught: {typed} typed, {ok} ok"
    );
}
