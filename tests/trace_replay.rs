//! Trace-replay behaviour beyond the three-engine differential: the batched
//! walk is deterministic and bit-identical to fresh execution for any
//! variant subset (a batch of one included), `simulate_batch`'s record-and-
//! retime call agrees with fresh execution, one program's trace is the same
//! on every schedule and retimes all of them exactly, and malformed or
//! foreign traces are rejected with typed errors instead of garbage
//! statistics — also under seeded random corruption.

use vector_usimd_vliw as vmv;
use vmv::core::{
    prepare, simulate_batch, simulate_fresh, simulate_schedule, variant_for, TraceFrom,
};
use vmv::kernels::rng::SmallRng;
use vmv::kernels::{Benchmark, IsaVariant};
use vmv::machine::{presets, MachineConfig};
use vmv::mem::MemoryModel;
use vmv::sim::{
    replay_batch, ReplayAnalysis, ReplayError, RunStats, SimError, SimOptions, Simulator, Trace,
    VariantState,
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
    // values, and traces of other programs.  Every replay must return Ok
    // or a typed ReplayError, promptly.
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
    for round in 0..240 {
        let c = round % cases.len();
        let (prepared, trace, roles) = &cases[c];
        let mut t = trace.clone();
        let blocks = prepared.lowered.blocks.len();
        let mutation = round / cases.len() % 8;
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
            _ => {
                // Replay another case's trace: a foreign program.
                t = cases[(c + 1) % cases.len()].1.clone();
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
        match replay_batch(&t, &analysis, &mut variants) {
            Ok(out) => {
                assert_eq!(out.len(), 3);
                ok += 1;
            }
            Err(e) => {
                if mutation == 7 {
                    assert!(matches!(e, ReplayError::ProgramMismatch { .. }), "{e:?}");
                }
                assert!(!e.to_string().is_empty());
                typed += 1;
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
