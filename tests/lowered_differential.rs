//! Differential harness for the lowered execution engine.
//!
//! The simulator has three timing engines: the original string-keyed
//! reference engine (`Simulator::run_reference` — hash-map scoreboard,
//! label-map branch resolution, per-operation metadata re-derivation), the
//! lowered hot path (`Simulator::run_lowered` — slot-indexed scoreboard
//! over the pre-resolved `LoweredProgram`), and the batched trace retimer
//! (`vmv_sim::replay_batch` — no functional execution at all, just the
//! recorded block/access/VL streams walked once against fresh memory
//! hierarchies, every memory variant in lockstep).  Any timing-semantics
//! change is only sound if all three agree *exactly*: same cycles, same
//! stalls, same per-region breakdown, same memory-system counters, on
//! every workload and machine.
//!
//! This harness proves that on all ten Table 2 presets across the complete
//! kernel suite, under both memory models.  The replay leg is deliberately
//! cross-model: the trace is recorded **once under perfect memory** and
//! replayed under both models, which is exactly how the sweep executor
//! reuses one trace across a memory axis.

use vector_usimd_vliw as vmv;
use vmv::core::{prepare, variant_for};
use vmv::kernels::Benchmark;
use vmv::machine::all_configs;
use vmv::mem::MemoryModel;
use vmv::sim::{SimOptions, Simulator};

/// Run one prepared benchmark through the given engine.
fn run_with(
    prepared: &vmv::core::Prepared,
    machine: &vmv::machine::MachineConfig,
    model: MemoryModel,
    lowered: bool,
) -> vmv::sim::RunStats {
    let mut sim = Simulator::new(
        machine,
        SimOptions {
            memory_model: model,
            mem_size: prepared.build.mem_size.max(1 << 20),
            max_cycles: 2_000_000_000,
        },
    );
    for (addr, bytes) in &prepared.build.init {
        sim.mem.write_bytes(*addr, bytes);
    }
    if lowered {
        sim.run_lowered(&prepared.lowered).expect("lowered run")
    } else {
        sim.run_reference(&prepared.compiled.program)
            .expect("reference run")
    }
}

#[test]
fn lowered_engine_matches_reference_on_all_table2_presets() {
    let configs = all_configs();
    assert_eq!(configs.len(), 10, "Table 2 has ten configurations");
    let mut compared = 0usize;
    for machine in &configs {
        for bench in Benchmark::ALL {
            let prepared = prepare(bench, machine)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), machine.name));
            // Record the trace once, under perfect memory; the replay leg
            // below retimes it under *both* models in one batched walk (the
            // cross-model reuse the sweep's trace cache depends on).
            let (recorded_stats, trace) = {
                let mut sim = Simulator::new(
                    machine,
                    SimOptions {
                        memory_model: MemoryModel::Perfect,
                        mem_size: prepared.build.mem_size.max(1 << 20),
                        max_cycles: 2_000_000_000,
                    },
                );
                for (addr, bytes) in &prepared.build.init {
                    sim.mem.write_bytes(*addr, bytes);
                }
                let (stats, trace, _) = sim
                    .run_lowered_recording(&prepared.lowered, None)
                    .expect("recording run");
                (stats, trace)
            };
            let analysis = vmv::sim::ReplayAnalysis::build(&prepared.lowered);
            let mut variants = vec![
                vmv::sim::VariantState::new(
                    &analysis,
                    machine,
                    MemoryModel::Perfect,
                    2_000_000_000,
                ),
                vmv::sim::VariantState::new(
                    &analysis,
                    machine,
                    MemoryModel::Realistic,
                    2_000_000_000,
                ),
            ];
            let batched =
                vmv::sim::replay_batch(&trace, &analysis, &mut variants).unwrap_or_else(|e| {
                    panic!("replay_batch: {} on {}: {e}", bench.name(), machine.name)
                });
            for (bi, model) in [MemoryModel::Perfect, MemoryModel::Realistic]
                .into_iter()
                .enumerate()
            {
                let reference = run_with(&prepared, machine, model, false);
                let lowered = run_with(&prepared, machine, model, true);
                assert_eq!(
                    reference,
                    lowered,
                    "RunStats diverged: {} ({}) on {} under {:?}",
                    bench.name(),
                    variant_for(machine).name(),
                    machine.name,
                    model
                );
                assert_eq!(
                    reference,
                    batched[bi],
                    "batched replay diverged: {} ({}) on {} under {:?}",
                    bench.name(),
                    variant_for(machine).name(),
                    machine.name,
                    model
                );
                if model == MemoryModel::Perfect {
                    assert_eq!(
                        recorded_stats,
                        reference,
                        "recording must not perturb timing: {} on {}",
                        bench.name(),
                        machine.name
                    );
                }
                compared += 1;
            }
        }
    }
    // 10 configurations x 6 benchmarks x 2 memory models, each compared
    // across all three engines.
    assert_eq!(compared, 120);
}

/// The cycle-attribution contract, on the same 120-case matrix: for every
/// preset x kernel x memory model and for both profiled engines (lowered,
/// batched replay), the per-cause attributed cycles sum *exactly* to the
/// `RunStats` totals (in total and per region, via
/// `Profile::check_against`), enabling profiling never changes `RunStats`,
/// and both engines derive the *same* profile.
#[test]
fn profiler_attribution_contract_on_all_presets() {
    let configs = all_configs();
    let models = [MemoryModel::Perfect, MemoryModel::Realistic];
    let mut checked = 0usize;
    for machine in &configs {
        for bench in Benchmark::ALL {
            let prepared = prepare(bench, machine)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), machine.name));
            let statics = prepared.profile_statics(machine);
            // Lowered engine, profiled, under each model.  The run also
            // records its trace; the perfect-memory one feeds the batch.
            let lowered: Vec<_> = models
                .iter()
                .map(|&model| {
                    let mut sim = Simulator::new(
                        machine,
                        SimOptions {
                            memory_model: model,
                            mem_size: prepared.build.mem_size.max(1 << 20),
                            max_cycles: 2_000_000_000,
                        },
                    );
                    for (addr, bytes) in &prepared.build.init {
                        sim.mem.write_bytes(*addr, bytes);
                    }
                    let (stats, trace, profile) = sim
                        .run_lowered_recording(&prepared.lowered, Some(&statics))
                        .expect("profiled recording run");
                    (
                        stats,
                        trace,
                        profile.expect("a profiled run returns its profile"),
                    )
                })
                .collect();
            let trace = &lowered[0].1;
            let analysis = vmv::sim::ReplayAnalysis::build(&prepared.lowered);
            let mut variants: Vec<_> = models
                .iter()
                .map(|&model| vmv::sim::VariantState::new(&analysis, machine, model, 2_000_000_000))
                .collect();
            let (batch_stats, batch_profiles) =
                vmv::sim::replay_batch_profiled(trace, &analysis, &mut variants, &statics)
                    .unwrap_or_else(|e| {
                        panic!("batch profiled: {} on {}: {e}", bench.name(), machine.name)
                    });
            for (bi, model) in models.into_iter().enumerate() {
                let ctx = || {
                    format!(
                        "{} ({}) on {} under {:?}",
                        bench.name(),
                        variant_for(machine).name(),
                        machine.name,
                        model
                    )
                };
                let unprofiled = run_with(&prepared, machine, model, true);

                let (lp_stats, _, lp_profile) = &lowered[bi];
                assert_eq!(
                    *lp_stats,
                    unprofiled,
                    "profiling changed RunStats: {}",
                    ctx()
                );
                lp_profile
                    .check_against(lp_stats)
                    .unwrap_or_else(|e| panic!("lowered attribution: {}: {e}", ctx()));

                assert_eq!(
                    batch_stats[bi],
                    unprofiled,
                    "profiled batch changed RunStats: {}",
                    ctx()
                );
                batch_profiles[bi]
                    .check_against(&batch_stats[bi])
                    .unwrap_or_else(|e| panic!("batch attribution: {}: {e}", ctx()));

                // Both engines attribute identically, event for event.
                assert_eq!(
                    *lp_profile,
                    batch_profiles[bi],
                    "lowered vs batch profile: {}",
                    ctx()
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 120);
}

#[test]
fn lowered_engine_matches_reference_functionally() {
    // Beyond timing: the memory image after a run must agree, so the
    // lowered execution path computes identical values.
    let machine = vmv::machine::presets::vector2(4);
    for bench in [Benchmark::GsmDec, Benchmark::JpegEnc] {
        let prepared = prepare(bench, &machine).unwrap();
        let mut checks = Vec::new();
        for lowered in [false, true] {
            let mut sim = Simulator::new(
                &machine,
                SimOptions {
                    memory_model: MemoryModel::Realistic,
                    mem_size: prepared.build.mem_size.max(1 << 20),
                    max_cycles: 2_000_000_000,
                },
            );
            for (addr, bytes) in &prepared.build.init {
                sim.mem.write_bytes(*addr, bytes);
            }
            if lowered {
                sim.run_lowered(&prepared.lowered).unwrap();
            } else {
                sim.run_reference(&prepared.compiled.program).unwrap();
            }
            checks.push(
                prepared
                    .build
                    .failed_checks(|addr, len| sim.mem.read_u8_slice(addr, len)),
            );
        }
        assert!(checks[0].is_empty(), "{}: {:?}", bench.name(), checks[0]);
        assert!(checks[1].is_empty(), "{}: {:?}", bench.name(), checks[1]);
    }
}

#[test]
fn lowering_errors_surface_before_execution() {
    use vmv::isa::{Op, Opcode, Reg, RegionId};
    use vmv::sched::{lower, LowerError, ScheduledBlock, ScheduledProgram};

    let machine = vmv::machine::presets::vliw(2);
    let block = |ops: Vec<Op>| ScheduledProgram {
        name: "bad".into(),
        blocks: vec![ScheduledBlock {
            label: "entry".into(),
            region: RegionId::SCALAR,
            positions: (0..ops.len() as u32).collect(),
            bundles: vec![ops],
        }],
        regions: vec![],
    };

    // A branch to a missing label is a lowering error (and `Simulator::run`
    // reports it as the familiar UnknownLabel before any cycle executes).
    let bogus = block(vec![Op::new(Opcode::Jump).with_target("nowhere")]);
    assert!(matches!(
        lower(&bogus, &machine),
        Err(LowerError::UnknownLabel { .. })
    ));
    let mut sim = Simulator::with_model(&machine, MemoryModel::Perfect);
    assert!(matches!(
        sim.run(&bogus),
        Err(vmv::sim::SimError::UnknownLabel(_))
    ));

    // A register beyond the machine's register file is caught at lowering
    // time instead of indexing out of bounds mid-run.
    let out_of_range = block(vec![Op::new(Opcode::MovI)
        .with_dst(Reg::int(machine.regs.int + 1))
        .with_imm(7)]);
    assert!(matches!(
        lower(&out_of_range, &machine),
        Err(LowerError::SlotOutOfRange { .. })
    ));
    assert!(matches!(
        sim.run(&out_of_range),
        Err(vmv::sim::SimError::Lower(_))
    ));
}
