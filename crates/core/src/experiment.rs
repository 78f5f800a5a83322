//! The experiment driver: runs every benchmark on every processor
//! configuration of Table 2 and collects per-region statistics, exactly the
//! measurement matrix behind the paper's evaluation (§5).
//!
//! Each configuration executes the benchmark version written for its ISA
//! (§4.1): the plain-VLIW configurations run the scalar code, the
//! µSIMD-VLIW configurations the µSIMD code and the Vector-µSIMD-VLIW
//! configurations the Vector-µSIMD code.  Every run is checked against the
//! golden reference outputs, so a timing result is only reported for a
//! functionally correct execution.
//!
//! Compilation and simulation are exposed as *separate* steps ([`prepare`]
//! and [`simulate_batch`]): the static schedule depends only on the
//! schedule-relevant machine parameters, so a design-space sweep (the
//! `vmv-sweep` crate) can schedule a program once and re-simulate it across
//! many memory-system variations.  Simulation is one group operation that
//! decides from the group it is handed: a lone unprofiled variant executes
//! without recording; otherwise the first variant executes and records a
//! timing trace, and every other memory variant is retimed from that trace
//! in one batched walk (`vmv_sim::replay_batch`).  The trace lives only as
//! long as the call, and [`Prepared`] is plain data.  [`simulate`] is the
//! one-variant case, so [`run_one`] (and so [`Suite`] and `repro`) executes
//! without recording.

use std::sync::Arc;

use vmv_kernels::{Benchmark, BenchmarkBuild, IsaVariant};
use vmv_machine::{IsaSupport, MachineConfig};
use vmv_mem::MemoryModel;
use vmv_sim::{
    Profile, ProfileStatics, ReplayAnalysis, RunStats, SimError, SimOptions, Simulator,
    VariantState,
};

/// Hard cap on simulated (or replayed) cycles per run.
const MAX_RUN_CYCLES: u64 = 2_000_000_000;

/// Result of one (benchmark, configuration) run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Configuration name (e.g. "4w +Vector2").
    pub config: String,
    pub benchmark: Benchmark,
    pub variant: IsaVariant,
    pub memory_model: MemoryModel,
    pub stats: RunStats,
    /// Names of output checks that failed (empty = bit-exact).
    pub check_failures: Vec<String>,
}

/// Errors from the experiment driver.
#[derive(Debug)]
pub enum ExperimentError {
    Compile(String),
    Simulation(String),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Compile(e) => write!(f, "compile error: {e}"),
            ExperimentError::Simulation(e) => write!(f, "simulation error: {e}"),
        }
    }
}
impl std::error::Error for ExperimentError {}

/// ISA variant a machine configuration executes (paper §4.1).
pub fn variant_for(machine: &MachineConfig) -> IsaVariant {
    match machine.isa {
        IsaSupport::Vliw => IsaVariant::Scalar,
        IsaSupport::Usimd => IsaVariant::Usimd,
        IsaSupport::Vector => IsaVariant::Vector,
    }
}

/// Case-insensitive inverse of [`IsaVariant::name`]: decode the `variant`
/// column a result store records back to the enum.  Consumers that only
/// hold a JSONL file (e.g. the report loader) use this to validate that a
/// record's declared variant is one the stack can actually execute.
pub fn variant_from_name(name: &str) -> Option<IsaVariant> {
    IsaVariant::ALL
        .iter()
        .copied()
        .find(|v| v.name().eq_ignore_ascii_case(name))
}

/// A benchmark compiled for one machine: the static schedule, its lowered
/// executable form, and the initial memory image and output checks.  Plain
/// immutable data, so it can be shared and re-simulated under many memory
/// models without rescheduling *or* re-lowering — the sweep executor builds
/// one per schedule-key group and drops it when the group finishes.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub benchmark: Benchmark,
    pub variant: IsaVariant,
    pub build: BenchmarkBuild,
    pub compiled: vmv_sched::Compiled,
    /// Pre-resolved executable form consumed by the simulator's hot loop.
    /// Lowering depends only on schedule-relevant machine fields, so one
    /// lowered program serves every memory-system variant.
    pub lowered: vmv_sched::LoweredProgram,
}

impl Prepared {
    pub fn new(
        benchmark: Benchmark,
        variant: IsaVariant,
        build: BenchmarkBuild,
        compiled: vmv_sched::Compiled,
        lowered: vmv_sched::LoweredProgram,
    ) -> Prepared {
        Prepared {
            benchmark,
            variant,
            build,
            compiled,
            lowered,
        }
    }

    /// The cycle-attribution statics for this program (bundle issue
    /// classes, op names, lanes).  Like the lowered program they depend only
    /// on schedule-relevant machine fields, so one table serves every memory
    /// variant of a call.  `machine` must be schedule-compatible with the
    /// preparing configuration (the same contract as [`simulate_batch`]).
    pub fn profile_statics(&self, machine: &MachineConfig) -> Arc<ProfileStatics> {
        Arc::new(ProfileStatics::build(&self.lowered, machine))
    }

    /// A simulator for `machine` under `model` with the benchmark's initial
    /// memory image written in.
    pub fn simulator(&self, machine: &MachineConfig, model: MemoryModel) -> Simulator {
        let mut sim = Simulator::new(
            machine,
            SimOptions {
                memory_model: model,
                mem_size: self.build.mem_size.max(1 << 20),
                max_cycles: MAX_RUN_CYCLES,
            },
        );
        for (addr, bytes) in &self.build.init {
            sim.mem.write_bytes(*addr, bytes);
        }
        sim
    }
}

/// Build the benchmark program, compile (schedule) it for `machine`, and
/// lower the schedule to its executable form.
pub fn prepare(benchmark: Benchmark, machine: &MachineConfig) -> Result<Prepared, ExperimentError> {
    let variant = variant_for(machine);
    let build = benchmark.build(variant);
    let compiled = vmv_sched::compile(&build.program, machine)
        .map_err(|e| ExperimentError::Compile(format!("{}: {e}", machine.name)))?;
    let lowered = vmv_sched::lower(&compiled.program, machine)
        .map_err(|e| ExperimentError::Compile(format!("{}: {e}", machine.name)))?;
    Ok(Prepared::new(benchmark, variant, build, compiled, lowered))
}

/// Simulate an already-compiled benchmark on `machine` under `model`: a
/// [`simulate_batch`] of one variant, which executes without recording.
///
/// `machine` must agree with the configuration the program was scheduled
/// for in every schedule-relevant parameter; the memory-hierarchy
/// parameters (`machine.memory`) and the memory `model` are free to vary.
pub fn simulate(
    prepared: &Prepared,
    machine: &MachineConfig,
    model: MemoryModel,
) -> Result<RunOutcome, ExperimentError> {
    let mut outcomes = simulate_batch(prepared, &[(machine, model)])?;
    Ok(outcomes.pop().expect("one outcome per variant"))
}

/// Simulate an already-compiled benchmark under several memory variants.
/// `variants` pairs a machine configuration with a memory model; every
/// machine must agree with the scheduled configuration in all
/// schedule-relevant parameters.
///
/// A lone variant executes without recording.  Otherwise `variants[0]` is
/// executed functionally and its timing trace recorded, and every remaining
/// variant is retimed from the trace in one batched walk; the trace and its
/// slot analysis live only for the call.  `outcomes[i]` is bit-identical to
/// a fresh execution of `variants[i]` (`tests/lowered_differential.rs`).
///
/// Any failure (e.g. a cycle limit in one variant) fails the whole call, so
/// callers wanting per-variant isolation retry each variant on its own.
pub fn simulate_batch(
    prepared: &Prepared,
    variants: &[(&MachineConfig, MemoryModel)],
) -> Result<Vec<RunOutcome>, ExperimentError> {
    simulate_group(prepared, variants, false).map(|(outcomes, _)| outcomes)
}

/// [`simulate_batch`] with cycle attribution: `profiles[i]` explains every
/// simulated cycle of `outcomes[i]` and satisfies the sum-exactly contract
/// `profiles[i].check_against(&outcomes[i].stats)`.  The first variant is
/// profiled in its recording execution (a lone variant records too), and
/// the batched walk carries one extra profiling pass (not K); the outcomes
/// are bit-identical to the unprofiled call.
pub fn simulate_batch_profiled(
    prepared: &Prepared,
    variants: &[(&MachineConfig, MemoryModel)],
) -> Result<(Vec<RunOutcome>, Vec<Profile>), ExperimentError> {
    simulate_group(prepared, variants, true)
}

/// The one group operation behind [`simulate`], [`simulate_batch`] and
/// [`simulate_batch_profiled`], deciding from the group it is handed: a
/// lone unprofiled variant executes without recording; otherwise the first
/// variant executes and records (profiled when asked) and the rest are
/// retimed from the call-local trace in one batched walk.  Profiles are
/// returned only when `profile` is set.
fn simulate_group(
    prepared: &Prepared,
    variants: &[(&MachineConfig, MemoryModel)],
    profile: bool,
) -> Result<(Vec<RunOutcome>, Vec<Profile>), ExperimentError> {
    let Some((&(first, first_model), rest)) = variants.split_first() else {
        return Ok((Vec::new(), Vec::new()));
    };
    let outcome = |machine: &MachineConfig, model, stats, check_failures| RunOutcome {
        config: machine.name.clone(),
        benchmark: prepared.benchmark,
        variant: prepared.variant,
        memory_model: model,
        stats,
        check_failures,
    };
    let failed = |e: SimError| ExperimentError::Simulation(format!("{}: {e}", first.name));
    let mut sim = prepared.simulator(first, first_model);
    if rest.is_empty() && !profile {
        let stats = sim.run_lowered(&prepared.lowered).map_err(failed)?;
        let check_failures = prepared
            .build
            .failed_checks(|addr, len| sim.mem.read_u8_slice(addr, len));
        return Ok((
            vec![outcome(first, first_model, stats, check_failures)],
            Vec::new(),
        ));
    }

    let statics = profile.then(|| prepared.profile_statics(first));
    let mut profiles = Vec::new();
    let (stats, trace) = match &statics {
        Some(statics) => sim
            .run_lowered_recording_profiled(&prepared.lowered, statics)
            .map(|(stats, trace, p)| {
                profiles.push(p);
                (stats, trace)
            }),
        None => sim.run_lowered_recording(&prepared.lowered),
    }
    .map_err(failed)?;
    // The output checks are functional, hence the same for every variant.
    let check_failures = prepared
        .build
        .failed_checks(|addr, len| sim.mem.read_u8_slice(addr, len));
    // Free the memory image and hierarchy before the batched walk.
    drop(sim);
    let mut outcomes = Vec::with_capacity(variants.len());
    outcomes.push(outcome(first, first_model, stats, check_failures.clone()));
    if rest.is_empty() {
        return Ok((outcomes, profiles));
    }

    let analysis = ReplayAnalysis::build(&prepared.lowered);
    let mut states: Vec<VariantState> = rest
        .iter()
        .map(|&(machine, model)| VariantState::new(&analysis, machine, model, MAX_RUN_CYCLES))
        .collect();
    let retimed = match &statics {
        Some(statics) => vmv_sim::replay_batch_profiled(&trace, &analysis, &mut states, statics)
            .map(|(stats, p)| {
                profiles.extend(p);
                stats
            }),
        None => vmv_sim::replay_batch(&trace, &analysis, &mut states),
    }
    .map_err(|e| ExperimentError::Simulation(format!("batched replay: {e}")))?;
    for (stats, &(machine, model)) in retimed.into_iter().zip(rest) {
        outcomes.push(outcome(machine, model, stats, check_failures.clone()));
    }
    Ok((outcomes, profiles))
}

/// Compile and simulate one benchmark on one machine configuration.  The
/// program is used once, so it executes without recording a trace.
pub fn run_one(
    benchmark: Benchmark,
    machine: &MachineConfig,
    model: MemoryModel,
) -> Result<RunOutcome, ExperimentError> {
    let prepared = prepare(benchmark, machine)?;
    simulate(&prepared, machine, model)
}

/// The complete measurement matrix for one memory model: every benchmark on
/// every configuration in `machines`.
#[derive(Debug, Clone)]
pub struct Suite {
    pub model: MemoryModel,
    pub outcomes: Vec<RunOutcome>,
}

impl Suite {
    /// Run all benchmarks on all configurations with an automatically chosen
    /// worker count.
    pub fn run(machines: &[MachineConfig], model: MemoryModel) -> Result<Suite, ExperimentError> {
        Suite::run_with_threads(machines, model, default_workers())
    }

    /// Run all benchmarks on all configurations, distributing the runs over
    /// `workers` threads (the simulator is single-threaded per run).
    ///
    /// The outcome order is deterministic and independent of the worker
    /// count: benchmark-major, then by position in `machines` (i.e. by
    /// Table 2 machine index when called with [`vmv_machine::all_configs`]),
    /// never by configuration-name string.
    pub fn run_with_threads(
        machines: &[MachineConfig],
        model: MemoryModel,
        workers: usize,
    ) -> Result<Suite, ExperimentError> {
        let mut jobs: Vec<(Benchmark, &MachineConfig)> = Vec::new();
        for &bench in &Benchmark::ALL {
            for m in machines {
                jobs.push((bench, m));
            }
        }
        // One pre-assigned slot per job: the collected results are ordered
        // by construction, no post-hoc sort needed.
        let slots: Vec<std::sync::Mutex<Option<Result<RunOutcome, ExperimentError>>>> =
            jobs.iter().map(|_| std::sync::Mutex::new(None)).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let workers = workers.max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let (bench, machine) = jobs[i];
                    *slots[i].lock().unwrap() = Some(run_one(bench, machine, model));
                });
            }
        });
        let mut outcomes = Vec::with_capacity(jobs.len());
        for slot in slots {
            match slot
                .into_inner()
                .unwrap()
                .expect("every job slot is filled")
            {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => return Err(e),
            }
        }
        Ok(Suite { model, outcomes })
    }

    /// Run the full ten-configuration matrix of Table 2.
    pub fn run_all_configs(model: MemoryModel) -> Result<Suite, ExperimentError> {
        Suite::run(&vmv_machine::all_configs(), model)
    }

    /// Look up the outcome for a configuration (by name) and benchmark.
    pub fn get(&self, config: &str, benchmark: Benchmark) -> Option<&RunOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.config == config && o.benchmark == benchmark)
    }

    /// All outcomes with failed correctness checks.
    pub fn failed(&self) -> Vec<&RunOutcome> {
        self.outcomes
            .iter()
            .filter(|o| !o.check_failures.is_empty())
            .collect()
    }
}

/// Available parallelism clamped to `cap` (fallback 4 when the parallelism
/// cannot be queried).  Shared by every worker pool in the workspace.
pub fn workers_capped(cap: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cap.max(1))
}

/// Worker-thread count used by [`Suite::run`]: the available parallelism,
/// capped at 8 (the matrix has at most 60 jobs; more threads only add
/// contention).
pub fn default_workers() -> usize {
    workers_capped(8)
}
