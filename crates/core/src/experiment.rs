//! The experiment driver: runs every benchmark on every processor
//! configuration of Table 2 and collects per-region statistics, exactly the
//! measurement matrix behind the paper's evaluation (§5).
//!
//! Each configuration executes the benchmark version written for its ISA
//! (§4.1): the plain-VLIW configurations run the scalar code, the
//! µSIMD-VLIW configurations the µSIMD code and the Vector-µSIMD-VLIW
//! configurations the Vector-µSIMD code.  Every run reports the golden
//! reference checks of the execution it was timed from, so a timing result
//! is only reported for a functionally correct program.
//!
//! Compilation and simulation are exposed as *separate* steps ([`prepare`]
//! and [`simulate_batch`]): the static schedule depends only on the
//! schedule-relevant machine parameters, so a design-space sweep (the
//! `vmv-sweep` crate) can schedule a program once and re-simulate it across
//! many memory-system variations.  And every machine of one ISA runs the
//! same *program* — `(benchmark, ISA variant)` — so its schedules differ in
//! timing but never in the values they compute: one execution's timing
//! trace retimes every schedule of the program (`vmv_sim::trace`).
//!
//! Simulation is one group operation, [`simulate_schedule`], over the
//! variants of one [`Schedule`]: either the first variant executes (and
//! records a trace when other variants follow, or when the caller asks for
//! the [`Recording`] to retime the program's other schedules) and the rest
//! are retimed from it in one batched walk (`vmv_sim::replay_batch`), or
//! every variant is retimed from a recording another schedule of the
//! program made.  [`simulate_batch`] is its one-schedule case, with the trace living
//! only as long as the call, and [`simulate`] the one-variant case, so
//! [`run_one`] executes without recording.
//!
//! [`ProgramRunner`] holds the one recording policy across a program's
//! schedules.  [`Suite`] (and so `repro`) and the sweep executor
//! (`vmv_sweep::run_sweep`) both hand out whole programs to their workers
//! and run each through one runner.
//!
//! Trust: a variant retimed from another schedule's recording reports that
//! recording's output checks.  That the two schedules compute the same
//! values is certified per schedule by `vmv_verify::verify_compiled` (debug
//! builds and `sweep --verify`), pinned by `tests/trace_replay.rs` (and,
//! for the Table 2 matrix, by the `Suite` records golden in
//! `tests/records_golden.rs`), and sampled by the benchmark's fresh
//! re-executions.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};

use vmv_kernels::{Benchmark, BenchmarkBuild, IsaVariant};
use vmv_machine::{IsaSupport, MachineConfig};
use vmv_mem::MemoryModel;
use vmv_sim::{
    Profile, ProfileStatics, ReplayAnalysis, RunStats, SimOptions, Simulator, Trace, VariantState,
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
/// models without rescheduling *or* re-lowering.
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

    /// The schedule this prepared program runs, as the group calls see it.
    pub fn schedule(&self) -> Schedule<'_> {
        Schedule {
            benchmark: self.benchmark,
            variant: self.variant,
            build: &self.build,
            lowered: &self.lowered,
        }
    }

    /// See [`Schedule::profile_statics`].
    pub fn profile_statics(&self, machine: &MachineConfig) -> Arc<ProfileStatics> {
        self.schedule().profile_statics(machine)
    }

    /// See [`Schedule::simulator`].
    pub fn simulator(&self, machine: &MachineConfig, model: MemoryModel) -> Simulator {
        self.schedule().simulator(machine, model)
    }
}

/// One schedule of a program as the group call sees it: the program's
/// build, which every schedule of the program shares, and this schedule's
/// lowered form.
#[derive(Debug, Clone, Copy)]
pub struct Schedule<'a> {
    pub benchmark: Benchmark,
    pub variant: IsaVariant,
    pub build: &'a BenchmarkBuild,
    pub lowered: &'a vmv_sched::LoweredProgram,
}

impl Schedule<'_> {
    /// The cycle-attribution statics for this schedule (bundle issue
    /// classes, op names, lanes).  Like the lowered program they depend only
    /// on schedule-relevant machine fields, so one table serves every memory
    /// variant of a call.  `machine` must be schedule-compatible with the
    /// scheduling configuration (the same contract as [`simulate_batch`]).
    pub fn profile_statics(&self, machine: &MachineConfig) -> Arc<ProfileStatics> {
        Arc::new(ProfileStatics::build(self.lowered, machine))
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

    fn outcome(
        &self,
        machine: &MachineConfig,
        model: MemoryModel,
        stats: RunStats,
        check_failures: Vec<String>,
    ) -> RunOutcome {
        RunOutcome {
            config: machine.name.clone(),
            benchmark: self.benchmark,
            variant: self.variant,
            memory_model: model,
            stats,
            check_failures,
        }
    }
}

/// Build the benchmark program, compile (schedule) it for `machine`, and
/// lower the schedule to its executable form.
pub fn prepare(benchmark: Benchmark, machine: &MachineConfig) -> Result<Prepared, ExperimentError> {
    let variant = variant_for(machine);
    let runner = ProgramRunner::new(benchmark, variant, 0);
    let (compiled, lowered) = runner.compile(machine)?;
    let build = runner.build;
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
/// The one-schedule case of [`simulate_schedule`]: a lone variant executes
/// without recording.  Otherwise `variants[0]` is executed functionally
/// and its timing trace recorded, and every remaining variant is retimed
/// from the trace in one batched walk; the trace and its slot analysis live
/// only for the call.  `outcomes[i]` is bit-identical to a fresh execution
/// of `variants[i]` (`tests/lowered_differential.rs`).
///
/// Any failure (e.g. a cycle limit in one variant) fails the whole call, so
/// callers wanting per-variant isolation retry each variant on its own.
pub fn simulate_batch(
    prepared: &Prepared,
    variants: &[(&MachineConfig, MemoryModel)],
) -> Result<Vec<RunOutcome>, ExperimentError> {
    simulate_schedule(prepared.schedule(), variants, TraceFrom::FirstRun, false)
        .map(|run| run.outcomes)
}

/// What one execution of a program leaves for its other runs: the timing
/// trace, which retimes every schedule of the program, and the output
/// checks, which depend only on the values the program computes.
#[derive(Debug)]
pub struct Recording {
    trace: Trace,
    check_failures: Vec<String>,
}

/// Where a [`simulate_schedule`] call gets its program's timing trace.
#[derive(Debug, Clone, Copy)]
pub enum TraceFrom<'a> {
    /// From executing the first variant, which records only when other
    /// variants follow (or when profiling).
    FirstRun,
    /// From executing the first variant, which always records: the call
    /// returns the [`Recording`] for the program's other schedules.
    FirstRunRecorded,
    /// From a recording of the same program, made on any of its schedules:
    /// nothing executes, every variant is retimed.
    Recording(&'a Recording),
}

/// The results of one [`simulate_schedule`] call.
#[derive(Debug, Default)]
pub struct ScheduleRun {
    /// One outcome per variant, in order.
    pub outcomes: Vec<RunOutcome>,
    /// One profile per variant when profiling, else empty.
    pub profiles: Vec<Profile>,
    /// The recording the call made, if it executed and recorded (always
    /// for [`TraceFrom::FirstRunRecorded`]).
    pub recording: Option<Recording>,
}

/// The one group operation: run `variants` of one schedule, taking the
/// program's timing trace from `trace`.  Either the first variant executes
/// (and records when the trace is needed) and the rest are retimed from its
/// trace in one batched walk, or every variant is retimed from a recording
/// another schedule of the program made.  With `profile`, `profiles[i]`
/// explains every simulated cycle of `outcomes[i]`.  Every machine must
/// agree with the scheduled configuration in all schedule-relevant
/// parameters, and every outcome is bit-identical to a fresh execution of
/// its variant on this schedule (`tests/trace_replay.rs`).  Any failure
/// fails the whole call.
pub fn simulate_schedule(
    schedule: Schedule<'_>,
    variants: &[(&MachineConfig, MemoryModel)],
    trace: TraceFrom<'_>,
    profile: bool,
) -> Result<ScheduleRun, ExperimentError> {
    let mut run = ScheduleRun::default();
    let Some(&(first, first_model)) = variants.first() else {
        return Ok(run);
    };
    let statics = profile.then(|| schedule.profile_statics(first));
    let mut made = None;
    let (recording, rest) = match trace {
        TraceFrom::Recording(recording) => (recording, variants),
        TraceFrom::FirstRun | TraceFrom::FirstRunRecorded => {
            let rest = &variants[1..];
            let record =
                profile || !rest.is_empty() || matches!(trace, TraceFrom::FirstRunRecorded);
            let failed = |e| ExperimentError::Simulation(format!("{}: {e}", first.name));
            let mut sim = schedule.simulator(first, first_model);
            let (stats, trace) = if record {
                let (stats, trace, profile) = sim
                    .run_lowered_recording(schedule.lowered, statics.as_ref())
                    .map_err(failed)?;
                run.profiles.extend(profile);
                (stats, Some(trace))
            } else {
                (sim.run_lowered(schedule.lowered).map_err(failed)?, None)
            };
            let check_failures = schedule
                .build
                .failed_checks(|addr, len| sim.mem.read_u8_slice(addr, len));
            // Free the memory image and hierarchy before the batched walk.
            drop(sim);
            run.outcomes
                .push(schedule.outcome(first, first_model, stats, check_failures.clone()));
            let Some(trace) = trace else {
                return Ok(run);
            };
            (
                &*made.insert(Recording {
                    trace,
                    check_failures,
                }),
                rest,
            )
        }
    };

    if !rest.is_empty() {
        let analysis = ReplayAnalysis::build(schedule.lowered);
        let mut states: Vec<VariantState> = rest
            .iter()
            .map(|&(machine, model)| VariantState::new(&analysis, machine, model, MAX_RUN_CYCLES))
            .collect();
        let retimed = match &statics {
            Some(statics) => {
                vmv_sim::replay_batch_profiled(&recording.trace, &analysis, &mut states, statics)
                    .map(|(stats, p)| {
                        run.profiles.extend(p);
                        stats
                    })
            }
            None => vmv_sim::replay_batch(&recording.trace, &analysis, &mut states),
        }
        .map_err(|e| ExperimentError::Simulation(format!("batched replay: {e}")))?;
        for (stats, &(machine, model)) in retimed.into_iter().zip(rest) {
            let checks = recording.check_failures.clone();
            run.outcomes
                .push(schedule.outcome(machine, model, stats, checks));
        }
    }
    run.recording = made;
    Ok(run)
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

/// One run a [`ProgramRunner`] made: its outcome and, when profiling, the
/// profile that explains its cycles.
pub type ProgramRun = (RunOutcome, Option<Profile>);

/// Every run of one program, `(benchmark, ISA variant)`, whatever schedule
/// it runs on: the program is built, verified and register-analysed once
/// ([`vmv_sched::analyze`]), executes once, and every other run is retimed
/// from that execution's [`Recording`].  [`Suite`] and the sweep executor
/// (`vmv_sweep::run_sweep`) both run their programs through it, one
/// [`ProgramRunner::compile`] and one [`ProgramRunner::run`] call per
/// schedule; the build, the analysis and the recording are freed with the
/// runner.  [`prepare`] and the sweep's pre-flight check compile through it
/// too.
pub struct ProgramRunner {
    benchmark: Benchmark,
    variant: IsaVariant,
    build: BenchmarkBuild,
    /// The program's half of every compile, or why the program is not
    /// compilable on any machine.
    analysis: Result<vmv_sched::Analysis, vmv_sched::CompileError>,
    recording: Option<Recording>,
    /// Runs of the program not yet handed to [`ProgramRunner::run`].
    unstarted: usize,
    /// See [`ProgramRunner::retimed`].
    retimed: (usize, usize),
}

impl ProgramRunner {
    /// Build and analyse `benchmark` in `variant` for a program of `runs`
    /// runs.
    pub fn new(benchmark: Benchmark, variant: IsaVariant, runs: usize) -> ProgramRunner {
        let build = benchmark.build(variant);
        ProgramRunner {
            benchmark,
            variant,
            analysis: vmv_sched::analyze(&build.program),
            build,
            recording: None,
            unstarted: runs,
            retimed: (0, 0),
        }
    }

    /// Compile (schedule) the program for `machine` and lower the schedule:
    /// the machine's half of compilation on the program's one analysis.  A
    /// program that failed verification fails every compile with that
    /// error.
    pub fn compile(
        &self,
        machine: &MachineConfig,
    ) -> Result<(vmv_sched::Compiled, vmv_sched::LoweredProgram), ExperimentError> {
        let failed =
            |e: &dyn std::fmt::Display| ExperimentError::Compile(format!("{}: {e}", machine.name));
        let analysis = self.analysis.as_ref().map_err(|e| failed(e))?;
        let compiled = analysis
            .compile(&self.build.program, machine)
            .map_err(|e| failed(&e))?;
        let lowered = vmv_sched::lower(&compiled.program, machine).map_err(|e| failed(&e))?;
        Ok((compiled, lowered))
    }

    /// Variants retimed from the recording so far, and the batched walks
    /// that retimed them.
    pub fn retimed(&self) -> (usize, usize) {
        self.retimed
    }

    /// Run `variants` on `lowered`, one schedule of the program, with one
    /// result per variant, in order; `profile` adds each run's profile.
    ///
    /// While the program has no recording, the next variant executes alone,
    /// recording its trace when any run of the program follows it, and the
    /// recording is kept whatever happens later; a program with a single
    /// run records nothing.  Every other variant is retimed from the
    /// recording in one batched walk, and a walk that fails is retried
    /// variant by variant, so only the variants that fail on their own
    /// report an error.  A panic (e.g. a cache geometry the memory model
    /// rejects) becomes an error carrying the panic's message.
    pub fn run(
        &mut self,
        lowered: &vmv_sched::LoweredProgram,
        variants: &[(&MachineConfig, MemoryModel)],
        profile: bool,
    ) -> Vec<Result<ProgramRun, ExperimentError>> {
        let schedule = Schedule {
            benchmark: self.benchmark,
            variant: self.variant,
            build: &self.build,
            lowered,
        };
        self.unstarted = self.unstarted.saturating_sub(variants.len());
        let mut results = Vec::with_capacity(variants.len());
        while self.recording.is_none() && results.len() < variants.len() {
            let n = results.len();
            let trace = if n + 1 < variants.len() || self.unstarted > 0 {
                TraceFrom::FirstRunRecorded
            } else {
                TraceFrom::FirstRun
            };
            let run = guarded(schedule, &variants[n..=n], trace, profile).map(|mut run| {
                self.recording = run.recording.take();
                run.runs().next().expect("one run per variant")
            });
            results.push(run);
        }
        let rest = &variants[results.len()..];
        let Some(recording) = self.recording.as_ref().filter(|_| !rest.is_empty()) else {
            return results;
        };
        let mut walk = |variants: &[(&MachineConfig, MemoryModel)]| {
            let run = guarded(schedule, variants, TraceFrom::Recording(recording), profile)?;
            self.retimed.0 += variants.len();
            self.retimed.1 += 1;
            Ok(run.runs())
        };
        match walk(rest) {
            Ok(runs) => results.extend(runs.map(Ok)),
            Err(e) if rest.len() == 1 => results.push(Err(e)),
            Err(_) => results.extend(rest.iter().map(|variant| {
                walk(std::slice::from_ref(variant))
                    .map(|mut runs| runs.next().expect("one run per variant"))
            })),
        }
        results
    }
}

impl ScheduleRun {
    /// Each outcome with its profile, if any.
    fn runs(self) -> impl Iterator<Item = ProgramRun> {
        let mut profiles = self.profiles.into_iter();
        self.outcomes
            .into_iter()
            .map(move |outcome| (outcome, profiles.next()))
    }
}

/// [`simulate_schedule`], with a panic returned as the call's error.
fn guarded(
    schedule: Schedule<'_>,
    variants: &[(&MachineConfig, MemoryModel)],
    trace: TraceFrom<'_>,
    profile: bool,
) -> Result<ScheduleRun, ExperimentError> {
    catch_quietly(|| simulate_schedule(schedule, variants, trace, profile))
        .unwrap_or_else(|message| Err(ExperimentError::Simulation(message)))
}

thread_local! {
    /// How many [`catch_quietly`] calls are running on this thread.
    static QUIET: Cell<usize> = const { Cell::new(0) };
}

/// Run `f`, turning a panic into `Err("panicked: <message>")`.  The panic
/// is reported only through that error: while `f` runs its thread is
/// marked, and a panic hook, installed on the first call and chained to the
/// hook it replaces, stays silent on marked threads.  Panics anywhere else
/// still print.  Whatever `f` was changing when it panicked is the caller's
/// to discard.
pub fn catch_quietly<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET.try_with(Cell::get).unwrap_or(0) == 0 {
                previous(info);
            }
        }));
    });
    QUIET.with(|q| q.set(q.get() + 1));
    let result = std::panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(q.get() - 1));
    result.map_err(|payload| panic_message(&*payload))
}

/// `panicked: <message>` for a caught panic's payload.  Pass the payload
/// itself (`&*payload` of the box `catch_unwind` returns): a `&Box<dyn
/// Any>` would coerce to a `dyn Any` of the box, which neither downcast
/// matches.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

/// One program of a [`Suite`] call, `(benchmark, variant_for(machine))`,
/// with its jobs: (index in the outcome order, machine), in input order.
struct Program<'m> {
    benchmark: Benchmark,
    variant: IsaVariant,
    jobs: Vec<(usize, &'m MachineConfig)>,
}

impl Program<'_> {
    /// Run the program on each of its jobs' machines through one
    /// [`ProgramRunner`], pushing `(job, outcome)` pairs: each machine
    /// compiles its schedule through the runner and frees the compiled form
    /// before it runs.  A failure fails only its own job.
    fn run(
        &self,
        model: MemoryModel,
        done: &mut Vec<(usize, Result<RunOutcome, ExperimentError>)>,
    ) {
        let mut runner = ProgramRunner::new(self.benchmark, self.variant, self.jobs.len());
        for &(job, machine) in &self.jobs {
            let outcome = runner.compile(machine).and_then(|(compiled, lowered)| {
                drop(compiled);
                let mut runs = runner.run(&lowered, &[(machine, model)], false);
                runs.pop()
                    .expect("one result per variant")
                    .map(|(outcome, _)| outcome)
            });
            done.push((job, outcome));
        }
    }
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

    /// Run all benchmarks on all configurations, distributing the programs
    /// over `workers` threads (the simulator is single-threaded per run).
    ///
    /// The unit of work is a program, `(benchmark, variant_for(machine))`,
    /// run through one [`ProgramRunner`]: it is built once, executed and
    /// recorded on its first machine, and retimed on every other machine of
    /// its ISA from that recording (a Table 2 call runs 18 programs for its
    /// 60 jobs).  A failed or panicking job fails only itself, and the
    /// first error in outcome order is returned.
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
        // Programs in first-seen job order.
        let mut programs: Vec<Program> = Vec::new();
        for (b, &benchmark) in Benchmark::ALL.iter().enumerate() {
            let first = programs.len();
            for (m, machine) in machines.iter().enumerate() {
                let job = (b * machines.len() + m, machine);
                let variant = variant_for(machine);
                match programs[first..].iter_mut().find(|p| p.variant == variant) {
                    Some(program) => program.jobs.push(job),
                    None => programs.push(Program {
                        benchmark,
                        variant,
                        jobs: vec![job],
                    }),
                }
            }
        }
        // Each index is claimed by exactly one `fetch_add` whatever the
        // ordering; the results reach the caller through the joins.
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            while let Some(program) = programs.get(next.fetch_add(1, Ordering::Relaxed)) {
                program.run(model, &mut done);
            }
            done
        };
        let workers = workers.min(programs.len());
        let mut done = if workers <= 1 {
            work()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("a suite worker panicked"))
                    .collect()
            })
        };
        done.sort_unstable_by_key(|&(job, _)| job);
        let outcomes = done.into_iter().map(|(_, outcome)| outcome);
        Ok(Suite {
            model,
            outcomes: outcomes.collect::<Result<_, _>>()?,
        })
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
/// capped at 8 (a Table 2 call has 18 programs to share out; more threads
/// only add contention).
pub fn default_workers() -> usize {
    workers_capped(8)
}
