//! The parallel sweep executor: runs every `(design point, benchmark)` job
//! on a pool of `std::thread::scope` workers, executing each program once,
//! scheduling it once per unique schedule key, and skipping jobs whose run
//! keys are already in the result store.
//!
//! The work unit is a *program*, `(benchmark, ISA variant)`: a worker takes
//! a whole program from one atomic index and runs it through one
//! [`ProgramRunner`], which builds, verifies and register-analyses it once,
//! makes its one execution and retimes every other job of the program from
//! that recording ([`vmv_core::ProgramRunner::run`] holds the whole
//! recording policy).  Inside a program, jobs are grouped by schedule key
//! ([`crate::CompileCache::key_for`], the machine as the program's code
//! sees it), and each group is one lowered schedule's whole lifetime: the
//! worker compiles it on the group's first machine, runs the group's jobs
//! through the runner as one call (one batched trace walk), writes the
//! group's profiles, hands the results to the committer and drops the
//! schedule.
//! The groups run in first-seen order, and the program's build and
//! recording are freed with its last group.  Failures stay per job: a
//! failed build or compile fails its jobs, and the runner retries a failed
//! walk job by job and reports a panic with its message.
//!
//! There is one executor loop for every worker count: the calling thread
//! works through programs like every helper thread and also commits results
//! in job order, so the report and the store content are deterministic
//! (point-major, benchmark-minor) regardless of the worker count or
//! scheduling jitter.  Program-major order means the committed prefix of
//! the job list drains later than the groups finish — a one-worker sweep
//! appends most records while its last program runs — but what is appended
//! is still exactly the completed prefix, so an interrupted sweep keeps a
//! consistent store.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use vmv_core::{catch_quietly, ExperimentError, ProgramRun, ProgramRunner};
use vmv_kernels::{Benchmark, IsaVariant};
use vmv_obs::{Counter, SpanKind};

use crate::cache::{compile, CacheCounters};
use crate::fingerprint::{full_fingerprint, schedule_fingerprint};
use crate::profiles::{write_profile, ProfileMeta};
use crate::spec::SweepPoint;
use crate::store::{run_key_of, ResultStore, RunRecord};

/// Executor options.
#[derive(Clone)]
pub struct ExecOptions {
    /// Benchmarks to run at every design point.
    pub benchmarks: Vec<Benchmark>,
    /// Worker threads (0 = one per available core, capped at 16).
    pub workers: usize,
    /// Print a ~1 Hz heartbeat line to stderr while the sweep runs.
    pub progress: bool,
    /// Certify every freshly compiled schedule with the static verifier
    /// even in release builds (debug builds always certify).
    pub verify: bool,
    /// Write a `vmv-profile/1` cycle-attribution document per completed
    /// run into this directory (`None` = profiling off; the engines run
    /// their unprofiled, byte-identical paths).
    pub profile_dir: Option<std::path::PathBuf>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            benchmarks: Benchmark::ALL.to_vec(),
            workers: 0,
            progress: false,
            verify: false,
            profile_dir: None,
        }
    }
}

impl ExecOptions {
    /// Options for the benchmark subset a lowered spec file selects.
    pub fn for_spec(lowered: &crate::specfile::LoweredSpec, workers: usize) -> ExecOptions {
        ExecOptions {
            benchmarks: lowered.benchmarks.clone(),
            workers,
            progress: false,
            verify: false,
            profile_dir: None,
        }
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            vmv_core::workers_capped(16)
        }
    }
}

/// Outcome of one sweep invocation.
pub struct SweepReport {
    /// Records completed *this* invocation, in deterministic job order.
    pub records: Vec<RunRecord>,
    /// Jobs skipped because their key was already in the store.
    pub skipped: usize,
    /// Failed jobs as `(job description, error)` — a failing extreme point
    /// does not abort the rest of the sweep.
    pub errors: Vec<(String, String)>,
    /// Schedule counters (misses == schedules performed), derived from the
    /// group sizes.
    pub cache: CacheCounters,
    /// Jobs served by trace replay instead of full execution: their
    /// program's first job recorded its trace, so only the timing was
    /// re-derived.  Every job but one per program is retimed; a program
    /// with a single job executes.
    pub replays: usize,
    /// Successful batched replay walks (one per group that retimes any job,
    /// each a single pass over the program's trace; a retried walk counts
    /// one per job it retimed).
    pub replay_batches: usize,
    /// Wall-clock seconds of the parallel phase.
    pub wall_seconds: f64,
}

/// The `--progress` heartbeat: at most one line per second on stderr with
/// runs done/total, throughput, the sweep's schedule hit rate and an ETA.
struct Progress {
    on: bool,
    total: usize,
    skipped: usize,
    /// Share of jobs served by their group's schedule, percent.
    hit_pct: f64,
    start: Instant,
    last: Instant,
    /// Recent `(instant, done)` samples.  The rate (and so the ETA) is
    /// computed over this ~10 s sliding window instead of since sweep
    /// start, so the estimate tracks the *current* throughput: a slow
    /// cold-start (every job compiling) no longer drags the ETA for the
    /// rest of a long sweep once the cache is warm.
    window: VecDeque<(Instant, usize)>,
}

/// Width of the sliding rate window, seconds.
const RATE_WINDOW_S: f64 = 10.0;

impl Progress {
    fn new(on: bool, total: usize, skipped: usize, cache: CacheCounters) -> Progress {
        let now = Instant::now();
        let mut window = VecDeque::new();
        window.push_back((now, 0));
        let lookups = cache.hits + cache.misses;
        Progress {
            on,
            total,
            skipped,
            hit_pct: if lookups == 0 {
                0.0
            } else {
                100.0 * cache.hits as f64 / lookups as f64
            },
            start: now,
            last: now,
            window,
        }
    }

    fn tick(&mut self, done: usize, force: bool) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        if !force && now.duration_since(self.last).as_secs_f64() < 1.0 {
            return;
        }
        self.last = now;
        self.window.push_back((now, done));
        // Keep at least two samples so a window is always defined.
        while self.window.len() > 2
            && now.duration_since(self.window[0].0).as_secs_f64() > RATE_WINDOW_S
        {
            self.window.pop_front();
        }
        let &(t0, d0) = self.window.front().unwrap();
        let span = now.duration_since(t0).as_secs_f64();
        let progressed = done.saturating_sub(d0);
        let rate = if span > 0.0 && progressed > 0 {
            progressed as f64 / span
        } else {
            // No progress inside the window yet: fall back to the
            // since-start average rather than reporting 0 runs/s.
            done as f64 / now.duration_since(self.start).as_secs_f64().max(1e-9)
        };
        let eta = if rate > 0.0 && done > 0 {
            format!("{:.0}s", (self.total - done) as f64 / rate)
        } else {
            "?".to_string()
        };
        eprintln!(
            "sweep: {done}/{} runs ({} skipped) | {rate:.1} runs/s | cache hits {:.0}% | eta {eta}",
            self.total, self.skipped, self.hit_pct
        );
    }
}

/// Run `benchmarks × points` in parallel.  When `store` is given, jobs whose
/// run keys are already persisted are skipped and new records are **streamed**
/// to it while the sweep runs: the calling thread appends the completed
/// prefix of the job list in small batches as groups finish, so an
/// interrupted sweep keeps (almost) everything before the first
/// still-running job, and the file content stays deterministic (job order)
/// regardless of the worker count.
///
/// A job that panics (e.g. a generated configuration the simulator's memory
/// model rejects) is caught and reported in `errors` like any other failed
/// job — it never aborts the rest of the sweep.
pub fn run_sweep(
    points: &[SweepPoint],
    opts: &ExecOptions,
    store: Option<&ResultStore>,
) -> std::io::Result<SweepReport> {
    // Every dev/test sweep certifies its schedules for free; release sweeps
    // opt in via `sweep --verify`.
    let certify = opts.verify || cfg!(debug_assertions);
    let done = match store {
        Some(s) => s.completed_keys()?,
        None => Default::default(),
    };

    // Point-major job list so every job has a stable index.  Each point's
    // two fingerprints are formatted once for all of its benchmarks: the
    // full one derives the run keys, and `schedules[p]`, the schedule
    // fingerprint of point `p`'s ISA-visible view, the schedule keys.
    struct Job<'a> {
        point: &'a SweepPoint,
        point_index: usize,
        benchmark: Benchmark,
        key: String,
    }
    let mut jobs = Vec::with_capacity(points.len() * opts.benchmarks.len());
    let mut skipped = 0usize;
    let mut schedules = Vec::with_capacity(points.len());
    for (point_index, point) in points.iter().enumerate() {
        let variant = vmv_core::variant_for(&point.machine);
        let full = full_fingerprint(&point.machine);
        schedules.push(schedule_fingerprint(&point.machine.schedule_view()));
        for &benchmark in &opts.benchmarks {
            let key = run_key_of(benchmark, variant, point.model, &full);
            if done.contains(&key) {
                skipped += 1;
            } else {
                jobs.push(Job {
                    point,
                    point_index,
                    benchmark,
                    key,
                });
            }
        }
    }

    vmv_obs::add(Counter::SweepJobsSkipped, skipped as u64);

    // Group jobs by schedule key, and the groups by program: one group is
    // one lowered schedule, compiled when the group starts and dropped when
    // it ends, and one program is one work unit.  Programs and each
    // program's groups are in first-seen order; groups keep ascending job
    // indices.
    let mut programs: Vec<Program> = Vec::new();
    {
        let mut index: HashMap<crate::cache::CacheKey, (usize, usize)> = HashMap::new();
        let mut program_index: HashMap<(Benchmark, IsaVariant), usize> = HashMap::new();
        for (i, job) in jobs.iter().enumerate() {
            // `CompileCache::key_for(job.benchmark, &job.point.machine)`.
            let variant = vmv_core::variant_for(&job.point.machine);
            let key = (job.benchmark, variant, schedules[job.point_index].clone());
            let program = (key.0, key.1);
            match index.entry(key) {
                Entry::Occupied(e) => {
                    let (p, g) = *e.get();
                    programs[p].groups[g].push(i);
                }
                Entry::Vacant(e) => {
                    let next = programs.len();
                    let p = *program_index.entry(program).or_insert(next);
                    if p == next {
                        programs.push(Program { groups: Vec::new() });
                    }
                    e.insert((p, programs[p].groups.len()));
                    programs[p].groups.push(vec![i]);
                }
            }
        }
    }
    drop(schedules);
    let groups: usize = programs.iter().map(|p| p.groups.len()).sum();

    // Queue wait is measured from here — the moment the job list exists —
    // to each run's pickup, so the first histogram bucket shows pool ramp-up
    // and the tail shows how long the last runs sat behind the others.
    let queued_at = Instant::now();

    let replays = AtomicUsize::new(0);
    let replay_batches = AtomicUsize::new(0);
    // Completed runs (not groups): the progress heartbeat reads this so a
    // batched group finishing K runs at once advances the sliding-window
    // rate by K, keeping the ETA smooth.
    let done_runs = AtomicUsize::new(0);

    // One group's jobs through its program's runner: build and analyse the
    // program (on its first group) and compile the group's schedule on its
    // first job's machine, run the group as one runner call, write the
    // profiles, and drop the schedule on return.  A build or compile that
    // fails or panics fails the whole group, and a failed build is retried
    // by the program's next group.  Returns one result per job, in group
    // (= job) order.
    let simulate_group =
        |runner: &mut Option<ProgramRunner>, runs: usize, group: &[usize]| -> Vec<JobResult> {
            let first = &jobs[group[0]];
            let compiled = catch_quietly(|| {
                let _compile = vmv_obs::span(SpanKind::JobCompile);
                let variant = vmv_core::variant_for(&first.point.machine);
                let runner = runner
                    .get_or_insert_with(|| ProgramRunner::new(first.benchmark, variant, runs));
                compile(runner, &first.point.machine, certify)
            })
            .and_then(|compiled| compiled.map_err(|e| e.to_string()));
            let lowered = match compiled {
                Ok(lowered) => lowered,
                Err(e) => return group.iter().map(|&i| (i, Err(e.clone()))).collect(),
            };
            let runner = runner.as_mut().expect("compiling built the runner");
            let variants: Vec<_> = group
                .iter()
                .map(|&i| (&jobs[i].point.machine, jobs[i].point.model))
                .collect();
            let results = {
                let _simulate = vmv_obs::span(SpanKind::JobSimulate);
                runner.run(&lowered, &variants, opts.profile_dir.is_some())
            };
            let record = |i: usize, run: Result<ProgramRun, ExperimentError>| {
                let job = &jobs[i];
                let (outcome, profile) = run.map_err(|e| e.to_string())?;
                if let (Some(dir), Some(profile)) = (&opts.profile_dir, &profile) {
                    let meta = meta_of(&job.key, job.point, job.benchmark, &outcome);
                    write_profile(dir, &meta, profile)
                        .map_err(|e| format!("profile write: {e}"))?;
                }
                Ok(record_of(
                    job.key.clone(),
                    job.point,
                    job.benchmark,
                    &outcome,
                ))
            };
            let results = group.iter().zip(results);
            results.map(|(&i, run)| (i, record(i, run))).collect()
        };

    // One group, start to finish, with the queue-wait, schedule and job
    // counters around it.
    let run_group = |runner: &mut Option<ProgramRunner>, runs: usize, group: &[usize]| {
        for _ in group {
            vmv_obs::record_ns(
                SpanKind::JobQueueWait,
                queued_at.elapsed().as_nanos() as u64,
            );
        }
        // The group's one schedule is its miss; its other jobs are hits.
        vmv_obs::incr(Counter::CacheMisses);
        vmv_obs::add(Counter::CacheHits, group.len() as u64 - 1);
        let results = simulate_group(runner, runs, group);
        for (_, r) in &results {
            vmv_obs::incr(if r.is_ok() {
                Counter::SweepJobsCompleted
            } else {
                Counter::SweepJobsFailed
            });
        }
        done_runs.fetch_add(results.len(), Ordering::Relaxed);
        results
    };

    // One loop for every worker count.  The calling thread is worker 0 and
    // the committer; `min(workers, programs) - 1` scoped helpers pull
    // programs from the same atomic index, run their groups in order and
    // send each group's `(job index, result)` pairs over a channel.  The
    // caller drains the channel after each of its own groups and blocks on
    // it once no programs remain, so it never polls.  With one worker no
    // thread is spawned at all.
    let workers = opts.effective_workers().min(programs.len()).max(1);
    let next = AtomicUsize::new(0);
    // Raised by the committer when the store breaks: simulating groups whose
    // results could never be persisted or reported would be wasted work.
    let abort = AtomicBool::new(false);
    // Pull programs until none remain, handing each group's results to
    // `deliver`; returns the worker's job count and busy nanoseconds.
    let work = |deliver: &mut dyn FnMut(Vec<JobResult>)| -> (u64, u64) {
        let (mut worker_jobs, mut busy_ns) = (0u64, 0u64);
        while let Some(program) = programs.get(next.fetch_add(1, Ordering::Relaxed)) {
            // The program's build and recording live until its last group.
            let mut runner = None;
            let runs = program.groups.iter().map(Vec::len).sum();
            for group in &program.groups {
                if abort.load(Ordering::Relaxed) {
                    return (worker_jobs, busy_ns);
                }
                let group_start = vmv_obs::enabled().then(Instant::now);
                let results = run_group(&mut runner, runs, group);
                if let Some(t) = group_start {
                    busy_ns += t.elapsed().as_nanos() as u64;
                }
                worker_jobs += group.len() as u64;
                deliver(results);
            }
            if let Some(runner) = runner {
                let (retimed, walks) = runner.retimed();
                replays.fetch_add(retimed, Ordering::Relaxed);
                replay_batches.fetch_add(walks, Ordering::Relaxed);
            }
        }
        (worker_jobs, busy_ns)
    };

    let start = Instant::now();
    let mut commit = Commit {
        slots: jobs.iter().map(|_| None).collect(),
        records: Vec::with_capacity(jobs.len()),
        failed: Vec::new(),
        appended: 0,
        store,
    };
    let cache = CacheCounters {
        hits: (jobs.len() - groups) as u64,
        misses: groups as u64,
    };
    let mut progress = Progress::new(opts.progress, jobs.len(), skipped, cache);
    let mut append_error: Option<std::io::Error> = None;
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for worker in 1..workers {
            let (tx, work) = (tx.clone(), &work);
            scope.spawn(move || {
                // The caller receives until every helper is done, so a
                // send fails only if it panicked; the scope re-raises that.
                let (worker_jobs, busy_ns) = work(&mut |results| {
                    let _ = tx.send(results);
                });
                vmv_obs::worker_record(worker, worker_jobs, busy_ns);
            });
        }
        // The helpers hold the only senders now, so the channel closes
        // when the last of them finishes.
        drop(tx);
        let mut deliver = |results: Vec<JobResult>| {
            for result in results.into_iter().chain(rx.try_iter().flatten()) {
                commit.accept(result);
            }
            // The heartbeat reads the completed-runs counter, not the
            // committed prefix, so progress keeps moving even while an
            // interleaved group holds the prefix back.
            progress.tick(done_runs.load(Ordering::Relaxed), false);
            if append_error.is_none() {
                // Stream completed records in small batches so an
                // interrupted sweep keeps (almost) everything, without one
                // write per run.
                if let Err(e) = commit.append(BATCH) {
                    append_error = Some(e);
                    abort.store(true, Ordering::Relaxed);
                }
            }
        };
        let (worker_jobs, busy_ns) = work(&mut deliver);
        vmv_obs::worker_record(0, worker_jobs, busy_ns);
        for results in rx.iter() {
            deliver(results);
        }
    });
    if let Some(e) = append_error {
        return Err(e);
    }
    commit.append(1)?;
    progress.tick(done_runs.load(Ordering::Relaxed), true);
    let errors = commit
        .failed
        .into_iter()
        .map(|(i, e)| {
            let job = &jobs[i];
            (format!("{} on {}", job.benchmark.name(), job.point.name), e)
        })
        .collect();

    Ok(SweepReport {
        records: commit.records,
        skipped,
        errors,
        cache,
        replays: replays.load(Ordering::Relaxed),
        replay_batches: replay_batches.load(Ordering::Relaxed),
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Records drained per store append while a sweep runs.
const BATCH: usize = 16;

/// One program `(benchmark, ISA variant)` of a sweep, the work unit: the
/// job indices of each of its schedule keys, ascending, one group per key.
struct Program {
    groups: Vec<Vec<usize>>,
}

/// One job's result, tagged with its index in the job list.
type JobResult = (usize, Result<RunRecord, String>);

/// The committing half of the executor loop, owned by the calling thread:
/// results land in job-order slots, the completed prefix of the job list
/// drains into records and failures, and drained records stream to the
/// store.  The store content is therefore in job order whatever the worker
/// count, and an interrupted sweep keeps everything it appended.
struct Commit<'s> {
    slots: Vec<Option<Result<RunRecord, String>>>,
    records: Vec<RunRecord>,
    /// Failed jobs as `(job index, error)`.
    failed: Vec<(usize, String)>,
    /// How many of `records` the store already holds.
    appended: usize,
    store: Option<&'s ResultStore>,
}

impl Commit<'_> {
    /// Slot one job's result and drain the completed prefix.
    fn accept(&mut self, (i, result): JobResult) {
        self.slots[i] = Some(result);
        loop {
            let next = self.records.len() + self.failed.len();
            match self.slots.get_mut(next).and_then(Option::take) {
                Some(Ok(record)) => self.records.push(record),
                Some(Err(e)) => self.failed.push((next, e)),
                None => break,
            }
        }
    }

    /// Append the drained records the store lacks, once at least `min` are
    /// pending.
    fn append(&mut self, min: usize) -> std::io::Result<()> {
        if self.records.len() - self.appended < min {
            return Ok(());
        }
        if let Some(s) = self.store {
            let _append = vmv_obs::span(SpanKind::StoreAppend);
            s.append(&self.records[self.appended..])?;
        }
        self.appended = self.records.len();
        Ok(())
    }
}

/// Build the persisted record of one completed run.
fn record_of(
    key: String,
    point: &SweepPoint,
    benchmark: Benchmark,
    outcome: &vmv_core::RunOutcome,
) -> RunRecord {
    RunRecord {
        key,
        config: point.name.clone(),
        benchmark: benchmark.name().to_string(),
        variant: outcome.variant.name().to_string(),
        model: format!("{:?}", point.model),
        cycles: outcome.stats.cycles(),
        stall_cycles: outcome.stats.total().stall_cycles,
        operations: outcome.stats.total().operations,
        micro_ops: outcome.stats.total().micro_ops,
        vector_cycles: outcome.stats.vector().cycles,
        check_ok: outcome.check_failures.is_empty(),
    }
}

/// Run metadata stamped into a persisted profile document.
fn meta_of(
    key: &str,
    point: &SweepPoint,
    benchmark: Benchmark,
    outcome: &vmv_core::RunOutcome,
) -> ProfileMeta {
    ProfileMeta {
        key: key.to_string(),
        config: point.name.clone(),
        benchmark: benchmark.name().to_string(),
        variant: outcome.variant.name().to_string(),
        model: format!("{:?}", point.model),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::expand_axes;
    use crate::specfile::AxisSpec;
    use crate::store::run_key;

    fn small_points() -> Vec<SweepPoint> {
        expand_axes(vec![
            AxisSpec::VectorLanes(vec![1, 2, 4]),
            AxisSpec::MemLatency(vec![100, 500]),
        ])
        .points
    }

    #[test]
    fn executor_is_deterministic_across_worker_counts() {
        let points = small_points();
        let mut reports = Vec::new();
        for workers in [1, 4] {
            let opts = ExecOptions {
                benchmarks: vec![Benchmark::GsmDec],
                workers,
                progress: false,
                verify: false,
                profile_dir: None,
            };
            reports.push(run_sweep(&points, &opts, None).unwrap());
        }
        let a = &reports[0];
        let b = &reports[1];
        assert_eq!(
            a.records, b.records,
            "1-thread and 4-thread runs must agree exactly"
        );
        assert_eq!(a.records.len(), points.len());
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert!(a.records.iter().all(|r| r.check_ok));
        // Group dispatch makes replay accounting deterministic at any
        // worker count: the one program (GSM_DEC, vector ISA) executes once,
        // and its 3 schedule keys retime the other 5 runs in one batched
        // walk each — and replayed runs still match fully executed ones
        // bit-for-bit (that is what the records equality above proves).
        for r in &reports {
            assert_eq!(r.replays, 5, "every run but the program's first is retimed");
            assert_eq!(r.replay_batches, 3, "one batched walk per schedule key");
        }
    }

    #[test]
    fn compile_cache_schedules_once_per_schedule_key() {
        let points = small_points();
        let opts = ExecOptions {
            benchmarks: vec![Benchmark::GsmDec],
            workers: 4,
            progress: false,
            verify: false,
            profile_dir: None,
        };
        let report = run_sweep(&points, &opts, None).unwrap();
        // 3 lane values × 2 memory latencies = 6 points, but only the 3
        // lane values differ in schedule-relevant fields.
        assert_eq!(
            report.cache.misses, 3,
            "one schedule per (benchmark, schedule key)"
        );
        assert_eq!(report.cache.hits, 3);
    }

    #[test]
    fn panicking_points_are_reported_not_fatal() {
        // 48 KB with the default 4-way/32-byte geometry gives 384 sets —
        // not a power of two, so the cache model panics on construction.
        let points = expand_axes(vec![AxisSpec::L1Size(vec![48 * 1024, 16 * 1024])]).points;
        let opts = ExecOptions {
            benchmarks: vec![Benchmark::GsmDec],
            workers: 2,
            progress: false,
            verify: false,
            profile_dir: None,
        };
        let report = run_sweep(&points, &opts, None).unwrap();
        assert_eq!(report.records.len(), 1, "the healthy point still completes");
        assert_eq!(report.errors.len(), 1);
        assert!(
            report.errors[0].1.contains("panicked"),
            "{:?}",
            report.errors
        );
        // The error carries the panic's message, not just that it panicked.
        assert!(
            report.errors[0]
                .1
                .contains("L1 cache (49152 B, 4-way, 32 B lines)"),
            "{:?}",
            report.errors
        );
    }

    #[test]
    fn a_failing_group_call_is_retried_job_by_job() {
        // One schedule key, three L1 sizes: 16 KB executes and records,
        // then 48 KB (384 sets) panics the cache model inside the batched
        // walk.  The retry re-runs each remaining job on its own, so only
        // the 48 KB job fails and the others match a clean sweep.
        let sweep = |sizes: &[usize], workers: usize| {
            let points = expand_axes(vec![AxisSpec::L1Size(sizes.to_vec())]).points;
            let opts = ExecOptions {
                benchmarks: vec![Benchmark::GsmDec],
                workers,
                ..ExecOptions::default()
            };
            run_sweep(&points, &opts, None).unwrap()
        };
        let clean = sweep(&[16 * 1024, 32 * 1024], 1);
        assert!(clean.errors.is_empty(), "{:?}", clean.errors);
        for workers in [1, 2] {
            let report = sweep(&[16 * 1024, 48 * 1024, 32 * 1024], workers);
            assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
            assert!(report.errors[0].0.contains("l1:48K"), "{:?}", report.errors);
            assert_eq!(report.records, clean.records, "workers {workers}");
            // Each retry retimes its job alone from the recording: only
            // the 32 KB retry succeeds, as a walk of width one.
            assert_eq!(report.replays, 1);
            assert_eq!(report.replay_batches, 1);
        }
    }

    #[test]
    fn a_failed_first_execution_hands_the_recording_to_the_next_run() {
        // One GSM_DEC program over three schedule keys.  The first key's
        // only job (48 KB L1, 384 sets) panics when its hierarchy is built,
        // so the program has no recording yet: the second key's first job
        // executes and records, and the other three jobs of the second and
        // third keys are retimed from that recording, one walk per key.
        let good = expand_axes(vec![
            AxisSpec::IssueWidth(vec![4, 8]),
            AxisSpec::L1Size(vec![16 * 1024, 32 * 1024]),
        ])
        .points;
        let mut points = expand_axes(vec![
            AxisSpec::IssueWidth(vec![2]),
            AxisSpec::L1Size(vec![48 * 1024]),
        ])
        .points;
        points.extend(good.iter().cloned());
        let sweep = |points: &[SweepPoint], workers: usize| {
            let opts = ExecOptions {
                benchmarks: vec![Benchmark::GsmDec],
                workers,
                ..ExecOptions::default()
            };
            run_sweep(points, &opts, None).unwrap()
        };
        let clean = sweep(&good, 1);
        assert!(clean.errors.is_empty(), "{:?}", clean.errors);
        for workers in [1, 2] {
            let report = sweep(&points, workers);
            assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
            assert!(report.errors[0].0.contains("l1:48K"), "{:?}", report.errors);
            assert_eq!(report.records, clean.records, "workers {workers}");
            assert_eq!((report.replays, report.replay_batches), (3, 2));
        }
    }

    #[test]
    fn one_job_groups_match_the_recording_path() {
        // ISA x issue width gives six one-job groups, two per program; two
        // DRAM latencies of the default machine (vector, 2-wide) add one
        // two-job group to the vector program.  Each program executes its
        // first job once and retimes the rest, across schedule keys.  Every
        // record must equal the recording execution of its job: the first
        // outcome of a two-variant batch on its own schedule.
        let mut points = expand_axes(vec![
            AxisSpec::Isa(vec![
                vmv_machine::IsaSupport::Vliw,
                vmv_machine::IsaSupport::Usimd,
                vmv_machine::IsaSupport::Vector,
            ]),
            AxisSpec::IssueWidth(vec![4, 8]),
        ])
        .points;
        points.extend(expand_axes(vec![AxisSpec::MemLatency(vec![150, 250])]).points);
        let benchmark = Benchmark::GsmDec;
        let expected: Vec<RunRecord> = points
            .iter()
            .map(|point| {
                let prepared = vmv_core::prepare(benchmark, &point.machine).unwrap();
                let job = (&point.machine, point.model);
                let outcome = vmv_core::simulate_batch(&prepared, &[job, job])
                    .unwrap()
                    .remove(0);
                let variant = vmv_core::variant_for(&point.machine);
                let key = run_key(benchmark, variant, &point.machine, point.model);
                record_of(key, point, benchmark, &outcome)
            })
            .collect();
        for workers in [1, 2] {
            let opts = ExecOptions {
                benchmarks: vec![benchmark],
                workers,
                ..ExecOptions::default()
            };
            let report = run_sweep(&points, &opts, None).unwrap();
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            assert_eq!(report.records, expected, "workers {workers}");
            assert_eq!(report.cache.misses, 7, "six one-job keys and one pair");
            // Scalar and µSIMD retime one run each; the vector program
            // retimes its second one-job key and the pair, in two walks.
            assert_eq!((report.replays, report.replay_batches), (5, 4));
        }
    }

    #[test]
    fn scalar_and_usimd_programs_share_schedules_across_vector_fields() {
        // ISA x chaining x L2 latency: chaining and the vector-cache
        // latency reach only vector code, so the scalar and µSIMD programs
        // are one schedule key of four runs each and the vector program is
        // four keys of one run.  Every record must equal a fresh execution
        // of its own point, compiled for its own machine.
        use vmv_machine::IsaSupport;
        let points = expand_axes(vec![
            AxisSpec::Isa(vec![
                IsaSupport::Vliw,
                IsaSupport::Usimd,
                IsaSupport::Vector,
            ]),
            AxisSpec::Chaining(vec![true, false]),
            AxisSpec::L2Latency(vec![3, 9]),
        ])
        .points;
        assert_eq!(points.len(), 12);
        let benchmark = Benchmark::GsmDec;
        let expected: Vec<RunRecord> = points
            .iter()
            .map(|point| {
                let prepared = vmv_core::prepare(benchmark, &point.machine).unwrap();
                let outcome = vmv_core::simulate(&prepared, &point.machine, point.model).unwrap();
                let variant = vmv_core::variant_for(&point.machine);
                let key = run_key(benchmark, variant, &point.machine, point.model);
                record_of(key, point, benchmark, &outcome)
            })
            .collect();
        for workers in [1, 2] {
            let opts = ExecOptions {
                benchmarks: vec![benchmark],
                workers,
                ..ExecOptions::default()
            };
            let report = run_sweep(&points, &opts, None).unwrap();
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            assert_eq!(report.records, expected, "workers {workers}");
            assert_eq!(report.cache.misses, 6, "one scalar, one µSIMD, four vector");
            // Each program executes once; the scalar and µSIMD programs
            // retime their other three runs in one walk, the vector
            // program in one walk per remaining key.
            assert_eq!((report.replays, report.replay_batches), (9, 5));
        }
    }

    #[test]
    fn cache_geometry_sweep_runs_and_shares_one_schedule() {
        // Geometry variations (associativity, line size, bank count) are
        // memory-only: every point re-simulates the same single schedule.
        let points = expand_axes(vec![
            AxisSpec::L2Assoc(vec![4, 8]),
            AxisSpec::L2Line(vec![64, 128]),
            AxisSpec::L2Banks(vec![2, 4]),
        ])
        .points;
        assert_eq!(points.len(), 8);
        let opts = ExecOptions {
            benchmarks: vec![Benchmark::GsmDec],
            workers: 2,
            progress: false,
            verify: false,
            profile_dir: None,
        };
        let report = run_sweep(&points, &opts, None).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.records.len(), 8);
        assert_eq!(report.cache.misses, 1, "one schedule for all geometries");
        // The whole key is one dispatch group of the program's only key:
        // the first point executes and records, the other seven retime the
        // trace in a single batched walk.
        assert_eq!(report.replays, points.len() - 1);
        assert_eq!(report.replay_batches, 1, "one fused walk for the group");
        assert!(report.records.iter().all(|r| r.check_ok));
        // Geometry must matter: not every point can have identical cycles.
        let cycles: std::collections::HashSet<u64> =
            report.records.iter().map(|r| r.cycles).collect();
        assert!(cycles.len() > 1, "geometry axes had no effect: {cycles:?}");
    }

    #[test]
    fn store_skips_already_completed_runs() {
        let mut path = std::env::temp_dir();
        path.push(format!("vmv_sweep_exec_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = ResultStore::open(&path);

        let points = small_points();
        let opts = ExecOptions {
            benchmarks: vec![Benchmark::GsmDec],
            workers: 2,
            progress: false,
            verify: false,
            profile_dir: None,
        };
        let first = run_sweep(&points, &opts, Some(&store)).unwrap();
        assert_eq!(first.records.len(), points.len());
        assert_eq!(first.skipped, 0);

        let second = run_sweep(&points, &opts, Some(&store)).unwrap();
        assert_eq!(second.records.len(), 0, "everything already persisted");
        assert_eq!(second.skipped, points.len());
        assert_eq!(second.cache.misses, 0, "skipped jobs never compile");

        // The store still holds exactly one record per job.
        assert_eq!(store.load().unwrap().len(), points.len());
        let _ = std::fs::remove_file(&path);
    }
}
