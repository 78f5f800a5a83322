//! The parallel sweep executor: runs every `(design point, benchmark)` job
//! on a pool of `std::thread::scope` workers, scheduling each program once
//! per unique schedule key, and skipping jobs whose run keys are already in
//! the result store.
//!
//! Jobs are dispatched in *groups*: every job sharing one schedule key
//! ([`CompileCache::key_for`]) shares one lowered program, and the group is
//! that program's whole lifetime.  A worker compiles it when it picks the
//! group up and drops it as soon as the group's results are handed to the
//! committer, so a sweep holds at most one program per worker.  Each group
//! is one call of [`vmv_core::simulate_batch`] (of
//! [`vmv_core::simulate_batch_profiled`] in profiled sweeps), which decides
//! from the group whether to record: a group of one executes without
//! recording, and a larger group executes and records its first run and
//! retimes its remaining memory variants by one batched trace walk.  A call
//! that fails or panics is retried job by job, each as a group of one,
//! preserving per-job error isolation.
//!
//! There is one executor loop for every worker count: the calling thread
//! works through groups like every helper thread and also commits results
//! in job order, so the report and the store content are deterministic
//! (point-major, benchmark-minor) regardless of the worker count or
//! scheduling jitter.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use vmv_core::{simulate_batch, simulate_batch_profiled, Prepared};
use vmv_kernels::Benchmark;
use vmv_obs::{Counter, SpanKind};

use crate::cache::{compile, CacheCounters, CompileCache};
use crate::profiles::{write_profile, ProfileMeta};
use crate::spec::SweepPoint;
use crate::store::{run_key, ResultStore, RunRecord};

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
    /// Jobs served by trace replay instead of full execution: the first
    /// job of their group recorded the program's trace, so only the memory
    /// hierarchy was re-timed.  Groups of one are never retimed, so a sweep
    /// of one-job groups reports 0.
    pub replays: usize,
    /// Batched replay walks performed (each retimes one or more variants in
    /// a single pass over the shared trace).
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

    // Point-major job list so every job has a stable index.
    struct Job<'a> {
        point: &'a SweepPoint,
        benchmark: Benchmark,
        key: String,
    }
    let mut jobs = Vec::with_capacity(points.len() * opts.benchmarks.len());
    let mut skipped = 0usize;
    for point in points {
        for &benchmark in &opts.benchmarks {
            let variant = vmv_core::variant_for(&point.machine);
            let key = run_key(benchmark, variant, &point.machine, point.model);
            if done.contains(&key) {
                skipped += 1;
            } else {
                jobs.push(Job {
                    point,
                    benchmark,
                    key,
                });
            }
        }
    }

    vmv_obs::add(Counter::SweepJobsSkipped, skipped as u64);

    // Group jobs by schedule key: one group = one lowered program, compiled
    // when the group starts and dropped when it ends.  Groups keep
    // first-seen order and ascending job indices, so the committed prefix
    // of the point-major job list still drains in order.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    {
        let mut index: HashMap<crate::cache::CacheKey, usize> = HashMap::new();
        for (i, job) in jobs.iter().enumerate() {
            let key = CompileCache::key_for(job.benchmark, &job.point.machine);
            match index.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].push(i),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(groups.len());
                    groups.push(vec![i]);
                }
            }
        }
    }

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

    // One group call, which decides from the group whether to record: a
    // group of one executes, a larger group executes and records its first
    // job and retimes the others in one batched walk.  A panic is caught
    // and returned as the call's error.
    let simulate_jobs = |prepared: &Prepared, group: &[usize]| -> Result<Vec<RunRecord>, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _simulate = vmv_obs::span(SpanKind::JobSimulate);
            let variants: Vec<_> = group
                .iter()
                .map(|&i| (&jobs[i].point.machine, jobs[i].point.model))
                .collect();
            let outcomes = match &opts.profile_dir {
                None => simulate_batch(prepared, &variants).map_err(|e| e.to_string())?,
                Some(dir) => {
                    let (outcomes, profiles) =
                        simulate_batch_profiled(prepared, &variants).map_err(|e| e.to_string())?;
                    for ((&i, outcome), profile) in group.iter().zip(&outcomes).zip(&profiles) {
                        let job = &jobs[i];
                        write_profile(
                            dir,
                            &meta_of(&job.key, job.point, job.benchmark, outcome),
                            profile,
                        )
                        .map_err(|e| format!("profile write: {e}"))?;
                    }
                    outcomes
                }
            };
            if group.len() > 1 {
                replays.fetch_add(group.len() - 1, Ordering::Relaxed);
                replay_batches.fetch_add(1, Ordering::Relaxed);
            }
            Ok(group
                .iter()
                .zip(&outcomes)
                .map(|(&i, outcome)| {
                    let job = &jobs[i];
                    record_of(job.key.clone(), job.point, job.benchmark, outcome)
                })
                .collect())
        }))
        .unwrap_or_else(|panic| Err(panic_message(&panic)))
    };

    // One group, start to finish: compile its program, simulate, and drop
    // the program on return.  Returns one result per job of the group, in
    // group (= job) order.
    let run_group = |group: &[usize]| -> Vec<JobResult> {
        for _ in group {
            vmv_obs::record_ns(
                SpanKind::JobQueueWait,
                queued_at.elapsed().as_nanos() as u64,
            );
        }
        // The group's one schedule is its miss; its other jobs are hits.
        vmv_obs::incr(Counter::CacheMisses);
        vmv_obs::add(Counter::CacheHits, group.len() as u64 - 1);
        let first = &jobs[group[0]];
        let compiled = std::panic::catch_unwind(|| {
            let _compile = vmv_obs::span(SpanKind::JobCompile);
            compile(first.benchmark, &first.point.machine, certify)
        })
        .map_err(|panic| panic_message(&panic))
        .and_then(|compiled| compiled.map_err(|e| e.to_string()));
        let results: Vec<JobResult> = match compiled {
            Ok(prepared) => match simulate_jobs(&prepared, group) {
                Ok(records) => group
                    .iter()
                    .copied()
                    .zip(records.into_iter().map(Ok))
                    .collect(),
                Err(e) if group.len() == 1 => vec![(group[0], Err(e))],
                // Re-run each job of a failed call as a group of one, so
                // only the jobs that fail on their own are reported.
                Err(_) => group
                    .iter()
                    .map(|&i| (i, simulate_jobs(&prepared, &[i]).map(|mut r| r.remove(0))))
                    .collect(),
            },
            Err(e) => group.iter().map(|&i| (i, Err(e.clone()))).collect(),
        };
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
    // the committer; `min(workers, groups) - 1` scoped helpers pull groups
    // from the same atomic index and send each group's `(job index,
    // result)` pairs over a channel.  The caller drains the channel after
    // each of its own groups and blocks on it once no groups remain, so it
    // never polls.  With one worker no thread is spawned at all.
    let workers = opts.effective_workers().min(groups.len()).max(1);
    let next = AtomicUsize::new(0);
    // Raised by the committer when the store breaks: simulating groups whose
    // results could never be persisted or reported would be wasted work.
    let abort = AtomicBool::new(false);
    // Pull groups until none remain, handing each group's results to
    // `deliver`; returns the worker's job count and busy nanoseconds.
    let work = |deliver: &mut dyn FnMut(Vec<JobResult>)| -> (u64, u64) {
        let (mut worker_jobs, mut busy_ns) = (0u64, 0u64);
        while !abort.load(Ordering::Relaxed) {
            let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            let group_start = vmv_obs::enabled().then(Instant::now);
            let results = run_group(group);
            if let Some(t) = group_start {
                busy_ns += t.elapsed().as_nanos() as u64;
            }
            worker_jobs += group.len() as u64;
            deliver(results);
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
        hits: (jobs.len() - groups.len()) as u64,
        misses: groups.len() as u64,
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

/// Best-effort text of a worker panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, SweepSpec};

    fn small_points() -> Vec<SweepPoint> {
        SweepSpec::new()
            .axis(Axis::vector_lanes(&[1, 2, 4]))
            .axis(Axis::mem_latency(&[100, 500]))
            .expand()
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
        // worker count: each of the 3 schedule keys records once and
        // retimes its second memory variant in one batch — and replayed
        // runs still match fully executed ones bit-for-bit (that is what
        // the records equality above proves).
        for r in &reports {
            assert_eq!(r.replays, 3, "one replay per re-timed memory variant");
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
        let points = SweepSpec::new()
            .axis(Axis::l1_size(&[48 * 1024, 16 * 1024]))
            .expand()
            .points;
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
    }

    #[test]
    fn a_failing_group_call_is_retried_job_by_job() {
        // One schedule key, three L1 sizes: 16 KB executes and records,
        // then 48 KB (384 sets) panics the cache model inside the batched
        // walk.  The retry re-runs each job as a group of one, so only the
        // 48 KB job fails and the others match a clean sweep.
        let sweep = |sizes: &[usize], workers: usize| {
            let points = SweepSpec::new().axis(Axis::l1_size(sizes)).expand().points;
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
            // Every retry is a group of one, which executes without
            // recording: nothing is retimed.
            assert_eq!(report.replays, 0);
            assert_eq!(report.replay_batches, 0);
        }
    }

    #[test]
    fn one_job_groups_match_the_recording_path() {
        // ISA x issue width gives six one-job groups; two DRAM latencies of
        // the default machine (vector, 2-wide) add one two-job group that
        // records and retimes.  Every record must equal the recording
        // execution of its job: the first outcome of a two-variant batch.
        let mut points = SweepSpec::new()
            .axis(Axis::isa(&[
                vmv_machine::IsaSupport::Vliw,
                vmv_machine::IsaSupport::Usimd,
                vmv_machine::IsaSupport::Vector,
            ]))
            .axis(Axis::issue_width(&[4, 8]))
            .expand()
            .points;
        points.extend(
            SweepSpec::new()
                .axis(Axis::mem_latency(&[150, 250]))
                .expand()
                .points,
        );
        let benchmark = Benchmark::GsmDec;
        let expected: Vec<RunRecord> = points
            .iter()
            .map(|point| {
                let prepared = vmv_core::prepare(benchmark, &point.machine).unwrap();
                let job = (&point.machine, point.model);
                let outcome = simulate_batch(&prepared, &[job, job]).unwrap().remove(0);
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
            assert_eq!((report.replays, report.replay_batches), (1, 1));
        }
    }

    #[test]
    fn cache_geometry_sweep_runs_and_shares_one_schedule() {
        // Geometry variations (associativity, line size, bank count) are
        // memory-only: every point re-simulates the same single schedule.
        let points = SweepSpec::new()
            .axis(Axis::l2_assoc(&[4, 8]))
            .axis(Axis::l2_line(&[64, 128]))
            .axis(Axis::l2_banks(&[2, 4]))
            .expand()
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
        // The whole key is one dispatch group: the first point executes
        // and records, the other seven retime the trace in a single
        // batched walk.
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
