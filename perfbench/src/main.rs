//! One pass of a benchmark workload, in a process of its own.
//!
//! ```text
//! perfbench pass   --workload structural|memory|paper [--spec FILE] --store FILE
//!                  --threads N --seed S [--obs]
//! perfbench traced --workload structural|memory|paper [--spec FILE] --store FILE
//!                  --spans FILE
//! perfbench probe
//! ```
//!
//! `pass` is what a user's `sweep --spec FILE` (structural, memory) or
//! `repro` (paper) invocation does, timed phase by phase: set-up, the sweep
//! or suite itself, then the report.  Phases shorter than about 100 ms are
//! repeated and report their median.  `--obs` turns on the `vmv-obs`
//! recorder for the executor's own queue-wait and busy-time figures.
//! `traced` re-drives the same public calls with a span around each call
//! into a layer (see `traced.rs`).  Both print one JSON object on stdout;
//! `run.py` starts them, one cold process per pass.  `probe` times the
//! host-speed probe and prints its time in seconds; `run.py` runs it in a
//! process of its own between passes.

mod check;
mod traced;

use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use vmv_core::Suite;
use vmv_kernels::Benchmark;
use vmv_mem::MemoryModel;
use vmv_report::{html, pareto_report, sensitivity, LoadedStore, ResolvedStore};
use vmv_sweep::json::Json;
use vmv_sweep::{fnv1a64, run_sweep, CompileCache, ExecOptions, ResultStore, RunRecord, SpecFile};

use check::{fresh_mismatches, record_of, records_digest, FreshCase, SplitMix};

/// Each short phase (set-up, report) is timed in samples of at least
/// `MIN_SAMPLE_S` (calls batched as needed); samples repeat until there are
/// `MAX_SAMPLES` or `SAMPLE_BUDGET_S` seconds have passed, and at least
/// `MIN_SAMPLES`.  The median per-call time is reported.
const MIN_SAMPLE_S: f64 = 0.001;
const MIN_SAMPLES: usize = 3;
const MAX_SAMPLES: usize = 31;
const SAMPLE_BUDGET_S: f64 = 0.1;
/// Runs per pass re-simulated from scratch with `simulate_fresh`.
const FRESH_SAMPLE: usize = 6;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Structural,
    Memory,
    Paper,
}

struct Args {
    command: String,
    workload: Workload,
    spec: Option<PathBuf>,
    store: PathBuf,
    threads: usize,
    seed: u64,
    obs: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (pass, traced or probe)")?;
    if command != "pass" && command != "traced" {
        return Err(format!("unknown command '{command}'"));
    }
    let mut args = Args {
        command,
        workload: Workload::Paper,
        spec: None,
        store: PathBuf::new(),
        threads: 1,
        seed: 0,
        obs: false,
        spans: None,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        if flag == "--obs" {
            args.obs = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "structural" => Workload::Structural,
                    "memory" => Workload::Memory,
                    "paper" => Workload::Paper,
                    _ => return Err(format!("unknown workload '{value}'")),
                })
            }
            "--spec" => args.spec = Some(value.into()),
            "--store" => args.store = value.into(),
            "--spans" => args.spans = Some(value.into()),
            "--threads" => args.threads = value.parse().map_err(|_| "bad --threads")?,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.store.as_os_str().is_empty() {
        return Err("--store is required".into());
    }
    if args.workload != Workload::Paper && args.spec.is_none() {
        return Err("sweep workloads need --spec".into());
    }
    Ok(args)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("probe") {
        println!("{}", num(probe()).render());
        return;
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let result = match (args.command.as_str(), args.workload) {
        ("pass", Workload::Paper) => paper_pass(&args),
        ("pass", _) => sweep_pass(&args),
        (_, Workload::Paper) => traced::paper(&args),
        _ => traced::sweep(&args),
    };
    match result {
        Ok(json) => println!("{}", json.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Time `f` as [`MIN_SAMPLE_S`] describes, after one untimed warm-up call;
/// return the median per-call time and the last value.
fn repeated<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let t = Instant::now();
    let mut last = black_box(f()?);
    let batch = (MIN_SAMPLE_S / t.elapsed().as_secs_f64())
        .ceil()
        .clamp(1.0, 1e5) as usize;
    let mut times = Vec::with_capacity(MAX_SAMPLES);
    let start = Instant::now();
    while times.len() < MIN_SAMPLES
        || (times.len() < MAX_SAMPLES && start.elapsed().as_secs_f64() < SAMPLE_BUDGET_S)
    {
        // Results are dropped after the clock stops.
        let mut values = Vec::with_capacity(batch);
        let t = Instant::now();
        for _ in 0..batch {
            values.push(black_box(f()?));
        }
        times.push(t.elapsed().as_secs_f64() / batch as f64);
        last = values.pop().expect("batch >= 1");
    }
    Ok((median(times), last))
}

/// Host-speed probe: a fixed random read-modify-write walk over 4 MiB, the
/// access pattern of the simulator's memory-bound loops; the median of five
/// walks.  A shared host swings the speed of such code by 20 % and more over
/// seconds to minutes; `run.py` divides that swing out of the end-to-end
/// figures.  It runs only in a `perfbench probe` process of its own, so no
/// change to the program under test can move it.
fn probe() -> f64 {
    const WORDS: usize = 1 << 20;
    let mut buf: Vec<u32> = (0..WORDS as u32).collect();
    let mut times = Vec::with_capacity(5);
    for _ in 0..5 {
        let mut x: u32 = 12345;
        let t = Instant::now();
        for _ in 0..1_000_000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let i = (x >> 12) as usize & (WORDS - 1);
            buf[i] = buf[i].wrapping_add(x) ^ (buf[(i + 1) & (WORDS - 1)] >> 3);
        }
        times.push(t.elapsed().as_secs_f64());
    }
    black_box(&buf);
    median(times)
}

/// A `VmRSS`/`VmHWM` line of `/proc/self/status`, in MiB (0 where the
/// platform has no procfs).
fn proc_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':').map(str::to_owned))
        })
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn num(x: f64) -> Json {
    Json::Num(if x.is_finite() { x } else { 0.0 })
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Executor and scheduler figures from the `vmv-obs` recorder, read after a
/// pass ran with it enabled.  `queue_wait_s` is the mean over jobs.
fn obs_fields(workers: usize, wall_s: f64) -> Json {
    let snap = vmv_obs::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let queue_wait_ns = snap.span("job_queue_wait_ns").map_or(0.0, |h| h.mean());
    let busy_ns: u64 = snap.workers.iter().map(|w| w.busy_ns).sum();
    obj(vec![
        ("queue_wait_s", num(queue_wait_ns / 1e9)),
        (
            "busy_frac",
            num(ratio(busy_ns as f64, workers as f64 * wall_s * 1e9)),
        ),
        ("ready_scans", num(counter("sched_ready_scans"))),
        ("ops_placed", num(counter("sched_ops_placed"))),
    ])
}

/// The fields every pass reports, whatever its workload.
struct PassResult {
    attempted: usize,
    failures: Vec<String>,
    /// Runs counted as failed (a digest or re-simulation mismatch fails all).
    failed: usize,
    setup_s: f64,
    run_s: f64,
    runs_ok: usize,
    rss_before_mib: f64,
    hwm_after_run_mib: f64,
    report_s: f64,
    /// VmHWM after the report.
    peak_rss_mib: f64,
    store_digest: String,
    records_digest: String,
    obs: Option<Json>,
}

impl PassResult {
    fn into_json(self, threads: usize) -> Json {
        let mut fields = vec![
            ("threads", Json::u64(threads as u64)),
            ("attempted", Json::u64(self.attempted as u64)),
            ("failed", Json::u64(self.failed as u64)),
            (
                "failures",
                Json::Arr(self.failures.into_iter().take(5).map(Json::Str).collect()),
            ),
            ("setup_s", num(self.setup_s)),
            ("run_s", num(self.run_s)),
            ("runs_ok", Json::u64(self.runs_ok as u64)),
            ("runs_per_s", num(ratio(self.runs_ok as f64, self.run_s))),
            (
                "rss_growth_mb",
                num(self.hwm_after_run_mib - self.rss_before_mib),
            ),
            ("peak_rss_mb", num(self.peak_rss_mib)),
            ("report_s", num(self.report_s)),
            ("store_digest", Json::Str(self.store_digest)),
            ("records_digest", Json::Str(self.records_digest)),
        ];
        if let Some(obs) = self.obs {
            fields.push(("obs", obs));
        }
        obj(fields)
    }
}

/// Turn failed re-simulations into failures of the whole pass.
fn apply_fresh_check(result: &mut PassResult, mismatches: Vec<String>) {
    if !mismatches.is_empty() {
        result.failed = result.attempted;
        result.failures.extend(mismatches);
    }
}

/// One cold `sweep --spec` pass: set-up, `run_sweep` into a fresh store,
/// then the `report html` rendering of that store.
fn sweep_pass(args: &Args) -> Result<Json, String> {
    let spec_path = args.spec.as_ref().expect("checked in parse_args");
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let (setup_s, (lowered, points, store)) = repeated(|| {
        let spec = SpecFile::parse(&text).map_err(|e| e.to_string())?;
        let lowered = spec.lower().map_err(|e| e.to_string())?;
        let points = lowered.spec.expand().points;
        let store = ResultStore::with_header(&args.store, spec.store_header());
        Ok((lowered, points, store))
    })?;
    let _ = std::fs::remove_file(&args.store);

    let opts = ExecOptions::for_spec(&lowered, args.threads);
    let attempted = points.len() * opts.benchmarks.len();
    if args.obs {
        vmv_obs::set_enabled(true);
    }
    let rss_before_mib = proc_mib("VmRSS");
    let t = Instant::now();
    let report = run_sweep(&points, &opts, Some(&store));
    let run_s = t.elapsed().as_secs_f64();
    let hwm_after_run_mib = proc_mib("VmHWM");
    let obs = args.obs.then(|| obs_fields(args.threads, run_s));
    vmv_obs::set_enabled(false);
    let report = report.map_err(|e| format!("run_sweep: {e}"))?;

    let (report_s, page) = repeated(|| {
        let loaded = LoadedStore::from_path(&args.store).map_err(|e| e.to_string())?;
        let resolved = ResolvedStore::resolve(&loaded).map_err(|e| e.to_string())?;
        let records = resolved.filter_records(&[]).map_err(|e| e.to_string())?;
        let name = resolved.spec.name.clone();
        let sections = vec![
            html::pareto_section(&name, &pareto_report(&resolved.points, &records)),
            html::sensitivity_section(&name, &sensitivity(&resolved.points, &records)),
        ];
        let subtitle = format!("spec {name} — fingerprint {}", resolved.spec.fingerprint());
        Ok(html::page(
            &format!("vmv observatory — {name}"),
            &subtitle,
            &sections,
        ))
    })?;
    black_box(page);
    let peak_rss_mib = proc_mib("VmHWM");

    // Output checks: every job ran, every run passed its golden checks, and
    // the store on disk holds exactly what the sweep returned.
    let mut failures: Vec<String> = report
        .errors
        .iter()
        .map(|(job, e)| format!("{job}: {e}"))
        .collect();
    let runs_ok = report.records.iter().filter(|r| r.check_ok).count();
    let mut failed = report.errors.len() + (report.records.len() - runs_ok);
    if runs_ok < report.records.len() {
        failures.push(format!(
            "{} runs failed their output checks",
            report.records.len() - runs_ok
        ));
    }
    let missing = attempted.saturating_sub(report.records.len() + report.errors.len());
    if missing > 0 {
        failed += missing;
        failures.push(format!("{missing} jobs neither completed nor failed"));
    }
    let bytes = std::fs::read(&args.store).map_err(|e| format!("store: {e}"))?;
    let stored = store.load().map_err(|e| format!("store: {e}"))?;
    let mut result = PassResult {
        attempted,
        failures,
        failed,
        setup_s,
        run_s,
        runs_ok,
        rss_before_mib,
        hwm_after_run_mib,
        report_s,
        peak_rss_mib,
        store_digest: format!("{:016x}", fnv1a64(&bytes)),
        records_digest: records_digest(&stored),
        obs,
    };
    if stored != report.records {
        result.failed = attempted;
        result
            .failures
            .push("the store does not hold the sweep's records in job order".into());
    }

    // Re-simulate a seeded sample of the batch-retimed runs (every job but
    // the first of its schedule key); with none, sample every run.
    let by_key: HashMap<&str, &RunRecord> = stored.iter().map(|r| (r.key.as_str(), r)).collect();
    let mut jobs = Vec::with_capacity(attempted);
    let mut seen = std::collections::HashSet::new();
    for point in &points {
        for &benchmark in &opts.benchmarks {
            let first = seen.insert(CompileCache::key_for(benchmark, &point.machine));
            jobs.push((point, benchmark, first));
        }
    }
    let retimed: Vec<_> = jobs.iter().filter(|j| !j.2).collect();
    let pool: Vec<_> = if retimed.is_empty() {
        jobs.iter().collect()
    } else {
        retimed
    };
    let mut cases = Vec::new();
    for i in SplitMix(args.seed ^ 0x5EED).sample(pool.len(), FRESH_SAMPLE) {
        let (point, benchmark, _) = *pool[i];
        let key = vmv_sweep::run_key(
            benchmark,
            vmv_core::variant_for(&point.machine),
            &point.machine,
            point.model,
        );
        match by_key.get(key.as_str()) {
            Some(expected) => cases.push(FreshCase {
                benchmark,
                machine: &point.machine,
                model: point.model,
                expected,
            }),
            None => result
                .failures
                .push(format!("run {key} missing from the store")),
        }
    }
    apply_fresh_check(&mut result, fresh_mismatches(&cases));
    Ok(result.into_json(args.threads))
}

/// One cold `repro` pass: the Table 2 machine list, both memory models
/// through `Suite::run_with_threads`, then every table and figure.  The
/// seed does not apply.
fn paper_pass(args: &Args) -> Result<Json, String> {
    let (setup_s, machines) = repeated(|| Ok(vmv_machine::all_configs()))?;
    let models = [MemoryModel::Perfect, MemoryModel::Realistic];
    let attempted = models.len() * Benchmark::ALL.len() * machines.len();
    if args.obs {
        vmv_obs::set_enabled(true);
    }
    let rss_before_mib = proc_mib("VmRSS");
    let t = Instant::now();
    let suites: Result<Vec<Suite>, _> = models
        .iter()
        .map(|&m| Suite::run_with_threads(&machines, m, args.threads))
        .collect();
    let run_s = t.elapsed().as_secs_f64();
    let hwm_after_run_mib = proc_mib("VmHWM");
    let obs = args.obs.then(|| obs_fields(args.threads, run_s));
    vmv_obs::set_enabled(false);
    let suites = suites.map_err(|e| format!("suite: {e}"))?;
    let (report_s, text) = repeated(|| Ok(vmv_bench::render_everything(&suites[0], &suites[1])))?;
    black_box(text);
    let peak_rss_mib = proc_mib("VmHWM");

    // Suite outcomes are benchmark-major, then in machine order.
    let mut records = Vec::with_capacity(attempted);
    let mut runs = Vec::with_capacity(attempted);
    for suite in &suites {
        let jobs = Benchmark::ALL
            .iter()
            .flat_map(|&b| machines.iter().map(move |m| (b, m)));
        for ((benchmark, machine), outcome) in jobs.zip(&suite.outcomes) {
            records.push(record_of(machine, suite.model, outcome));
            runs.push((benchmark, machine, suite.model));
        }
    }
    let runs_ok = records.iter().filter(|r| r.check_ok).count();
    let mut failures = Vec::new();
    if runs_ok < records.len() {
        failures.push(format!(
            "{} runs failed their output checks",
            records.len() - runs_ok
        ));
    }
    let digest = records_digest(&records);
    let mut result = PassResult {
        attempted,
        failed: attempted - runs_ok,
        failures,
        setup_s,
        run_s,
        runs_ok,
        rss_before_mib,
        hwm_after_run_mib,
        report_s,
        peak_rss_mib,
        store_digest: digest.clone(),
        records_digest: digest,
        obs,
    };
    // A fixed sample: the paper workload ignores the seed.
    let cases: Vec<FreshCase> = SplitMix(0x5EED)
        .sample(runs.len(), FRESH_SAMPLE)
        .into_iter()
        .map(|i| FreshCase {
            benchmark: runs[i].0,
            machine: runs[i].1,
            model: runs[i].2,
            expected: &records[i],
        })
        .collect();
    apply_fresh_check(&mut result, fresh_mismatches(&cases));
    Ok(result.into_json(args.threads))
}
