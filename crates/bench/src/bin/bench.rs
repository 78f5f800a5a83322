//! Dependency-free simulator benchmark harness.
//!
//! ```text
//! cargo run --release -p vmv-bench --bin bench
//! cargo run --release -p vmv-bench --bin bench -- --json BENCH_sim.json \
//!     --min-scps 5000000
//! ```
//!
//! Times the three pipeline stages — **schedule** (`vmv_sched::compile`),
//! **lower** (`vmv_sched::lower`) and **simulate** (the lowered engine) —
//! separately, on two workloads:
//!
//! * the Table 2 suite: all ten paper configurations × six benchmarks ×
//!   both memory models, single-threaded;
//! * a large synthetic sweep: the `sweep --demo` design points (GSM pair,
//!   Realistic model), re-simulated from one compile per schedule key the
//!   same way the sweep executor does.
//!
//! One replay pass then walks the committed `latency_tolerance` memory-axis
//! sweep one schedule key at a time, directly on the engine
//! (`vmv_core::sim`): it executes every run fresh, records the key's first
//! run together with its slot analysis, retimes the other memory variants
//! by one single-variant walk each and then by one fused walk, and asserts
//! that every leg is bit-identical to fresh execution.  Each key runs its
//! legs in three interleaved rounds and the pass reports per-round mean
//! seconds, so host drift hits both sides of each ratio alike.  The pass
//! reports two stages:
//!
//! * **replay** — re-executing every run vs record-once/replay-the-rest
//!   (the recordings plus the single-variant walks); `--min-replay-speedup`
//!   gates the speedup in CI;
//! * **replay_batch** — the single-variant walks vs the fused walks, per
//!   retimed variant; `--min-batch-speedup` gates it in CI.  Both legs time
//!   walks only, since the slot analysis is built with the recording.
//!
//! Reports simulated-cycles-per-second per stage-adjusted workload and
//! **appends** a host- and commit-stamped entry to the `BENCH_sim.json`
//! trajectory (a JSON array, newest last), so the perf history of the hot
//! path actually accumulates run over run instead of each run overwriting
//! the previous one.  A legacy single-object file is adopted as the first
//! trajectory entry.  `--min-scps` turns the harness into a CI gate: the
//! process exits non-zero when the synthetic-sweep simulation throughput
//! falls below the floor.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

use vmv_core::sim::{replay_batch, ReplayAnalysis, RunStats, SimOptions, VariantState};
use vmv_core::{prepare, simulate, variant_for, Prepared};
use vmv_kernels::Benchmark;
use vmv_machine::all_configs;
use vmv_mem::MemoryModel;
use vmv_sweep::{CompileCache, Json, SpecFile};

/// The committed memory-axis sweep the replay stage measures (chaining ×
/// L2 latency × memory latency on the GSM pair).
const LATENCY_TOLERANCE_SPEC: &str =
    include_str!("../../../../examples/specs/latency_tolerance.json");

fn usage() {
    eprintln!(
        "usage: bench [--json BENCH.json] [--min-scps N] [--repeat N]\n\
         \n\
         --json PATH     write a BENCH-style JSON artifact (default:\n\
         \x20               BENCH_sim.json)\n\
         --min-scps N    exit non-zero when the synthetic-sweep simulation\n\
         \x20               throughput is below N simulated-cycles-per-second\n\
         --min-replay-speedup X\n\
         \x20               exit non-zero when the replay stage's speedup over\n\
         \x20               re-execution is below X\n\
         --min-batch-speedup X\n\
         \x20               exit non-zero when the replay_batch stage's speedup\n\
         \x20               over one single-variant walk per variant is below X\n\
         --repeat N      run each whole workload N times (default 1); the\n\
         \x20               trajectory entry carries the median run plus\n\
         \x20               min/median/max wall seconds per stage"
    );
}

/// Wall-clock seconds of one closure invocation.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Best-effort host name for trajectory entries (the history spans
/// machines, and a 2x "regression" is usually just a slower host).
fn host_name() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.trim().is_empty())
        .or_else(|| {
            std::fs::read_to_string("/proc/sys/kernel/hostname")
                .ok()
                .map(|h| h.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Best-effort commit id: CI env var first, then `git rev-parse`, marked
/// `+tree` when tracked files differ from that commit.
fn commit_id() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.trim().is_empty() {
            return sha.trim().chars().take(12).collect();
        }
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(head) if !head.trim().is_empty() => {
            let status = git(&["status", "--porcelain", "--untracked-files=no"]);
            commit_stamp(head.trim(), status.as_deref().unwrap_or(""))
        }
        _ => "unknown".to_string(),
    }
}

/// The stamp of commit `head` for a working tree whose `git status
/// --porcelain` is `status`: `head`, plus `+tree` when it lists a change.
fn commit_stamp(head: &str, status: &str) -> String {
    if status.trim().is_empty() {
        head.to_string()
    } else {
        format!("{head}+tree")
    }
}

/// `rustc -V` of the toolchain that built us, stamped into trajectory
/// entries: compiler upgrades move throughput as surely as code changes.
fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string()))
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The trajectory entries stored at `path`.  A missing file starts a fresh
/// trajectory and a legacy single-object file (the pre-trajectory format)
/// becomes the first entry; any other file that is not a JSON array (a
/// torn write, a stray byte) is an error, so its history is never lost.
fn load_trajectory(path: &str) -> Result<Vec<Json>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    match Json::parse(&text) {
        Ok(Json::Arr(entries)) => Ok(entries),
        Ok(legacy @ Json::Obj(_)) => Ok(vec![legacy]),
        Ok(_) => Err(format!("{path} is not a JSON array of trajectory entries")),
        Err(e) => Err(format!(
            "{path} is not a JSON array of trajectory entries: {e}"
        )),
    }
}

/// Append `entry` to the trajectory at `path` and return the new entry
/// count.  The file is replaced through a sibling temp file and `rename`,
/// so an interrupted write leaves the old trajectory intact; on error the
/// file is left untouched.
fn append_to_trajectory(path: &str, entry: Json) -> Result<usize, String> {
    let mut entries = load_trajectory(path)?;
    entries.push(entry);
    // One entry per line between the array brackets: appends produce
    // one-line diffs, and the history stays greppable.
    let lines: Vec<String> = entries.iter().map(Json::render).collect();
    let rendered = format!("[\n{}\n]\n", lines.join(",\n"));
    let tmp = format!("{path}.tmp");
    std::fs::File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(rendered.as_bytes())?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(entries.len())
}

struct StageTotals {
    schedule_s: f64,
    lower_s: f64,
    simulate_s: f64,
    schedules: u64,
    runs: u64,
    simulated_cycles: u64,
}

impl StageTotals {
    fn new() -> Self {
        StageTotals {
            schedule_s: 0.0,
            lower_s: 0.0,
            simulate_s: 0.0,
            schedules: 0,
            runs: 0,
            simulated_cycles: 0,
        }
    }

    /// Simulated cycles per second of *simulation* wall time.
    fn scps(&self) -> f64 {
        ratio(self.simulated_cycles as f64, self.simulate_s)
    }

    fn report(&self, name: &str) {
        println!(
            "{name}: {} schedules, {} runs, {} simulated cycles",
            self.schedules, self.runs, self.simulated_cycles
        );
        println!(
            "  schedule {:.3}s | lower {:.3}s | simulate {:.3}s | {:.0} simulated-cycles-per-second",
            self.schedule_s,
            self.lower_s,
            self.simulate_s,
            self.scps()
        );
    }

    fn json(&self, name: &str) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(name)),
            ("schedules".into(), Json::u64(self.schedules)),
            ("runs".into(), Json::u64(self.runs)),
            ("simulated_cycles".into(), Json::u64(self.simulated_cycles)),
            ("schedule_seconds".into(), Json::Num(self.schedule_s)),
            ("lower_seconds".into(), Json::Num(self.lower_s)),
            ("simulate_seconds".into(), Json::Num(self.simulate_s)),
            ("simulated_cycles_per_second".into(), Json::Num(self.scps())),
        ])
    }
}

/// Median of wall-second samples (averages the middle pair when even).
fn median(vs: &[f64]) -> f64 {
    let mut s = vs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `{"min": .., "median": .., "max": ..}` over wall-second samples.
fn spread_json(vs: &[f64]) -> Json {
    let mut s = vs.to_vec();
    s.sort_by(f64::total_cmp);
    Json::Obj(vec![
        ("min".into(), Json::Num(s[0])),
        ("median".into(), Json::Num(median(vs))),
        ("max".into(), Json::Num(s[s.len() - 1])),
    ])
}

fn walls(runs: &[(StageTotals, f64)]) -> Vec<f64> {
    runs.iter().map(|(_, w)| *w).collect()
}

/// The repeat with the median `key`: the representative whose totals
/// become the trajectory entry's headline numbers.
fn median_by<T>(runs: &[T], key: impl Fn(&T) -> f64) -> &T {
    let mut idx: Vec<usize> = (0..runs.len()).collect();
    idx.sort_by(|&a, &b| key(&runs[a]).total_cmp(&key(&runs[b])));
    &runs[idx[(runs.len() - 1) / 2]]
}

/// The workload repeat with the median simulate time.
fn median_run(runs: &[(StageTotals, f64)]) -> &StageTotals {
    &median_by(runs, |(t, _)| t.simulate_s).0
}

/// The representative run's totals plus min/median/max wall seconds per
/// stage over all repeats (the spread collapses to one value at --repeat 1).
fn workload_json(name: &str, runs: &[(StageTotals, f64)]) -> Json {
    let mut obj = match median_run(runs).json(name) {
        Json::Obj(fields) => fields,
        _ => unreachable!(),
    };
    let stage =
        |f: fn(&StageTotals) -> f64| -> Vec<f64> { runs.iter().map(|(t, _)| f(t)).collect() };
    obj.push((
        "schedule_seconds_spread".into(),
        spread_json(&stage(|t| t.schedule_s)),
    ));
    obj.push((
        "lower_seconds_spread".into(),
        spread_json(&stage(|t| t.lower_s)),
    ));
    obj.push((
        "simulate_seconds_spread".into(),
        spread_json(&stage(|t| t.simulate_s)),
    ));
    obj.push(("wall_seconds_spread".into(), spread_json(&walls(runs))));
    Json::Obj(obj)
}

/// The Table 2 suite: ten paper configurations × six benchmarks × both
/// memory models, single-threaded, stages timed separately.
fn bench_table2() -> StageTotals {
    let mut t = StageTotals::new();
    for machine in &all_configs() {
        for bench in Benchmark::ALL {
            // prepare() = build + schedule + lower; time the schedule and
            // lowering stages individually to mirror it.
            let variant = variant_for(machine);
            let build = bench.build(variant);
            let (compiled, schedule_s) =
                timed(|| vmv_sched::compile(&build.program, machine).expect("schedules"));
            let (lowered, lower_s) =
                timed(|| vmv_sched::lower(&compiled.program, machine).expect("lowers"));
            t.schedule_s += schedule_s;
            t.lower_s += lower_s;
            t.schedules += 1;
            let prepared = Prepared::new(bench, variant, build, compiled, lowered);
            for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
                // A lone `simulate` executes without recording: this
                // workload measures the execution engine itself.
                let (outcome, sim_s) =
                    timed(|| simulate(&prepared, machine, model).expect("simulates"));
                assert!(
                    outcome.check_failures.is_empty(),
                    "{} on {}: {:?}",
                    bench.name(),
                    machine.name,
                    outcome.check_failures
                );
                t.simulate_s += sim_s;
                t.runs += 1;
                t.simulated_cycles += outcome.stats.cycles();
            }
        }
    }
    t
}

/// The synthetic sweep: the `sweep --demo` design points on the GSM pair,
/// Realistic model, one compile per distinct schedule key (exactly what the
/// sweep executor's grouping achieves), re-simulated at every point.
fn bench_synthetic() -> StageTotals {
    let lowered = SpecFile::demo().lower().expect("demo spec lowers");
    let points = lowered.spec.expand().points;
    let mut t = StageTotals::new();
    let mut cache: HashMap<_, Prepared> = HashMap::new();
    for bench in lowered.benchmarks {
        for point in &points {
            let key = CompileCache::key_for(bench, &point.machine);
            let prepared = cache.entry(key).or_insert_with(|| {
                let variant = variant_for(&point.machine);
                let build = bench.build(variant);
                let (compiled, schedule_s) = timed(|| {
                    vmv_sched::compile(&build.program, &point.machine).expect("schedules")
                });
                let (lowered, lower_s) =
                    timed(|| vmv_sched::lower(&compiled.program, &point.machine).expect("lowers"));
                t.schedule_s += schedule_s;
                t.lower_s += lower_s;
                t.schedules += 1;
                Prepared::new(bench, variant, build, compiled, lowered)
            });
            let (outcome, sim_s) = timed(|| {
                simulate(prepared, &point.machine, MemoryModel::Realistic).expect("simulates")
            });
            assert!(outcome.check_failures.is_empty());
            t.simulate_s += sim_s;
            t.runs += 1;
            t.simulated_cycles += outcome.stats.cycles();
        }
    }
    t
}

/// `a / b`, or 0 when `b` is not positive.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Totals of the replay pass over the `latency_tolerance` sweep: counts of
/// one round, seconds as per-round means.
#[derive(Default)]
struct ReplayTotals {
    /// Fresh execution of every run.
    execute_s: f64,
    /// The share of `execute_s` spent on the runs the pass retimes (the
    /// recording runs cost the same either way, so this isolates the
    /// per-variant win).
    execute_retimed_s: f64,
    /// Recording each key's first run and building its slot analysis.
    record_s: f64,
    /// One single-variant walk per retimed run.
    serial_s: f64,
    /// One fused walk per schedule key over all of its retimed runs.
    batch_s: f64,
    runs: u64,
    recorded: u64,
    retimed: u64,
    batches: u64,
    simulated_cycles: u64,
}

impl ReplayTotals {
    /// Record-once/replay-the-rest: the recordings plus one single-variant
    /// walk per other run.
    fn replay_s(&self) -> f64 {
        self.record_s + self.serial_s
    }

    /// Speedup of record-once/replay-the-rest over re-executing every run,
    /// over the whole sweep (recording runs included).
    fn replay_speedup(&self) -> f64 {
        ratio(self.execute_s, self.replay_s())
    }

    /// Per-replayed-run speedup: a single-variant walk vs re-execution on
    /// just the retimed runs.
    fn marginal_speedup(&self) -> f64 {
        ratio(self.execute_retimed_s, self.serial_s)
    }

    /// Per-retimed-variant speedup of the fused walk over single-variant
    /// walks (both legs cover exactly the retimed runs, so the totals ratio
    /// *is* the per-variant ratio).
    fn batch_speedup(&self) -> f64 {
        ratio(self.serial_s, self.batch_s)
    }

    fn report(&self) {
        println!(
            "replay stage (latency_tolerance sweep): {} runs, {} simulated cycles",
            self.runs, self.simulated_cycles
        );
        println!(
            "  execute {:.3}s | record+replay {:.3}s ({} recorded, {} replayed) | {:.2}x speedup ({:.2}x per replayed run)",
            self.execute_s,
            self.replay_s(),
            self.recorded,
            self.retimed,
            self.replay_speedup(),
            self.marginal_speedup()
        );
    }

    fn report_batch(&self) {
        println!(
            "replay_batch stage (latency_tolerance sweep): {} recorded, {} retimed in {} batches",
            self.recorded, self.retimed, self.batches
        );
        println!(
            "  single-variant walks {:.3}s | batched replay {:.3}s | {:.2}x speedup per retimed variant",
            self.serial_s,
            self.batch_s,
            self.batch_speedup()
        );
    }

    fn json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str("replay")),
            ("runs".into(), Json::u64(self.runs)),
            ("recorded_runs".into(), Json::u64(self.recorded)),
            ("replayed_runs".into(), Json::u64(self.retimed)),
            ("simulated_cycles".into(), Json::u64(self.simulated_cycles)),
            ("execute_seconds".into(), Json::Num(self.execute_s)),
            ("replay_seconds".into(), Json::Num(self.replay_s())),
            ("speedup".into(), Json::Num(self.replay_speedup())),
            (
                "marginal_speedup".into(),
                Json::Num(self.marginal_speedup()),
            ),
        ])
    }

    fn batch_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str("replay_batch")),
            ("batches".into(), Json::u64(self.batches)),
            ("recorded_runs".into(), Json::u64(self.recorded)),
            ("retimed_runs".into(), Json::u64(self.retimed)),
            ("simulated_cycles".into(), Json::u64(self.simulated_cycles)),
            ("serial_replay_seconds".into(), Json::Num(self.serial_s)),
            ("batch_replay_seconds".into(), Json::Num(self.batch_s)),
            ("speedup".into(), Json::Num(self.batch_speedup())),
        ])
    }
}

/// Rounds per schedule key in the replay pass.  Each round runs the key's
/// legs back to back, so host drift hits them alike, and the reported
/// seconds are per-round means.
const REPLAY_ROUNDS: u32 = 3;

/// The replay pass over the committed `latency_tolerance` memory-axis
/// sweep, one schedule key at a time, in [`REPLAY_ROUNDS`] interleaved
/// rounds: execute every run fresh, record the first run with its slot
/// analysis and retime the other runs by one single-variant walk each, then
/// by one fused walk; every leg must be bit-identical to fresh execution.
fn bench_replay() -> ReplayTotals {
    let spec = SpecFile::parse(LATENCY_TOLERANCE_SPEC)
        .expect("committed spec parses")
        .lower()
        .expect("committed spec lowers");
    let points = spec.spec.expand().points;
    // Group point indices by schedule key, preserving first-seen order.
    let mut groups: Vec<(Benchmark, Vec<usize>)> = Vec::new();
    let mut index: HashMap<_, usize> = HashMap::new();
    for bench in spec.benchmarks {
        for (i, point) in points.iter().enumerate() {
            let key = CompileCache::key_for(bench, &point.machine);
            match index.get(&key) {
                Some(&g) => groups[g].1.push(i),
                None => {
                    index.insert(key, groups.len());
                    groups.push((bench, vec![i]));
                }
            }
        }
    }
    let max_cycles = SimOptions::default().max_cycles;
    let mut t = ReplayTotals::default();
    for (bench, group) in groups {
        let first = &points[group[0]];
        let prepared = prepare(bench, &first.machine).expect("prepares");
        let rest = &group[1..];
        let mut executed: Vec<RunStats> = Vec::with_capacity(group.len());
        for _ in 0..REPLAY_ROUNDS {
            // Fresh execution of every run: what each memory variant costs
            // without a trace.
            executed.clear();
            for (n, &i) in group.iter().enumerate() {
                let (outcome, execute_s) = timed(|| {
                    simulate(&prepared, &points[i].machine, points[i].model).expect("simulates")
                });
                t.execute_s += execute_s;
                if n > 0 {
                    t.execute_retimed_s += execute_s;
                }
                executed.push(outcome.stats);
            }
            // Record the first run and build the slot analysis every walk
            // reads.
            let ((recorded, trace, analysis), record_s) = timed(|| {
                let (stats, trace, _) = prepared
                    .simulator(&first.machine, first.model)
                    .run_lowered_recording(&prepared.lowered, None)
                    .expect("records");
                (stats, trace, ReplayAnalysis::build(&prepared.lowered))
            });
            assert_eq!(
                recorded,
                executed[0],
                "recording must not change the run ({} on {})",
                bench.name(),
                first.name
            );
            t.record_s += record_s;
            if rest.is_empty() {
                continue;
            }
            let state = |i: usize| {
                VariantState::new(&analysis, &points[i].machine, points[i].model, max_cycles)
            };
            let (serial, serial_s) = timed(|| {
                rest.iter()
                    .map(|&i| {
                        replay_batch(&trace, &analysis, &mut [state(i)])
                            .expect("replays")
                            .remove(0)
                    })
                    .collect::<Vec<_>>()
            });
            let (batched, batch_s) = timed(|| {
                let mut states: Vec<_> = rest.iter().map(|&i| state(i)).collect();
                replay_batch(&trace, &analysis, &mut states).expect("batch replays")
            });
            for (((executed, serial), batched), &i) in
                executed[1..].iter().zip(&serial).zip(&batched).zip(rest)
            {
                let run = || format!("{} on {}", bench.name(), points[i].name);
                assert_eq!(serial, executed, "single-variant walk ({})", run());
                assert_eq!(batched, executed, "fused walk ({})", run());
            }
            t.serial_s += serial_s;
            t.batch_s += batch_s;
        }
        t.simulated_cycles += executed.iter().map(RunStats::cycles).sum::<u64>();
        t.runs += group.len() as u64;
        t.recorded += 1;
        if !rest.is_empty() {
            t.batches += 1;
            t.retimed += rest.len() as u64;
        }
    }
    let rounds = f64::from(REPLAY_ROUNDS);
    for seconds in [
        &mut t.execute_s,
        &mut t.execute_retimed_s,
        &mut t.record_s,
        &mut t.serial_s,
        &mut t.batch_s,
    ] {
        *seconds /= rounds;
    }
    t
}

fn main() {
    let mut json_path = "BENCH_sim.json".to_string();
    let mut min_scps: Option<f64> = None;
    let mut min_replay_speedup: Option<f64> = None;
    let mut min_batch_speedup: Option<f64> = None;
    let mut repeat = 1u32;
    let mut args = vmv_bench::args::ArgStream::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = args.value("--json"),
            "--min-scps" => {
                min_scps = Some(args.parsed("--min-scps", "a throughput floor in cycles/second"))
            }
            "--min-replay-speedup" => {
                min_replay_speedup =
                    Some(args.parsed("--min-replay-speedup", "a speedup floor over re-execution"))
            }
            "--min-batch-speedup" => {
                min_batch_speedup = Some(args.parsed(
                    "--min-batch-speedup",
                    "a speedup floor over single-variant walks",
                ))
            }
            "--repeat" => {
                let n: u32 = args.parsed("--repeat", "a repeat count of at least 1");
                if n < 1 {
                    vmv_bench::args::fail("--repeat expects a repeat count of at least 1, got '0'");
                }
                repeat = n;
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other => vmv_bench::args::fail(format!("unknown argument '{other}'")),
        }
    }

    // The recorder is near-free and its compact snapshot rides along in the
    // trajectory entry, so the history says *what ran*, not just how fast.
    vmv_obs::reset();
    vmv_obs::set_enabled(true);

    // Outer repeats: run each whole workload N times and keep every
    // stage's wall-second samples, so the entry records spread (min/
    // median/max) instead of a single roll of the scheduler-noise dice.
    let mut table2_runs: Vec<(StageTotals, f64)> = Vec::new();
    let mut synthetic_runs: Vec<(StageTotals, f64)> = Vec::new();
    let mut replay_runs: Vec<ReplayTotals> = Vec::new();
    for i in 0..repeat {
        if repeat > 1 {
            println!("repeat {}/{repeat}", i + 1);
        }
        table2_runs.push(timed(bench_table2));
        synthetic_runs.push(timed(bench_synthetic));
        replay_runs.push(bench_replay());
    }
    let table2 = median_run(&table2_runs);
    let synthetic = median_run(&synthetic_runs);
    // The replay stage reports its median repeat by record+replay wall
    // time, the replay_batch stage its median repeat by batched wall time.
    let replay = median_by(&replay_runs, ReplayTotals::replay_s);
    let batch = median_by(&replay_runs, |t| t.batch_s);
    table2.report("table2 suite (10 configs x 6 benchmarks x 2 memory models)");
    synthetic.report("synthetic sweep (demo points, GSM pair, realistic model)");
    replay.report();
    batch.report_batch();
    let table2_wall = median(&walls(&table2_runs));
    let synthetic_wall = median(&walls(&synthetic_runs));

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = Json::Obj(vec![
        ("name".into(), Json::str("bench_sim")),
        ("host".into(), Json::str(host_name())),
        ("commit".into(), Json::str(commit_id())),
        ("rustc".into(), Json::str(rustc_version())),
        ("unix_time".into(), Json::u64(unix_time)),
        ("repeat".into(), Json::u64(repeat as u64)),
        ("table2_wall_seconds".into(), Json::Num(table2_wall)),
        ("synthetic_wall_seconds".into(), Json::Num(synthetic_wall)),
        ("table2".into(), workload_json("table2", &table2_runs)),
        (
            "synthetic".into(),
            workload_json("synthetic", &synthetic_runs),
        ),
        ("replay".into(), replay.json()),
        ("replay_batch".into(), batch.batch_json()),
        ("metrics".into(), vmv_obs::snapshot().to_json_compact()),
    ]);
    let entries = append_to_trajectory(&json_path, entry).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    println!("\nappended trajectory entry {entries} to {json_path}");

    if let Some(floor) = min_scps {
        let scps = synthetic.scps();
        if scps < floor {
            eprintln!(
                "FAIL: synthetic-sweep simulation throughput {scps:.0} < floor {floor:.0} \
                 simulated-cycles-per-second"
            );
            std::process::exit(1);
        }
        println!("throughput floor ok: {scps:.0} >= {floor:.0} simulated-cycles-per-second");
    }
    if let Some(floor) = min_replay_speedup {
        let speedup = replay.replay_speedup();
        if speedup < floor {
            eprintln!("FAIL: replay-stage speedup {speedup:.2}x < floor {floor:.2}x");
            std::process::exit(1);
        }
        println!("replay floor ok: {speedup:.2}x >= {floor:.2}x over re-execution");
    }
    if let Some(floor) = min_batch_speedup {
        let speedup = batch.batch_speedup();
        if speedup < floor {
            eprintln!("FAIL: replay_batch-stage speedup {speedup:.2}x < floor {floor:.2}x");
            std::process::exit(1);
        }
        println!("batch floor ok: {speedup:.2}x >= {floor:.2}x over single-variant walks");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path in the temp dir unique to this process and test.
    fn temp_path(name: &str) -> String {
        let path = std::env::temp_dir().join(format!("vmv_bench_{}_{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path.to_string_lossy().into_owned()
    }

    fn entry(n: u64) -> Json {
        Json::Obj(vec![("n".into(), Json::u64(n))])
    }

    #[test]
    fn a_tree_with_tracked_changes_is_stamped_as_such() {
        assert_eq!(commit_stamp("1416ede00831", ""), "1416ede00831");
        assert_eq!(commit_stamp("1416ede00831", "\n"), "1416ede00831");
        assert_eq!(
            commit_stamp("1416ede00831", " M crates/mem/src/cache.rs\n"),
            "1416ede00831+tree"
        );
        assert_eq!(
            commit_stamp("e63c4ab5dfad", "M  ROADMAP.md\nD  old.rs\n"),
            "e63c4ab5dfad+tree"
        );
    }

    #[test]
    fn a_missing_trajectory_starts_fresh() {
        let path = temp_path("missing.json");
        assert_eq!(append_to_trajectory(&path, entry(1)), Ok(1));
        assert_eq!(load_trajectory(&path).unwrap(), vec![entry(1)]);
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_legacy_object_becomes_the_first_entry() {
        let path = temp_path("legacy.json");
        std::fs::write(&path, entry(0).render()).unwrap();
        assert_eq!(append_to_trajectory(&path, entry(1)), Ok(2));
        assert_eq!(load_trajectory(&path).unwrap(), vec![entry(0), entry(1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_truncated_array_is_an_error_and_left_untouched() {
        let path = temp_path("truncated.json");
        append_to_trajectory(&path, entry(1)).unwrap();
        append_to_trajectory(&path, entry(2)).unwrap();
        let whole = std::fs::read_to_string(&path).unwrap();
        let torn = &whole[..whole.len() - 4];
        std::fs::write(&path, torn).unwrap();
        let err = append_to_trajectory(&path, entry(3)).unwrap_err();
        assert!(err.contains(&path), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), torn);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_non_array_value_is_an_error_and_left_untouched() {
        let path = temp_path("scalar.json");
        std::fs::write(&path, "42\n").unwrap();
        let err = append_to_trajectory(&path, entry(1)).unwrap_err();
        assert!(err.contains(&path), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "42\n");
        std::fs::remove_file(&path).unwrap();
    }
}
