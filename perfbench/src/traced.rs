//! The traced pass: one worker, re-driving the public calls `run_sweep` and
//! `Suite::run_with_threads` make, in the same order, with a span around
//! each call into a layer.  Spans (name, start, end, parent, pass id) stay
//! in memory and are written to `--spans` when the pass ends; a layer's
//! figure is the summed self time of its spans (duration minus children).
//!
//! The sweep re-drive keeps every `Prepared` and its trace alive until the
//! sweep ends, as `run_sweep`'s compile cache does; the suite re-drive drops
//! each one after its run, as `Suite` does.  Freeing earlier would hide part
//! of the cost the real call pays.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use vmv_core::{Prepared, RunOutcome, Suite};
use vmv_kernels::Benchmark;
use vmv_machine::MachineConfig;
use vmv_mem::{MemStats, MemoryModel};
use vmv_report::{html, pareto_report, sensitivity, LoadedStore, ResolvedStore};
use vmv_sweep::json::Json;
use vmv_sweep::{schedule_fingerprint, CompileCache, ResultStore, RunRecord, SpecFile};

use crate::check::{record_of, records_digest};
use crate::{num, obj, ratio, Args};

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// In-memory span recorder.
struct Spans {
    origin: Instant,
    pass: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new(pass: String) -> Spans {
        Spans {
            origin: Instant::now(),
            pass,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = Instant::now();
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let value = f();
        self.exit(id);
        value
    }

    fn secs(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start).as_secs_f64()
    }

    /// Summed self time per span name.
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child[p] += self.secs(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += self.secs(i) - child[i];
        }
        out
    }

    fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let ns = |t: Instant| Json::u64((t - self.origin).as_nanos() as u64);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let doc = obj(vec![
                ("pass", Json::str(&self.pass)),
                ("id", Json::u64(i as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", ns(s.start)),
                ("end_ns", ns(s.end)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                ),
            ]);
            out.push_str(&doc.render());
            out.push('\n');
        }
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Every counter the traced pass keeps, zero where a layer is not used.
#[derive(Default)]
struct Counts {
    cache_lookups: u64,
    cache_hits: u64,
    builds: u64,
    schedules: u64,
    executed: u64,
    executed_cycles: u64,
    batches: u64,
    retimed: u64,
    leaders: u64,
    store_records: u64,
    /// Schedule keys seen and `Prepared` values built.
    keys: u64,
    prepares: u64,
    unreplayed_traces: u64,
    memory: MemStats,
}

impl Counts {
    fn add_memory(&mut self, outcome: &RunOutcome) {
        let m = &outcome.stats.memory;
        self.memory.l1_misses += m.l1_misses;
        self.memory.l2_misses += m.l2_misses;
        self.memory.l3_misses += m.l3_misses;
        self.memory.strided_vector_accesses += m.strided_vector_accesses;
    }
}

/// Schedule one program the way `vmv_core::prepare` does, one span per layer.
fn prepare_traced(
    sp: &mut Spans,
    counts: &mut Counts,
    benchmark: Benchmark,
    machine: &MachineConfig,
) -> Result<Prepared, String> {
    let variant = vmv_core::variant_for(machine);
    let build = sp.time("kernels.build", || benchmark.build(variant));
    counts.builds += 1;
    let compiled = sp
        .time("sched.schedule", || {
            vmv_sched::compile(&build.program, machine)
        })
        .map_err(|e| format!("{}: {e}", machine.name))?;
    counts.schedules += 1;
    let lowered = sp
        .time("sched.lower", || {
            vmv_sched::lower(&compiled.program, machine)
        })
        .map_err(|e| format!("{}: {e}", machine.name))?;
    counts.prepares += 1;
    Ok(Prepared::new(benchmark, variant, build, compiled, lowered))
}

/// Tag-equivalence classes among a batch's variants: one leader walks real
/// tags per class, every other variant is echo-priced.
fn tag_classes(variants: &[(&MachineConfig, MemoryModel)]) -> u64 {
    let mut leaders: Vec<usize> = Vec::new();
    for (i, &(m, model)) in variants.iter().enumerate() {
        let joins = leaders.iter().any(|&l| {
            let (lm, lmodel) = variants[l];
            vmv_mem::tag_equivalent_configs(
                (lmodel, &lm.memory, lm.l2_port_elems),
                (model, &m.memory, m.l2_port_elems),
            )
        });
        if !joins {
            leaders.push(i);
        }
    }
    leaders.len() as u64
}

/// The per-layer metrics of one traced pass, plus what the caller checks:
/// its run phase wall time (`run_s`), runs attempted and failed, and the
/// records digest.
fn layer_json(
    sp: &Spans,
    root: usize,
    c: &Counts,
    suite_s: f64,
    run_s: f64,
    records: &[RunRecord],
) -> Json {
    let t = sp.self_times();
    let s = |name: &str| t.get(name).copied().unwrap_or(0.0);
    obj(vec![
        ("sweep.expand_s", num(s("sweep.expand"))),
        (
            "sweep.cache.hit_ratio",
            num(ratio(c.cache_hits as f64, c.cache_lookups as f64)),
        ),
        ("sweep.store.append_s", num(s("sweep.store.append"))),
        ("sweep.store.records", Json::u64(c.store_records)),
        ("kernels.build_s", num(s("kernels.build"))),
        ("kernels.builds", Json::u64(c.builds)),
        ("sched.schedule_s", num(s("sched.schedule"))),
        ("sched.schedules", Json::u64(c.schedules)),
        ("sched.lower_s", num(s("sched.lower"))),
        ("sim.execute_s", num(s("sim.execute"))),
        ("sim.executed_runs", Json::u64(c.executed)),
        (
            "sim.execute_mcycles_per_s",
            num(ratio(c.executed_cycles as f64 / 1e6, s("sim.execute"))),
        ),
        ("sim.replay_batch_s", num(s("sim.replay_batch"))),
        ("sim.replay_batches", Json::u64(c.batches)),
        ("sim.retimed_runs", Json::u64(c.retimed)),
        (
            "sim.replay_us_per_variant",
            num(ratio(s("sim.replay_batch") * 1e6, c.retimed as f64)),
        ),
        (
            "sim.mean_batch_width",
            num(ratio(c.retimed as f64, c.batches as f64)),
        ),
        ("mem.leaders", Json::u64(c.leaders)),
        (
            "mem.follower_ratio",
            num(ratio((c.retimed - c.leaders) as f64, c.retimed as f64)),
        ),
        ("mem.l1_misses", Json::u64(c.memory.l1_misses)),
        ("mem.l2_misses", Json::u64(c.memory.l2_misses)),
        ("mem.l3_misses", Json::u64(c.memory.l3_misses)),
        (
            "mem.strided_vector_accesses",
            Json::u64(c.memory.strided_vector_accesses),
        ),
        ("core.suite_s", num(suite_s)),
        (
            "core.prepare_reuse",
            num(ratio(c.keys as f64, c.prepares as f64)),
        ),
        ("core.unreplayed_traces", Json::u64(c.unreplayed_traces)),
        ("report.load_s", num(s("report.load"))),
        ("report.resolve_s", num(s("report.resolve"))),
        ("report.analyze_s", num(s("report.analyze"))),
        ("report.render_s", num(s("report.render"))),
        ("report.figures_s", num(s("report.figures"))),
        (
            "trace.unattributed_frac",
            num(ratio(s("pass"), sp.secs(root))),
        ),
        ("run_s", num(run_s)),
        ("attempted", Json::u64(records.len() as u64)),
        (
            "failed",
            Json::u64(records.iter().filter(|r| !r.check_ok).count() as u64),
        ),
        ("records_digest", Json::Str(records_digest(records))),
    ])
}

/// Traced `sweep --spec` pass at one worker.
pub fn sweep(args: &Args) -> Result<Json, String> {
    let spec_path = args.spec.as_ref().expect("checked in parse_args");
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let mut sp = Spans::new(format!("traced-{}", std::process::id()));
    let root = sp.enter("pass");
    let (lowered, points, store) = sp.time("sweep.expand", || -> Result<_, String> {
        let spec = SpecFile::parse(&text).map_err(|e| e.to_string())?;
        let lowered = spec.lower().map_err(|e| e.to_string())?;
        let points = lowered.spec.expand().points;
        Ok((
            lowered,
            points,
            ResultStore::with_header(&args.store, spec.store_header()),
        ))
    })?;
    let _ = std::fs::remove_file(&args.store);

    let run_start = Instant::now();
    let mut c = Counts::default();
    // Point-major job list, grouped by compile-cache key in first-seen
    // order: exactly the dispatch units of `run_sweep`.
    let mut jobs = Vec::new();
    for point in &points {
        for &benchmark in &lowered.benchmarks {
            jobs.push((point, benchmark));
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut index = HashMap::new();
    for (i, (point, benchmark)) in jobs.iter().enumerate() {
        let g = *index
            .entry(CompileCache::key_for(*benchmark, &point.machine))
            .or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
        groups[g].push(i);
    }
    c.keys = groups.len() as u64;
    c.cache_lookups = jobs.len() as u64;
    c.cache_hits = c.cache_lookups - c.keys;

    // Like the single-worker executor: results land in job-order slots and
    // the completed prefix is appended in batches of at least 16.
    let mut cache: Vec<Arc<Prepared>> = Vec::with_capacity(groups.len());
    let mut slots: Vec<Option<RunRecord>> = vec![None; jobs.len()];
    let mut records: Vec<RunRecord> = Vec::with_capacity(jobs.len());
    let mut committed = 0;
    for group in &groups {
        let (point, benchmark) = jobs[group[0]];
        let prepared = Arc::new(prepare_traced(&mut sp, &mut c, benchmark, &point.machine)?);
        let outcome = sp
            .time("sim.execute", || {
                vmv_core::simulate(&prepared, &point.machine, point.model)
            })
            .map_err(|e| e.to_string())?;
        c.executed += 1;
        c.executed_cycles += outcome.stats.cycles();
        c.add_memory(&outcome);
        slots[group[0]] = Some(record_of(&point.machine, point.model, &outcome));
        let rest = &group[1..];
        if rest.is_empty() {
            c.unreplayed_traces += 1;
        } else {
            let variants: Vec<_> = rest
                .iter()
                .map(|&i| (&jobs[i].0.machine, jobs[i].0.model))
                .collect();
            c.leaders += tag_classes(&variants);
            let outcomes = sp
                .time("sim.replay_batch", || {
                    vmv_core::simulate_batch(&prepared, &variants)
                })
                .map_err(|e| e.to_string())?;
            c.batches += 1;
            c.retimed += rest.len() as u64;
            for (&i, outcome) in rest.iter().zip(&outcomes) {
                c.add_memory(outcome);
                slots[i] = Some(record_of(&jobs[i].0.machine, jobs[i].0.model, outcome));
            }
        }
        cache.push(prepared);
        while records.len() < jobs.len() {
            match slots[records.len()].take() {
                Some(r) => records.push(r),
                None => break,
            }
        }
        if records.len() - committed >= 16 {
            sp.time("sweep.store.append", || store.append(&records[committed..]))
                .map_err(|e| e.to_string())?;
            committed = records.len();
        }
    }
    sp.time("sweep.store.append", || store.append(&records[committed..]))
        .map_err(|e| e.to_string())?;
    c.store_records = records.len() as u64;
    drop(cache);
    let run_s = run_start.elapsed().as_secs_f64();

    let loaded = sp
        .time("report.load", || LoadedStore::from_path(&args.store))
        .map_err(|e| e.to_string())?;
    let resolved = sp
        .time("report.resolve", || ResolvedStore::resolve(&loaded))
        .map_err(|e| e.to_string())?;
    let name = resolved.spec.name.clone();
    let (pareto, sens) = sp.time("report.analyze", || -> Result<_, String> {
        let records = resolved.filter_records(&[]).map_err(|e| e.to_string())?;
        Ok((
            pareto_report(&resolved.points, &records),
            sensitivity(&resolved.points, &records),
        ))
    })?;
    let page = sp.time("report.render", || {
        let sections = vec![
            html::pareto_section(&name, &pareto),
            html::sensitivity_section(&name, &sens),
        ];
        let subtitle = format!("spec {name} — fingerprint {}", resolved.spec.fingerprint());
        html::page(&format!("vmv observatory — {name}"), &subtitle, &sections)
    });
    std::hint::black_box(page);
    sp.exit(root);

    if let Some(path) = &args.spans {
        sp.write(path)?;
    }
    Ok(layer_json(&sp, root, &c, 0.0, run_s, &loaded.records))
}

/// Traced `repro` pass: the suite at one worker for both memory models,
/// then every table and figure.
pub fn paper(args: &Args) -> Result<Json, String> {
    let mut sp = Spans::new(format!("traced-{}", std::process::id()));
    let root = sp.enter("pass");
    let mut c = Counts::default();
    let mut records = Vec::new();
    let mut keys = HashSet::new();
    let suite_span = sp.enter("core.suite");
    let machines = vmv_machine::all_configs();
    let mut suites = Vec::new();
    for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
        let mut outcomes = Vec::new();
        for &benchmark in &Benchmark::ALL {
            for machine in &machines {
                let prepared = prepare_traced(&mut sp, &mut c, benchmark, machine)?;
                keys.insert((benchmark, schedule_fingerprint(machine)));
                let outcome = sp
                    .time("sim.execute", || {
                        vmv_core::simulate(&prepared, machine, model)
                    })
                    .map_err(|e| e.to_string())?;
                c.executed += 1;
                c.executed_cycles += outcome.stats.cycles();
                c.unreplayed_traces += 1;
                c.add_memory(&outcome);
                records.push(record_of(machine, model, &outcome));
                outcomes.push(outcome);
            }
        }
        suites.push(Suite { model, outcomes });
    }
    sp.exit(suite_span);
    let suite_s = sp.secs(suite_span);
    c.keys = keys.len() as u64;
    let text = sp.time("report.figures", || {
        vmv_bench::render_everything(&suites[0], &suites[1])
    });
    std::hint::black_box(text);
    sp.exit(root);

    if let Some(path) = &args.spans {
        sp.write(path)?;
    }
    // The suite path has no compile cache, so its hit ratio reads 0.
    Ok(layer_json(&sp, root, &c, suite_s, suite_s, &records))
}
