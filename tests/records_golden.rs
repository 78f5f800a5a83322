//! Simulated results of the committed sweeps and of the paper's matrix:
//! every record the demo spec, the three committed studies and both memory
//! models' Table 2 `Suite`s produce must match the committed digests, at one
//! and two workers.
//!
//! One FNV-1a digest per spec (and one for the paper matrix) over its
//! records in job order, one rendered store record per line — the store's
//! content without its header, so any change to a statistic, an output
//! check or the commit order shows up.  Schedules of one program are
//! retimed from one recording, so this is the tier-1 proof that the
//! retiming changed no record.
//!
//! Regenerate after an intentional change to simulated results with
//! `UPDATE_GOLDENS=1 cargo test --test records_golden`.

use std::path::{Path, PathBuf};

use vector_usimd_vliw as vmv;

use vmv::core::Suite;
use vmv::kernels::Benchmark;
use vmv::mem::MemoryModel;
use vmv::sweep::{fnv1a64, run_key, run_sweep, ExecOptions, RunRecord, SpecFile};

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// FNV-1a over the records in job order, one rendered record per line.
fn digest(records: &[RunRecord]) -> String {
    let mut text = String::new();
    for r in records {
        text.push_str(&r.to_json().render());
        text.push('\n');
    }
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// `name digest` of one spec swept at `workers` threads.
fn spec_line(spec: &SpecFile, workers: usize) -> String {
    let lowered = spec.lower().expect("spec lowers");
    let points = lowered.spec.expand().points;
    let report = run_sweep(&points, &ExecOptions::for_spec(&lowered, workers), None)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    assert!(
        report.errors.is_empty(),
        "{}: {:?}",
        spec.name,
        report.errors
    );
    format!("{} {}", spec.name, digest(&report.records))
}

/// Compare `actual` (the text at `workers` threads) with the golden file at
/// `path`, or rewrite it under `UPDATE_GOLDENS`; `true` when rewritten.
fn check_golden(path: &Path, actual: &str, workers: usize) -> bool {
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(path, actual).expect("write golden");
        return true;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}) — run with UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "records at {workers} worker(s) differ from {}",
        path.display()
    );
    false
}

#[test]
fn committed_specs_match_the_golden_records() {
    let mut specs = vec![SpecFile::demo()];
    for rel in [
        "examples/specs/latency_tolerance.json",
        "examples/specs/cache_geometry.json",
        "examples/specs/wider_issue.json",
    ] {
        let text = std::fs::read_to_string(repo_path(rel)).expect("read spec");
        specs.push(SpecFile::parse(&text).unwrap_or_else(|e| panic!("{rel}: {e}")));
    }

    let path = repo_path("tests/golden/spec_records.txt");
    for workers in [1, 2] {
        let actual: String = specs
            .iter()
            .map(|spec| spec_line(spec, workers) + "\n")
            .collect();
        if check_golden(&path, &actual, workers) {
            return;
        }
    }
}

/// Both memory models' `Suite`s over the ten Table 2 machines, as `repro`
/// runs them: one digest over every outcome in outcome order (model, then
/// benchmark-major, then Table 2 machine order), each rendered as the store
/// record a sweep would keep for it.
#[test]
fn paper_matrix_matches_the_golden_records() {
    let machines = vmv::machine::all_configs();
    let path = repo_path("tests/golden/suite_records.txt");
    for workers in [1, 2] {
        let mut records = Vec::new();
        for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
            let suite = Suite::run_with_threads(&machines, model, workers)
                .unwrap_or_else(|e| panic!("{model:?} suite: {e}"));
            let jobs = Benchmark::ALL
                .iter()
                .flat_map(|&b| machines.iter().map(move |m| (b, m)));
            assert_eq!(suite.outcomes.len(), jobs.clone().count());
            for ((benchmark, machine), o) in jobs.zip(&suite.outcomes) {
                assert_eq!((o.benchmark, &o.config), (benchmark, &machine.name));
                records.push(RunRecord {
                    key: run_key(benchmark, o.variant, machine, model),
                    config: o.config.clone(),
                    benchmark: benchmark.name().to_string(),
                    variant: o.variant.name().to_string(),
                    model: format!("{model:?}"),
                    cycles: o.stats.cycles(),
                    stall_cycles: o.stats.total().stall_cycles,
                    operations: o.stats.total().operations,
                    micro_ops: o.stats.total().micro_ops,
                    vector_cycles: o.stats.vector().cycles,
                    check_ok: o.check_failures.is_empty(),
                });
            }
        }
        let actual = format!("table2 {}\n", digest(&records));
        if check_golden(&path, &actual, workers) {
            return;
        }
    }
}
