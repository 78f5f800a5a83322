//! Simulated results of the committed sweeps: every record the demo spec
//! and the three committed studies produce must match the committed digests,
//! at one and two workers.
//!
//! One FNV-1a digest per spec over its records in job order, one rendered
//! store record per line — the store's content without its header, so any
//! change to a statistic, an output check or the commit order shows up.
//! Schedules of one program are retimed from one recording, so this is the
//! tier-1 proof that the retiming changed no record.
//!
//! Regenerate after an intentional change to simulated results with
//! `UPDATE_GOLDENS=1 cargo test --test records_golden`.

use std::path::PathBuf;

use vector_usimd_vliw as vmv;

use vmv::sweep::{fnv1a64, run_sweep, ExecOptions, RunRecord, SpecFile};

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
        if std::env::var_os("UPDATE_GOLDENS").is_some() {
            std::fs::write(&path, &actual).expect("write golden");
            return;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden spec_records.txt ({e}) — run with UPDATE_GOLDENS=1")
        });
        assert_eq!(
            actual, expected,
            "records at {workers} worker(s) differ from tests/golden/spec_records.txt"
        );
    }
}
