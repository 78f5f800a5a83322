//! Schedule identity: every compile the paper's evaluation and the committed
//! studies perform must produce byte-identical schedules (register
//! allocation included) to the committed digests.
//!
//! One FNV-1a digest of `ScheduledProgram::dump()` per compile, over the ten
//! Table 2 presets × six kernels and every distinct schedule key of
//! `examples/specs/latency_tolerance.json` (chaining on and off) and
//! `examples/specs/wider_issue.json` (2- to 16-wide).
//!
//! Regenerate after an intentional scheduling change with
//! `UPDATE_GOLDENS=1 cargo test --test schedule_golden`.

use std::collections::HashSet;
use std::path::PathBuf;

use vector_usimd_vliw as vmv;

use vmv::kernels::Benchmark;
use vmv::machine::{all_configs, MachineConfig};
use vmv::sweep::{fnv1a64, CompileCache, SpecFile};

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// `label digest` for one compile of `benchmark` on `machine`.
fn digest_line(label: &str, benchmark: Benchmark, machine: &MachineConfig) -> String {
    let build = benchmark.build(vmv::core::variant_for(machine));
    let compiled =
        vmv::sched::compile(&build.program, machine).unwrap_or_else(|e| panic!("{label}: {e}"));
    format!(
        "{label} {:016x}",
        fnv1a64(compiled.program.dump().as_bytes())
    )
}

/// One line per distinct schedule key of a committed spec, in job order,
/// labelled by the first point that reaches the key.
fn spec_lines(rel: &str, out: &mut Vec<String>) {
    let text = std::fs::read_to_string(repo_path(rel)).expect("read spec");
    let spec = SpecFile::parse(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
    let lowered = spec.lower().expect("spec lowers");
    let mut seen = HashSet::new();
    for point in &lowered.spec.expand().points {
        for &benchmark in &lowered.benchmarks {
            if seen.insert(CompileCache::key_for(benchmark, &point.machine)) {
                let label = format!("{} {} {}", spec.name, point.name, benchmark.name());
                out.push(digest_line(&label, benchmark, &point.machine));
            }
        }
    }
}

#[test]
fn schedules_match_the_committed_digests() {
    let mut lines = Vec::new();
    for machine in all_configs() {
        for &benchmark in Benchmark::ALL.iter() {
            let label = format!("table2 {} {}", machine.name, benchmark.name());
            lines.push(digest_line(&label, benchmark, &machine));
        }
    }
    spec_lines("examples/specs/latency_tolerance.json", &mut lines);
    spec_lines("examples/specs/wider_issue.json", &mut lines);
    let actual = lines.join("\n") + "\n";

    let path = repo_path("tests/golden/schedule_digests.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden schedule_digests.txt ({e}) — run with UPDATE_GOLDENS=1")
    });
    let drifted: Vec<_> = actual
        .lines()
        .zip(expected.lines())
        .filter(|(a, e)| a != e)
        .collect();
    assert!(
        actual == expected,
        "{} schedule(s) drifted from tests/golden/schedule_digests.txt (first: {:?}) — \
         if the scheduling change is intentional, regenerate with \
         `UPDATE_GOLDENS=1 cargo test --test schedule_golden`",
        drifted.len(),
        drifted.first()
    );
}
