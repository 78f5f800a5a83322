//! Output checks shared by the timed and the traced passes: the persisted
//! record of a run, a digest over a set of records, and the re-simulation
//! of a seeded sample with `vmv_core::simulate_fresh`.

use vmv_core::{prepare, simulate_fresh, RunOutcome};
use vmv_kernels::Benchmark;
use vmv_machine::MachineConfig;
use vmv_mem::MemoryModel;
use vmv_sweep::{fnv1a64, run_key, RunRecord};

/// The store record of one run, field for field as the sweep executor
/// writes it.
pub fn record_of(machine: &MachineConfig, model: MemoryModel, outcome: &RunOutcome) -> RunRecord {
    RunRecord {
        key: run_key(outcome.benchmark, outcome.variant, machine, model),
        config: machine.name.clone(),
        benchmark: outcome.benchmark.name().to_string(),
        variant: outcome.variant.name().to_string(),
        model: format!("{model:?}"),
        cycles: outcome.stats.cycles(),
        stall_cycles: outcome.stats.total().stall_cycles,
        operations: outcome.stats.total().operations,
        micro_ops: outcome.stats.total().micro_ops,
        vector_cycles: outcome.stats.vector().cycles,
        check_ok: outcome.check_failures.is_empty(),
    }
}

/// FNV-1a digest of the records sorted by run key, one rendered record per
/// line: independent of job order and worker count, sensitive to every
/// simulated statistic the store keeps.
pub fn records_digest(records: &[RunRecord]) -> String {
    let mut sorted: Vec<&RunRecord> = records.iter().collect();
    sorted.sort_by(|a, b| a.key.cmp(&b.key));
    let mut text = String::new();
    for r in sorted {
        text.push_str(&r.to_json().render());
        text.push('\n');
    }
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// SplitMix64: the benchmark's only source of randomness, so a seed picks
/// the same sample on every host.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `k` distinct indices below `n`, in ascending order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + (self.next() % (n - i) as u64) as usize;
            idx.swap(i, j);
        }
        let mut chosen = idx[..k].to_vec();
        chosen.sort_unstable();
        chosen
    }
}

/// One run to re-simulate from scratch.
pub struct FreshCase<'a> {
    pub benchmark: Benchmark,
    pub machine: &'a MachineConfig,
    pub model: MemoryModel,
    pub expected: &'a RunRecord,
}

/// Re-simulate every case by full functional execution (fresh schedule, no
/// trace) and return one message per case whose record differs.
pub fn fresh_mismatches(cases: &[FreshCase<'_>]) -> Vec<String> {
    let mut bad = Vec::new();
    for case in cases {
        let fresh = prepare(case.benchmark, case.machine)
            .and_then(|p| simulate_fresh(&p, case.machine, case.model));
        match fresh {
            Ok(outcome) => {
                let got = record_of(case.machine, case.model, &outcome);
                if &got != case.expected {
                    bad.push(format!(
                        "{} on {}: fresh execution {:?} != recorded {:?}",
                        case.benchmark.name(),
                        case.machine.name,
                        got,
                        case.expected
                    ));
                }
            }
            Err(e) => bad.push(format!(
                "{} on {}: fresh execution failed: {e}",
                case.benchmark.name(),
                case.machine.name
            )),
        }
    }
    bad
}
