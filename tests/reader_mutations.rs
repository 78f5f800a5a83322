//! Seeded mutation fuzzing of the two sweep inputs read from disk besides
//! profiles: spec files (`SpecFile::parse`, then `lower`, and `expand` for
//! the small ones) and result stores (`LoadedStore::from_text`, then the
//! report path that re-expands the spec its header carries).  Every mutant
//! must give `Ok` or a typed error, never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use vector_usimd_vliw as vmv;

use vmv::report::{pareto_report, sensitivity, LoadedStore, ResolvedStore};
use vmv::sweep::store::RunRecord;
use vmv::sweep::{run_key, SpecFile};

/// The committed specs and the demo spec, as text.
fn spec_texts() -> Vec<String> {
    vec![
        SpecFile::demo().canonical().render(),
        include_str!("../examples/specs/cache_geometry.json").to_string(),
        include_str!("../examples/specs/l1_l2_geometry.json").to_string(),
        include_str!("../examples/specs/latency_tolerance.json").to_string(),
        include_str!("../examples/specs/wider_issue.json").to_string(),
    ]
}

/// A store of the demo spec as `sweep --demo` lays it out: its header, then
/// one record per run of its first twelve points, keyed as a sweep keys
/// them (the figures are made up; no reader checks them against a run).
fn store_text() -> String {
    let spec = SpecFile::demo();
    let lowered = spec.lower().expect("the demo spec lowers");
    let mut text = format!("{}\n", spec.store_header().to_json().render());
    for (i, point) in lowered.spec.expand().points.iter().take(12).enumerate() {
        for &benchmark in &lowered.benchmarks {
            let variant = vmv::core::variant_for(&point.machine);
            let cycles = 30_000 + 97 * i as u64;
            let record = RunRecord {
                key: run_key(benchmark, variant, &point.machine, point.model),
                config: point.name.clone(),
                benchmark: benchmark.name().to_string(),
                variant: variant.name().to_string(),
                model: format!("{:?}", point.model),
                cycles,
                stall_cycles: cycles / 4,
                operations: 2 * cycles,
                micro_ops: 5 * cycles,
                vector_cycles: cycles / 3,
                check_ok: true,
            };
            text.push_str(&record.to_json().render());
            text.push('\n');
        }
    }
    text
}

/// Numbers a mutant puts in place of a number of the text: past 2^64, the
/// largest f64 below it, past i64, u32 and u8, negative and fractional.
const NUMBERS: [&str; 8] = [
    "1e30",
    "18446744073709551616",
    "18446744073709549568",
    "9223372036854775808",
    "4294967296",
    "256",
    "-1",
    "0.5",
];

/// Bytes a flip writes.
const BYTES: &[u8] = b" {}[]:,\"0123456789eE.-x\n";

/// Seeded mutants of ASCII texts (SplitMix64).
struct Mutator {
    state: u64,
}

impl Mutator {
    fn below(&mut self, n: usize) -> usize {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }

    /// Mutant `round` of `text`: a few byte flips, a truncation, a stretch
    /// spliced into another place, or a few numbers replaced by
    /// [`NUMBERS`].
    fn mutant(&mut self, text: &str, round: usize) -> String {
        assert!(text.is_ascii());
        match round % 4 {
            0 => {
                let mut v = text.as_bytes().to_vec();
                for _ in 0..1 + self.below(4) {
                    let i = self.below(v.len());
                    v[i] = BYTES[self.below(BYTES.len())];
                }
                String::from_utf8(v).expect("ASCII")
            }
            1 => text[..self.below(text.len())].to_string(),
            2 => {
                let (from, to) = (self.below(text.len()), self.below(text.len()));
                let end = (from + self.below(400)).min(text.len());
                format!("{}{}{}", &text[..to], &text[from..end], &text[to..])
            }
            _ => {
                let bytes = text.as_bytes();
                let numbers: Vec<std::ops::Range<usize>> = (1..bytes.len())
                    .filter(|&i| bytes[i].is_ascii_digit() && !bytes[i - 1].is_ascii_alphanumeric())
                    .map(|i| i..i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count())
                    .collect();
                let mut m = text.to_string();
                // Replace from the back, so earlier ranges stay in place.
                let mut picks: Vec<_> = (0..1 + self.below(3))
                    .map(|_| numbers[self.below(numbers.len())].clone())
                    .collect();
                picks.sort_by_key(|r| std::cmp::Reverse(r.start));
                picks.dedup();
                for r in picks {
                    m.replace_range(r, NUMBERS[self.below(NUMBERS.len())]);
                }
                m
            }
        }
    }
}

/// Parse, lower and, when it has at most this many raw points, expand.
const EXPAND_UP_TO: usize = 4096;

#[test]
fn mutated_specs_fail_typed_and_never_panic() {
    let texts = spec_texts();
    let mut mutator = Mutator {
        state: 0x5EC_F11E_u64,
    };
    let (mut expanded, mut lowered, mut typed) = (0, 0, 0);
    for round in 0..1500 {
        let text = &texts[round % texts.len()];
        let mutant = mutator.mutant(text, round / texts.len());
        let outcome = catch_unwind(|| match SpecFile::parse(&mutant).and_then(|s| s.lower()) {
            Ok(lowered) if lowered.spec.raw_size() <= EXPAND_UP_TO => {
                lowered.spec.expand();
                2
            }
            Ok(_) => 1,
            Err(_) => 0,
        });
        match outcome {
            Ok(2) => expanded += 1,
            Ok(1) => lowered += 1,
            Ok(_) => typed += 1,
            Err(_) => panic!("round {round}: a mutant spec panicked:\n{mutant}"),
        }
    }
    assert!(
        expanded > 50 && typed > 300,
        "{expanded} expanded, {lowered} lowered only, {typed} typed errors"
    );
}

#[test]
fn mutated_stores_load_and_never_panic() {
    let text = store_text();
    let clean = LoadedStore::from_text(&text);
    assert!(clean.diagnostics.is_empty(), "{:?}", clean.diagnostics);
    let resolved = ResolvedStore::resolve(&clean).expect("the store resolves");
    assert_eq!((resolved.records.len(), resolved.unmatched), (24, 0));

    // Each mutant loads (a store's content never fails a load), and when
    // its header survives, resolves or fails with a typed error, and the
    // reports render from what resolved.
    let mut mutator = Mutator {
        state: 0x0570_12E5_u64,
    };
    let (mut resolved, mut typed, mut skipped) = (0, 0, 0);
    for round in 0..600 {
        let mutant = mutator.mutant(&text, round);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let loaded = LoadedStore::from_text(&mutant);
            let lines = loaded.diagnostics.len();
            match ResolvedStore::resolve(&loaded) {
                Ok(r) => {
                    pareto_report(&r.points, &r.records);
                    sensitivity(&r.points, &r.records);
                    (true, lines)
                }
                Err(_) => (false, lines),
            }
        }));
        match outcome {
            Ok((ok, lines)) => {
                resolved += ok as usize;
                typed += !ok as usize;
                skipped += lines;
            }
            Err(_) => panic!("round {round}: a mutant store panicked:\n{mutant}"),
        }
    }
    assert!(
        resolved > 100 && typed > 50 && skipped > 100,
        "{resolved} resolved, {typed} typed errors, {skipped} lines skipped"
    );
}
