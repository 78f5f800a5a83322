//! Round-trip guarantees of the declarative sweep API: a spec file that is
//! serialized, re-parsed and lowered must describe *exactly* the same
//! experiment — same point count, same point names, same content-derived
//! run keys — as the original, the expansions of the committed specs must
//! match their golden digests, and malformed spec files must fail with
//! actionable messages.

use vector_usimd_vliw as vmv;
use vmv::kernels::Benchmark;
use vmv::machine::IsaSupport;
use vmv::mem::MemoryModel;
use vmv::sweep::specfile::{AxisSpec, ConstraintSpec, SpecDefaults, SpecFile};
use vmv::sweep::{fnv1a64, full_fingerprint, run_key, LoweredSpec};

/// Every `(point, benchmark)` run key of a lowered spec, in job order.
fn run_keys(lowered: &LoweredSpec) -> Vec<String> {
    let points = lowered.spec.expand().points;
    points
        .iter()
        .flat_map(|p| {
            let variant = vmv::core::variant_for(&p.machine);
            lowered
                .benchmarks
                .iter()
                .map(move |&b| run_key(b, variant, &p.machine, p.model))
        })
        .collect()
}

/// The demo spec file keeps the 112 points of the sweep the
/// pre-declarative binary hardcoded (`expansions_match_the_golden_digests`
/// pins every one of them), and its run keys survive serialization.
#[test]
fn demo_spec_file_reproduces_the_legacy_hardcoded_sweep() {
    let demo = SpecFile::demo();
    let lowered = demo.lower().expect("demo spec lowers");
    assert_eq!(
        lowered.benchmarks,
        vec![Benchmark::GsmDec, Benchmark::GsmEnc]
    );
    assert_eq!(lowered.spec.expand().points.len(), 112);

    // ... and serialization round-trips preserve all of it.
    let reparsed = SpecFile::parse(&demo.canonical().render()).unwrap();
    assert_eq!(reparsed, demo);
    assert_eq!(reparsed.fingerprint(), demo.fingerprint());
    assert_eq!(run_keys(&reparsed.lower().unwrap()), run_keys(&lowered));
}

/// The committed example specs must stay parseable, non-trivial and cheap
/// enough for CI to run end-to-end.
#[test]
fn committed_example_specs_parse_and_expand() {
    for (path, min_points) in [
        ("examples/specs/latency_tolerance.json", 18),
        ("examples/specs/wider_issue.json", 10),
    ] {
        let text = std::fs::read_to_string(path).expect(path);
        let spec = SpecFile::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let lowered = spec.lower().unwrap();
        let expansion = lowered.spec.expand();
        assert!(
            expansion.points.len() >= min_points,
            "{path}: only {} points",
            expansion.points.len()
        );
        assert!(
            expansion.points.len() * lowered.benchmarks.len() <= 100,
            "{path}: too big for a CI smoke run"
        );
        // Canonicalization is whitespace-insensitive: the pretty-printed
        // committed file and its compact form describe the same experiment.
        let compact = SpecFile::parse(&spec.canonical().render()).unwrap();
        assert_eq!(compact.fingerprint(), spec.fingerprint());
    }
}

/// xorshift64* — the same seeded-PRNG idiom the other property tests use.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn pick<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
        &pool[(self.next() % pool.len() as u64) as usize]
    }
    /// 1..=max distinct values sampled from a pool.
    fn subset<T: Copy + PartialEq>(&mut self, pool: &[T], max: usize) -> Vec<T> {
        let want = 1 + (self.next() as usize) % max.min(pool.len());
        let mut out: Vec<T> = Vec::new();
        while out.len() < want {
            let v = *self.pick(pool);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

/// A random spec over every axis kind and every constraint kind.  Each
/// axis appears with probability 1/2 and at most two values, from small
/// pools, so an expansion stays cheap (a few dozen points on average).
fn random_spec(rng: &mut Rng) -> SpecFile {
    let all_axes: [fn(&mut Rng) -> AxisSpec; 17] = [
        |r| {
            AxisSpec::Isa(r.subset(
                &[IsaSupport::Vliw, IsaSupport::Usimd, IsaSupport::Vector],
                2,
            ))
        },
        |r| AxisSpec::IssueWidth(r.subset(&[2usize, 4, 8, 16], 2)),
        |r| AxisSpec::VectorUnits(r.subset(&[1usize, 2, 4], 2)),
        |r| AxisSpec::VectorLanes(r.subset(&[1u32, 2, 4, 8, 16], 2)),
        |r| AxisSpec::L2PortElems(r.subset(&[2u32, 4, 8], 2)),
        |r| AxisSpec::L1Size(r.subset(&[8 * 1024, 16 * 1024, 32 * 1024], 2)),
        |r| AxisSpec::L2Size(r.subset(&[128 * 1024, 256 * 1024], 2)),
        |r| AxisSpec::L1Assoc(r.subset(&[1usize, 2, 4], 2)),
        |r| AxisSpec::L2Assoc(r.subset(&[2usize, 4, 8], 2)),
        |r| AxisSpec::L1Line(r.subset(&[16usize, 32, 64], 2)),
        |r| AxisSpec::L2Line(r.subset(&[32usize, 64, 128], 2)),
        |r| AxisSpec::L2Banks(r.subset(&[1usize, 2, 4], 2)),
        |r| AxisSpec::L2Latency(r.subset(&[3u32, 5, 9], 2)),
        |r| AxisSpec::MemLatency(r.subset(&[100u32, 300, 500], 2)),
        |r| AxisSpec::MemoryModel(r.subset(&[MemoryModel::Perfect, MemoryModel::Realistic], 2)),
        |r| AxisSpec::Chaining(r.subset(&[true, false], 2)),
        |r| AxisSpec::Benchmarks(r.subset(&Benchmark::ALL, 3)),
    ];
    let mut axes: Vec<AxisSpec> = Vec::new();
    for draw in all_axes {
        if rng.next().is_multiple_of(2) {
            axes.push(draw(rng));
        }
    }
    let mut constraints = Vec::new();
    if rng.next().is_multiple_of(3) {
        constraints.push(ConstraintSpec::LaneBudget {
            max: *rng.pick(&[4u32, 16, 32]),
        });
    }
    if rng.next().is_multiple_of(3) {
        constraints.push(ConstraintSpec::MaxCost {
            max: *rng.pick(&[60.0, 120.5, 400.0]),
        });
    }
    if rng.next().is_multiple_of(3) {
        constraints.push(ConstraintSpec::VectorIsaOnly);
    }
    SpecFile {
        name: format!("prop_{}", rng.next() % 1000),
        axes,
        constraints,
        defaults: SpecDefaults {
            threads: (rng.next().is_multiple_of(2)).then_some((rng.next() % 8) as usize),
            shard: (rng.next().is_multiple_of(4)).then_some((0, 2)),
            out: (rng.next().is_multiple_of(2)).then(|| "prop.jsonl".to_string()),
        },
    }
}

/// Seeded property test: for 64 random spec files, canonical JSON →
/// parse → lower → expand is lossless (same canonical form, same
/// fingerprint, same point count and names), through both the compact and
/// the pretty renderer.
#[test]
fn random_specs_round_trip_losslessly() {
    let mut rng = Rng(0x5EED_CAFE_F00D_0001);
    for case in 0..64 {
        let spec = random_spec(&mut rng);
        let compact = spec.canonical().render();
        let pretty = spec.canonical().render_pretty();
        for text in [&compact, &pretty] {
            let back = SpecFile::parse(text)
                .unwrap_or_else(|e| panic!("case {case}: {e}\nspec: {compact}"));
            assert_eq!(back, spec, "case {case}");
            assert_eq!(back.canonical().render(), compact, "case {case}");
            assert_eq!(back.fingerprint(), spec.fingerprint(), "case {case}");
        }
        let original = spec.lower().unwrap();
        let reparsed = SpecFile::parse(&compact).unwrap().lower().unwrap();
        assert_eq!(reparsed.benchmarks, original.benchmarks, "case {case}");
        let a = original.spec.expand();
        let b = reparsed.spec.expand();
        assert_eq!(a.points.len(), b.points.len(), "case {case}");
        assert_eq!(a.rejected, b.rejected, "case {case}");
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.name, pb.name, "case {case}");
        }
        assert_eq!(run_keys(&original), run_keys(&reparsed), "case {case}");
    }
}

/// Golden parse errors at the public API surface: the messages a user sees
/// must name the offending construct and the accepted alternatives.
#[test]
fn malformed_spec_files_fail_with_actionable_messages() {
    let unknown_axis =
        SpecFile::parse(r#"{"axes": [{"axis": "l9_size", "values": [8]}]}"#).unwrap_err();
    assert!(unknown_axis.message.contains("unknown axis 'l9_size'"));
    assert!(
        unknown_axis.message.contains("mem_latency"),
        "should list the known axes: {}",
        unknown_axis.message
    );

    let bad_type = SpecFile::parse(r#"{"axes": [{"axis": "mem_latency", "values": [100, true]}]}"#)
        .unwrap_err();
    assert!(
        bad_type.message.contains("'mem_latency', value 2") && bad_type.message.contains("true"),
        "should pinpoint the bad value: {}",
        bad_type.message
    );

    let duplicate = SpecFile::parse(
        r#"{"axes": [{"axis": "chaining", "values": [true]},
                     {"axis": "chaining", "values": [false]}]}"#,
    )
    .unwrap_err();
    assert!(duplicate.message.contains("duplicate axis 'chaining'"));

    let bad_bench =
        SpecFile::parse(r#"{"axes": [{"axis": "benchmarks", "values": ["JPEG"]}]}"#).unwrap_err();
    assert!(
        bad_bench.message.contains("unknown benchmark") && bad_bench.message.contains("JPEG_ENC"),
        "should list the known benchmarks: {}",
        bad_bench.message
    );
}

/// The spec `specfile::tests::every_axis_variant_round_trips` builds: every
/// axis kind and every constraint kind in one file.
fn every_axis_spec() -> SpecFile {
    SpecFile {
        name: "everything".to_string(),
        axes: vec![
            AxisSpec::Isa(vec![
                IsaSupport::Vliw,
                IsaSupport::Usimd,
                IsaSupport::Vector,
            ]),
            AxisSpec::IssueWidth(vec![2, 16]),
            AxisSpec::VectorUnits(vec![1, 2]),
            AxisSpec::VectorLanes(vec![4]),
            AxisSpec::L2PortElems(vec![4, 8]),
            AxisSpec::L1Size(vec![16 * 1024]),
            AxisSpec::L2Size(vec![256 * 1024]),
            AxisSpec::L1Assoc(vec![2, 4]),
            AxisSpec::L2Assoc(vec![4]),
            AxisSpec::L1Line(vec![32]),
            AxisSpec::L2Line(vec![64, 128]),
            AxisSpec::L2Banks(vec![2, 4]),
            AxisSpec::L2Latency(vec![5, 9]),
            AxisSpec::MemLatency(vec![100]),
            AxisSpec::MemoryModel(vec![MemoryModel::Perfect, MemoryModel::Realistic]),
            AxisSpec::Chaining(vec![true, false]),
            AxisSpec::Benchmarks(Benchmark::ALL.to_vec()),
        ],
        constraints: vec![
            ConstraintSpec::LaneBudget { max: 32 },
            ConstraintSpec::MaxCost { max: 250.5 },
            ConstraintSpec::VectorIsaOnly,
        ],
        defaults: SpecDefaults::default(),
    }
}

/// `name digest` of one spec's expansion: FNV-1a over its raw, rejected and
/// duplicate counts, then one line per point with its name, labels, memory
/// model and full machine fingerprint.
fn expansion_line(spec: &SpecFile) -> String {
    let expansion = spec.lower().expect("spec lowers").spec.expand();
    let mut text = format!(
        "raw {} rejected {} duplicates {}\n",
        expansion.raw, expansion.rejected, expansion.duplicates
    );
    for p in &expansion.points {
        let labels: Vec<String> = p.labels.iter().map(|(a, l)| format!("{a}={l}")).collect();
        text.push_str(&format!(
            "{} [{}] {:?} {}\n",
            p.name,
            labels.join(","),
            p.model,
            full_fingerprint(&p.machine)
        ));
    }
    format!("{} {:016x}\n", spec.name, fnv1a64(text.as_bytes()))
}

/// Every point of the demo, the committed specs and the all-axes spec —
/// names, labels, models and machines — plus what expansion filtered, must
/// match the committed digests.  Regenerate after an intentional change to
/// the expansion with `UPDATE_GOLDENS=1 cargo test --test spec_roundtrip`.
#[test]
fn expansions_match_the_golden_digests() {
    let mut specs = vec![SpecFile::demo()];
    for rel in [
        "examples/specs/latency_tolerance.json",
        "examples/specs/cache_geometry.json",
        "examples/specs/wider_issue.json",
    ] {
        let text = std::fs::read_to_string(rel).expect(rel);
        specs.push(SpecFile::parse(&text).unwrap_or_else(|e| panic!("{rel}: {e}")));
    }
    specs.push(every_axis_spec());
    let actual: String = specs.iter().map(expansion_line).collect();

    let path = "tests/golden/spec_expansions.txt";
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden {path} ({e}) — run with UPDATE_GOLDENS=1"));
    assert_eq!(actual, expected, "spec expansions differ from {path}");
}
