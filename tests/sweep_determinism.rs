//! Workspace-level determinism guarantees: the experiment driver and the
//! sweep executor must produce byte-identical, identically-ordered results
//! no matter how many worker threads run the matrix.  The nightly
//! ThreadSanitizer job runs this file, so it drives both thread pools.

use vector_usimd_vliw as vmv;
use vmv::core::Suite;
use vmv::kernels::Benchmark;
use vmv::machine::presets;
use vmv::mem::MemoryModel;
use vmv::sweep::{run_sweep, ExecOptions, ResultStore, SpecFile};

/// Reduced Table 2 matrices at 1 and N worker threads: the outcome *order*
/// (benchmark-major, then Table 2 machine index), every statistic and every
/// output check must match exactly.  The second matrix gives every ISA two
/// machines, placed apart, so each program executes on one machine and is
/// retimed on the other.
#[test]
fn suite_run_is_deterministic_across_thread_counts() {
    // Deliberately ordered so that name-ordering would differ from machine
    // indexing ("8w VLIW" sorts before "2w +uSIMD" by neither criterion).
    let one_per_isa = vec![presets::usimd(2), presets::vliw(8), presets::vector2(2)];
    let mut two_per_isa = one_per_isa.clone();
    two_per_isa.extend([presets::vliw(2), presets::usimd(8), presets::vector1(4)]);
    for machines in [one_per_isa, two_per_isa] {
        let one = Suite::run_with_threads(&machines, MemoryModel::Perfect, 1).unwrap();
        let many = Suite::run_with_threads(&machines, MemoryModel::Perfect, 4).unwrap();

        assert_eq!(one.outcomes.len(), machines.len() * Benchmark::ALL.len());
        assert_eq!(one.outcomes.len(), many.outcomes.len());
        for (a, b) in one.outcomes.iter().zip(&many.outcomes) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(a.stats, b.stats, "{} on {}", a.benchmark.name(), a.config);
            assert_eq!(a.check_failures, b.check_failures);
        }

        // Ordering contract: benchmark-major, machines in input (Table 2)
        // order.
        let expected: Vec<(Benchmark, String)> = Benchmark::ALL
            .iter()
            .flat_map(|&bench| machines.iter().map(move |m| (bench, m.name.clone())))
            .collect();
        let actual: Vec<(Benchmark, String)> = one
            .outcomes
            .iter()
            .map(|o| (o.benchmark, o.config.clone()))
            .collect();
        assert_eq!(actual, expected);
    }
}

/// The same outcomes must come out of the suite regardless of the memory
/// model plumbing — a smoke check that the deterministic ordering also
/// holds under realistic memory where run times differ wildly per job.
#[test]
fn realistic_suite_ordering_matches_perfect_suite_ordering() {
    let machines = vec![presets::vliw(2), presets::vector1(2)];
    let perfect = Suite::run_with_threads(&machines, MemoryModel::Perfect, 3).unwrap();
    let realistic = Suite::run_with_threads(&machines, MemoryModel::Realistic, 3).unwrap();
    let order = |s: &Suite| {
        s.outcomes
            .iter()
            .map(|o| (o.benchmark, o.config.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(order(&perfect), order(&realistic));
}

/// The sweep executor's one loop at one worker, two workers and more
/// workers than groups: the on-disk store (spec header line included), the
/// returned records and the compile-cache and replay accounting must not
/// depend on the worker count.  The committed `latency_tolerance` spec has
/// 12 schedule keys of 5 memory variants each over 2 programs, so each
/// program executes and records once and every other run is retimed, in
/// one batched walk per schedule key.
#[test]
fn run_sweep_store_is_byte_identical_across_worker_counts() {
    let spec = SpecFile::parse(include_str!("../examples/specs/latency_tolerance.json"))
        .expect("committed spec parses");
    let lowered = spec.lower().expect("committed spec lowers");
    let points = lowered.spec.expand().points;
    let dir = std::env::temp_dir().join(format!("vmv_sweep_determinism_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut runs = Vec::new();
    for workers in [1, 2, 64] {
        let path = dir.join(format!("workers_{workers}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let store = ResultStore::with_header(&path, spec.store_header());
        let opts = ExecOptions::for_spec(&lowered, workers);
        let report = run_sweep(&points, &opts, Some(&store)).unwrap();
        assert!(
            report.errors.is_empty(),
            "{workers} workers: {:?}",
            report.errors
        );
        runs.push((workers, std::fs::read(&path).unwrap(), report));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let (_, bytes, base) = &runs[0];
    assert_eq!(base.records.len(), 60);
    assert_eq!((base.replays, base.replay_batches), (58, 12));
    let header = String::from_utf8_lossy(bytes.split(|&b| b == b'\n').next().unwrap());
    assert!(
        header.contains(&format!("\"fingerprint\":\"{}\"", spec.fingerprint())),
        "the store opens with the spec header: {header}"
    );
    for (workers, other_bytes, report) in &runs[1..] {
        assert!(
            other_bytes == bytes,
            "store at {workers} workers differs from the 1-worker store"
        );
        assert_eq!(report.records, base.records, "{workers} workers");
        assert_eq!(report.cache, base.cache, "{workers} workers");
        assert_eq!(report.replays, base.replays, "{workers} workers");
        assert_eq!(
            report.replay_batches, base.replay_batches,
            "{workers} workers"
        );
    }
}
