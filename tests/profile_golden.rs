//! Profiler determinism: the demo sweep run with `--profile` must
//! reproduce the committed overview/detail/Chrome-trace goldens byte for
//! byte, and turning the profiler on must never change `RunStats`.
//!
//! Regenerate after an intentional rendering change with
//! `UPDATE_GOLDENS=1 cargo test --test profile_golden`.

use std::path::{Path, PathBuf};

use vector_usimd_vliw as vmv;

use vmv::kernels::Benchmark;
use vmv::machine::all_configs;
use vmv::mem::MemoryModel;
use vmv::report::{chrome_trace, profile_detail_md, profile_overview_md};
use vmv::sweep::profiles::STALL_BASE;
use vmv::sweep::{load_all_profiles, run_sweep, ExecOptions, ProfileDoc, SpecFile};

/// Compare `actual` against the committed golden, or rewrite it when
/// `UPDATE_GOLDENS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}) — run with UPDATE_GOLDENS=1"));
    assert!(
        actual == expected,
        "{name} drifted from the committed golden — if the rendering change \
         is intentional, regenerate with `UPDATE_GOLDENS=1 cargo test --test \
         profile_golden`"
    );
}

/// Run the embedded demo spec in-process with profiling on, exactly as
/// `sweep --demo --profile DIR` does, and return the parsed documents.
fn demo_profiles(dir: &Path) -> Vec<ProfileDoc> {
    let spec = SpecFile::demo();
    let lowered = spec.lower().expect("demo spec lowers");
    let points = lowered.spec.expand().points;
    let mut opts = ExecOptions::for_spec(&lowered, 0);
    opts.profile_dir = Some(dir.to_path_buf());
    let report = run_sweep(&points, &opts, None).expect("sweep runs");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let (docs, skipped) = load_all_profiles(dir).expect("profiles load");
    assert!(skipped.is_empty(), "{skipped:?}");
    assert_eq!(docs.len(), report.records.len(), "one document per run");
    docs
}

#[test]
fn demo_profiles_match_the_committed_goldens() {
    let dir = std::env::temp_dir().join(format!("vmv_profile_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let docs = demo_profiles(&dir);
    std::fs::remove_dir_all(&dir).ok();

    // Every persisted document still satisfies the sum-exactly contract.
    for d in &docs {
        assert_eq!(d.causes.iter().sum::<u64>(), d.cycles, "run {}", d.meta.key);
        assert_eq!(
            d.causes[STALL_BASE..].iter().sum::<u64>(),
            d.stall_cycles,
            "run {}",
            d.meta.key
        );
    }

    check_golden(
        "demo_profile_overview.md",
        &profile_overview_md("demo", &docs),
    );
    // `load_all` sorts by key, so the first document is a stable pick.
    let first = &docs[0];
    check_golden("demo_profile_detail.md", &profile_detail_md(first));
    check_golden("demo_profile_trace.json", &chrome_trace(first));
}

#[test]
fn profiled_runs_return_bit_identical_stats() {
    // Seeded LCG over preset x kernel x memory picks: the profiled path
    // must be invisible in RunStats, and its attribution must sum exactly.
    let mut state: u64 = 0xDEAD_BEEF_CAFE_F00D;
    let mut next = move |m: usize| -> usize {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % m
    };
    let configs = all_configs();
    let models = [MemoryModel::Perfect, MemoryModel::Realistic];
    for _ in 0..12 {
        let machine = &configs[next(configs.len())];
        let benchmark = Benchmark::ALL[next(Benchmark::ALL.len())];
        let model = models[next(models.len())];
        let prepared = vmv::core::prepare(benchmark, machine).expect("prepare");
        let plain = vmv::core::simulate(&prepared, machine, model).expect("simulate");
        let vmv::core::ScheduleRun {
            mut outcomes,
            mut profiles,
            ..
        } = vmv::core::simulate_schedule(
            prepared.schedule(),
            &[(machine, model)],
            vmv::core::TraceFrom::FirstRun,
            true,
        )
        .expect("simulate profiled");
        let (profiled, profile) = (outcomes.remove(0), profiles.remove(0));
        assert_eq!(
            plain.stats, profiled.stats,
            "{}/{benchmark:?}/{model:?}: profiling changed RunStats",
            machine.name
        );
        profile
            .check_against(&profiled.stats)
            .unwrap_or_else(|e| panic!("{}/{benchmark:?}/{model:?}: {e}", machine.name));
    }
}
