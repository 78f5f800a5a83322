//! # vmv-sweep — parallel design-space exploration
//!
//! The paper evaluates ten hand-picked configurations (Table 2).  This
//! crate turns the reproduction into an exploration engine:
//!
//! * [`SpecFile`] declares an experiment as data: parameter **axes**
//!   ([`AxisSpec`]) over [`vmv_machine::MachineConfig`] (ISA, issue width,
//!   vector units, lanes, port widths, cache geometry, latencies, chaining,
//!   memory model) plus named constraints ([`ConstraintSpec`]), parsed from
//!   (and canonically re-emitted to) JSON and content-hashed
//!   ([`SpecFile::fingerprint`]) — an experiment is a checked-in `.json`
//!   file, and every spec-driven result store opens with a [`StoreHeader`]
//!   line naming the spec that produced it;
//! * [`SpecFile::lower`] splits a validated spec into the benchmark subset
//!   and a [`SweepSpec`], whose [`SweepSpec::expand`] turns the cartesian
//!   product into named, deduplicated, constraint-filtered design points —
//!   structural axes go through the Table 2 scaling rules of
//!   `vmv_machine::gen`, so every point is a plausible machine;
//! * [`check_spec`] lints a spec (unsatisfiable constraints, dead or
//!   redundant values, cache geometries that cannot be built) and certifies
//!   every schedule it reaches without executing a cycle;
//! * [`run_sweep`] executes `points × benchmarks` on scoped worker threads
//!   that take whole programs (benchmark, ISA variant) from one atomic
//!   index: each program is built, analysed and **executed once**
//!   ([`vmv_core::ProgramRunner`]), its jobs are grouped by schedule key
//!   ([`CompileCache::key_for`]: benchmark, ISA variant, the machine fields
//!   the program's code can observe) so each schedule is **compiled once**
//!   and every other run of its group is retimed in one batched walk, and
//!   each schedule is freed when its group finishes;
//! * [`ResultStore`] streams each run as a JSON Line with a stable
//!   content-derived [`run_key`], so re-invocations **skip completed runs**
//!   and extend the same file; shard files from distributed sweeps union by
//!   key (`merge_from`), and `compact` drops superseded duplicates and
//!   rewrites the store sorted by key;
//! * [`pareto_report`] (cycles vs. an abstract hardware-cost model) and
//!   [`sensitivity()`] (per-axis performance swing) summarise the result set.
//!
//! ```no_run
//! use vmv_sweep::{AxisSpec, ConstraintSpec, ExecOptions, ResultStore, SpecFile};
//!
//! let spec = SpecFile {
//!     name: "lanes".to_string(),
//!     axes: vec![
//!         AxisSpec::IssueWidth(vec![2, 4]),
//!         AxisSpec::VectorLanes(vec![2, 4, 8]),
//!         AxisSpec::MemLatency(vec![100, 500]),
//!     ],
//!     constraints: vec![ConstraintSpec::LaneBudget { max: 16 }],
//!     defaults: Default::default(),
//! };
//! let lowered = spec.lower().unwrap();
//! let expansion = lowered.spec.expand();
//! let store = ResultStore::open("sweep_results.jsonl");
//! let opts = ExecOptions::for_spec(&lowered, 0);
//! let report = vmv_sweep::run_sweep(&expansion.points, &opts, Some(&store)).unwrap();
//! println!("{} runs, {} schedules", report.records.len(), report.cache.misses);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod check;
pub mod executor;
pub mod fingerprint;
pub mod pareto;
pub mod profiles;
pub mod sensitivity;
pub mod spec;
pub mod specfile;
pub mod store;

pub use cache::{CacheCounters, CompileCache};
pub use check::{check_spec, lint, SpecCheck};
pub use executor::{run_sweep, ExecOptions, SweepReport};
pub use fingerprint::{fnv1a64, full_fingerprint, schedule_fingerprint};
// The hand-rolled JSON module moved down to `vmv-obs` (telemetry snapshots
// need it below the sweep layer); re-export it so every existing
// `vmv_sweep::json::...` path keeps working unchanged.
pub use pareto::{frontier_indices, hardware_cost, pareto_report, render_pareto, ParetoEntry};
pub use profiles::{
    default_dir as default_profile_dir, load_all as load_all_profiles, load_profile, parse_profile,
    profile_json, write_profile, DocBlock, DocBundle, DocEvent, DocOp, DocRegion, ProfileDoc,
    ProfileMeta, PROFILE_SCHEMA,
};
pub use sensitivity::{render_sensitivity, sensitivity, AxisSensitivity};
pub use spec::{parse_shard, shard_points, Expansion, SweepPoint, SweepSpec};
pub use specfile::{AxisSpec, ConstraintSpec, LoweredSpec, SpecDefaults, SpecError, SpecFile};
pub use store::{
    classify_store_line, matched_records, point_key_index, run_key, CompactStats, MergeStats,
    ResultStore, RunRecord, StoreHeader, StoreLine,
};
pub use vmv_obs::json;
pub use vmv_obs::json::{Json, JsonError};
