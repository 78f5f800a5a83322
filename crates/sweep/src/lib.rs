//! # vmv-sweep — parallel design-space exploration
//!
//! The paper evaluates ten hand-picked configurations (Table 2).  This
//! crate turns the reproduction into an exploration engine:
//!
//! * [`SweepSpec`] declares parameter **axes** over
//!   [`vmv_machine::MachineConfig`] (issue width, vector units, lanes, port
//!   widths, cache geometry, latencies, chaining, memory model) plus
//!   constraint predicates, and expands the cartesian product into named,
//!   deduplicated design points — structural axes go through the Table 2
//!   scaling rules of `vmv_machine::gen`, so every point is a plausible
//!   machine;
//! * [`SpecFile`] is the **declarative** form of the same thing: axes
//!   ([`AxisSpec`]) and constraints ([`ConstraintSpec`]) as serializable
//!   values, parsed from (and canonically re-emitted to) JSON, content-
//!   hashed ([`SpecFile::fingerprint`]) and lowered onto the closure
//!   machinery — an experiment is a checked-in `.json` file, and every
//!   spec-driven result store opens with a [`StoreHeader`] line naming the
//!   spec that produced it;
//! * [`run_sweep`] executes `points × benchmarks` on a work-stealing thread
//!   pool, grouping jobs by schedule key ([`CompileCache::key_for`]:
//!   benchmark, ISA variant, schedule-relevant machine fields) so each
//!   program is **scheduled once**, re-simulated across every memory
//!   variation of its group, and freed when the group finishes;
//! * [`ResultStore`] streams each run as a JSON Line with a stable
//!   content-derived [`run_key`], so re-invocations **skip completed runs**
//!   and extend the same file; shard files from distributed sweeps union by
//!   key (`merge_from`), and `compact` drops superseded duplicates and
//!   rewrites the store sorted by key;
//! * [`pareto_report`] (cycles vs. an abstract hardware-cost model) and
//!   [`sensitivity`] (per-axis performance swing) summarise the result set.
//!
//! ```no_run
//! use vmv_sweep::{Axis, ExecOptions, ResultStore, SweepSpec};
//!
//! let expansion = SweepSpec::new()
//!     .axis(Axis::issue_width(&[2, 4]))
//!     .axis(Axis::vector_lanes(&[2, 4, 8]))
//!     .axis(Axis::mem_latency(&[100, 500]))
//!     .constraint("lanes fit the port", |m, _| m.vector_lanes >= m.l2_port_elems / 2)
//!     .expand();
//! let store = ResultStore::open("sweep_results.jsonl");
//! let report =
//!     vmv_sweep::run_sweep(&expansion.points, &ExecOptions::default(), Some(&store)).unwrap();
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
pub use spec::{
    parse_shard, shard_points, Axis, AxisValue, Draft, Expansion, SweepPoint, SweepSpec,
};
pub use specfile::{AxisSpec, ConstraintSpec, LoweredSpec, SpecDefaults, SpecError, SpecFile};
pub use store::{
    classify_store_line, matched_records, point_key_index, run_key, CompactStats, MergeStats,
    ResultStore, RunRecord, StoreHeader, StoreLine,
};
pub use vmv_obs::json;
pub use vmv_obs::json::{Json, JsonError};
