//! # vmv-report — analysis & reporting over sweep result stores
//!
//! `vmv-sweep` produces self-describing JSONL result stores: a spec-header
//! line naming the experiment, then one run record per line.  This crate is
//! the consumer side — it turns a store file into a human- or CI-readable
//! artifact without needing the spec file that produced it:
//!
//! * [`LoadedStore`] — a header-aware loader for headered *and* legacy
//!   headerless stores, with line-numbered diagnostics for malformed lines,
//!   mid-file headers (`cat`-merged shards), duplicate keys and records
//!   naming unknown benchmarks or ISA variants;
//! * [`ResolvedStore`] — the query layer: the spec recovered from the
//!   header is re-expanded into design points, every record is decoded back
//!   to its point and benchmark by content-derived run key, and records can
//!   be filtered ([`Filter`]) or grouped ([`ResolvedStore::group_by`]) over
//!   the swept axes;
//! * analysis passes — the Pareto frontier and per-axis sensitivity are
//!   re-exported from `vmv_sweep` (one implementation, two front ends), and
//!   [`compare()`] joins two stores by run key into a Table-2-style
//!   baseline-vs-variant view with a CI regression gate;
//! * renderers — canonical Markdown tables ([`markdown`]) and standalone
//!   SVG scatter/bar charts ([`svg`]), both dependency-free and
//!   byte-deterministic so golden files can be committed.
//!
//! * the observatory — [`trend`] tracks one fingerprint across N stores
//!   (and the committed `BENCH_sim.json` trajectory) as a time series,
//!   [`diffspec`] names the axis values two store headers don't share, and
//!   [`html`] bundles every analysis into one self-contained static page;
//!
//! * the profiler view — [`profile`] renders the `vmv-profile/1` documents
//!   a profiled sweep writes next to its store: worst-stall-first Markdown
//!   tables, a Perfetto-loadable Chrome trace-event timeline, and the
//!   stacked-bar Profile section of the HTML page.
//!
//! The `report` binary in `vmv-bench` wires these into
//! `report pareto|sensitivity|compare|trend|diff-specs|html|profile`.

#![forbid(unsafe_code)]

pub mod compare;
pub mod diffspec;
pub mod html;
pub mod loader;
pub mod markdown;
pub mod profile;
pub mod resolve;
pub mod svg;
pub mod trend;

pub use compare::{compare, geomean, CompareReport, CompareRow};
pub use diffspec::{diff_specs, diff_specs_md, AxisDiff, SpecDiff};
pub use loader::{LoadedStore, StoreDiagnostic};
pub use profile::{
    chrome_trace, profile_detail_md, profile_overview_md, stall_stacked_svg, stalls_by_benchmark,
};
pub use resolve::{
    is_record_field, parse_filter, record_field, Filter, ReportError, ResolvedStore,
};
pub use trend::{
    bench_trend_md, bench_trend_svg, parse_trajectory, store_trend, trend_md, trend_svg,
    BenchPoint, StoreTrend, TrendRow,
};
// The analysis passes live in vmv-sweep (the sweep driver prints them too);
// re-export them so report consumers need only this crate.
pub use vmv_sweep::{
    frontier_indices, hardware_cost, pareto_report, sensitivity, AxisSensitivity, ParetoEntry,
};
