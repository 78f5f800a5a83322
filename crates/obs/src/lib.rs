//! # vmv-obs — pipeline telemetry for the whole workspace
//!
//! The bottom layer of the observability stack: a process-wide [`Recorder`]
//! of named **counters**, nanosecond **histograms** (fixed log2 buckets) and
//! scoped **spans** (timer guards), designed so the rest of the workspace
//! can instrument its hot layers without paying for it when nobody is
//! looking:
//!
//! * recording is gated on one relaxed atomic enable flag — every
//!   `add`/`span` call starts with a single relaxed load and a predictable
//!   branch, so a disabled recorder costs (almost) nothing in the compile
//!   and simulate paths;
//! * the metric set is a closed enum ([`Counter`], [`SpanKind`]), so there
//!   is no registration, no hashing and no allocation on the hot path —
//!   each metric is one `AtomicU64` (or a fixed array of them) bumped with
//!   relaxed ordering;
//! * [`snapshot()`] freezes everything into a plain-data [`Snapshot`] that
//!   renders to canonical single-line JSON via the in-tree [`json`] module
//!   (which moved here from `vmv-sweep` so every crate below the sweep
//!   layer can emit telemetry; `vmv_sweep::json` re-exports it unchanged).
//!
//! The sweep executor, compile cache, list scheduler, memory hierarchy and
//! result store all report into this crate; `sweep --metrics`, the `bench`
//! trajectory entries and the future sweep service surface the snapshots.

#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod recorder;
pub mod snapshot;

pub use hist::{bucket_floor, bucket_of, HistSnapshot, BUCKETS};
pub use recorder::{
    add, enabled, incr, record_ns, record_value, reset, set_enabled, snapshot, span, worker_record,
    Counter, Recorder, SpanGuard, SpanKind, ValueHist, MAX_WORKERS,
};
pub use snapshot::{Snapshot, WorkerSnapshot};
