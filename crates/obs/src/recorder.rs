//! The process-wide recorder: one static registry of counters, span
//! histograms and per-worker totals, gated on a relaxed atomic enable flag.
//!
//! Everything is a fixed-size `AtomicU64` array indexed by a closed enum,
//! so the hot path never allocates, hashes or locks.  When the recorder is
//! disabled (the default) every entry point reduces to one relaxed load
//! and a branch; the instrumented layers (scheduler, memory hierarchy,
//! sweep executor, store) therefore cost nothing measurable in ordinary
//! runs — the acceptance bar the `bench` trajectory enforces.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::hist::AtomicHist;
use crate::snapshot::{Snapshot, WorkerSnapshot};

/// Every counter the instrumented pipeline can bump.  Names (see
/// [`Counter::name`]) are the JSON snapshot keys — stable, snake_case,
/// prefixed by the owning layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Sweep jobs served by their group's schedule (K − 1 per group of K).
    CacheHits,
    /// Schedules a sweep ran: one per schedule-key group.
    CacheMisses,
    /// Basic blocks list-scheduled.
    SchedBlocks,
    /// Ready-scan iterations of the list scheduler's cycle loop (the known
    /// top cost of the compile stage).
    SchedReadyScans,
    /// Operations placed into bundles.
    SchedOpsPlaced,
    /// Issue cycles produced (bundle slots, including empty ones).
    SchedCyclesScheduled,
    /// Completed simulator runs (lowered engine).
    SimRuns,
    /// Timing traces recorded by an execute-and-record run.
    TraceRecords,
    /// Completed trace-replay runs (retimed without functional execution).
    TraceReplays,
    /// Batched replay walks (one walk retiming one or more variants; the
    /// per-variant runs land in `TraceReplays`).
    ReplayBatches,
    /// Batched replay walks priced from the recording's own latencies
    /// instead of a class tree: every variant had the recorded memory
    /// configuration and the schedule the recorded memory issue order.
    ReplayRecordedWalks,
    /// Scalar loads/stores and vector loads/stores timed by the hierarchy.
    MemScalarLoads,
    MemScalarStores,
    MemVectorLoads,
    MemVectorStores,
    /// Per-level hit/miss counts.
    MemL1Hits,
    MemL1Misses,
    MemL2Hits,
    MemL2Misses,
    MemL3Hits,
    MemL3Misses,
    /// L1 lines invalidated by vector writes (inclusion coherence).
    MemCoherenceInvalidations,
    /// Batched-walk L2/L3 backs built to serve a group of more than one
    /// tag class (classes that differ only in L2 size and associativity),
    /// and how many of them split into one back per class when some
    /// class's L2 would evict.  Recorded once per walk.
    MemSharedBacks,
    MemBackSplits,
    /// Result-store records appended (persisted runs).
    StoreRecordsAppended,
    /// Store lines skipped, by class.
    StoreLinesMalformed,
    StoreLinesUnrecognized,
    StoreDuplicateKeys,
    StoreMidfileHeaders,
    /// Sweep executor job outcomes.
    SweepJobsCompleted,
    SweepJobsFailed,
    SweepJobsSkipped,
    /// Completed static-verifier certifications (`vmv_verify::verify_compiled`).
    VerifyChecks,
    /// Cycle-attribution profiles produced (one per profiled run, across
    /// all three engines; a profiled batch contributes K).
    ProfileRuns,
    /// Attributed stall cycles, by cause class, summed over every profile
    /// produced.  The six causes partition each profile's `stall_cycles`
    /// exactly, so these counters sum to the total stall cycles of every
    /// profiled run.
    ProfileStallRaw,
    ProfileStallWaitL1,
    ProfileStallWaitL2,
    ProfileStallWaitL3,
    ProfileStallWaitMem,
    ProfileStallL2Port,
    /// Spans entered (== histogram samples recorded via guards).  Exactly 0
    /// while the recorder is disabled — the overhead regression test keys
    /// on this.
    SpansEntered,
}

impl Counter {
    pub const ALL: [Counter; 41] = [
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::SchedBlocks,
        Counter::SchedReadyScans,
        Counter::SchedOpsPlaced,
        Counter::SchedCyclesScheduled,
        Counter::SimRuns,
        Counter::TraceRecords,
        Counter::TraceReplays,
        Counter::ReplayBatches,
        Counter::ReplayRecordedWalks,
        Counter::MemScalarLoads,
        Counter::MemScalarStores,
        Counter::MemVectorLoads,
        Counter::MemVectorStores,
        Counter::MemL1Hits,
        Counter::MemL1Misses,
        Counter::MemL2Hits,
        Counter::MemL2Misses,
        Counter::MemL3Hits,
        Counter::MemL3Misses,
        Counter::MemCoherenceInvalidations,
        Counter::MemSharedBacks,
        Counter::MemBackSplits,
        Counter::StoreRecordsAppended,
        Counter::StoreLinesMalformed,
        Counter::StoreLinesUnrecognized,
        Counter::StoreDuplicateKeys,
        Counter::StoreMidfileHeaders,
        Counter::SweepJobsCompleted,
        Counter::SweepJobsFailed,
        Counter::SweepJobsSkipped,
        Counter::VerifyChecks,
        Counter::ProfileRuns,
        Counter::ProfileStallRaw,
        Counter::ProfileStallWaitL1,
        Counter::ProfileStallWaitL2,
        Counter::ProfileStallWaitL3,
        Counter::ProfileStallWaitMem,
        Counter::ProfileStallL2Port,
        Counter::SpansEntered,
    ];

    /// Stable snapshot key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::SchedBlocks => "sched_blocks",
            Counter::SchedReadyScans => "sched_ready_scans",
            Counter::SchedOpsPlaced => "sched_ops_placed",
            Counter::SchedCyclesScheduled => "sched_cycles_scheduled",
            Counter::SimRuns => "sim_runs",
            Counter::TraceRecords => "trace_records",
            Counter::TraceReplays => "trace_replays",
            Counter::ReplayBatches => "replay_batches",
            Counter::ReplayRecordedWalks => "replay_recorded_walks",
            Counter::MemScalarLoads => "mem_scalar_loads",
            Counter::MemScalarStores => "mem_scalar_stores",
            Counter::MemVectorLoads => "mem_vector_loads",
            Counter::MemVectorStores => "mem_vector_stores",
            Counter::MemL1Hits => "mem_l1_hits",
            Counter::MemL1Misses => "mem_l1_misses",
            Counter::MemL2Hits => "mem_l2_hits",
            Counter::MemL2Misses => "mem_l2_misses",
            Counter::MemL3Hits => "mem_l3_hits",
            Counter::MemL3Misses => "mem_l3_misses",
            Counter::MemCoherenceInvalidations => "mem_coherence_invalidations",
            Counter::MemSharedBacks => "mem_shared_backs",
            Counter::MemBackSplits => "mem_back_splits",
            Counter::StoreRecordsAppended => "store_records_appended",
            Counter::StoreLinesMalformed => "store_lines_malformed",
            Counter::StoreLinesUnrecognized => "store_lines_unrecognized",
            Counter::StoreDuplicateKeys => "store_duplicate_keys",
            Counter::StoreMidfileHeaders => "store_midfile_headers",
            Counter::SweepJobsCompleted => "sweep_jobs_completed",
            Counter::SweepJobsFailed => "sweep_jobs_failed",
            Counter::SweepJobsSkipped => "sweep_jobs_skipped",
            Counter::VerifyChecks => "verify_checks",
            Counter::ProfileRuns => "profile_runs",
            Counter::ProfileStallRaw => "profile_stall_raw",
            Counter::ProfileStallWaitL1 => "profile_stall_wait_l1",
            Counter::ProfileStallWaitL2 => "profile_stall_wait_l2",
            Counter::ProfileStallWaitL3 => "profile_stall_wait_l3",
            Counter::ProfileStallWaitMem => "profile_stall_wait_mem",
            Counter::ProfileStallL2Port => "profile_stall_l2_port",
            Counter::SpansEntered => "spans_entered",
        }
    }
}

/// Timed scopes recorded into nanosecond histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanKind {
    /// Time a sweep job waited between job-list creation and pickup.
    JobQueueWait,
    /// Time a sweep group spent compiling its one program (build,
    /// schedule, lower, and certify when enabled): one span per group.
    JobCompile,
    /// Time a sweep job spent simulating.
    JobSimulate,
    /// Time spent appending a batch to the result store.
    StoreAppend,
    /// Time spent in one batched replay walk (all variants together).
    ReplayBatch,
}

impl SpanKind {
    pub const ALL: [SpanKind; 5] = [
        SpanKind::JobQueueWait,
        SpanKind::JobCompile,
        SpanKind::JobSimulate,
        SpanKind::StoreAppend,
        SpanKind::ReplayBatch,
    ];

    /// Stable snapshot key (histogram values are nanoseconds).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::JobQueueWait => "job_queue_wait_ns",
            SpanKind::JobCompile => "job_compile_ns",
            SpanKind::JobSimulate => "job_simulate_ns",
            SpanKind::StoreAppend => "store_append_ns",
            SpanKind::ReplayBatch => "replay_batch_ns",
        }
    }
}

/// Plain value histograms (log2 buckets over dimensionless samples, unlike
/// the nanosecond span histograms).  Rendered under the snapshot's `hists`
/// section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ValueHist {
    /// Number of variants retimed per batched replay walk.
    ReplayBatchWidth,
}

impl ValueHist {
    pub const ALL: [ValueHist; 1] = [ValueHist::ReplayBatchWidth];

    /// Stable snapshot key.
    pub fn name(self) -> &'static str {
        match self {
            ValueHist::ReplayBatchWidth => "replay_batch_width",
        }
    }
}

/// Upper bound on per-worker slots tracked (the executor caps its pool at
/// 16; 32 leaves headroom for explicit `--threads`).
pub const MAX_WORKERS: usize = 32;

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const HIST: AtomicHist = AtomicHist::new();

/// The registry behind the free functions.  Public so tests (or a future
/// multi-tenant service) can run private instances; ordinary code uses the
/// process-wide one via [`add`]/[`span`]/[`snapshot`].
pub struct Recorder {
    enabled: AtomicBool,
    counters: [AtomicU64; Counter::ALL.len()],
    spans: [AtomicHist; SpanKind::ALL.len()],
    hists: [AtomicHist; ValueHist::ALL.len()],
    worker_jobs: [AtomicU64; MAX_WORKERS],
    worker_busy_ns: [AtomicU64; MAX_WORKERS],
}

impl Recorder {
    pub const fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(false),
            counters: [ZERO; Counter::ALL.len()],
            spans: [HIST; SpanKind::ALL.len()],
            hists: [HIST; ValueHist::ALL.len()],
            worker_jobs: [ZERO; MAX_WORKERS],
            worker_busy_ns: [ZERO; MAX_WORKERS],
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if self.enabled() {
            self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Record one span sample of `ns` nanoseconds.
    pub fn record_ns(&self, s: SpanKind, ns: u64) {
        if self.enabled() {
            self.spans[s as usize].record(ns);
            self.counters[Counter::SpansEntered as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one sample into a plain value histogram.
    #[inline]
    pub fn record_value(&self, h: ValueHist, v: u64) {
        if self.enabled() {
            self.hists[h as usize].record(v);
        }
    }

    /// Enter a timed scope; the guard records its elapsed time on drop.
    /// When the recorder is disabled at entry, the guard is inert (no
    /// clock read at all).
    pub fn span(&self, kind: SpanKind) -> SpanGuard<'_> {
        SpanGuard {
            recorder: self,
            kind,
            start: self.enabled().then(Instant::now),
        }
    }

    /// Fold one worker's lifetime totals in (called once per worker at
    /// pool exit, so this is never on the hot path).
    pub fn worker_record(&self, worker: usize, jobs: u64, busy_ns: u64) {
        if self.enabled() && worker < MAX_WORKERS {
            self.worker_jobs[worker].fetch_add(jobs, Ordering::Relaxed);
            self.worker_busy_ns[worker].fetch_add(busy_ns, Ordering::Relaxed);
        }
    }

    /// Freeze the current state (counters in declaration order, every
    /// span histogram, workers with any activity).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            enabled: self.enabled(),
            counters: Counter::ALL
                .iter()
                .map(|&c| {
                    (
                        c.name().to_string(),
                        self.counters[c as usize].load(Ordering::Relaxed),
                    )
                })
                .collect(),
            spans: SpanKind::ALL
                .iter()
                .map(|&s| (s.name().to_string(), self.spans[s as usize].snapshot()))
                .collect(),
            hists: ValueHist::ALL
                .iter()
                .map(|&h| (h.name().to_string(), self.hists[h as usize].snapshot()))
                .collect(),
            workers: (0..MAX_WORKERS)
                .filter_map(|w| {
                    let jobs = self.worker_jobs[w].load(Ordering::Relaxed);
                    let busy_ns = self.worker_busy_ns[w].load(Ordering::Relaxed);
                    (jobs > 0 || busy_ns > 0).then_some(WorkerSnapshot {
                        worker: w,
                        jobs,
                        busy_ns,
                    })
                })
                .collect(),
        }
    }

    /// Zero every metric (the enable flag is left as is).
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for s in &self.spans {
            s.reset();
        }
        for h in &self.hists {
            h.reset();
        }
        for w in 0..MAX_WORKERS {
            self.worker_jobs[w].store(0, Ordering::Relaxed);
            self.worker_busy_ns[w].store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// A scoped timer: records the elapsed nanoseconds into its span's
/// histogram when dropped.  Inert (and free) when the recorder was
/// disabled at entry.
pub struct SpanGuard<'r> {
    recorder: &'r Recorder,
    kind: SpanKind,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.recorder
                .record_ns(self.kind, start.elapsed().as_nanos() as u64);
        }
    }
}

/// The process-wide recorder instance.
static GLOBAL: Recorder = Recorder::new();

/// Whether the process-wide recorder is collecting.
#[inline]
pub fn enabled() -> bool {
    GLOBAL.enabled()
}

/// Turn process-wide collection on or off.
pub fn set_enabled(on: bool) {
    GLOBAL.set_enabled(on);
}

/// Add `n` to a counter (no-op while disabled).
#[inline]
pub fn add(c: Counter, n: u64) {
    GLOBAL.add(c, n);
}

/// Increment a counter by one (no-op while disabled).
#[inline]
pub fn incr(c: Counter) {
    GLOBAL.incr(c);
}

/// Record one span sample directly (no-op while disabled).
#[inline]
pub fn record_ns(s: SpanKind, ns: u64) {
    GLOBAL.record_ns(s, ns);
}

/// Record one value-histogram sample (no-op while disabled).
#[inline]
pub fn record_value(h: ValueHist, v: u64) {
    GLOBAL.record_value(h, v);
}

/// Enter a timed scope on the process-wide recorder.
pub fn span(kind: SpanKind) -> SpanGuard<'static> {
    GLOBAL.span(kind)
}

/// Fold one worker's totals into the process-wide recorder.
pub fn worker_record(worker: usize, jobs: u64, busy_ns: u64) {
    GLOBAL.worker_record(worker, jobs, busy_ns);
}

/// Snapshot the process-wide recorder.
pub fn snapshot() -> Snapshot {
    GLOBAL.snapshot()
}

/// Zero the process-wide recorder's metrics.
pub fn reset() {
    GLOBAL.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing_and_enters_no_spans() {
        let r = Recorder::new();
        r.add(Counter::CacheHits, 5);
        r.record_ns(SpanKind::JobCompile, 100);
        drop(r.span(SpanKind::JobSimulate));
        r.record_value(ValueHist::ReplayBatchWidth, 7);
        r.worker_record(0, 3, 999);
        let s = r.snapshot();
        assert!(!s.enabled);
        assert!(s.counters.iter().all(|(_, v)| *v == 0));
        assert_eq!(s.counter("spans_entered"), Some(0));
        assert!(s.spans.iter().all(|(_, h)| h.count == 0));
        assert!(s.hists.iter().all(|(_, h)| h.count == 0));
        assert!(s.workers.is_empty());
    }

    #[test]
    fn enabled_recorder_counts_spans_and_workers() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.incr(Counter::CacheMisses);
        r.add(Counter::SchedReadyScans, 41);
        r.add(Counter::SchedReadyScans, 1);
        {
            let _g = r.span(SpanKind::JobSimulate);
        }
        r.record_ns(SpanKind::JobQueueWait, 1000);
        r.worker_record(2, 7, 12345);
        let s = r.snapshot();
        assert_eq!(s.counter("cache_misses"), Some(1));
        assert_eq!(s.counter("sched_ready_scans"), Some(42));
        assert_eq!(s.counter("spans_entered"), Some(2));
        assert_eq!(s.span("job_simulate_ns").unwrap().count, 1);
        assert_eq!(s.span("job_queue_wait_ns").unwrap().sum, 1000);
        assert_eq!(
            s.workers,
            vec![WorkerSnapshot {
                worker: 2,
                jobs: 7,
                busy_ns: 12345
            }]
        );

        r.reset();
        let s = r.snapshot();
        assert!(s.counters.iter().all(|(_, v)| *v == 0));
        assert!(s.workers.is_empty());
        assert!(s.enabled, "reset leaves the enable flag alone");
    }

    #[test]
    fn guard_taken_while_disabled_stays_inert_across_an_enable() {
        let r = Recorder::new();
        let g = r.span(SpanKind::JobCompile);
        r.set_enabled(true);
        drop(g);
        assert_eq!(r.snapshot().span("job_compile_ns").unwrap().count, 0);
    }

    #[test]
    fn counter_names_are_unique_and_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            assert!(seen.insert(c.name()), "duplicate counter name {}", c.name());
            assert!(
                c.name()
                    .chars()
                    .all(|ch| ch.is_ascii_lowercase() || ch == '_' || ch.is_ascii_digit()),
                "{}",
                c.name()
            );
        }
        for s in SpanKind::ALL {
            assert!(seen.insert(s.name()), "span name collides: {}", s.name());
            assert!(s.name().ends_with("_ns"), "{}", s.name());
        }
        for h in ValueHist::ALL {
            assert!(seen.insert(h.name()), "hist name collides: {}", h.name());
            assert!(
                !h.name().ends_with("_ns"),
                "value hists are dimensionless: {}",
                h.name()
            );
        }
    }

    #[test]
    fn value_hists_record_and_reset() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.record_value(ValueHist::ReplayBatchWidth, 4);
        r.record_value(ValueHist::ReplayBatchWidth, 4);
        r.record_value(ValueHist::ReplayBatchWidth, 8);
        let s = r.snapshot();
        let h = s.hist("replay_batch_width").unwrap();
        assert_eq!((h.count, h.sum), (3, 16));
        // Value samples are not spans: the span-entry counter stays put.
        assert_eq!(s.counter("spans_entered"), Some(0));
        r.reset();
        assert_eq!(r.snapshot().hist("replay_batch_width").unwrap().count, 0);
    }

    #[test]
    fn out_of_range_worker_indices_are_ignored() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.worker_record(MAX_WORKERS, 1, 1);
        assert!(r.snapshot().workers.is_empty());
    }
}
