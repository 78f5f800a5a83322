//! The trace-replay engine: retime a recorded execution against fresh
//! memory hierarchies, without functional execution.
//!
//! [`replay_batch`] is the workspace's *third* engine.  It walks the
//! recorded block sequence of a [`Trace`] over the static
//! [`LoweredProgram`] once and advances K independent timing states in
//! lockstep — one [`VariantState`] (memory model + machine memory
//! parameters) per variant, scoreboard and clocks in struct-of-arrays
//! layout — re-deriving the scoreboard / stall / L2-port timing exactly as
//! [`crate::Simulator::run_lowered`] does, but feeding each hierarchy the
//! *recorded* `MemAccess` stream instead of executing operations — no
//! `exec_core`, no `RegFiles`, no `MemImage` allocation.  A memory-axis
//! sweep therefore pays for trace decoding, segment skipping and dispatch
//! once per *schedule*, not once per *variant*; a single variant is simply
//! a batch of one.  The differential suite
//! (`tests/lowered_differential.rs`) proves every returned [`RunStats`]
//! bit-identical to the reference and lowered engines on every Table 2
//! preset × kernel × memory model, including retiming a trace recorded
//! under one model against the other.
//!
//! # Why replay can skip most of the scoreboard
//!
//! The engine's scoreboard exists to price *stalls*.  But the list
//! scheduler already placed every consumer at least its producer's
//! result latency later (`ddg::raw_latency` uses the same
//! `LatencyTable::flow_latency` values the engine charges), and bundles
//! issue in order at one-or-more cycles apart, so a fixed-latency
//! operation can never be the cause of a stall *within its block*.  The
//! only operations whose completion can outrun the schedule are the
//! dynamic ones — memory operations (actual latency depends on the cache
//! state) and VL-dependent vector operations (actual `VL` may exceed the
//! compiler's assumption, and chaining schedules consumers closer than
//! the full result latency).  Across block boundaries the scheduler
//! guarantees nothing, so a fixed-latency write is additionally kept
//! when its latency exceeds its distance to the end of the block.
//!
//! [`ReplayAnalysis::build`] therefore classifies every register slot:
//! a slot is **tracked** only if some dynamic operation writes it, or
//! some fixed-latency write to it could still be in flight when its
//! block ends.  Reads and writes of all other slots are provably
//! stall-free and are dropped from the timing view entirely; runs of
//! bundles left with no timing effect collapse into a single segment
//! that advances the clock by its bundle count.  The differential suite
//! is the empirical check that this analysis is conservative, and
//! `vmv-verify` proves it statically.
//!
//! Because the trace is memory-model- and memory-geometry-independent, a
//! memory-axis sweep executes each functional simulation **once** and
//! retimes every other variant from its trace.

use std::sync::Arc;

use vmv_isa::{Opcode, MAX_VL, NO_SLOT};
use vmv_machine::MachineConfig;
use vmv_mem::{MemoryHierarchy, MemoryModel, SharedAccessScratch};
use vmv_sched::LoweredProgram;

use crate::engine::Simulator;
use crate::profile::{
    BatchProfiler, BatchSink, Binding, Cause, NoBatchProfile, Profile, ProfileStatics,
};
use crate::stats::RunStats;
use crate::trace::Trace;

/// Flag bits of [`DynOp::flags`].
const F_MEM: u8 = 1 << 0;
const F_SETVL: u8 = 1 << 1;
const F_HALT: u8 = 1 << 2;
const F_READS_VL: u8 = 1 << 3;

/// One *dynamic* operation of the compact timing view — an operation whose
/// per-issue behaviour depends on the trace (memory accesses, `setvl`,
/// VL-dependent latency) or on control (`halt`).  Reads are not stored
/// here: every tracked read slot is flattened into the per-segment read
/// stream used for the issue-time computation.
#[derive(Clone, Copy, Debug)]
struct DynOp {
    flags: u8,
    /// Effective lane count for the VL-dependent latency tail.
    lanes: u8,
    flow: u16,
    dst_slot: u16,
    micro_ops_unit: u16,
}

/// One segment of the compact timing view: a (possibly empty) run of
/// timing-inert bundles followed by at most one bundle that actually
/// touches the scoreboard, the L2 port or the trace.  A segment advances
/// the clock by `span` bundles in one step.
#[derive(Clone, Copy, Debug)]
struct RSeg {
    /// Tracked scoreboard slots read by the segment's final bundle.
    reads: (u32, u32),
    /// `(slot, latency)` writes of its plain fixed-latency operations.
    writes: (u32, u32),
    /// Its operations needing per-issue handling, in program order.
    dynamics: (u32, u32),
    /// Bundles this segment spans (the inert run plus the final bundle).
    span: u32,
    /// Operations across the whole segment.
    op_count: u32,
    /// Micro-ops of the segment's plain operations (VL-independent).
    static_micro_ops: u64,
    /// Whether the final bundle occupies the single L2 vector port.
    vecmem: bool,
}

/// Per-block compact metadata (mirrors `LoweredBlock`, but in segments).
#[derive(Clone, Copy, Debug)]
struct RBlock {
    region: vmv_isa::RegionId,
    first_seg: u32,
    seg_count: u32,
    bundle_count: u32,
    /// Global index of the block's first bundle — the profiled walk maps
    /// segments back to the bundle indices the engine reports.
    first_bundle: u32,
}

/// The precompiled slot analysis for replay: the compact timing view of one
/// [`LoweredProgram`], a structure-of-arrays form holding only what the
/// timing walk consumes.  A recorded trace re-executes each static block
/// many times (loops), so the walk is the hot loop; the slot-tracking
/// analysis (module docs) collapses everything provably stall-free into
/// segment-level counters.  Built in O(static ops), once per program, and
/// shared across every variant of a batch; `vmv_core` memoizes it beside a
/// trace that is retimed by more than one call.
#[derive(Debug)]
pub struct ReplayAnalysis {
    blocks: Vec<RBlock>,
    segs: Vec<RSeg>,
    reads: Vec<u16>,
    writes: Vec<(u16, u16)>,
    dynamics: Vec<DynOp>,
    /// Global op index of each entry of `writes` (profiled blame tables).
    write_ops: Vec<u32>,
    /// Global op index of each entry of `dynamics`.
    dyn_ops: Vec<u32>,
    /// The Pass-1 slot classification (indexed by slot), kept so the
    /// static verifier can prove it covers every must-track slot.
    tracked: Vec<bool>,
    /// Every region the program declares, listed in each run's stats.
    regions: Vec<vmv_isa::RegionId>,
}

/// Dynamic-behaviour flag bits of one lowered operation.
fn flags_of(op: &vmv_sched::LoweredOp) -> u8 {
    let mut flags = 0u8;
    if op.opcode.is_memory() {
        flags |= F_MEM;
    }
    if op.opcode == Opcode::SetVL {
        flags |= F_SETVL;
    }
    if op.opcode == Opcode::Halt {
        flags |= F_HALT;
    }
    if op.reads_vl {
        flags |= F_READS_VL;
    }
    flags
}

impl ReplayAnalysis {
    pub fn build(program: &LoweredProgram) -> ReplayAnalysis {
        // Two same-cycle writes to one slot must apply in program order;
        // splitting them between the static and dynamic paths would
        // reorder them, so such bundles go fully dynamic.
        let dup_dst = |ops: &[vmv_sched::LoweredOp]| {
            ops.iter().enumerate().any(|(i, op)| {
                op.dst_slot != NO_SLOT && ops[..i].iter().any(|prev| prev.dst_slot == op.dst_slot)
            })
        };

        // Pass 1 — slot classification.  A slot must stay on the
        // scoreboard if a dynamic operation writes it, or a fixed-latency
        // write to it could outlive its block (latency greater than the
        // distance to the block's end, in bundles: every later bundle
        // takes at least one cycle, so shorter writes are always complete
        // by the time any other block can read them).
        let mut tracked = vec![false; program.total_slots()];
        for block in &program.blocks {
            let n = block.bundle_count;
            for (i, b) in (block.first_bundle..block.first_bundle + n).enumerate() {
                let ops = program.bundle_ops(b);
                let demoted = dup_dst(ops);
                for op in ops {
                    if op.dst_slot == NO_SLOT {
                        continue;
                    }
                    let dynamic = demoted || flags_of(op) != 0;
                    if dynamic || op.flow as u32 > n - i as u32 {
                        tracked[op.dst_slot as usize] = true;
                    }
                }
            }
        }

        // Pass 2 — emit segments: bundles with no tracked reads, no kept
        // writes, no dynamic operations and no L2-port use merge into the
        // following active bundle (or into one trailing inert segment).
        let mut blocks = Vec::with_capacity(program.blocks.len());
        let mut segs = Vec::new();
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut dynamics = Vec::new();
        let mut write_ops = Vec::new();
        let mut dyn_ops = Vec::new();
        for block in &program.blocks {
            let first_seg = segs.len() as u32;
            let (mut pend_span, mut pend_ops, mut pend_micro) = (0u32, 0u32, 0u64);
            for b in block.first_bundle..block.first_bundle + block.bundle_count {
                let ops = program.bundle_ops(b);
                let demoted = dup_dst(ops);
                let (reads_lo, writes_lo, dyn_lo) = (
                    reads.len() as u32,
                    writes.len() as u32,
                    dynamics.len() as u32,
                );
                let mut static_micro_ops = 0u64;
                let mut vecmem = false;
                for (j, op) in ops.iter().enumerate() {
                    let op_idx = program.bundle_bounds[b as usize] + j as u32;
                    reads.extend(
                        op.read_slots()
                            .iter()
                            .filter(|&&s| tracked[s as usize])
                            .copied(),
                    );
                    vecmem |= op.is_vector_memory;
                    let flags = flags_of(op);
                    if flags == 0 && !demoted {
                        // Plain fixed-latency operation: at most a
                        // pre-computed scoreboard write plus counters.
                        if op.dst_slot != NO_SLOT && tracked[op.dst_slot as usize] {
                            writes.push((op.dst_slot, op.flow));
                            write_ops.push(op_idx);
                        }
                        static_micro_ops += op.micro_ops_unit as u64;
                    } else {
                        dynamics.push(DynOp {
                            flags,
                            lanes: op.lanes.max(1),
                            flow: op.flow,
                            dst_slot: op.dst_slot,
                            micro_ops_unit: op.micro_ops_unit,
                        });
                        dyn_ops.push(op_idx);
                    }
                }
                let inert = reads.len() as u32 == reads_lo
                    && writes.len() as u32 == writes_lo
                    && dynamics.len() as u32 == dyn_lo
                    && !vecmem;
                if inert {
                    pend_span += 1;
                    pend_ops += ops.len() as u32;
                    pend_micro += static_micro_ops;
                } else {
                    segs.push(RSeg {
                        reads: (reads_lo, reads.len() as u32),
                        writes: (writes_lo, writes.len() as u32),
                        dynamics: (dyn_lo, dynamics.len() as u32),
                        span: pend_span + 1,
                        op_count: pend_ops + ops.len() as u32,
                        static_micro_ops: pend_micro + static_micro_ops,
                        vecmem,
                    });
                    (pend_span, pend_ops, pend_micro) = (0, 0, 0);
                }
            }
            if pend_span > 0 {
                // Trailing inert run: pure clock advance.
                segs.push(RSeg {
                    reads: (reads.len() as u32, reads.len() as u32),
                    writes: (writes.len() as u32, writes.len() as u32),
                    dynamics: (dynamics.len() as u32, dynamics.len() as u32),
                    span: pend_span,
                    op_count: pend_ops,
                    static_micro_ops: pend_micro,
                    vecmem: false,
                });
            }
            blocks.push(RBlock {
                region: block.region,
                first_seg,
                seg_count: segs.len() as u32 - first_seg,
                bundle_count: block.bundle_count,
                first_bundle: block.first_bundle,
            });
        }
        ReplayAnalysis {
            blocks,
            segs,
            reads,
            writes,
            dynamics,
            write_ops,
            dyn_ops,
            tracked,
            regions: program.regions.iter().map(|r| r.id).collect(),
        }
    }

    /// Size of the register-slot universe the analysis was built over.
    pub fn total_slots(&self) -> usize {
        self.tracked.len()
    }

    /// The slots the scoreboard keeps (indexed by slot): exactly the Pass-1
    /// classification the timing walk stalls on.  Exposed so the static
    /// verifier (`vmv-verify`) can prove the set is a superset of the slots
    /// that must be tracked.
    pub fn tracked_slots(&self) -> &[bool] {
        &self.tracked
    }
}

/// Errors produced while replaying a trace.  All but `CycleLimit` indicate
/// a malformed trace — one not produced by recording this program, or
/// truncated/corrupted in between.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The trace names a block the program does not have.
    BlockOutOfRange { step: usize, block: u32 },
    /// A memory operation had no recorded access left to consume.
    TruncatedAccesses { consumed: usize },
    /// A `setvl` had no recorded VL value left to consume.
    TruncatedVlSets { consumed: usize },
    /// The trace ended without reaching a halting block.
    MissingHalt,
    /// The trace continues past the block that executed `halt`.
    BlocksAfterHalt { step: usize },
    /// Recorded events were left over after the final block — the trace
    /// does not belong to this block sequence.
    TrailingEvents { accesses: usize, vl_sets: usize },
    /// A [`VariantState`] handed to [`replay_batch`] was prepared for a
    /// different program (its slot universe does not match the analysis).
    VariantSlotMismatch {
        variant: usize,
        expected: usize,
        got: usize,
    },
    /// The cycle limit was exceeded (possible when replaying under a much
    /// slower memory variant than the recording ran on).
    CycleLimit(u64),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::BlockOutOfRange { step, block } => {
                write!(f, "trace step {step} names out-of-range block {block}")
            }
            ReplayError::TruncatedAccesses { consumed } => {
                write!(
                    f,
                    "trace truncated: only {consumed} memory accesses recorded"
                )
            }
            ReplayError::TruncatedVlSets { consumed } => {
                write!(f, "trace truncated: only {consumed} setvl values recorded")
            }
            ReplayError::MissingHalt => write!(f, "trace ends without a halting block"),
            ReplayError::BlocksAfterHalt { step } => {
                write!(f, "trace continues past the halt at step {step}")
            }
            ReplayError::TrailingEvents { accesses, vl_sets } => write!(
                f,
                "trace has {accesses} unconsumed accesses and {vl_sets} unconsumed setvl values"
            ),
            ReplayError::VariantSlotMismatch {
                variant,
                expected,
                got,
            } => write!(
                f,
                "variant {variant} was prepared for a {got}-slot program; \
                 this analysis has {expected} slots"
            ),
            ReplayError::CycleLimit(c) => write!(f, "cycle limit of {c} exceeded during replay"),
        }
    }
}
impl std::error::Error for ReplayError {}

/// The per-variant timing parameters of a batched replay: the memory model
/// and machine fields the walk prices against.  Construction is free — the
/// walk itself decides per variant whether it needs a full tag-simulating
/// [`MemoryHierarchy`] (one per tag-equivalence class) or only a
/// latency-arithmetic [`vmv_mem::EchoPricer`].  Everything else
/// (scoreboard, clock, L2-port cursor) lives in the walk's
/// struct-of-arrays scratch.
pub struct VariantState {
    model: MemoryModel,
    memory: vmv_machine::MemoryParams,
    port_elems: u32,
    max_cycles: u64,
    /// Slot universe stamp, checked against the analysis on entry.
    slots: usize,
}

impl VariantState {
    /// Prepare one variant for [`replay_batch`].  `machine` may differ from
    /// the recording machine in memory-hierarchy parameters only (the same
    /// contract as re-simulating a `Prepared` under a new memory variant);
    /// `max_cycles` bounds the replayed clock exactly as
    /// `SimOptions::max_cycles` bounds execution.
    pub fn new(
        analysis: &ReplayAnalysis,
        machine: &MachineConfig,
        model: MemoryModel,
        max_cycles: u64,
    ) -> VariantState {
        VariantState {
            model,
            memory: machine.memory,
            port_elems: machine.l2_port_elems.max(1),
            max_cycles,
            slots: analysis.total_slots(),
        }
    }
}

/// How one variant of a batch prices recorded accesses: class leaders walk
/// real tags, followers replay the leader's echoes.
// One entry per variant, K entries total — the size skew between a full
// hierarchy and an echo pricer is irrelevant at batch widths, and an
// indirection on the leader would cost a pointer chase per priced access.
#[allow(clippy::large_enum_variant)]
enum Pricer {
    Leader(MemoryHierarchy),
    Follower(vmv_mem::EchoPricer),
}

impl Pricer {
    fn stats(&self) -> vmv_mem::MemStats {
        match self {
            Pricer::Leader(h) => h.stats,
            Pricer::Follower(p) => p.stats,
        }
    }
}

/// Replay `trace` once, retiming K independent memory variants in
/// lockstep.  The decoded trace — block sequence, access stream, `setvl`
/// values, collapsed timing-inert segments — is walked a single time; only
/// the timing state (scoreboard, clock, L2-port cursor, hierarchy) is
/// per-variant, held in struct-of-arrays layout so the inner loops are
/// tight passes over K contiguous values.  `out[k]` is bit-identical to a
/// fresh lowered execution of variant `k`; the differential and property
/// suites (`tests/lowered_differential.rs`, `tests/trace_replay.rs`)
/// enforce exactly that.
///
/// Errors that depend on the variant (`CycleLimit`) fail the whole batch;
/// callers wanting per-variant error isolation retry each variant as a
/// batch of one.  An empty `variants` slice returns an empty vector.
pub fn replay_batch(
    trace: &Trace,
    analysis: &ReplayAnalysis,
    variants: &mut [VariantState],
) -> Result<Vec<RunStats>, ReplayError> {
    // A single variant (every `vmv_core::simulate` retime) gets the walk
    // compiled for a width of exactly one: the per-variant loops collapse
    // to straight-line code, as fast as a dedicated single-variant walk.
    if variants.len() == 1 {
        replay_batch_with::<_, 1>(trace, analysis, variants, &mut NoBatchProfile)
    } else {
        replay_batch_with::<_, 0>(trace, analysis, variants, &mut NoBatchProfile)
    }
}

/// [`replay_batch`] with cycle attribution: one extra pass piggybacked on
/// the fused walk, not K profiled walks.  `profiles[k]` is bit-identical
/// to the profile the lowered engine derives for variant `k`, and `out[k]`
/// is unchanged from the unprofiled batch.
pub fn replay_batch_profiled(
    trace: &Trace,
    analysis: &ReplayAnalysis,
    variants: &mut [VariantState],
    statics: &Arc<ProfileStatics>,
) -> Result<(Vec<RunStats>, Vec<Profile>), ReplayError> {
    let mut bp = BatchProfiler::new(statics, variants.len());
    let out = replay_batch_with::<_, 0>(trace, analysis, variants, &mut bp)?;
    let profiles = bp.finish();
    for p in &profiles {
        p.record_obs();
    }
    Ok((out, profiles))
}

/// The fused walk.  `WIDTH` is the batch width when known at compile time
/// (it must then equal `variants.len()`), or 0 to read it at run time.
fn replay_batch_with<BP: BatchSink, const WIDTH: usize>(
    trace: &Trace,
    analysis: &ReplayAnalysis,
    variants: &mut [VariantState],
    bp: &mut BP,
) -> Result<Vec<RunStats>, ReplayError> {
    debug_assert!(WIDTH == 0 || WIDTH == variants.len());
    let k = if WIDTH == 0 { variants.len() } else { WIDTH };
    if k == 0 {
        return Ok(Vec::new());
    }
    for (i, v) in variants.iter().enumerate() {
        if v.slots != analysis.total_slots() {
            return Err(ReplayError::VariantSlotMismatch {
                variant: i,
                expected: analysis.total_slots(),
                got: v.slots,
            });
        }
    }
    let _span = vmv_obs::span(vmv_obs::SpanKind::ReplayBatch);

    // Struct-of-arrays timing state.  The scoreboard is slot-major
    // (`ready[slot * k + variant]`) so the per-read-slot inner loop walks
    // K contiguous words.
    let mut ready: Vec<u64> = vec![0; analysis.total_slots() * k];
    let mut clock: Vec<u64> = vec![0; k];
    let mut l2_port_free: Vec<u64> = vec![0; k];
    let mut issue: Vec<u64> = vec![0; k];
    let mut block_start: Vec<u64> = vec![0; k];
    let mut block_stalls: Vec<u64> = vec![0; k];
    let mut lat: Vec<u64> = vec![0; k];
    let mut line_memo = SharedAccessScratch::new();
    // Per-variant wait-level causes for one memory access, broadcast from
    // each class leader's echo (followers share the leader's hit/miss
    // pattern by construction of the tag-equivalence classes).
    let mut cause_k: Vec<Cause> = vec![Cause::RawStall; if BP::ENABLED { k } else { 0 }];

    // Partition the variants into tag-equivalence classes: configurations
    // sharing model, geometry and port width produce identical hit/miss
    // behaviour, so one *leader* per class walks the real tags and every
    // follower is priced from the leader's access echo — pure latency
    // arithmetic, no tag simulation, and no tag arrays to allocate.  A
    // memory-latency sweep collapses to one class; a geometry sweep
    // degrades gracefully to K singleton leaders.
    let mut classes: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, v) in variants.iter().enumerate() {
        match classes.iter_mut().find(|(leader, _)| {
            let l = &variants[*leader];
            vmv_mem::tag_equivalent_configs(
                (l.model, &l.memory, l.port_elems),
                (v.model, &v.memory, v.port_elems),
            )
        }) {
            Some((_, followers)) => followers.push(i),
            None => classes.push((i, Vec::new())),
        }
    }
    let mut pricers: Vec<Pricer> = variants
        .iter()
        .map(|v| Pricer::Follower(vmv_mem::EchoPricer::new(v.memory, v.port_elems)))
        .collect();
    for (leader, _) in &classes {
        let v = &variants[*leader];
        pricers[*leader] = Pricer::Leader(MemoryHierarchy::new(v.model, v.memory, v.port_elems));
    }

    // Region accumulation: functional totals (instructions, operations,
    // micro-ops) are identical across variants and accumulate once;
    // cycles and stalls are per-variant.
    struct RegionAcc {
        id: vmv_isa::RegionId,
        shared: crate::stats::RegionStats,
        cycles: Vec<u64>,
        stalls: Vec<u64>,
    }
    let mut region_acc: Vec<RegionAcc> = Vec::new();
    let mut region_idx = 0usize;

    // Shared functional state, reconstructed from the trace: the VL
    // register from the recorded `setvl` stream, plus the event cursors.
    let mut vl: u32 = trace.initial_vl;
    let mut evl: u64 = vl.clamp(1, MAX_VL) as u64;
    let (mut ai, mut vi) = (0usize, 0usize);
    let mut halted = false;

    for (step, &block_id) in trace.blocks.iter().enumerate() {
        if halted {
            return Err(ReplayError::BlocksAfterHalt { step: step - 1 });
        }
        let block =
            *analysis
                .blocks
                .get(block_id as usize)
                .ok_or(ReplayError::BlockOutOfRange {
                    step,
                    block: block_id,
                })?;
        let region = block.region;
        block_start.copy_from_slice(&clock);
        block_stalls.iter_mut().for_each(|s| *s = 0);
        let mut ops_executed = 0u64;
        let mut micro_ops = 0u64;
        bp.begin_block(block_id);
        let mut bundle_cursor = block.first_bundle;

        for seg in
            &analysis.segs[block.first_seg as usize..(block.first_seg + block.seg_count) as usize]
        {
            let span = (seg.span - 1) as u64;
            for kk in 0..k {
                issue[kk] = clock[kk] + span;
            }
            for &slot in &analysis.reads[seg.reads.0 as usize..seg.reads.1 as usize] {
                let row = &ready[slot as usize * k..slot as usize * k + k];
                for kk in 0..k {
                    issue[kk] = issue[kk].max(row[kk]);
                }
            }
            if seg.vecmem {
                for kk in 0..k {
                    issue[kk] = issue[kk].max(l2_port_free[kk]);
                }
            }
            for kk in 0..k {
                block_stalls[kk] += issue[kk] - (clock[kk] + span);
            }

            if BP::ENABLED {
                // Reconstruct the per-bundle issue events the engine
                // reports, once per variant: inert bundles issue
                // stall-free at consecutive cycles, the final bundle
                // carries the segment's stall.  Binding: first tracked
                // read slot busy at the issue cycle (untracked slots are
                // provably never the binder), found by a strided
                // scoreboard scan, else the L2 port.
                for kk in 0..k {
                    for i in 0..seg.span - 1 {
                        bp.bundle(
                            kk,
                            bundle_cursor + i,
                            clock[kk] + i as u64,
                            0,
                            Binding::None,
                        );
                    }
                    let base = clock[kk] + span;
                    let stall = issue[kk] - base;
                    let binding = if stall == 0 {
                        Binding::None
                    } else {
                        let mut found = Binding::Port;
                        for &slot in &analysis.reads[seg.reads.0 as usize..seg.reads.1 as usize] {
                            if ready[slot as usize * k + kk] == issue[kk] {
                                found = Binding::Slot(slot);
                                break;
                            }
                        }
                        found
                    };
                    bp.bundle(kk, bundle_cursor + seg.span - 1, base, stall, binding);
                }
                bundle_cursor += seg.span;
            }

            for (wi, &(slot, lat)) in analysis.writes[seg.writes.0 as usize..seg.writes.1 as usize]
                .iter()
                .enumerate()
            {
                let row = &mut ready[slot as usize * k..slot as usize * k + k];
                for kk in 0..k {
                    row[kk] = issue[kk] + lat as u64;
                }
                if BP::ENABLED {
                    bp.write_all(
                        analysis.write_ops[seg.writes.0 as usize + wi],
                        slot,
                        Cause::RawStall,
                    );
                }
            }
            micro_ops += seg.static_micro_ops;
            ops_executed += seg.op_count as u64;

            for (di, op) in analysis.dynamics[seg.dynamics.0 as usize..seg.dynamics.1 as usize]
                .iter()
                .enumerate()
            {
                let op_idx = if BP::ENABLED {
                    analysis.dyn_ops[seg.dynamics.0 as usize + di]
                } else {
                    0
                };
                if op.flags & F_MEM != 0 {
                    let access = trace
                        .accesses
                        .get(ai)
                        .ok_or(ReplayError::TruncatedAccesses { consumed: ai })?;
                    ai += 1;
                    if access.is_vector {
                        for (kk, v) in variants.iter().enumerate() {
                            let occupancy = if access.stride == 8 {
                                access.elems.div_ceil(v.port_elems)
                            } else {
                                access.elems
                            };
                            l2_port_free[kk] = issue[kk] + occupancy.max(1) as u64;
                        }
                        if BP::ENABLED {
                            bp.vec_port_all(op_idx);
                        }
                    }
                    // Memory latency is the one per-variant quantity: the
                    // class leader walks its real tags (irregular line
                    // walks memoized once across classes), and followers
                    // are priced from the echo.
                    for (leader, followers) in &classes {
                        let Pricer::Leader(hierarchy) = &mut pricers[*leader] else {
                            unreachable!("class leaders carry a full hierarchy")
                        };
                        let (leader_lat, echo) =
                            Simulator::memory_latency_echo(hierarchy, access, &mut line_memo);
                        lat[*leader] = leader_lat as u64;
                        if BP::ENABLED {
                            // Followers share the leader's hit/miss pattern,
                            // so the wait level broadcasts across the class.
                            let cause = Cause::wait_for_echo(&echo);
                            cause_k[*leader] = cause;
                            for &f in followers {
                                cause_k[f] = cause;
                            }
                        }
                        for &f in followers {
                            let Pricer::Follower(pricer) = &mut pricers[f] else {
                                unreachable!("class followers carry an echo pricer")
                            };
                            lat[f] = pricer.apply_echo(&echo).latency as u64;
                        }
                    }
                    if op.dst_slot != NO_SLOT {
                        let row_at = op.dst_slot as usize * k;
                        for kk in 0..k {
                            ready[row_at + kk] = issue[kk] + lat[kk];
                        }
                        if BP::ENABLED {
                            bp.write_k(op_idx, op.dst_slot, &cause_k);
                        }
                    }
                } else {
                    if op.flags & F_SETVL != 0 {
                        vl = *trace
                            .vl_sets
                            .get(vi)
                            .ok_or(ReplayError::TruncatedVlSets { consumed: vi })?;
                        vi += 1;
                        evl = vl.clamp(1, MAX_VL) as u64;
                    }
                    // Non-memory latency depends only on shared state (VL,
                    // lanes): computed once for all variants.
                    let latency = if op.flags & F_READS_VL != 0 {
                        let lanes = op.lanes as u64;
                        let tail = if lanes.is_power_of_two() {
                            (evl - 1) >> lanes.trailing_zeros()
                        } else {
                            (evl - 1) / lanes
                        };
                        op.flow as u64 + tail
                    } else {
                        op.flow as u64
                    };
                    if op.dst_slot != NO_SLOT {
                        let row_at = op.dst_slot as usize * k;
                        for kk in 0..k {
                            ready[row_at + kk] = issue[kk] + latency;
                        }
                        if BP::ENABLED {
                            bp.write_all(op_idx, op.dst_slot, Cause::RawStall);
                        }
                    }
                }

                micro_ops += if op.flags & F_READS_VL != 0 {
                    op.micro_ops_unit as u64 * evl
                } else {
                    op.micro_ops_unit as u64
                };

                halted |= op.flags & F_HALT != 0;
            }

            for (kk, v) in variants.iter().enumerate() {
                clock[kk] = issue[kk] + 1;
                if clock[kk] - block_start[kk] > v.max_cycles || clock[kk] > v.max_cycles {
                    return Err(ReplayError::CycleLimit(v.max_cycles));
                }
            }
        }

        if block.bundle_count == 0 {
            for c in clock.iter_mut() {
                *c += 1;
            }
        }

        if region_idx >= region_acc.len() || region_acc[region_idx].id != region {
            region_idx = match region_acc.iter().position(|acc| acc.id == region) {
                Some(i) => i,
                None => {
                    region_acc.push(RegionAcc {
                        id: region,
                        shared: crate::stats::RegionStats::default(),
                        cycles: vec![0; k],
                        stalls: vec![0; k],
                    });
                    region_acc.len() - 1
                }
            };
        }
        let acc = &mut region_acc[region_idx];
        for kk in 0..k {
            acc.cycles[kk] += clock[kk] - block_start[kk];
            acc.stalls[kk] += block_stalls[kk];
        }
        acc.shared.instructions += (block.bundle_count as u64).max(1);
        acc.shared.operations += ops_executed;
        acc.shared.micro_ops += micro_ops;
    }

    if !halted {
        return Err(ReplayError::MissingHalt);
    }
    if ai != trace.accesses.len() || vi != trace.vl_sets.len() {
        return Err(ReplayError::TrailingEvents {
            accesses: trace.accesses.len() - ai,
            vl_sets: trace.vl_sets.len() - vi,
        });
    }

    let mut out = Vec::with_capacity(k);
    for (kk, pricer) in pricers.iter().enumerate() {
        let mut stats = RunStats::default();
        for &id in &analysis.regions {
            stats.region_mut(id);
        }
        for acc in &region_acc {
            let mut r = acc.shared;
            r.cycles = acc.cycles[kk];
            r.stall_cycles = acc.stalls[kk];
            stats.region_mut(acc.id).add(&r);
        }
        stats.memory = pricer.stats();
        stats.memory.record_obs();
        vmv_obs::incr(vmv_obs::Counter::TraceReplays);
        out.push(stats);
    }
    vmv_obs::incr(vmv_obs::Counter::ReplayBatches);
    vmv_obs::record_value(vmv_obs::ValueHist::ReplayBatchWidth, k as u64);
    Ok(out)
}
