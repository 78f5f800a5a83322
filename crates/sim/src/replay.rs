//! The trace-replay engine: retime a recorded execution against fresh
//! memory hierarchies, without functional execution.
//!
//! [`replay_batch`] is the workspace's *third* engine.  It walks the
//! recorded block sequence of a [`Trace`] over the static
//! [`LoweredProgram`] once and advances K independent timing states in
//! lockstep — one [`VariantState`] (memory model + machine memory
//! parameters) per variant, on one shared clock with a struct-of-arrays
//! scoreboard — re-deriving the scoreboard / stall / L2-port timing exactly as
//! [`crate::Simulator::run_lowered`] does, but feeding each hierarchy the
//! *recorded* accesses instead of executing operations — no `exec_core`,
//! no `RegFiles`, no `MemImage` allocation.  A memory-axis sweep therefore
//! pays for trace decoding, segment skipping and dispatch once per
//! *schedule*, not once per *variant*; a single variant is simply a batch
//! of one.  The differential suite (`tests/lowered_differential.rs`)
//! proves every returned [`RunStats`] bit-identical to the reference and
//! lowered engines on every Table 2 preset × kernel × memory model,
//! including retiming a trace recorded under one model against the other.
//!
//! The walk reads a trace by source position (see [`crate::trace`]): each
//! block instance claims its run of access and VL entries on entry, and
//! each dynamic operation reads its own entry, wherever this schedule
//! issues it.  So the program handed in may be any schedule of the program
//! the trace was recorded from (`tests/trace_replay.rs` retimes every
//! preset and committed-study schedule of each program from one
//! recording).  A trace of another program is rejected by its fingerprint,
//! and a corrupted one with a typed [`ReplayError`]: runs that overrun or
//! underrun the streams, and accesses no execution could have made (an
//! element count outside `1..=MAX_VL`, bytes beyond the largest possible
//! memory image).
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
//! Because the trace is independent of the memory model, the memory
//! geometry and the schedule, a sweep executes each program **once** and
//! retimes every other run of it — every memory variant of every schedule
//! key — from that trace.
//!
//! # One shared clock for K variants
//!
//! Variants of one schedule issue the same bundles and differ only in
//! where they stall, and they stall rarely: on the `memory` benchmark
//! workload (seed 1), 8,398 of the 663,588 replayed segments (1.3 %)
//! stall in any of a batch's 59 variants.  The walk therefore keeps one
//! *shared* clock `base` and per variant only its accumulated stall
//! `offset[k]`; variant `k`'s clock is `base + offset[k]`.  Beside each
//! scoreboard row `ready[slot * K + k]` (absolute cycles) sits a scalar
//! bound `bound[slot] = max_k(ready - offset[k])`, taken when the row is
//! written (offsets only grow, so it stays an upper bound until the next
//! write); the L2 vector port keeps the same pair.  A segment whose read
//! bounds (and port bound) are at most its stall-free issue cycle cannot
//! stall any variant, and advances all K with one scalar add.  Only writes
//! (`ready = base + span - 1 + latency + offset[k]`), memory latencies and
//! the segments whose bound fails (10,527, 1.6 %, on that workload) touch
//! the K lanes, and a failing segment computes exactly the per-variant
//! maximum the engine computes, over just the slots whose bound failed.
//! Region cycles are the shared cycles plus each variant's stalls, and the
//! cycle limit is one comparison against the batch-wide slack
//! `min_k(max_cycles[k] - offset[k])`.
//!
//! Memory is priced per tag-equivalence class: one leader
//! [`MemoryHierarchy`] walks the real tags, and one [`ClassPricer`] turns
//! each of its access echoes into the latencies of all of the class's
//! followers at once (their `MemStats` equal the leader's except for the
//! stall total).  The walk lays its lanes out class by class, so every
//! class prices into a contiguous run of lanes.

use std::sync::Arc;

use vmv_isa::{Opcode, MAX_VL, NO_SLOT};
use vmv_machine::MachineConfig;
use vmv_mem::{ClassPricer, MemoryHierarchy, MemoryModel, SharedAccessScratch};
use vmv_sched::LoweredProgram;

use crate::engine::Simulator;
use crate::exec::MemAccess;
use crate::profile::{
    BatchProfiler, BatchSink, Binding, Cause, NoBatchProfile, Profile, ProfileStatics,
};
use crate::stats::RunStats;
use crate::trace::{Trace, TraceLayout};

/// Flag bits of [`DynOp::flags`].
const F_MEM: u8 = 1 << 0;
const F_SETVL: u8 = 1 << 1;
const F_HALT: u8 = 1 << 2;
const F_READS_VL: u8 = 1 << 3;
const F_STORE: u8 = 1 << 4;
const F_VECTOR: u8 = 1 << 5;

/// One past the largest byte address an execution can touch: a memory
/// image is one `Vec<u8>`, which never exceeds `isize::MAX` bytes.
const ADDRESS_LIMIT: u64 = 1 << 63;

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
    /// Bytes per element of a memory access.
    bytes: u8,
    flow: u16,
    dst_slot: u16,
    micro_ops_unit: u16,
    /// The operation's entry within its block instance's run of trace
    /// accesses (memory operations) or VL values (`setvl`).
    entry: u32,
}

impl DynOp {
    /// The access this memory operation made, from its trace entries
    /// (`run` starts at the operation's entry), or `None` when the entries
    /// describe an access no execution could make.
    #[inline]
    fn access(&self, run: &[u64]) -> Option<MemAccess> {
        let base = run[0];
        let bytes = self.bytes as usize;
        let (stride, elems, end) = if self.flags & F_VECTOR != 0 {
            let (stride, elems) = (run[1] as i64, run[2]);
            if !(1..=MAX_VL as u64).contains(&elems) {
                return None;
            }
            let (_, hi) = vmv_mem::lines::span(base, stride, elems as u32)?;
            (stride, elems as u32, hi)
        } else {
            (0, 1, base.checked_add(bytes as u64 - 1)?)
        };
        (end < ADDRESS_LIMIT).then_some(MemAccess {
            base,
            stride,
            elems,
            bytes,
            is_store: self.flags & F_STORE != 0,
            is_vector: self.flags & F_VECTOR != 0,
        })
    }
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
    /// Trace access and VL entries one instance of the block claims.
    accesses: u32,
    vl_sets: u32,
}

/// The precompiled slot analysis for replay: the compact timing view of one
/// [`LoweredProgram`], a structure-of-arrays form holding only what the
/// timing walk consumes.  A recorded trace re-executes each static block
/// many times (loops), so the walk is the hot loop; the slot-tracking
/// analysis (module docs) collapses everything provably stall-free into
/// segment-level counters.  Built in O(static ops), once per schedule, and
/// shared across every variant of a batch; `vmv_core` builds it once per
/// group call that retimes.
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
    /// The fingerprint of the program (every schedule of it shares one),
    /// matched against [`Trace::program`].
    program: u64,
}

/// Dynamic-behaviour flag bits of one lowered operation.
fn flags_of(op: &vmv_sched::LoweredOp) -> u8 {
    let mut flags = 0u8;
    if op.opcode.is_memory() {
        flags |= F_MEM;
        if op.opcode.is_store() {
            flags |= F_STORE;
        }
        if op.is_vector_memory {
            flags |= F_VECTOR;
        }
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

/// Bytes per element a memory operation accesses (as `exec` records them).
fn access_bytes(opcode: Opcode) -> u8 {
    match opcode {
        Opcode::Load(width, _) | Opcode::Store(width) => width.bytes() as u8,
        _ => 8,
    }
}

impl ReplayAnalysis {
    pub fn build(program: &LoweredProgram) -> ReplayAnalysis {
        let layout = TraceLayout::of(program);
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
        for (block, &(block_accesses, block_vl_sets)) in program.blocks.iter().zip(&layout.window) {
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
                            bytes: access_bytes(op.opcode),
                            flow: op.flow,
                            dst_slot: op.dst_slot,
                            micro_ops_unit: op.micro_ops_unit,
                            entry: layout.entry[op_idx as usize],
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
                accesses: block_accesses,
                vl_sets: block_vl_sets,
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
            program: layout.program,
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
    /// The trace was recorded from another program (its fingerprint
    /// differs from every schedule of this one).
    ProgramMismatch { trace: u64, program: u64 },
    /// The trace names a block the program does not have.
    BlockOutOfRange { step: usize, block: u32 },
    /// A block instance's run of access entries overran the stream, which
    /// holds `consumed` entries.
    TruncatedAccesses { consumed: usize },
    /// A block instance's run of VL values overran the stream, which holds
    /// `consumed` values.
    TruncatedVlSets { consumed: usize },
    /// The access entries starting at `entry` describe an access no
    /// execution could make.
    MalformedAccess { entry: usize },
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
            ReplayError::ProgramMismatch { trace, program } => write!(
                f,
                "trace of program {trace:016x} replayed against program {program:016x}"
            ),
            ReplayError::BlockOutOfRange { step, block } => {
                write!(f, "trace step {step} names out-of-range block {block}")
            }
            ReplayError::TruncatedAccesses { consumed } => {
                write!(
                    f,
                    "trace truncated: only {consumed} memory access entries recorded"
                )
            }
            ReplayError::TruncatedVlSets { consumed } => {
                write!(f, "trace truncated: only {consumed} setvl values recorded")
            }
            ReplayError::MalformedAccess { entry } => {
                write!(
                    f,
                    "trace access entry {entry} describes an impossible access"
                )
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
/// walk itself decides per variant whether it leads a tag-equivalence class
/// (a full tag-simulating [`MemoryHierarchy`]) or follows one (a latency
/// column of the class's [`ClassPricer`]).  Everything else (scoreboard,
/// stall offset, L2-port cursor) lives in the walk's struct-of-arrays
/// scratch.
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

/// One tag-equivalence class of a batch: the leader walks real tags and
/// the followers are priced from its echoes.  A class owns the contiguous
/// lanes `lane ..= lane + followers.len()`, leader first.
struct TagClass {
    lane: usize,
    leader: MemoryHierarchy,
    followers: ClassPricer,
}

/// Record a write to `slot` that completes at shared cycle `done` in every
/// lane: the bound is exact, and each lane's ready cycle adds its offset.
#[inline(always)]
fn write_shared(ready: &mut [u64], bound: &mut [u64], offset: &[u64], slot: u16, done: u64) {
    let k = offset.len();
    bound[slot as usize] = done;
    for (r, &o) in ready[slot as usize * k..][..k].iter_mut().zip(offset) {
        *r = done + o;
    }
}

/// Replay `trace` once, retiming K independent memory variants in
/// lockstep.  The decoded trace — block sequence, access stream, `setvl`
/// values, collapsed timing-inert segments — is walked a single time, on
/// one shared clock: a variant's clock is the shared clock plus its own
/// accumulated stall.  A segment whose per-slot ready bounds (module docs)
/// clear its issue cycle advances all K variants with one scalar add; only
/// writes, memory latencies and the rare stalling segment touch the K
/// per-variant lanes.  `out[k]` is bit-identical to a fresh lowered
/// execution of variant `k`; the differential and property suites
/// (`tests/lowered_differential.rs`, `tests/trace_replay.rs`) enforce
/// exactly that.
///
/// Errors that depend on the variant (`CycleLimit`) fail the whole batch,
/// naming the cap of the first variant in batch order to overrun its own
/// `max_cycles` at the earliest segment any variant does; callers wanting
/// per-variant error isolation retry each variant as a batch of one.  An
/// empty `variants` slice returns an empty vector.
pub fn replay_batch(
    trace: &Trace,
    analysis: &ReplayAnalysis,
    variants: &mut [VariantState],
) -> Result<Vec<RunStats>, ReplayError> {
    // A single variant (a group call retiming one variant) gets the walk
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
    // An empty trace recorded no program at all: it misses its halt.
    if !trace.blocks.is_empty() && trace.program != analysis.program {
        return Err(ReplayError::ProgramMismatch {
            trace: trace.program,
            program: analysis.program,
        });
    }
    let _span = vmv_obs::span(vmv_obs::SpanKind::ReplayBatch);

    // Partition the variants into tag-equivalence classes: configurations
    // sharing model, geometry and port width produce identical hit/miss
    // behaviour, so one *leader* per class walks the real tags and the
    // class pricer turns each leader echo into every follower's latency —
    // pure arithmetic over latency columns, no tag arrays.  A
    // memory-latency sweep collapses to one class; a geometry sweep
    // degrades gracefully to K singleton leaders.  Lanes are laid out
    // class by class (classes in order of first appearance, members in
    // batch order), so each class prices into a contiguous run of lanes;
    // `lane_variant` maps a lane back to its batch position.
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (i, v) in variants.iter().enumerate() {
        match members.iter_mut().find(|m| {
            let l = &variants[m[0]];
            vmv_mem::tag_equivalent_configs(
                (l.model, &l.memory, l.port_elems),
                (v.model, &v.memory, v.port_elems),
            )
        }) {
            Some(m) => m.push(i),
            None => members.push(vec![i]),
        }
    }
    let mut classes: Vec<TagClass> = Vec::with_capacity(members.len());
    let mut lane = 0;
    for m in &members {
        let l = &variants[m[0]];
        let mut followers = ClassPricer::new(l.port_elems);
        for &f in &m[1..] {
            followers.push(&variants[f].memory);
        }
        classes.push(TagClass {
            lane,
            leader: MemoryHierarchy::new(l.model, l.memory, l.port_elems),
            followers,
        });
        lane += m.len();
    }
    let lane_variant: Vec<usize> = members.concat();
    let port_elems: Vec<u32> = lane_variant
        .iter()
        .map(|&v| variants[v].port_elems)
        .collect();
    let max_cycles: Vec<u64> = lane_variant
        .iter()
        .map(|&v| variants[v].max_cycles)
        .collect();

    // The shared clock.  Lane `l`'s clock is `base + offset[l]`, where
    // `offset[l]` is the stall that lane has accumulated so far.  The
    // scoreboard keeps absolute ready cycles, slot-major
    // (`ready[slot * k + lane]`), and beside each row a scalar bound
    // `bound[slot] >= max_l(ready - offset[l])`, exact when written;
    // offsets only grow, so a bound stays valid until its slot is written
    // again.  The L2 port keeps the same pair.  `slack` is
    // `min_l(max_cycles[l] - offset[l])`: no lane has overrun its own cap
    // while `base <= slack`.
    let mut base = 0u64;
    let mut offset: Vec<u64> = vec![0; k];
    let mut ready: Vec<u64> = vec![0; analysis.total_slots() * k];
    let mut bound: Vec<u64> = vec![0; analysis.total_slots()];
    let mut port_free: Vec<u64> = vec![0; k];
    let mut port_bound = 0u64;
    let mut slack = max_cycles.iter().copied().min().unwrap_or(u64::MAX);
    let mut issue: Vec<u64> = vec![0; k];
    let mut lat: Vec<u64> = vec![0; k];
    let mut line_memo = SharedAccessScratch::new();
    // Per-variant wait-level causes for one memory access (batch order),
    // broadcast from each class leader's echo (followers share the
    // leader's hit/miss pattern by construction of the classes).
    let mut cause_k: Vec<Cause> = vec![Cause::RawStall; if BP::ENABLED { k } else { 0 }];

    // Region accumulation: functional totals (instructions, operations,
    // micro-operations) and the shared clock's cycles are identical across
    // variants and accumulate once; stalls are per lane, and a lane's
    // region cycles are the shared cycles plus its stalls.
    struct RegionAcc {
        id: vmv_isa::RegionId,
        shared: crate::stats::RegionStats,
        stalls: Vec<u64>,
    }
    let mut region_acc: Vec<RegionAcc> = Vec::new();
    let mut region_idx = 0usize;

    // Shared functional state, reconstructed from the trace: the VL
    // register from the recorded `setvl` stream, plus the event cursors —
    // the end of the runs claimed so far.
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
        if region_idx >= region_acc.len() || region_acc[region_idx].id != block.region {
            region_idx = match region_acc.iter().position(|acc| acc.id == block.region) {
                Some(i) => i,
                None => {
                    region_acc.push(RegionAcc {
                        id: block.region,
                        shared: crate::stats::RegionStats::default(),
                        stalls: vec![0; k],
                    });
                    region_acc.len() - 1
                }
            };
        }
        // Claim the block instance's runs of trace entries; its dynamic
        // operations read them by their source-order entries.
        let (access_run, vl_run) = (ai, vi);
        ai += block.accesses as usize;
        if ai > trace.accesses.len() {
            return Err(ReplayError::TruncatedAccesses {
                consumed: trace.accesses.len(),
            });
        }
        vi += block.vl_sets as usize;
        if vi > trace.vl_sets.len() {
            return Err(ReplayError::TruncatedVlSets {
                consumed: trace.vl_sets.len(),
            });
        }
        let block_base = base;
        let mut ops_executed = 0u64;
        let mut micro_ops = 0u64;
        bp.begin_block(block_id);
        let mut bundle_cursor = block.first_bundle;

        for seg in
            &analysis.segs[block.first_seg as usize..(block.first_seg + block.seg_count) as usize]
        {
            // Stall-free issue cycle of the segment's final bundle, on the
            // shared clock.
            let at = base + (seg.span - 1) as u64;
            let reads = &analysis.reads[seg.reads.0 as usize..seg.reads.1 as usize];
            let port_binds = seg.vecmem && port_bound > at;
            let stalls = port_binds || reads.iter().any(|&slot| bound[slot as usize] > at);
            if stalls {
                // Some bound failed: price the issue cycle exactly per
                // lane, over only the slots (and port) whose bound failed —
                // the others cannot delay any lane.
                for l in 0..k {
                    issue[l] = at + offset[l];
                }
                for &slot in reads {
                    if bound[slot as usize] > at {
                        let row = &ready[slot as usize * k..slot as usize * k + k];
                        for l in 0..k {
                            issue[l] = issue[l].max(row[l]);
                        }
                    }
                }
                if port_binds {
                    for l in 0..k {
                        issue[l] = issue[l].max(port_free[l]);
                    }
                }
            }

            if BP::ENABLED {
                // Reconstruct the per-bundle issue events the engine
                // reports, once per variant: inert bundles issue
                // stall-free at consecutive cycles, the final bundle
                // carries the segment's stall.  Binding: first tracked
                // read slot busy at the issue cycle (untracked slots are
                // provably never the binder), found by a strided
                // scoreboard scan, else the L2 port.
                for l in 0..k {
                    let v = lane_variant[l];
                    let clock = base + offset[l];
                    for i in 0..seg.span - 1 {
                        bp.bundle(v, bundle_cursor + i, clock + i as u64, 0, Binding::None);
                    }
                    let stall_free = at + offset[l];
                    let stall = if stalls { issue[l] - stall_free } else { 0 };
                    let binding = if stall == 0 {
                        Binding::None
                    } else {
                        let mut found = Binding::Port;
                        for &slot in reads {
                            if ready[slot as usize * k + l] == issue[l] {
                                found = Binding::Slot(slot);
                                break;
                            }
                        }
                        found
                    };
                    bp.bundle(v, bundle_cursor + seg.span - 1, stall_free, stall, binding);
                }
                bundle_cursor += seg.span;
            }

            if stalls {
                let region_stalls = &mut region_acc[region_idx].stalls;
                for l in 0..k {
                    let stall = issue[l] - (at + offset[l]);
                    if stall > 0 {
                        offset[l] += stall;
                        region_stalls[l] += stall;
                        slack = slack.min(max_cycles[l].saturating_sub(offset[l]));
                    }
                }
            }

            for (wi, &(slot, latency)) in analysis.writes
                [seg.writes.0 as usize..seg.writes.1 as usize]
                .iter()
                .enumerate()
            {
                write_shared(
                    &mut ready,
                    &mut bound,
                    &offset[..k],
                    slot,
                    at + latency as u64,
                );
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
                    let entry = access_run + op.entry as usize;
                    let access = &op
                        .access(&trace.accesses[entry..])
                        .ok_or(ReplayError::MalformedAccess { entry })?;
                    if access.is_vector {
                        let mut longest = 0;
                        for l in 0..k {
                            let occupancy = if access.stride == 8 {
                                access.elems.div_ceil(port_elems[l])
                            } else {
                                access.elems
                            };
                            let occupancy = occupancy.max(1) as u64;
                            port_free[l] = at + offset[l] + occupancy;
                            longest = longest.max(occupancy);
                        }
                        port_bound = at + longest;
                        if BP::ENABLED {
                            bp.vec_port_all(op_idx);
                        }
                    }
                    // Memory latency is the one per-variant quantity: each
                    // class leader walks its real tags (irregular line walks
                    // memoized once across classes), and its pricer prices
                    // the echo for all of the class's followers at once.
                    for class in &mut classes {
                        let (leader_lat, echo) = Simulator::memory_latency_echo(
                            &mut class.leader,
                            access,
                            &mut line_memo,
                        );
                        lat[class.lane] = leader_lat as u64;
                        if !class.followers.is_empty() {
                            class.followers.price(&echo, &mut lat[class.lane + 1..]);
                        }
                        if BP::ENABLED {
                            let cause = Cause::wait_for_echo(&echo);
                            for l in class.lane..=class.lane + class.followers.len() {
                                cause_k[lane_variant[l]] = cause;
                            }
                        }
                    }
                    if op.dst_slot != NO_SLOT {
                        let row =
                            &mut ready[op.dst_slot as usize * k..op.dst_slot as usize * k + k];
                        let mut longest = 0;
                        for l in 0..k {
                            row[l] = at + offset[l] + lat[l];
                            longest = longest.max(lat[l]);
                        }
                        bound[op.dst_slot as usize] = at + longest;
                        if BP::ENABLED {
                            bp.write_k(op_idx, op.dst_slot, &cause_k);
                        }
                    }
                } else {
                    if op.flags & F_SETVL != 0 {
                        vl = trace.vl_sets[vl_run + op.entry as usize];
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
                        write_shared(
                            &mut ready,
                            &mut bound,
                            &offset[..k],
                            op.dst_slot,
                            at + latency,
                        );
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

            base = at + 1;
            if base > slack {
                // Some lane's clock passed its own cap: name the first
                // such variant in batch order.
                let over = (0..k)
                    .filter(|&l| base + offset[l] > max_cycles[l])
                    .min_by_key(|&l| lane_variant[l])
                    .expect("the slack is some lane's headroom");
                return Err(ReplayError::CycleLimit(max_cycles[over]));
            }
        }

        // Even an empty block consumes a fetch cycle.
        if block.bundle_count == 0 {
            base += 1;
        }

        let acc = &mut region_acc[region_idx];
        acc.shared.cycles += base - block_base;
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

    let mut out = vec![RunStats::default(); k];
    for class in &classes {
        for i in 0..=class.followers.len() {
            let l = class.lane + i;
            let stats = &mut out[lane_variant[l]];
            for &id in &analysis.regions {
                stats.region_mut(id);
            }
            for acc in &region_acc {
                let mut r = acc.shared;
                r.cycles += acc.stalls[l];
                r.stall_cycles = acc.stalls[l];
                stats.region_mut(acc.id).add(&r);
            }
            stats.memory = match i {
                0 => class.leader.stats,
                _ => class.followers.stats(&class.leader.stats, i - 1),
            };
            stats.memory.record_obs();
            vmv_obs::incr(vmv_obs::Counter::TraceReplays);
        }
    }
    vmv_obs::incr(vmv_obs::Counter::ReplayBatches);
    vmv_obs::record_value(vmv_obs::ValueHist::ReplayBatchWidth, k as u64);
    Ok(out)
}
