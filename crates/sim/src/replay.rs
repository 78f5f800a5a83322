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
//! recording); [`ReplayAnalysis::with_layout`] finds each operation's entry
//! through the program's one [`TraceLayout`].  A trace of another program
//! is rejected by its fingerprint,
//! and a corrupted one with a typed [`ReplayError`]: runs that overrun or
//! underrun the streams, and accesses no execution could have made (an
//! element count outside `1..=MAX_VL`, bytes at or past
//! [`vmv_mem::ADDRESS_LIMIT`], the 4 GiB cap on every memory image, so no
//! replayed access can alias in the caches' 32-bit tags).
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
//! `offset[k]`; variant `k`'s clock is `base + offset[k]`.  Each
//! scoreboard slot keeps a scalar bound `bound[slot] = max_k(ready[k] -
//! offset[k])` over its variants' ready cycles, taken when the slot is
//! written (offsets only grow, so it stays an upper bound until the next
//! write); the L2 vector port keeps a cursor per variant and the same
//! bound.  A segment whose read bounds (and port bound) are at most its
//! stall-free issue cycle `at` cannot stall any variant, and advances all
//! K with one scalar add.  Only the segments whose bound fails (10,527,
//! 1.6 %, on that workload) price the K lanes, and they compute exactly
//! the per-variant maximum the engine computes, over just the slots whose
//! bound failed.  Region cycles are the shared cycles plus each variant's
//! stalls, and the cycle limit is one comparison against the batch-wide
//! slack `min_k(max_cycles[k] - offset[k])`.
//!
//! # Stamped rows
//!
//! Most results complete at the same shared cycle in every variant: every
//! fixed-latency and VL-dependent result, and a scalar load that hit every
//! L1 front when all variants share one L1 latency (the class tree reports
//! it, [`vmv_mem::LaneLatency::Shared`]).  Such a write sets only the
//! slot's bound and stamps the slot with the current *epoch*: while the
//! stamp is current, variant `k` is ready at `bound + offset[k]`.  Only
//! results that differ by variant, L1 misses and vector accesses, write
//! the slot's row of K absolute ready cycles (`rows[slot * K + k]`).
//!
//! An epoch lasts while no offset changes.  Before a stalling segment
//! grows any offset, the walk writes out the rows of the slots stamped in
//! this epoch that are still in flight (`bound > at`), under the offsets
//! they were stamped with, and starts a new epoch, so every variant reads
//! what an eagerly written row would hold.  A stamped slot with
//! `bound <= at` keeps a stale row: every later segment issues after `at`,
//! so its bound check passes over the slot until the slot is written
//! again.  For the same reason the profiled walk looks for a stall's
//! binding slot only among the reads with `bound > at`: a stalled variant
//! issues after `at + offset[k]`, by which time every variant of such a
//! slot is ready, so it could never have been the binder.  Both sinks and
//! every batch width read this one scoreboard.  On the `memory` workload
//! (seed 1) 96.0 % of the scoreboard writes take the stamped path, and
//! the 8,398 stalling segments write out 3,184 rows in all.
//!
//! # Recorded latencies
//!
//! A trace carries its recording's own pricing ([`crate::trace::Pricing`]):
//! the configuration it ran under, one latency per dynamic memory access in
//! execution order, its memory statistics and its memory issue order.  The
//! hierarchy prices a stream of accesses, whatever their timing, so when
//! every variant of a batch has exactly the recorded configuration and the
//! schedule issues every block's memory operations in exactly the recorded
//! order ([`ReplayAnalysis`] keeps the schedule's order), the walk meets
//! the recorded accesses in the recorded order and reads their recorded
//! latencies back instead of pricing them: no class tree is built, every
//! access is a result all lanes share (stamped, above), and every variant's
//! `MemStats` are the recorded ones.  Any other batch, and every profiled
//! walk (its wait causes need the tree's echoes), prices through the class
//! tree.  A recording's pricing whose latencies run out before its accesses
//! or outlast them fails with a typed [`ReplayError`].  On the `structural`
//! benchmark workload every one of a pass's retimes reads its recording
//! (`sweep --metrics` counts such walks as `replay_recorded_walks`); on
//! `memory` none does, since its batches mix configurations.
//!
//! # The class tree
//!
//! Memory is priced through one [`ClassTree`] per batch, a three-level
//! tree over the variants, unless the batch reads its recording's
//! latencies (above):
//!
//! * **fronts**: one L1 front per distinct memory model and L1 geometry.
//!   L1 state never depends on the levels below (`vmv_mem::hierarchy`), so
//!   every variant under a front shares its L1 lookups and coherence
//!   invalidations;
//! * **backs**: one L2/L3 back per tag-equivalence class
//!   ([`vmv_mem::tag_equivalent_configs`]: model, cache geometry and port
//!   width) under its front, except that the classes that differ only in
//!   L2 size and associativity share one back.  Until some class's L2
//!   would evict, each of them holds exactly the lines filled so far, so
//!   one shared L2 (the most sets and fewest ways of any class) and one L3
//!   decide for all of them.  At the first L2 allocation that would make
//!   some class evict, the walk stops, and the batch is walked again from
//!   the start with one back per tag class, paying its shared prefix
//!   twice; the stopped walk adds only `mem_shared_backs`, one
//!   `mem_back_splits` and its `replay_batch_ns` span to the telemetry;
//! * **members**: one latency column per variant in its back's pricer,
//!   which turns each of the back's access echoes into every member's
//!   latency at once (members' `MemStats` differ only in the stall total).
//!
//! A scalar access that hits the front on every line calls no back and no
//! pricer: each lane takes its own L1 latency, and when every lane has the
//! same one the tree returns that single latency, so the load's result is
//! stamped (above).  On the `memory` benchmark workload (seed 1) 98.3 % of
//! the scalar accesses hit, so each batch walks the L1 once instead of
//! once per class.  A vector access runs every
//! back's L2 walk; the first back under each front invalidates the L1
//! lines and the others push down the dirty lines it found.  On that
//! workload no L2 of its twelve geometries ever evicts, so each batch
//! walks one shared back where it walked twelve (`sweep --metrics` counts
//! `mem_shared_backs` 36 and `mem_back_splits` 0 per pass).  The walk lays
//! its lanes out front by front, back by back and class by class, so every
//! back prices into a contiguous run of lanes.

use std::ops::Range;
use std::sync::Arc;

use vmv_isa::{Opcode, MAX_VL, NO_SLOT};
use vmv_machine::MachineConfig;
use vmv_mem::{
    transfer_cycles, AccessEcho, AccessKind, ClassTree, LaneLatency, MemStats, MemoryModel,
};
use vmv_sched::LoweredProgram;

use crate::exec::MemAccess;
use crate::profile::{
    BatchProfiler, BatchSink, Binding, Cause, NoBatchProfile, Profile, ProfileStatics,
};
use crate::stats::RunStats;
use crate::trace::{memory_order, Pricing, Trace, TraceLayout};

/// Flag bits of [`DynOp::flags`].
const F_MEM: u8 = 1 << 0;
const F_SETVL: u8 = 1 << 1;
const F_HALT: u8 = 1 << 2;
const F_READS_VL: u8 = 1 << 3;
const F_STORE: u8 = 1 << 4;
const F_VECTOR: u8 = 1 << 5;

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
        (end < vmv_mem::ADDRESS_LIMIT).then_some(MemAccess {
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
/// group call that retimes, through the program's [`TraceLayout`]
/// ([`Self::with_layout`]).
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
    /// This schedule's memory issue order, matched against
    /// [`Pricing::order`].
    memory_order: Vec<u32>,
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
    /// The analysis of `program`, which derives its program's
    /// [`TraceLayout`] on the way.
    pub fn build(program: &LoweredProgram) -> ReplayAnalysis {
        let (layout, entry) = TraceLayout::with_entries(program);
        ReplayAnalysis::build_from(program, &layout, &entry)
    }

    /// The analysis of `program`, one schedule of the program `layout` was
    /// built from: its operations find their trace entries through their
    /// source positions.  A schedule that does not place exactly the
    /// layout's operations at its positions (another program's, say) is
    /// analysed on its own layout, as [`Self::build`] does, so replaying a
    /// trace of `layout`'s program against it fails with
    /// [`ReplayError::ProgramMismatch`].
    pub fn with_layout(program: &LoweredProgram, layout: &TraceLayout) -> ReplayAnalysis {
        match layout.entries(program) {
            Some(entry) => ReplayAnalysis::build_from(program, layout, &entry),
            None => ReplayAnalysis::build(program),
        }
    }

    /// The analysis of `program`, whose operation `i` (in issue order) files
    /// its values at `entry[i]` of its block instance's runs.
    fn build_from(program: &LoweredProgram, layout: &TraceLayout, entry: &[u32]) -> ReplayAnalysis {
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
                            entry: entry[op_idx as usize],
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
            memory_order: memory_order(program),
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
    /// The trace's recorded pricing ran out after `consumed` accesses,
    /// before its accesses did.
    TruncatedLatencies { consumed: usize },
    /// Recorded latencies were left over after the last access.
    TrailingLatencies { latencies: usize },
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
            ReplayError::TruncatedLatencies { consumed } => {
                write!(
                    f,
                    "trace truncated: only {consumed} accesses have recorded latencies"
                )
            }
            ReplayError::TrailingLatencies { latencies } => {
                write!(f, "trace has {latencies} unconsumed recorded latencies")
            }
            ReplayError::CycleLimit(c) => write!(f, "cycle limit of {c} exceeded during replay"),
        }
    }
}
impl std::error::Error for ReplayError {}

/// The per-variant timing parameters of a batched replay: the memory model
/// and machine fields the walk prices against.  Construction is free — the
/// walk itself places each variant in its batch's [`ClassTree`] (under the
/// L1 front of its L1 geometry and the back of its tag class).  Everything
/// else (scoreboard, stall offset, L2-port cursor) lives in the walk's
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

/// The batch's scoreboard (module docs, "One shared clock for K
/// variants"): per slot a scalar bound and an epoch stamp, and a row of
/// per-lane ready cycles that is written only for results that differ by
/// lane.  Every method taking `offset` reads the batch width from its
/// length.
struct Scoreboard {
    /// Absolute ready cycles, slot-major: `rows[slot * k + lane]`.
    rows: Vec<u64>,
    /// `max_l(ready - offset[l])` when the slot was written; offsets only
    /// grow, so it stays an upper bound until the next write.
    bound: Vec<u64>,
    /// `epoch` when the slot's last write was shared and made in this
    /// epoch: lane `l` is then ready at `bound + offset[l]`.  `epoch + 1`
    /// when it was stamped in this epoch and then written per lane; below
    /// `epoch` when it was not stamped in this epoch.  Either way its row
    /// holds it.
    stamp: Vec<u64>,
    /// The current epoch, even; [`Self::settle`] starts the next.
    epoch: u64,
    /// The slots stamped in this epoch, each once.
    stamped: Vec<u16>,
}

impl Scoreboard {
    fn new(slots: usize, k: usize) -> Scoreboard {
        Scoreboard {
            rows: vec![0; slots * k],
            bound: vec![0; slots],
            stamp: vec![0; slots],
            epoch: 2,
            stamped: Vec::with_capacity(slots),
        }
    }

    /// Whether some lane may still wait for `slot` at shared cycle `at`.
    #[inline(always)]
    fn busy(&self, slot: u16, at: u64) -> bool {
        self.bound[slot as usize] > at
    }

    /// A write that completes at shared cycle `done` in every lane: the
    /// bound is exact, and the stamp stands for the row.
    #[inline(always)]
    fn write_shared(&mut self, slot: u16, done: u64) {
        let s = slot as usize;
        self.bound[s] = done;
        if self.stamp[s] < self.epoch {
            self.stamped.push(slot);
        }
        self.stamp[s] = self.epoch;
    }

    /// A write that completes `latency[l]` cycles after shared cycle `at`
    /// on lane `l`'s clock.
    #[inline(always)]
    fn write_lanes(&mut self, slot: u16, at: u64, offset: &[u64], latency: &[u64]) {
        let (s, k) = (slot as usize, offset.len());
        let row = &mut self.rows[s * k..s * k + k];
        let mut longest = 0;
        for l in 0..k {
            row[l] = at + offset[l] + latency[l];
            longest = longest.max(latency[l]);
        }
        self.bound[s] = at + longest;
        self.stamp[s] |= 1;
    }

    /// Lane `l`'s ready cycle of `slot`, exact while the slot is
    /// [`Self::busy`] at the current segment's issue cycle.
    #[inline(always)]
    fn lane(&self, slot: u16, l: usize, offset: &[u64]) -> u64 {
        let s = slot as usize;
        if self.stamp[s] == self.epoch {
            self.bound[s] + offset[l]
        } else {
            self.rows[s * offset.len() + l]
        }
    }

    /// Raise each lane's issue cycle to its ready cycle of the busy `slot`.
    #[inline(always)]
    fn raise(&self, slot: u16, offset: &[u64], issue: &mut [u64]) {
        let (s, k) = (slot as usize, offset.len());
        if self.stamp[s] == self.epoch {
            let bound = self.bound[s];
            for l in 0..k {
                issue[l] = issue[l].max(bound + offset[l]);
            }
        } else {
            let row = &self.rows[s * k..s * k + k];
            for l in 0..k {
                issue[l] = issue[l].max(row[l]);
            }
        }
    }

    /// Called at the segment issuing at shared cycle `at` before any
    /// offset grows: write out the rows of the stamped slots still busy,
    /// under the offsets they were stamped with, and start a new epoch.
    /// A stamped slot that is not busy keeps a stale row: no later segment
    /// reads a slot whose bound is at most `at` before writing it again.
    fn settle(&mut self, at: u64, offset: &[u64]) {
        let k = offset.len();
        for &slot in &self.stamped {
            let s = slot as usize;
            if self.stamp[s] == self.epoch && self.busy(slot, at) {
                let bound = self.bound[s];
                for (r, &o) in self.rows[s * k..s * k + k].iter_mut().zip(offset) {
                    *r = bound + o;
                }
            }
        }
        self.stamped.clear();
        self.epoch += 2;
    }
}

/// How one walk prices its memory accesses for every lane.
trait LaneMemory {
    /// The batch position of the variant each lane retimes.
    fn lane_variants(&self) -> &[usize];

    /// Every lane's latency of `access`; `heard` hears each run of lanes
    /// that shares an echo (the profiler's wait causes).
    fn price(
        &mut self,
        access: &MemAccess,
        heard: impl FnMut(Range<usize>, &AccessEcho),
    ) -> Result<LaneLatency<'_>, ReplayError>;

    /// Whether some latency priced so far is not exact and the walk must
    /// stop: a back shared by several tag classes overflowed (module docs,
    /// "The class tree").
    fn overflowed(&self) -> bool {
        false
    }

    /// Every variant's memory statistics, in batch order, once the walk
    /// has made its last access.
    fn finish(self) -> Result<Vec<MemStats>, ReplayError>;
}

impl LaneMemory for ClassTree {
    fn lane_variants(&self) -> &[usize] {
        self.lane_configs()
    }

    /// Each front looks the L1 up once, and only accesses that reach below
    /// it walk each class's L2/L3 tags (module docs).
    #[inline]
    fn price(
        &mut self,
        access: &MemAccess,
        heard: impl FnMut(Range<usize>, &AccessEcho),
    ) -> Result<LaneLatency<'_>, ReplayError> {
        let kind = if access.is_store {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let MemAccess {
            base,
            stride,
            elems,
            bytes,
            ..
        } = *access;
        Ok(if access.is_vector {
            LaneLatency::Lanes(self.vector_access(base, stride, elems, kind, heard))
        } else {
            self.scalar_access(base, bytes, kind, heard)
        })
    }

    fn overflowed(&self) -> bool {
        ClassTree::overflowed(self)
    }

    fn finish(self) -> Result<Vec<MemStats>, ReplayError> {
        Ok(self.stats())
    }
}

/// The recording's own pricing, read back in execution order: every lane
/// has the recorded configuration, so every access costs every lane its
/// recorded latency (module docs, "Recorded latencies").
struct Recorded<'t> {
    pricing: &'t Pricing,
    /// The next access to price, and the next of [`Pricing::latencies`]
    /// to read.
    next: usize,
    next_latency: usize,
    /// Lane `l` retimes variant `l`.
    lanes: Vec<usize>,
}

impl<'t> Recorded<'t> {
    fn new(pricing: &'t Pricing, variants: &[VariantState]) -> Recorded<'t> {
        Recorded {
            pricing,
            next: 0,
            next_latency: 0,
            lanes: (0..variants.len()).collect(),
        }
    }
}

impl LaneMemory for Recorded<'_> {
    fn lane_variants(&self) -> &[usize] {
        &self.lanes
    }

    #[inline]
    fn price(
        &mut self,
        _access: &MemAccess,
        _heard: impl FnMut(Range<usize>, &AccessEcho),
    ) -> Result<LaneLatency<'_>, ReplayError> {
        let (p, i) = (self.pricing, self.next);
        let truncated = ReplayError::TruncatedLatencies { consumed: i };
        let word = match p.l1.get(i / 64) {
            Some(&word) if i < p.accesses => word,
            _ => return Err(truncated),
        };
        let latency = if word >> (i % 64) & 1 != 0 {
            p.memory.l1_latency
        } else {
            let latency = *p.latencies.get(self.next_latency).ok_or(truncated)?;
            self.next_latency += 1;
            latency
        };
        self.next += 1;
        Ok(LaneLatency::Shared(latency as u64))
    }

    fn finish(self) -> Result<Vec<MemStats>, ReplayError> {
        let p = self.pricing;
        let left = (p.accesses - self.next) + (p.latencies.len() - self.next_latency);
        if left > 0 {
            return Err(ReplayError::TrailingLatencies { latencies: left });
        }
        vmv_obs::incr(vmv_obs::Counter::ReplayRecordedWalks);
        Ok(vec![p.stats; self.lanes.len()])
    }
}

/// The trace's recorded pricing when it prices this whole batch: every
/// variant has the recorded configuration, and this schedule issues every
/// block's memory operations in the recorded order.
fn recorded_pricing<'t>(
    trace: &'t Trace,
    analysis: &ReplayAnalysis,
    variants: &[VariantState],
) -> Option<&'t Pricing> {
    let pricing = trace.pricing.as_ref()?;
    let recorded = (pricing.model, pricing.memory, pricing.port_elems);
    let same = variants
        .iter()
        .all(|v| (v.model, v.memory, v.port_elems) == recorded);
    (same && pricing.order == analysis.memory_order).then_some(pricing)
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
    let pricing = recorded_pricing(trace, analysis, variants);
    rewalk_on_overflow(|share_backs| match pricing {
        Some(pricing) => replay_batch_on(trace, analysis, variants, |variants| {
            Recorded::new(pricing, variants)
        }),
        None => replay_batch_on(trace, analysis, variants, |variants| {
            class_tree(variants, share_backs)
        }),
    })
}

/// [`replay_batch`] on the memory `memory` builds for the variants.  A
/// single variant (a group call retiming one variant) gets the walk
/// compiled for a width of exactly one: the per-variant loops collapse to
/// straight-line code, as fast as a dedicated single-variant walk.
fn replay_batch_on<M: LaneMemory>(
    trace: &Trace,
    analysis: &ReplayAnalysis,
    variants: &mut [VariantState],
    memory: impl FnOnce(&[VariantState]) -> M,
) -> Result<Option<Vec<RunStats>>, ReplayError> {
    if variants.len() == 1 {
        replay_batch_with::<_, _, 1>(trace, analysis, variants, memory, &mut NoBatchProfile)
    } else {
        replay_batch_with::<_, _, 0>(trace, analysis, variants, memory, &mut NoBatchProfile)
    }
}

/// The class tree of `variants` (module docs, "The class tree"), with one
/// back per group of tag classes when `share_backs`, else per class.
fn class_tree(variants: &[VariantState], share_backs: bool) -> ClassTree {
    let configs: Vec<_> = variants
        .iter()
        .map(|v| (v.model, v.memory, v.port_elems))
        .collect();
    ClassTree::new(&configs, share_backs)
}

/// Run `walk` on class trees that share backs and, when it stops because
/// one of them overflowed (`None`), once more on trees with one back per
/// tag class (module docs, "The class tree").
fn rewalk_on_overflow<T>(
    mut walk: impl FnMut(bool) -> Result<Option<T>, ReplayError>,
) -> Result<T, ReplayError> {
    if let Some(out) = walk(true)? {
        return Ok(out);
    }
    vmv_obs::incr(vmv_obs::Counter::MemBackSplits);
    Ok(walk(false)?.expect("a tree with one back per tag class never overflows"))
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
    let (out, bp) = rewalk_on_overflow(|share_backs| {
        let mut bp = BatchProfiler::new(statics, variants.len());
        let memory = |variants: &[VariantState]| class_tree(variants, share_backs);
        let out = replay_batch_with::<_, _, 0>(trace, analysis, variants, memory, &mut bp)?;
        Ok(out.map(|out| (out, bp)))
    })?;
    let profiles = bp.finish();
    for p in &profiles {
        p.record_obs();
    }
    Ok((out, profiles))
}

/// The fused walk, pricing memory on what `memory` builds for the
/// variants.  `WIDTH` is the batch width when known at compile time (it
/// must then equal `variants.len()`), or 0 to read it at run time.
/// `None` when the walk stopped because its memory overflowed; such a walk
/// counts no replay.
fn replay_batch_with<BP: BatchSink, M: LaneMemory, const WIDTH: usize>(
    trace: &Trace,
    analysis: &ReplayAnalysis,
    variants: &mut [VariantState],
    memory: impl FnOnce(&[VariantState]) -> M,
    bp: &mut BP,
) -> Result<Option<Vec<RunStats>>, ReplayError> {
    debug_assert!(WIDTH == 0 || WIDTH == variants.len());
    let k = if WIDTH == 0 { variants.len() } else { WIDTH };
    if k == 0 {
        return Ok(Some(Vec::new()));
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

    // The memory: the recording's own latencies, or the class tree (one
    // L1 front per distinct model and L1 geometry, one L2/L3 back per
    // tag-equivalence class under it or per group of classes that differ
    // only in L2 size and associativity, and one latency column per
    // variant).  The tree lays its lanes out front by front and back by
    // back, so each back prices into a contiguous run of lanes;
    // `lane_variant` maps a lane back to its batch position.
    let mut memory = memory(variants);
    let lane_variant: Vec<usize> = memory.lane_variants().to_vec();
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
    // scoreboard keeps per slot a bound on every lane's ready cycle, and a
    // per-lane row only for results that differ by lane (module docs); the
    // L2 port keeps a per-lane cursor and a bound.  `slack` is
    // `min_l(max_cycles[l] - offset[l])`: no lane has overrun its own cap
    // while `base <= slack`.
    let mut base = 0u64;
    let mut offset: Vec<u64> = vec![0; k];
    let mut board = Scoreboard::new(analysis.total_slots(), k);
    let mut port_free: Vec<u64> = vec![0; k];
    let mut port_bound = 0u64;
    let mut slack = max_cycles.iter().copied().min().unwrap_or(u64::MAX);
    let mut issue: Vec<u64> = vec![0; k];
    // Per-variant wait-level causes for one memory access (batch order),
    // broadcast from the echo each run of lanes shares (a class's members
    // share its hit/miss pattern by construction).
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
            let stalls = port_binds || reads.iter().any(|&slot| board.busy(slot, at));
            if stalls {
                // Some bound failed: price the issue cycle exactly per
                // lane, over only the slots (and port) whose bound failed —
                // the others cannot delay any lane.
                for l in 0..k {
                    issue[l] = at + offset[l];
                }
                for &slot in reads {
                    if board.busy(slot, at) {
                        board.raise(slot, &offset[..k], &mut issue[..k]);
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
                // read slot ready exactly at the issue cycle (untracked
                // slots are provably never the binder), else the L2 port.
                // Only busy slots are looked at: a stalled lane issues
                // after `at + offset[l]`, and every lane of a slot whose
                // bound is at most `at` is ready by then.
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
                            if board.busy(slot, at) && board.lane(slot, l, &offset[..k]) == issue[l]
                            {
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
                // Some offset is about to grow: the stamped results still
                // in flight need their rows under the offsets they were
                // written with.
                if (0..k).any(|l| issue[l] > at + offset[l]) {
                    board.settle(at, &offset[..k]);
                }
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
                board.write_shared(slot, at + latency as u64);
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
                            let occupancy =
                                transfer_cycles(access.stride, access.elems, port_elems[l]) as u64;
                            port_free[l] = at + offset[l] + occupancy;
                            longest = longest.max(occupancy);
                        }
                        port_bound = at + longest;
                        if BP::ENABLED {
                            bp.vec_port_all(op_idx);
                        }
                    }
                    // Memory latency is the one per-variant quantity.
                    let heard = |lanes: std::ops::Range<usize>, echo: &vmv_mem::AccessEcho| {
                        if BP::ENABLED {
                            let cause = Cause::wait_for_echo(echo);
                            for l in lanes {
                                cause_k[lane_variant[l]] = cause;
                            }
                        }
                    };
                    let lat = memory.price(access, heard)?;
                    if op.dst_slot != NO_SLOT {
                        match lat {
                            LaneLatency::Shared(latency) => {
                                board.write_shared(op.dst_slot, at + latency)
                            }
                            LaneLatency::Lanes(lat) => {
                                board.write_lanes(op.dst_slot, at, &offset[..k], &lat[..k])
                            }
                        }
                        if BP::ENABLED {
                            bp.write_k(op_idx, op.dst_slot, &cause_k);
                        }
                    }
                    // Stop before an inexact latency can reach a cycle cap.
                    if memory.overflowed() {
                        return Ok(None);
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
                        board.write_shared(op.dst_slot, at + latency);
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
    let memory = memory.finish()?;
    for (l, &v) in lane_variant.iter().enumerate() {
        let stats = &mut out[v];
        for &id in &analysis.regions {
            stats.region_mut(id);
        }
        for acc in &region_acc {
            let mut r = acc.shared;
            r.cycles += acc.stalls[l];
            r.stall_cycles = acc.stalls[l];
            stats.region_mut(acc.id).add(&r);
        }
        stats.memory = memory[v];
        stats.memory.record_obs();
        vmv_obs::incr(vmv_obs::Counter::TraceReplays);
    }
    vmv_obs::incr(vmv_obs::Counter::ReplayBatches);
    vmv_obs::record_value(vmv_obs::ValueHist::ReplayBatchWidth, k as u64);
    Ok(Some(out))
}
