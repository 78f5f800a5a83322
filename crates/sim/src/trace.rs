//! Timing traces: everything the cycle-level timing model consumes from one
//! functional execution, and nothing else, filed so that one recording
//! serves every schedule of its program.
//!
//! The engine's per-operation timing depends on three dynamic quantities
//! only: the sequence of blocks the program actually executed (branch
//! outcomes), the dynamic fields of every memory access (address, and for
//! vector accesses stride and element count — what the hierarchy model
//! prices), and the value of the vector-length register at each
//! VL-dependent operation.  Everything else — read/write slots, flow
//! latencies, lane counts, access widths and directions, micro-op units —
//! is static in the [`vmv_sched::LoweredProgram`].
//!
//! A [`Trace`] captures exactly those three streams, so
//! [`crate::replay::replay_batch`] can re-run the *timing* of an execution,
//! pricing its accesses for every variant of a batch through one fresh
//! [`vmv_mem::ClassTree`], without touching `exec_core`, `RegFiles` or
//! `MemImage`.  None of the streams depends on
//! memory-hierarchy parameters or the memory model (functional values never
//! change with timing).  Nor do they depend on the schedule: the machines
//! of one ISA run the same program `(benchmark, ISA variant)` and differ
//! only in how its blocks are scheduled, and a legal schedule only permutes
//! a block's operations.  Values are therefore filed by an operation's
//! *source position* in its block ([`vmv_sched::ScheduledBlock::positions`]),
//! not by issue order: each block instance owns one run of entries, filled
//! operation by operation in source order.  A trace recorded on one
//! schedule retimes every other schedule of its program, and every memory
//! variant of each, bit-identically.
//!
//! Trust: a schedule retimed from another schedule's trace reports the
//! recording's output checks.  That both compute the same values at every
//! source position is certified statically (`vmv_verify::verify_compiled`
//! checks that each schedule's positions are a dependence-preserving
//! permutation) and pinned by `tests/trace_replay.rs`, which records every
//! schedule of the Table 2 presets and of two committed studies and finds
//! each program's traces equal.

use std::hash::{Hash, Hasher};
use std::ops::Range;

use vmv_isa::Opcode;
use vmv_sched::{LoweredOp, LoweredProgram};

use crate::exec::MemAccess;
use crate::regfile::RegFiles;

/// A recorded timing trace of one complete (halting) execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Fingerprint of the program the trace was recorded from: its blocks
    /// and the opcodes of each in source order, the same for every schedule
    /// of the program.  Replay rejects a trace whose fingerprint differs.
    pub program: u64,
    /// Value of the VL register when execution started.
    pub initial_vl: u32,
    /// Indices of the blocks the program executed, in order.  The last
    /// block is the one that executed `halt`.
    pub blocks: Vec<u32>,
    /// The dynamic fields of every memory access, one run per block
    /// instance, operation by operation in source order: the address, and
    /// for a vector access then its stride (as two's complement) and its
    /// element count.
    pub accesses: Vec<u64>,
    /// The value written to the VL register by every executed `setvl`, one
    /// run per block instance, in source order.
    pub vl_sets: Vec<u32>,
}

/// Entries one vector access fills in [`Trace::accesses`]: address, stride
/// and element count.  A scalar access fills one, its address.
pub(crate) const VECTOR_ENTRIES: u32 = 3;

/// Where the operations of one lowered program file their dynamic values in
/// a [`Trace`].  Built from any schedule of a program, it assigns the same
/// entries to the same source positions, and the same fingerprint.
#[derive(Debug)]
pub(crate) struct TraceLayout {
    /// Per operation, in issue order: its first entry within its block
    /// instance's run of [`Trace::accesses`] (memory operations) or of
    /// [`Trace::vl_sets`] (`setvl`); 0 for every other operation.
    pub(crate) entry: Vec<u32>,
    /// Per block: the `accesses` and `vl_sets` entries one instance fills.
    pub(crate) window: Vec<(u32, u32)>,
    /// The fingerprint stamped into [`Trace::program`].
    pub(crate) program: u64,
}

/// FNV-1a: the fingerprint is taken once per recording and per replay
/// analysis, so it must be cheap; traces never outlive their process.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl TraceLayout {
    pub(crate) fn of(program: &LoweredProgram) -> TraceLayout {
        let mut entry = vec![0u32; program.ops.len()];
        let mut window = Vec::with_capacity(program.blocks.len());
        let mut fingerprint = Fnv(0xcbf2_9ce4_8422_2325);
        program.blocks.len().hash(&mut fingerprint);
        let mut order: Vec<usize> = Vec::new();
        for block in &program.blocks {
            let op_at = |bundle: u32| program.bundle_bounds[bundle as usize] as usize;
            let ops = op_at(block.first_bundle)..op_at(block.first_bundle + block.bundle_count);
            // Source order.  `lower` guarantees a permutation of the
            // block; the tie-break also orders a doctored one.
            order.clear();
            order.extend(ops);
            order.sort_unstable_by_key(|&i| (program.ops[i].pos, i));
            order.len().hash(&mut fingerprint);
            let (mut accesses, mut vl_sets) = (0u32, 0u32);
            for &i in &order {
                let op = &program.ops[i];
                op.opcode.hash(&mut fingerprint);
                if op.opcode.is_memory() {
                    entry[i] = accesses;
                    accesses += if op.is_vector_memory {
                        VECTOR_ENTRIES
                    } else {
                        1
                    };
                } else if op.opcode == Opcode::SetVL {
                    entry[i] = vl_sets;
                    vl_sets += 1;
                }
            }
            window.push((accesses, vl_sets));
        }
        TraceLayout {
            entry,
            window,
            program: fingerprint.finish(),
        }
    }
}

/// Observer of the engine's execution, called from the hot loop.  The
/// no-op implementation ([`NoTrace`]) must monomorphise away entirely —
/// `run_lowered` pays nothing when not recording.
pub trait TraceSink {
    /// A block is about to execute.
    fn block(&mut self, block: u32);
    /// One operation just executed: its memory access (if any) and the
    /// post-execution register state.  The engine reports every operation
    /// of a block, in issue order.
    fn op(&mut self, op: &LoweredOp, access: &Option<MemAccess>, regs: &RegFiles);
}

/// The non-recording sink: every hook is an empty inline function.
pub struct NoTrace;

impl TraceSink for NoTrace {
    #[inline(always)]
    fn block(&mut self, _block: u32) {}
    #[inline(always)]
    fn op(&mut self, _op: &LoweredOp, _access: &Option<MemAccess>, _regs: &RegFiles) {}
}

/// Accumulates a [`Trace`] of `program` while the engine runs it.  The hot
/// loop appends each block instance's entries in issue order, as cheaply as
/// an issue-ordered trace; [`TraceRecorder::finish`] then moves the runs of
/// the blocks this schedule reorders into source order, once.
pub struct TraceRecorder {
    trace: Trace,
    /// Per block: the `accesses` and `vl_sets` entries one instance fills.
    window: Vec<(u32, u32)>,
    /// Per block whose issue order differs from its source order: the
    /// ranges of `to` that place its access and VL entries.
    reorder: Vec<Option<(Range<usize>, Range<usize>)>>,
    /// Source-order index, within its block instance's run, of each entry
    /// in issue order.
    to: Vec<u32>,
}

impl TraceRecorder {
    pub fn new(program: &LoweredProgram, initial_vl: u32) -> TraceRecorder {
        let layout = TraceLayout::of(program);
        let mut to = Vec::new();
        let mut reorder = Vec::with_capacity(program.blocks.len());
        for block in &program.blocks {
            let op_at = |bundle: u32| program.bundle_bounds[bundle as usize] as usize;
            let ops = op_at(block.first_bundle)..op_at(block.first_bundle + block.bundle_count);
            let accesses = to.len();
            for i in ops.clone() {
                let op = &program.ops[i];
                if op.opcode.is_memory() {
                    let n = if op.is_vector_memory {
                        VECTOR_ENTRIES
                    } else {
                        1
                    };
                    to.extend(layout.entry[i]..layout.entry[i] + n);
                }
            }
            let vl_sets = to.len();
            to.extend(
                ops.filter(|&i| program.ops[i].opcode == Opcode::SetVL)
                    .map(|i| layout.entry[i]),
            );
            let in_order = |run: &[u32]| run.iter().enumerate().all(|(k, &t)| t as usize == k);
            let (access_run, vl_run) = (accesses..vl_sets, vl_sets..to.len());
            reorder.push(
                (!in_order(&to[access_run.clone()]) || !in_order(&to[vl_run.clone()]))
                    .then_some((access_run, vl_run)),
            );
        }
        TraceRecorder {
            trace: Trace {
                program: layout.program,
                initial_vl,
                ..Trace::default()
            },
            window: layout.window,
            reorder,
            to,
        }
    }

    /// The recorded trace, every block instance's runs in source order.
    pub fn finish(mut self) -> Trace {
        let (mut a, mut v) = (0, 0);
        let (mut accesses, mut vl_sets) = (Vec::new(), Vec::new());
        for &block in &self.trace.blocks {
            let (wa, wv) = self.window[block as usize];
            let (wa, wv) = (wa as usize, wv as usize);
            if let Some((access_run, vl_run)) = &self.reorder[block as usize] {
                let to = &self.to;
                place(
                    &mut self.trace.accesses[a..a + wa],
                    &to[access_run.clone()],
                    &mut accesses,
                );
                place(
                    &mut self.trace.vl_sets[v..v + wv],
                    &to[vl_run.clone()],
                    &mut vl_sets,
                );
            }
            a += wa;
            v += wv;
        }
        self.trace
    }
}

/// Move the issue-ordered entries of one run to their source-order slots.
fn place<T: Copy>(run: &mut [T], to: &[u32], scratch: &mut Vec<T>) {
    scratch.clear();
    scratch.extend_from_slice(run);
    for (&value, &t) in scratch.iter().zip(to) {
        run[t as usize] = value;
    }
}

/// The stride and element count of a vector access, after its address.
#[inline(never)]
fn push_vector_shape(accesses: &mut Vec<u64>, access: &MemAccess) {
    accesses.extend_from_slice(&[access.stride as u64, access.elems as u64]);
}

impl TraceSink for TraceRecorder {
    #[inline]
    fn block(&mut self, block: u32) {
        self.trace.blocks.push(block);
    }

    #[inline]
    fn op(&mut self, op: &LoweredOp, access: &Option<MemAccess>, regs: &RegFiles) {
        if let Some(a) = access {
            self.trace.accesses.push(a.base);
            if op.is_vector_memory {
                push_vector_shape(&mut self.trace.accesses, a);
            }
        } else if op.opcode == Opcode::SetVL {
            self.trace.vl_sets.push(regs.vl);
        }
    }
}
