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
//! A [`Trace`] captures exactly those three streams (and its recording's
//! own pricing, below), so [`crate::replay::replay_batch`] can re-run the
//! *timing* of an execution, pricing its accesses for every variant of a
//! batch through one fresh [`vmv_mem::ClassTree`], without touching
//! `exec_core`, `RegFiles` or `MemImage`.  None of the streams depends on
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
//! A recording also keeps what its own execution's hierarchy priced
//! ([`Pricing`]): its configuration (memory model, memory parameters, L2
//! port width), its memory statistics, one latency per dynamic memory
//! access in execution order, and the memory issue order it was priced in
//! (the source positions of each block's memory operations, in the order
//! the recording schedule issues them).  A hierarchy's state depends only
//! on the stream of accesses it sees, never on time, so that pricing is
//! exact for another schedule under the same configuration that issues
//! every block's memory operations in the same order, and valid for
//! nothing else: replay checks both before reading it.  Almost every
//! access costs the L1 latency, so a latency is one bit unless it differs.
//!
//! The layout of a trace, where each source position files its values,
//! depends on the program alone: [`TraceLayout`] is built once per program
//! and maps the operations of each of its schedules through their source
//! positions.
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
use vmv_machine::{MachineConfig, MemoryParams};
use vmv_mem::{MemStats, MemoryModel};
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
    /// What the recording execution's memory hierarchy priced.
    pub pricing: Option<Pricing>,
}

/// The recording execution's own memory pricing (module docs): exactly
/// what a fresh hierarchy of its configuration prices for another schedule
/// that issues every block's memory operations in `order`, and valid for
/// nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pricing {
    /// The memory model the latencies were priced under.
    pub model: MemoryModel,
    /// The memory parameters they were priced under.
    pub memory: MemoryParams,
    /// The L2 port width, in elements (at least 1).
    pub port_elems: u32,
    /// The memory issue order: the source position of every memory
    /// operation, block by block in block order, each block's in the order
    /// the recording schedule issues them.
    pub order: Vec<u32>,
    /// How many dynamic memory accesses the recording priced.
    pub accesses: usize,
    /// One bit per access in execution order, bit `i % 64` of word
    /// `i / 64`: set when access `i` cost the L1 latency
    /// (`memory.l1_latency`), as almost every scalar access does.
    pub l1: Vec<u64>,
    /// The latency of every access whose bit is clear, in execution order.
    pub latencies: Vec<u32>,
    /// The recording execution's memory statistics.
    pub stats: MemStats,
}

/// The source position of every memory operation of `program`, block by
/// block, in issue order ([`Pricing::order`]).
pub(crate) fn memory_order(program: &LoweredProgram) -> Vec<u32> {
    let mut order = Vec::new();
    for block in &program.blocks {
        let ops = &program.ops[block_ops(program, block)];
        order.extend(
            ops.iter()
                .filter(|op| op.opcode.is_memory())
                .map(|op| op.pos),
        );
    }
    order
}

/// Entries one vector access fills in [`Trace::accesses`]: address, stride
/// and element count.  A scalar access fills one, its address.
pub(crate) const VECTOR_ENTRIES: u32 = 3;

/// Where the operations of one program file their dynamic values in a
/// [`Trace`], by source position: the half of every schedule's
/// [`crate::ReplayAnalysis`] that depends on the program alone.  Built once
/// from any schedule of a program, it maps the operations of every other
/// schedule in O(operations), with no sort and no hash
/// ([`crate::ReplayAnalysis::with_layout`]).
#[derive(Debug, Clone)]
pub struct TraceLayout {
    /// Per block: the index of its first source position in `opcodes`;
    /// one more closes the last block.
    first: Vec<u32>,
    /// Per source position, block-major: the opcode every schedule of the
    /// program places there.
    opcodes: Vec<Opcode>,
    /// Per block: the `accesses` and `vl_sets` entries one instance fills.
    pub(crate) window: Vec<(u32, u32)>,
    /// The fingerprint stamped into [`Trace::program`].
    pub(crate) program: u64,
}

/// FNV-1a: the fingerprint is taken once per program layout, so it must be
/// cheap; traces never outlive their process.
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

/// The operations of one block of `program`.
fn block_ops(program: &LoweredProgram, block: &vmv_sched::LoweredBlock) -> Range<usize> {
    let op_at = |bundle: u32| program.bundle_bounds[bundle as usize] as usize;
    op_at(block.first_bundle)..op_at(block.first_bundle + block.bundle_count)
}

/// The entry `op`, the next operation of its block in source order, files
/// its values at: its first entry within its block instance's run of
/// [`Trace::accesses`] (memory operations) or of [`Trace::vl_sets`]
/// (`setvl`), 0 for every other operation.  `filled` counts the block's
/// access and VL entries so far.
fn file(op: &LoweredOp, filled: &mut (u32, u32)) -> u32 {
    let (accesses, vl_sets) = filled;
    if op.opcode.is_memory() {
        let entry = *accesses;
        *accesses += if op.is_vector_memory {
            VECTOR_ENTRIES
        } else {
            1
        };
        entry
    } else if op.opcode == Opcode::SetVL {
        *vl_sets += 1;
        *vl_sets - 1
    } else {
        0
    }
}

impl TraceLayout {
    /// The layout of `program`'s program.
    pub fn of(program: &LoweredProgram) -> TraceLayout {
        TraceLayout::with_entries(program).0
    }

    /// The layout of `program`'s program, and the entry of each of
    /// `program`'s operations, in issue order.
    pub(crate) fn with_entries(program: &LoweredProgram) -> (TraceLayout, Vec<u32>) {
        let mut entry = vec![0u32; program.ops.len()];
        let mut first = Vec::with_capacity(program.blocks.len() + 1);
        let mut opcodes = Vec::with_capacity(program.ops.len());
        let mut window = Vec::with_capacity(program.blocks.len());
        let mut fingerprint = Fnv(0xcbf2_9ce4_8422_2325);
        program.blocks.len().hash(&mut fingerprint);
        let mut order: Vec<usize> = Vec::new();
        for block in &program.blocks {
            first.push(opcodes.len() as u32);
            // Source order.  `lower` guarantees a permutation of the
            // block; the tie-break also orders a doctored one.
            order.clear();
            order.extend(block_ops(program, block));
            order.sort_unstable_by_key(|&i| (program.ops[i].pos, i));
            order.len().hash(&mut fingerprint);
            let mut filled = (0, 0);
            for &i in &order {
                let op = &program.ops[i];
                op.opcode.hash(&mut fingerprint);
                entry[i] = file(op, &mut filled);
                opcodes.push(op.opcode);
            }
            window.push(filled);
        }
        first.push(opcodes.len() as u32);
        let layout = TraceLayout {
            first,
            opcodes,
            window,
            program: fingerprint.finish(),
        };
        (layout, entry)
    }

    /// The entry of each of `program`'s operations, in issue order, or
    /// `None` when some block of `program` does not place exactly this
    /// layout's operations at its source positions (a schedule of another
    /// program, or positions that are not a permutation).
    pub(crate) fn entries(&self, program: &LoweredProgram) -> Option<Vec<u32>> {
        if program.blocks.len() != self.window.len() {
            return None;
        }
        let mut entry = vec![0u32; program.ops.len()];
        // The operation at each source position of the block.
        let mut at: Vec<usize> = Vec::new();
        for (b, block) in program.blocks.iter().enumerate() {
            let opcodes = &self.opcodes[self.first[b] as usize..self.first[b + 1] as usize];
            let ops = block_ops(program, block);
            if ops.len() != opcodes.len() {
                return None;
            }
            at.clear();
            at.resize(ops.len(), usize::MAX);
            for i in ops {
                let slot = at.get_mut(program.ops[i].pos as usize)?;
                if *slot != usize::MAX {
                    return None;
                }
                *slot = i;
            }
            let mut filled = (0, 0);
            for (&i, &opcode) in at.iter().zip(opcodes) {
                let op = &program.ops[i];
                if op.opcode != opcode || op.is_vector_memory != opcode.is_vector_memory() {
                    return None;
                }
                entry[i] = file(op, &mut filled);
            }
            if filled != self.window[b] {
                return None;
            }
        }
        Some(entry)
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
    /// The memory access the last operation made cost `latency` cycles.
    fn latency(&mut self, latency: u32);
}

/// The non-recording sink: every hook is an empty inline function.
pub struct NoTrace;

impl TraceSink for NoTrace {
    #[inline(always)]
    fn block(&mut self, _block: u32) {}
    #[inline(always)]
    fn op(&mut self, _op: &LoweredOp, _access: &Option<MemAccess>, _regs: &RegFiles) {}
    #[inline(always)]
    fn latency(&mut self, _latency: u32) {}
}

/// Accumulates a [`Trace`] of `program` while the engine runs it.  The hot
/// loop appends each block instance's entries in issue order, as cheaply as
/// an issue-ordered trace, and each access's latency;
/// [`TraceRecorder::finish`] then moves the runs of the blocks this schedule
/// reorders into source order, once.
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
    /// The recording's pricing so far; its statistics are filled in by
    /// [`TraceRecorder::finish`].
    pricing: Pricing,
}

impl TraceRecorder {
    /// A recorder of `program` run under `model` on `machine`, starting
    /// with VL `initial_vl`.
    pub fn new(
        program: &LoweredProgram,
        initial_vl: u32,
        model: MemoryModel,
        machine: &MachineConfig,
    ) -> TraceRecorder {
        let (layout, entry) = TraceLayout::with_entries(program);
        let mut to = Vec::new();
        let mut reorder = Vec::with_capacity(program.blocks.len());
        for block in &program.blocks {
            let ops = block_ops(program, block);
            let accesses = to.len();
            for i in ops.clone() {
                let op = &program.ops[i];
                if op.opcode.is_memory() {
                    let n = if op.is_vector_memory {
                        VECTOR_ENTRIES
                    } else {
                        1
                    };
                    to.extend(entry[i]..entry[i] + n);
                }
            }
            let vl_sets = to.len();
            to.extend(
                ops.filter(|&i| program.ops[i].opcode == Opcode::SetVL)
                    .map(|i| entry[i]),
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
            pricing: Pricing {
                model,
                memory: machine.memory,
                port_elems: machine.l2_port_elems.max(1),
                order: memory_order(program),
                accesses: 0,
                l1: Vec::new(),
                latencies: Vec::new(),
                stats: MemStats::default(),
            },
        }
    }

    /// The recorded trace, every block instance's runs in source order,
    /// with the recording's pricing; the run ended with memory statistics
    /// `stats`.
    pub fn finish(mut self, stats: MemStats) -> Trace {
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
        // Kept for the program's lifetime: no spare capacity.
        self.pricing.l1.shrink_to_fit();
        self.pricing.latencies.shrink_to_fit();
        self.trace.pricing = Some(Pricing {
            stats,
            ..self.pricing
        });
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

    #[inline]
    fn latency(&mut self, latency: u32) {
        let p = &mut self.pricing;
        let bit = p.accesses % 64;
        if bit == 0 {
            p.l1.push(0);
        }
        if latency == p.memory.l1_latency {
            *p.l1.last_mut().expect("pushed above") |= 1 << bit;
        } else {
            p.latencies.push(latency);
        }
        p.accesses += 1;
    }
}
