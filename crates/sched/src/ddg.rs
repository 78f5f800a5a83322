//! Data-dependence graph (DDG) construction for one basic block.
//!
//! The scheduler operates per basic block (the hand-written kernels unroll
//! their hot loops, which plays the role of the superblock formation used by
//! the paper's Trimaran tool-chain).  Edges carry the minimum issue distance
//! between the two operations, derived from the HPL-PD latency descriptors
//! of Fig. 3 and, for vector RAW dependences, from the chaining rule of
//! §3.3.
//!
//! The bookkeeping tables are dense: the last writer of every register and
//! the readers since that write are arrays indexed by the register
//! numbering of [`crate::regalloc`], sized from the block's own registers
//! (the public [`crate::list::schedule_block`] also takes unallocated code).
//! The readers of a register form a linked list threaded through one flat
//! array.  The finished graph keeps its edges in compressed sparse rows
//! grouped by source operation, so an operation's successors are one slice.

use vmv_isa::{Op, Reg, RegClass};
use vmv_machine::MachineConfig;

use crate::regalloc::RegNumbering;

/// Marker for "no entry" in the bookkeeping tables.
const NONE: u32 = u32::MAX;

/// Why two operations are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Read-after-write (true / flow dependence).
    Raw,
    /// Write-after-read (anti dependence).
    War,
    /// Write-after-write (output dependence).
    Waw,
    /// Conservative memory ordering (store↔store, store↔load).
    Mem,
    /// Ordering edge keeping control transfers at the end of the block.
    Control,
}

/// One dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    pub from: u32,
    pub to: u32,
    pub kind: DepKind,
    /// Minimum number of cycles between the issue of `from` and the issue of
    /// `to`.
    pub latency: u32,
}

/// The dependence graph of one basic block.
#[derive(Debug, Clone)]
pub struct DepGraph {
    pub num_ops: usize,
    /// Every edge, grouped by source: op `i`'s successors are
    /// `edges[succ_start[i]..succ_start[i + 1]]`.
    edges: Vec<DepEdge>,
    succ_start: Vec<u32>,
    /// Number of edges ending at each op.
    pred_counts: Vec<u32>,
}

impl DepGraph {
    /// Build the dependence graph of `ops` for the given machine.
    pub fn build(ops: &[Op], machine: &MachineConfig) -> Self {
        let n = ops.len();
        let mut edges: Vec<DepEdge> = Vec::with_capacity(4 * n);

        // For RAW edges we need, for every register, the index of the last
        // writer; for WAR/WAW edges the readers since that write as well.
        // `reader_head[r]` is the newest reader node of register `r`, and
        // each node of `readers` is `(op, older node)`.
        let regs = RegNumbering::of(ops);
        let mut last_writer = vec![NONE; regs.len()];
        let mut reader_head = vec![NONE; regs.len()];
        let mut readers: Vec<(u32, u32)> = Vec::with_capacity(2 * n);
        let mut last_store: Option<u32> = None;
        let mut loads_since_store: Vec<u32> = Vec::new();

        for (i, op) in ops.iter().enumerate() {
            let to = i as u32;
            let mut edge = |from: u32, kind: DepKind, latency: u32| {
                edges.push(DepEdge {
                    from,
                    to,
                    kind,
                    latency,
                })
            };

            // RAW: this op reads a register written earlier in the block.
            for r in op.reads() {
                let w = last_writer[regs.number(r)];
                if w != NONE {
                    edge(
                        w,
                        DepKind::Raw,
                        raw_latency(&ops[w as usize], op, r, machine),
                    );
                }
            }

            if let Some(dst) = op.dst {
                let d = regs.number(dst);
                // WAW: ordered after the previous writer.
                if last_writer[d] != NONE {
                    edge(last_writer[d], DepKind::Waw, 1);
                }
                // WAR: ordered after the readers since that write.
                let mut node = reader_head[d];
                while node != NONE {
                    let (reader, older) = readers[node as usize];
                    edge(reader, DepKind::War, 0);
                    node = older;
                }
            }

            // Memory ordering: conservative (no alias analysis inside a
            // block; the kernels' memory disambiguation is achieved by
            // keeping independent accesses in separate registers/blocks).
            if op.opcode.is_store() {
                if let Some(s) = last_store {
                    edge(s, DepKind::Mem, 1);
                }
                for &l in &loads_since_store {
                    edge(l, DepKind::Mem, 0);
                }
                last_store = Some(to);
                loads_since_store.clear();
            } else if op.opcode.is_load() {
                if let Some(s) = last_store {
                    edge(s, DepKind::Mem, 1);
                }
                loads_since_store.push(to);
            }

            // Control transfers stay at the end of the block: every earlier
            // operation must issue no later than the branch.
            if op.opcode.is_branch() || op.opcode == vmv_isa::Opcode::Halt {
                for j in 0..to {
                    edge(j, DepKind::Control, 0);
                }
            }

            // Update bookkeeping.
            for r in op.reads() {
                let r = regs.number(r);
                readers.push((to, reader_head[r]));
                reader_head[r] = (readers.len() - 1) as u32;
            }
            if let Some(dst) = op.dst {
                let d = regs.number(dst);
                last_writer[d] = to;
                reader_head[d] = NONE;
            }
        }

        // Counting sort of the edges by source into compressed sparse rows.
        let mut succ_start = vec![0u32; n + 1];
        let mut pred_counts = vec![0u32; n];
        for e in &edges {
            succ_start[e.from as usize + 1] += 1;
            pred_counts[e.to as usize] += 1;
        }
        for i in 0..n {
            succ_start[i + 1] += succ_start[i];
        }
        let mut next = succ_start.clone();
        let mut rows = edges.clone(); // every entry is overwritten below
        for e in edges {
            let slot = &mut next[e.from as usize];
            rows[*slot as usize] = e;
            *slot += 1;
        }
        DepGraph {
            num_ops: n,
            edges: rows,
            succ_start,
            pred_counts,
        }
    }

    /// The edges starting at op `i`.
    pub fn succs(&self, i: usize) -> &[DepEdge] {
        &self.edges[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }

    /// Critical-path height of every operation: the longest latency path
    /// from the operation to the end of the block.  Used as the list
    /// scheduler's priority.
    pub fn heights(&self) -> Vec<u32> {
        let mut heights = vec![0u32; self.num_ops];
        // Operations are in program order, so a reverse sweep sees all
        // successors (edges always point forward) before their predecessors.
        for i in (0..self.num_ops).rev() {
            heights[i] = self
                .succs(i)
                .iter()
                .map(|e| e.latency + heights[e.to as usize])
                .max()
                .unwrap_or(0);
        }
        heights
    }

    /// Number of predecessors (incoming edges) of each op, which seeds the
    /// list scheduler's unplaced-predecessor counts.
    pub fn pred_counts(&self) -> &[u32] {
        &self.pred_counts
    }
}

/// Issue-to-issue latency of a RAW dependence from `producer` to `consumer`
/// through register `reg`.
fn raw_latency(producer: &Op, consumer: &Op, reg: Reg, machine: &MachineConfig) -> u32 {
    let desc = machine.latency_descriptor(producer);
    // Chaining (paper §3.3): a vector operation that reads a *vector
    // register* produced by another vector operation may be scheduled as
    // soon as the first elements are available, i.e. after the producer's
    // sub-operation flow latency rather than its full completion.
    let vector_chain = machine.chaining
        && reg.class == RegClass::Vec
        && producer.opcode.is_vector_op()
        && consumer.opcode.is_vector_op();
    if vector_chain {
        desc.chained_latency().max(1)
    } else {
        desc.result_latency().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_isa::{Op, Opcode, Reg};
    use vmv_machine::presets;

    fn op_movi(dst: Reg, imm: i64) -> Op {
        Op::new(Opcode::MovI).with_dst(dst).with_imm(imm)
    }

    fn op_add(dst: Reg, a: Reg, b: Reg) -> Op {
        Op::new(Opcode::IAdd).with_dst(dst).with_srcs(&[a, b])
    }

    #[test]
    fn raw_dependence_has_producer_latency() {
        let machine = presets::vliw(2);
        let ops = vec![
            Op::new(Opcode::IMul)
                .with_dst(Reg::int(0))
                .with_srcs(&[Reg::int(1), Reg::int(2)]),
            op_add(Reg::int(3), Reg::int(0), Reg::int(1)),
        ];
        let g = DepGraph::build(&ops, &machine);
        let raw: Vec<_> = g.edges.iter().filter(|e| e.kind == DepKind::Raw).collect();
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].latency, machine.latencies.int_mul);
    }

    #[test]
    fn war_and_waw_edges_are_created() {
        let machine = presets::vliw(2);
        let ops = vec![
            op_add(Reg::int(2), Reg::int(0), Reg::int(1)), // reads r0
            op_movi(Reg::int(0), 5),                       // writes r0 -> WAR with op0
            op_movi(Reg::int(0), 6),                       // writes r0 -> WAW with op1
        ];
        let g = DepGraph::build(&ops, &machine);
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::War && e.from == 0 && e.to == 1));
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Waw && e.from == 1 && e.to == 2));
    }

    #[test]
    fn loads_may_reorder_but_not_across_stores() {
        let machine = presets::vliw(2);
        let addr = Reg::int(0);
        let ops = vec![
            Op::new(Opcode::Load(vmv_isa::MemWidth::B4, vmv_isa::Sign::Signed))
                .with_dst(Reg::int(1))
                .with_srcs(&[addr])
                .with_imm(0),
            Op::new(Opcode::Load(vmv_isa::MemWidth::B4, vmv_isa::Sign::Signed))
                .with_dst(Reg::int(2))
                .with_srcs(&[addr])
                .with_imm(4),
            Op::new(Opcode::Store(vmv_isa::MemWidth::B4))
                .with_srcs(&[addr, Reg::int(1)])
                .with_imm(8),
        ];
        let g = DepGraph::build(&ops, &machine);
        // no edge between the two loads
        assert!(!g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Mem && e.from == 0 && e.to == 1));
        // both loads are ordered before the store
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Mem && e.from == 0 && e.to == 2));
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Mem && e.from == 1 && e.to == 2));
    }

    #[test]
    fn chaining_reduces_vector_raw_latency() {
        let chained = presets::vector2(2);
        let mut unchained = chained.clone();
        unchained.chaining = false;

        let mut vload = Op::new(Opcode::VLoad)
            .with_dst(Reg::vec(0))
            .with_srcs(&[Reg::int(0)]);
        vload.vl_hint = Some(16);
        let mut vsad = Op::new(Opcode::VSadAcc).with_dst(Reg::acc(0)).with_srcs(&[
            Reg::acc(0),
            Reg::vec(0),
            Reg::vec(1),
        ]);
        vsad.vl_hint = Some(16);
        let ops = vec![vload, vsad];

        let lat_chained = DepGraph::build(&ops, &chained)
            .edges
            .iter()
            .find(|e| e.kind == DepKind::Raw)
            .unwrap()
            .latency;
        let lat_unchained = DepGraph::build(&ops, &unchained)
            .edges
            .iter()
            .find(|e| e.kind == DepKind::Raw)
            .unwrap()
            .latency;
        assert!(
            lat_chained < lat_unchained,
            "{lat_chained} vs {lat_unchained}"
        );
        // Chained: the consumer waits only the 5-cycle flow latency of the
        // load, not 5 + (16-1)/4.
        assert_eq!(lat_chained, chained.latencies.vec_mem);
        assert_eq!(lat_unchained, chained.latencies.vec_mem + 3);
    }

    #[test]
    fn branch_is_ordered_after_every_op() {
        let machine = presets::vliw(2);
        let ops = vec![
            op_movi(Reg::int(0), 1),
            op_movi(Reg::int(1), 2),
            Op::new(Opcode::Br(vmv_isa::BrCond::Ne))
                .with_srcs(&[Reg::int(0), Reg::int(1)])
                .with_target("x"),
        ];
        let g = DepGraph::build(&ops, &machine);
        let ctrl: Vec<_> = g
            .edges
            .iter()
            .filter(|e| e.kind == DepKind::Control)
            .collect();
        assert_eq!(ctrl.len(), 2);
    }

    #[test]
    fn vl_and_vs_reads_need_no_writer_in_the_block() {
        let machine = presets::vector2(2);
        let vload = Op::new(Opcode::VLoad)
            .with_dst(Reg::vec(0))
            .with_srcs(&[Reg::int(0)]);
        let setvl = Op::new(Opcode::SetVL).with_dst(Reg::vl()).with_imm(8);
        let vadd = Op::new(Opcode::VAdd(vmv_isa::Elem::H, vmv_isa::Sat::Wrap))
            .with_dst(Reg::vec(1))
            .with_srcs(&[Reg::vec(0), Reg::vec(0)]);
        // The first load reads VL and VS that no op of the block writes.
        let g = DepGraph::build(std::slice::from_ref(&vload), &machine);
        assert!(g.edges.is_empty());
        assert_eq!(g.pred_counts(), &[0]);

        // A later SetVL is ordered after that implicit read (WAR) and
        // before the vector op that reads the new length (RAW).
        let g = DepGraph::build(&[vload, setvl, vadd], &machine);
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::War && e.from == 0 && e.to == 1));
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Raw && e.from == 1 && e.to == 2));
        assert_eq!(g.pred_counts()[0], 0);
    }

    #[test]
    fn heights_reflect_critical_path() {
        let machine = presets::vliw(2);
        let ops = vec![
            Op::new(Opcode::IMul)
                .with_dst(Reg::int(1))
                .with_srcs(&[Reg::int(0), Reg::int(0)]),
            op_add(Reg::int(2), Reg::int(1), Reg::int(0)),
            op_movi(Reg::int(3), 1),
        ];
        let g = DepGraph::build(&ops, &machine);
        let h = g.heights();
        assert!(h[0] > h[1]);
        assert_eq!(h[2], 0);
    }
}
