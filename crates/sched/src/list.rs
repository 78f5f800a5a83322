//! Cycle-driven list scheduling of one basic block.
//!
//! Operations are prioritised by critical-path height and placed at the
//! earliest cycle at which (a) all their dependences are satisfied (using
//! the latency descriptors of Fig. 3 and the chaining rule of §3.3) and
//! (b) a free issue slot and functional unit / memory port is available
//! (Table 2 resources).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vmv_isa::{Op, Opcode};
use vmv_machine::MachineConfig;

use crate::ddg::DepGraph;
use crate::restable::{unit_pool, ReservationTable};

/// Schedule the operations of one basic block, returning one bundle (vector
/// of operations) per issue cycle, and the source position (index in `ops`)
/// of every placed operation in traversal order — bundle by bundle, each in
/// its bundle's order.  The relative order of memory operations and the
/// block terminator is preserved by the dependence graph.  The operations
/// are moved into their bundles, in placement order.
pub fn schedule_block(mut ops: Vec<Op>, machine: &MachineConfig) -> (Vec<Vec<Op>>, Vec<u32>) {
    let n = ops.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let graph = DepGraph::build(&ops, machine);
    let heights = graph.heights();
    let mut remaining_preds = graph.pred_counts().to_vec();
    let mut earliest = vec![0u32; n];
    // Each operation's resource demand — its unit pool and the occupancy
    // window of Fig. 3b — computed once, not at every placement attempt.
    let demand: Vec<_> = ops
        .iter()
        .map(|op| {
            let occupancy = machine.latency_descriptor(op).occupancy();
            (unit_pool(op, machine), occupancy)
        })
        .collect();
    let mut table = ReservationTable::new(machine);
    // `(cycle, op)` of every placement, in placement order.
    let mut placements: Vec<(u32, usize)> = Vec::with_capacity(n);
    let mut cycle: u32 = 0;

    // Generous safety bound: a block can never need more cycles than
    // (ops × worst-case latency × occupancy).
    let safety_limit = (n as u32 + 4) * 64 + 1024;

    // Released operations (every dependence placed) that are not yet
    // eligible at the current cycle, keyed by their earliest-issue cycle.
    // An operation's `earliest` only changes when a predecessor is placed,
    // so it is *final* the moment its last predecessor places — the heap
    // key can never go stale.  Together with `ready` (eligible now) this
    // replaces the former O(cycles × n) rescan of every unplaced
    // operation: each operation is pushed and popped exactly once.
    let mut pending: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
    for i in 0..n {
        if remaining_preds[i] == 0 {
            pending.push(Reverse((earliest[i], i)));
        }
    }
    // Operations eligible to issue at the current cycle, kept in placement
    // priority order: highest critical-path first, ties by program order —
    // the exact tie-break of the former full re-sort, so schedules are
    // byte-identical.
    let mut ready: Vec<usize> = Vec::with_capacity(n);
    // Telemetry is accumulated locally and folded into the recorder once
    // per block, keeping the cycle loop free of atomics.
    let mut ready_scans = 0u64;
    while placements.len() < n {
        ready_scans += 1;
        assert!(
            cycle < safety_limit,
            "list scheduler failed to make progress (block of {n} ops, cycle {cycle})"
        );

        // Admit newly eligible operations; operations that failed a
        // resource check in an earlier cycle carry over, already sorted,
        // so a re-sort is only needed when the set grew.
        let mut grew = false;
        while let Some(&Reverse((t, i))) = pending.peek() {
            if t > cycle {
                break;
            }
            pending.pop();
            ready.push(i);
            grew = true;
        }
        if ready.is_empty() {
            // Nothing can issue before the next dependence-release time:
            // jump straight there instead of probing every empty cycle
            // (placements only ever happen when something is ready, so the
            // skipped cycles are provably empty).
            let next = pending
                .peek()
                .map(|&Reverse((t, _))| t)
                .unwrap_or(cycle + 1);
            cycle = next.max(cycle + 1);
            continue;
        }
        if grew {
            ready.sort_by_key(|&i| (Reverse(heights[i]), i));
        }

        // `retain` visits in order and keeps the relative order of the
        // survivors: placement order matches the sorted priority, and ops
        // blocked on resources stay for the next cycle.
        ready.retain(|&i| {
            let (pool, occupancy) = demand[i];
            if !table.try_place(pool, occupancy, cycle) {
                return true;
            }
            placements.push((cycle, i));
            for e in graph.succs(i) {
                let to = e.to as usize;
                remaining_preds[to] -= 1;
                earliest[to] = earliest[to].max(cycle + e.latency);
                if remaining_preds[to] == 0 {
                    pending.push(Reverse((earliest[to], to)));
                }
            }
            false
        });
        cycle += 1;
    }

    // Move every operation into its bundle; each bundle is allocated at its
    // final size.  Placements run in nondecreasing cycle order, so their
    // order is the traversal order.
    let mut sizes = vec![0usize; placements[n - 1].0 as usize + 1];
    for &(c, _) in &placements {
        sizes[c as usize] += 1;
    }
    let mut bundles: Vec<Vec<Op>> = sizes.into_iter().map(Vec::with_capacity).collect();
    let mut positions = Vec::with_capacity(n);
    for (c, i) in placements {
        bundles[c as usize].push(std::mem::replace(&mut ops[i], Op::new(Opcode::Nop)));
        positions.push(i as u32);
    }

    if vmv_obs::enabled() {
        use vmv_obs::Counter;
        vmv_obs::incr(Counter::SchedBlocks);
        vmv_obs::add(Counter::SchedReadyScans, ready_scans);
        vmv_obs::add(Counter::SchedOpsPlaced, n as u64);
        vmv_obs::add(Counter::SchedCyclesScheduled, bundles.len() as u64);
    }

    (bundles, positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_isa::{BrCond, Elem, MemWidth, Op, Opcode, Reg, Sat, Sign};
    use vmv_machine::presets;

    fn movi(dst: u32, imm: i64) -> Op {
        Op::new(Opcode::MovI).with_dst(Reg::int(dst)).with_imm(imm)
    }

    fn add(dst: u32, a: u32, b: u32) -> Op {
        Op::new(Opcode::IAdd)
            .with_dst(Reg::int(dst))
            .with_srcs(&[Reg::int(a), Reg::int(b)])
    }

    #[test]
    fn independent_ops_fill_the_issue_width() {
        let machine = presets::vliw(4);
        let ops: Vec<Op> = (0..8).map(|i| movi(i, i as i64)).collect();
        let (bundles, _) = schedule_block(ops, &machine);
        assert_eq!(
            bundles.len(),
            2,
            "8 independent ops on a 4-wide machine take 2 cycles"
        );
        assert_eq!(bundles[0].len(), 4);
        assert_eq!(bundles[1].len(), 4);
    }

    #[test]
    fn dependent_chain_respects_latency() {
        let machine = presets::vliw(4);
        // r1 = r0 * r0 (3 cycles); r2 = r1 + r0 (1 cycle); r3 = r2 + r0.
        let ops = vec![
            Op::new(Opcode::IMul)
                .with_dst(Reg::int(1))
                .with_srcs(&[Reg::int(0), Reg::int(0)]),
            add(2, 1, 0),
            add(3, 2, 0),
        ];
        let (bundles, _) = schedule_block(ops, &machine);
        // mul at cycle 0, add at cycle 3, add at cycle 4 → 5 bundles.
        assert_eq!(bundles.len(), 5);
        assert!(bundles[1].is_empty() && bundles[2].is_empty());
    }

    #[test]
    fn narrow_machine_serialises_wide_parallelism() {
        let wide = presets::vliw(8);
        let narrow = presets::vliw(2);
        let ops: Vec<Op> = (0..8).map(|i| movi(i, 1)).collect();
        assert_eq!(schedule_block(ops.clone(), &wide).0.len(), 1);
        assert_eq!(schedule_block(ops, &narrow).0.len(), 4);
    }

    #[test]
    fn memory_port_limits_loads_per_cycle() {
        let machine = presets::vliw(2); // 1 L1 port
        let ops: Vec<Op> = (0..4)
            .map(|i| {
                Op::new(Opcode::Load(MemWidth::B4, Sign::Signed))
                    .with_dst(Reg::int(i + 1))
                    .with_srcs(&[Reg::int(0)])
                    .with_imm(4 * i as i64)
            })
            .collect();
        let (bundles, _) = schedule_block(ops, &machine);
        assert_eq!(
            bundles.len(),
            4,
            "one load per cycle through a single L1 port"
        );
    }

    #[test]
    fn branch_is_scheduled_last() {
        let machine = presets::vliw(8);
        let ops = vec![
            movi(0, 1),
            movi(1, 2),
            add(2, 0, 1),
            Op::new(Opcode::Br(BrCond::Ne))
                .with_srcs(&[Reg::int(2), Reg::int(0)])
                .with_target("x"),
        ];
        let (bundles, _) = schedule_block(ops, &machine);
        let last_nonempty = bundles.iter().rev().find(|b| !b.is_empty()).unwrap();
        assert!(last_nonempty.iter().any(|o| o.opcode.is_branch()));
        // and no op is scheduled after the branch's cycle
        let branch_cycle = bundles
            .iter()
            .position(|b| b.iter().any(|o| o.opcode.is_branch()))
            .unwrap();
        assert_eq!(branch_cycle, bundles.len() - 1);
    }

    #[test]
    fn vector_code_uses_fewer_issue_cycles_than_usimd_equivalent() {
        // Emulate processing 16 packed words: the µSIMD machine needs 16
        // packed adds, the vector machine a single vector add of VL=16.
        let usimd_machine = presets::usimd(2);
        let usimd_ops: Vec<Op> = (0..16)
            .map(|i| {
                Op::new(Opcode::PAdd(Elem::B, Sat::Wrap))
                    .with_dst(Reg::simd(i))
                    .with_srcs(&[Reg::simd(16 + i), Reg::simd(32 + i)])
            })
            .collect();
        let (usimd_bundles, _) = schedule_block(usimd_ops, &usimd_machine);

        let vector_machine = presets::vector2(2);
        let mut vadd = Op::new(Opcode::VAdd(Elem::B, Sat::Wrap))
            .with_dst(Reg::vec(0))
            .with_srcs(&[Reg::vec(1), Reg::vec(2)]);
        vadd.vl_hint = Some(16);
        let (vector_bundles, _) = schedule_block(vec![vadd], &vector_machine);

        assert!(vector_bundles.len() < usimd_bundles.len());
    }

    #[test]
    fn empty_block_schedules_to_nothing() {
        let machine = presets::vliw(2);
        assert_eq!(
            schedule_block(Vec::new(), &machine),
            (Vec::new(), Vec::new())
        );
    }

    #[test]
    fn all_ops_appear_exactly_once() {
        let machine = presets::vliw(4);
        let ops: Vec<Op> = (0..6).map(|i| add(i + 10, i, i)).collect();
        let (bundles, positions) = schedule_block(ops.clone(), &machine);
        let total: usize = bundles.iter().map(|b| b.len()).sum();
        assert_eq!(total, ops.len());
        // Every op carries its own source position, each exactly once.
        let flat: Vec<&Op> = bundles.iter().flatten().collect();
        for (op, &pos) in flat.iter().zip(&positions) {
            assert_eq!(**op, ops[pos as usize]);
        }
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ops.len() as u32).collect::<Vec<_>>());
    }

    /// Rename every non-control register of `ops` through `f`.
    fn renamed(ops: &[Op], f: impl Fn(u32) -> u32) -> Vec<Op> {
        let mut ops = ops.to_vec();
        for op in &mut ops {
            for r in op.dst.iter_mut().chain(&mut op.srcs) {
                if r.class != vmv_isa::RegClass::Ctrl {
                    r.index = f(r.index);
                }
            }
        }
        ops
    }

    #[test]
    fn renaming_registers_far_beyond_the_file_keeps_the_schedule() {
        // One block of every register class, with implicit VL/VS reads.
        let mut b = vmv_isa::ProgramBuilder::new("mixed");
        let base = b.imm(0x1000);
        b.setvl(8);
        b.setvs(8);
        let (v1, v2, v3) = (b.rv(), b.rv(), b.rv());
        b.vload(v1, base, 0);
        b.vload(v2, base, 64);
        b.vadd(Elem::H, Sat::Wrap, v3, v1, v2);
        b.vstore(base, 128, v3);
        let acc = b.ra();
        b.acc_clear(acc);
        b.vsad_acc(acc, v1, v2);
        let sum = b.ri();
        b.acc_reduce(sum, acc);
        let t = b.ri();
        b.addi(t, sum, 1);
        b.st32(base, 256, t);
        b.halt();
        let ops: Vec<Op> = b.finish().blocks.into_iter().flat_map(|b| b.ops).collect();

        // An injective, order-reversing renaming to indices no register
        // file has; the tables are sized from the block's own registers.
        let far = |i: u32| 200_000 - 7 * i;
        let back = |i: u32| (200_000 - i) / 7;
        let machine = presets::vector2(4);
        let (expected, _) = schedule_block(ops.clone(), &machine);
        let (got, _) = schedule_block(renamed(&ops, far), &machine);
        let got: Vec<Vec<Op>> = got.iter().map(|bundle| renamed(bundle, back)).collect();
        assert_eq!(got, expected);
    }
}
