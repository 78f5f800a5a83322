//! Resource reservation table used by the list scheduler.
//!
//! Resources are modeled at the granularity the paper's Table 2 specifies:
//! issue slots (the VLIW width), integer units, µSIMD units, vector units,
//! L1 data-cache ports and the L2 vector-cache port.  On the Vector
//! configurations (which have no dedicated µSIMD units) packed µSIMD
//! operations execute on the vector units, so they draw from the same pool.
//!
//! Vector operations occupy their functional unit (and vector memory
//! operations the L2 port) for several consecutive cycles — `1 + (VL-1)/LN`
//! — because only `LN` sub-operations can be initiated per cycle (Fig. 3b).

use vmv_isa::{FuClass, Op};
use vmv_machine::MachineConfig;

/// Physical resource pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    Issue,
    IntUnits,
    SimdUnits,
    VectorUnits,
    L1Ports,
    L2Ports,
}

const NUM_POOLS: usize = 6;

/// Resource pool an operation's functional-unit requirement maps to on a
/// given machine.
pub fn unit_pool(op: &Op, machine: &MachineConfig) -> Pool {
    match op.opcode.fu_class() {
        FuClass::Int => Pool::IntUnits,
        FuClass::Simd => {
            if machine.simd_units > 0 {
                Pool::SimdUnits
            } else {
                // µSIMD operations run on the vector units (VL = 1) on the
                // Vector configurations.
                Pool::VectorUnits
            }
        }
        FuClass::Vector => Pool::VectorUnits,
        FuClass::MemL1 => Pool::L1Ports,
        FuClass::MemL2 => Pool::L2Ports,
    }
}

/// The reservation table: per-cycle usage counters for every pool.
#[derive(Debug, Clone)]
pub struct ReservationTable {
    /// Capacity of each pool, indexed by `Pool as usize`.
    capacity: [u32; NUM_POOLS],
    usage: Vec<[u32; NUM_POOLS]>,
}

impl ReservationTable {
    pub fn new(machine: &MachineConfig) -> Self {
        let capacity = [
            machine.issue_width,
            machine.int_units,
            machine.simd_units,
            machine.vector_units,
            machine.l1_ports,
            machine.l2_ports,
        ]
        .map(|c| c as u32);
        ReservationTable {
            capacity,
            usage: Vec::new(),
        }
    }

    /// Issue an operation that needs `pool` for `occupancy` cycles (the
    /// initiation occupancy of Fig. 3b, at least 1) at `cycle`, if that
    /// oversubscribes nothing: an issue slot in the issue cycle and a unit
    /// of `pool` in every cycle of the window.  Reserves them and returns
    /// `true`, or changes nothing and returns `false`.
    pub fn try_place(&mut self, pool: Pool, occupancy: u32, cycle: u32) -> bool {
        let (first, end) = (cycle as usize, (cycle + occupancy) as usize);
        if self.usage.len() < end {
            self.usage.resize(end, [0; NUM_POOLS]);
        }
        let (issue, unit) = (Pool::Issue as usize, pool as usize);
        let window = &mut self.usage[first..end];
        if window[0][issue] >= self.capacity[issue]
            || window.iter().any(|u| u[unit] >= self.capacity[unit])
        {
            return false;
        }
        window[0][issue] += 1;
        for u in window {
            u[unit] += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_isa::{Elem, Op, Opcode, Reg, Sat};
    use vmv_machine::presets;

    fn int_op() -> Op {
        Op::new(Opcode::IAdd)
            .with_dst(Reg::int(0))
            .with_srcs(&[Reg::int(1), Reg::int(2)])
    }

    fn vec_op(vl: u32) -> Op {
        let mut op = Op::new(Opcode::VAdd(Elem::H, Sat::Wrap))
            .with_dst(Reg::vec(0))
            .with_srcs(&[Reg::vec(1), Reg::vec(2)]);
        op.vl_hint = Some(vl);
        op
    }

    /// `try_place` with the pool and occupancy the list scheduler derives.
    fn place(t: &mut ReservationTable, machine: &MachineConfig, op: &Op, cycle: u32) -> bool {
        let occupancy = machine.latency_descriptor(op).occupancy();
        t.try_place(unit_pool(op, machine), occupancy, cycle)
    }

    #[test]
    fn issue_width_limits_total_ops_per_cycle() {
        let machine = presets::vliw(2);
        let mut t = ReservationTable::new(&machine);
        let op = int_op();
        assert!(place(&mut t, &machine, &op, 0));
        assert!(place(&mut t, &machine, &op, 0));
        // issue width 2 reached even though the machine has 2 int units
        assert!(!place(&mut t, &machine, &op, 0));
        assert!(place(&mut t, &machine, &op, 1));
    }

    #[test]
    fn unsupported_pool_is_rejected() {
        let machine = presets::vliw(4);
        let mut t = ReservationTable::new(&machine);
        let vop = vec_op(8);
        assert!(
            !place(&mut t, &machine, &vop, 0),
            "base VLIW has no vector units"
        );
    }

    #[test]
    fn vector_occupancy_blocks_the_unit_for_several_cycles() {
        let machine = presets::vector1(2); // one vector unit, 4 lanes
        let mut t = ReservationTable::new(&machine);
        let vop = vec_op(16); // occupancy = 1 + 15/4 = 4 cycles
        assert_eq!(machine.latency_descriptor(&vop).occupancy(), 4);
        assert!(place(&mut t, &machine, &vop, 0));
        // The single vector unit is busy during cycles 0..4.
        assert!(!place(&mut t, &machine, &vec_op(16), 1));
        assert!(!place(&mut t, &machine, &vec_op(16), 3));
        assert!(place(&mut t, &machine, &vec_op(16), 4));
    }

    #[test]
    fn a_refused_placement_reserves_nothing() {
        let machine = presets::vector1(2); // issue width 2, one vector unit
        let mut t = ReservationTable::new(&machine);
        assert!(place(&mut t, &machine, &vec_op(16), 0));
        // Refused in cycles 2..6 because the unit is busy until cycle 4:
        // neither the issue slot of cycle 2 nor the unit in cycles 4..6 may
        // stay reserved.
        assert!(!place(&mut t, &machine, &vec_op(16), 2));
        assert!(place(&mut t, &machine, &int_op(), 2));
        assert!(place(&mut t, &machine, &int_op(), 2));
        assert!(place(&mut t, &machine, &vec_op(8), 4));
    }

    #[test]
    fn two_vector_units_allow_overlap() {
        let machine = presets::vector2(2); // two vector units
        let mut t = ReservationTable::new(&machine);
        assert!(place(&mut t, &machine, &vec_op(16), 0));
        assert!(
            place(&mut t, &machine, &vec_op(16), 1),
            "second vector unit is free"
        );
    }

    #[test]
    fn usimd_ops_share_vector_units_on_vector_configs() {
        let machine = presets::vector1(2);
        let p_op = Op::new(Opcode::PAdd(Elem::B, Sat::Wrap))
            .with_dst(Reg::simd(0))
            .with_srcs(&[Reg::simd(1), Reg::simd(2)]);
        assert_eq!(unit_pool(&p_op, &machine), Pool::VectorUnits);
        let usimd_machine = presets::usimd(2);
        assert_eq!(unit_pool(&p_op, &usimd_machine), Pool::SimdUnits);
    }

    #[test]
    fn l1_port_contention() {
        let machine = presets::vliw(2); // one L1 port
        let mut t = ReservationTable::new(&machine);
        let ld = Op::new(Opcode::Load(vmv_isa::MemWidth::B4, vmv_isa::Sign::Signed))
            .with_dst(Reg::int(1))
            .with_srcs(&[Reg::int(0)])
            .with_imm(0);
        assert!(place(&mut t, &machine, &ld, 0));
        assert!(
            !place(&mut t, &machine, &ld, 0),
            "only one L1 port on the 2-issue machine"
        );
        assert!(place(&mut t, &machine, &ld, 1));
    }
}
