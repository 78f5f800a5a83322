//! Machine configuration: issue width, functional units, register files,
//! vector parameters and memory-system parameters (paper §4.2, Table 2).

use vmv_isa::{FuClass, LatClass, LatencyDescriptor, Op, Opcode, RegFileSizes};

/// Which of the three ISA families a configuration supports.  Each family
/// contains the one before it, and they order that way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IsaSupport {
    /// Base VLIW: scalar operations only.
    Vliw,
    /// VLIW + µSIMD packed operations.
    Usimd,
    /// VLIW + µSIMD + Vector-µSIMD (vector registers, accumulators, VL/VS).
    Vector,
}

impl IsaSupport {
    pub fn supports_usimd(self) -> bool {
        matches!(self, IsaSupport::Usimd | IsaSupport::Vector)
    }
    pub fn supports_vector(self) -> bool {
        matches!(self, IsaSupport::Vector)
    }

    /// The narrowest family whose view ([`MachineConfig::view_for`]) keeps
    /// every machine field scheduling `opcode` reads: its unit pool, its
    /// latency class and, for operations that read `VL`, its lanes.  µSIMD
    /// for µSIMD units and latencies, Vector for vector units, L2 ports,
    /// vector latencies or a `VL` read, VLIW otherwise (µSIMD loads and
    /// stores use the L1 ports and the scalar memory latencies).
    pub fn reading(opcode: Opcode) -> IsaSupport {
        let vector = matches!(opcode.fu_class(), FuClass::Vector | FuClass::MemL2)
            || matches!(
                opcode.lat_class(),
                LatClass::VecAlu | LatClass::VecMul | LatClass::VecMem
            )
            || opcode.reads_vl();
        let usimd = opcode.fu_class() == FuClass::Simd
            || matches!(opcode.lat_class(), LatClass::SimdAlu | LatClass::SimdMul);
        if vector {
            IsaSupport::Vector
        } else if usimd {
            IsaSupport::Usimd
        } else {
            IsaSupport::Vliw
        }
    }
}

/// Operation latencies in cycles for every latency class.  The defaults are
/// based on the Itanium2-derived values the paper uses (§4.2) plus the 2-cycle
/// vector-unit / 5-cycle vector-cache latencies of the Fig. 4 example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyTable {
    pub int_alu: u32,
    pub int_mul: u32,
    pub int_div: u32,
    pub load_l1: u32,
    pub store: u32,
    pub branch: u32,
    pub simd_alu: u32,
    pub simd_mul: u32,
    pub vec_alu: u32,
    pub vec_mul: u32,
    pub vec_mem: u32,
}

impl Default for LatencyTable {
    fn default() -> Self {
        LatencyTable {
            int_alu: 1,
            int_mul: 3,
            int_div: 12,
            load_l1: 1,
            store: 1,
            branch: 1,
            simd_alu: 2,
            simd_mul: 3,
            vec_alu: 2,
            vec_mul: 3,
            vec_mem: 5,
        }
    }
}

impl LatencyTable {
    /// Flow latency of one (sub-)operation of the given latency class.
    pub fn flow_latency(&self, class: LatClass) -> u32 {
        match class {
            LatClass::IntAlu | LatClass::Ctrl => self.int_alu,
            LatClass::IntMul => self.int_mul,
            LatClass::IntDiv => self.int_div,
            LatClass::Load => self.load_l1,
            LatClass::Store => self.store,
            LatClass::Branch => self.branch,
            LatClass::SimdAlu => self.simd_alu,
            LatClass::SimdMul => self.simd_mul,
            LatClass::VecAlu => self.vec_alu,
            LatClass::VecMul => self.vec_mul,
            LatClass::VecMem => self.vec_mem,
        }
    }
}

/// Memory hierarchy parameters (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryParams {
    /// L1 data cache size in bytes (16 KB).
    pub l1_size: usize,
    /// L1 associativity (4-way).
    pub l1_assoc: usize,
    /// L1 line size in bytes.
    pub l1_line: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u32,
    /// L2 vector cache size in bytes (256 KB).
    pub l2_size: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// L2 line size in bytes.
    pub l2_line: usize,
    /// L2 hit latency in cycles.
    pub l2_latency: u32,
    /// Number of interleaved banks in the L2 vector cache.  Recorded and
    /// keyed, but no timing reads it: the L2 port width alone sets the
    /// stride-one transfer rate (`vmv_mem::transfer_cycles`).
    pub l2_banks: usize,
    /// L3 cache size in bytes (1 MB).
    pub l3_size: usize,
    /// L3 associativity.
    pub l3_assoc: usize,
    /// L3 line size in bytes.
    pub l3_line: usize,
    /// L3 hit latency in cycles.
    pub l3_latency: u32,
    /// Main memory latency in cycles.
    pub mem_latency: u32,
}

impl Default for MemoryParams {
    fn default() -> Self {
        MemoryParams {
            l1_size: 16 * 1024,
            l1_assoc: 4,
            l1_line: 32,
            l1_latency: 1,
            l2_size: 256 * 1024,
            l2_assoc: 4,
            l2_line: 64,
            l2_latency: 5,
            l2_banks: 2,
            l3_size: 1024 * 1024,
            l3_assoc: 8,
            l3_line: 64,
            l3_latency: 12,
            mem_latency: 500,
        }
    }
}

/// A complete machine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Short name used in figures/tables, e.g. "2w +Vector2".
    pub name: String,
    /// ISA family supported by this configuration.
    pub isa: IsaSupport,
    /// Issue width: maximum operations per VLIW instruction.
    pub issue_width: usize,
    /// Number of integer units.
    pub int_units: usize,
    /// Number of µSIMD units (0 on the base VLIW and the Vector
    /// configurations, which run µSIMD operations on the vector units).
    pub simd_units: usize,
    /// Number of vector functional units.
    pub vector_units: usize,
    /// Number of parallel lanes per vector unit (paper uses 4).
    pub vector_lanes: u32,
    /// Number of L1 data-cache ports (scalar / µSIMD accesses).
    pub l1_ports: usize,
    /// Number of L2 vector-cache ports (vector accesses).
    pub l2_ports: usize,
    /// Width of one L2 vector-cache port in 64-bit elements (paper: 4×64-bit).
    pub l2_port_elems: u32,
    /// Register file sizes.
    pub regs: RegFileSizes,
    /// Operation latencies.
    pub latencies: LatencyTable,
    /// Memory hierarchy parameters.
    pub memory: MemoryParams,
    /// Whether vector chaining through the vector register file is allowed
    /// (paper §3.3; on by default, an ablation bench turns it off).
    pub chaining: bool,
}

impl MachineConfig {
    /// Number of functional units of the given class (used by the resource
    /// reservation table of the scheduler).
    pub fn units(&self, class: FuClass) -> usize {
        match class {
            FuClass::Int => self.int_units,
            // µSIMD operations execute on the µSIMD units when present, and
            // on the vector units (with vector length 1) on the Vector
            // configurations.
            FuClass::Simd => {
                if self.simd_units > 0 {
                    self.simd_units
                } else {
                    self.vector_units
                }
            }
            FuClass::Vector => self.vector_units,
            FuClass::MemL1 => self.l1_ports,
            FuClass::MemL2 => self.l2_ports,
        }
    }

    /// This machine as code of its own ISA family sees it:
    /// [`MachineConfig::view_for`] of `self.isa`.  Schedule keys are built
    /// from it.
    pub fn schedule_view(&self) -> MachineConfig {
        self.view_for(self.isa)
    }

    /// This machine as code of ISA `family` (VLIW ⊂ µSIMD ⊂ Vector) sees
    /// it: the fields that only operations outside the family read are
    /// reset to the values the generator gives the family, so two machines
    /// with equal views schedule that code identically.  Scalar code
    /// leaves chaining, the µSIMD and vector units, lanes, L2 vector-cache
    /// ports and the µSIMD and vector latencies unread; µSIMD code reads
    /// its µSIMD fields too; Vector code reads everything.  The register
    /// files stay, because lowering lays out slots for all four and
    /// allocation reads them, and so do the vector units while
    /// `units(FuClass::Simd)` falls back to them.  Which family a piece of
    /// code needs is [`IsaSupport::reading`] of its operations.
    pub fn view_for(&self, family: IsaSupport) -> MachineConfig {
        let mut view = self.clone();
        if family == IsaSupport::Vector {
            return view;
        }
        let (l, d) = (&mut view.latencies, LatencyTable::default());
        (l.vec_alu, l.vec_mul, l.vec_mem) = (d.vec_alu, d.vec_mul, d.vec_mem);
        if family == IsaSupport::Vliw {
            (l.simd_alu, l.simd_mul) = (d.simd_alu, d.simd_mul);
            view.simd_units = 0;
        }
        if family == IsaSupport::Vliw || self.simd_units > 0 {
            view.vector_units = 0;
        }
        (view.chaining, view.vector_lanes) = (false, 0);
        (view.l2_ports, view.l2_port_elems) = (0, 0);
        view
    }

    /// Whether this configuration can execute the given operation at all.
    pub fn supports_op(&self, opcode: Opcode) -> bool {
        match opcode.fu_class() {
            FuClass::Int | FuClass::MemL1 => true,
            FuClass::Simd => self.isa.supports_usimd(),
            FuClass::Vector | FuClass::MemL2 => self.isa.supports_vector(),
        }
    }

    /// The number of parallel "lanes" the latency formula of Fig. 3 should
    /// use for an operation: vector arithmetic uses the vector lanes, vector
    /// memory uses the L2 port width in elements, everything else is scalar.
    pub fn effective_lanes(&self, opcode: Opcode) -> u32 {
        if opcode.is_vector_memory() {
            self.l2_port_elems.max(1)
        } else if opcode.fu_class() == FuClass::Vector {
            self.vector_lanes.max(1)
        } else {
            1
        }
    }

    /// Compute the latency descriptor the *scheduler* must use for an
    /// operation (paper §3.3 / Fig. 3).  `vl_assumed` is the vector length
    /// the compiler could prove; when unknown the maximum (16) is assumed.
    pub fn latency_descriptor(&self, op: &Op) -> LatencyDescriptor {
        let flow = self.latencies.flow_latency(op.opcode.lat_class());
        if op.opcode.reads_vl() {
            let vl = op.vl_hint.unwrap_or(vmv_isa::MAX_VL);
            LatencyDescriptor::vector(flow, vl, self.effective_lanes(op.opcode))
        } else {
            LatencyDescriptor::scalar(flow)
        }
    }

    /// Peak operations per cycle (the issue width).
    pub fn peak_ops_per_cycle(&self) -> usize {
        self.issue_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use vmv_isa::{Elem, Sat};

    #[test]
    fn latency_table_defaults() {
        let t = LatencyTable::default();
        assert_eq!(t.flow_latency(LatClass::IntAlu), 1);
        assert_eq!(t.flow_latency(LatClass::VecMem), 5);
        assert_eq!(t.flow_latency(LatClass::Load), 1);
    }

    #[test]
    fn usimd_ops_map_to_vector_units_on_vector_configs() {
        let cfg = presets::vector2(2);
        assert_eq!(cfg.simd_units, 0);
        assert!(cfg.units(FuClass::Simd) > 0);
        assert_eq!(cfg.units(FuClass::Simd), cfg.vector_units);
    }

    #[test]
    fn op_support_follows_isa_family() {
        let vliw = presets::vliw(4);
        let usimd = presets::usimd(4);
        let vector = presets::vector1(4);
        let padd = Opcode::PAdd(Elem::B, Sat::Wrap);
        let vadd = Opcode::VAdd(Elem::B, Sat::Wrap);
        assert!(!vliw.supports_op(padd));
        assert!(usimd.supports_op(padd));
        assert!(!usimd.supports_op(vadd));
        assert!(vector.supports_op(padd));
        assert!(vector.supports_op(vadd));
        assert!(vliw.supports_op(Opcode::IAdd));
    }

    #[test]
    fn schedule_view_resets_only_fields_outside_the_isa_family() {
        // Table 2 machines are their own views.
        for m in crate::all_configs() {
            assert_eq!(m.schedule_view(), m, "{}", m.name);
        }
        let scramble = |m: &MachineConfig| {
            let mut s = m.clone();
            s.chaining = !s.chaining;
            s.vector_units += 3;
            s.vector_lanes += 8;
            s.l2_ports += 1;
            s.l2_port_elems += 2;
            s.latencies.vec_alu += 1;
            s.latencies.vec_mul += 1;
            s.latencies.vec_mem += 4;
            s
        };
        // Vector-only fields are invisible to scalar and µSIMD code ...
        for m in [presets::vliw(4), presets::usimd(4)] {
            assert_eq!(scramble(&m).schedule_view(), m.schedule_view());
        }
        // ... but not to vector code.
        let v = presets::vector2(4);
        assert_ne!(scramble(&v).schedule_view(), v.schedule_view());
        // µSIMD fields are invisible only to scalar code.
        let simd = |m: &MachineConfig| {
            let mut s = m.clone();
            s.simd_units += 1;
            s.latencies.simd_alu += 1;
            s
        };
        let (vliw, usimd) = (presets::vliw(4), presets::usimd(4));
        assert_eq!(simd(&vliw).schedule_view(), vliw.schedule_view());
        assert_ne!(simd(&usimd).schedule_view(), usimd.schedule_view());
        // A µSIMD machine without µSIMD units runs µSIMD operations on its
        // vector units, so their count stays visible.
        let mut on_vector_units = usimd.clone();
        on_vector_units.simd_units = 0;
        on_vector_units.vector_units = 2;
        let view = on_vector_units.schedule_view();
        assert_eq!(view.units(FuClass::Simd), 2);
        assert_eq!(view.vector_lanes, 0);
    }

    #[test]
    fn an_operation_needs_the_family_whose_fields_it_reads() {
        use vmv_isa::{MemWidth, Sign};
        let vliw = [
            Opcode::IMul,
            Opcode::Load(MemWidth::B4, Sign::Signed),
            Opcode::SetVL,
            // µSIMD memory operations use the L1 ports and scalar latencies.
            Opcode::PLoad,
            Opcode::PStore,
        ];
        for op in vliw {
            assert_eq!(IsaSupport::reading(op), IsaSupport::Vliw, "{op:?}");
        }
        for op in [Opcode::PAdd(Elem::B, Sat::Wrap), Opcode::MovIntToSimd] {
            assert_eq!(IsaSupport::reading(op), IsaSupport::Usimd, "{op:?}");
        }
        let vector = [
            Opcode::VLoad,
            Opcode::VAdd(Elem::B, Sat::Wrap),
            Opcode::AccClear,
            Opcode::AccReduce,
        ];
        for op in vector {
            assert_eq!(IsaSupport::reading(op), IsaSupport::Vector, "{op:?}");
        }
    }

    #[test]
    fn latency_descriptor_uses_vl_hint_or_maximum() {
        let cfg = presets::vector2(2);
        let mut op = vmv_isa::Op::new(Opcode::VAdd(Elem::H, Sat::Wrap));
        op.vl_hint = Some(8);
        let d = cfg.latency_descriptor(&op);
        // 2 + (8-1)/4 = 3
        assert_eq!(d.result_latency(), 3);
        op.vl_hint = None;
        let d = cfg.latency_descriptor(&op);
        // assumes VL = 16: 2 + 15/4 = 5
        assert_eq!(d.result_latency(), 5);
    }

    #[test]
    fn vector_memory_lanes_use_port_width() {
        let cfg = presets::vector2(2);
        assert_eq!(cfg.effective_lanes(Opcode::VLoad), cfg.l2_port_elems);
        assert_eq!(
            cfg.effective_lanes(Opcode::VAdd(Elem::B, Sat::Wrap)),
            cfg.vector_lanes
        );
        assert_eq!(cfg.effective_lanes(Opcode::IAdd), 1);
    }
}
