//! Lowering: from the string-keyed [`ScheduledProgram`] to the executable
//! [`LoweredProgram`] the simulator's hot loop consumes.
//!
//! A scheduled program is still a *compiler* data structure: branch targets
//! are label strings, registers are `(class, index)` pairs that force the
//! simulator's scoreboard to be a hash map, and per-operation metadata
//! (read/write sets, latency class, lane counts, memory behaviour) has to be
//! re-derived on every dynamic execution.  Lowering resolves all of that
//! **once per schedule**:
//!
//! * labels become dense block indices (a branch to a missing label is a
//!   [`LowerError`] here, not a mid-run simulator error);
//! * every register is mapped to a flat slot index of the machine's
//!   [`SlotLayout`], so the run-time scoreboard is a plain `Vec<u64>`;
//! * the full read set (explicit sources plus the implicit `VL`/`VS` reads
//!   of vector operations) and the write slot are precomputed per operation;
//! * flow latency, effective lane count and the vector-memory flag are baked
//!   in, so the engine never consults opcode tables in its inner loop;
//! * bundles are flattened into one contiguous operation array with bundle
//!   boundary offsets, giving the fetch loop linear memory traffic;
//! * each operation keeps its source position in its block (checked to be
//!   a permutation of the block's operations), so a timing trace can
//!   address dynamic values the same way in every schedule of one program.
//!
//! Lowering depends only on schedule-relevant machine fields (register file
//! sizes, latency table, lane/port widths) — exactly the fields of the sweep
//! crate's schedule fingerprint — so a lowered program can be cached once
//! per schedule and re-simulated across arbitrary memory-system variants.

use std::collections::HashMap;

use vmv_isa::{Op, Opcode, Reg, RegionId, RegionInfo, SlotLayout, MAX_SRCS, NO_SLOT};
use vmv_machine::MachineConfig;

use crate::bundle::ScheduledProgram;

/// Maximum read-set size: every explicit source plus the implicit `VL` and
/// `VS` control-register reads of vector memory operations.
pub const MAX_READS: usize = MAX_SRCS + 2;

/// Errors detected while lowering a scheduled program.  Everything reported
/// here used to surface only at run time (or panic) in the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// A branch targets a label no block carries.
    UnknownLabel { block: String, label: String },
    /// A branch operation has no target label at all.
    MissingTarget { block: String, op: String },
    /// A register index exceeds the machine's architectural register file.
    SlotOutOfRange { block: String, op: String, reg: Reg },
    /// A block's source positions are not a permutation of its operations.
    BadPositions { block: String },
    /// A machine parameter exceeds the range of the lowered operation's
    /// packed metadata fields (latencies are stored as `u16`, lane counts
    /// as `u8`) — silently saturating would diverge from the reference
    /// engine, so lowering refuses such machines up front.
    MachineOutOfRange {
        what: &'static str,
        value: u64,
        max: u64,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::UnknownLabel { block, label } => {
                write!(f, "block '{block}': branch to unknown label '{label}'")
            }
            LowerError::MissingTarget { block, op } => {
                write!(f, "block '{block}': branch '{op}' has no target")
            }
            LowerError::SlotOutOfRange { block, op, reg } => write!(
                f,
                "block '{block}': operation '{op}' uses register {reg} beyond \
                 the machine's register file"
            ),
            LowerError::BadPositions { block } => write!(
                f,
                "block '{block}': source positions are not a permutation of its operations"
            ),
            LowerError::MachineOutOfRange { what, value, max } => write!(
                f,
                "machine parameter {what} = {value} exceeds the lowered \
                 representation's maximum of {max}"
            ),
        }
    }
}
impl std::error::Error for LowerError {}

/// One pre-resolved, array-indexed operation.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredOp {
    pub opcode: Opcode,
    /// Destination register (functional write), if any.
    pub dst: Option<Reg>,
    /// Explicit source registers (functional reads); only `..n_srcs` valid.
    /// Not a `vmv_isa::Srcs`: the separate count packs with the other
    /// byte fields, which keeps this hot-loop record at 72 bytes, not 80.
    srcs: [Reg; MAX_SRCS],
    n_srcs: u8,
    /// Immediate operand (0 when absent — execution treats them the same).
    pub imm: i64,
    /// Pre-resolved branch-target block index (branches only).
    pub target: u32,
    /// Scoreboard slot written by this operation (`NO_SLOT` when none).
    pub dst_slot: u16,
    /// Scoreboard slots read, including the implicit `VL`/`VS` reads; only
    /// `..n_reads` valid.
    read_slots: [u16; MAX_READS],
    n_reads: u8,
    /// Flow latency of the operation's latency class on this machine
    /// (machines with latencies beyond u16 are rejected at lowering time).
    pub flow: u16,
    /// Effective lane count for the Fig. 3 vector latency formula (the L2
    /// port width in elements for vector memory operations; machines with
    /// lane counts beyond u8 are rejected at lowering time).
    pub lanes: u8,
    /// Whether latency depends on the run-time vector length.
    pub reads_vl: bool,
    /// Whether this operation occupies the single L2 vector-cache port.
    pub is_vector_memory: bool,
    /// Micro-operations per unit of vector length (`Opcode::micro_ops(1)`,
    /// at most 8); the dynamic count is `micro_ops_unit * VL` for
    /// VL-dependent operations and `micro_ops_unit` otherwise.
    pub micro_ops_unit: u16,
    /// Source position within the block (see
    /// [`crate::ScheduledBlock::positions`]).
    pub pos: u32,
}

impl LoweredOp {
    /// Explicit source registers.
    #[inline]
    pub fn srcs(&self) -> &[Reg] {
        &self.srcs[..self.n_srcs as usize]
    }

    /// Scoreboard slots this operation waits on before issue.
    #[inline]
    pub fn read_slots(&self) -> &[u16] {
        &self.read_slots[..self.n_reads as usize]
    }
}

/// One lowered basic block: a range of bundles in the flattened arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoweredBlock {
    pub region: RegionId,
    /// First bundle index (into [`LoweredProgram::bundle_bounds`]).
    pub first_bundle: u32,
    /// Number of bundles (the static schedule length; may be 0).
    pub bundle_count: u32,
}

/// The lowered executable form of a scheduled program: what the simulator's
/// inner loop actually runs.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredProgram {
    pub name: String,
    pub blocks: Vec<LoweredBlock>,
    /// Bundle `b` holds `ops[bundle_bounds[b] as usize..bundle_bounds[b + 1] as usize]`.
    pub bundle_bounds: Vec<u32>,
    /// All operations, flattened block-major, bundle-major, in issue order.
    pub ops: Vec<LoweredOp>,
    pub regions: Vec<RegionInfo>,
    /// Slot layout the operations were resolved against.
    pub layout: SlotLayout,
}

impl LoweredProgram {
    /// Scoreboard length.
    pub fn total_slots(&self) -> usize {
        self.layout.total_slots()
    }

    /// The operations of one bundle.
    #[inline]
    pub fn bundle_ops(&self, bundle: u32) -> &[LoweredOp] {
        let lo = self.bundle_bounds[bundle as usize] as usize;
        let hi = self.bundle_bounds[bundle as usize + 1] as usize;
        &self.ops[lo..hi]
    }
}

/// Lower `program` for `machine`.  Only schedule-relevant machine fields are
/// read; memory-hierarchy parameters never influence the lowered form.
pub fn lower(
    program: &ScheduledProgram,
    machine: &MachineConfig,
) -> Result<LoweredProgram, LowerError> {
    // The packed per-op metadata stores latencies as u16 and lane counts as
    // u8; reject machines whose parameters cannot be represented exactly
    // (real configurations are orders of magnitude below these limits).
    let l = &machine.latencies;
    for (what, value) in [
        ("latencies.int_alu", l.int_alu),
        ("latencies.int_mul", l.int_mul),
        ("latencies.int_div", l.int_div),
        ("latencies.load_l1", l.load_l1),
        ("latencies.store", l.store),
        ("latencies.branch", l.branch),
        ("latencies.simd_alu", l.simd_alu),
        ("latencies.simd_mul", l.simd_mul),
        ("latencies.vec_alu", l.vec_alu),
        ("latencies.vec_mul", l.vec_mul),
        ("latencies.vec_mem", l.vec_mem),
    ] {
        if value > u16::MAX as u32 {
            return Err(LowerError::MachineOutOfRange {
                what,
                value: value as u64,
                max: u16::MAX as u64,
            });
        }
    }
    for (what, value) in [
        ("vector_lanes", machine.vector_lanes),
        ("l2_port_elems", machine.l2_port_elems),
    ] {
        if value > u8::MAX as u32 {
            return Err(LowerError::MachineOutOfRange {
                what,
                value: value as u64,
                max: u8::MAX as u64,
            });
        }
    }

    let layout = SlotLayout::new(&machine.regs);
    let labels: HashMap<&str, u32> = program
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (b.label.as_str(), i as u32))
        .collect();

    let total_ops: usize = program
        .blocks
        .iter()
        .map(|b| b.bundles.iter().map(Vec::len).sum::<usize>())
        .sum();
    let total_bundles: usize = program.blocks.iter().map(|b| b.bundles.len()).sum();

    let mut blocks = Vec::with_capacity(program.blocks.len());
    let mut bundle_bounds = Vec::with_capacity(total_bundles + 1);
    let mut ops = Vec::with_capacity(total_ops);
    bundle_bounds.push(0u32);

    for block in &program.blocks {
        let first_bundle = (bundle_bounds.len() - 1) as u32;
        let first_op = ops.len();
        for bundle in &block.bundles {
            for op in bundle {
                ops.push(lower_op(op, &block.label, &labels, &layout, machine)?);
            }
            bundle_bounds.push(ops.len() as u32);
        }
        let n = ops.len() - first_op;
        let mut seen = vec![false; n];
        let permutation = block.positions.len() == n
            && block
                .positions
                .iter()
                .all(|&p| (p as usize) < n && !std::mem::replace(&mut seen[p as usize], true));
        if !permutation {
            return Err(LowerError::BadPositions {
                block: block.label.clone(),
            });
        }
        for (op, &pos) in ops[first_op..].iter_mut().zip(&block.positions) {
            op.pos = pos;
        }
        blocks.push(LoweredBlock {
            region: block.region,
            first_bundle,
            bundle_count: block.bundles.len() as u32,
        });
    }

    Ok(LoweredProgram {
        name: program.name.clone(),
        blocks,
        bundle_bounds,
        ops,
        regions: program.regions.clone(),
        layout,
    })
}

fn lower_op(
    op: &Op,
    block: &str,
    labels: &HashMap<&str, u32>,
    layout: &SlotLayout,
    machine: &MachineConfig,
) -> Result<LoweredOp, LowerError> {
    let slot = |reg: Reg| {
        layout
            .slot_of(reg)
            .ok_or_else(|| LowerError::SlotOutOfRange {
                block: block.to_string(),
                op: op.to_string(),
                reg,
            })
    };

    let mut srcs = [Reg::int(0); MAX_SRCS];
    let mut read_slots = [NO_SLOT; MAX_READS];
    for (i, &r) in op.srcs.iter().enumerate() {
        srcs[i] = r;
        read_slots[i] = slot(r)?;
    }
    let mut n_reads = op.srcs.len();
    if op.opcode.reads_vl() {
        read_slots[n_reads] = layout.vl_slot();
        n_reads += 1;
    }
    if op.opcode.reads_vs() {
        read_slots[n_reads] = layout.vs_slot();
        n_reads += 1;
    }

    let dst_slot = match op.dst {
        Some(d) => slot(d)?,
        None => NO_SLOT,
    };

    let target = if op.opcode.is_branch() {
        let label = op
            .target
            .as_deref()
            .ok_or_else(|| LowerError::MissingTarget {
                block: block.to_string(),
                op: op.to_string(),
            })?;
        *labels.get(label).ok_or_else(|| LowerError::UnknownLabel {
            block: block.to_string(),
            label: label.to_string(),
        })?
    } else {
        0
    };

    Ok(LoweredOp {
        opcode: op.opcode,
        dst: op.dst,
        srcs,
        n_srcs: op.srcs.len() as u8,
        imm: op.imm.unwrap_or(0),
        target,
        dst_slot,
        read_slots,
        n_reads: n_reads as u8,
        flow: machine.latencies.flow_latency(op.opcode.lat_class()) as u16,
        lanes: machine.effective_lanes(op.opcode) as u8,
        reads_vl: op.opcode.reads_vl(),
        is_vector_memory: op.opcode.is_vector_memory(),
        micro_ops_unit: op.opcode.micro_ops(1) as u16,
        // Set by `lower` once the block's positions are checked.
        pos: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::ScheduledBlock;
    use vmv_machine::presets;

    fn machine() -> MachineConfig {
        presets::vector2(2)
    }

    fn shell(blocks: Vec<ScheduledBlock>) -> ScheduledProgram {
        ScheduledProgram {
            name: "t".into(),
            blocks,
            regions: vec![],
        }
    }

    #[test]
    fn labels_resolve_to_block_indices() {
        let p = shell(vec![
            ScheduledBlock {
                label: "entry".into(),
                region: RegionId::SCALAR,
                bundles: vec![vec![Op::new(Opcode::Jump).with_target("exit")]],
                positions: vec![0],
            },
            ScheduledBlock {
                label: "exit".into(),
                region: RegionId::SCALAR,
                bundles: vec![vec![Op::new(Opcode::Halt)]],
                positions: vec![0],
            },
        ]);
        let low = lower(&p, &machine()).unwrap();
        assert_eq!(low.blocks.len(), 2);
        assert_eq!(low.ops[0].target, 1);
        assert_eq!(low.bundle_ops(0)[0].opcode, Opcode::Jump);
    }

    #[test]
    fn unknown_label_fails_at_lowering_time() {
        let p = shell(vec![ScheduledBlock {
            label: "entry".into(),
            region: RegionId::SCALAR,
            bundles: vec![vec![Op::new(Opcode::Jump).with_target("nowhere")]],
            positions: vec![0],
        }]);
        let err = lower(&p, &machine()).unwrap_err();
        assert!(matches!(err, LowerError::UnknownLabel { ref label, .. } if label == "nowhere"));
    }

    #[test]
    fn branch_without_target_fails_at_lowering_time() {
        let p = shell(vec![ScheduledBlock {
            label: "entry".into(),
            region: RegionId::SCALAR,
            bundles: vec![vec![Op::new(Opcode::Jump)]],
            positions: vec![0],
        }]);
        assert!(matches!(
            lower(&p, &machine()).unwrap_err(),
            LowerError::MissingTarget { .. }
        ));
    }

    #[test]
    fn out_of_range_register_fails_at_lowering_time() {
        let m = machine();
        let bad = Reg::int(m.regs.int + 5);
        let p = shell(vec![ScheduledBlock {
            label: "entry".into(),
            region: RegionId::SCALAR,
            bundles: vec![vec![Op::new(Opcode::MovI).with_dst(bad).with_imm(1)]],
            positions: vec![0],
        }]);
        let err = lower(&p, &m).unwrap_err();
        assert!(matches!(err, LowerError::SlotOutOfRange { reg, .. } if reg == bad));
    }

    #[test]
    fn unrepresentable_machine_parameters_are_rejected() {
        // The packed metadata stores latencies as u16 and lanes as u8:
        // silently saturating would diverge from the reference engine, so
        // lowering must refuse such machines with a clear error instead.
        let p = shell(vec![ScheduledBlock {
            label: "entry".into(),
            region: RegionId::SCALAR,
            bundles: vec![vec![Op::new(Opcode::Halt)]],
            positions: vec![0],
        }]);
        let mut m = machine();
        m.latencies.vec_mem = 100_000;
        assert!(matches!(
            lower(&p, &m).unwrap_err(),
            LowerError::MachineOutOfRange {
                what: "latencies.vec_mem",
                ..
            }
        ));
        let mut m = machine();
        m.vector_lanes = 1000;
        assert!(matches!(
            lower(&p, &m).unwrap_err(),
            LowerError::MachineOutOfRange {
                what: "vector_lanes",
                ..
            }
        ));
    }

    #[test]
    fn implicit_vl_vs_reads_are_in_the_read_set() {
        let m = machine();
        let p = shell(vec![ScheduledBlock {
            label: "entry".into(),
            region: RegionId::SCALAR,
            bundles: vec![vec![Op::new(Opcode::VLoad)
                .with_dst(Reg::vec(0))
                .with_srcs(&[Reg::int(3)])]],
            positions: vec![0],
        }]);
        let low = lower(&p, &m).unwrap();
        let op = &low.ops[0];
        assert!(op.read_slots().contains(&low.layout.vl_slot()));
        assert!(op.read_slots().contains(&low.layout.vs_slot()));
        assert_eq!(op.read_slots().len(), 3);
        assert!(op.is_vector_memory);
        assert!(op.reads_vl);
        assert_eq!(u32::from(op.lanes), m.l2_port_elems);
        assert_eq!(u32::from(op.flow), m.latencies.vec_mem);
    }

    #[test]
    fn bundles_flatten_contiguously_with_empty_bundles_preserved() {
        let mk = |n: usize| {
            (0..n)
                .map(|i| {
                    Op::new(Opcode::MovI)
                        .with_dst(Reg::int(i as u32))
                        .with_imm(0)
                })
                .collect::<Vec<_>>()
        };
        let p = shell(vec![ScheduledBlock {
            label: "b".into(),
            region: RegionId::SCALAR,
            bundles: vec![mk(2), mk(0), mk(1)],
            positions: vec![0, 1, 2],
        }]);
        let low = lower(&p, &machine()).unwrap();
        assert_eq!(low.blocks[0].bundle_count, 3);
        assert_eq!(low.bundle_bounds, vec![0, 2, 2, 3]);
        assert_eq!(low.bundle_ops(0).len(), 2);
        assert_eq!(low.bundle_ops(1).len(), 0);
        assert_eq!(low.bundle_ops(2).len(), 1);
        assert_eq!(low.ops.len(), 3);
        let positions: Vec<u32> = low.ops.iter().map(|op| op.pos).collect();
        assert_eq!(positions, vec![0, 1, 2]);
    }

    #[test]
    fn positions_must_permute_each_block() {
        let block = |positions: Vec<u32>| {
            shell(vec![ScheduledBlock {
                label: "b".into(),
                region: RegionId::SCALAR,
                bundles: vec![vec![
                    Op::new(Opcode::MovI).with_dst(Reg::int(1)).with_imm(0),
                    Op::new(Opcode::Halt),
                ]],
                positions,
            }])
        };
        let low = lower(&block(vec![1, 0]), &machine()).unwrap();
        assert_eq!((low.ops[0].pos, low.ops[1].pos), (1, 0));
        for bad in [vec![0, 0], vec![0], vec![0, 2], vec![0, 1, 2]] {
            assert_eq!(
                lower(&block(bad.clone()), &machine()).unwrap_err(),
                LowerError::BadPositions { block: "b".into() },
                "{bad:?}"
            );
        }
    }
}
