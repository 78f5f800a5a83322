//! Program representation: operations, basic blocks, regions and programs.
//!
//! A *program* is the unit that the static scheduler consumes and the
//! simulator executes.  It is a list of basic blocks; each block belongs to a
//! *region* — either the scalar region (region 0) or one of the numbered
//! vector regions of the benchmark (paper §2, Table 1).  Region membership is
//! what lets the experiment driver account cycles and operations separately
//! for scalar and vector regions, exactly as the paper's evaluation does.

use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::opcode::Opcode;
use crate::reg::Reg;

/// Identifier of a region within a benchmark.  Region 0 is always the scalar
/// (non-vectorized) region; regions 1.. are the vector regions in the order
/// of Table 1 (they map to R1..R3 of Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl RegionId {
    pub const SCALAR: RegionId = RegionId(0);

    pub fn is_scalar(self) -> bool {
        self.0 == 0
    }

    pub fn is_vector(self) -> bool {
        self.0 != 0
    }
}

/// Descriptive metadata for one region of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionInfo {
    pub id: RegionId,
    /// Human-readable name, e.g. "Motion estimation" or "Forward DCT".
    pub name: String,
}

/// Most explicit source registers any opcode has (accumulator operations
/// read the accumulator plus two vector registers).
pub const MAX_SRCS: usize = 3;

/// The explicit source registers of an operation: a list of at most
/// [`MAX_SRCS`] registers held inline, so building, cloning, renaming or
/// dropping an operation allocates nothing.  It dereferences to `[Reg]`,
/// and compares and prints as that slice.
#[derive(Clone, Copy)]
pub struct Srcs {
    regs: [Reg; MAX_SRCS],
    len: u8,
}

impl Srcs {
    /// The empty list.
    pub const EMPTY: Srcs = Srcs {
        regs: [Reg::int(0); MAX_SRCS],
        len: 0,
    };

    /// The list of `srcs`, which must hold at most [`MAX_SRCS`] registers:
    /// operations are only built by code, so more is a bug in that code.
    pub fn new(srcs: &[Reg]) -> Srcs {
        assert!(
            srcs.len() <= MAX_SRCS,
            "an operation has at most {MAX_SRCS} source registers, not {}",
            srcs.len()
        );
        let mut list = Srcs::EMPTY;
        list.regs[..srcs.len()].copy_from_slice(srcs);
        list.len = srcs.len() as u8;
        list
    }
}

impl Deref for Srcs {
    type Target = [Reg];

    #[inline]
    fn deref(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }
}

impl DerefMut for Srcs {
    #[inline]
    fn deref_mut(&mut self) -> &mut [Reg] {
        &mut self.regs[..self.len as usize]
    }
}

impl PartialEq for Srcs {
    fn eq(&self, other: &Srcs) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Srcs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One machine operation (the paper reserves the term *operation* for each
/// independent machine operation coded into a VLIW instruction, §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub opcode: Opcode,
    /// Destination register, if the operation produces one.
    pub dst: Option<Reg>,
    /// Explicit source registers.  Memory operations put the address base
    /// register first; stores put the value register second; accumulator
    /// operations list the accumulator first (it is both read and written).
    pub srcs: Srcs,
    /// Immediate operand (address offset for memory operations, literal for
    /// `MovI`, shift amounts, lane indices, ...).
    pub imm: Option<i64>,
    /// Branch target label for control transfers.
    pub target: Option<String>,
    /// Compile-time known vector length for vector operations, obtained by
    /// the builder's simple data-flow analysis of `SetVL` (paper §3.3).
    /// `None` means the scheduler must assume the maximum vector length.
    pub vl_hint: Option<u32>,
    /// Compile-time known vector stride (in bytes) for vector memory
    /// operations, when the builder could determine it.  The *scheduler*
    /// always assumes stride one (paper §3.3); the hint is only used by
    /// tests and diagnostics.
    pub vs_hint: Option<i64>,
}

impl Op {
    pub fn new(opcode: Opcode) -> Self {
        Op {
            opcode,
            dst: None,
            srcs: Srcs::EMPTY,
            imm: None,
            target: None,
            vl_hint: None,
            vs_hint: None,
        }
    }

    pub fn with_dst(mut self, dst: Reg) -> Self {
        self.dst = Some(dst);
        self
    }

    /// Set the source registers; panics on more than [`MAX_SRCS`].
    pub fn with_srcs(mut self, srcs: &[Reg]) -> Self {
        self.srcs = Srcs::new(srcs);
        self
    }

    pub fn with_imm(mut self, imm: i64) -> Self {
        self.imm = Some(imm);
        self
    }

    pub fn with_target(mut self, target: impl Into<String>) -> Self {
        self.target = Some(target.into());
        self
    }

    /// All registers read by this operation, including the implicit
    /// control-register reads of vector operations.
    pub fn reads(&self) -> impl Iterator<Item = Reg> + '_ {
        let vl = self.opcode.reads_vl().then_some(Reg::vl());
        let vs = self.opcode.reads_vs().then_some(Reg::vs());
        self.srcs.iter().copied().chain(vl).chain(vs)
    }

    /// The register written by this operation, if any.
    pub fn writes(&self) -> Option<Reg> {
        self.dst
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode.mnemonic())?;
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
        }
        for s in self.srcs.iter() {
            write!(f, " {s}")?;
        }
        if let Some(i) = self.imm {
            write!(f, " #{i}")?;
        }
        if let Some(t) = &self.target {
            write!(f, " ->{t}")?;
        }
        Ok(())
    }
}

/// Identifier of a basic block within a program (its index).
pub type BlockId = usize;

/// A basic block: a label, a region, and a straight-line sequence of
/// operations terminated (optionally) by a branch.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    pub label: String,
    pub region: RegionId,
    pub ops: Vec<Op>,
}

impl BasicBlock {
    pub fn new(label: impl Into<String>, region: RegionId) -> Self {
        BasicBlock {
            label: label.into(),
            region,
            ops: Vec::new(),
        }
    }

    /// The terminating branch of the block, if it ends in one.
    pub fn terminator(&self) -> Option<&Op> {
        self.ops
            .last()
            .filter(|op| op.opcode.is_branch() || op.opcode == Opcode::Halt)
    }
}

/// A complete program: an ordered list of basic blocks (fall-through goes to
/// the next block in order) plus region metadata.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub name: String,
    pub blocks: Vec<BasicBlock>,
    pub regions: Vec<RegionInfo>,
}

impl Program {
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            blocks: Vec::new(),
            regions: vec![RegionInfo {
                id: RegionId::SCALAR,
                name: "scalar".to_string(),
            }],
        }
    }

    /// Map from label to block id.
    pub fn label_map(&self) -> HashMap<&str, BlockId> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (b.label.as_str(), i))
            .collect()
    }

    /// Find the block with the given label.
    pub fn block_by_label(&self, label: &str) -> Option<BlockId> {
        self.blocks.iter().position(|b| b.label == label)
    }

    /// Total static operation count (excluding `Nop`).
    pub fn static_op_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.ops.iter().filter(|o| o.opcode != Opcode::Nop).count())
            .sum()
    }

    /// All region infos, including the implicit scalar region.
    pub fn region_info(&self, id: RegionId) -> Option<&RegionInfo> {
        self.regions.iter().find(|r| r.id == id)
    }

    /// Number of distinct regions referenced by the program's blocks.
    pub fn region_ids(&self) -> Vec<RegionId> {
        let mut ids: Vec<RegionId> = self.blocks.iter().map(|b| b.region).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Iterate over every operation in the program together with its block.
    pub fn iter_ops(&self) -> impl Iterator<Item = (BlockId, &Op)> {
        self.blocks
            .iter()
            .enumerate()
            .flat_map(|(i, b)| b.ops.iter().map(move |o| (i, o)))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {}", self.name)?;
        for block in &self.blocks {
            writeln!(f, "{}:  ; region {}", block.label, block.region.0)?;
            for op in &block.ops {
                writeln!(f, "    {op}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::{BrCond, Opcode};
    use crate::reg::Reg;

    fn tiny_program() -> Program {
        let mut p = Program::new("tiny");
        let mut b0 = BasicBlock::new("entry", RegionId::SCALAR);
        b0.ops
            .push(Op::new(Opcode::MovI).with_dst(Reg::int(0)).with_imm(5));
        b0.ops
            .push(Op::new(Opcode::MovI).with_dst(Reg::int(1)).with_imm(0));
        let mut b1 = BasicBlock::new("loop", RegionId(1));
        b1.ops.push(
            Op::new(Opcode::IAdd)
                .with_dst(Reg::int(1))
                .with_srcs(&[Reg::int(1), Reg::int(0)]),
        );
        b1.ops.push(
            Op::new(Opcode::Br(BrCond::Ne))
                .with_srcs(&[Reg::int(1), Reg::int(0)])
                .with_target("loop"),
        );
        let mut b2 = BasicBlock::new("exit", RegionId::SCALAR);
        b2.ops.push(Op::new(Opcode::Halt));
        p.blocks = vec![b0, b1, b2];
        p.regions.push(RegionInfo {
            id: RegionId(1),
            name: "loop region".into(),
        });
        p
    }

    #[test]
    fn label_lookup() {
        let p = tiny_program();
        assert_eq!(p.block_by_label("loop"), Some(1));
        assert_eq!(p.block_by_label("missing"), None);
        assert_eq!(p.label_map()["exit"], 2);
    }

    #[test]
    fn op_read_write_sets() {
        let op = Op::new(Opcode::IAdd)
            .with_dst(Reg::int(2))
            .with_srcs(&[Reg::int(0), Reg::int(1)]);
        assert_eq!(op.reads().collect::<Vec<_>>(), [Reg::int(0), Reg::int(1)]);
        assert_eq!(op.writes(), Some(Reg::int(2)));

        let vop = Op::new(Opcode::VLoad)
            .with_dst(Reg::vec(0))
            .with_srcs(&[Reg::int(3)]);
        let reads: Vec<_> = vop.reads().collect();
        assert!(reads.contains(&Reg::vl()));
        assert!(reads.contains(&Reg::vs()));
    }

    #[test]
    fn sources_are_an_inline_slice() {
        let regs = [Reg::int(4), Reg::vec(2), Reg::acc(1)];
        for n in 0..=MAX_SRCS {
            let mut op = Op::new(Opcode::Nop).with_srcs(&regs[..n]);
            assert_eq!(*op.srcs, regs[..n]);
            // Compares and prints as the slice, whatever the unused room holds.
            assert_eq!(format!("{:?}", op.srcs), format!("{:?}", &regs[..n]));
            assert_eq!(op.srcs, Srcs::new(&regs[..n]));
            for r in op.srcs.iter_mut() {
                r.index += 10;
            }
            assert!(op
                .srcs
                .iter()
                .zip(&regs)
                .all(|(a, b)| a.index == b.index + 10));
        }
        assert_ne!(Srcs::new(&regs[..1]), Srcs::new(&regs[..2]));
    }

    #[test]
    #[should_panic(expected = "at most 3 source registers, not 4")]
    fn more_sources_than_any_opcode_has_panic() {
        let _ = Op::new(Opcode::Nop).with_srcs(&[Reg::int(0); 4]);
    }

    #[test]
    fn terminator_detection() {
        let p = tiny_program();
        assert!(p.blocks[0].terminator().is_none());
        assert!(p.blocks[1].terminator().is_some());
        assert!(p.blocks[2].terminator().is_some());
    }

    #[test]
    fn static_counts_and_regions() {
        let p = tiny_program();
        assert_eq!(p.static_op_count(), 5);
        assert_eq!(p.region_ids(), vec![RegionId(0), RegionId(1)]);
        assert!(p.region_info(RegionId(1)).is_some());
    }

    #[test]
    fn display_includes_labels_and_ops() {
        let p = tiny_program();
        let s = p.to_string();
        assert!(s.contains("entry:"));
        assert!(s.contains("loop:"));
        assert!(s.contains("movi"));
    }
}
