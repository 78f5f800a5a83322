//! The end-to-end "compiler back-end": verification → register allocation →
//! per-block list scheduling → bundle emission.
//!
//! This is the role the (modified) Trimaran/Elcor tool-chain plays in the
//! paper: it consumes the hand-written programs with µSIMD / Vector-µSIMD
//! emulation operations already expanded, assigns registers against the
//! Table 2 register files, and produces a static schedule for one concrete
//! machine configuration.
//!
//! [`compile`] is two halves.  [`analyze`] is the program's half: static
//! verification, register liveness and each block's ISA family, which no
//! machine parameter affects.  [`Analysis::compile`] is the machine's half:
//! the ISA check, the linear scan against the register files, the rename
//! and list scheduling.  A caller that compiles one program for many
//! machines analyses it once.
//!
//! The analysis also keeps the program's *block placements*.  A block is
//! scheduled on the machine as code of the block's own family sees it
//! ([`MachineConfig::view_for`]), and most blocks of a µSIMD or vector
//! program are scalar or µSIMD code that reads less of the machine than
//! the program's ISA does.  So a block narrower than the machine's ISA is
//! placed once per view: its bundle sizes and source positions are stored
//! under (block, view), and a later machine with the same view moves its
//! allocated operations into bundles by them, with no dependence graph and
//! no list scheduling.  Register files are part of every view, and
//! allocation reads nothing else of the machine, so equal views also mean
//! identical allocated operations.  A block of the machine's own family is
//! not stored: its view is the machine's schedule view, which a caller
//! compiles once.

use vmv_isa::{verify_program, Op, Opcode, Program};
use vmv_machine::{IsaSupport, MachineConfig, MemoryParams};

use crate::bundle::{ScheduledBlock, ScheduledProgram};
use crate::list::schedule_block;
use crate::regalloc::{Liveness, RegAllocError};

/// Errors produced by the compilation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The input program failed static verification.
    Malformed(Vec<vmv_isa::VerifyError>),
    /// The program uses operations the target machine does not implement
    /// (e.g. vector operations on a µSIMD-only configuration).
    UnsupportedOp { opcode: String, machine: String },
    /// Register pressure exceeds the architectural register file.
    RegAlloc(RegAllocError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Malformed(errs) => {
                write!(f, "program failed verification ({} problems)", errs.len())
            }
            CompileError::UnsupportedOp { opcode, machine } => {
                write!(
                    f,
                    "operation '{opcode}' is not supported by machine '{machine}'"
                )
            }
            CompileError::RegAlloc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Result of a successful compilation.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub program: ScheduledProgram,
}

/// Compile `program` for `machine`: [`analyze`] followed by
/// [`Analysis::compile`], on an analysis with no stored placements.
pub fn compile(program: &Program, machine: &MachineConfig) -> Result<Compiled, CompileError> {
    analyze(program)?.compile(program, machine)
}

/// The program's half of compilation: what [`Analysis::compile`] needs of
/// a verified program for any machine, and the block placements of its
/// earlier compiles.
#[derive(Debug, Clone)]
pub struct Analysis {
    liveness: Liveness,
    /// The analysed program's operation count, to catch a caller that
    /// compiles a different program.
    ops: usize,
    /// Each block's family: the narrowest ISA family whose view keeps what
    /// scheduling its operations reads ([`IsaSupport::reading`]).
    families: Vec<IsaSupport>,
    /// Stored placements by view: `placed[v].1[b]` places block `b` for
    /// every machine whose view of the block's family is `placed[v].0`
    /// (see [`view_key`]).  A program meets few distinct views.
    placed: Vec<(MachineConfig, Vec<Option<Placement>>)>,
}

/// Where list scheduling put a block's operations: the size of each bundle
/// and the source position of each operation in traversal order (see
/// [`ScheduledBlock::positions`]).  No operations: those come from each
/// compile's own allocation.
#[derive(Debug, Clone)]
struct Placement {
    sizes: Vec<u32>,
    positions: Vec<u32>,
}

impl Placement {
    fn of(bundles: &[Vec<Op>], positions: &[u32]) -> Placement {
        Placement {
            sizes: bundles.iter().map(|b| b.len() as u32).collect(),
            positions: positions.to_vec(),
        }
    }

    /// Move `ops`, one block's allocated operations, into bundles as
    /// placed: what [`schedule_block`] returns for them.
    fn apply(&self, mut ops: Vec<Op>) -> (Vec<Vec<Op>>, Vec<u32>) {
        let mut next = self.positions.iter();
        let bundles = self
            .sizes
            .iter()
            .map(|&size| {
                let placed = next.by_ref().take(size as usize);
                placed
                    .map(|&p| std::mem::replace(&mut ops[p as usize], Op::new(Opcode::Nop)))
                    .collect()
            })
            .collect();
        (bundles, self.positions.clone())
    }
}

/// The key placements of `family` blocks are stored under: `machine` as
/// `family` code sees it, without the name and memory parameters, which
/// scheduling never reads.
fn view_key(machine: &MachineConfig, family: IsaSupport) -> MachineConfig {
    MachineConfig {
        name: String::new(),
        memory: MemoryParams::default(),
        ..machine.view_for(family)
    }
}

/// Verify `program`, compute its register liveness and find each block's
/// family.
pub fn analyze(program: &Program) -> Result<Analysis, CompileError> {
    let errors = verify_program(program);
    if !errors.is_empty() {
        return Err(CompileError::Malformed(errors));
    }
    let families = program.blocks.iter().map(|block| {
        let families = block.ops.iter().map(|op| IsaSupport::reading(op.opcode));
        families.max().unwrap_or(IsaSupport::Vliw)
    });
    Ok(Analysis {
        liveness: Liveness::of(program),
        ops: program.static_op_count(),
        families: families.collect(),
        placed: Vec::new(),
    })
}

impl Analysis {
    /// Compile `program`, which must be the program analysed, for
    /// `machine`: check that the machine implements every operation,
    /// allocate registers, and list-schedule each block, or place it as
    /// stored for the machine's view of the block's family.  Each block
    /// narrower than the machine's ISA that this compile schedules is
    /// stored for later compiles.
    pub fn compile(
        &mut self,
        program: &Program,
        machine: &MachineConfig,
    ) -> Result<Compiled, CompileError> {
        debug_assert_eq!(
            program.static_op_count(),
            self.ops,
            "not the analysed program"
        );
        for (_, op) in program.iter_ops() {
            if !machine.supports_op(op.opcode) {
                return Err(CompileError::UnsupportedOp {
                    opcode: op.opcode.mnemonic(),
                    machine: machine.name.clone(),
                });
            }
        }

        let (allocated, _) = self
            .liveness
            .allocate(program, machine)
            .map_err(CompileError::RegAlloc)?;

        // Each allocated op moves into its bundle and keeps its source
        // position.  `views[f]` is the stored view of family `f` (VLIW or
        // µSIMD), looked up when a block of that family first needs it.
        let mut views: [Option<usize>; 2] = [None; 2];
        let mut scheduled = ScheduledProgram::from_program_shell(program);
        for (b, block) in allocated.blocks.into_iter().enumerate() {
            let family = self.families[b];
            let view = (family < machine.isa)
                .then(|| *views[family as usize].get_or_insert_with(|| self.view(machine, family)));
            let placed = view.map(|v| &mut self.placed[v].1[b]);
            let (bundles, positions) = match placed {
                Some(Some(placement)) => placement.apply(block.ops),
                Some(slot) => {
                    let (bundles, positions) = schedule_block(block.ops, machine);
                    *slot = Some(Placement::of(&bundles, &positions));
                    (bundles, positions)
                }
                None => schedule_block(block.ops, machine),
            };
            scheduled.blocks.push(ScheduledBlock {
                label: block.label,
                region: block.region,
                bundles,
                positions,
            });
        }

        Ok(Compiled { program: scheduled })
    }

    /// The index in `placed` of `machine`'s view of `family`, added with no
    /// placements if new.
    fn view(&mut self, machine: &MachineConfig, family: IsaSupport) -> usize {
        let key = view_key(machine, family);
        match self.placed.iter().position(|(view, _)| *view == key) {
            Some(v) => v,
            None => {
                self.placed.push((key, vec![None; self.families.len()]));
                self.placed.len() - 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_isa::ProgramBuilder;
    use vmv_machine::presets;

    fn vector_sad_program() -> Program {
        let mut b = ProgramBuilder::new("sad");
        let src_a = b.imm(0x1000);
        let src_b = b.imm(0x2000);
        let out = b.imm(0x3000);
        b.begin_region(1, "motion estimation");
        b.setvl(8);
        b.setvs(8);
        let v1 = b.rv();
        let v2 = b.rv();
        b.vload(v1, src_a, 0);
        b.vload(v2, src_b, 0);
        let acc = b.ra();
        b.acc_clear(acc);
        b.vsad_acc(acc, v1, v2);
        let sum = b.ri();
        b.acc_reduce(sum, acc);
        b.end_region();
        b.st32(out, 0, sum);
        b.halt();
        b.finish()
    }

    #[test]
    fn compiles_vector_code_on_vector_machines_only() {
        let p = vector_sad_program();
        assert!(compile(&p, &presets::vector2(2)).is_ok());
        assert!(compile(&p, &presets::vector1(4)).is_ok());
        let err = compile(&p, &presets::usimd(8)).unwrap_err();
        assert!(matches!(err, CompileError::UnsupportedOp { .. }));
        let err = compile(&p, &presets::vliw(2)).unwrap_err();
        assert!(matches!(err, CompileError::UnsupportedOp { .. }));
    }

    #[test]
    fn malformed_programs_are_rejected() {
        let mut b = ProgramBuilder::new("bad");
        let x = b.imm(0);
        b.bne_i(x, 0, "no_such_label");
        let p = b.finish();
        let err = compile(&p, &presets::vliw(2)).unwrap_err();
        assert!(matches!(err, CompileError::Malformed(_)));
    }

    #[test]
    fn one_analysis_serves_every_machine() {
        let p = vector_sad_program();
        let mut analysis = analyze(&p).unwrap();
        for machine in [presets::vector1(2), presets::vector2(4), presets::usimd(8)] {
            let whole = compile(&p, &machine).map(|c| c.program.dump());
            let halves = analysis.compile(&p, &machine).map(|c| c.program.dump());
            assert_eq!(halves, whole, "{}", machine.name);
        }
        let mut cramped = presets::vector1(2);
        cramped.regs.vec = 1;
        let err = analysis.compile(&p, &cramped).unwrap_err();
        assert!(matches!(err, CompileError::RegAlloc(_)), "{err}");
    }

    #[test]
    fn schedule_preserves_region_tags_and_op_counts() {
        let p = vector_sad_program();
        let compiled = compile(&p, &presets::vector2(2)).unwrap();
        assert_eq!(compiled.program.static_op_count(), p.static_op_count());
        let vector_blocks: Vec<_> = compiled
            .program
            .blocks
            .iter()
            .filter(|b| b.region == vmv_isa::RegionId(1))
            .collect();
        assert!(!vector_blocks.is_empty());
    }

    #[test]
    fn wider_machines_produce_denser_schedules() {
        let mut b = ProgramBuilder::new("ilp");
        let base = b.imm(0x1000);
        let mut temps = Vec::new();
        for i in 0..12 {
            let t = b.ri();
            b.ld32s(t, base, 4 * i);
            let u = b.ri();
            b.addi(u, t, 1);
            temps.push(u);
        }
        for (i, t) in temps.iter().enumerate() {
            b.st32(base, 256 + 4 * i as i64, *t);
        }
        b.halt();
        let p = b.finish();

        let narrow = compile(&p, &presets::vliw(2))
            .unwrap()
            .program
            .static_schedule_length();
        let wide = compile(&p, &presets::vliw(8))
            .unwrap()
            .program
            .static_schedule_length();
        assert!(
            wide < narrow,
            "8-wide should be shorter: {wide} vs {narrow}"
        );
    }
}
