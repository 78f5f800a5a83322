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
//! verification and register liveness, which no machine parameter affects.
//! [`Analysis::compile`] is the machine's half: the ISA check, the linear
//! scan against the register files, the rename and list scheduling.  A
//! caller that compiles one program for many machines analyses it once.

use vmv_isa::{verify_program, Program};
use vmv_machine::MachineConfig;

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
/// [`Analysis::compile`].
pub fn compile(program: &Program, machine: &MachineConfig) -> Result<Compiled, CompileError> {
    analyze(program)?.compile(program, machine)
}

/// The program's half of compilation: what [`Analysis::compile`] needs of
/// a verified program for any machine.
#[derive(Debug, Clone)]
pub struct Analysis {
    liveness: Liveness,
    /// The analysed program's operation count, to catch a caller that
    /// compiles a different program.
    ops: usize,
}

/// Verify `program` and compute its register liveness.
pub fn analyze(program: &Program) -> Result<Analysis, CompileError> {
    let errors = verify_program(program);
    if !errors.is_empty() {
        return Err(CompileError::Malformed(errors));
    }
    Ok(Analysis {
        liveness: Liveness::of(program),
        ops: program.static_op_count(),
    })
}

impl Analysis {
    /// Compile `program`, which must be the program analysed, for
    /// `machine`: check that the machine implements every operation,
    /// allocate registers, and list-schedule each block.
    pub fn compile(
        &self,
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
        // position.
        let mut scheduled = ScheduledProgram::from_program_shell(program);
        for block in allocated.blocks {
            let (bundles, positions) = schedule_block(block.ops, machine);
            scheduled.blocks.push(ScheduledBlock {
                label: block.label,
                region: block.region,
                bundles,
                positions,
            });
        }

        Ok(Compiled { program: scheduled })
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
        let analysis = analyze(&p).unwrap();
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
