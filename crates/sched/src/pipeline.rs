//! The end-to-end "compiler back-end": verification → register allocation →
//! per-block list scheduling → bundle emission.
//!
//! This is the role the (modified) Trimaran/Elcor tool-chain plays in the
//! paper: it consumes the hand-written programs with µSIMD / Vector-µSIMD
//! emulation operations already expanded, assigns registers against the
//! Table 2 register files, and produces a static schedule for one concrete
//! machine configuration.

use vmv_isa::{verify_program, Program};
use vmv_machine::MachineConfig;

use crate::bundle::{ScheduledBlock, ScheduledProgram};
use crate::list::schedule_block;
use crate::regalloc::{allocate, RegAllocError};

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

/// Compile `program` for `machine`.
pub fn compile(program: &Program, machine: &MachineConfig) -> Result<Compiled, CompileError> {
    // 1. Static verification.
    let errors = verify_program(program);
    if !errors.is_empty() {
        return Err(CompileError::Malformed(errors));
    }

    // 2. ISA support check.
    for (_, op) in program.iter_ops() {
        if !machine.supports_op(op.opcode) {
            return Err(CompileError::UnsupportedOp {
                opcode: op.opcode.mnemonic(),
                machine: machine.name.clone(),
            });
        }
    }

    // 3. Register allocation.
    let (allocated, _) = allocate(program, machine).map_err(CompileError::RegAlloc)?;

    // 4. Per-block list scheduling; each allocated op moves into its bundle
    //    and keeps its source position.
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
