//! Scheduled-program data structures: the output of the static scheduler and
//! the input of the cycle-level simulator.
//!
//! After scheduling, every basic block becomes a sequence of *VLIW
//! instructions* (bundles): each bundle groups the operations the compiler
//! placed in the same issue cycle.  Empty cycles are represented by empty
//! bundles so that the static schedule length of a block equals its bundle
//! count, matching the VLIW execution model where the fetch unit issues one
//! (possibly mostly-empty) instruction per cycle.

use std::collections::HashMap;

use vmv_isa::{Op, Program, RegionId, RegionInfo};

/// One operation placed in a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledOp {
    pub op: Op,
    /// Issue cycle relative to the start of the block.
    pub cycle: u32,
}

/// A scheduled basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledBlock {
    pub label: String,
    pub region: RegionId,
    /// `bundles[c]` holds the operations issued in cycle `c` of the block.
    pub bundles: Vec<Vec<Op>>,
    /// The source position (index in the allocated block) of every
    /// operation, in traversal order: bundle by bundle, each in its bundle's
    /// order.  A permutation of `0..n`.  Every schedule of one program
    /// shares its source blocks, so a position names the same operation in
    /// all of them — the address a timing trace files dynamic values under.
    /// Lowering copies each into its operation ([`crate::LoweredOp::pos`]).
    pub positions: Vec<u32>,
}

impl ScheduledBlock {
    /// Static schedule length of the block in cycles (at least 1 so that
    /// even an empty block consumes a cycle when executed).
    pub fn length(&self) -> u32 {
        self.bundles.len().max(1) as u32
    }

    /// Total number of operations in the block (excluding nops).
    pub fn op_count(&self) -> usize {
        self.bundles
            .iter()
            .map(|b| {
                b.iter()
                    .filter(|o| o.opcode != vmv_isa::Opcode::Nop)
                    .count()
            })
            .sum()
    }
}

/// A fully scheduled (and register-allocated) program.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledProgram {
    pub name: String,
    pub blocks: Vec<ScheduledBlock>,
    pub regions: Vec<RegionInfo>,
}

impl ScheduledProgram {
    /// Label → block index map.
    pub fn label_map(&self) -> HashMap<&str, usize> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (b.label.as_str(), i))
            .collect()
    }

    pub fn block_by_label(&self, label: &str) -> Option<usize> {
        self.blocks.iter().position(|b| b.label == label)
    }

    /// Total static operation count.
    pub fn static_op_count(&self) -> usize {
        self.blocks.iter().map(|b| b.op_count()).sum()
    }

    /// Sum of static schedule lengths (a crude lower bound on execution time
    /// if every block executed exactly once with no stalls).
    pub fn static_schedule_length(&self) -> u64 {
        self.blocks.iter().map(|b| b.length() as u64).sum()
    }

    /// Region metadata lookup.
    pub fn region_info(&self, id: RegionId) -> Option<&RegionInfo> {
        self.regions.iter().find(|r| r.id == id)
    }

    /// Carry over region metadata from the original program.
    pub fn from_program_shell(program: &Program) -> Self {
        ScheduledProgram {
            name: program.name.clone(),
            blocks: Vec::new(),
            regions: program.regions.clone(),
        }
    }

    /// Render the schedule as text (used by the motion-estimation example to
    /// show the Fig. 4-style schedule).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scheduled program {}\n", self.name));
        for block in &self.blocks {
            out.push_str(&format!("{}:  ; region {}\n", block.label, block.region.0));
            for (cycle, bundle) in block.bundles.iter().enumerate() {
                if bundle.is_empty() {
                    out.push_str(&format!("  {cycle:4} | (empty)\n"));
                } else {
                    let ops: Vec<String> = bundle.iter().map(|o| o.to_string()).collect();
                    out.push_str(&format!("  {cycle:4} | {}\n", ops.join("  ||  ")));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_isa::{Op, Opcode, Reg};

    fn block_with(ops_per_cycle: &[usize]) -> ScheduledBlock {
        let bundles = ops_per_cycle
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|i| {
                        Op::new(Opcode::MovI)
                            .with_dst(Reg::int(i as u32))
                            .with_imm(0)
                    })
                    .collect()
            })
            .collect();
        ScheduledBlock {
            label: "b".into(),
            region: RegionId::SCALAR,
            bundles,
            positions: (0..ops_per_cycle.iter().sum::<usize>() as u32).collect(),
        }
    }

    #[test]
    fn lengths_and_counts() {
        let b = block_with(&[2, 0, 1]);
        assert_eq!(b.length(), 3);
        assert_eq!(b.op_count(), 3);
        let empty = ScheduledBlock {
            label: "e".into(),
            region: RegionId::SCALAR,
            bundles: vec![],
            positions: vec![],
        };
        assert_eq!(empty.length(), 1);
    }

    #[test]
    fn program_level_aggregates() {
        let p = ScheduledProgram {
            name: "p".into(),
            blocks: vec![block_with(&[1, 1]), block_with(&[3])],
            regions: vec![RegionInfo {
                id: RegionId::SCALAR,
                name: "scalar".into(),
            }],
        };
        assert_eq!(p.static_op_count(), 5);
        assert_eq!(p.static_schedule_length(), 3);
        assert_eq!(p.block_by_label("b"), Some(0));
    }

    #[test]
    fn dump_contains_cycle_numbers() {
        let p = ScheduledProgram {
            name: "p".into(),
            blocks: vec![block_with(&[1, 0])],
            regions: vec![],
        };
        let s = p.dump();
        assert!(s.contains("0 |"));
        assert!(s.contains("(empty)"));
    }
}
