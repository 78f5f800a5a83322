//! Replay slot-analysis subset proof.
//!
//! The batched replay walk (`vmv_sim::replay_batch`) collapses provably
//! stall-free register slots off its scoreboard.  Its classification
//! ([`vmv_sim::ReplayAnalysis`]) is derived from the same lowered program
//! the walk then retimes — so a bug there would make the replay engine
//! silently fast, not visibly wrong.  This module
//! re-derives, from first principles, the set of slots that *must* stay
//! tracked, and proves it is a subset of what the engine actually keeps.
//!
//! A written slot must stay on the scoreboard when some operation reads it
//! somewhere in the program **and** the write's completion time is not
//! statically discharged by block shape alone:
//!
//! - the write's latency is dynamic at analysis time — memory operations
//!   (hierarchy-dependent) and `reads_vl` operations (VL-dependent) — or
//! - the write is fixed-latency but *escapes its block*: its flow latency
//!   exceeds the distance (in bundles) to the block's end, so a reader in
//!   a successor block could observe it in flight.  Every bundle takes at
//!   least one cycle, so a shorter write is always complete before any
//!   other block issues — and within the block the scheduler's latency
//!   proof ([`crate::verify_schedule`]) already guarantees readers issue
//!   after completion.
//!
//! The engine's own rule is strictly coarser (it additionally keeps
//! `setvl`/`halt` writes and every write of a demoted duplicate-write
//! bundle), so on a correct build the subset inclusion holds with slack;
//! any analysis regression that drops a must-track slot is a [`Check::Replay`]
//! error naming the architectural register behind the slot.

use vmv_isa::{Reg, RegClass, SlotLayout, NO_SLOT};
use vmv_sched::LoweredProgram;

use crate::diag::{Check, Diagnostic};

/// Re-derive the slots the replay scoreboard must track (see module docs).
pub fn must_track(program: &LoweredProgram) -> Vec<bool> {
    let total = program.total_slots();
    let mut read_exists = vec![false; total];
    for op in &program.ops {
        for &s in op.read_slots() {
            if (s as usize) < total {
                read_exists[s as usize] = true;
            }
        }
    }
    let mut must = vec![false; total];
    for block in &program.blocks {
        let n = block.bundle_count;
        for (i, b) in (block.first_bundle..block.first_bundle + n).enumerate() {
            for op in program.bundle_ops(b) {
                if op.dst_slot == NO_SLOT || (op.dst_slot as usize) >= total {
                    continue;
                }
                if !read_exists[op.dst_slot as usize] {
                    continue;
                }
                let dynamic_latency = op.opcode.is_memory() || op.reads_vl;
                if dynamic_latency || op.flow as u32 > n - i as u32 {
                    must[op.dst_slot as usize] = true;
                }
            }
        }
    }
    must
}

/// Name the architectural register a slot belongs to, for diagnostics.
fn reg_of_slot(layout: &SlotLayout, slot: u16) -> Option<Reg> {
    for &class in RegClass::ALL.iter() {
        let mut index = 0u32;
        while let Some(s) = layout.slot_of(Reg::new(class, index)) {
            if s == slot {
                return Some(Reg::new(class, index));
            }
            index += 1;
        }
    }
    None
}

/// Prove the engine's tracked set covers every must-track slot.
pub fn verify_replay_subset(program: &LoweredProgram, tracked: &[bool]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let must = must_track(program);
    if tracked.len() != must.len() {
        diags.push(Diagnostic::error(
            Check::Replay,
            "program",
            format!(
                "replay analysis covers {} slots but the program has {}",
                tracked.len(),
                must.len()
            ),
        ));
        return diags;
    }
    for (slot, (&need, &kept)) in must.iter().zip(tracked.iter()).enumerate() {
        if need && !kept {
            let who = reg_of_slot(&program.layout, slot as u16)
                .map(|r| format!("{r}"))
                .unwrap_or_else(|| "an unnamed register".to_string());
            diags.push(Diagnostic::error(
                Check::Replay,
                format!("slot {slot}"),
                format!(
                    "the replay analysis drops {who} from the scoreboard, \
                     but an in-flight write to it can be observed by a reader"
                ),
            ));
        }
    }
    diags
}
