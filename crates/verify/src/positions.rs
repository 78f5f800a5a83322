//! Position certification: a schedule may permute a source block only in
//! ways that keep every conflicting pair of operations in order, because a
//! timing trace recorded on one schedule of a program is retimed on all of
//! them (`vmv_sim::trace` files dynamic values by source position).
//!
//! Per block, the source positions must be a permutation of `0..n`, and
//! every pair of operations that conflict in source order — a register
//! read after write, write after read or write after write (the implicit
//! `VL`/`VS` reads included), or a store against any other memory
//! operation — must keep that order in traversal order.  Unlike
//! [`crate::verify_schedule`], which derives dependences from the
//! traversal order itself, this check reads the order the source block
//! fixes, so it catches a reordering that changes what the schedule
//! computes.  The lowered program must carry the same positions, since
//! those are the ones a recording and a replay use.
//!
//! One walk in source order suffices: it keeps, per register, the last
//! writer and the latest-traversed read since, and for memory the last
//! store and the latest-traversed access since.  Each operation is checked
//! only against those; every other conflicting pair then follows by
//! transitivity of the traversal order.

use std::collections::HashMap;

use vmv_isa::{Op, Reg};
use vmv_sched::{LoweredProgram, ScheduledBlock, ScheduledProgram};

use crate::diag::{Check, Diagnostic};

/// Certify the source positions of every block of `schedule`, and that
/// `lowered` carries the same ones.
pub fn verify_positions(schedule: &ScheduledProgram, lowered: &LoweredProgram) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for block in &schedule.blocks {
        verify_block(block, &mut diags);
    }
    let scheduled = schedule
        .blocks
        .iter()
        .flat_map(|b| b.positions.iter().copied());
    if !scheduled.eq(lowered.ops.iter().map(|op| op.pos)) {
        diags.push(Diagnostic::error(
            Check::Layout,
            format!("program '{}'", lowered.name),
            "the lowered program's source positions differ from the schedule's",
        ));
    }
    diags
}

fn verify_block(block: &ScheduledBlock, diags: &mut Vec<Diagnostic>) {
    let label = block.label.as_str();
    let flat: Vec<(usize, &Op)> = block
        .bundles
        .iter()
        .enumerate()
        .flat_map(|(c, bundle)| bundle.iter().map(move |op| (c, op)))
        .collect();
    let n = flat.len();

    // Traversal index of each source position.
    let mut at = vec![usize::MAX; n];
    let permutation = block.positions.len() == n
        && block.positions.iter().enumerate().all(|(t, &p)| {
            (p as usize) < n && std::mem::replace(&mut at[p as usize], t) == usize::MAX
        });
    if !permutation {
        diags.push(Diagnostic::error(
            Check::Layout,
            format!("block '{label}'"),
            format!(
                "source positions {:?} are not a permutation of the block's {n} operations",
                block.positions
            ),
        ));
        return;
    }

    // `earlier` precedes the operation at traversal index `t` in source
    // order and conflicts with it, so it must be traversed first.
    let mut keep_order = |earlier: usize, t: usize, what: String| {
        if earlier > t {
            let (c, op) = flat[t];
            diags.push(Diagnostic::error(
                Check::Hazard,
                format!("block '{label}', bundle {c}"),
                format!(
                    "'{op}' runs before '{}', which precedes it in source order ({what})",
                    flat[earlier].1
                ),
            ));
        }
    };
    let mut last_write: HashMap<Reg, usize> = HashMap::new();
    let mut reads_since: HashMap<Reg, usize> = HashMap::new();
    let mut last_store: Option<usize> = None;
    let mut accesses_since: Option<usize> = None;
    for &t in &at {
        let op = flat[t].1;
        for r in op.reads() {
            if let Some(&w) = last_write.get(&r) {
                keep_order(w, t, format!("read after write of {r}"));
            }
            let latest = reads_since.entry(r).or_insert(t);
            *latest = (*latest).max(t);
        }
        if let Some(d) = op.writes() {
            if let Some(&w) = last_write.get(&d) {
                keep_order(w, t, format!("write after write of {d}"));
            }
            if let Some(r) = reads_since.remove(&d) {
                keep_order(r, t, format!("write after read of {d}"));
            }
            last_write.insert(d, t);
        }
        if op.opcode.is_memory() {
            if let Some(s) = last_store {
                keep_order(s, t, "memory access after a store".to_string());
            }
            if op.opcode.is_store() {
                if let Some(a) = accesses_since.take() {
                    keep_order(a, t, "store after a memory access".to_string());
                }
                last_store = Some(t);
            } else {
                accesses_since = Some(accesses_since.map_or(t, |a| a.max(t)));
            }
        }
    }
}
