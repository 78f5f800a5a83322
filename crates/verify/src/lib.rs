//! Static verification of compiled programs: an independent checker that
//! *proves*, per schedule, the invariants the simulators merely assume.
//!
//! The three timing engines (reference, lowered, batched replay) all lean
//! on guarantees established at compile time: the list scheduler placed
//! every consumer at least its producer's `raw_latency` away, never
//! oversubscribed a functional unit, and kept the block terminator last;
//! the lowering pass resolved every register to an in-range scoreboard
//! slot and every label to a real block; and the replay slot analysis
//! (`vmv_sim::ReplayAnalysis`) drops from the scoreboard exactly the
//! slots those guarantees make provably stall-free.  The
//! differential suite samples 120 dynamic cases of this contract — this
//! crate discharges it *statically*, for every bundle of every block:
//!
//! - [`verify_schedule`] re-derives the RAW/WAW/WAR/memory dependence
//!   edges (implicit `VL`/`VS` reads included) and the `raw_latency` /
//!   chaining bounds directly from operation semantics, in the schedule's
//!   own traversal order, and proves every bundle placement respects
//!   them; it also re-runs the resource accounting (issue width, unit
//!   pools over occupancy windows, L1/L2 ports) against the machine.
//! - [`verify_lowered`] checks slot-layout soundness (indices in range,
//!   `NO_SLOT` only where legal, per-op metadata matching the machine's
//!   latency/lane tables, branch targets in range) and the control-flow
//!   obligations the engines rely on (no fall-through off the end, a
//!   reachable `halt`).
//! - [`verify_replay_subset`] re-derives the set of slots that *must*
//!   stay on the replay scoreboard from first principles and proves it is
//!   a subset of what [`vmv_sim::ReplayAnalysis`] tracks — turning the
//!   replay engine's trust-the-scheduler shortcut into a checked theorem.
//! - [`verify_positions`] proves each block's source positions are a
//!   permutation that keeps every source-order conflict (register RAW,
//!   WAR and WAW, store against any memory access) in order — the
//!   obligation behind retiming one schedule from another schedule's
//!   trace.
//!
//! Soundness note: the schedule checker derives dependences from the
//! flattened bundle-major traversal order — the order the engines
//! actually execute operations in — rather than from the source program.
//! For any schedule the in-tree list scheduler can produce the two orders
//! agree on every dependence-connected pair (a dependent operation is
//! only released once its predecessor is placed, and lands no earlier
//! than the next cycle), so a legal schedule never false-positives, while
//! any reordering that changes observable dataflow shows up as a hazard,
//! latency, or duplicate-write diagnostic.  What the traversal order alone
//! cannot show — that it is a legal reordering *of the source block* — is
//! [`verify_positions`]' job.
//!
//! Everything funnels through [`verify_compiled`], which the compile
//! cache calls under `debug_assertions` (or `--verify`) so every cached
//! schedule is certified exactly once, and which `verify --all` sweeps
//! across the full preset × kernel matrix in CI.

#![forbid(unsafe_code)]

pub mod diag;
pub mod lowered;
pub mod positions;
pub mod replay;
pub mod schedule;

pub use diag::{has_errors, Check, Diagnostic, Severity};
pub use lowered::verify_lowered;
pub use positions::verify_positions;
pub use replay::{must_track, verify_replay_subset};
pub use schedule::verify_schedule;

use vmv_machine::MachineConfig;
use vmv_sched::{LoweredProgram, ScheduledProgram};

/// Run every static check over one compiled program: the schedule-level
/// hazard/latency/resource proofs, the source-position certification, the
/// lowered-level layout/metadata/CFG checks, and the replay slot-analysis
/// subset proof.  Returns every diagnostic found (empty means the program
/// is certified).
pub fn verify_compiled(
    schedule: &ScheduledProgram,
    lowered: &LoweredProgram,
    machine: &MachineConfig,
) -> Vec<Diagnostic> {
    let mut diags = verify_schedule(schedule, machine);
    diags.extend(verify_positions(schedule, lowered));
    diags.extend(verify_lowered(lowered, machine));
    let analysis = vmv_sim::ReplayAnalysis::build(lowered);
    diags.extend(verify_replay_subset(lowered, analysis.tracked_slots()));
    vmv_obs::incr(vmv_obs::Counter::VerifyChecks);
    diags
}
