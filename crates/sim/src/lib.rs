//! # vmv-sim — cycle-level simulator of the Vector-µSIMD-VLIW processor
//!
//! Executes statically scheduled programs (`vmv-sched`) on a machine
//! configuration (`vmv-machine`, Table 2) both *functionally* — every
//! operation computes real values over a flat memory image, so kernel
//! outputs can be checked against golden reference implementations — and
//! *temporally*: one VLIW instruction issues per cycle, and the machine
//! stalls whenever run-time latencies exceed what the compiler assumed
//! (cache misses, non-unit-stride vector accesses, cross-block dependences),
//! exactly the stall-on-miss model of the paper.
//!
//! Three timing engines share that model and are bit-identical on every
//! run (`tests/lowered_differential.rs`): the string-keyed reference
//! interpreter (`Simulator::run_reference`), the lowered hot path
//! (`Simulator::run_lowered*`, which can also record a [`Trace`]), and the
//! batched trace retimer ([`replay_batch`]), which prices K memory
//! variants of one recorded execution in a single walk — on the schedule
//! it was recorded on or on any other schedule of the same program, since
//! a trace files its values by source position.

#![forbid(unsafe_code)]

pub mod engine;
pub mod exec;
pub mod memimage;
pub mod profile;
pub mod regfile;
pub mod replay;
pub mod stats;
pub mod trace;

pub use engine::{SimError, SimOptions, Simulator};
pub use exec::{execute_lowered, execute_op, ExecOutcome, ExecResult, LoweredOutcome, MemAccess};
pub use memimage::MemImage;
pub use profile::{
    BlockProfile, BundleProfile, Cause, OpProfile, Profile, ProfileStatics, RegionProfile,
    TimelineEvent, LANE_NAMES, N_CAUSES, N_STALLS, STALL_BASE, TIMELINE_CAP,
};
pub use regfile::{RegFiles, VectorValue};
pub use replay::{replay_batch, replay_batch_profiled, ReplayAnalysis, ReplayError, VariantState};
pub use stats::{RegionStats, RunStats};
pub use trace::{Pricing, Trace, TraceLayout};
