//! # vmv-sched — the static VLIW scheduler
//!
//! The "compiler back-end" of the reproduction: it takes a hand-written
//! program (`vmv-isa`) and a machine configuration (`vmv-machine`, Table 2)
//! and produces a static schedule — one VLIW instruction (bundle) per cycle
//! per basic block — honouring:
//!
//! * data dependences with HPL-PD-style latency descriptors (Fig. 3),
//! * the vector latency formula `Tlw = L + (VL-1)/LN` and the chaining rule
//!   of §3.3 for vector→vector dependences,
//! * the functional-unit, cache-port and issue-width resources of Table 2,
//! * the architectural register-file sizes (register allocation).
//!
//! After scheduling, [`lower()`] resolves the schedule into the executable
//! [`LoweredProgram`] — labels to block indices, registers to flat slot
//! indices, per-op latency metadata baked in — which is what the simulator's
//! hot loop consumes.

#![forbid(unsafe_code)]

pub mod bundle;
pub mod ddg;
pub mod list;
pub mod lower;
pub mod pipeline;
pub mod regalloc;
pub mod restable;

pub use bundle::{ScheduledBlock, ScheduledOp, ScheduledProgram};
pub use ddg::{DepEdge, DepGraph, DepKind};
pub use lower::{lower, LowerError, LoweredBlock, LoweredOp, LoweredProgram};
pub use pipeline::{analyze, compile, Analysis, CompileError, Compiled};
pub use regalloc::{allocate, Allocation, RegAllocError};
pub use restable::ReservationTable;
