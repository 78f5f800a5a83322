//! # vmv-mem — the memory hierarchy of the Vector-µSIMD-VLIW processor
//!
//! A timing model of the three-level memory system described in paper §3.2
//! and §4.2: an L1 data cache for scalar/µSIMD accesses, a two-bank
//! interleaved L2 *vector cache* with a wide port that vector accesses reach
//! directly (bypassing the L1), an L3 cache, and main memory.  Includes the
//! exclusive-bit + inclusion coherence between the L1 and the vector cache,
//! and both the *perfect* and *realistic* memory modes used in the paper's
//! evaluation (Fig. 5a vs 5b).

#![forbid(unsafe_code)]

pub mod cache;
pub mod hierarchy;
pub mod lines;
pub mod vector_cache;

pub use cache::{geometry_error, Cache, CacheStats, FillOutcome, LookupResult};
pub use hierarchy::{
    tag_equivalent_configs, AccessEcho, AccessKind, AccessTiming, ClassPricer, MemStats,
    MemoryHierarchy, MemoryModel, ServedBy, SharedAccessScratch,
};
pub use lines::LineWalk;
pub use vector_cache::{VectorAccessOutcome, VectorCache};
