//! # vmv-mem — the memory hierarchy of the Vector-µSIMD-VLIW processor
//!
//! A timing model of the three-level memory system described in paper §3.2
//! and §4.2: an L1 data cache for scalar/µSIMD accesses, a two-bank
//! interleaved L2 *vector cache* with a wide port that vector accesses reach
//! directly (bypassing the L1), an L3 cache, and main memory.  Includes the
//! exclusive-bit + inclusion coherence between the L1 and the vector cache,
//! and both the *perfect* and *realistic* memory modes used in the paper's
//! evaluation (Fig. 5a vs 5b).
//!
//! * **Line state** ([`cache`]): 9 bytes per line, a 32-bit tag, a state
//!   byte and a 32-bit LRU stamp.  Tags are exact because every address a
//!   cache sees lies below [`ADDRESS_LIMIT`] (4 GiB: a simulator refuses a
//!   larger memory image and trace replay rejects accesses past it);
//!   stamps are renumbered, order-preserving, before they would wrap.
//!   The default L3's tag and stamp arrays are 64 KiB each, below glibc's
//!   128 KiB mmap threshold, so the hierarchies a replay batch builds reuse
//!   heap chunks instead of faulting fresh mappings in.
//! * **Front and back** ([`hierarchy`]): a [`MemoryHierarchy`] is an L1
//!   front composed with an L2/L3 back.  L1 state never depends on the
//!   levels below, so a [`ClassTree`] lets every tag class of a replay
//!   batch share one front per L1 geometry, and one L1 walk.  Tag classes
//!   that differ only in L2 size and associativity also share one back,
//!   and one L2/L3 walk, until one of their L2s would evict; the back then
//!   splits into one per class, each holding the lines filled so far.

#![forbid(unsafe_code)]

pub mod cache;
pub mod hierarchy;
pub mod lines;
pub mod vector_cache;

pub use cache::{geometry_error, Cache, CacheStats, FillOutcome, LookupResult, ADDRESS_LIMIT};
pub use hierarchy::{
    tag_equivalent_configs, AccessEcho, AccessKind, AccessTiming, ClassTree, LaneLatency, MemStats,
    MemoryHierarchy, MemoryModel, ServedBy,
};
pub use lines::LineWalk;
pub use vector_cache::{VectorAccessOutcome, VectorCache};
