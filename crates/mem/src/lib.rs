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
//! Two simplifications of the paper's machine are deliberate:
//!
//! * **Banks.**  The L2 is one set-associative tag store.  Its bank count
//!   (`MemoryParams::l2_banks`) is recorded, keyed and swept, but changes
//!   no timing: the L2 port width alone sets the stride-one transfer rate
//!   ([`transfer_cycles`]).
//! * **Dirty victims.**  An L2 fill that evicts a dirty line drops it: the
//!   line is neither written to the L3 nor charged any time.  The L3 never
//!   holds a dirty line, since nothing writes one back to it.  Dirty L1
//!   lines are written into the L2 (coherence pushes and L1 evictions), at
//!   no charge either.
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

pub use cache::{geometry_error, Cache, LookupResult, ADDRESS_LIMIT};
pub use hierarchy::{
    tag_equivalent_configs, transfer_cycles, AccessEcho, AccessKind, AccessTiming, ClassTree,
    LaneLatency, MemStats, MemoryHierarchy, MemoryModel, ServedBy,
};
pub use lines::LineWalk;

#[cfg(test)]
mod vector_cache {
    //! The L2 vector cache (paper §3.2) as the hierarchy models it: the L2
    //! of each back ([`crate::hierarchy`]), which vector accesses reach
    //! directly.

    mod tests {
        use crate::{lines, AccessKind, LookupResult, MemoryHierarchy, MemoryModel};
        use vmv_machine::MemoryParams;

        /// Default parameters: 64-byte L2 lines, a 4-element L2 port.
        fn realistic() -> MemoryHierarchy {
            MemoryHierarchy::new(MemoryModel::Realistic, MemoryParams::default(), 4)
        }

        #[test]
        fn straddling_elements_touch_both_lines() {
            let mut m = realistic();
            let p = MemoryParams::default();
            // base 0x103C: the one element covers 0x103C..0x1044, straddling
            // the 0x1000 and 0x1040 lines.  Both are fetched from memory.
            let cold = m.vector_access(0x103C, 8, 1, AccessKind::Load);
            assert_eq!(m.stats().l3_misses, 2);
            assert_eq!(cold.latency, p.l2_latency + 2 * p.mem_latency);
            for blk in [0x1000, 0x1040] {
                assert_eq!(m.probe(blk)[1], LookupResult::Hit, "L2 holds {blk:#x}");
            }
        }

        #[test]
        fn irregular_stride_uses_the_scratch_walk() {
            // A 200-byte stride, up or down, is neither within a 64-byte line
            // nor line-aligned: no closed form applies, and the naive walk
            // must still fetch each distinct line exactly once.
            for (base, stride) in [(0x0, 200), (0x2000, -200)] {
                assert!(lines::classify(base, stride, 4, 64).is_none());
                let mut expect = Vec::new();
                lines::collect_naive(base, stride, 4, 64, &mut expect);
                let mut m = realistic();
                m.vector_access(base, stride, 4, AccessKind::Load);
                // All lines were cold.
                assert_eq!(m.stats().l3_misses, expect.len() as u64, "stride {stride}");
                for &blk in &expect {
                    assert_eq!(m.probe(blk)[1], LookupResult::Hit, "L2 holds {blk:#x}");
                }
            }
        }

        #[test]
        fn stats_track_access_kinds() {
            for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
                let mut m = MemoryHierarchy::new(model, MemoryParams::default(), 4);
                m.vector_access(0x0, 8, 4, AccessKind::Load);
                m.vector_access(0x0, 64, 4, AccessKind::Load);
                m.vector_access(0x0, 8, 4, AccessKind::Store);
                let s = m.stats();
                assert_eq!((s.vector_loads, s.vector_stores), (2, 1), "{model:?}");
                assert_eq!(s.unit_stride_vector_accesses, 2, "{model:?}");
                assert_eq!(s.strided_vector_accesses, 1, "{model:?}");
            }
        }
    }
}
