//! The two-bank interleaved L2 *vector cache* (paper §3.2, after its
//! reference 27).
//!
//! Stride-one vector requests are served by reading two whole cache lines
//! (one per bank); an interchange switch, a shifter and mask logic align the
//! data, so the access proceeds at up to `B` elements per cycle where `B` is
//! the width of the L2 port in 64-bit elements.  Any other stride is served
//! at one element per cycle.  Scalar refills from the L1 also hit this cache
//! (it is the second level of the hierarchy for every access).
//!
//! The touched-line set of a vector request is enumerated through the
//! closed forms of [`crate::lines`]; only irregular strides fall back to a
//! per-element walk into a reusable scratch buffer.  No allocation happens
//! per access once the scratch has grown to its working size.

use crate::cache::{Cache, LookupResult};
use crate::lines;

/// Outcome of presenting one vector request to the vector cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorAccessOutcome {
    /// Number of distinct cache lines touched by the request.
    pub lines_touched: u32,
    /// Number of those lines that missed and had to be fetched from the
    /// next level.
    pub lines_missed: u32,
    /// Cycles needed to transfer all elements once the data is available
    /// (`ceil(elems / port_elems)` at stride one, `elems` otherwise).
    pub transfer_cycles: u32,
    /// Whether the request had unit stride (8 bytes between consecutive
    /// 64-bit elements).
    pub unit_stride: bool,
    /// Dirty lines written back during the fills.
    pub writebacks: u32,
}

/// The L2 vector cache: a set-associative cache plus the bank/port model.
#[derive(Debug, Clone)]
pub struct VectorCache {
    cache: Cache,
    banks: usize,
    port_elems: u32,
    /// Reusable touched-line scratch for irregular strides (cleared per
    /// access, never reallocated once grown).
    scratch: Vec<u64>,
    /// Vector-access statistics (scalar refills are counted in the inner
    /// cache statistics).
    pub vector_accesses: u64,
    pub unit_stride_accesses: u64,
    pub strided_accesses: u64,
    pub bank_line_pairs: u64,
}

impl VectorCache {
    pub fn new(
        size_bytes: usize,
        assoc: usize,
        line_bytes: usize,
        banks: usize,
        port_elems: u32,
    ) -> Self {
        assert!(banks >= 1);
        VectorCache {
            cache: Cache::new("L2-vector", size_bytes, assoc, line_bytes),
            banks,
            port_elems: port_elems.max(1),
            scratch: Vec::with_capacity(32),
            vector_accesses: 0,
            unit_stride_accesses: 0,
            strided_accesses: 0,
            bank_line_pairs: 0,
        }
    }

    /// Access the underlying cache for a scalar refill coming from the L1.
    pub fn scalar_access(&mut self, addr: u64, write: bool) -> LookupResult {
        self.cache.access(addr, write)
    }

    /// Fill a line (after a miss was serviced by the next level).
    pub fn fill(&mut self, addr: u64, write: bool) -> crate::cache::FillOutcome {
        self.cache.fill(addr, write)
    }

    /// Tag lookup of one line of a vector request (updates LRU/statistics;
    /// the caller owns the fill policy).  Used by the hierarchy's fused
    /// single-pass walk.
    #[inline]
    pub fn access_line(&mut self, blk: u64, write: bool) -> LookupResult {
        self.cache.access(blk, write)
    }

    /// Line size of the underlying cache in bytes.
    pub fn line_bytes(&self) -> usize {
        self.cache.line_bytes()
    }

    /// Probe the underlying cache without touching LRU state or statistics.
    pub fn probe(&self, addr: u64) -> LookupResult {
        self.cache.probe(addr)
    }

    /// Bank index of a byte address (lines are interleaved across banks).
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.cache.line_bytes() as u64) % self.banks as u64) as usize
    }

    /// Statistics of the underlying cache.
    pub fn stats(&self) -> crate::cache::CacheStats {
        self.cache.stats
    }

    /// Element-transfer cycles of a request once its data is available.
    #[inline]
    pub fn transfer_cycles(&self, unit_stride: bool, elems: u32) -> u32 {
        if unit_stride {
            elems.max(1).div_ceil(self.port_elems)
        } else {
            elems.max(1)
        }
    }

    /// Account one vector request in the access counters.  `lines_touched`
    /// feeds the stride-one bank-pair statistic (paper §3.2: stride-one
    /// requests are served as pairs of whole lines, one per bank).
    pub fn record_vector_access(&mut self, unit_stride: bool, lines_touched: u32) {
        self.vector_accesses += 1;
        if unit_stride {
            self.unit_stride_accesses += 1;
            self.bank_line_pairs += (lines_touched as usize).div_ceil(self.banks) as u64;
        } else {
            self.strided_accesses += 1;
        }
    }

    /// Present a vector request: `elems` 64-bit elements starting at `base`,
    /// separated by `stride_bytes`.  Updates tags/LRU and returns the
    /// touched/missed line counts plus the element-transfer time.
    ///
    /// Missed lines are filled immediately from the (unmodelled) next
    /// level; the full hierarchy instead drives the per-line walk itself via
    /// [`VectorCache::access_line`] so it can charge the L3/memory latency
    /// of each actual missed line address.
    pub fn vector_access(
        &mut self,
        base: u64,
        stride_bytes: i64,
        elems: u32,
        write: bool,
    ) -> VectorAccessOutcome {
        let elems = elems.max(1);
        let unit_stride = stride_bytes == lines::ELEM_BYTES as i64;
        let line = self.cache.line_bytes() as u64;

        let mut missed = 0u32;
        let mut writebacks = 0u32;
        let mut touched = 0u32;
        let mut touch = |cache: &mut Cache, blk: u64| {
            touched += 1;
            if cache.access(blk, write) == LookupResult::Miss {
                missed += 1;
                if cache.fill(blk, write).writeback.is_some() {
                    writebacks += 1;
                }
            }
        };
        match lines::classify(base, stride_bytes, elems, line) {
            Some(walk) => walk.for_each(|blk| touch(&mut self.cache, blk)),
            None => {
                let mut scratch = std::mem::take(&mut self.scratch);
                lines::collect_naive(base, stride_bytes, elems, line, &mut scratch);
                for &blk in &scratch {
                    touch(&mut self.cache, blk);
                }
                self.scratch = scratch;
            }
        }

        self.record_vector_access(unit_stride, touched);
        VectorAccessOutcome {
            lines_touched: touched,
            lines_missed: missed,
            transfer_cycles: self.transfer_cycles(unit_stride, elems),
            unit_stride,
            writebacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc() -> VectorCache {
        // 256 KB, 4-way, 64-byte lines, 2 banks, 4-element port.
        VectorCache::new(256 * 1024, 4, 64, 2, 4)
    }

    #[test]
    fn unit_stride_transfer_rate_is_port_width() {
        let mut c = vc();
        let out = c.vector_access(0x1000, 8, 16, false);
        assert!(out.unit_stride);
        assert_eq!(out.transfer_cycles, 4); // 16 elements / 4 per cycle
                                            // 16 * 8 = 128 bytes = 2 lines of 64 bytes (aligned base).
        assert_eq!(out.lines_touched, 2);
        assert_eq!(out.lines_missed, 2);

        // Second access to the same data hits.
        let out2 = c.vector_access(0x1000, 8, 16, false);
        assert_eq!(out2.lines_missed, 0);
    }

    #[test]
    fn non_unit_stride_transfers_one_element_per_cycle() {
        let mut c = vc();
        let out = c.vector_access(0x2000, 256, 8, false);
        assert!(!out.unit_stride);
        assert_eq!(out.transfer_cycles, 8);
        assert_eq!(out.lines_touched, 8); // each element on its own line
    }

    #[test]
    fn consecutive_lines_alternate_banks() {
        let c = vc();
        assert_ne!(c.bank_of(0x0), c.bank_of(0x40));
        assert_eq!(c.bank_of(0x0), c.bank_of(0x80));
    }

    #[test]
    fn straddling_elements_touch_both_lines() {
        let mut c = vc();
        // base 0x103C: first element covers 0x103C..0x1044, straddling the
        // 0x1000 and 0x1040 lines.
        let out = c.vector_access(0x103C, 8, 1, false);
        assert_eq!(out.lines_touched, 2);
    }

    #[test]
    fn irregular_stride_uses_the_scratch_walk() {
        let mut c = vc();
        // Stride 200 is neither <= the line size nor line-aligned: the
        // naive fallback must still dedup correctly.  Elements at 0, 200,
        // 400, 600 with 64-byte lines touch lines {0, 192, 384, 576} plus
        // the straddle of 600..607 (also 576): 4 distinct lines... compute
        // via the reference walk to stay honest.
        let mut expect = Vec::new();
        crate::lines::collect_naive(0x0, 200, 4, 64, &mut expect);
        let out = c.vector_access(0x0, 200, 4, false);
        assert_eq!(out.lines_touched as usize, expect.len());
        // All lines were cold.
        assert_eq!(out.lines_missed, out.lines_touched);
    }

    #[test]
    fn stats_track_access_kinds() {
        let mut c = vc();
        c.vector_access(0x0, 8, 4, false);
        c.vector_access(0x0, 64, 4, false);
        c.vector_access(0x0, 8, 4, true);
        assert_eq!(c.vector_accesses, 3);
        assert_eq!(c.unit_stride_accesses, 2);
        assert_eq!(c.strided_accesses, 1);
    }
}
