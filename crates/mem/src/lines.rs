//! Closed-form enumeration of the cache lines touched by a constant-stride
//! vector access.
//!
//! Every dynamic vector operation needs the set of distinct cache lines its
//! elements cover — once per line size that cares (L1 coherence
//! invalidations, L2 tags).  The original implementation collected that set
//! into a freshly allocated `Vec<u64>` with an O(elems²) `contains` dedup on
//! every access, twice per operation.  For constant strides the set has a
//! closed form:
//!
//! * `|stride| <= line`: consecutive element spans overlap or abut every
//!   line between the first and the last — the set is the contiguous range
//!   of lines covering `[lo, hi]`.
//! * `stride > line`, `stride % line == 0`, no element straddles a line
//!   boundary: each element sits on its own line and the set is the
//!   arithmetic sequence `block(base) + i * stride`.
//!
//! Everything else (line-straddling odd strides, negative far strides,
//! spans outside `[0, ADDRESS_LIMIT)`) falls back to the naive per-element
//! walk into a caller-provided scratch buffer that is cleared, never
//! reallocated.
//!
//! [`collect_naive`] is retained verbatim as the fallback *and* as the
//! reference the property tests compare the closed forms against.

use crate::cache::ADDRESS_LIMIT;

/// Size in bytes of one vector element (the ISA's 64-bit words).
pub const ELEM_BYTES: u64 = 8;

/// Closed-form description of the touched-line set of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineWalk {
    /// Every line between `first` and `last` (inclusive, stepping by
    /// `line`) is touched, in ascending order.
    Contiguous { first: u64, last: u64, line: u64 },
    /// Exactly `count` distinct lines `first + i * step`, in element order.
    Arithmetic { first: u64, step: u64, count: u32 },
}

impl LineWalk {
    /// Number of distinct lines the walk visits.
    #[inline]
    pub fn count(&self) -> u32 {
        match *self {
            LineWalk::Contiguous { first, last, line } => {
                ((last - first) >> line.trailing_zeros()) as u32 + 1
            }
            LineWalk::Arithmetic { count, .. } => count,
        }
    }

    /// Visit every touched line block address in walk order.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(u64)) {
        match *self {
            LineWalk::Contiguous { first, last, line } => {
                let mut blk = first;
                loop {
                    f(blk);
                    if blk >= last {
                        break;
                    }
                    blk += line;
                }
            }
            LineWalk::Arithmetic { first, step, count } => {
                let mut blk = first;
                for _ in 0..count {
                    f(blk);
                    blk = blk.wrapping_add(step);
                }
            }
        }
    }
}

/// `line` is a power of two everywhere in the hierarchy, so block rounding
/// and offset extraction are plain masks.
#[inline]
fn block(addr: u64, line: u64) -> u64 {
    debug_assert!(line.is_power_of_two());
    addr & !(line - 1)
}

/// Byte span `[lo, hi]` covered by the access, or `None` when it leaves
/// `[0, ADDRESS_LIMIT)`, the addresses the caches model exactly (no
/// simulation or replay makes such an access; trace replay rejects one).
#[inline]
pub fn span(base: u64, stride: i64, elems: u32) -> Option<(u64, u64)> {
    let elems = elems.max(1) as i128;
    let first = base as i128;
    let last = first + stride as i128 * (elems - 1);
    let (lo, hi) = if first <= last {
        (first, last)
    } else {
        (last, first)
    };
    let hi = hi + (ELEM_BYTES as i128 - 1);
    if lo < 0 || hi >= ADDRESS_LIMIT as i128 {
        None
    } else {
        Some((lo as u64, hi as u64))
    }
}

/// Classify the touched-line set of an access of `elems` 64-bit elements at
/// `base`, `stride` bytes apart, against a cache with `line`-byte lines.
/// Returns `None` when no closed form applies and the caller must fall back
/// to [`collect_naive`].
pub fn classify(base: u64, stride: i64, elems: u32, line: u64) -> Option<LineWalk> {
    debug_assert!(line.is_power_of_two());
    let elems = elems.max(1);
    let (lo, hi) = span(base, stride, elems)?;
    if elems == 1 || stride == 0 || stride.unsigned_abs() <= line {
        return Some(LineWalk::Contiguous {
            first: block(lo, line),
            last: block(hi, line),
            line,
        });
    }
    // Far positive stride: one line per element when the stride is
    // line-aligned and no element straddles a boundary.  (Far negative
    // strides are vanishingly rare in real programs — not worth a mirrored
    // cursor; they take the naive walk.)
    if stride > 0
        && stride as u64 & (line - 1) == 0
        && (base & (line - 1)) + (ELEM_BYTES - 1) < line
    {
        return Some(LineWalk::Arithmetic {
            first: block(base, line),
            step: stride as u64,
            count: elems,
        });
    }
    None
}

/// The naive per-element walk: for each element's `[a, a + 7]` span, push
/// the line blocks of both endpoints, deduplicating against everything
/// collected so far.  `out` is cleared first, never reallocated once grown.
///
/// This is bit-for-bit the legacy collection loop — the fallback for
/// irregular strides and the oracle the closed forms are tested against.
pub fn collect_naive(base: u64, stride: i64, elems: u32, line: u64, out: &mut Vec<u64>) {
    out.clear();
    for i in 0..elems.max(1) {
        let a = (base as i64).wrapping_add(stride.wrapping_mul(i as i64)) as u64;
        for cand in [block(a, line), block(a.wrapping_add(ELEM_BYTES - 1), line)] {
            if !out.contains(&cand) {
                out.push(cand);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed_form(base: u64, stride: i64, elems: u32, line: u64) -> Option<Vec<u64>> {
        classify(base, stride, elems, line).map(|w| {
            let mut v = Vec::new();
            w.for_each(|b| v.push(b));
            assert_eq!(v.len() as u32, w.count());
            v
        })
    }

    fn naive(base: u64, stride: i64, elems: u32, line: u64) -> Vec<u64> {
        let mut v = Vec::new();
        collect_naive(base, stride, elems, line, &mut v);
        v
    }

    #[test]
    fn unit_stride_is_a_contiguous_range() {
        let walk = classify(0x1000, 8, 16, 64).unwrap();
        assert_eq!(
            walk,
            LineWalk::Contiguous {
                first: 0x1000,
                last: 0x1040,
                line: 64
            }
        );
        assert_eq!(
            closed_form(0x1000, 8, 16, 64).unwrap(),
            naive(0x1000, 8, 16, 64)
        );
    }

    #[test]
    fn line_aligned_far_stride_is_arithmetic() {
        let walk = classify(0x2000, 256, 8, 64).unwrap();
        assert_eq!(
            walk,
            LineWalk::Arithmetic {
                first: 0x2000,
                step: 256,
                count: 8
            }
        );
        assert_eq!(
            closed_form(0x2000, 256, 8, 64).unwrap(),
            naive(0x2000, 256, 8, 64)
        );
    }

    #[test]
    fn straddling_far_stride_falls_back() {
        // base 0x103C: every element straddles a 64-byte boundary.
        assert!(classify(0x103C, 256, 4, 64).is_none());
        // Non-line-multiple stride.
        assert!(classify(0x1000, 200, 4, 64).is_none());
        // Far negative stride.
        assert!(classify(0x10000, -256, 4, 64).is_none());
    }

    #[test]
    fn negative_small_stride_is_contiguous() {
        let cf = closed_form(0x1080, -8, 16, 64).unwrap();
        let nv = naive(0x1080, -8, 16, 64);
        let mut nv_sorted = nv.clone();
        nv_sorted.sort_unstable();
        nv_sorted.dedup();
        assert_eq!(cf, nv_sorted, "same set (ascending)");
    }

    #[test]
    fn wraparound_is_rejected() {
        assert!(classify(u64::MAX - 16, 8, 16, 64).is_none());
        assert!(classify(8, -8, 16, 64).is_none());
        // So is a span reaching the address limit; the last line below it
        // still has a closed form.
        assert!(classify(ADDRESS_LIMIT - 8, 8, 2, 64).is_none());
        assert_eq!(
            span(ADDRESS_LIMIT - 16, 8, 2),
            Some((ADDRESS_LIMIT - 16, ADDRESS_LIMIT - 1))
        );
        assert!(classify(ADDRESS_LIMIT - 16, 8, 2, 64).is_some());
        // The naive walk still terminates and dedups.
        assert!(!naive(u64::MAX - 16, 8, 16, 64).is_empty());
    }

    #[test]
    fn collect_matches_naive_on_regular_shapes() {
        for (base, stride, elems) in [
            (0x0u64, 8i64, 16u32),
            (0x103C, 8, 16),
            (0x1000, 0, 4),
            (0x1000, 64, 7),
            (0x1234, 16, 16),
            (0x4000, 640, 16),
            (0x4000, 4096, 16),
        ] {
            let mut got = closed_form(base, stride, elems, 64).expect("a closed form");
            let mut expect = naive(base, stride, elems, 64);
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "base={base:#x} stride={stride} elems={elems}");
        }
    }
}
