//! The three-level memory hierarchy of paper §4.2:
//!
//! * L1: 16 KB, 4-way data cache, 1-cycle latency, scalar / µSIMD accesses;
//! * L2: 256 KB *vector cache*, 5 cycles; vector accesses bypass the L1 and
//!   go straight to this level through one wide (4 × 64-bit) port.  The
//!   paper's cache has two interleaved banks; here it is one tag store, and
//!   the port width alone sets the transfer rate ([`transfer_cycles`]), so
//!   the bank count reaches no timing;
//! * L3: 1 MB cache, 12 cycles;
//! * main memory: 500 cycles.
//!
//! Coherence between the L1 and the vector cache uses an exclusive-bit plus
//! inclusion policy: a vector access invalidates any overlapping L1 lines
//! (pushing dirty data down), and a scalar miss naturally finds
//! vector-written data in the L2.
//!
//! The hierarchy is a *timing* model — data contents live in the simulator's
//! flat memory.  Two modes exist: `Perfect` (every access hits, paper §5.1)
//! and `Realistic` (tags are simulated and misses pay the full latency).
//! Write-backs cost nothing: a dirty line an L2 fill evicts is dropped, not
//! written to the L3, so the L3 never holds a dirty line.
//!
//! # Front and back
//!
//! A [`MemoryHierarchy`] is an L1 *front* composed with an L2/L3 *back*.
//! In this model L1 state never depends on the levels below:
//!
//! * an L1 fill or victim choice reads only L1 tags;
//! * a vector access invalidates the L1 lines it spans whatever the L2
//!   holds;
//! * an L2 eviction never back-invalidates the L1.
//!
//! So the front sees only the access stream, and hands the back what it
//! must see: the L1 misses of a scalar access, each with the dirty line its
//! fill evicted, and the dirty L1 lines a vector access pushes down.  The
//! back turns them into the serving level and the L2/L3 counts, in the
//! order of one fused walk: a scalar line's refill precedes the write-back
//! its L1 fill evicted, and a vector access's pushes fall where the back's
//! own L2 line walk reaches them.  Latencies are applied last, from the
//! access's [`AccessEcho`].  Batched trace replay builds a [`ClassTree`]:
//! one front per L1 geometry, shared by the backs under it, and one back
//! per group of tag classes that differ only in L2 size and associativity
//! until one of them would evict.

use std::ops::Range;

use crate::cache::{self, Cache, LookupResult};
use crate::lines::{self, LineWalk};
use vmv_machine::MemoryParams;

/// The name the L2 vector cache's tag store goes by in panics.
const L2_NAME: &str = "L2-vector";

/// The stride of consecutive 64-bit elements, in bytes.
const STRIDE_ONE: i64 = lines::ELEM_BYTES as i64;

/// Memory simulation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryModel {
    /// All accesses hit in their target cache level, but still pay that
    /// level's latency (and vector accesses still pay the element-transfer
    /// time through the L2 port).
    Perfect,
    /// Full tag simulation of the three cache levels.
    Realistic,
}

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Load,
    Store,
}

/// Timing outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessTiming {
    /// Total latency in cycles until the last element is available.
    pub latency: u32,
    /// Cycles beyond what the compiler assumed when scheduling (the
    /// processor stalls for this long, paper §3.3/§4.2).
    pub stall_cycles: u32,
}

/// Aggregate statistics of the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    pub scalar_loads: u64,
    pub scalar_stores: u64,
    pub vector_loads: u64,
    pub vector_stores: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub l3_hits: u64,
    pub l3_misses: u64,
    pub coherence_invalidations: u64,
    pub unit_stride_vector_accesses: u64,
    pub strided_vector_accesses: u64,
    pub total_stall_cycles: u64,
}

impl MemStats {
    /// Fold this run's totals into the process-wide telemetry recorder.
    /// Called once per completed simulation (not per access), so the
    /// hierarchy's hot path stays atomic-free.
    pub fn record_obs(&self) {
        if !vmv_obs::enabled() {
            return;
        }
        use vmv_obs::Counter;
        vmv_obs::add(Counter::MemScalarLoads, self.scalar_loads);
        vmv_obs::add(Counter::MemScalarStores, self.scalar_stores);
        vmv_obs::add(Counter::MemVectorLoads, self.vector_loads);
        vmv_obs::add(Counter::MemVectorStores, self.vector_stores);
        vmv_obs::add(Counter::MemL1Hits, self.l1_hits);
        vmv_obs::add(Counter::MemL1Misses, self.l1_misses);
        vmv_obs::add(Counter::MemL2Hits, self.l2_hits);
        vmv_obs::add(Counter::MemL2Misses, self.l2_misses);
        vmv_obs::add(Counter::MemL3Hits, self.l3_hits);
        vmv_obs::add(Counter::MemL3Misses, self.l3_misses);
        vmv_obs::add(
            Counter::MemCoherenceInvalidations,
            self.coherence_invalidations,
        );
    }
}

/// Memoized touched-line walks of the current irregular vector access.
///
/// A [`ClassTree`] prices the *same* access against several backs in turn.
/// The touched-line set of an irregular stride depends only on
/// `(base, stride, elems, line_size)` — never on cache contents — so one
/// naive walk serves every back whose line geometry matches.
#[derive(Debug, Clone, Default)]
struct SharedAccessScratch {
    /// Access the memoized walks belong to: (base, stride, elems).
    key: Option<(u64, i64, u32)>,
    /// One cached walk per distinct line size seen for the current access.
    walks: Vec<(u64, Vec<u64>)>,
    /// Recycled line buffers from previous accesses.
    spare: Vec<Vec<u64>>,
}

impl SharedAccessScratch {
    /// The touched lines of the access for `line_size`-byte lines, computing
    /// and memoizing the naive walk on first request.
    fn lines(&mut self, base: u64, stride_bytes: i64, elems: u32, line_size: u64) -> &[u64] {
        if self.key != Some((base, stride_bytes, elems)) {
            self.key = Some((base, stride_bytes, elems));
            self.spare.extend(self.walks.drain(..).map(|(_, v)| v));
        }
        if let Some(i) = self.walks.iter().position(|w| w.0 == line_size) {
            return &self.walks[i].1;
        }
        let mut buf = self.spare.pop().unwrap_or_default();
        lines::collect_naive(base, stride_bytes, elems, line_size, &mut buf);
        self.walks.push((line_size, buf));
        &self.walks.last().expect("just pushed").1
    }
}

/// Which level served one cache-line lookup of a scalar access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    L1,
    L2,
    L3,
    Mem,
}

/// The timing-relevant *events* of one access, captured from the tags that
/// simulated it.  Tag behaviour depends only on the access stream and the
/// cache geometry — never on the latency parameters — so every
/// [`tag_equivalent_configs`] configuration prices the echoed events
/// against its own latencies without walking its own tags, and lands on
/// exactly the timing and [`MemStats`] the real access would have produced
/// (a hierarchy prices its own accesses this way, and a [`ClassTree`] all
/// members of a tag class at once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessEcho {
    Scalar {
        /// Serving level of the first (and, when the access straddles a
        /// line boundary, the second) L1 line.
        first: ServedBy,
        second: Option<ServedBy>,
    },
    Vector {
        elems: u32,
        /// L2-port transfer time ([`transfer_cycles`]: port width and
        /// stride, not latency).
        transfer_cycles: u32,
        /// Missed L2 lines refilled from the L3 / from main memory.
        l3_fetches: u32,
        mem_fetches: u32,
    },
}

impl ServedBy {
    /// Depth rank: L1 < L2 < L3 < Mem.
    fn depth(self) -> u8 {
        match self {
            ServedBy::L1 => 0,
            ServedBy::L2 => 1,
            ServedBy::L3 => 2,
            ServedBy::Mem => 3,
        }
    }
}

impl AccessEcho {
    /// The deepest level this access touched — the level whose latency
    /// dominates the access, used by the cycle-attribution profiler to
    /// classify waits on the producing operation.  Vector accesses always
    /// reach at least the L2 (they bypass the L1 by construction).
    pub fn deepest(&self) -> ServedBy {
        match *self {
            AccessEcho::Scalar { first, second } => match second {
                Some(s) if s.depth() > first.depth() => s,
                _ => first,
            },
            AccessEcho::Vector {
                l3_fetches,
                mem_fetches,
                ..
            } => {
                if mem_fetches > 0 {
                    ServedBy::Mem
                } else if l3_fetches > 0 {
                    ServedBy::L3
                } else {
                    ServedBy::L2
                }
            }
        }
    }
}

/// L1 miss of one line of a scalar access, as the back must serve it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Refill {
    blk: u64,
    /// Dirty L1 line the miss's fill evicted: the back pushes it into the
    /// L2 right after the refill.
    writeback: Option<u64>,
}

/// The front's verdict on one scalar access: the L1 misses of its first
/// line and, when it straddles a line boundary, of its second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScalarLines {
    misses: [Option<Refill>; 2],
    straddles: bool,
}

impl ScalarLines {
    /// Whether every line hit the L1 (the back has nothing to do).
    #[inline]
    fn hit(&self) -> bool {
        self.misses == [None, None]
    }

    /// The echo of an access that hit the L1 on every line.
    #[inline]
    fn l1_echo(&self) -> AccessEcho {
        AccessEcho::Scalar {
            first: ServedBy::L1,
            second: self.straddles.then_some(ServedBy::L1),
        }
    }
}

/// The L1 *front* of a hierarchy: the L1 tags and every counter that the
/// access stream and the L1 alone decide (loads, stores, stride kinds, L1
/// hits and misses, coherence invalidations).
#[derive(Debug, Clone)]
struct Front {
    model: MemoryModel,
    l1: Cache,
    /// Dirty L1 lines the current vector access pushed down, as the first
    /// back's walk invalidated them.
    dirty: Vec<u64>,
    stats: MemStats,
}

impl Front {
    fn new(model: MemoryModel, params: &MemoryParams) -> Front {
        Front {
            model,
            l1: Cache::new("L1", params.l1_size, params.l1_assoc, params.l1_line),
            dirty: Vec::new(),
            stats: MemStats::default(),
        }
    }

    /// Look up the one or two L1 lines of a scalar access of `size` bytes,
    /// filling the missed ones.
    #[inline]
    fn scalar(&mut self, addr: u64, size: usize, kind: AccessKind) -> ScalarLines {
        match kind {
            AccessKind::Load => self.stats.scalar_loads += 1,
            AccessKind::Store => self.stats.scalar_stores += 1,
        }
        if self.model == MemoryModel::Perfect {
            self.stats.l1_hits += 1;
            return ScalarLines {
                misses: [None, None],
                straddles: false,
            };
        }
        let write = kind == AccessKind::Store;
        // An access can straddle a line boundary; the back charges the
        // worst line.
        let last = addr + size.max(1) as u64 - 1;
        let first_block = self.l1.block_addr(addr);
        let last_block = self.l1.block_addr(last);
        let straddles = last_block != first_block;
        let first = self.line(first_block, write);
        let second = if straddles {
            self.line(last_block, write)
        } else {
            None
        };
        ScalarLines {
            misses: [first, second],
            straddles,
        }
    }

    #[inline]
    fn line(&mut self, blk: u64, write: bool) -> Option<Refill> {
        match self.l1.access(blk, write) {
            LookupResult::Hit => {
                self.stats.l1_hits += 1;
                None
            }
            LookupResult::Miss => {
                self.stats.l1_misses += 1;
                let writeback = self.l1.fill(blk, write);
                Some(Refill { blk, writeback })
            }
        }
    }

    /// Count a vector access; its coherence invalidations follow, driven
    /// by the first back's line walk.
    #[inline]
    fn vector(&mut self, stride_bytes: i64, kind: AccessKind) {
        match kind {
            AccessKind::Load => self.stats.vector_loads += 1,
            AccessKind::Store => self.stats.vector_stores += 1,
        }
        if stride_bytes == STRIDE_ONE {
            self.stats.unit_stride_vector_accesses += 1;
        } else {
            self.stats.strided_vector_accesses += 1;
        }
        self.dirty.clear();
    }

    /// Invalidate one L1 line a vector access spans (exclusive-bit
    /// coherence): its dirty data, if any, for the back to push down.
    #[inline]
    fn invalidate(&mut self, blk: u64) -> Option<u64> {
        self.stats.coherence_invalidations += 1;
        let dirty = self.l1.invalidate(blk);
        if let Some(blk) = dirty {
            self.dirty.push(blk);
        }
        dirty
    }
}

/// Where a back's vector walk gets the dirty L1 lines it pushes into the
/// L2: by invalidating each spanned line in the front (the first back
/// under a front), or by finding it among the lines that walk reported.
/// Every back under one front walks the same set of L1 lines (see
/// [`ClassTree`]), each line once, so each dirty line is pushed once, at
/// the point of the back's own walk where it always was.
enum L1Lines<'a> {
    Invalidate(&'a mut Front),
    Reported(&'a [u64]),
}

impl L1Lines<'_> {
    /// The dirty block of L1 line `blk` to push into the L2, if any.
    #[inline]
    fn push(&mut self, blk: u64) -> Option<u64> {
        match self {
            L1Lines::Invalidate(front) => front.invalidate(blk),
            L1Lines::Reported(dirty) => dirty.contains(&blk).then_some(blk),
        }
    }

    /// Whether the walk may skip the L1 lines: none of them is dirty.
    #[inline]
    fn clean(&self) -> bool {
        matches!(self, L1Lines::Reported(dirty) if dirty.is_empty())
    }
}

/// Refill source of one L2 line of a vector access.
enum LineFill {
    Hit,
    FromL3,
    FromMem,
}

/// The L2/L3 *back* of a hierarchy: the vector cache and L3 tags, the L2
/// port width, and the L2 and L3 hit and miss counters the tags decide.
/// It never touches the L1; it hears the front's verdicts instead.
#[derive(Debug, Clone)]
struct Back {
    model: MemoryModel,
    l2: Cache,
    l3: Cache,
    /// Width of the L2 vector port in 64-bit elements.
    port_elems: u32,
    /// L1 line size: where the front's pushes fall in a vector walk.
    l1_line: u64,
    l2_line: u64,
    stats: MemStats,
}

impl Back {
    fn new(model: MemoryModel, params: &MemoryParams, port_elems: u32) -> Back {
        Back {
            model,
            l2: Cache::new(L2_NAME, params.l2_size, params.l2_assoc, params.l2_line),
            l3: Cache::new("L3", params.l3_size, params.l3_assoc, params.l3_line),
            port_elems,
            l1_line: params.l1_line as u64,
            l2_line: params.l2_line as u64,
            stats: MemStats::default(),
        }
    }

    /// This back with its L2 in `l2_size` bytes of `l2_assoc` ways
    /// ([`Cache::reshaped`]), and a copy of its L3 and counters.
    fn reshaped(&self, l2_size: usize, l2_assoc: usize) -> Back {
        Back {
            l2: self.l2.reshaped(l2_size, l2_assoc),
            l3: self.l3.clone(),
            ..*self
        }
    }

    /// Serve the L1 misses of a scalar access, line by line: each refill,
    /// then the write-back its L1 fill evicted.
    fn scalar(&mut self, lines: &ScalarLines) -> AccessEcho {
        let first = self.serve(lines.misses[0]);
        let second = lines.straddles.then(|| self.serve(lines.misses[1]));
        AccessEcho::Scalar { first, second }
    }

    fn serve(&mut self, miss: Option<Refill>) -> ServedBy {
        let Some(Refill { blk, writeback }) = miss else {
            return ServedBy::L1;
        };
        // The vector cache also serves scalar refills; then the L3, then
        // main memory.
        let served = match self.l2.access(blk, false) {
            LookupResult::Hit => {
                self.stats.l2_hits += 1;
                ServedBy::L2
            }
            LookupResult::Miss => {
                self.stats.l2_misses += 1;
                let served = match self.l3.access(blk, false) {
                    LookupResult::Hit => {
                        self.stats.l3_hits += 1;
                        ServedBy::L3
                    }
                    LookupResult::Miss => {
                        self.stats.l3_misses += 1;
                        self.l3.fill(blk, false);
                        ServedBy::Mem
                    }
                };
                self.l2.fill(blk, false);
                served
            }
        };
        if let Some(wb) = writeback {
            // Write-back of a dirty L1 line into the (inclusive) L2.
            self.l2.fill(wb, true);
        }
        served
    }

    /// Probe + fill one L2 line of a vector access.
    #[inline]
    fn l2_line_access(&mut self, blk: u64, write: bool) -> LineFill {
        match self.l2.access(blk, write) {
            LookupResult::Hit => LineFill::Hit,
            LookupResult::Miss => {
                let fill = match self.l3.access(blk, false) {
                    LookupResult::Hit => {
                        self.stats.l3_hits += 1;
                        LineFill::FromL3
                    }
                    LookupResult::Miss => {
                        self.stats.l3_misses += 1;
                        self.l3.fill(blk, false);
                        LineFill::FromMem
                    }
                };
                self.l2.fill(blk, write);
                fill
            }
        }
    }

    /// Push the dirty data of L1 line `blk`, if any, into the inclusive L2.
    #[inline]
    fn push_down(&mut self, l1: &mut L1Lines, blk: u64) {
        if let Some(dirty) = l1.push(blk) {
            self.l2.fill(dirty, true);
        }
    }

    /// The L2 side of a vector access of `elems` 64-bit elements (at least
    /// one) at `base`, `stride_bytes` apart, pushing the dirty L1 lines
    /// `l1` yields where the walk reaches them.
    fn vector(
        &mut self,
        base: u64,
        stride_bytes: i64,
        elems: u32,
        write: bool,
        mut l1: L1Lines,
        memo: &mut SharedAccessScratch,
    ) -> AccessEcho {
        let transfer_cycles = transfer_cycles(stride_bytes, elems, self.port_elems);
        if self.model == MemoryModel::Perfect {
            // All vector accesses hit in the L2 but still pay the transfer
            // time (paper §5.1); non-unit strides still transfer one element
            // per cycle.
            self.stats.l2_hits += 1;
            return AccessEcho::Vector {
                elems,
                transfer_cycles,
                l3_fetches: 0,
                mem_fetches: 0,
            };
        }

        // One fused pass over the touched L2 lines: for each line, first
        // push down the dirty L1 lines of the access span that precede the
        // end of that L2 line (exclusive-bit coherence), then probe the L2
        // tag, and on a miss fetch the *actual* missed line from the L3 or
        // from main memory.  Missed lines are fetched back to back.  When
        // no spanned L1 line is dirty the L1 cursor is skipped.
        let (l1_line, l2_line) = (self.l1_line, self.l2_line);
        let l1_mask = !(l1_line - 1);
        let skip_l1 = l1.clean();
        let (mut l3_fetches, mut mem_fetches) = (0u32, 0u32);
        let mut fetch = |back: &mut Back, blk: u64| match back.l2_line_access(blk, write) {
            LineFill::Hit => {}
            LineFill::FromL3 => l3_fetches += 1,
            LineFill::FromMem => mem_fetches += 1,
        };

        match lines::classify(base, stride_bytes, elems, l2_line) {
            // Small stride: both the L1 and the L2 touched-line sets are
            // contiguous ranges over the same byte span; the L1 walk rides
            // along on a cursor inside the L2 walk.
            Some(LineWalk::Contiguous { first, last, .. })
                if stride_bytes.unsigned_abs() <= l1_line || elems == 1 || stride_bytes == 0 =>
            {
                let (lo, hi) = lines::span(base, stride_bytes, elems)
                    .expect("classify succeeded, span exists");
                let mut l1_cur = lo & l1_mask;
                let l1_last = hi & l1_mask;
                let mut blk = first;
                loop {
                    let seg_end = blk + l2_line;
                    while !skip_l1 && l1_cur < seg_end && l1_cur <= l1_last {
                        self.push_down(&mut l1, l1_cur);
                        l1_cur += l1_line;
                    }
                    fetch(self, blk);
                    if blk >= last {
                        break;
                    }
                    blk += l2_line;
                }
            }
            // Far line-aligned stride: one L2 line per element; the L1
            // lines of each 8-byte element span follow a monotone cursor
            // (elements may share an L1 line when it is larger than the
            // stride).
            Some(LineWalk::Arithmetic { step, count, .. }) => {
                let mut a = base;
                let mut l1_cur = 0u64;
                for _ in 0..count {
                    if !skip_l1 {
                        let mut cur = l1_cur.max(a & l1_mask);
                        let hi1 = (a + 7) & l1_mask;
                        while cur <= hi1 {
                            self.push_down(&mut l1, cur);
                            cur += l1_line;
                        }
                        l1_cur = l1_cur.max(cur);
                    }
                    fetch(self, a & !(l2_line - 1));
                    a += step;
                }
            }
            // Irregular (line-straddling odd strides, far negative strides,
            // spans past the address limit): two naive walks, memoized per
            // (access, line size) so that every back of a batch shares them.
            _ => {
                if !skip_l1 {
                    for &blk in memo.lines(base, stride_bytes, elems, l1_line) {
                        self.push_down(&mut l1, blk);
                    }
                }
                for &blk in memo.lines(base, stride_bytes, elems, l2_line) {
                    fetch(self, blk);
                }
            }
        }

        if l3_fetches + mem_fetches > 0 {
            self.stats.l2_misses += 1;
        } else {
            self.stats.l2_hits += 1;
        }
        AccessEcho::Vector {
            elems,
            transfer_cycles,
            l3_fetches,
            mem_fetches,
        }
    }
}

/// Cycles a `port_elems`-wide L2 port takes to transfer `elems` 64-bit
/// elements `stride_bytes` apart once their data is available: `port_elems`
/// per cycle at stride one (paper §3.2: the vector cache reads whole lines
/// and aligns them), one per cycle at any other stride, and at least one.
/// The same count is how long a vector access holds the port.
#[inline]
pub fn transfer_cycles(stride_bytes: i64, elems: u32, port_elems: u32) -> u32 {
    if stride_bytes == STRIDE_ONE {
        elems.max(1).div_ceil(port_elems.max(1))
    } else {
        elems.max(1)
    }
}

/// One configuration's latencies: L1, L2, L3 and main memory.
#[derive(Debug, Clone, Copy)]
struct Latencies([u32; 4]);

impl Latencies {
    fn of(params: &MemoryParams) -> Latencies {
        Latencies([
            params.l1_latency,
            params.l2_latency,
            params.l3_latency,
            params.mem_latency,
        ])
    }

    /// Latency and stall of the access `echo` describes, on a hierarchy
    /// with these latencies and a `port_elems`-wide L2 port.  A scalar
    /// line pays the L1 latency plus that of the level that served it, the
    /// access pays its worst line, and it stalls for everything beyond the
    /// L1 hit the compiler scheduled.  A vector access pays the L2 latency,
    /// its transfer time and each missed line's fetch, and stalls for
    /// everything beyond a stride-one L2 hit (paper §3.3).
    #[inline]
    fn price(self, echo: &AccessEcho, port_elems: u32) -> AccessTiming {
        let [l1, l2, l3, mem] = self.0;
        match *echo {
            AccessEcho::Scalar { first, second } => {
                let below = |served| match served {
                    ServedBy::L1 => 0,
                    ServedBy::L2 => l2,
                    ServedBy::L3 => l3,
                    ServedBy::Mem => mem,
                };
                let stall = below(first).max(second.map_or(0, below));
                AccessTiming {
                    latency: l1 + stall,
                    stall_cycles: stall,
                }
            }
            AccessEcho::Vector {
                elems,
                transfer_cycles: transfer,
                l3_fetches,
                mem_fetches,
            } => {
                let latency = l2 + transfer - 1 + l3_fetches * l3 + mem_fetches * mem;
                let scheduled = l2 + transfer_cycles(STRIDE_ONE, elems, port_elems) - 1;
                AccessTiming {
                    latency,
                    stall_cycles: latency.saturating_sub(scheduled),
                }
            }
        }
    }
}

/// A hierarchy's statistics from its front's and back's counters and its
/// stall total.
fn compose(front: &MemStats, back: &MemStats, total_stall_cycles: u64) -> MemStats {
    MemStats {
        l2_hits: back.l2_hits,
        l2_misses: back.l2_misses,
        l3_hits: back.l3_hits,
        l3_misses: back.l3_misses,
        total_stall_cycles,
        ..*front
    }
}

/// The memory hierarchy: one L1 front composed with one L2/L3 back
/// (module docs), priced with its own latencies.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    params: MemoryParams,
    front: Front,
    back: Back,
    /// Touched-line walks of the current irregular vector access.
    memo: SharedAccessScratch,
    total_stall_cycles: u64,
}

impl MemoryHierarchy {
    pub fn new(model: MemoryModel, params: MemoryParams, l2_port_elems: u32) -> Self {
        MemoryHierarchy {
            params,
            front: Front::new(model, &params),
            back: Back::new(model, &params, l2_port_elems.max(1)),
            memo: SharedAccessScratch::default(),
            total_stall_cycles: 0,
        }
    }

    /// Construct a hierarchy straight from a machine configuration.
    pub fn for_machine(model: MemoryModel, machine: &vmv_machine::MachineConfig) -> Self {
        Self::new(model, machine.memory, machine.l2_port_elems.max(1))
    }

    pub fn model(&self) -> MemoryModel {
        self.front.model
    }

    /// Latency the *compiler* assumes for a scalar access: an L1 hit.
    pub fn scheduled_scalar_latency(&self) -> u32 {
        self.params.l1_latency
    }

    /// Latency the *compiler* assumes for a vector access of `elems`
    /// elements: an L2 hit with unit stride (paper §3.3: the compiler
    /// schedules all vector memory operations as stride-one L2 hits).
    pub fn scheduled_vector_latency(&self, elems: u32) -> u32 {
        self.params.l2_latency + transfer_cycles(STRIDE_ONE, elems, self.back.port_elems) - 1
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> MemStats {
        compose(&self.front.stats, &self.back.stats, self.total_stall_cycles)
    }

    fn price(&mut self, echo: AccessEcho) -> (AccessTiming, AccessEcho) {
        let timing = Latencies::of(&self.params).price(&echo, self.back.port_elems);
        self.total_stall_cycles += timing.stall_cycles as u64;
        (timing, echo)
    }

    // ----------------------------------------------------------- accesses

    /// Simulate a scalar (or µSIMD 64-bit) access of `size` bytes.
    pub fn scalar_access(&mut self, addr: u64, size: usize, kind: AccessKind) -> AccessTiming {
        self.scalar_access_echoed(addr, size, kind).0
    }

    /// [`Self::scalar_access`], additionally returning the access's
    /// [`AccessEcho`] (the cycle-attribution profiler classifies waits by
    /// it).
    pub fn scalar_access_echoed(
        &mut self,
        addr: u64,
        size: usize,
        kind: AccessKind,
    ) -> (AccessTiming, AccessEcho) {
        let lines = self.front.scalar(addr, size, kind);
        if lines.hit() {
            let timing = AccessTiming {
                latency: self.params.l1_latency,
                stall_cycles: 0,
            };
            return (timing, lines.l1_echo());
        }
        let echo = self.back.scalar(&lines);
        self.price(echo)
    }

    /// Simulate a vector access of `elems` 64-bit elements starting at
    /// `base`, separated by `stride_bytes`.  Vector accesses bypass the L1
    /// (invalidating the L1 lines they span) and access the L2 vector
    /// cache directly.
    pub fn vector_access(
        &mut self,
        base: u64,
        stride_bytes: i64,
        elems: u32,
        kind: AccessKind,
    ) -> AccessTiming {
        self.vector_access_echoed(base, stride_bytes, elems, kind).0
    }

    /// [`Self::vector_access`], additionally returning the access's
    /// [`AccessEcho`].
    pub fn vector_access_echoed(
        &mut self,
        base: u64,
        stride_bytes: i64,
        elems: u32,
        kind: AccessKind,
    ) -> (AccessTiming, AccessEcho) {
        self.front.vector(stride_bytes, kind);
        let echo = self.back.vector(
            base,
            stride_bytes,
            elems.max(1),
            kind == AccessKind::Store,
            L1Lines::Invalidate(&mut self.front),
            &mut self.memo,
        );
        self.price(echo)
    }

    /// Probe all three cache levels for `addr` without disturbing LRU state
    /// (diagnostics and tests).
    pub fn probe(&self, addr: u64) -> [LookupResult; 3] {
        [
            self.front.l1.probe(addr),
            self.back.l2.probe(addr),
            self.back.l3.probe(addr),
        ]
    }
}

/// True when two `(model, params, port width)` configurations produce the
/// *same tag behaviour* on every access stream: same model, cache geometry
/// and port width.  Latency parameters are free to differ — they only
/// scale the pricing — so an [`AccessEcho`] captured on a hierarchy of one
/// configuration prices exactly on the other.  So is the L2 bank count,
/// which no tag or transfer time reads (module docs).  Callers classify
/// variants with it *before* paying for hierarchy construction.
pub fn tag_equivalent_configs(
    (model_a, a, port_a): (MemoryModel, &MemoryParams, u32),
    (model_b, b, port_b): (MemoryModel, &MemoryParams, u32),
) -> bool {
    model_a == model_b
        && port_a.max(1) == port_b.max(1)
        && a.l1_size == b.l1_size
        && a.l1_assoc == b.l1_assoc
        && a.l1_line == b.l1_line
        && a.l2_size == b.l2_size
        && a.l2_assoc == b.l2_assoc
        && a.l2_line == b.l2_line
        && a.l3_size == b.l3_size
        && a.l3_assoc == b.l3_assoc
        && a.l3_line == b.l3_line
}

/// True when two configurations can share one L1 [`Front`] in a
/// [`ClassTree`]: same model and L1 geometry, so the same L1 tag state.
/// The backs under one front must also walk the same L1 lines for each
/// vector access.  Which walk a back takes depends on its L2 line size,
/// but with L1 lines of at least one 8-byte element every walk visits
/// exactly the lines holding the first or last byte of some element.
/// Smaller L1 lines share a front only with the same L2 line size.
fn shares_front(
    (model_a, a): (MemoryModel, &MemoryParams),
    (model_b, b): (MemoryModel, &MemoryParams),
) -> bool {
    model_a == model_b
        && a.l1_size == b.l1_size
        && a.l1_assoc == b.l1_assoc
        && a.l1_line == b.l1_line
        && (a.l1_line as u64 >= lines::ELEM_BYTES || a.l2_line == b.l2_line)
}

/// True when two configurations under one front can share one L2/L3
/// [`Back`] in a [`ClassTree`] while neither's L2 evicts: everything
/// [`tag_equivalent_configs`] compares but the L2 size and associativity
/// matches (model, L2 line size, port width and L3 geometry).
fn shares_back(
    (model_a, a, port_a): (MemoryModel, &MemoryParams, u32),
    (model_b, b, port_b): (MemoryModel, &MemoryParams, u32),
) -> bool {
    model_a == model_b
        && port_a.max(1) == port_b.max(1)
        && a.l2_line == b.l2_line
        && a.l3_size == b.l3_size
        && a.l3_assoc == b.l3_assoc
        && a.l3_line == b.l3_line
}

/// Every lane's latency of one scalar access a [`ClassTree`] priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneLatency<'a> {
    /// Every lane takes this latency: the access hit the L1 of every front
    /// and all lanes share one L1 latency.
    Shared(u64),
    /// Lane `l` takes `lanes[l]`.
    Lanes(&'a [u64]),
}

/// The latency columns of the tag classes one back serves: every member's
/// latencies (struct-of-arrays) and stall total.  The members' tags behave
/// alike, so one back's echoes price all of them at once.
#[derive(Debug, Clone)]
struct ClassPricer {
    port_elems: u32,
    latencies: Vec<Latencies>,
    stall_cycles: Vec<u64>,
}

impl ClassPricer {
    /// Price `echo` for every member: `out[i]` receives member `i`'s
    /// latency and its stall total grows by the access's stall.
    #[inline]
    fn price(&mut self, echo: &AccessEcho, out: &mut [u64]) {
        for ((out, stall), lat) in out
            .iter_mut()
            .zip(&mut self.stall_cycles)
            .zip(&self.latencies)
        {
            let timing = lat.price(echo, self.port_elems);
            *out = timing.latency as u64;
            *stall += timing.stall_cycles as u64;
        }
    }

    /// The pricer of members `members`.
    fn slice(&self, members: Range<usize>) -> ClassPricer {
        ClassPricer {
            port_elems: self.port_elems,
            latencies: self.latencies[members.clone()].to_vec(),
            stall_cycles: self.stall_cycles[members].to_vec(),
        }
    }
}

/// How many lines each set of one L2 geometry holds.
#[derive(Debug, Clone)]
struct SetCounts {
    set_mask: u64,
    ways: usize,
    lines: Vec<u32>,
}

impl SetCounts {
    #[inline]
    fn set(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Whether adding the lines (line numbers) of `fresh` would put more
    /// lines in one of these sets than it has ways.
    fn overflows(&mut self, fresh: &[u64]) -> bool {
        let mut over = false;
        for &line in fresh {
            let s = self.set(line);
            self.lines[s] += 1;
            over |= self.lines[s] as usize > self.ways;
        }
        for &line in fresh {
            let s = self.set(line);
            self.lines[s] -= 1;
        }
        over
    }
}

/// What a back serving a whole group of tag classes needs (see
/// [`ClassTree`]): each class's L2 geometry, to split, and the set
/// occupancy of the geometries that overflow first, to know when.
#[derive(Debug, Clone)]
struct Group {
    /// `(l2_size, l2_assoc, members)` of each class, in lane order.
    classes: Vec<(usize, usize, usize)>,
    /// `log2` of the L2 line size.
    line_shift: u32,
    /// The class geometries no other class has both as few sets and as few
    /// ways as: one of these overflows whenever any class does, since a set
    /// of the other gathers a subset of the lines one of its sets gathers.
    watched: Vec<SetCounts>,
    /// Line numbers of the L2 lines the current access may allocate: those
    /// it touches that the shared L2 does not hold.
    fresh: Vec<u64>,
}

impl Group {
    fn new(classes: Vec<(usize, usize, usize)>, l2_line: usize) -> Group {
        let shape = |&(size, assoc, _): &(usize, usize, usize)| (size / (assoc * l2_line), assoc);
        let watched = classes
            .iter()
            .map(shape)
            .filter(|&(sets, ways)| {
                !classes
                    .iter()
                    .map(shape)
                    .any(|(s, w)| (s, w) != (sets, ways) && s <= sets && w <= ways)
            })
            .map(|(sets, ways)| SetCounts {
                set_mask: sets as u64 - 1,
                ways,
                lines: vec![0; sets],
            })
            .collect();
        Group {
            classes,
            line_shift: l2_line.trailing_zeros(),
            watched,
            fresh: Vec::new(),
        }
    }

    /// Note the L2 line holding `addr` as one the access may allocate,
    /// unless `l2` holds it.
    #[inline]
    fn note(&mut self, l2: &Cache, addr: u64) {
        let line = addr >> self.line_shift;
        if l2.probe(line << self.line_shift) == LookupResult::Miss && !self.fresh.contains(&line) {
            self.fresh.push(line);
        }
    }

    /// Whether the access whose lines were noted, which stamps the shared
    /// `l2` at most `stamps` times, could overflow a set of some class or
    /// make `l2` renumber its stamps (after which its sets' stamps no longer
    /// compare).
    fn must_split(&mut self, l2: &Cache, stamps: u64) -> bool {
        if (l2.stamps_left() as u64) < stamps {
            return true;
        }
        let fresh = &self.fresh;
        !fresh.is_empty() && self.watched.iter_mut().any(|w| w.overflows(fresh))
    }

    /// After the access: count each noted line `l2` now holds.
    fn settle(&mut self, l2: &Cache) {
        for line in self.fresh.drain(..) {
            if l2.probe(line << self.line_shift) == LookupResult::Hit {
                for w in &mut self.watched {
                    let s = w.set(line);
                    w.lines[s] += 1;
                }
            }
        }
    }
}

/// Visit each `line`-byte line that a vector access of `elems` elements
/// at `base`, `stride_bytes` apart, touches, once each and in some order:
/// the lines [`Back::vector`]'s walk visits at that line size.
fn each_line(
    base: u64,
    stride_bytes: i64,
    elems: u32,
    line: u64,
    memo: &mut SharedAccessScratch,
    mut f: impl FnMut(u64),
) {
    match lines::classify(base, stride_bytes, elems, line) {
        Some(walk) => walk.for_each(f),
        None => memo
            .lines(base, stride_bytes, elems, line)
            .iter()
            .for_each(|&blk| f(blk)),
    }
}

/// One back under a front and its members' latency columns (lanes
/// `lane..lane + members`): one tag class, or while they share the back,
/// a whole group of them.
#[derive(Debug, Clone)]
struct BackNode {
    lane: usize,
    back: Back,
    pricer: ClassPricer,
    /// While the back serves a group of realistic-model classes: when and
    /// how to split it.  (A perfect-model back never fills a line, so its
    /// group never splits.)
    group: Option<Box<Group>>,
}

impl BackNode {
    /// The back of `classes`, one or more tag classes that share a back,
    /// their members in lane order from `lane`.
    fn new(
        configs: &[(MemoryModel, MemoryParams, u32)],
        classes: &[Vec<usize>],
        lane: usize,
    ) -> Self {
        let (model, params, port) = configs[classes[0][0]];
        let members = classes.concat();
        let pricer = ClassPricer {
            port_elems: port.max(1),
            latencies: members
                .iter()
                .map(|&m| Latencies::of(&configs[m].1))
                .collect(),
            stall_cycles: vec![0; members.len()],
        };
        if let [_] = classes {
            let back = Back::new(model, &params, port.max(1));
            return BackNode {
                lane,
                back,
                pricer,
                group: None,
            };
        }
        // The shared L2 takes the most sets and the fewest ways of any
        // class: sets are powers of two, so each of its sets lies within one
        // set of every class, and it cannot evict before some class would.
        let classes: Vec<_> = classes
            .iter()
            .map(|class| {
                let p = &configs[class[0]].1;
                cache::check_geometry(L2_NAME, p.l2_size, p.l2_assoc, p.l2_line);
                cache::check_geometry("L3", p.l3_size, p.l3_assoc, p.l3_line);
                (p.l2_size, p.l2_assoc, class.len())
            })
            .collect();
        let line = params.l2_line;
        let sets = classes
            .iter()
            .map(|&(size, assoc, _)| size / (assoc * line));
        let ways = classes.iter().map(|&(_, assoc, _)| assoc);
        let (sets, ways) = (sets.max().unwrap_or(1), ways.min().unwrap_or(1));
        let shared = MemoryParams {
            l2_size: sets * ways * line,
            l2_assoc: ways,
            ..params
        };
        BackNode {
            lane,
            back: Back::new(model, &shared, port.max(1)),
            pricer,
            group: (model == MemoryModel::Realistic).then(|| Box::new(Group::new(classes, line))),
        }
    }

    fn lanes(&self) -> Range<usize> {
        self.lane..self.lane + self.pricer.latencies.len()
    }

    /// Whether this back, serving a group, must split before it serves the
    /// L1 misses `lines` of a scalar access.
    #[inline]
    fn must_split_scalar(&mut self, lines: &ScalarLines) -> bool {
        let Some(group) = self.group.as_deref_mut() else {
            return false;
        };
        for miss in lines.misses.iter().flatten() {
            group.note(&self.back.l2, miss.blk);
            if let Some(wb) = miss.writeback {
                group.note(&self.back.l2, wb);
            }
        }
        // Each line: a lookup, a refill and a write-back.
        group.must_split(&self.back.l2, 6)
    }

    /// Whether this back, serving a group, must split before it serves a
    /// vector access of `elems` elements at `base`, `stride_bytes` apart;
    /// `l1_clean` when the access is known to push no dirty L1 line.
    #[inline]
    fn must_split_vector(
        &mut self,
        base: u64,
        stride_bytes: i64,
        elems: u32,
        l1_clean: bool,
        memo: &mut SharedAccessScratch,
    ) -> bool {
        let Some(group) = self.group.as_deref_mut() else {
            return false;
        };
        let l2 = &self.back.l2;
        let (l1_line, l2_line) = (self.back.l1_line, self.back.l2_line);
        let mut lines = 0u64;
        each_line(base, stride_bytes, elems, l2_line, memo, |blk| {
            lines += 1;
            group.note(l2, blk);
        });
        // A dirty L1 line the walk pushes down fills the L2 line holding its
        // first byte: one of the walk's own lines, unless L1 lines are the
        // longer ones.  Then every L1 line the access spans may be dirty.
        if l1_line > l2_line && !l1_clean {
            each_line(base, stride_bytes, elems, l1_line, memo, |blk| {
                group.note(l2, blk)
            });
        }
        // Each L2 line: a lookup and a refill; each L1 line, at most
        // `max(1, l2_line / l1_line)` of them per L2 line: a push.
        group.must_split(l2, lines * (2 + (l2_line / l1_line).max(1)))
    }

    /// After an access: bring the group's set occupancy up to date.
    #[inline]
    fn settle(&mut self) {
        if let Some(group) = self.group.as_deref_mut() {
            group.settle(&self.back.l2);
        }
    }

    /// One back per class of the group this back serves, each holding this
    /// back's lines in its own L2 geometry, with a copy of its L3 and
    /// counters and its members' latency columns.
    fn split(&self) -> Vec<BackNode> {
        let group = self.group.as_deref().expect("only a group's back splits");
        let mut first = 0;
        group
            .classes
            .iter()
            .map(|&(l2_size, l2_assoc, members)| {
                let node = BackNode {
                    lane: self.lane + first,
                    back: self.back.reshaped(l2_size, l2_assoc),
                    pricer: self.pricer.slice(first..first + members),
                    group: None,
                };
                first += members;
                node
            })
            .collect()
    }
}

/// One front and the backs under it (lanes `lanes`).
#[derive(Debug, Clone)]
struct FrontNode {
    lanes: Range<usize>,
    front: Front,
    backs: Vec<BackNode>,
    /// Whether the tree's latencies of these lanes still hold their L1
    /// latencies: the last access this front saw hit the L1 on every line.
    /// Every access priced through a back clears it.  Skipping the rewrite
    /// on a run of hits measured +6.0 % perfbench `memory` runs/s at 1
    /// worker over writing every lane's L1 latency on each hit (2-vCPU
    /// host, 7 of 8 alternating pairs).
    l1_priced: bool,
}

impl FrontNode {
    /// Replace back `j`, which serves a group, by one back per class.
    #[cold]
    fn split(&mut self, j: usize) {
        let classes = self.backs[j].split();
        self.backs.splice(j..=j, classes);
    }
}

/// The entry of `v` that `same` accepts, else a new empty one pushed last.
fn entry<T: Default>(v: &mut Vec<T>, same: impl Fn(&T) -> bool) -> &mut T {
    match v.iter().position(same) {
        Some(i) => &mut v[i],
        None => {
            v.push(T::default());
            v.last_mut().expect("just pushed")
        }
    }
}

/// The memory side of a batch of configurations that see one access
/// stream, as a class tree: one L1 front per distinct model and L1
/// geometry (with L1 lines shorter than one 8-byte vector element, also
/// per L2 line size), L2/L3 backs under it, and one latency column per
/// configuration in its back's pricer.
///
/// This is single-pass simulation of many configurations (Mattson et al.,
/// "Evaluation techniques for storage hierarchies", IBM Systems Journal
/// 1970) applied to the levels the classes of a memory sweep share:
///
/// * a scalar access looks the L1 up once per front; when every line hits,
///   each of the front's lanes takes its own L1 latency, and no back or
///   pricer runs;
/// * otherwise each back serves the front's misses and prices its echo for
///   all of its members;
/// * a vector access runs every back's L2 walk, but only the first back
///   under a front invalidates the L1 lines; the others push down the dirty
///   lines that walk found.
///
/// # Shared backs
///
/// Under a front, the tag classes ([`tag_equivalent_configs`]) that differ
/// only in L2 size and associativity form a *group*, and one back serves
/// the whole group until some class's L2 would evict.  While no class's L2
/// set has held more lines than its ways, every class's L2 holds exactly
/// the lines filled so far, with the same dirty bits and, since each saw
/// the same lookups and fills, the same LRU stamps, and every L3 below
/// sees the same miss stream: one back's verdicts, echoes and counters are
/// every class's.  The shared L2 has the most sets and the fewest ways of
/// any class, so each of its sets lies within one set of every class and
/// it cannot evict first.  The group counts how many lines each set of
/// each class would hold (only the geometries that overflow first), and
/// before an access that could push a set past its ways, or make the
/// shared L2 renumber its stamps, it *splits*: each class gets its own back
/// whose L2 holds the shared lines, with their stamps and dirty bits, in
/// the class's geometry (`Cache::reshaped`), and a copy of the L3 and
/// counters.  From there each class walks on its own.  A split is never
/// late, and one that comes early loses only time.
///
/// Lanes are laid out front by front, back by back and class by class (in
/// order of first appearance, members in batch order);
/// [`Self::lane_configs`] maps a lane back to its configuration.  Every
/// lane's latencies and [`MemStats`] are exactly what a fresh
/// [`MemoryHierarchy`] of its configuration produces on the same stream.
/// The latencies live in the tree, so a run of L1 hits under a front
/// rewrites none of them.
///
/// When every lane has one L1 latency, a scalar access that hits the L1 of
/// every front costs every lane that latency, and the access call says so
/// ([`LaneLatency::Shared`]): the caller learns it without scanning the
/// lanes.  On a memory-latency or L2 sweep almost every scalar access is
/// such a hit.
#[derive(Debug, Clone)]
pub struct ClassTree {
    fronts: Vec<FrontNode>,
    lane_config: Vec<usize>,
    /// Each lane's L1 latency, the price of an all-L1-hit scalar access.
    l1_latency: Vec<u64>,
    /// The L1 latency of every lane, when all lanes share one.
    shared_l1: Option<u64>,
    /// Each lane's latency of the last access.
    latency: Vec<u64>,
    /// Touched-line walks of the current irregular vector access, shared
    /// by every back.
    memo: SharedAccessScratch,
    /// Backs built to serve more than one tag class, and how many of them
    /// split.
    shared_backs: u64,
    splits: u64,
}

impl ClassTree {
    /// The tree of `configs`, each a (model, memory parameters, L2 port
    /// width) triple.
    pub fn new(configs: &[(MemoryModel, MemoryParams, u32)]) -> ClassTree {
        // Front → group → tag class → members, each in order of first
        // appearance.
        let mut tree: Vec<Vec<Vec<Vec<usize>>>> = Vec::new();
        for (i, &(model, ref params, port)) in configs.iter().enumerate() {
            let lead = |first: usize| {
                let (model, ref params, port) = configs[first];
                (model, params, port)
            };
            let front = entry(&mut tree, |groups| {
                let (model_f, params_f, _) = lead(groups[0][0][0]);
                shares_front((model_f, params_f), (model, params))
            });
            let group = entry(front, |classes| {
                shares_back(lead(classes[0][0]), (model, params, port))
            });
            let class = entry(group, |members| {
                tag_equivalent_configs(lead(members[0]), (model, params, port))
            });
            class.push(i);
        }

        let mut lane = 0;
        let fronts = tree
            .iter()
            .map(|groups| {
                let first = lane;
                let backs = groups
                    .iter()
                    .map(|classes| {
                        let node = BackNode::new(configs, classes, lane);
                        lane = node.lanes().end;
                        node
                    })
                    .collect();
                let (model, ref params, _) = configs[groups[0][0][0]];
                FrontNode {
                    lanes: first..lane,
                    front: Front::new(model, params),
                    backs,
                    l1_priced: false,
                }
            })
            .collect();
        let shared_backs = tree.iter().flatten().filter(|g| g.len() > 1).count();
        let lane_config: Vec<usize> = tree.concat().concat().concat();
        let l1_latency: Vec<u64> = lane_config
            .iter()
            .map(|&c| configs[c].1.l1_latency as u64)
            .collect();
        let shared_l1 = match l1_latency.split_first() {
            Some((&first, rest)) if rest.iter().all(|&l| l == first) => Some(first),
            _ => None,
        };
        ClassTree {
            fronts,
            shared_l1,
            l1_latency,
            latency: vec![0; lane_config.len()],
            lane_config,
            memo: SharedAccessScratch::default(),
            shared_backs: shared_backs as u64,
            splits: 0,
        }
    }

    /// The configuration (index into `configs`) of each lane.
    pub fn lane_configs(&self) -> &[usize] {
        &self.lane_config
    }

    /// Price a scalar access of `size` bytes for every lane: one latency
    /// all lanes share when it hit the L1 of every front and the lanes
    /// share one L1 latency, else each lane's own.  `echo` hears each run
    /// of lanes that shares an echo (the profiler's wait causes).
    #[inline]
    pub fn scalar_access(
        &mut self,
        addr: u64,
        size: usize,
        kind: AccessKind,
        mut echo: impl FnMut(Range<usize>, &AccessEcho),
    ) -> LaneLatency<'_> {
        let mut hit = true;
        for node in &mut self.fronts {
            let lines = node.front.scalar(addr, size, kind);
            if lines.hit() {
                if !node.l1_priced {
                    self.latency[node.lanes.clone()]
                        .copy_from_slice(&self.l1_latency[node.lanes.clone()]);
                    node.l1_priced = true;
                }
                echo(node.lanes.clone(), &lines.l1_echo());
                continue;
            }
            hit = false;
            node.l1_priced = false;
            let mut j = 0;
            while j < node.backs.len() {
                if node.backs[j].must_split_scalar(&lines) {
                    node.split(j);
                    self.splits += 1;
                }
                let b = &mut node.backs[j];
                let e = b.back.scalar(&lines);
                b.settle();
                b.pricer.price(&e, &mut self.latency[b.lanes()]);
                echo(b.lanes(), &e);
                j += 1;
            }
        }
        match self.shared_l1 {
            Some(latency) if hit => LaneLatency::Shared(latency),
            _ => LaneLatency::Lanes(&self.latency),
        }
    }

    /// Price a vector access of `elems` 64-bit elements at `base`,
    /// `stride_bytes` apart, for every lane; returns and reports as
    /// [`Self::scalar_access`] does.
    #[inline]
    pub fn vector_access(
        &mut self,
        base: u64,
        stride_bytes: i64,
        elems: u32,
        kind: AccessKind,
        mut echo: impl FnMut(Range<usize>, &AccessEcho),
    ) -> &[u64] {
        let (elems, write) = (elems.max(1), kind == AccessKind::Store);
        for node in &mut self.fronts {
            node.front.vector(stride_bytes, kind);
            node.l1_priced = false;
            let mut j = 0;
            while j < node.backs.len() {
                // Only the first back's walk has yet to find the dirty lines.
                let l1_clean = j > 0 && node.front.dirty.is_empty();
                if node.backs[j].must_split_vector(
                    base,
                    stride_bytes,
                    elems,
                    l1_clean,
                    &mut self.memo,
                ) {
                    node.split(j);
                    self.splits += 1;
                }
                let b = &mut node.backs[j];
                let l1 = if j == 0 {
                    L1Lines::Invalidate(&mut node.front)
                } else {
                    L1Lines::Reported(&node.front.dirty)
                };
                let e = b
                    .back
                    .vector(base, stride_bytes, elems, write, l1, &mut self.memo);
                b.settle();
                b.pricer.price(&e, &mut self.latency[b.lanes()]);
                echo(b.lanes(), &e);
                j += 1;
            }
        }
        &self.latency
    }

    /// Every configuration's statistics, in `configs` order.
    pub fn stats(&self) -> Vec<MemStats> {
        let mut out = vec![MemStats::default(); self.lane_config.len()];
        for node in &self.fronts {
            for b in &node.backs {
                for (i, &stall) in b.pricer.stall_cycles.iter().enumerate() {
                    out[self.lane_config[b.lane + i]] =
                        compose(&node.front.stats, &b.back.stats, stall);
                }
            }
        }
        out
    }

    /// Fold the tree's back sharing into the telemetry recorder: the backs
    /// built to serve more than one tag class, and how many of them split.
    /// Called once per walk.
    pub fn record_obs(&self) {
        vmv_obs::add(vmv_obs::Counter::MemSharedBacks, self.shared_backs);
        vmv_obs::add(vmv_obs::Counter::MemBackSplits, self.splits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn realistic() -> MemoryHierarchy {
        MemoryHierarchy::new(MemoryModel::Realistic, MemoryParams::default(), 4)
    }

    #[test]
    fn perfect_scalar_access_is_one_cycle() {
        let mut m = MemoryHierarchy::new(MemoryModel::Perfect, MemoryParams::default(), 4);
        let t = m.scalar_access(0x1234, 4, AccessKind::Load);
        assert_eq!(t.latency, 1);
        assert_eq!(t.stall_cycles, 0);
    }

    #[test]
    fn realistic_scalar_cold_miss_then_hit() {
        let mut m = realistic();
        let miss = m.scalar_access(0x1000, 4, AccessKind::Load);
        assert!(
            miss.latency >= 500,
            "cold miss goes to main memory: {}",
            miss.latency
        );
        assert!(miss.stall_cycles > 0);
        let hit = m.scalar_access(0x1004, 4, AccessKind::Load);
        assert_eq!(hit.latency, 1);
        assert_eq!(hit.stall_cycles, 0);
        assert_eq!(m.stats().l1_misses, 1);
        assert_eq!(m.stats().l1_hits, 1);
    }

    #[test]
    fn perfect_vector_access_pays_transfer_time() {
        let mut m = MemoryHierarchy::new(MemoryModel::Perfect, MemoryParams::default(), 4);
        // 16 elements, unit stride: 5 + 16/4 - 1 = 8 cycles, no stall (the
        // compiler assumed the same).
        let t = m.vector_access(0x0, 8, 16, AccessKind::Load);
        assert_eq!(t.latency, 8);
        assert_eq!(t.stall_cycles, 0);
        // Non-unit stride: 5 + 16 - 1 = 20 cycles, 12 cycles of stall.
        let t = m.vector_access(0x0, 640, 16, AccessKind::Load);
        assert_eq!(t.latency, 20);
        assert_eq!(t.stall_cycles, 12);
    }

    #[test]
    fn realistic_vector_access_hits_after_warmup() {
        let mut m = realistic();
        let cold = m.vector_access(0x4000, 8, 16, AccessKind::Load);
        assert!(cold.stall_cycles > 0);
        let warm = m.vector_access(0x4000, 8, 16, AccessKind::Load);
        assert_eq!(warm.stall_cycles, 0);
        assert_eq!(warm.latency, m.scheduled_vector_latency(16));
    }

    #[test]
    fn vector_access_invalidates_l1_for_coherence() {
        let mut m = realistic();
        // Bring a line into L1 with a scalar store (dirty).
        m.scalar_access(0x8000, 8, AccessKind::Store);
        assert_eq!(m.stats().l1_misses, 1);
        // A vector load overlapping that line must invalidate it.
        m.vector_access(0x8000, 8, 8, AccessKind::Load);
        assert!(m.stats().coherence_invalidations > 0);
        // The next scalar access to the line misses again in L1.
        let t = m.scalar_access(0x8000, 8, AccessKind::Load);
        assert!(t.latency > 1);
    }

    #[test]
    fn unit_stride_transfer_rate_is_port_width() {
        assert_eq!(transfer_cycles(8, 16, 4), 4, "16 elements, 4 per cycle");
        assert_eq!(transfer_cycles(8, 17, 4), 5);
        assert_eq!(transfer_cycles(8, 16, 8), 2);
        assert_eq!(transfer_cycles(8, 0, 4), 1, "at least one cycle");
    }

    #[test]
    fn non_unit_stride_transfers_one_element_per_cycle() {
        for stride in [0, 16, 256, -8] {
            assert_eq!(transfer_cycles(stride, 8, 4), 8, "stride {stride}");
        }
        assert_eq!(transfer_cycles(256, 0, 4), 1, "at least one cycle");
    }

    #[test]
    fn scheduled_latencies_match_compiler_assumptions() {
        let m = realistic();
        assert_eq!(m.scheduled_scalar_latency(), 1);
        assert_eq!(m.scheduled_vector_latency(16), 5 + 3);
        assert_eq!(m.scheduled_vector_latency(8), 5 + 1);
        assert_eq!(m.scheduled_vector_latency(4), 5);
        assert_eq!(m.scheduled_vector_latency(1), 5);
    }

    #[test]
    fn strided_miss_penalty_charges_the_actual_missed_lines() {
        // Regression: the miss-penalty loop used to look up `base + i *
        // l2_line` in the L3 instead of the addresses of the lines the
        // strided access actually missed, so the L3 warmed a contiguous
        // region the access never touched.
        let mut m = realistic();
        let stride = 4 * m.params.l2_line as i64; // well beyond one L2 line
        let elems = 8u32;
        let cold = m.vector_access(0x40000, stride, elems, AccessKind::Load);
        // Every element is on its own cold line: each pays the full memory
        // latency.
        assert_eq!(m.stats().l3_misses, elems as u64);
        assert_eq!(
            cold.latency,
            m.params.l2_latency + elems - 1 + elems * m.params.mem_latency
        );
        // The L3 now holds the *actual* strided lines...
        for i in 0..elems as u64 {
            let addr = 0x40000 + i * stride as u64;
            assert_eq!(
                m.probe(addr)[2],
                LookupResult::Hit,
                "actual line {i} must be in L3"
            );
        }
        // ...and not the contiguous region the old code would have fetched
        // (lines 1..4 lie strictly between the first two strided lines).
        for i in 1..4u64 {
            let addr = 0x40000 + i * m.params.l2_line as u64;
            assert_eq!(
                m.probe(addr)[2],
                LookupResult::Miss,
                "contiguous line {i} must not be in L3"
            );
        }
        // A re-run hits in the L2 and pays no penalty.
        let warm = m.vector_access(0x40000, stride, elems, AccessKind::Load);
        assert_eq!(warm.latency, m.params.l2_latency + elems - 1);
    }

    #[test]
    fn line_straddling_odd_stride_uses_the_scratch_fallback() {
        // Stride 200 with 64-byte lines: neither contiguous nor
        // line-aligned; the irregular path must behave like the naive walk.
        let mut m = realistic();
        let mut expect = Vec::new();
        crate::lines::collect_naive(0x1003C, 200, 16, m.params.l2_line as u64, &mut expect);
        m.vector_access(0x1003C, 200, 16, AccessKind::Load);
        assert_eq!(m.stats().l3_misses, expect.len() as u64);
        for &blk in &expect {
            assert_eq!(m.probe(blk)[1], LookupResult::Hit, "L2 holds {blk:#x}");
        }
        let warm = m.vector_access(0x1003C, 200, 16, AccessKind::Load);
        assert_eq!(warm.latency, m.scheduled_vector_latency(16).max(5 + 16 - 1));
        assert_eq!(m.stats().l2_hits, 1);
    }

    #[test]
    fn shared_scratch_vector_access_is_bit_identical() {
        // Drive a hierarchy and a one-configuration class tree (whose line
        // walks go through the memo its backs share) through an access mix
        // that exercises all three walk arms (contiguous, arithmetic,
        // irregular): identical timing and stats.
        let accesses: [(u64, i64, u32, AccessKind); 6] = [
            (0x1000, 8, 16, AccessKind::Load),       // contiguous
            (0x40000, 4 * 64, 8, AccessKind::Store), // arithmetic
            (0x1003C, 200, 16, AccessKind::Load),    // irregular
            (0x1003C, 200, 16, AccessKind::Store),   // irregular, memo reuse
            (0x1000, 8, 16, AccessKind::Load),       // warm contiguous
            (crate::ADDRESS_LIMIT - 64, -200, 9, AccessKind::Load), // irregular, top tags
        ];
        for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
            let mut plain = MemoryHierarchy::new(model, MemoryParams::default(), 4);
            let mut tree = ClassTree::new(&[(model, MemoryParams::default(), 4)]);
            for &(base, stride, elems, kind) in &accesses {
                let (a, echo) = plain.vector_access_echoed(base, stride, elems, kind);
                let mut heard = None;
                let lat = tree.vector_access(base, stride, elems, kind, |lanes, e| {
                    heard = Some((lanes, *e))
                });
                assert_eq!(
                    lat[0], a.latency as u64,
                    "{model:?} {base:#x} stride {stride}"
                );
                assert_eq!(heard, Some((0..1, echo)));
            }
            assert_eq!(tree.stats(), [plain.stats()]);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past the 4 GiB limit")]
    fn a_vector_access_past_the_address_limit_is_refused_in_debug_builds() {
        // The top lines of the 64-bit space: the walk takes the naive path
        // (its closed forms never see a span past the limit, so no cursor
        // overflows) and the L1 refuses the address it cannot tag exactly.
        realistic().vector_access(0xFFFF_FFFF_FFFF_FF78, 128, 2, AccessKind::Load);
    }

    #[test]
    fn echo_pricing_matches_real_accesses_on_tag_equivalent_followers() {
        // Followers differing ONLY in latency parameters share their
        // leader's tag class: priced through its echoes they must land on
        // exactly the timing and stats of real accesses — for scalar and
        // vector accesses, hits and misses, straddles, coherence
        // invalidations and irregular strides.
        let slow = MemoryParams {
            l1_latency: 3,
            l2_latency: 11,
            l3_latency: 40,
            mem_latency: 900,
            ..MemoryParams::default()
        };
        let fast = MemoryParams {
            l3_latency: 7,
            mem_latency: 30,
            ..MemoryParams::default()
        };
        let class = [MemoryParams::default(), slow, MemoryParams::default(), fast];
        for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
            let configs: Vec<_> = class.iter().map(|&p| (model, p, 4)).collect();
            for params in &class {
                assert!(tag_equivalent_configs(
                    (model, &MemoryParams::default(), 4),
                    (model, params, 4)
                ));
            }
            let mut tree = ClassTree::new(&configs);
            assert_eq!(tree.lane_configs(), [0, 1, 2, 3], "one class, batch order");
            let mut real: Vec<MemoryHierarchy> = class
                .iter()
                .map(|&p| MemoryHierarchy::new(model, p, 4))
                .collect();
            // After every access: each member's latency, and its stats.
            let check = |what: String,
                         latencies: &[u64],
                         timings: &[AccessTiming],
                         tree: &ClassTree,
                         real: &[MemoryHierarchy]| {
                for (i, t) in timings.iter().enumerate() {
                    assert_eq!(
                        latencies[i], t.latency as u64,
                        "{model:?} {what} member {i}"
                    );
                }
                let expect: Vec<MemStats> = real.iter().map(MemoryHierarchy::stats).collect();
                assert_eq!(tree.stats(), expect, "{model:?} {what} member stats");
            };

            // Scalar mix: cold miss, warm hit, line straddle, store.
            for (addr, size, kind) in [
                (0x1000u64, 8usize, AccessKind::Load),
                (0x1004, 4, AccessKind::Load),
                (0x101E, 8, AccessKind::Load),
                (0x2000, 8, AccessKind::Store),
            ] {
                let latencies = match tree.scalar_access(addr, size, kind, |_, _| {}) {
                    LaneLatency::Lanes(lanes) => lanes.to_vec(),
                    shared => panic!("L1 latencies 1 and 3 are not shared: {shared:?}"),
                };
                let timings: Vec<_> = real
                    .iter_mut()
                    .map(|r| r.scalar_access(addr, size, kind))
                    .collect();
                check(
                    format!("scalar {addr:#x}"),
                    &latencies,
                    &timings,
                    &tree,
                    &real,
                );
            }
            // Vector mix: cold, warm, strided, irregular, store over a
            // dirty scalar line (coherence).
            for (base, stride, elems, kind) in [
                (0x4000u64, 8i64, 16u32, AccessKind::Load),
                (0x4000, 8, 16, AccessKind::Load),
                (0x40000, 4 * 64, 8, AccessKind::Load),
                (0x1003C, 200, 16, AccessKind::Load),
                (0x2000, 8, 8, AccessKind::Store),
            ] {
                let latencies = tree
                    .vector_access(base, stride, elems, kind, |_, _| {})
                    .to_vec();
                let timings: Vec<_> = real
                    .iter_mut()
                    .map(|r| r.vector_access(base, stride, elems, kind))
                    .collect();
                check(
                    format!("vector {base:#x} stride {stride}"),
                    &latencies,
                    &timings,
                    &tree,
                    &real,
                );
            }
            let expect: Vec<MemStats> = real.iter().map(MemoryHierarchy::stats).collect();
            assert_eq!(tree.stats(), expect, "{model:?} member stats must agree");
        }
    }

    /// One access of a seeded stream: scalar `(addr, size, kind)` or vector
    /// `(base, stride, elems, kind)`.
    #[derive(Clone, Copy)]
    enum Access {
        Scalar(u64, usize, AccessKind),
        Vector(u64, i64, u32, AccessKind),
    }

    /// A seeded mix of loads and stores over a 48 KiB window: scalar
    /// accesses of 1 to 8 bytes at any alignment (so some straddle two L1
    /// lines), and vector accesses whose strides take every line-walk arm
    /// at some L1/L2 line size, negative and zero strides included.
    fn seeded_stream(seed: u64, n: usize) -> Vec<Access> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let strides = [8i64, 16, 24, 40, 64, 128, 200, 256, 512, -8, -24, -200, 0];
        (0..n)
            .map(|_| {
                let r = next();
                let kind = if r & 1 == 0 {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                };
                let addr = 0x8000 + (r >> 16) % (48 << 10);
                if (r >> 1) % 4 == 0 {
                    let stride = strides[(r >> 3) as usize % strides.len()];
                    let elems = 1 + (r >> 8) as u32 % 16;
                    // Keep every element inside the window's address range.
                    let base = if stride < 0 { addr + 16 * 200 } else { addr };
                    Access::Vector(base, stride, elems, kind)
                } else {
                    Access::Scalar(addr, 1 << ((r >> 3) % 4), kind)
                }
            })
            .collect()
    }

    #[test]
    fn the_l1_front_is_independent_of_the_levels_below() {
        // What the front hands its back — each scalar access's L1 misses
        // with the dirty line each fill evicted, and each vector access's
        // coherence invalidations with the dirty lines they push down —
        // and the L1 state itself must be the same under every L2/L3
        // geometry: L2 line sizes below, equal to and above the L1's (so
        // the backs' walks interleave the pushes differently), tiny and
        // large, direct-mapped and associative.  An L2 eviction that
        // back-invalidated the L1, say, would fail here.
        let backs = [
            (2 << 10, 1, 16, 16 << 10, 1, 32),
            (8 << 10, 1, 32, 64 << 10, 2, 64),
            (8 << 10, 2, 64, 1 << 20, 8, 64),
            (64 << 10, 4, 128, 256 << 10, 4, 128),
            (256 << 10, 4, 64, 1 << 20, 8, 64),
            (4 << 10, 16, 256, 8 << 10, 1, 256),
        ];
        for (l1_size, l1_assoc, l1_line) in [(1 << 10, 2, 32), (16 << 10, 4, 32), (2 << 10, 1, 64)]
        {
            for seed in [1, 2, 3] {
                let stream = seeded_stream(seed, 3000);
                let mut reference = None;
                for (g, &(l2_size, l2_assoc, l2_line, l3_size, l3_assoc, l3_line)) in
                    backs.iter().enumerate()
                {
                    let params = MemoryParams {
                        l1_size,
                        l1_assoc,
                        l1_line,
                        l2_size,
                        l2_assoc,
                        l2_line,
                        l3_size,
                        l3_assoc,
                        l3_line,
                        ..MemoryParams::default()
                    };
                    let mut h = MemoryHierarchy::new(MemoryModel::Realistic, params, 4);
                    let mut events = Vec::with_capacity(stream.len());
                    for &access in &stream {
                        match access {
                            Access::Scalar(addr, size, kind) => {
                                // The verdict this front hands its back.
                                let lines = h.front.clone().scalar(addr, size, kind);
                                h.scalar_access(addr, size, kind);
                                events.push(format!("{lines:?}"));
                            }
                            Access::Vector(base, stride, elems, kind) => {
                                let before = h.front.stats.coherence_invalidations;
                                h.vector_access(base, stride, elems, kind);
                                let mut dirty = h.front.dirty.clone();
                                dirty.sort_unstable();
                                let walked = h.front.stats.coherence_invalidations - before;
                                events.push(format!("{walked} {dirty:?}"));
                            }
                        }
                    }
                    let front = (events, format!("{:?} {:?}", h.front.stats, h.front.l1));
                    match &reference {
                        None => reference = Some(front),
                        Some(r) => assert!(
                            *r == front,
                            "L1 {l1_size}/{l1_assoc}/{l1_line} seed {seed}: back {g} changed the front"
                        ),
                    }
                }
                let (events, _) = reference.expect("several backs");
                // Test premise: the stream pushes dirty lines and misses.
                assert!(events.iter().any(|e| e.contains("writeback: Some")));
                assert!(events
                    .iter()
                    .any(|e| e.ends_with(']') && !e.ends_with("[]")));
            }
        }
    }

    #[test]
    fn class_trees_match_independent_hierarchies() {
        // One tree over both models x two L1 geometries (one with lines
        // shorter than a vector element) x L2/L3 geometries whose L2 lines
        // are shorter than, equal to and longer than the L1's x two
        // latency points, the second with two L2 bank counts, in a
        // scrambled batch order: on seeded streams, with dirty L1 lines
        // pushed down by vector accesses, every lane's latency after every
        // access and every configuration's final statistics must equal
        // those of its own hierarchy.  Bank counts share a tag class.
        let mut configs = Vec::new();
        for model in [MemoryModel::Realistic, MemoryModel::Perfect] {
            for (l1_size, l1_assoc, l1_line) in [(1 << 10, 2, 32), (512, 2, 4)] {
                for (l2_size, l2_assoc, l2_line) in
                    [(2 << 10, 1, 16), (4 << 10, 2, 32), (8 << 10, 4, 128)]
                {
                    for (l2_latency, mem_latency, l2_banks) in
                        [(5, 100, 1), (9, 700, 2), (9, 700, 4)]
                    {
                        let params = MemoryParams {
                            l1_size,
                            l1_assoc,
                            l1_line,
                            l2_size,
                            l2_assoc,
                            l2_line,
                            l2_banks,
                            l3_size: 64 << 10,
                            l2_latency,
                            mem_latency,
                            ..MemoryParams::default()
                        };
                        configs.push((model, params, 4));
                    }
                }
            }
        }
        // Scramble the batch order (a fixed permutation of 72 entries).
        let n = configs.len();
        let configs: Vec<_> = (0..n).map(|i| configs[i * 29 % n]).collect();
        for seed in [7, 8] {
            let mut tree = ClassTree::new(&configs);
            let fronts = tree.fronts.len();
            assert_eq!(fronts, 2 + 2 * 3, "L1 lines of 4 bytes split by L2 line");
            let backs: usize = tree.fronts.iter().map(|f| f.backs.len()).sum();
            assert_eq!(
                backs,
                2 * 2 * 3,
                "one back per geometry, whatever its banks"
            );
            let mut real: Vec<MemoryHierarchy> = configs
                .iter()
                .map(|&(model, params, port)| MemoryHierarchy::new(model, params, port))
                .collect();
            // Scalar accesses the tree priced as one shared latency (every
            // front hit, and all lanes share the default L1 latency), and
            // per lane.
            let (mut shared, mut per_lane) = (0, 0);
            for (step, access) in seeded_stream(seed, 2500).into_iter().enumerate() {
                let (lat, expect): (Vec<u64>, Vec<u32>) = match access {
                    Access::Scalar(addr, size, kind) => (
                        match tree.scalar_access(addr, size, kind, |_, _| {}) {
                            LaneLatency::Shared(latency) => {
                                shared += 1;
                                vec![latency; n]
                            }
                            LaneLatency::Lanes(lanes) => {
                                per_lane += 1;
                                lanes.to_vec()
                            }
                        },
                        real.iter_mut()
                            .map(|r| r.scalar_access(addr, size, kind).latency)
                            .collect(),
                    ),
                    Access::Vector(base, stride, elems, kind) => (
                        tree.vector_access(base, stride, elems, kind, |_, _| {})
                            .to_vec(),
                        real.iter_mut()
                            .map(|r| r.vector_access(base, stride, elems, kind).latency)
                            .collect(),
                    ),
                };
                for (l, &c) in tree.lane_configs().iter().enumerate() {
                    assert_eq!(
                        lat[l], expect[c] as u64,
                        "seed {seed} step {step} config {c}"
                    );
                }
            }
            let expect: Vec<MemStats> = real.iter().map(MemoryHierarchy::stats).collect();
            assert_eq!(tree.stats(), expect, "seed {seed}");
            assert!(
                shared > 0 && per_lane > 0,
                "seed {seed}: {shared} / {per_lane}"
            );
        }
    }

    /// A configuration's L1, L2 and L3 lines ([`Cache::lines`]).
    type Lines = [Vec<(u64, bool, u32)>; 3];

    fn hierarchy_lines(h: &MemoryHierarchy) -> Lines {
        [h.front.l1.lines(), h.back.l2.lines(), h.back.l3.lines()]
    }

    /// Each configuration's lines in `tree`, in `configs` order.
    fn tree_lines(tree: &ClassTree) -> Vec<Lines> {
        let mut out = vec![Lines::default(); tree.lane_config.len()];
        for node in &tree.fronts {
            for b in &node.backs {
                for l in b.lanes() {
                    out[tree.lane_config[l]] =
                        [node.front.l1.lines(), b.back.l2.lines(), b.back.l3.lines()];
                }
            }
        }
        out
    }

    #[test]
    fn groups_share_one_back_until_a_class_would_evict() {
        // L2 size x associativity ladders at one line size, two latency
        // points each, under one L1 front per model, in a scrambled batch
        // order: each model's twelve tag classes form one group.  On the
        // seeded streams the 8-32 KiB L2s overflow, at different steps, and
        // the 128 KiB ones never do.  The realistic group must share one
        // back up to the first access that makes any class evict and split
        // exactly there; the perfect group never splits.  Every lane's
        // latency after every access, and every configuration's final
        // statistics and L1, L2 and L3 lines (block, dirty bit and LRU
        // stamp), must equal those of its own hierarchy.  A second pass
        // starts every L2's stamp counter two stamps before the wrap: the
        // group must split before its shared L2 renumbers, before any class
        // overflows, and the classes must still match through their own
        // renumbering.
        let mut configs = Vec::new();
        for model in [MemoryModel::Realistic, MemoryModel::Perfect] {
            for l2_size in [8 << 10, 16 << 10, 32 << 10, 128 << 10] {
                for l2_assoc in [1, 2, 4] {
                    for (l2_latency, mem_latency) in [(5, 100), (9, 700)] {
                        let params = MemoryParams {
                            l1_size: 1 << 10,
                            l1_assoc: 2,
                            l2_size,
                            l2_assoc,
                            l2_latency,
                            l3_size: 64 << 10,
                            mem_latency,
                            ..MemoryParams::default()
                        };
                        configs.push((model, params, 4));
                    }
                }
            }
        }
        let n = configs.len();
        let configs: Vec<_> = (0..n).map(|i| configs[i * 29 % n]).collect();
        let realistic = |c: usize| configs[c].0 == MemoryModel::Realistic;
        let largest = (0..n)
            .find(|&c| realistic(c) && configs[c].1.l2_size == 128 << 10)
            .expect("a 128 KiB realistic L2");
        for seed in [7, 8] {
            for start in [0, u32::MAX - 2] {
                let mut tree = ClassTree::new(&configs);
                assert_eq!((tree.fronts.len(), tree.shared_backs), (2, 2));
                let mut real: Vec<MemoryHierarchy> = configs
                    .iter()
                    .map(|&(model, params, port)| MemoryHierarchy::new(model, params, port))
                    .collect();
                for node in &mut tree.fronts {
                    for b in &mut node.backs {
                        b.back.l2 = b.back.l2.clone().with_tick(start);
                    }
                }
                for r in &mut real {
                    r.back.l2 = r.back.l2.clone().with_tick(start);
                }
                // The access at which each realistic L2 first evicted (it
                // then holds fewer lines than one that never evicts), and
                // the one the tree split at.
                let mut evicted: Vec<Option<usize>> = vec![None; n];
                let mut split = None;
                for (step, access) in seeded_stream(seed, 2500).into_iter().enumerate() {
                    let (lat, expect): (Vec<u64>, Vec<u32>) = match access {
                        Access::Scalar(addr, size, kind) => (
                            match tree.scalar_access(addr, size, kind, |_, _| {}) {
                                LaneLatency::Shared(latency) => vec![latency; n],
                                LaneLatency::Lanes(lanes) => lanes.to_vec(),
                            },
                            real.iter_mut()
                                .map(|r| r.scalar_access(addr, size, kind).latency)
                                .collect(),
                        ),
                        Access::Vector(base, stride, elems, kind) => (
                            tree.vector_access(base, stride, elems, kind, |_, _| {})
                                .to_vec(),
                            real.iter_mut()
                                .map(|r| r.vector_access(base, stride, elems, kind).latency)
                                .collect(),
                        ),
                    };
                    let at = format!("seed {seed} from stamp {start}, step {step}");
                    for (l, &c) in tree.lane_configs().iter().enumerate() {
                        assert_eq!(lat[l], expect[c] as u64, "{at}: config {c}");
                    }
                    if tree.splits > 0 && split.is_none() {
                        split = Some(step);
                    }
                    let all = real[largest].back.l2.lines().len();
                    for c in (0..n).filter(|&c| realistic(c)) {
                        if evicted[c].is_none() && real[c].back.l2.lines().len() < all {
                            evicted[c] = Some(step);
                        }
                    }
                }
                let at = format!("seed {seed} from stamp {start}");
                let expect: Vec<MemStats> = real.iter().map(MemoryHierarchy::stats).collect();
                assert_eq!(tree.stats(), expect, "{at}");
                let expect: Vec<_> = real.iter().map(hierarchy_lines).collect();
                assert!(tree_lines(&tree) == expect, "{at}: cache lines");
                assert_eq!(tree.splits, 1, "{at}: only the realistic group splits");

                // Test premises: the small L2s evict, at different steps,
                // and hold dirty lines; the largest never evict.
                let mut first: Vec<usize> = Vec::new();
                for c in (0..n).filter(|&c| realistic(c)) {
                    let big = configs[c].1.l2_size == 128 << 10;
                    assert_eq!(evicted[c].is_none(), big, "{at}: config {c}");
                    first.extend(evicted[c]);
                }
                first.sort_unstable();
                let overflow = first[0];
                first.dedup();
                assert!(first.len() >= 4, "{at}: first evictions at {first:?}");
                assert!(
                    expect.iter().any(|l| l[1].iter().any(|line| line.1)),
                    "{at}"
                );
                if start == 0 {
                    assert_eq!(split, Some(overflow), "{at}: split at the first overflow");
                } else {
                    assert!(split < Some(overflow), "{at}: split {split:?} at the wrap");
                    for c in (0..n).filter(|&c| realistic(c)) {
                        assert!(
                            real[c].back.l2.stamps_left() > 64,
                            "{at}: config {c} wrapped"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tag_equivalence_requires_matching_geometry_and_model() {
        let base = (MemoryModel::Realistic, &MemoryParams::default(), 4);
        let slow = MemoryParams {
            mem_latency: 900,
            ..MemoryParams::default()
        };
        assert!(tag_equivalent_configs(
            base,
            (MemoryModel::Realistic, &slow, 4)
        ));
        let big_l2 = MemoryParams {
            l2_size: MemoryParams::default().l2_size * 2,
            ..MemoryParams::default()
        };
        assert!(!tag_equivalent_configs(
            base,
            (MemoryModel::Realistic, &big_l2, 4)
        ));
        // The bank count is recorded but reaches no tag or transfer time.
        let banks = MemoryParams {
            l2_banks: 4,
            ..MemoryParams::default()
        };
        assert!(tag_equivalent_configs(
            base,
            (MemoryModel::Realistic, &banks, 4)
        ));
        assert!(!tag_equivalent_configs(
            base,
            (MemoryModel::Perfect, &MemoryParams::default(), 4)
        ));
        assert!(!tag_equivalent_configs(
            base,
            (MemoryModel::Realistic, &MemoryParams::default(), 2)
        ));
    }

    #[test]
    fn stats_accumulate() {
        let mut m = realistic();
        m.scalar_access(0x0, 4, AccessKind::Load);
        m.scalar_access(0x100, 4, AccessKind::Store);
        m.vector_access(0x200, 8, 8, AccessKind::Load);
        m.vector_access(0x300, 8, 8, AccessKind::Store);
        assert_eq!(m.stats().scalar_loads, 1);
        assert_eq!(m.stats().scalar_stores, 1);
        assert_eq!(m.stats().vector_loads, 1);
        assert_eq!(m.stats().vector_stores, 1);
        assert!(m.stats().total_stall_cycles > 0);
    }
}
