//! The three-level memory hierarchy of paper §4.2:
//!
//! * L1: 16 KB, 4-way data cache, 1-cycle latency, scalar / µSIMD accesses;
//! * L2: 256 KB two-bank interleaved *vector cache*, 5 cycles; vector
//!   accesses bypass the L1 and go straight to this level through one wide
//!   (4 × 64-bit) port;
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

use crate::cache::{Cache, LookupResult};
use crate::lines::{self, LineWalk};
use crate::vector_cache::VectorCache;
use vmv_machine::MemoryParams;

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
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            1.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            1.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }

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

/// Memoized touched-line walks shared across hierarchies.
///
/// Batched trace replay prices the *same* recorded access against K cache
/// states back to back.  The touched-line set of an irregular stride depends
/// only on `(base, stride, elems, line_size)` — never on cache contents — so
/// one naive walk can serve every variant whose line geometry matches.  The
/// scratch lives outside the hierarchy precisely so K hierarchies can borrow
/// it in turn while each is stepped mutably.
#[derive(Debug, Default)]
pub struct SharedAccessScratch {
    /// Access the memoized walks belong to: (base, stride, elems).
    key: Option<(u64, i64, u32)>,
    /// One cached walk per distinct line size seen for the current access.
    walks: Vec<(u64, Vec<u64>)>,
    /// Recycled line buffers from previous accesses.
    spare: Vec<Vec<u64>>,
}

impl SharedAccessScratch {
    pub fn new() -> Self {
        Self::default()
    }

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

/// The timing-relevant *events* of one access, captured from the hierarchy
/// that simulated it.  Tag behaviour depends only on the access stream and
/// the cache geometry — never on the latency parameters — so any
/// [`tag_equivalent_configs`] configuration can price the echoed events
/// against its own latencies ([`ClassPricer`]) without walking its own
/// tags, and land on exactly the timing and [`MemStats`] the real access
/// would have produced.
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
        /// L2-port transfer time (bank and port geometry, not latency).
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

/// Refill source of one L2 line of a vector access.
enum LineFill {
    Hit,
    FromL3,
    FromMem,
}

/// The memory hierarchy.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    model: MemoryModel,
    params: MemoryParams,
    l1: Cache,
    l2: VectorCache,
    l3: Cache,
    /// Width of the L2 vector port in 64-bit elements.
    port_elems: u32,
    /// Reusable touched-line scratch for irregular vector strides (cleared
    /// per access, never reallocated once grown).
    scratch: Vec<u64>,
    pub stats: MemStats,
}

impl MemoryHierarchy {
    pub fn new(model: MemoryModel, params: MemoryParams, l2_port_elems: u32) -> Self {
        MemoryHierarchy {
            model,
            params,
            l1: Cache::new("L1", params.l1_size, params.l1_assoc, params.l1_line),
            l2: VectorCache::new(
                params.l2_size,
                params.l2_assoc,
                params.l2_line,
                params.l2_banks,
                l2_port_elems.max(1),
            ),
            l3: Cache::new("L3", params.l3_size, params.l3_assoc, params.l3_line),
            port_elems: l2_port_elems.max(1),
            scratch: Vec::with_capacity(32),
            stats: MemStats::default(),
        }
    }

    /// Construct a hierarchy straight from a machine configuration.
    pub fn for_machine(model: MemoryModel, machine: &vmv_machine::MachineConfig) -> Self {
        Self::new(model, machine.memory, machine.l2_port_elems.max(1))
    }

    pub fn model(&self) -> MemoryModel {
        self.model
    }

    /// Latency the *compiler* assumes for a scalar access: an L1 hit.
    pub fn scheduled_scalar_latency(&self) -> u32 {
        self.params.l1_latency
    }

    /// Latency the *compiler* assumes for a vector access of `elems`
    /// elements: an L2 hit with unit stride (paper §3.3: the compiler
    /// schedules all vector memory operations as stride-one L2 hits).
    pub fn scheduled_vector_latency(&self, elems: u32) -> u32 {
        self.params.l2_latency + elems.div_ceil(self.port_elems).saturating_sub(1)
    }

    // ----------------------------------------------------------- accesses

    /// Simulate a scalar (or µSIMD 64-bit) access of `size` bytes.
    pub fn scalar_access(&mut self, addr: u64, size: usize, kind: AccessKind) -> AccessTiming {
        self.scalar_access_echoed(addr, size, kind).0
    }

    /// [`Self::scalar_access`], additionally capturing the access's
    /// [`AccessEcho`] for replaying against tag-equivalent hierarchies.
    pub fn scalar_access_echoed(
        &mut self,
        addr: u64,
        size: usize,
        kind: AccessKind,
    ) -> (AccessTiming, AccessEcho) {
        match kind {
            AccessKind::Load => self.stats.scalar_loads += 1,
            AccessKind::Store => self.stats.scalar_stores += 1,
        }
        let scheduled = self.scheduled_scalar_latency();
        if self.model == MemoryModel::Perfect {
            self.stats.l1_hits += 1;
            return (
                AccessTiming {
                    latency: scheduled,
                    stall_cycles: 0,
                },
                AccessEcho::Scalar {
                    first: ServedBy::L1,
                    second: None,
                },
            );
        }

        let write = kind == AccessKind::Store;
        // An access can straddle a line boundary; charge the worst line.
        let last = addr + size.max(1) as u64 - 1;
        let first_block = self.l1.block_addr(addr);
        let last_block = self.l1.block_addr(last);
        let (mut latency, first) = self.scalar_line_access(first_block, write);
        let mut second = None;
        if last_block != first_block {
            let (lat2, served2) = self.scalar_line_access(last_block, write);
            latency = latency.max(lat2);
            second = Some(served2);
        }
        let stall = latency.saturating_sub(scheduled);
        self.stats.total_stall_cycles += stall as u64;
        (
            AccessTiming {
                latency,
                stall_cycles: stall,
            },
            AccessEcho::Scalar { first, second },
        )
    }

    fn scalar_line_access(&mut self, blk: u64, write: bool) -> (u32, ServedBy) {
        match self.l1.access(blk, write) {
            LookupResult::Hit => {
                self.stats.l1_hits += 1;
                (self.params.l1_latency, ServedBy::L1)
            }
            LookupResult::Miss => {
                self.stats.l1_misses += 1;
                // Miss in L1: look up the L2 (the vector cache also serves
                // scalar refills), then the L3, then main memory.
                let (below, served) = match self.l2.scalar_access(blk, false) {
                    LookupResult::Hit => {
                        self.stats.l2_hits += 1;
                        (self.params.l2_latency, ServedBy::L2)
                    }
                    LookupResult::Miss => {
                        self.stats.l2_misses += 1;
                        let filled = match self.l3.access(blk, false) {
                            LookupResult::Hit => {
                                self.stats.l3_hits += 1;
                                (self.params.l3_latency, ServedBy::L3)
                            }
                            LookupResult::Miss => {
                                self.stats.l3_misses += 1;
                                self.l3.fill(blk, false);
                                (self.params.mem_latency, ServedBy::Mem)
                            }
                        };
                        self.l2.fill(blk, false);
                        filled
                    }
                };
                let out = self.l1.fill(blk, write);
                if let Some(wb) = out.writeback {
                    // Write-back of a dirty L1 line into the (inclusive) L2.
                    self.l2.fill(wb, true);
                }
                (self.params.l1_latency + below, served)
            }
        }
    }

    /// Invalidate one L1 line for vector/scalar coherence (exclusive-bit
    /// policy): dirty data is pushed down into the inclusive L2.
    #[inline]
    fn invalidate_l1(&mut self, blk: u64) {
        if let Some(dirty) = self.l1.invalidate(blk) {
            self.l2.fill(dirty, true);
        }
        self.stats.coherence_invalidations += 1;
    }

    /// Probe + fill one L2 line of a vector access.  Returns where the line
    /// was refilled from and the L3/memory latency charged for fetching it.
    #[inline]
    fn l2_line_access(&mut self, blk: u64, write: bool) -> (LineFill, u32) {
        match self.l2.access_line(blk, write) {
            LookupResult::Hit => (LineFill::Hit, 0),
            LookupResult::Miss => {
                let (fill, below) = match self.l3.access(blk, false) {
                    LookupResult::Hit => {
                        self.stats.l3_hits += 1;
                        (LineFill::FromL3, self.params.l3_latency)
                    }
                    LookupResult::Miss => {
                        self.stats.l3_misses += 1;
                        self.l3.fill(blk, false);
                        (LineFill::FromMem, self.params.mem_latency)
                    }
                };
                self.l2.fill(blk, write);
                (fill, below)
            }
        }
    }

    /// Probe all three cache levels for `addr` without disturbing LRU state
    /// or statistics (diagnostics and tests).
    pub fn probe(&self, addr: u64) -> [LookupResult; 3] {
        [
            self.l1.probe(addr),
            self.l2.probe(addr),
            self.l3.probe(addr),
        ]
    }

    /// Simulate a vector access of `elems` 64-bit elements starting at
    /// `base`, separated by `stride_bytes`.  Vector accesses bypass the L1
    /// and access the L2 vector cache directly.
    pub fn vector_access(
        &mut self,
        base: u64,
        stride_bytes: i64,
        elems: u32,
        kind: AccessKind,
    ) -> AccessTiming {
        self.vector_access_impl(base, stride_bytes, elems, kind, None)
            .0
    }

    /// [`Self::vector_access`] with an external memoized line-walk scratch,
    /// for stepping several hierarchies through the same access stream
    /// (batched trace replay), additionally capturing the access's
    /// [`AccessEcho`] for pricing tag-equivalent followers.  Timing and
    /// statistics are bit-identical to `vector_access`; only the
    /// irregular-stride walk is shared.
    pub fn vector_access_echoed(
        &mut self,
        base: u64,
        stride_bytes: i64,
        elems: u32,
        kind: AccessKind,
        scratch: &mut SharedAccessScratch,
    ) -> (AccessTiming, AccessEcho) {
        self.vector_access_impl(base, stride_bytes, elems, kind, Some(scratch))
    }

    fn vector_access_impl(
        &mut self,
        base: u64,
        stride_bytes: i64,
        elems: u32,
        kind: AccessKind,
        shared: Option<&mut SharedAccessScratch>,
    ) -> (AccessTiming, AccessEcho) {
        match kind {
            AccessKind::Load => self.stats.vector_loads += 1,
            AccessKind::Store => self.stats.vector_stores += 1,
        }
        let elems = elems.max(1);
        let scheduled = self.scheduled_vector_latency(elems);
        if stride_bytes == 8 {
            self.stats.unit_stride_vector_accesses += 1;
        } else {
            self.stats.strided_vector_accesses += 1;
        }

        if self.model == MemoryModel::Perfect {
            // All vector accesses hit in the L2 but still pay the transfer
            // time (paper §5.1); non-unit strides still transfer one element
            // per cycle.
            let transfer = if stride_bytes == 8 {
                elems.div_ceil(self.port_elems)
            } else {
                elems
            };
            let latency = self.params.l2_latency + transfer - 1;
            let stall = latency.saturating_sub(scheduled);
            self.stats.total_stall_cycles += stall as u64;
            self.stats.l2_hits += 1;
            return (
                AccessTiming {
                    latency,
                    stall_cycles: stall,
                },
                AccessEcho::Vector {
                    elems,
                    transfer_cycles: transfer,
                    l3_fetches: 0,
                    mem_fetches: 0,
                },
            );
        }

        // One fused pass over the touched L2 lines: for each line, first
        // invalidate the L1 lines of the access span that precede the end of
        // that L2 line (exclusive-bit coherence, dirty data pushed down),
        // then probe the L2 tag, and on a miss charge the L3/memory latency
        // of the *actual* missed line address.  Missed lines are fetched
        // back to back; each pays the L3 latency (or the memory latency when
        // it also misses in L3).
        let write = kind == AccessKind::Store;
        let unit_stride = stride_bytes == 8;
        let l1_line = self.params.l1_line as u64;
        let l2_line = self.params.l2_line as u64;
        let l1_mask = !(l1_line - 1);
        let mut lines_touched = 0u32;
        let mut l3_fetches = 0u32;
        let mut mem_fetches = 0u32;
        let mut miss_penalty = 0u32;

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
                    // Saturating: a span ending at the top line of the
                    // address space must not wrap the segment bound.
                    let seg_end = blk.saturating_add(l2_line);
                    while l1_cur < seg_end && l1_cur <= l1_last {
                        self.invalidate_l1(l1_cur);
                        l1_cur += l1_line;
                    }
                    lines_touched += 1;
                    let (fill, penalty) = self.l2_line_access(blk, write);
                    match fill {
                        LineFill::Hit => {}
                        LineFill::FromL3 => l3_fetches += 1,
                        LineFill::FromMem => mem_fetches += 1,
                    }
                    miss_penalty += penalty;
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
                    let mut cur = l1_cur.max(a & l1_mask);
                    let hi1 = (a + 7) & l1_mask;
                    while cur <= hi1 {
                        self.invalidate_l1(cur);
                        cur += l1_line;
                    }
                    l1_cur = l1_cur.max(cur);
                    lines_touched += 1;
                    let (fill, penalty) = self.l2_line_access(a & !(l2_line - 1), write);
                    match fill {
                        LineFill::Hit => {}
                        LineFill::FromL3 => l3_fetches += 1,
                        LineFill::FromMem => mem_fetches += 1,
                    }
                    miss_penalty += penalty;
                    a += step;
                }
            }
            // Irregular (line-straddling odd strides, far negative strides,
            // address wraparound): two short naive walks through the
            // reusable scratch buffer.
            _ => match shared {
                // Batched replay: the walk is memoized per (access, line
                // size), so only the first of K variants pays for it.
                Some(memo) => {
                    for &blk in memo.lines(base, stride_bytes, elems, l1_line) {
                        self.invalidate_l1(blk);
                    }
                    for &blk in memo.lines(base, stride_bytes, elems, l2_line) {
                        lines_touched += 1;
                        let (fill, penalty) = self.l2_line_access(blk, write);
                        match fill {
                            LineFill::Hit => {}
                            LineFill::FromL3 => l3_fetches += 1,
                            LineFill::FromMem => mem_fetches += 1,
                        }
                        miss_penalty += penalty;
                    }
                }
                None => {
                    let mut scratch = std::mem::take(&mut self.scratch);
                    lines::collect_naive(base, stride_bytes, elems, l1_line, &mut scratch);
                    for &blk in &scratch {
                        self.invalidate_l1(blk);
                    }
                    lines::collect_naive(base, stride_bytes, elems, l2_line, &mut scratch);
                    for &blk in &scratch {
                        lines_touched += 1;
                        let (fill, penalty) = self.l2_line_access(blk, write);
                        match fill {
                            LineFill::Hit => {}
                            LineFill::FromL3 => l3_fetches += 1,
                            LineFill::FromMem => mem_fetches += 1,
                        }
                        miss_penalty += penalty;
                    }
                    self.scratch = scratch;
                }
            },
        }

        self.l2.record_vector_access(unit_stride, lines_touched);
        if l3_fetches + mem_fetches > 0 {
            self.stats.l2_misses += 1;
        } else {
            self.stats.l2_hits += 1;
        }

        let transfer_cycles = self.l2.transfer_cycles(unit_stride, elems);
        let latency = self.params.l2_latency + transfer_cycles - 1 + miss_penalty;
        let stall = latency.saturating_sub(scheduled);
        self.stats.total_stall_cycles += stall as u64;
        (
            AccessTiming {
                latency,
                stall_cycles: stall,
            },
            AccessEcho::Vector {
                elems,
                transfer_cycles,
                l3_fetches,
                mem_fetches,
            },
        )
    }

    /// Statistics of the three cache levels (L1, L2, L3).
    pub fn cache_stats(&self) -> [crate::cache::CacheStats; 3] {
        [self.l1.stats, self.l2.stats(), self.l3.stats]
    }
}

/// True when two `(model, params, port width)` configurations produce the
/// *same tag behaviour* on every access stream: same model, cache geometry
/// and port width.  Latency parameters are free to differ — they only
/// scale the pricing — so an [`AccessEcho`] captured on a hierarchy of one
/// configuration prices exactly on the other ([`ClassPricer`]).  Callers
/// classify variants with it *before* paying for hierarchy construction.
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
        && a.l2_banks == b.l2_banks
        && a.l3_size == b.l3_size
        && a.l3_assoc == b.l3_assoc
        && a.l3_line == b.l3_line
}

/// Prices one leader hierarchy's [`AccessEcho`]es for every *follower* of
/// its tag-equivalence class at once.  A follower's tags would behave
/// exactly like the leader's, so its [`MemStats`] equal the leader's in
/// every counter but `total_stall_cycles`; the pricer therefore holds no
/// tag state and no counters, only the followers' latency parameters as
/// columns (struct-of-arrays) and one stall total each.  Batched trace
/// replay builds one real hierarchy and one pricer per class.
#[derive(Debug, Clone)]
pub struct ClassPricer {
    port_elems: u32,
    l1_latency: Vec<u32>,
    l2_latency: Vec<u32>,
    l3_latency: Vec<u32>,
    mem_latency: Vec<u32>,
    stall_cycles: Vec<u64>,
}

impl ClassPricer {
    /// An empty class whose hierarchies have an `l2_port_elems`-wide port.
    pub fn new(l2_port_elems: u32) -> Self {
        ClassPricer {
            port_elems: l2_port_elems.max(1),
            l1_latency: Vec::new(),
            l2_latency: Vec::new(),
            l3_latency: Vec::new(),
            mem_latency: Vec::new(),
            stall_cycles: Vec::new(),
        }
    }

    /// Add a follower with latency parameters `params`; its geometry must
    /// be [`tag_equivalent_configs`] with the leader's.
    pub fn push(&mut self, params: &MemoryParams) {
        self.l1_latency.push(params.l1_latency);
        self.l2_latency.push(params.l2_latency);
        self.l3_latency.push(params.l3_latency);
        self.mem_latency.push(params.mem_latency);
        self.stall_cycles.push(0);
    }

    /// Number of followers.
    pub fn len(&self) -> usize {
        self.stall_cycles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stall_cycles.is_empty()
    }

    /// Price `echo` for every follower: `latencies[i]` receives follower
    /// `i`'s latency and its stall total grows by the access's stall, both
    /// exactly what a real access on its own hierarchy would produce.
    /// `latencies` must hold at least [`Self::len`] entries.
    pub fn price(&mut self, echo: &AccessEcho, latencies: &mut [u64]) {
        let n = self.len();
        let latencies = &mut latencies[..n];
        match *echo {
            AccessEcho::Scalar { first, second } => {
                // Every line pays the L1 latency plus the latency of the
                // level that served it; the access pays its worst line,
                // and stalls for everything beyond the scheduled L1 hit.
                let below_l1 = |served| match served {
                    ServedBy::L1 => None,
                    ServedBy::L2 => Some(&self.l2_latency),
                    ServedBy::L3 => Some(&self.l3_latency),
                    ServedBy::Mem => Some(&self.mem_latency),
                };
                let (a, b) = (below_l1(first), second.and_then(below_l1));
                if a.is_none() && b.is_none() {
                    // All-L1 hits, the common case: no stall.
                    for (out, &l1) in latencies.iter_mut().zip(&self.l1_latency) {
                        *out = l1 as u64;
                    }
                    return;
                }
                for i in 0..n {
                    let stall = a.map_or(0, |c| c[i]).max(b.map_or(0, |c| c[i]));
                    latencies[i] = (self.l1_latency[i] + stall) as u64;
                    self.stall_cycles[i] += stall as u64;
                }
            }
            AccessEcho::Vector {
                elems,
                transfer_cycles,
                l3_fetches,
                mem_fetches,
            } => {
                // The compiler schedules vector accesses as stride-one L2
                // hits.
                let scheduled_tail = elems.div_ceil(self.port_elems).saturating_sub(1);
                let columns = self.l2_latency.iter().zip(&self.l3_latency);
                for ((out, stall), ((&l2, &l3), &mem)) in latencies
                    .iter_mut()
                    .zip(&mut self.stall_cycles)
                    .zip(columns.zip(&self.mem_latency))
                {
                    let latency = l2 + transfer_cycles - 1 + l3_fetches * l3 + mem_fetches * mem;
                    *out = latency as u64;
                    *stall += latency.saturating_sub(l2 + scheduled_tail) as u64;
                }
            }
        }
    }

    /// Follower `i`'s statistics, given its leader's.
    pub fn stats(&self, leader: &MemStats, i: usize) -> MemStats {
        MemStats {
            total_stall_cycles: self.stall_cycles[i],
            ..*leader
        }
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
        assert_eq!(m.stats.l1_misses, 1);
        assert_eq!(m.stats.l1_hits, 1);
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
        assert_eq!(m.stats.l1_misses, 1);
        // A vector load overlapping that line must invalidate it.
        m.vector_access(0x8000, 8, 8, AccessKind::Load);
        assert!(m.stats.coherence_invalidations > 0);
        // The next scalar access to the line misses again in L1.
        let t = m.scalar_access(0x8000, 8, AccessKind::Load);
        assert!(t.latency > 1);
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
        assert_eq!(m.stats.l3_misses, elems as u64);
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
        assert_eq!(m.stats.l3_misses, expect.len() as u64);
        for &blk in &expect {
            assert_eq!(m.probe(blk)[1], LookupResult::Hit, "L2 holds {blk:#x}");
        }
        let warm = m.vector_access(0x1003C, 200, 16, AccessKind::Load);
        assert_eq!(warm.latency, m.scheduled_vector_latency(16).max(5 + 16 - 1));
        assert_eq!(m.stats.l2_hits, 1);
    }

    #[test]
    fn shared_scratch_vector_access_is_bit_identical() {
        // Drive two clones of the same hierarchy through an access mix that
        // exercises all three walk arms (contiguous, arithmetic, irregular);
        // the shared-scratch path must produce identical timing and stats.
        let accesses: [(u64, i64, u32, AccessKind); 6] = [
            (0x1000, 8, 16, AccessKind::Load),          // contiguous
            (0x40000, 4 * 64, 8, AccessKind::Store),    // arithmetic
            (0x1003C, 200, 16, AccessKind::Load),       // irregular
            (0x1003C, 200, 16, AccessKind::Store),      // irregular, memo reuse
            (0x1000, 8, 16, AccessKind::Load),          // warm contiguous
            (u64::MAX - 64, -200, 9, AccessKind::Load), // wraparound fallback
        ];
        for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
            let mut plain = MemoryHierarchy::new(model, MemoryParams::default(), 4);
            let mut shared = plain.clone();
            let mut memo = SharedAccessScratch::new();
            for &(base, stride, elems, kind) in &accesses {
                let a = plain.vector_access(base, stride, elems, kind);
                let (b, _) = shared.vector_access_echoed(base, stride, elems, kind, &mut memo);
                assert_eq!(a, b, "{model:?} {base:#x} stride {stride}");
            }
            assert_eq!(plain.stats, shared.stats);
            assert_eq!(plain.cache_stats(), shared.cache_stats());
        }
    }

    #[test]
    fn echo_pricing_matches_real_accesses_on_tag_equivalent_followers() {
        // Followers differing ONLY in latency parameters must land on
        // exactly the timing and stats of a real access when priced through
        // the leader's echoes — for scalar and vector accesses, hits and
        // misses, straddles, coherence invalidations and irregular strides.
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
        let followers = [slow, MemoryParams::default(), fast];
        for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
            let mut leader = MemoryHierarchy::new(model, MemoryParams::default(), 4);
            let mut pricer = ClassPricer::new(4);
            let mut real: Vec<MemoryHierarchy> = Vec::new();
            for params in &followers {
                assert!(tag_equivalent_configs(
                    (model, &MemoryParams::default(), 4),
                    (model, params, 4)
                ));
                pricer.push(params);
                real.push(MemoryHierarchy::new(model, *params, 4));
            }
            assert_eq!(pricer.len(), followers.len());
            let mut latencies = [0u64; 3];
            let mut memo = SharedAccessScratch::new();

            // Scalar mix: cold miss, warm hit, line straddle, store.
            for (addr, size, kind) in [
                (0x1000u64, 8usize, AccessKind::Load),
                (0x1004, 4, AccessKind::Load),
                (0x101E, 8, AccessKind::Load),
                (0x2000, 8, AccessKind::Store),
            ] {
                let (_, echo) = leader.scalar_access_echoed(addr, size, kind);
                pricer.price(&echo, &mut latencies);
                for (i, real) in real.iter_mut().enumerate() {
                    let slow = real.scalar_access(addr, size, kind);
                    assert_eq!(
                        latencies[i], slow.latency as u64,
                        "{model:?} scalar {addr:#x} follower {i}"
                    );
                    assert_eq!(pricer.stats(&leader.stats, i), real.stats);
                }
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
                let (_, echo) = leader.vector_access_echoed(base, stride, elems, kind, &mut memo);
                pricer.price(&echo, &mut latencies);
                for (i, real) in real.iter_mut().enumerate() {
                    let slow = real.vector_access(base, stride, elems, kind);
                    assert_eq!(
                        latencies[i], slow.latency as u64,
                        "{model:?} vector {base:#x} stride {stride} follower {i}"
                    );
                    assert_eq!(pricer.stats(&leader.stats, i), real.stats);
                }
            }
            for (i, real) in real.iter().enumerate() {
                assert_eq!(
                    pricer.stats(&leader.stats, i),
                    real.stats,
                    "{model:?} follower {i} stats must agree"
                );
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
        assert_eq!(m.stats.scalar_loads, 1);
        assert_eq!(m.stats.scalar_stores, 1);
        assert_eq!(m.stats.vector_loads, 1);
        assert_eq!(m.stats.vector_stores, 1);
        assert!(m.stats.total_stall_cycles > 0);
    }
}
