//! A set-associative, write-back, write-allocate cache *timing* model.
//!
//! The model tracks tags, valid and dirty bits only; the actual data lives in
//! the simulator's flat memory image (functional correctness never depends on
//! the cache contents, only timing does).  Replacement is true LRU within a
//! set, which matches the level of detail of the paper's simulator.

/// Result of looking a block up in a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    Hit,
    Miss,
}

/// Information returned by a fill (allocation) operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FillOutcome {
    /// Block address of a dirty line that had to be written back, if any.
    pub writeback: Option<u64>,
    /// Block address of a clean line that was evicted, if any.
    pub evicted: Option<u64>,
}

/// Per-line state bits (packed into one byte).
const VALID: u8 = 1;
const DIRTY: u8 = 2;

/// A set-associative cache.
///
/// Line size and set count are powers of two (asserted at construction), so
/// every block/set/tag computation is a shift or mask — no integer division
/// on the per-access path.  Line state is stored as three parallel arrays
/// (tags, state bytes, LRU timestamps) instead of an array of structs: the
/// all-zero initial state comes straight from the zeroed allocation (no
/// per-line construction — a simulator is built per run in a sweep), and
/// the tag scan of a set touches densely packed words.
#[derive(Debug, Clone)]
pub struct Cache {
    name: &'static str,
    line_bytes: usize,
    assoc: usize,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `num_sets - 1`.
    set_mask: u64,
    /// `log2(line_bytes * num_sets)`.
    tag_shift: u32,
    tags: Vec<u64>,
    /// `VALID` / `DIRTY` bits per line.
    state: Vec<u8>,
    /// LRU timestamps (higher = more recently used).
    lru: Vec<u64>,
    tick: u64,
    /// Most-recently-hit block and its way index: consecutive accesses to
    /// the same line (the overwhelmingly common pattern) skip the set scan.
    /// Reset by any fill or invalidation.  Pure shortcut — statistics, LRU
    /// and dirty bits evolve exactly as without it.
    mru_blk: u64,
    mru_way: usize,
    pub stats: CacheStats,
}

/// Per-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    pub writebacks: u64,
    pub invalidations: u64,
}

impl CacheStats {
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Why a cache of `size_bytes` capacity, `assoc` ways and `line_bytes`
/// lines cannot be built, or `None` when it can: the line size must be a
/// power of two, the capacity a whole number of sets, and the set count a
/// power of two.  [`Cache::new`] panics exactly when this is `Some`.
pub fn geometry_error(size_bytes: usize, assoc: usize, line_bytes: usize) -> Option<&'static str> {
    if !line_bytes.is_power_of_two() {
        return Some("line size must be a power of two");
    }
    if assoc == 0 {
        return Some("associativity must be at least 1");
    }
    match assoc.checked_mul(line_bytes) {
        Some(set_bytes) if size_bytes.is_multiple_of(set_bytes) => {
            let sets = size_bytes / set_bytes;
            (!sets.is_power_of_two()).then_some("number of sets must be a power of two")
        }
        // A set wider than the address space divides no capacity.
        _ => Some("capacity is not a whole number of sets"),
    }
}

impl Cache {
    /// Create a cache of `size_bytes` capacity with the given associativity
    /// and line size.  Panics if [`geometry_error`] rejects the geometry.
    pub fn new(name: &'static str, size_bytes: usize, assoc: usize, line_bytes: usize) -> Self {
        if let Some(why) = geometry_error(size_bytes, assoc, line_bytes) {
            panic!("{name} cache ({size_bytes} B, {assoc}-way, {line_bytes} B lines): {why}");
        }
        let num_sets = size_bytes / (assoc * line_bytes);
        let line_shift = line_bytes.trailing_zeros();
        let total = num_sets * assoc;
        Cache {
            name,
            line_bytes,
            assoc,
            line_shift,
            set_mask: num_sets as u64 - 1,
            tag_shift: line_shift + num_sets.trailing_zeros(),
            tags: vec![0; total],
            state: vec![0; total],
            lru: vec![0; total],
            tick: 0,
            mru_blk: u64::MAX,
            mru_way: 0,
            stats: CacheStats::default(),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Block (line) address of a byte address.
    #[inline]
    pub fn block_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// Byte address of the first block of (`tag`, `set`).
    #[inline]
    fn block_of(&self, tag: u64, set: usize) -> u64 {
        (tag << self.tag_shift) | ((set as u64) << self.line_shift)
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Index of the way holding (`set`, `tag`), if any.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let range = self.set_range(set);
        let tags = &self.tags[range.clone()];
        let state = &self.state[range.clone()];
        for (i, (&t, &st)) in tags.iter().zip(state).enumerate() {
            if st & VALID != 0 && t == tag {
                return Some(range.start + i);
            }
        }
        None
    }

    /// Probe the cache without modifying LRU state or statistics.
    pub fn probe(&self, addr: u64) -> LookupResult {
        match self.find(self.set_index(addr), self.tag(addr)) {
            Some(_) => LookupResult::Hit,
            None => LookupResult::Miss,
        }
    }

    /// Access the cache (updating LRU and statistics).  `write` marks the
    /// line dirty on a hit; allocation on a miss is done separately with
    /// [`Cache::fill`] so the caller controls the write-allocate policy.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> LookupResult {
        self.tick += 1;
        self.stats.accesses += 1;
        if self.block_addr(addr) == self.mru_blk {
            let i = self.mru_way;
            self.lru[i] = self.tick;
            if write {
                self.state[i] |= DIRTY;
            }
            self.stats.hits += 1;
            return LookupResult::Hit;
        }
        match self.find(self.set_index(addr), self.tag(addr)) {
            Some(i) => {
                self.lru[i] = self.tick;
                if write {
                    self.state[i] |= DIRTY;
                }
                self.stats.hits += 1;
                self.mru_blk = self.block_addr(addr);
                self.mru_way = i;
                LookupResult::Hit
            }
            None => {
                self.stats.misses += 1;
                LookupResult::Miss
            }
        }
    }

    /// Allocate a line for `addr`, evicting the LRU line of the set if
    /// necessary.  `write` marks the new line dirty (write-allocate).
    pub fn fill(&mut self, addr: u64, write: bool) -> FillOutcome {
        self.mru_blk = u64::MAX;
        self.tick += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let tick = self.tick;

        // If the block is already present just update it.
        if let Some(i) = self.find(set, tag) {
            self.lru[i] = tick;
            if write {
                self.state[i] |= DIRTY;
            }
            return FillOutcome::default();
        }

        // Choose a victim: an invalid way if available, otherwise LRU.
        let range = self.set_range(set);
        let victim = match self.state[range.clone()]
            .iter()
            .position(|s| s & VALID == 0)
        {
            Some(i) => range.start + i,
            None => {
                let mut best = range.start;
                for i in range.clone() {
                    if self.lru[i] < self.lru[best] {
                        best = i;
                    }
                }
                best
            }
        };
        let mut outcome = FillOutcome::default();
        if self.state[victim] & VALID != 0 {
            let victim_addr = self.block_of(self.tags[victim], set);
            if self.state[victim] & DIRTY != 0 {
                outcome.writeback = Some(victim_addr);
                self.stats.writebacks += 1;
            } else {
                outcome.evicted = Some(victim_addr);
            }
        }
        self.tags[victim] = tag;
        self.state[victim] = if write { VALID | DIRTY } else { VALID };
        self.lru[victim] = tick;
        outcome
    }

    /// Invalidate the line containing `addr` if present.  Returns the block
    /// address if the line was dirty (the caller is responsible for pushing
    /// the data to the next level, as required by the exclusive-bit +
    /// inclusion coherence policy of paper §3.2).
    pub fn invalidate(&mut self, addr: u64) -> Option<u64> {
        self.mru_blk = u64::MAX;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        match self.find(set, tag) {
            Some(i) => {
                let was_dirty = self.state[i] & DIRTY != 0;
                self.state[i] = 0;
                self.stats.invalidations += 1;
                if was_dirty {
                    Some(self.block_of(tag, set))
                } else {
                    None
                }
            }
            None => None,
        }
    }

    /// Number of valid lines currently held (used by tests).
    pub fn valid_lines(&self) -> usize {
        self.state.iter().filter(|&&s| s & VALID != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 32-byte lines = 256 bytes.
        Cache::new("test", 256, 2, 32)
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = small_cache();
        assert_eq!(c.access(0x100, false), LookupResult::Miss);
        c.fill(0x100, false);
        assert_eq!(c.access(0x100, false), LookupResult::Hit);
        assert_eq!(
            c.access(0x11f, false),
            LookupResult::Hit,
            "same 32-byte line"
        );
        assert_eq!(c.access(0x120, false), LookupResult::Miss, "next line");
        assert_eq!(c.stats.hits, 2);
        assert_eq!(c.stats.misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small_cache();
        // Three blocks mapping to the same set (set stride = 4 lines * 32 B = 128 B).
        let a = 0x0;
        let b = 0x80;
        let d = 0x100;
        c.fill(a, false);
        c.fill(b, false);
        // Touch `a` so `b` becomes LRU.
        assert_eq!(c.access(a, false), LookupResult::Hit);
        c.fill(d, false);
        assert_eq!(c.probe(a), LookupResult::Hit);
        assert_eq!(c.probe(b), LookupResult::Miss);
        assert_eq!(c.probe(d), LookupResult::Hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small_cache();
        c.fill(0x0, true); // dirty
        c.fill(0x80, false);
        let out = c.fill(0x100, false); // evicts LRU = 0x0 (dirty)
        assert_eq!(out.writeback, Some(0x0));
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn invalidate_returns_dirty_address() {
        let mut c = small_cache();
        c.fill(0x40, true);
        assert_eq!(c.invalidate(0x40), Some(0x40));
        assert_eq!(c.probe(0x40), LookupResult::Miss);
        // Invalidating a clean or absent line returns None.
        c.fill(0x40, false);
        assert_eq!(c.invalidate(0x40), None);
        assert_eq!(c.invalidate(0xF00), None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small_cache();
        c.fill(0x200, false);
        assert_eq!(c.access(0x200, true), LookupResult::Hit);
        // Eviction of that line must now report a writeback.
        c.fill(0x280, false);
        let out = c.fill(0x300, false);
        assert!(
            out.writeback == Some(0x200) || out.evicted == Some(0x200) || out.writeback.is_some()
        );
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = small_cache();
        assert_eq!(c.stats.hit_rate(), 1.0);
        c.access(0x0, false);
        c.fill(0x0, false);
        c.access(0x0, false);
        assert!((c.stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn bad_geometry_is_rejected() {
        Cache::new("bad", 100, 3, 24);
    }

    #[test]
    fn geometry_rule_names_each_fault() {
        assert_eq!(geometry_error(16 * 1024, 4, 32), None);
        assert_eq!(geometry_error(1024, 1, 1024), None);
        let why = |size, ways, line| geometry_error(size, ways, line).unwrap();
        assert!(why(16 * 1024, 4, 96).contains("line size"));
        assert!(why(16 * 1024, 0, 32).contains("associativity"));
        assert!(why(100, 1, 32).contains("whole number of sets"));
        // 48 KB of 4-way 32-byte lines is 384 sets.
        assert!(why(48 * 1024, 4, 32).contains("number of sets"));
        assert!(why(0, 4, 32).contains("number of sets"));
        assert!(why(usize::MAX, usize::MAX, 2).contains("whole number of sets"));
    }
}
