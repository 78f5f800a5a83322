//! A set-associative, write-back, write-allocate cache *timing* model.
//!
//! The model tracks tags, valid and dirty bits only; the actual data lives in
//! the simulator's flat memory image (functional correctness never depends on
//! the cache contents, only timing does).  Replacement is true LRU within a
//! set, which matches the level of detail of the paper's simulator.
//!
//! # Line state: 9 bytes per line
//!
//! A line is a 32-bit tag, a state byte and a 32-bit LRU stamp, held in
//! three parallel arrays.  Both words are exact:
//!
//! * **Tags.**  Every address a cache sees lies below [`ADDRESS_LIMIT`]
//!   (2^32): a simulator refuses a memory image larger than that, and trace
//!   replay rejects any recorded access that reaches past it.  A tag is the
//!   address shifted right, so it fits in 32 bits.  An address at or above
//!   the limit would get a truncated, aliased tag: debug builds assert
//!   that no caller hands one in.
//! * **LRU stamps.**  A cache's stamp counter advances once per access or
//!   fill.  Before it would wrap, every set's stamps are renumbered to their
//!   ranks `1..=assoc`.  Only stamps within one set are ever compared, and
//!   ranks keep their order, so every victim and write-back is what 64-bit
//!   stamps give (the reference-model test in this module drives streams
//!   across the wrap).
//!
//! The compact words matter for batch replay, which builds fresh tag state
//! per batch: one L2/L3 back for each group of tag classes that differ only
//! in L2 size and associativity, and one per class once a group splits
//! (`Cache::reshaped` hands each class the group's lines).  The default
//! 1 MiB L3 of 64-byte lines has 16,384 lines: its tag and stamp arrays are
//! 64 KiB each, below glibc's default 128 KiB mmap threshold, so they come
//! from the heap and reuse the chunks the previous batch freed.  An array
//! at the threshold would be mapped, and faulted in page by page, afresh
//! for every batch.

/// Result of looking a block up in a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    Hit,
    Miss,
}

/// Per-line state bits (packed into one byte).
const VALID: u8 = 1;
const DIRTY: u8 = 2;

/// One past the largest byte address a cache models exactly: tags are 32
/// bits wide (module docs).  Memory images and replayed accesses are
/// bounded by it.
pub const ADDRESS_LIMIT: u64 = 1 << 32;

/// A set-associative cache.
///
/// Line size and set count are powers of two (asserted at construction), so
/// every block/set/tag computation is a shift or mask — no integer division
/// on the per-access path.  Line state is stored as three parallel arrays
/// (32-bit tags, state bytes, 32-bit LRU stamps; see the module docs for
/// why both words are exact) instead of an array of structs: the all-zero
/// initial state comes straight from the zeroed allocation (no per-line
/// construction — a simulator is built per run in a sweep), and the tag
/// scan of a set touches densely packed words.
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
    tags: Vec<u32>,
    /// `VALID` / `DIRTY` bits per line.
    state: Vec<u8>,
    /// LRU stamps (higher = more recently used).
    lru: Vec<u32>,
    /// The last stamp handed out.
    tick: u32,
    /// Most-recently-hit block and its way index: consecutive accesses to
    /// the same line (the overwhelmingly common pattern) skip the set scan.
    /// Reset by any fill or invalidation.  Pure shortcut — LRU and dirty
    /// bits evolve exactly as without it.
    mru_blk: u64,
    mru_way: usize,
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

/// Panic, naming the cache `name`, when [`geometry_error`] rejects its
/// geometry: the message [`Cache::new`] panics with.
pub(crate) fn check_geometry(name: &str, size_bytes: usize, assoc: usize, line_bytes: usize) {
    if let Some(why) = geometry_error(size_bytes, assoc, line_bytes) {
        panic!("{name} cache ({size_bytes} B, {assoc}-way, {line_bytes} B lines): {why}");
    }
}

impl Cache {
    /// Create a cache of `size_bytes` capacity with the given associativity
    /// and line size.  Panics if [`geometry_error`] rejects the geometry.
    pub fn new(name: &'static str, size_bytes: usize, assoc: usize, line_bytes: usize) -> Self {
        check_geometry(name, size_bytes, assoc, line_bytes);
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
        }
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

    /// The tag of `addr`: exact below [`ADDRESS_LIMIT`], the bound every
    /// caller keeps to (asserted in debug builds).
    #[inline]
    fn tag(&self, addr: u64) -> u32 {
        debug_assert!(
            addr < ADDRESS_LIMIT,
            "{} cache: address {addr:#x} is past the 4 GiB limit",
            self.name
        );
        (addr >> self.tag_shift) as u32
    }

    /// Byte address of the first block of (`tag`, `set`).
    #[inline]
    fn block_of(&self, tag: u32, set: usize) -> u64 {
        ((tag as u64) << self.tag_shift) | ((set as u64) << self.line_shift)
    }

    /// The next LRU stamp.  Before the counter would wrap, [`Self::renumber`]
    /// restarts it just above every stamp in use.
    #[inline]
    fn stamp(&mut self) -> u32 {
        if self.tick == u32::MAX {
            self.renumber();
        }
        self.tick += 1;
        self.tick
    }

    /// Replace every set's stamps by their ranks `1..=assoc`, oldest first.
    /// Stamps are only compared within a set, and valid lines hold distinct
    /// stamps, so every later victim choice is unchanged.
    #[cold]
    #[inline(never)]
    fn renumber(&mut self) {
        let mut order: Vec<usize> = Vec::with_capacity(self.assoc);
        for set in self.lru.chunks_exact_mut(self.assoc) {
            order.clear();
            order.extend(0..set.len());
            order.sort_unstable_by_key(|&way| set[way]);
            for (rank, &way) in order.iter().enumerate() {
                set[way] = rank as u32 + 1;
            }
        }
        self.tick = self.assoc as u32;
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Index of the way holding (`set`, `tag`), if any.
    #[inline]
    fn find(&self, set: usize, tag: u32) -> Option<usize> {
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

    /// Probe the cache without modifying LRU state.
    pub fn probe(&self, addr: u64) -> LookupResult {
        match self.find(self.set_index(addr), self.tag(addr)) {
            Some(_) => LookupResult::Hit,
            None => LookupResult::Miss,
        }
    }

    /// Access the cache (updating LRU state).  `write` marks the
    /// line dirty on a hit; allocation on a miss is done separately with
    /// [`Cache::fill`] so the caller controls the write-allocate policy.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> LookupResult {
        let tick = self.stamp();
        if self.block_addr(addr) == self.mru_blk {
            let i = self.mru_way;
            self.lru[i] = tick;
            if write {
                self.state[i] |= DIRTY;
            }
            return LookupResult::Hit;
        }
        match self.find(self.set_index(addr), self.tag(addr)) {
            Some(i) => {
                self.lru[i] = tick;
                if write {
                    self.state[i] |= DIRTY;
                }
                self.mru_blk = self.block_addr(addr);
                self.mru_way = i;
                LookupResult::Hit
            }
            None => LookupResult::Miss,
        }
    }

    /// Allocate a line for `addr`, evicting the LRU line of the set if
    /// necessary.  `write` marks the new line dirty (write-allocate).
    /// Returns the block address of the victim when it was dirty (the line
    /// the caller must write back).
    pub fn fill(&mut self, addr: u64, write: bool) -> Option<u64> {
        self.mru_blk = u64::MAX;
        let tick = self.stamp();
        let set = self.set_index(addr);
        let tag = self.tag(addr);

        // If the block is already present just update it.
        if let Some(i) = self.find(set, tag) {
            self.lru[i] = tick;
            if write {
                self.state[i] |= DIRTY;
            }
            return None;
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
        let writeback = (self.state[victim] & (VALID | DIRTY) == VALID | DIRTY)
            .then(|| self.block_of(self.tags[victim], set));
        self.tags[victim] = tag;
        self.state[victim] = if write { VALID | DIRTY } else { VALID };
        self.lru[victim] = tick;
        writeback
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
                if was_dirty {
                    Some(self.block_of(tag, set))
                } else {
                    None
                }
            }
            None => None,
        }
    }

    /// How many stamps the counter hands out before it renumbers.
    pub(crate) fn stamps_left(&self) -> u32 {
        u32::MAX - self.tick
    }

    /// A cache of `size_bytes` and `assoc` ways with this cache's name and
    /// line size, holding exactly this cache's lines, each with its dirty
    /// bit and LRU stamp, and this cache's stamp counter.
    /// Only the ways the lines take within their sets can differ from a
    /// cache of that geometry that saw the same accesses, and no lookup or
    /// victim choice depends on them.  The stamps must still compare across
    /// this cache's sets (it has not renumbered), and every set of the new
    /// geometry must have room for the lines that map to it (panics if
    /// not).
    pub(crate) fn reshaped(&self, size_bytes: usize, assoc: usize) -> Cache {
        let mut out = Cache::new(self.name, size_bytes, assoc, self.line_bytes);
        for set in 0..=self.set_mask as usize {
            for i in self.set_range(set) {
                if self.state[i] & VALID == 0 {
                    continue;
                }
                let blk = self.block_of(self.tags[i], set);
                let way = out
                    .set_range(out.set_index(blk))
                    .find(|&j| out.state[j] & VALID == 0)
                    .unwrap_or_else(|| panic!("{} cache: no room for {blk:#x}", self.name));
                out.tags[way] = out.tag(blk);
                out.state[way] = self.state[i];
                out.lru[way] = self.lru[i];
            }
        }
        out.tick = self.tick;
        out
    }
}

#[cfg(test)]
impl Cache {
    /// A cache whose stamp counter starts at `tick`, to reach the
    /// renumbering without four billion accesses.
    pub(crate) fn with_tick(mut self, tick: u32) -> Cache {
        self.tick = tick;
        self
    }

    /// Every valid line as (block, dirty, LRU stamp), in block order: the
    /// state two caches that saw the same stream must share, whichever ways
    /// their lines took.
    pub(crate) fn lines(&self) -> Vec<(u64, bool, u32)> {
        let mut out: Vec<_> = (0..self.tags.len())
            .filter(|&i| self.state[i] & VALID != 0)
            .map(|i| {
                let blk = self.block_of(self.tags[i], i / self.assoc);
                (blk, self.state[i] & DIRTY != 0, self.lru[i])
            })
            .collect();
        out.sort_unstable();
        out
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
        // Evicts the LRU line 0x0, which is dirty; a clean victim is not
        // reported.
        assert_eq!(c.fill(0x100, false), Some(0x0));
        assert_eq!(c.fill(0x180, false), None);
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
        assert_eq!(c.fill(0x300, false), Some(0x200));
    }

    /// The plain cache the compact one must match: one struct per line with
    /// a full block address and a 64-bit stamp that never wraps.
    struct Reference {
        line: u64,
        sets: u64,
        assoc: usize,
        /// `(valid, dirty, block, stamp)` per line, set-major.
        lines: Vec<(bool, bool, u64, u64)>,
        tick: u64,
    }

    impl Reference {
        fn new(size: usize, assoc: usize, line: usize, tick: u64) -> Reference {
            let n = size / line;
            Reference {
                line: line as u64,
                sets: (n / assoc) as u64,
                assoc,
                lines: vec![(false, false, 0, 0); n],
                tick,
            }
        }

        fn set(&self, addr: u64) -> std::ops::Range<usize> {
            let set = (addr / self.line % self.sets) as usize;
            set * self.assoc..(set + 1) * self.assoc
        }

        fn find(&self, addr: u64) -> Option<usize> {
            let blk = addr / self.line * self.line;
            self.set(addr)
                .find(|&i| self.lines[i].0 && self.lines[i].2 == blk)
        }

        fn access(&mut self, addr: u64, write: bool) -> LookupResult {
            self.tick += 1;
            match self.find(addr) {
                Some(i) => {
                    self.lines[i].3 = self.tick;
                    self.lines[i].1 |= write;
                    LookupResult::Hit
                }
                None => LookupResult::Miss,
            }
        }

        fn fill(&mut self, addr: u64, write: bool) -> Option<u64> {
            self.tick += 1;
            if let Some(i) = self.find(addr) {
                self.lines[i].3 = self.tick;
                self.lines[i].1 |= write;
                return None;
            }
            let range = self.set(addr);
            let victim = range
                .clone()
                .find(|&i| !self.lines[i].0)
                .unwrap_or_else(|| range.min_by_key(|&i| self.lines[i].3).unwrap());
            let (valid, dirty, blk, _) = self.lines[victim];
            self.lines[victim] = (true, write, addr / self.line * self.line, self.tick);
            (valid && dirty).then_some(blk)
        }

        fn invalidate(&mut self, addr: u64) -> Option<u64> {
            let i = self.find(addr)?;
            let (_, dirty, blk, _) = self.lines[i];
            self.lines[i].0 = false;
            dirty.then_some(blk)
        }
    }

    #[test]
    fn compact_line_state_matches_a_64_bit_reference_model() {
        // Seeded access/fill/invalidate streams over direct-mapped to
        // 16-way caches with 32- to 128-byte lines, some starting a few
        // stamps before the 32-bit counter wraps: every outcome, victim
        // and write-back must match step for step, and so must each set's
        // valid lines (block and dirty bit) in LRU order, with the very
        // stamps of the reference while the counter has not wrapped.
        let mut state = 0x0C0F_FEE5_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut wraps = 0;
        for assoc in [1, 2, 4, 8, 16] {
            for line in [32, 64, 128] {
                for sets in [1, 4, 16] {
                    for start in [0, u32::MAX - 40, u32::MAX - 3, u32::MAX] {
                        let size = sets * assoc * line;
                        let mut cache = Cache::new("c", size, assoc, line).with_tick(start);
                        let mut reference = Reference::new(size, assoc, line, start as u64);
                        // Valid lines as (block, dirty, stamp), set by set
                        // and oldest first within a set.
                        let lru_order = |mut lines: Vec<(u64, bool, u64)>| {
                            lines.sort_unstable_by_key(|&(blk, _, stamp)| {
                                (blk / line as u64 % sets as u64, stamp)
                            });
                            lines
                        };
                        // Addresses over four cache sizes, so sets conflict;
                        // some near the top of the exact address range.
                        let span = 4 * size as u64;
                        let top = ADDRESS_LIMIT - span;
                        for step in 0..600 {
                            let r = next();
                            let addr = (r >> 8) % span + if r & 64 != 0 { top } else { 0 };
                            let write = r & 1 != 0;
                            let at =
                                format!("{assoc}-way {line} B x{sets} from {start}, step {step}");
                            match (r >> 1) % 8 {
                                0..=3 => assert_eq!(
                                    cache.access(addr, write),
                                    reference.access(addr, write),
                                    "{at}: access"
                                ),
                                4..=6 => assert_eq!(
                                    cache.fill(addr, write),
                                    reference.fill(addr, write),
                                    "{at}: fill"
                                ),
                                _ => assert_eq!(
                                    cache.invalidate(addr),
                                    reference.invalidate(addr),
                                    "{at}: invalidate"
                                ),
                            }
                            assert_eq!(
                                cache.probe(addr) == LookupResult::Hit,
                                reference.find(addr).is_some(),
                                "{at}: probe"
                            );
                            let mut got = lru_order(
                                cache
                                    .lines()
                                    .into_iter()
                                    .map(|(b, d, s)| (b, d, s as u64))
                                    .collect(),
                            );
                            let mut want = lru_order(
                                reference
                                    .lines
                                    .iter()
                                    .filter(|l| l.0)
                                    .map(|&(_, d, b, s)| (b, d, s))
                                    .collect(),
                            );
                            if start != 0 {
                                // Renumbered stamps keep only their order.
                                for (_, _, stamp) in got.iter_mut().chain(&mut want) {
                                    *stamp = 0;
                                }
                            }
                            assert_eq!(got, want, "{at}: lines");
                        }
                        wraps += (cache.tick < 1000 && start > 1000) as u32;
                    }
                }
            }
        }
        assert_eq!(
            wraps,
            5 * 3 * 3 * 3,
            "every stream started near the wrap crossed it"
        );
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
