//! Set-associative cache with LRU replacement and MSHR-based miss
//! tracking.
//!
//! The hierarchy is latency-based rather than event-driven: an access at
//! cycle `C` returns the cycle at which its data is available. Misses
//! allocate an MSHR; a second access to an in-flight line *merges* into
//! the existing MSHR (returning its completion time), and when all MSHRs
//! are busy the access stalls until the earliest one frees — the same
//! first-order behaviour a full event-driven model produces.

use std::ops::Range;

use tvp_obs::counters::sat_inc;

/// Configuration of one cache level.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Human-readable name (`"l1d"`, `"l2"`, …).
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_size: usize,
    /// Hit latency (load-to-use, cycles).
    pub latency: u64,
    /// Number of miss status holding registers.
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two sets,
    /// zero ways, capacity not divisible by `ways × line_size`).
    #[must_use]
    pub fn num_sets(&self) -> usize {
        assert!(self.ways > 0 && self.line_size > 0);
        let sets = self.size_bytes / (self.ways * self.line_size);
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "{}: set count {sets} must be a power of two",
            self.name
        );
        sets
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    valid: bool,
    tag: u64,
    dirty: bool,
    lru: u64,
    prefetched: bool,
}

/// Hit/miss statistics for one cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Prefetch fills inserted.
    pub prefetch_fills: u64,
    /// Demand hits on lines brought in by a prefetch (first touch).
    pub prefetch_useful: u64,
    /// Lines evicted.
    pub evictions: u64,
    /// Counter increments lost to saturation (should stay 0).
    pub overflow_events: u64,
}

/// `Cache::set_at` value of a set that has never been filled.
const UNFILLED: u32 = u32::MAX;

/// One cache level.
///
/// A set's lines exist from its first fill: a run that touches a few
/// sets of an 8 MB level writes only those sets' lines. Every probe of
/// a never-filled set misses, exactly as an all-invalid set would.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// The lines of every filled set, set by set in first-fill order.
    /// The capacity for all `sets × ways` lines is reserved at
    /// construction, so a first fill never reallocates.
    lines: Vec<Line>,
    /// Where each set's ways start in `lines`: way `w` of set `s` is
    /// `lines[set_at[s] + w]`, or [`UNFILLED`] before the set's first
    /// fill.
    set_at: Vec<u32>,
    set_shift: u32,
    set_mask: u64,
    mshrs: Vec<(u64, u64)>, // (line address, completion cycle)
    clock: u64,
    stats: CacheStats,
}

/// Result of probing a cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The line is resident.
    Hit,
    /// The line is not resident.
    Miss,
}

impl Cache {
    /// Builds a cache level from its configuration.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.num_sets();
        assert!(sets * cfg.ways <= UNFILLED as usize, "{}: too many lines", cfg.name);
        Cache {
            set_shift: cfg.line_size.trailing_zeros(),
            set_mask: sets as u64 - 1,
            lines: Vec::with_capacity(sets * cfg.ways), // audited(no-alloc-in-hot-path): constructor
            set_at: vec![UNFILLED; sets], // audited(no-alloc-in-hot-path): constructor
            mshrs: Vec::with_capacity(cfg.mshrs), // audited(no-alloc-in-hot-path): constructor
            clock: 0,
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The configuration of this level.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Line-aligned address.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.set_shift
    }

    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Where set `set`'s ways sit in `lines`: an empty range before
    /// the set's first fill.
    fn set_range(&self, set: usize) -> Range<usize> {
        match self.set_at[set] {
            UNFILLED => 0..0,
            at => at as usize..at as usize + self.cfg.ways,
        }
    }

    fn tag_of(&self, line: u64) -> u64 {
        line >> self.set_mask.count_ones()
    }

    /// Probes for `addr` without modifying replacement state.
    #[must_use]
    pub fn peek(&self, addr: u64) -> Probe {
        let line = self.line_addr(addr);
        let (set, tag) = (self.set_of(line), self.tag_of(line));
        if self.lines[self.set_range(set)].iter().any(|l| l.valid && l.tag == tag) {
            Probe::Hit
        } else {
            Probe::Miss
        }
    }

    /// Demand access: updates LRU, dirty state and statistics.
    pub fn access(&mut self, addr: u64, write: bool) -> Probe {
        self.clock += 1;
        let line = self.line_addr(addr);
        let (set, tag) = (self.set_of(line), self.tag_of(line));
        let clock = self.clock;
        let ways = self.set_range(set);
        for l in &mut self.lines[ways] {
            if l.valid && l.tag == tag {
                l.lru = clock;
                l.dirty |= write;
                if l.prefetched {
                    l.prefetched = false;
                    sat_inc(&mut self.stats.prefetch_useful, &mut self.stats.overflow_events);
                }
                sat_inc(&mut self.stats.hits, &mut self.stats.overflow_events);
                return Probe::Hit;
            }
        }
        sat_inc(&mut self.stats.misses, &mut self.stats.overflow_events);
        Probe::Miss
    }

    /// Fills `addr` into the cache (after a miss returns, or on a
    /// prefetch). Returns the evicted line address if a dirty line was
    /// displaced.
    pub fn fill(&mut self, addr: u64, prefetch: bool) -> Option<u64> {
        self.clock += 1;
        let line = self.line_addr(addr);
        let (set, tag) = (self.set_of(line), self.tag_of(line));
        let clock = self.clock;
        let set_bits = self.set_mask.count_ones();
        if prefetch {
            sat_inc(&mut self.stats.prefetch_fills, &mut self.stats.overflow_events);
        }
        if self.set_at[set] == UNFILLED {
            // The set's first fill gives it `ways` invalid lines, within
            // the capacity reserved at construction.
            self.set_at[set] = self.lines.len() as u32;
            self.lines.resize(self.lines.len() + self.cfg.ways, Line::default());
        }
        let ways = self.set_range(set);
        let ways = &mut self.lines[ways];
        if let Some(l) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.lru = clock;
            return None; // already resident (e.g. MSHR merge)
        }
        let victim =
            ways.iter_mut().min_by_key(|l| if l.valid { l.lru } else { 0 }).expect("ways > 0");
        let evicted = (victim.valid && victim.dirty)
            .then(|| ((victim.tag << set_bits) | set as u64) << self.set_shift);
        if victim.valid {
            sat_inc(&mut self.stats.evictions, &mut self.stats.overflow_events);
        }
        *victim = Line { valid: true, tag, dirty: false, lru: clock, prefetched: prefetch };
        evicted
    }

    /// Looks up or allocates an MSHR for a missing line.
    ///
    /// Returns `(completion_cycle, newly_allocated)`. `miss_latency` is
    /// the time the fill will take if a new MSHR is allocated. When all
    /// MSHRs are busy the allocation queues behind the earliest
    /// completion.
    pub fn mshr_allocate(&mut self, addr: u64, cycle: u64, miss_latency: u64) -> (u64, bool) {
        let line = self.line_addr(addr);
        self.mshrs.retain(|&(_, done)| done > cycle);
        if let Some(&(_, done)) = self.mshrs.iter().find(|&&(l, _)| l == line) {
            return (done, false); // merge into in-flight miss
        }
        let start = if self.mshrs.len() >= self.cfg.mshrs {
            // Stall until the earliest MSHR frees.
            self.mshrs.iter().map(|&(_, d)| d).min().unwrap_or(cycle)
        } else {
            cycle
        };
        let done = start + miss_latency;
        self.mshrs.push((line, done));
        (done, true)
    }

    /// If the line containing `addr` has an in-flight miss, returns
    /// its completion cycle. Lets hit paths honour fills that are
    /// architecturally present but physically still in flight
    /// (prefetched lines).
    #[must_use]
    pub fn mshr_pending(&self, addr: u64, cycle: u64) -> Option<u64> {
        let line = self.line_addr(addr);
        self.mshrs.iter().find(|&&(l, done)| l == line && done > cycle).map(|&(_, done)| done)
    }

    /// The outstanding miss with the earliest fill completion still in
    /// the future at `cycle`: `(line address, fill cycle)`. Feeds the
    /// deadlock watchdog's diagnostic dump.
    #[must_use]
    pub fn oldest_mshr(&self, cycle: u64) -> Option<(u64, u64)> {
        self.mshrs.iter().filter(|&&(_, done)| done > cycle).min_by_key(|&&(_, done)| done).copied()
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

impl tvp_verif::StorageBudget for Cache {
    fn storage_name(&self) -> &'static str {
        self.cfg.name
    }

    fn storage_bits(&self) -> u64 {
        // Per line: data + tag (48-bit VA minus set/offset bits) +
        // valid/dirty/prefetched + log2(ways) replacement state.
        let ways = self.cfg.ways as u64;
        let sets = self.set_at.len() as u64;
        let set_bits = u64::from(self.set_mask.count_ones());
        let tag_bits = 48 - set_bits - u64::from(self.set_shift);
        let lru_bits = u64::from(ways.next_power_of_two().trailing_zeros());
        let per_line = self.cfg.line_size as u64 * 8 + tag_bits + 3 + lru_bits;
        sets * ways * per_line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            name: "test",
            size_bytes: 4 * 64 * 2, // 4 sets × 2 ways × 64B
            ways: 2,
            line_size: 64,
            latency: 4,
            mshrs: 2,
        })
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0x1000, false), Probe::Miss);
        c.fill(0x1000, false);
        assert_eq!(c.access(0x1000, false), Probe::Hit);
        assert_eq!(c.access(0x1004, false), Probe::Hit, "same line");
        assert_eq!(c.access(0x1040, false), Probe::Miss, "next line");
    }

    #[test]
    fn lru_within_set() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = sets × line = 256B).
        c.fill(0x0000, false);
        c.fill(0x0100, false);
        let _ = c.access(0x0000, false); // touch to make 0x0100 the LRU victim
        c.fill(0x0200, false);
        assert_eq!(c.access(0x0000, false), Probe::Hit);
        assert_eq!(c.access(0x0100, false), Probe::Miss);
        assert_eq!(c.access(0x0200, false), Probe::Hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0x0000, false);
        let _ = c.access(0x0000, true); // dirty it
        c.fill(0x0100, false);
        let evicted = c.fill(0x0200, false); // victim should be 0x0000 (LRU) — dirty
        assert_eq!(evicted, Some(0x0000));
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut c = tiny();
        let (done1, new1) = c.mshr_allocate(0x1000, 100, 50);
        assert!(new1);
        assert_eq!(done1, 150);
        let (done2, new2) = c.mshr_allocate(0x1020, 110, 50); // same line
        assert!(!new2);
        assert_eq!(done2, 150, "merged access completes with the first");
    }

    #[test]
    fn mshr_exhaustion_queues() {
        let mut c = tiny();
        let (d1, _) = c.mshr_allocate(0x1000, 0, 100);
        let (_d2, _) = c.mshr_allocate(0x2000, 0, 100);
        // Third distinct line: both MSHRs busy until cycle 100.
        let (d3, new3) = c.mshr_allocate(0x3000, 1, 100);
        assert!(new3);
        assert_eq!(d3, d1 + 100, "queued behind earliest completion");
    }

    #[test]
    fn mshr_frees_after_completion() {
        let mut c = tiny();
        let _ = c.mshr_allocate(0x1000, 0, 10);
        let (done, new) = c.mshr_allocate(0x4000, 50, 10);
        assert!(new);
        assert_eq!(done, 60, "old MSHR expired, no queueing");
    }

    #[test]
    fn prefetch_usefulness_tracked() {
        let mut c = tiny();
        c.fill(0x1000, true);
        assert_eq!(c.stats().prefetch_fills, 1);
        let _ = c.access(0x1000, false);
        assert_eq!(c.stats().prefetch_useful, 1);
        let _ = c.access(0x1000, false);
        assert_eq!(c.stats().prefetch_useful, 1, "only first touch counts");
    }

    #[test]
    fn filling_every_set_keeps_the_reserved_lines_and_the_budget() {
        use tvp_verif::StorageBudget;
        let mut c = tiny();
        let (capacity, bits) = (c.lines.capacity(), c.storage_bits());
        assert_eq!(capacity, 4 * 2, "room for every line is reserved up front");
        assert!(c.lines.is_empty(), "no set is filled yet");
        for set in 0..4u64 {
            c.fill(set * 64, false);
        }
        assert_eq!(c.lines.len(), 4 * 2, "each filled set holds all its ways");
        assert_eq!(c.lines.capacity(), capacity, "a first fill never reallocates");
        assert_eq!(c.storage_bits(), bits, "the budget counts every set, filled or not");
    }

    #[test]
    fn a_never_filled_set_misses() {
        let mut c = tiny();
        c.fill(0x0000, false);
        assert_eq!(c.peek(0x0040), Probe::Miss, "set 1 has never been filled");
        assert_eq!(c.access(0x0040, false), Probe::Miss);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.lines.len(), 2, "a miss fills nothing");
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = tiny();
        let _ = c.access(0x5000, false);
        c.fill(0x5000, false);
        let _ = c.access(0x5000, false);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }
}
