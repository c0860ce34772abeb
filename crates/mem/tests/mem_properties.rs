//! Property-based tests of the memory hierarchy.

use proptest::prelude::*;
use tvp_mem::cache::{Cache, CacheConfig, CacheStats, Probe};
use tvp_mem::hierarchy::{Hierarchy, HierarchyConfig};

fn small_cache() -> Cache {
    Cache::new(CacheConfig {
        name: "prop",
        size_bytes: 8 * 1024,
        ways: 4,
        line_size: 64,
        latency: 4,
        mshrs: 8,
    })
}

/// One line of [`EagerCache`].
#[derive(Clone, Copy, Default)]
struct RefLine {
    valid: bool,
    tag: u64,
    dirty: bool,
    lru: u64,
    prefetched: bool,
}

/// The cache's semantics restated with every set's ways present from
/// construction: a probe searches the set's valid lines, and a fill
/// that misses replaces the first invalid way, or else the least
/// recently used one.
struct EagerCache {
    ways: usize,
    set_bits: u32,
    lines: Vec<RefLine>,
    clock: u64,
    stats: CacheStats,
}

impl EagerCache {
    fn new(sets: usize, ways: usize) -> Self {
        EagerCache {
            ways,
            set_bits: sets.trailing_zeros(),
            lines: vec![RefLine::default(); sets * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The set's ways and the tag of `addr` (64-byte lines).
    fn locate(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr >> 6;
        let set = (line & ((1 << self.set_bits) - 1)) as usize;
        (set * self.ways..(set + 1) * self.ways, line >> self.set_bits)
    }

    fn peek(&self, addr: u64) -> Probe {
        let (ways, tag) = self.locate(addr);
        if self.lines[ways].iter().any(|l| l.valid && l.tag == tag) {
            Probe::Hit
        } else {
            Probe::Miss
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> Probe {
        self.clock += 1;
        let (ways, tag) = self.locate(addr);
        let Some(l) = self.lines[ways].iter_mut().find(|l| l.valid && l.tag == tag) else {
            self.stats.misses += 1;
            return Probe::Miss;
        };
        l.lru = self.clock;
        l.dirty |= write;
        if l.prefetched {
            l.prefetched = false;
            self.stats.prefetch_useful += 1;
        }
        self.stats.hits += 1;
        Probe::Hit
    }

    fn fill(&mut self, addr: u64, prefetch: bool) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        let (ways, tag) = self.locate(addr);
        let set = (ways.start / self.ways) as u64;
        self.stats.prefetch_fills += u64::from(prefetch);
        let ways = &mut self.lines[ways];
        if let Some(l) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.lru = clock;
            return None;
        }
        let victim = ways.iter().position(|l| !l.valid).unwrap_or_else(|| {
            (0..ways.len()).min_by_key(|&w| ways[w].lru).expect("a set has at least one way")
        });
        let old = ways[victim];
        self.stats.evictions += u64::from(old.valid);
        ways[victim] = RefLine { valid: true, tag, dirty: false, lru: clock, prefetched: prefetch };
        (old.valid && old.dirty).then(|| ((old.tag << self.set_bits) | set) << 6)
    }
}

/// Every counter of a [`CacheStats`], in declaration order.
fn counters(s: CacheStats) -> [u64; 6] {
    [s.hits, s.misses, s.prefetch_fills, s.prefetch_useful, s.evictions, s.overflow_events]
}

proptest! {
    #[test]
    fn cache_behaves_as_if_every_set_existed_from_the_start(
        set_bits in 0u32..7,
        ways in 1usize..17,
        ops in proptest::collection::vec((0u8..3, any::<u64>(), any::<bool>()), 1..400),
    ) {
        let sets = 1usize << set_bits;
        let mut cache = Cache::new(CacheConfig {
            name: "lazy",
            size_bytes: sets * ways * 64,
            ways,
            line_size: 64,
            latency: 4,
            mshrs: 8,
        });
        let mut eager = EagerCache::new(sets, ways);
        for (kind, r, flag) in ops {
            // A few tags, mostly over the first four sets, so accesses
            // collide within a set and fills evict, while the others
            // probe sets that may never have been filled; the high bits
            // pick a byte in the line.
            let spread = if r & 1 == 0 { sets.min(4) } else { sets };
            let set = (r >> 1) % spread as u64;
            let tag = (r >> 8) % (ways as u64 + 2);
            let addr = (((tag << set_bits) | set) << 6) | (r >> 58);
            match kind {
                0 => prop_assert_eq!(cache.peek(addr), eager.peek(addr), "peek {addr:#x}"),
                1 => prop_assert_eq!(
                    cache.access(addr, flag),
                    eager.access(addr, flag),
                    "access {addr:#x}"
                ),
                _ => prop_assert_eq!(
                    cache.fill(addr, flag),
                    eager.fill(addr, flag),
                    "fill {addr:#x}"
                ),
            }
            prop_assert_eq!(counters(cache.stats()), counters(eager.stats));
        }
    }

    #[test]
    fn fill_then_access_always_hits(addr: u64) {
        let mut c = small_cache();
        c.fill(addr, false);
        prop_assert_eq!(c.access(addr, false), Probe::Hit);
        // Same line, different byte.
        prop_assert_eq!(c.access(addr ^ 1, false), Probe::Hit);
    }

    #[test]
    fn working_set_within_one_set_never_thrashes(
        base in 0u64..0x1_0000,
        accesses in proptest::collection::vec(0u64..4, 20..100),
    ) {
        // 4 distinct lines mapping to the same set fit a 4-way cache:
        // after a cold pass, everything hits forever.
        let mut c = small_cache();
        let set_stride = 8 * 1024 / 4; // sets × line = 2KB
        let line = |i: u64| (base & !0x3F) + i * set_stride as u64;
        for i in 0..4 {
            c.fill(line(i), false);
        }
        for i in accesses {
            prop_assert_eq!(c.access(line(i), false), Probe::Hit);
        }
    }

    #[test]
    fn completion_times_are_causal(
        addrs in proptest::collection::vec(0u64..0x10_0000, 1..60),
    ) {
        // An access can never complete before it starts, and repeated
        // access to the same address at a later time never completes
        // earlier than the first access did.
        let mut h = Hierarchy::new(HierarchyConfig {
            stride_prefetcher: false,
            ampm_prefetcher: false,
            ..HierarchyConfig::default()
        });
        let mut cycle = 0u64;
        for a in addrs {
            let aligned = a & !0x7;
            let done = h.data_access(0x1000, aligned, false, cycle);
            prop_assert!(done > cycle, "completion {done} before issue {cycle}");
            let again = h.data_access(0x1000, aligned, false, done);
            prop_assert!(again - done <= done - cycle + 1, "warm access slower than cold");
            cycle = done + 1;
        }
    }

    #[test]
    fn mshr_merge_never_completes_later_than_a_fresh_miss(
        base in 0u64..0x100_0000,
        delta in 1u64..63,
    ) {
        let mut h = Hierarchy::new(HierarchyConfig {
            stride_prefetcher: false,
            ampm_prefetcher: false,
            ..HierarchyConfig::default()
        });
        let line = base & !0x3F;
        let first = h.data_access(0x1000, line, false, 0);
        // Second access to the same line one cycle later merges.
        let merged = h.data_access(0x1000, line + delta, false, 1);
        prop_assert!(merged <= first + 1, "merge {merged} vs first {first}");
    }
}

#[test]
fn lru_keeps_the_hottest_lines() {
    let mut c = small_cache();
    let set_stride = 2 * 1024u64;
    // Five lines for four ways; keep line 0 hot.
    for round in 0..20 {
        for i in 0..5u64 {
            let addr = i * set_stride;
            if c.access(addr, false) == Probe::Miss {
                c.fill(addr, false);
            }
            let _ = c.access(0, false); // keep line 0 hot
        }
        let _ = round;
    }
    assert_eq!(c.access(0, false), Probe::Hit, "hot line must survive");
}
