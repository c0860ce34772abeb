//! Translation lookaside buffers.
//!
//! Table 2: 256-entry direct-mapped L1 I/D TLBs whose latency is folded
//! into the L1 load-to-use time (0 extra cycles), backed by a 3072-entry
//! 12-way L2 TLB at 4 cycles. An L2 TLB miss triggers a fixed-cost page
//! walk. The simulator uses a flat virtual address space, so the TLB
//! only contributes *latency* (and statistics), not translation.

use tvp_obs::counters::sat_inc;

/// One TLB level.
#[derive(Debug)]
pub struct Tlb {
    /// `(valid, vpn, lru)` per entry, set by set: way `w` of set `s`
    /// is `entries[s * ways + w]`.
    entries: Vec<(bool, u64, u64)>,
    ways: usize,
    set_mask: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    overflow_events: u64,
}

impl Tlb {
    /// Page size in bytes (4 KiB).
    pub const PAGE_SHIFT: u32 = 12;

    /// Creates a TLB with `entries` total entries and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two.
    #[must_use]
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries.is_multiple_of(ways));
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "TLB set count must be a power of two");
        Tlb {
            entries: vec![(false, 0, 0); entries], // audited(no-alloc-in-hot-path): constructor
            ways,
            set_mask: sets as u64 - 1,
            clock: 0,
            hits: 0,
            misses: 0,
            overflow_events: 0,
        }
    }

    /// Looks up the page of `vaddr`, filling on miss. Returns `true` on
    /// a hit.
    pub fn access(&mut self, vaddr: u64) -> bool {
        self.clock += 1;
        let vpn = vaddr >> Self::PAGE_SHIFT;
        let set = (vpn & self.set_mask) as usize;
        let clock = self.clock;
        let ways = &mut self.entries[set * self.ways..(set + 1) * self.ways];
        for e in ways.iter_mut() {
            if e.0 && e.1 == vpn {
                e.2 = clock;
                sat_inc(&mut self.hits, &mut self.overflow_events);
                return true;
            }
        }
        sat_inc(&mut self.misses, &mut self.overflow_events);
        let victim = ways.iter_mut().min_by_key(|e| if e.0 { e.2 } else { 0 }).expect("ways > 0");
        *victim = (true, vpn, clock);
        false
    }

    /// (hits, misses).
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Counter increments lost to saturation (should stay 0).
    #[must_use]
    pub fn overflow_events(&self) -> u64 {
        self.overflow_events
    }
}

/// Two-level TLB hierarchy returning access latency.
#[derive(Debug)]
pub struct TlbHierarchy {
    l1: Tlb,
    l2: Tlb,
    l2_latency: u64,
    walk_latency: u64,
}

impl TlbHierarchy {
    /// Builds the Table 2 TLB hierarchy: 256-entry L1 (0 cycles),
    /// 3072-entry 12-way L2 (4 cycles), fixed-cost page walk.
    #[must_use]
    pub fn table2() -> Self {
        TlbHierarchy {
            l1: Tlb::new(256, 1),
            l2: Tlb::new(3072, 12),
            l2_latency: 4,
            walk_latency: 50,
        }
    }

    /// Translates `vaddr`, returning the added latency in cycles
    /// (0 on an L1 hit).
    pub fn translate(&mut self, vaddr: u64) -> u64 {
        if self.l1.access(vaddr) {
            0
        } else if self.l2.access(vaddr) {
            self.l2_latency
        } else {
            self.l2_latency + self.walk_latency
        }
    }

    /// ((l1 hits, l1 misses), (l2 hits, l2 misses)).
    #[must_use]
    pub fn stats(&self) -> ((u64, u64), (u64, u64)) {
        (self.l1.stats(), self.l2.stats())
    }

    /// Counter increments lost to saturation across both levels.
    #[must_use]
    pub fn overflow_events(&self) -> u64 {
        self.l1.overflow_events().saturating_add(self.l2.overflow_events())
    }
}

impl tvp_verif::StorageBudget for Tlb {
    fn storage_name(&self) -> &'static str {
        "tlb"
    }

    fn storage_bits(&self) -> u64 {
        // Per entry: valid + VPN tag (36-bit VPN minus set bits) +
        // log2(ways) replacement state.
        let ways = self.ways as u64;
        let sets = self.entries.len() as u64 / ways;
        let set_bits = u64::from(self.set_mask.count_ones());
        let lru_bits = u64::from(ways.next_power_of_two().trailing_zeros());
        sets * ways * (1 + (36 - set_bits) + lru_bits)
    }
}

impl tvp_verif::StorageBudget for TlbHierarchy {
    fn storage_name(&self) -> &'static str {
        "tlb-hierarchy"
    }

    fn storage_bits(&self) -> u64 {
        self.l1.storage_bits() + self.l2.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut t = TlbHierarchy::table2();
        let lat = t.translate(0x1000_0000);
        assert_eq!(lat, 54, "cold miss pays L2 + walk");
        assert_eq!(t.translate(0x1000_0000), 0);
        assert_eq!(t.translate(0x1000_0FFF), 0, "same page");
        assert!(t.translate(0x1000_1000) > 0, "next page misses");
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut t = TlbHierarchy::table2();
        // Touch enough pages to wrap the 256-entry direct-mapped L1 but
        // stay within the 3072-entry L2.
        for i in 0..512u64 {
            let _ = t.translate(i << Tlb::PAGE_SHIFT);
        }
        // Page 0 was evicted from L1 (aliases with page 256) but should
        // hit in L2.
        let lat = t.translate(0);
        assert_eq!(lat, 4);
    }

    #[test]
    fn direct_mapped_aliasing() {
        let mut t = Tlb::new(4, 1);
        assert!(!t.access(0 << 12));
        assert!(!t.access(4 << 12)); // same set, evicts page 0
        assert!(!t.access(0 << 12));
        let (h, m) = t.stats();
        assert_eq!(h, 0);
        assert_eq!(m, 3);
    }
}
