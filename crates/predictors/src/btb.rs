//! Branch Target Buffer: set-associative cache of branch targets.
//!
//! The paper's front-end uses an 8192-entry BTB (Table 2). The decode
//! stage detects BTB misses ("mistarget detection") and redirects fetch,
//! which the pipeline models as a small bubble.

use std::ops::Range;

use tvp_isa::op::BranchKind;

#[derive(Clone, Copy, Debug, Default)]
struct BtbEntry {
    valid: bool,
    tag: u64,
    target: u64,
    kind: Option<BranchKind>,
    lru: u64,
}

/// A set-associative branch target buffer.
///
/// # Examples
///
/// ```
/// use tvp_predictors::btb::Btb;
/// use tvp_isa::op::BranchKind;
///
/// let mut btb = Btb::new(1024, 4);
/// assert!(btb.lookup(0x4000).is_none());
/// btb.insert(0x4000, 0x5000, BranchKind::UncondDirect);
/// let hit = btb.lookup(0x4000).unwrap();
/// assert_eq!(hit.target, 0x5000);
/// ```
#[derive(Debug)]
pub struct Btb {
    /// Every entry, set by set: way `w` of set `s` is
    /// `entries[s * ways + w]`.
    entries: Vec<BtbEntry>,
    ways: usize,
    set_mask: u64,
    clock: u64,
    stats: BtbStats,
}

/// Lookup statistics (exported through the counter registry).
#[derive(Clone, Copy, Debug, Default)]
pub struct BtbStats {
    /// Lookups that found a valid entry for the PC.
    pub hits: u64,
    /// Lookups that missed (decode takes the mistarget bubble).
    pub misses: u64,
    /// Counter increments lost to saturation (should stay 0).
    pub overflow_events: u64,
}

/// A BTB hit: the stored target and the kind of branch that installed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BtbHit {
    /// Predicted target address.
    pub target: u64,
    /// Branch kind recorded at installation.
    pub kind: BranchKind,
}

impl Btb {
    /// Creates a BTB with `entries` total entries and the given
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two divisible by `ways`.
    #[must_use]
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries.is_power_of_two(), "BTB entries must be a power of two");
        assert!(ways > 0 && entries.is_multiple_of(ways), "entries must divide into ways");
        let num_sets = entries / ways;
        assert!(num_sets.is_power_of_two(), "BTB set count must be a power of two");
        Btb {
            // audited(no-alloc-in-hot-path): constructor
            entries: vec![BtbEntry::default(); entries],
            ways,
            set_mask: num_sets as u64 - 1,
            clock: 0,
            stats: BtbStats::default(),
        }
    }

    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) & self.set_mask) as usize
    }

    fn tag_of(&self, pc: u64) -> u64 {
        (pc >> 2) >> self.set_mask.count_ones()
    }

    /// Where set `set`'s ways sit in `entries`.
    fn set_range(&self, set: usize) -> Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// Looks up the branch at `pc`, updating LRU state on a hit.
    pub fn lookup(&mut self, pc: u64) -> Option<BtbHit> {
        self.clock += 1;
        let (set, tag) = (self.set_of(pc), self.tag_of(pc));
        let clock = self.clock;
        let ways = self.set_range(set);
        for e in &mut self.entries[ways] {
            if e.valid && e.tag == tag {
                e.lru = clock;
                tvp_obs::counters::sat_inc(&mut self.stats.hits, &mut self.stats.overflow_events);
                return e.kind.map(|kind| BtbHit { target: e.target, kind });
            }
        }
        tvp_obs::counters::sat_inc(&mut self.stats.misses, &mut self.stats.overflow_events);
        None
    }

    /// Installs or updates the target for the branch at `pc`.
    pub fn insert(&mut self, pc: u64, target: u64, kind: BranchKind) {
        self.clock += 1;
        let (set, tag) = (self.set_of(pc), self.tag_of(pc));
        let clock = self.clock;
        let ways = self.set_range(set);
        let ways = &mut self.entries[ways];
        if let Some(e) = ways.iter_mut().find(|e| e.valid && e.tag == tag) {
            e.target = target;
            e.kind = Some(kind);
            e.lru = clock;
            return;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("associativity is non-zero");
        *victim = BtbEntry { valid: true, tag, target, kind: Some(kind), lru: clock };
    }

    /// Lookup counters.
    #[must_use]
    pub fn stats(&self) -> BtbStats {
        self.stats
    }

    /// Fault-injection hook: invalidates one valid entry chosen by the
    /// raw entropy `r` (models a dropped/parity-scrubbed target).
    /// Subsequent fetches of that branch take the BTB-miss bubble and
    /// re-insert at retirement — timing-only damage. Returns `true` if
    /// an entry was dropped.
    pub fn inject_fault(&mut self, r: u64) -> bool {
        let num_sets = self.entries.len() / self.ways;
        let start_set = (r % num_sets as u64) as usize;
        let way = ((r >> 32) % self.ways as u64) as usize;
        for i in 0..num_sets {
            let set = (start_set + i) % num_sets;
            let entry = &mut self.entries[set * self.ways + way];
            if entry.valid {
                entry.valid = false;
                return true;
            }
        }
        false
    }
}

impl tvp_verif::StorageBudget for Btb {
    fn storage_name(&self) -> &'static str {
        "btb"
    }

    fn storage_bits(&self) -> u64 {
        // Per entry: tag 16 + compressed target 32 + kind 3 (valid is
        // folded into the kind encoding), matching Table 2's costing.
        self.entries.len() as u64 * 51
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut btb = Btb::new(64, 4);
        assert!(btb.lookup(0x1000).is_none());
        btb.insert(0x1000, 0x2000, BranchKind::CondDirect);
        let hit = btb.lookup(0x1000).unwrap();
        assert_eq!(hit.target, 0x2000);
        assert_eq!(hit.kind, BranchKind::CondDirect);
    }

    #[test]
    fn injected_fault_drops_a_valid_entry() {
        let mut btb = Btb::new(64, 4);
        assert!(!btb.inject_fault(7), "empty BTB has nothing to drop");
        btb.insert(0x1000, 0x2000, BranchKind::CondDirect);
        assert!(btb.inject_fault(7));
        assert!(btb.lookup(0x1000).is_none(), "the only entry was invalidated");
    }

    #[test]
    fn update_in_place() {
        let mut btb = Btb::new(64, 2);
        btb.insert(0x1000, 0x2000, BranchKind::Indirect);
        btb.insert(0x1000, 0x3000, BranchKind::Indirect);
        assert_eq!(btb.lookup(0x1000).unwrap().target, 0x3000);
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut btb = Btb::new(4, 2); // 2 sets × 2 ways
                                      // Three PCs mapping to the same set (stride = 2 sets × 4 bytes).
        let pcs = [0x1000u64, 0x1008, 0x1010];
        btb.insert(pcs[0], 0xA, BranchKind::UncondDirect);
        btb.insert(pcs[1], 0xB, BranchKind::UncondDirect);
        let _ = btb.lookup(pcs[0]); // warm pcs[0]
        btb.insert(pcs[2], 0xC, BranchKind::UncondDirect); // evicts pcs[1]
        assert!(btb.lookup(pcs[0]).is_some());
        assert!(btb.lookup(pcs[1]).is_none());
        assert!(btb.lookup(pcs[2]).is_some());
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut btb = Btb::new(8, 1);
        for i in 0..8u64 {
            btb.insert(0x2000 + i * 4, i, BranchKind::UncondDirect);
        }
        for i in 0..8u64 {
            assert_eq!(btb.lookup(0x2000 + i * 4).unwrap().target, i);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Btb::new(100, 4);
    }
}
