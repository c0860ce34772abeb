//! The tagged-table engine of the TAGE family [Seznec 2011]: TAGE's
//! direction tables, VTAGE's value tables [Perais & Seznec 2014] and
//! D-VTAGE's stride tables are all built on it.
//!
//! Tagged table `t` is indexed and tagged with a hash of the program
//! counter and of the newest `L(t)` bits of global branch history,
//! folded to the index and tag widths; the lengths grow geometrically
//! with `t` ([`history_length`]). A lookup's provider is the
//! longest-history table whose entry matches its tag, and after a
//! misprediction a predictor allocates in a longer table by one rule
//! ([`Tagged::allocate`]). [`Tagged`] owns the tables, their index
//! reduction, the history and its folded views; each predictor keeps
//! its entry, its prediction and its training.

use crate::history::{BranchHistory, FoldedSpec, HistoryFolds, HistoryMark, MAX_FOLDED_VIEWS};
use crate::util::{pc_hash, TableIndex, XorShift64};

/// Geometric history length of tagged table `i` of `n`, from `min` to
/// `max` bits.
pub(crate) fn history_length(min: u32, max: u32, n: usize, i: usize) -> u32 {
    if n == 1 {
        return min;
    }
    let ratio = f64::from(max) / f64::from(min);
    let exp = i as f64 / (n - 1) as f64;
    (f64::from(min) * ratio.powf(exp)).round() as u32
}

/// What the engine reads of an entry.
pub(crate) trait Entry: Clone {
    /// Whether the entry answers a lookup tagged `tag`.
    fn matches(&self, tag: u16) -> bool;
    /// Whether allocation may take the entry.
    fn is_free(&self) -> bool;
}

/// One tagged table's geometry.
pub(crate) struct Table {
    /// Number of entries (any positive count, see [`TableIndex`]).
    pub(crate) entries: u32,
    /// Width of the folded history the index hashes in.
    pub(crate) index_bits: u32,
    /// Tag width.
    pub(crate) tag_bits: u32,
    /// Length of the history the table sees, in bits.
    pub(crate) history: u32,
}

/// Every tagged table's index and tag for one lookup, computed with the
/// history at prediction time, so that training in retirement order
/// finds the entries the prediction read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Probe<const N: usize> {
    pub(crate) indices: [u32; N],
    pub(crate) tags: [u16; N],
}

/// The tables whose entry matched a lookup: bit `t` for table `t`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Matches(u32);

impl Matches {
    /// The longest-history matching table below `below`: the mask's
    /// highest bit under `below`, which is at most `N` and so below 16.
    pub(crate) fn longest_below(self, below: usize) -> Option<usize> {
        (self.0 & ((1 << below) - 1)).checked_ilog2().map(|t| t as usize)
    }
}

/// Up to `N` tagged tables of `E` over one global branch history.
pub(crate) struct Tagged<E, const N: usize> {
    tables: Vec<Vec<E>>,
    index: [TableIndex; N],
    tag_mask: [u64; N],
    /// The index hashes in `pc >> shift` beside the PC hash.
    shift: u32,
    /// Three views per table: the index, the tag, and the tag's second
    /// hash, one bit narrower.
    folds: HistoryFolds,
    history: BranchHistory,
}

impl<E: Entry, const N: usize> Tagged<E, N> {
    /// Builds one table per element of `tables`, every entry `empty`;
    /// the index hashes in `pc >> shift`.
    ///
    /// # Panics
    ///
    /// Panics on more than `N` tables, a table without entries, or a
    /// tag or index width outside 1–63.
    pub(crate) fn new(tables: impl ExactSizeIterator<Item = Table>, shift: u32, empty: &E) -> Self {
        const { assert!(3 * N <= MAX_FOLDED_VIEWS, "three folded views per table") };
        assert!(tables.len() <= N, "too many tagged tables");
        let mut entries = Vec::with_capacity(tables.len()); // audited(no-alloc-in-hot-path): constructor
        let mut specs = Vec::with_capacity(3 * tables.len()); // audited(no-alloc-in-hot-path): constructor
        let (mut index, mut tag_mask) = ([TableIndex::new(1); N], [0; N]);
        for (t, g) in tables.enumerate() {
            entries.push(vec![empty.clone(); g.entries as usize]); // audited(no-alloc-in-hot-path): constructor
            (index[t], tag_mask[t]) = (TableIndex::new(g.entries), (1 << g.tag_bits) - 1);
            let widths = [g.index_bits, g.tag_bits, (g.tag_bits - 1).max(1)];
            specs.extend(widths.map(|width| FoldedSpec { hist_len: g.history, width }));
        }
        let folds = HistoryFolds::new(&specs);
        Tagged { tables: entries, index, tag_mask, shift, folds, history: BranchHistory::new() }
    }

    pub(crate) fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// The index and tag of `pc` in every table under the current
    /// history.
    pub(crate) fn probe(&self, pc: u64) -> Probe<N> {
        let mut probe = Probe { indices: [0; N], tags: [0; N] };
        let pc_bits = pc_hash(pc) ^ (pc >> self.shift);
        for t in 0..self.tables.len() {
            let view = |v| self.history.folded(3 * t + v);
            probe.indices[t] = self.index[t].of(pc_bits ^ view(0));
            probe.tags[t] = (((pc >> 2) ^ view(1) ^ (view(2) << 1)) & self.tag_mask[t]) as u16;
        }
        probe
    }

    /// Every table whose entry at the probe matches its tag.
    pub(crate) fn matches(&self, probe: &Probe<N>) -> Matches {
        let mut hits = 0u32;
        for t in 0..self.tables.len() {
            hits |= u32::from(self.entry(probe, t).matches(probe.tags[t])) << t;
        }
        Matches(hits)
    }

    /// The longest-history table below `below` whose entry at the probe
    /// matches its tag.
    pub(crate) fn longest_match(&self, probe: &Probe<N>, below: usize) -> Option<usize> {
        self.matches(probe).longest_below(below)
    }

    /// The allocation rule after a misprediction: among the tables from
    /// `first` on whose entry at the probe is free, the first one two
    /// times in three when there are several, and otherwise one drawn
    /// uniformly, favouring short histories as the reference TAGE does.
    /// `None` when no entry is free; only then is nothing drawn from
    /// `rng`.
    pub(crate) fn allocate(
        &self,
        probe: &Probe<N>,
        first: usize,
        rng: &mut XorShift64,
    ) -> Option<usize> {
        let free = |t: &usize| self.entry(probe, *t).is_free();
        let count = (first..self.tables.len()).filter(free).count();
        if count == 0 {
            return None;
        }
        let pick = if count > 1 && !rng.one_in(3) { 0 } else { rng.below(count as u32) as usize };
        (first..self.tables.len()).filter(free).nth(pick)
    }

    /// Table `t`'s entry at the probe.
    pub(crate) fn entry(&self, probe: &Probe<N>, t: usize) -> &E {
        &self.tables[t][probe.indices[t] as usize]
    }

    /// Table `t`'s entry at the probe, to train or replace.
    pub(crate) fn entry_mut(&mut self, probe: &Probe<N>, t: usize) -> &mut E {
        &mut self.tables[t][probe.indices[t] as usize]
    }

    /// Applies `f` to the probed entries of the tables from `first` on.
    pub(crate) fn for_each_from(&mut self, probe: &Probe<N>, first: usize, f: impl Fn(&mut E)) {
        for t in first..self.tables.len() {
            f(self.entry_mut(probe, t));
        }
    }

    /// Every entry of table `t`.
    pub(crate) fn table_mut(&mut self, t: usize) -> &mut [E] {
        &mut self.tables[t]
    }

    /// Pushes a branch outcome into the history (speculatively, at
    /// prediction time).
    pub(crate) fn push_history(&mut self, taken: bool) {
        self.history.push(&self.folds, taken);
    }

    /// The history's position, to rewind to after a squash.
    pub(crate) fn history_mark(&self) -> HistoryMark {
        self.history.mark()
    }

    /// Rewinds the history to `mark` (see [`BranchHistory::rewind`]).
    pub(crate) fn rewind_history(&mut self, mark: HistoryMark) {
        self.history.rewind(&self.folds, mark);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[derive(Clone, Copy)]
    struct Slot {
        free: bool,
    }

    impl Entry for Slot {
        fn matches(&self, _tag: u16) -> bool {
            !self.free
        }

        fn is_free(&self) -> bool {
            self.free
        }
    }

    /// The reference model: TAGE's allocation rule written out over a
    /// list of free flags, with its own guard for `first` past the end.
    fn reference_allocation(free: &[bool], first: usize, rng: &mut XorShift64) -> Option<usize> {
        if first >= free.len() {
            return None;
        }
        let free_count = (first..free.len()).filter(|&t| free[t]).count();
        if free_count == 0 {
            return None;
        }
        let pick = if free_count > 1 && !rng.one_in(3) {
            0
        } else {
            rng.below(free_count as u32) as usize
        };
        (first..free.len()).filter(|&t| free[t]).nth(pick)
    }

    fn one_entry_tables(n: usize) -> Tagged<Slot, 15> {
        let table = |_| Table { entries: 1, index_bits: 1, tag_bits: 8, history: 4 };
        Tagged::new((0..n).map(table), 0, &Slot { free: false })
    }

    proptest! {
        #[test]
        fn allocation_matches_the_inline_tage_rule(
            n in 0usize..=15,
            mask in any::<u16>(),
            first in 0usize..=16,
            seed in any::<u64>(),
        ) {
            let mut tagged = one_entry_tables(n);
            let free: Vec<bool> = (0..n).map(|t| mask >> t & 1 == 1).collect();
            for (t, &f) in free.iter().enumerate() {
                tagged.table_mut(t)[0].free = f;
            }
            let probe = tagged.probe(0x1000);
            let (mut ours, mut theirs) = (XorShift64::new(seed), XorShift64::new(seed));
            prop_assert_eq!(
                tagged.allocate(&probe, first, &mut ours),
                reference_allocation(&free, first, &mut theirs)
            );
            prop_assert_eq!(ours.next_u64(), theirs.next_u64(), "same draws");
        }
    }

    #[test]
    fn the_longest_match_is_the_reverse_search_over_every_mask_and_bound() {
        // The reference: search the matching tables from `below` down.
        for n in 0..=15 {
            let mut tagged = one_entry_tables(n);
            let probe = tagged.probe(0x40);
            for mask in 0u32..1 << n {
                for t in 0..n {
                    tagged.table_mut(t)[0].free = mask >> t & 1 == 0;
                }
                for below in 0..=n {
                    let reference = (0..below).rev().find(|&t| mask >> t & 1 == 1);
                    assert_eq!(
                        tagged.longest_match(&probe, below),
                        reference,
                        "{n} tables, match mask {mask:#b}, below {below}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_longest_match_comes_first_and_bounds_the_search() {
        let mut tagged = one_entry_tables(6);
        let probe = tagged.probe(0x40);
        // Tables 1 and 4 match; the others are free.
        for t in [0, 2, 3, 5] {
            tagged.table_mut(t)[0].free = true;
        }
        assert_eq!(tagged.longest_match(&probe, 6), Some(4));
        assert_eq!(tagged.longest_match(&probe, 4), Some(1));
        assert_eq!(tagged.longest_match(&probe, 1), None);
    }
}
