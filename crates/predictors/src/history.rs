//! Global branch history with incrementally-folded views.
//!
//! TAGE-family predictors index their tables with a hash of the program
//! counter and a *folded* global branch history: the most recent `L`
//! history bits compressed into `W` bits by a circular-shift-register
//! XOR fold. Folding incrementally (one XOR per inserted bit) instead of
//! re-hashing the full history on every lookup is what makes geometric
//! history lengths of several hundred bits practical — both in hardware
//! and in this simulator.
//!
//! The fold geometry ([`HistoryFolds`]: each view's length, width and
//! out-point) is fixed when a predictor is built and stays in the
//! predictor. A [`BranchHistory`] holds what a branch changes — the raw
//! bits, the push count and one register per view — once, in its
//! predictor. The pipeline checkpoints a fetched branch by its
//! [`HistoryMark`], the push count alone, and a squash rewinds to a
//! mark: the raw bits sit in a ring of [`RING_BITS`], which keeps the
//! longest fold's window plus [`MAX_REWIND`] younger pushes intact, and
//! each folded view is a function of its window alone, so it is rebuilt
//! from the ring.

/// Maximum supported history length in bits.
pub const MAX_HISTORY_BITS: usize = 1024;

/// Maximum number of folded views one history carries: three per
/// tagged table (index, tag, second tag hash) for TAGE's 15 tables.
pub const MAX_FOLDED_VIEWS: usize = 45;

/// Capacity of the raw-bit ring.
pub const RING_BITS: usize = 2 * MAX_HISTORY_BITS;

/// How many pushes [`BranchHistory::rewind`] can undo: the ring keeps
/// every bit a fold of [`MAX_HISTORY_BITS`] reads at any mark this far
/// back. A pipeline keeps no more branches in flight than this.
pub const MAX_REWIND: u64 = (RING_BITS - MAX_HISTORY_BITS) as u64;

const WORDS: usize = RING_BITS / 64;

/// Specification of one folded view: fold the most recent `hist_len`
/// bits down to `width` bits.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FoldedSpec {
    /// Number of history bits folded.
    pub hist_len: u32,
    /// Output width in bits (1–63).
    pub width: u32,
}

#[derive(Clone, Copy, Debug)]
struct Fold {
    hist_len: u32,
    width: u32,
    out_point: u32,
    /// `1 << out_point`: the bit the evicted history bit toggles.
    out_bit: u64,
    /// `1 << width`: the bit a shift carries out of the view, folded
    /// back into bit 0.
    overflow: u64,
}

impl Fold {
    fn new(spec: FoldedSpec) -> Self {
        assert!(spec.width >= 1 && spec.width < 64, "folded width out of range");
        assert!(spec.hist_len >= 1, "a folded view needs at least one history bit");
        assert!(spec.hist_len as usize <= MAX_HISTORY_BITS);
        let out_point = spec.hist_len % spec.width;
        Fold {
            hist_len: spec.hist_len,
            width: spec.width,
            out_point,
            out_bit: 1 << out_point,
            overflow: 1 << spec.width,
        }
    }

    /// One fold step, written out: the step [`BranchHistory::rewind`]
    /// replays, and the reference for [`BranchHistory::push`].
    fn update(self, comp: &mut u64, inserted: bool, evicted: bool) {
        let mask = (1u64 << self.width) - 1;
        *comp = (*comp << 1) | u64::from(inserted);
        *comp ^= u64::from(evicted) << self.out_point;
        *comp ^= *comp >> self.width;
        *comp &= mask;
    }
}

/// The fold geometry of one predictor's history: per view, the folded
/// length, the width and the out-point. View `i` is `specs[i]`.
#[derive(Clone, Debug)]
pub struct HistoryFolds {
    folds: Vec<Fold>,
}

impl HistoryFolds {
    /// Builds the geometry of the given views, in order.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_FOLDED_VIEWS`] views, a width outside
    /// 1–63, or a length of zero or beyond [`MAX_HISTORY_BITS`].
    #[must_use]
    pub fn new(specs: &[FoldedSpec]) -> Self {
        assert!(
            specs.len() <= MAX_FOLDED_VIEWS,
            "{} folded views exceed the capacity",
            specs.len()
        );
        HistoryFolds { folds: specs.iter().copied().map(Fold::new).collect() } // audited(no-alloc-in-hot-path): constructor
    }
}

/// A position in a [`BranchHistory`]: how many outcomes had been pushed.
/// Taking one copies eight bytes; [`BranchHistory::rewind`] returns the
/// history to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistoryMark(u64);

/// Global branch history register with folded views: the speculative
/// state a branch changes, rewound to a [`HistoryMark`] after a squash.
///
/// # Examples
///
/// ```
/// use tvp_predictors::history::{BranchHistory, FoldedSpec, HistoryFolds};
///
/// let folds = HistoryFolds::new(&[FoldedSpec { hist_len: 8, width: 4 }]);
/// let mut h = BranchHistory::new();
/// h.push(&folds, true);
/// h.push(&folds, false);
/// assert_eq!(h.bit(0), false); // most recent
/// assert_eq!(h.bit(1), true);
/// let mark = h.mark();
/// let folded = h.folded(0);
/// h.push(&folds, true);
/// // Restoring after a squash rewinds to the mark:
/// h.rewind(&folds, mark);
/// assert_eq!(h.len(), 2);
/// assert_eq!(h.folded(0), folded);
/// ```
#[derive(Clone, Debug)]
pub struct BranchHistory {
    bits: [u64; WORDS],
    pushed: u64,
    comp: [u64; MAX_FOLDED_VIEWS],
}

impl Default for BranchHistory {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchHistory {
    /// An empty history: no bits pushed, every view zero.
    #[must_use]
    pub fn new() -> Self {
        BranchHistory { bits: [0; WORDS], pushed: 0, comp: [0; MAX_FOLDED_VIEWS] }
    }

    /// Number of bits pushed so far (saturating view; the buffer itself
    /// is circular).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.pushed
    }

    /// Returns `true` if no bits have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// The bit pushed at position `pos` (the `pos`-th push, from 0).
    fn bit_at(&self, pos: u64) -> bool {
        ring_bit(&self.bits, pos) == 1
    }

    /// The `age`-th most recent bit (0 = latest). Bits older than
    /// [`MAX_HISTORY_BITS`] (or never pushed) read as `false`.
    #[must_use]
    pub fn bit(&self, age: u64) -> bool {
        if age >= self.pushed || age as usize >= MAX_HISTORY_BITS {
            return false;
        }
        self.bit_at(self.pushed - 1 - age)
    }

    /// Pushes one branch outcome, updating every view of `folds`.
    ///
    /// Each view takes the fold step that [`BranchHistory::rewind`]
    /// replays without a branch, and with one variable shift (the ring
    /// read) instead of four: a view is narrower than 64 bits, so the
    /// shift carries at most its overflow bit out, and that bit folds
    /// back into bit 0. A window longer than the history so far evicts
    /// nothing, which is exact because no view is empty.
    pub fn push(&mut self, folds: &HistoryFolds, taken: bool) {
        let (bits, pushed) = (&self.bits, self.pushed);
        for (comp, fold) in self.comp.iter_mut().zip(&folds.folds) {
            let len = u64::from(fold.hist_len);
            let evicted = ring_bit(bits, pushed.wrapping_sub(len)) & u64::from(pushed >= len);
            let mut c = (*comp << 1) | u64::from(taken);
            c ^= evicted.wrapping_neg() & fold.out_bit;
            let carry = c & fold.overflow;
            *comp = c ^ carry ^ u64::from(carry != 0);
        }
        let pos = self.pushed as usize % RING_BITS;
        let (w, b) = (pos / 64, pos % 64);
        self.bits[w] = (self.bits[w] & !(1 << b)) | (u64::from(taken) << b);
        self.pushed += 1;
    }

    /// The current position, to [`BranchHistory::rewind`] to later.
    #[must_use]
    pub fn mark(&self) -> HistoryMark {
        HistoryMark(self.pushed)
    }

    /// Returns the history to `mark`, as if the pushes made since had
    /// never happened: the push count goes back and every view of
    /// `folds` is rebuilt from the bits of its window, which the ring
    /// still holds. A view's value depends on its window alone (each
    /// bit's contribution is cancelled when it leaves the window), so
    /// replaying the window into a zero register gives it exactly.
    /// Costs one fold step per view per window bit: a squash, not a
    /// branch, pays it.
    ///
    /// `mark` must come from this history, at most [`MAX_REWIND`]
    /// pushes back, with no rewind past it in between.
    pub fn rewind(&mut self, folds: &HistoryFolds, mark: HistoryMark) {
        debug_assert!(
            mark.0 <= self.pushed && self.pushed - mark.0 <= MAX_REWIND,
            "rewind from {} to {} exceeds the ring",
            self.pushed,
            mark.0
        );
        self.pushed = mark.0;
        for (i, &fold) in folds.folds.iter().enumerate() {
            let mut comp = 0;
            for pos in self.pushed.saturating_sub(u64::from(fold.hist_len))..self.pushed {
                fold.update(&mut comp, self.bit_at(pos), false);
            }
            self.comp[i] = comp;
        }
    }

    /// The current value of folded view `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not below [`MAX_FOLDED_VIEWS`].
    #[must_use]
    pub fn folded(&self, idx: usize) -> u64 {
        self.comp[idx]
    }
}

/// The ring's bit at push position `pos`, as 0 or 1.
fn ring_bit(bits: &[u64; WORDS], pos: u64) -> u64 {
    let pos = pos as usize % RING_BITS;
    bits[pos / 64] >> (pos % 64) & 1
}

impl tvp_verif::StorageBudget for BranchHistory {
    fn storage_name(&self) -> &'static str {
        "branch-history"
    }

    fn storage_bits(&self) -> u64 {
        // The architectural history register; the folded registers are
        // counted by their geometry ([`HistoryFolds`]). The ring's other
        // half stands in for the per-branch checkpoint copies a
        // hardware front end keeps, which no Table 2 budget counts.
        MAX_HISTORY_BITS as u64
    }
}

impl tvp_verif::StorageBudget for HistoryFolds {
    fn storage_name(&self) -> &'static str {
        "history-folds"
    }

    fn storage_bits(&self) -> u64 {
        // One shift register per folded view, as wide as the view.
        self.folds.iter().map(|f| u64::from(f.width)).sum()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn fold_is_sensitive_to_single_window_bits() {
        // Flipping any single bit inside the folded window must change
        // the folded value: the fold is linear over GF(2), so a one-bit
        // change toggles a fixed non-zero pattern.
        let spec = FoldedSpec { hist_len: 13, width: 5 };
        let base: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let folds = HistoryFolds::new(&[spec]);
        let fold_of = |bits: &[bool]| {
            let mut h = BranchHistory::new();
            for &b in bits {
                h.push(&folds, b);
            }
            h.folded(0)
        };
        let reference = fold_of(&base);
        for flip_age in 0..spec.hist_len as usize {
            let mut bits = base.clone();
            let idx = bits.len() - 1 - flip_age;
            bits[idx] = !bits[idx];
            assert_ne!(
                fold_of(&bits),
                reference,
                "flipping window bit at age {flip_age} left the fold unchanged"
            );
        }
        // Flipping a bit *outside* the window must not change the fold.
        let mut bits = base.clone();
        let idx = bits.len() - 1 - spec.hist_len as usize;
        bits[idx] = !bits[idx];
        assert_eq!(fold_of(&bits), reference);
    }

    #[test]
    fn fold_depends_only_on_recent_window() {
        // Two histories that agree on the last `hist_len` bits must fold
        // identically once enough bits are pushed.
        let spec = FoldedSpec { hist_len: 8, width: 4 };
        let pattern = [true, false, true, true, false, false, true, false];
        let folds = HistoryFolds::new(&[spec]);
        let mut a = BranchHistory::new();
        let mut b = BranchHistory::new();
        // Different prefixes.
        for i in 0..40 {
            a.push(&folds, i % 3 == 0);
        }
        for i in 0..52 {
            b.push(&folds, i % 5 == 0);
        }
        for &t in &pattern {
            a.push(&folds, t);
            b.push(&folds, t);
        }
        assert_eq!(a.folded(0), b.folded(0));
    }

    #[test]
    fn bit_accessor_orders_most_recent_first() {
        let folds = HistoryFolds::new(&[]);
        let mut h = BranchHistory::new();
        h.push(&folds, true);
        h.push(&folds, false);
        h.push(&folds, true);
        assert!(h.bit(0));
        assert!(!h.bit(1));
        assert!(h.bit(2));
        assert!(!h.bit(3), "unpushed history reads as false");
    }

    #[test]
    fn clone_checkpoints_folded_state() {
        let spec = FoldedSpec { hist_len: 16, width: 7 };
        let folds = HistoryFolds::new(&[spec]);
        let mut h = BranchHistory::new();
        for i in 0..100 {
            h.push(&folds, i % 7 < 3);
        }
        let ckpt = h.clone();
        let folded_at_ckpt = h.folded(0);
        for i in 0..20 {
            h.push(&folds, i % 2 == 0);
        }
        let restored = ckpt;
        assert_eq!(restored.folded(0), folded_at_ckpt);
        assert_eq!(restored.len(), 100);
        // The restored copy evolves identically to the original's past.
        let mut replay = restored;
        for i in 0..20 {
            replay.push(&folds, i % 2 == 0);
        }
        assert_eq!(replay.folded(0), h.folded(0));
    }

    #[test]
    fn rewind_restores_folded_state() {
        let spec = FoldedSpec { hist_len: 16, width: 7 };
        let folds = HistoryFolds::new(&[spec]);
        let mut h = BranchHistory::new();
        for i in 0..100 {
            h.push(&folds, i % 7 < 3);
        }
        let mark = h.mark();
        let folded_at_mark = h.folded(0);
        let original = h.clone();
        for i in 0..20 {
            h.push(&folds, i % 2 == 0);
        }
        let pushed_on = h.folded(0);
        h.rewind(&folds, mark);
        assert_eq!(h.folded(0), folded_at_mark);
        assert_eq!(h.len(), 100);
        // The rewound history evolves identically to the original's past.
        let mut replay = original;
        for i in 0..20 {
            replay.push(&folds, i % 2 == 0);
            h.push(&folds, i % 2 == 0);
        }
        assert_eq!(replay.folded(0), pushed_on);
        assert_eq!(h.folded(0), pushed_on);
    }

    #[test]
    fn rewind_rebuilds_a_window_that_began_before_the_first_push() {
        let folds = HistoryFolds::new(&[FoldedSpec { hist_len: 40, width: 9 }]);
        let mut h = BranchHistory::new();
        for i in 0..10 {
            h.push(&folds, i % 3 == 0);
        }
        let (mark, folded) = (h.mark(), h.folded(0));
        for _ in 0..50 {
            h.push(&folds, true);
        }
        h.rewind(&folds, mark);
        assert_eq!(h.folded(0), folded);
    }

    #[test]
    fn buffer_wraps_beyond_capacity() {
        let folds = HistoryFolds::new(&[]);
        let mut h = BranchHistory::new();
        for i in 0..(RING_BITS as u64 + 10) {
            h.push(&folds, i % 2 == 0);
        }
        // Most recent bit was pushed with i = RING_BITS+9 (odd → false).
        assert!(!h.bit(0));
        assert!(h.bit(1));
        assert!(!h.bit(MAX_HISTORY_BITS as u64), "bits past the longest fold read as false");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn push_matches_the_reference_fold_after_every_outcome(
            geometry in proptest::collection::vec((1u32..=MAX_HISTORY_BITS as u32, 1u32..64), 1..=8),
            lead in 0u32..3_000,
            outcomes in proptest::collection::vec(any::<bool>(), 1..1_500),
        ) {
            // Rewinding to the current mark replays each view's window
            // through `Fold::update` from zero: the known answer the
            // branch-free step must give after every push, from the
            // first (windows longer than the history) to after the ring
            // has wrapped (`lead`).
            let specs: Vec<FoldedSpec> =
                geometry.iter().map(|&(hist_len, width)| FoldedSpec { hist_len, width }).collect();
            let folds = HistoryFolds::new(&specs);
            let mut h = BranchHistory::new();
            for i in 0..lead {
                h.push(&folds, i % 7 < 3);
            }
            for taken in outcomes {
                h.push(&folds, taken);
                let mut rebuilt = h.clone();
                rebuilt.rewind(&folds, h.mark());
                for (view, spec) in specs.iter().enumerate() {
                    prop_assert_eq!(h.folded(view), rebuilt.folded(view), "view {:?}", spec);
                }
            }
        }
    }

    #[test]
    fn a_window_longer_than_the_history_evicts_nothing_after_a_deep_rewind() {
        // Two rewinds, each within the ring's reach, return to a mark
        // whose longest window reaches past the first push; the ring
        // slots that window maps to hold bits pushed later. The next
        // pushes must fold as a fresh history's do.
        let folds = HistoryFolds::new(&[FoldedSpec { hist_len: 1024, width: 11 }]);
        let mut h = BranchHistory::new();
        let start = h.mark();
        for i in 0..1000 {
            h.push(&folds, i % 3 == 0);
        }
        let middle = h.mark();
        for _ in 0..1000 {
            h.push(&folds, true);
        }
        h.rewind(&folds, middle);
        h.rewind(&folds, start);
        let mut fresh = BranchHistory::new();
        for i in 0..50 {
            h.push(&folds, i % 5 == 0);
            fresh.push(&folds, i % 5 == 0);
            assert_eq!(h.folded(0), fresh.folded(0), "push {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one history bit")]
    fn zero_length_fold_rejected() {
        let _ = HistoryFolds::new(&[FoldedSpec { hist_len: 0, width: 4 }]);
    }

    #[test]
    #[should_panic(expected = "folded width out of range")]
    fn zero_width_fold_rejected() {
        let _ = HistoryFolds::new(&[FoldedSpec { hist_len: 8, width: 0 }]);
    }

    #[test]
    #[should_panic(expected = "exceed the capacity")]
    fn views_beyond_the_capacity_are_rejected() {
        let spec = FoldedSpec { hist_len: 8, width: 4 };
        let _ = HistoryFolds::new(&[spec; MAX_FOLDED_VIEWS + 1]);
    }
}
