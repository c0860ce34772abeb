//! VTAGE value predictor [Perais & Seznec, HPCA 2014] with the paper's
//! Minimal / Targeted / Generic prediction-width modes.
//!
//! VTAGE associates a predicted *value* with (PC, global branch history),
//! on the tagged-table engine TAGE also runs on; D-VTAGE shares its
//! tables and its token. The paper's key storage insight (§3.3) is that
//! restricting the set of predictable values shrinks each entry's
//! prediction field:
//!
//! * **GVP** (generic) — 64-bit predictions, 55.2 KB;
//! * **TVP** (targeted) — 9-bit signed predictions, 13.9 KB;
//! * **MVP** (minimal) — only `0x0`/`0x1` (1 bit), 7.9 KB.
//!
//! A prediction is *used* by the pipeline only once its Forward
//! Probabilistic Counter saturates (accuracy > 99.9% in the paper).

use tvp_obs::counters::sat_inc;

use crate::fpc::Fpc;
use crate::history::HistoryMark;
use crate::tagged::{self, Entry, Probe, Table, Tagged};
use crate::util::{pc_hash, TableIndex, XorShift64};

/// Maximum number of tagged tables supported by the fixed-size token.
pub const MAX_VTAGE_TABLES: usize = 8;

/// Which values the predictor is allowed to learn and predict — the
/// MVP/TVP/GVP axis of the paper.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum PredMode {
    /// Minimal VP: only `0x0` and `0x1` (1-bit prediction field).
    ZeroOne,
    /// Targeted VP: 9-bit signed values, matching the widened physical
    /// register names used for register inlining.
    Narrow9,
    /// Generic VP: arbitrary 64-bit values.
    Full64,
}

impl PredMode {
    /// Returns `true` if `value` can be represented by this mode.
    #[must_use]
    pub fn admits(self, value: u64) -> bool {
        match self {
            PredMode::ZeroOne => value <= 1,
            PredMode::Narrow9 => {
                let v = value as i64;
                (-256..=255).contains(&v)
            }
            PredMode::Full64 => true,
        }
    }

    /// Width of the stored prediction field in bits.
    #[must_use]
    pub fn prediction_bits(self) -> u64 {
        match self {
            PredMode::ZeroOne => 1,
            PredMode::Narrow9 => 9,
            PredMode::Full64 => 64,
        }
    }
}

/// VTAGE geometry. The default is the paper's Table 2 predictor.
#[derive(Clone, Debug)]
pub struct VtageConfig {
    /// Prediction width mode (MVP / TVP / GVP).
    pub mode: PredMode,
    /// Shortest history length.
    pub min_hist: u32,
    /// Longest history length.
    pub max_hist: u32,
    /// Entry counts: `entries[0]` is the base table, the rest are the
    /// tagged tables. Not required to be powers of two (Table 3 scales
    /// them fractionally).
    pub entries: Vec<u32>,
    /// Tag widths, aligned with `entries` (`tag_bits[0]` is the base
    /// table's short tag).
    pub tag_bits: Vec<u32>,
    /// FPC confidence counter width.
    pub conf_bits: u8,
    /// FPC increment probability denominator (paper: 16).
    pub conf_inv_prob: u32,
    /// Usefulness field width on tagged tables.
    pub useful_bits: u32,
    /// PRNG seed.
    pub seed: u64,
}

impl VtageConfig {
    /// The paper's 1+7-table VTAGE (Table 2): log2 sizes
    /// 12,9,9,8,8,8,7,7; tags 4,9,9,10,10,11,11,12; history 2–128.
    #[must_use]
    pub fn paper(mode: PredMode) -> Self {
        VtageConfig {
            mode,
            min_hist: 2,
            max_hist: 128,
            entries: [12u32, 9, 9, 8, 8, 8, 7, 7].iter().map(|&l| 1 << l).collect(), // audited(no-alloc-in-hot-path): constructor
            tag_bits: vec![4, 9, 9, 10, 10, 11, 11, 12], // audited(no-alloc-in-hot-path): constructor
            conf_bits: 3,
            conf_inv_prob: 16,
            useful_bits: 2,
            seed: 0x57A6_E5EE,
        }
    }

    /// Scales every table's entry count by `factor` (Table 3's storage
    /// sweep: "same number of tables/history bits, only table size is
    /// modified"). Entry counts are floored at 16.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        for e in &mut self.entries {
            *e = ((f64::from(*e) * factor).round() as u32).max(16);
        }
        self
    }

    /// Number of tagged tables.
    #[must_use]
    pub fn num_tagged(&self) -> usize {
        self.entries.len() - 1
    }

    /// Geometric history length of tagged table `i` (0 = shortest).
    #[must_use]
    pub fn history_length(&self, i: usize) -> u32 {
        tagged::history_length(self.min_hist, self.max_hist, self.num_tagged(), i)
    }

    /// Total predictor state in bits.
    ///
    /// Base entries hold `prediction + confidence + tag`; tagged entries
    /// additionally hold the usefulness field. With the paper's
    /// geometry this reproduces 55.2 / 13.9 / 7.9 KB exactly.
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        let pred = self.mode.prediction_bits();
        let conf = u64::from(self.conf_bits);
        let mut bits = u64::from(self.entries[0]) * (pred + conf + u64::from(self.tag_bits[0]));
        for i in 1..self.entries.len() {
            bits += u64::from(self.entries[i])
                * (pred + conf + u64::from(self.useful_bits) + u64::from(self.tag_bits[i]));
        }
        bits
    }

    /// Total predictor state in kilobytes.
    #[must_use]
    pub fn storage_kb(&self) -> f64 {
        self.storage_bits() as f64 / 8.0 / 1024.0
    }
}

/// A VTAGE entry (`S = ()`), or a D-VTAGE one, whose stride `S` is
/// added to the value, its last committed value.
#[derive(Clone, Debug)]
pub(crate) struct ValueEntry<S> {
    pub(crate) valid: bool,
    tag: u16,
    pub(crate) value: u64,
    pub(crate) stride: S,
    pub(crate) conf: Fpc,
    pub(crate) useful: u8,
}

impl<S: Clone + Default> ValueEntry<S> {
    /// A fresh entry of `cfg`'s geometry, holding `value` under `tag`.
    pub(crate) fn new(cfg: &VtageConfig, tag: u16, value: u64) -> Self {
        let conf = Fpc::new(cfg.conf_bits, cfg.conf_inv_prob);
        ValueEntry { valid: true, tag, value, stride: S::default(), conf, useful: 0 }
    }
}

impl<S: Clone> Entry for ValueEntry<S> {
    fn matches(&self, tag: u16) -> bool {
        self.valid && self.tag == tag
    }

    fn is_free(&self) -> bool {
        !self.valid || self.useful == 0
    }
}

/// A prediction of VTAGE or D-VTAGE, plus the bookkeeping the in-order
/// updater needs.
#[derive(Clone, Copy, Debug)]
pub struct VtagePred {
    /// The predicted value (meaningful only when `hit`).
    pub value: u64,
    /// A matching entry was found.
    pub hit: bool,
    /// The entry's confidence is saturated — the pipeline may *use*
    /// the prediction.
    pub confident: bool,
    pub(crate) base_index: u32,
    pub(crate) base_tag: u16,
    pub(crate) probe: Probe<MAX_VTAGE_TABLES>,
    /// Provider table: 0 = base, 1..=N = tagged table index + 1.
    pub(crate) provider: u8,
}

/// The tables VTAGE and D-VTAGE share: a base table with short tags
/// beside the tagged tables, each of any size (Table 3 scales them
/// fractionally).
pub(crate) struct ValueTables<S> {
    pub(crate) base: Vec<ValueEntry<S>>,
    base_index: TableIndex,
    base_tag_mask: u64,
    pub(crate) tagged: Tagged<ValueEntry<S>, MAX_VTAGE_TABLES>,
}

impl<S: Clone + Default> ValueTables<S> {
    /// The empty tables of `cfg`; panics where [`Vtage::new`] does.
    pub(crate) fn new(cfg: &VtageConfig) -> Self {
        assert_eq!(cfg.entries.len(), cfg.tag_bits.len(), "entries/tag_bits mismatch");
        assert!(!cfg.entries.is_empty(), "a base table is required");
        let empty = ValueEntry { valid: false, ..ValueEntry::new(cfg, 0, 0) };
        // Fold history to ~log2(entries) bits for the index (one more
        // for a power of two) and to the tag width for the tag.
        let geometry = (1..cfg.entries.len()).map(|t| Table {
            entries: cfg.entries[t],
            index_bits: (32 - cfg.entries[t].leading_zeros().min(31)).max(1),
            tag_bits: cfg.tag_bits[t],
            history: cfg.history_length(t - 1),
        });
        ValueTables {
            base: vec![empty.clone(); cfg.entries[0] as usize], // audited(no-alloc-in-hot-path): constructor
            base_index: TableIndex::new(cfg.entries[0]),
            base_tag_mask: (1 << cfg.tag_bits[0]) - 1,
            tagged: Tagged::new(geometry, 9, &empty),
        }
    }

    /// Looks `pc` up under the current history: the longest tagged
    /// match provides, else a matching base entry, with its value and
    /// confidence.
    pub(crate) fn lookup(&self, pc: u64) -> VtagePred {
        let base_index = self.base_index.of(pc_hash(pc));
        let base_tag = (((pc >> 2) ^ (pc >> 13)) & self.base_tag_mask) as u16;
        let probe = self.tagged.probe(pc);
        let (provider, e) = match self.tagged.longest_match(&probe, self.tagged.num_tables()) {
            Some(t) => (t as u8 + 1, self.tagged.entry(&probe, t)),
            None => (0, &self.base[base_index as usize]),
        };
        let hit = provider > 0 || e.matches(base_tag);
        let (value, confident) = if hit { (e.value, e.conf.is_saturated()) } else { (0, false) };
        VtagePred { value, hit, confident, base_index, base_tag, probe, provider }
    }

    /// The entry that provided `pred`, or the base entry on a miss.
    pub(crate) fn provider_mut(&mut self, pred: &VtagePred) -> &mut ValueEntry<S> {
        match pred.provider {
            0 => &mut self.base[pred.base_index as usize],
            p => self.tagged.entry_mut(&pred.probe, p as usize - 1),
        }
    }
}

/// Aggregate statistics (kept by the predictor; the pipeline keeps its
/// own use/coverage accounting).
#[derive(Clone, Copy, Debug, Default)]
pub struct VtageStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that hit a (not necessarily confident) entry.
    pub hits: u64,
    /// Updates where a hit entry's value matched the outcome.
    pub correct: u64,
    /// Updates where a hit entry's value mismatched the outcome.
    pub incorrect: u64,
    /// Counter increments lost to saturation (should stay 0).
    pub overflow_events: u64,
}

/// The VTAGE value predictor.
pub struct Vtage {
    cfg: VtageConfig,
    tables: ValueTables<()>,
    rng: XorShift64,
    stats: VtageStats,
}

impl Vtage {
    /// Builds a predictor.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (mismatched `entries` /
    /// `tag_bits` lengths, or more than [`MAX_VTAGE_TABLES`] tagged
    /// tables).
    #[must_use]
    pub fn new(cfg: VtageConfig) -> Self {
        Vtage {
            tables: ValueTables::new(&cfg),
            rng: XorShift64::new(cfg.seed),
            stats: VtageStats::default(),
            cfg,
        }
    }

    /// Looks up a prediction for the (VP-eligible) instruction at `pc`
    /// using the current speculative branch history.
    pub fn predict(&mut self, pc: u64) -> VtagePred {
        sat_inc(&mut self.stats.lookups, &mut self.stats.overflow_events);
        let pred = self.tables.lookup(pc);
        if pred.hit {
            sat_inc(&mut self.stats.hits, &mut self.stats.overflow_events);
        }
        pred
    }

    /// Pushes a conditional-branch outcome into the value predictor's
    /// history (speculatively, at prediction time).
    pub fn push_history(&mut self, taken: bool) {
        self.tables.tagged.push_history(taken);
    }

    /// Checkpoints the speculative history: its position, not a copy.
    #[must_use]
    pub fn history_checkpoint(&self) -> HistoryMark {
        self.tables.tagged.history_mark()
    }

    /// Rewinds the history to a checkpoint after a squash (see
    /// [`crate::history::BranchHistory::rewind`] for how far back that
    /// may be).
    pub fn restore_history(&mut self, mark: HistoryMark) {
        self.tables.tagged.rewind_history(mark);
    }

    /// Trains the predictor with the retired instruction's actual
    /// result. Call in retirement order with the token from
    /// [`Vtage::predict`].
    pub fn update(&mut self, pred: &VtagePred, actual: u64) {
        let admissible = self.cfg.mode.admits(actual);
        let provider_correct = pred.hit && pred.value == actual;
        if pred.hit {
            let outcome =
                if provider_correct { &mut self.stats.correct } else { &mut self.stats.incorrect };
            sat_inc(outcome, &mut self.stats.overflow_events);
            let entry = self.tables.provider_mut(pred);
            // The entry may have been replaced between prediction and
            // retirement; only train it if it still holds our value.
            if entry.valid && entry.value == pred.value {
                if provider_correct {
                    entry.conf.on_correct(&mut self.rng);
                    if pred.provider != 0 {
                        entry.useful = (entry.useful + 1).min((1 << self.cfg.useful_bits) - 1);
                    }
                } else {
                    if entry.conf.level() == 0 {
                        if admissible {
                            entry.value = actual;
                        } else {
                            entry.valid = false;
                        }
                    }
                    entry.conf.reset();
                    if pred.provider != 0 {
                        entry.useful = entry.useful.saturating_sub(1);
                    }
                }
            }
        }

        // Allocate on a miss or an incorrect provider, in a table with
        // longer history, TAGE-style; when no entry there is free, age
        // them all instead.
        if !provider_correct && admissible {
            let (tagged, first) = (&mut self.tables.tagged, pred.provider as usize);
            if let Some(t) = tagged.allocate(&pred.probe, first, &mut self.rng) {
                let entry = ValueEntry::new(&self.cfg, pred.probe.tags[t], actual);
                *tagged.entry_mut(&pred.probe, t) = entry;
            } else {
                tagged.for_each_from(&pred.probe, first, |e| e.useful = e.useful.saturating_sub(1));
            }
            // Also install into the base table if it is empty or cold.
            let b = &mut self.tables.base[pred.base_index as usize];
            if !b.valid || (b.conf.level() == 0 && (b.tag != pred.base_tag || b.value != actual)) {
                *b = ValueEntry::new(&self.cfg, pred.base_tag, actual);
            } else if b.tag != pred.base_tag {
                b.conf.reset();
            }
        }
    }

    /// Fault-injection hook: corrupts one valid entry chosen by the
    /// raw entropy `r` — flips the low bit of its stored value and
    /// force-saturates its confidence so the poisoned prediction gets
    /// *used* (the worst case for the recovery path). The low-bit flip
    /// keeps the value admissible in every [`PredMode`]. Returns `true`
    /// if a valid entry was found and corrupted.
    pub fn inject_fault(&mut self, r: u64) -> bool {
        let table = match (r % (self.tables.tagged.num_tables() + 1) as u64) as usize {
            0 => &mut self.tables.base[..],
            t => self.tables.tagged.table_mut(t - 1),
        };
        let len = table.len();
        let start = ((r >> 8) % len as u64) as usize;
        for i in 0..len {
            let e = &mut table[(start + i) % len];
            if e.valid {
                e.value ^= 1;
                e.conf.saturate();
                return true;
            }
        }
        false
    }

    /// Predictor-level statistics.
    #[must_use]
    pub fn stats(&self) -> VtageStats {
        self.stats
    }

    /// The configuration this predictor was built with.
    #[must_use]
    pub fn config(&self) -> &VtageConfig {
        &self.cfg
    }
}

impl std::fmt::Debug for Vtage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vtage")
            .field("mode", &self.cfg.mode)
            .field("storage_kb", &self.cfg.storage_kb())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl tvp_verif::StorageBudget for Vtage {
    fn storage_name(&self) -> &'static str {
        match self.cfg.mode {
            PredMode::ZeroOne => "vtage.mvp",
            PredMode::Narrow9 => "vtage.tvp",
            PredMode::Full64 => "vtage.gvp",
        }
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_storage_budgets_are_bit_exact() {
        // §3.3 / Table 2: 55.2 KB (GVP), 13.9 KB (TVP), 7.9 KB (MVP).
        let gvp = VtageConfig::paper(PredMode::Full64);
        assert_eq!(gvp.storage_bits(), 452_224);
        assert!((gvp.storage_kb() - 55.2).abs() < 0.05, "GVP = {}", gvp.storage_kb());

        let tvp = VtageConfig::paper(PredMode::Narrow9);
        assert_eq!(tvp.storage_bits(), 114_304);
        assert!((tvp.storage_kb() - 13.95).abs() < 0.06, "TVP = {}", tvp.storage_kb());

        let mvp = VtageConfig::paper(PredMode::ZeroOne);
        assert_eq!(mvp.storage_bits(), 65_152);
        assert!((mvp.storage_kb() - 7.95).abs() < 0.06, "MVP = {}", mvp.storage_kb());

        // §6.1: MVP uses 14.4% of GVP's storage, TVP 25.1%.
        let share = |c: &VtageConfig| c.storage_kb() / gvp.storage_kb();
        assert!((share(&mvp) - 0.144).abs() < 0.01, "MVP/GVP = {}", share(&mvp));
        assert!((share(&tvp) - 0.251).abs() < 0.015, "TVP/GVP = {}", share(&tvp));
    }

    #[test]
    fn mode_admissibility() {
        assert!(PredMode::ZeroOne.admits(0));
        assert!(PredMode::ZeroOne.admits(1));
        assert!(!PredMode::ZeroOne.admits(2));
        assert!(PredMode::Narrow9.admits(255));
        assert!(PredMode::Narrow9.admits((-256i64) as u64));
        assert!(!PredMode::Narrow9.admits(256));
        assert!(!PredMode::Narrow9.admits(0xFFFF_FFFF)); // zero-extended w-negative
        assert!(PredMode::Full64.admits(u64::MAX));
    }

    #[test]
    fn history_lengths_are_geometric_2_to_128() {
        let cfg = VtageConfig::paper(PredMode::Full64);
        assert_eq!(cfg.num_tagged(), 7);
        let lengths: Vec<u32> = (0..7).map(|i| cfg.history_length(i)).collect();
        assert_eq!(lengths, [2, 4, 8, 16, 32, 64, 128]);
    }

    #[test]
    fn indices_and_tags_match_known_answers() {
        // The Table 2 VTAGE and a Table 3-style scaled one (fractional
        // sizes, reduced by `%`) after 40 outcomes of a period-3 pattern.
        for (scale, base_index, indices) in [
            (1.0, 1165, [133, 141, 205, 132, 196, 32, 32, 0]),
            (0.37, 1513, [110, 118, 17, 47, 89, 3, 3, 0]),
        ] {
            let mut v = Vtage::new(VtageConfig::paper(PredMode::Full64).scaled(scale));
            for i in 0..40 {
                v.push_history(i % 3 == 0);
            }
            let p = v.predict(0x4_1234);
            assert_eq!((p.base_index, p.base_tag), (base_index, 13), "x{scale}");
            assert_eq!(p.probe.indices, indices, "x{scale}");
            assert_eq!(p.probe.tags, [142, 150, 86, 736, 1166, 87, 2465, 0], "x{scale}");
        }
    }

    fn train(v: &mut Vtage, pc: u64, value: u64, n: usize) {
        for _ in 0..n {
            let p = v.predict(pc);
            v.update(&p, value);
        }
    }

    #[test]
    fn constant_value_becomes_confident() {
        let mut v = Vtage::new(VtageConfig::paper(PredMode::Full64));
        train(&mut v, 0x1000, 0xDEAD_BEEF, 3000);
        let p = v.predict(0x1000);
        assert!(p.hit && p.confident);
        assert_eq!(p.value, 0xDEAD_BEEF);
    }

    #[test]
    fn inadmissible_values_never_become_confident_in_mvp() {
        let mut v = Vtage::new(VtageConfig::paper(PredMode::ZeroOne));
        train(&mut v, 0x2000, 42, 3000);
        let p = v.predict(0x2000);
        assert!(!p.confident, "MVP must not confidently predict 42");
        // But 0/1 works.
        train(&mut v, 0x3000, 1, 3000);
        let p = v.predict(0x3000);
        assert!(p.confident);
        assert_eq!(p.value, 1);
    }

    #[test]
    fn narrow9_boundaries() {
        let mut v = Vtage::new(VtageConfig::paper(PredMode::Narrow9));
        train(&mut v, 0x4000, 255, 3000);
        assert!(v.predict(0x4000).confident);
        train(&mut v, 0x5000, 256, 3000);
        assert!(!v.predict(0x5000).confident);
    }

    #[test]
    fn value_change_collapses_confidence() {
        let mut v = Vtage::new(VtageConfig::paper(PredMode::Full64));
        train(&mut v, 0x6000, 7, 3000);
        assert!(v.predict(0x6000).confident);
        let p = v.predict(0x6000);
        v.update(&p, 9); // outcome changed
        let p = v.predict(0x6000);
        assert!(!p.confident, "one mispredict must clear saturation");
    }

    #[test]
    fn history_correlated_values_use_tagged_tables() {
        // Value alternates with a branch direction pattern: with the
        // branch outcome in history, tagged tables disambiguate.
        let mut v = Vtage::new(VtageConfig::paper(PredMode::Full64));
        for round in 0..6000 {
            let taken = round % 2 == 0;
            v.push_history(taken);
            let value = u64::from(taken) * 100;
            let p = v.predict(0x7000);
            v.update(&p, value);
        }
        // Warmed up: check it now predicts following the pattern.
        let mut correct = 0;
        for round in 0..200 {
            let taken = round % 2 == 0;
            v.push_history(taken);
            let value = u64::from(taken) * 100;
            let p = v.predict(0x7000);
            if p.confident && p.value == value {
                correct += 1;
            }
            v.update(&p, value);
        }
        assert!(correct > 150, "history-correlated coverage = {correct}/200");
    }

    #[test]
    fn scaled_config_changes_storage() {
        let cfg = VtageConfig::paper(PredMode::Full64);
        let half = cfg.clone().scaled(0.5);
        let ratio = half.storage_bits() as f64 / cfg.storage_bits() as f64;
        assert!((0.4..0.6).contains(&ratio), "ratio = {ratio}");
        // Scaled predictor still functions.
        let mut v = Vtage::new(half);
        train(&mut v, 0x1000, 5, 3000);
        assert!(v.predict(0x1000).confident);
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let mut v = Vtage::new(VtageConfig::paper(PredMode::Full64));
        for i in 0..50 {
            v.push_history(i % 3 == 0);
        }
        let ckpt = v.history_checkpoint();
        let before = v.predict(0x8000);
        v.push_history(true);
        v.push_history(false);
        v.restore_history(ckpt);
        let after = v.predict(0x8000);
        assert_eq!(before.probe, after.probe);
    }

    #[test]
    fn injected_fault_corrupts_a_used_prediction() {
        let mut v = Vtage::new(VtageConfig::paper(PredMode::Full64));
        train(&mut v, 0xA000, 8, 3000);
        let before = v.predict(0xA000);
        assert!(before.confident && before.value == 8);
        // Corrupt until the trained entry is hit (deterministic walk
        // finds *a* valid entry each call).
        let mut changed = false;
        for r in 0..64u64 {
            assert!(v.inject_fault(r.wrapping_mul(0x9E37_79B9)), "a valid entry exists");
            let p = v.predict(0xA000);
            if p.confident && p.value == 9 {
                changed = true;
                break;
            }
        }
        assert!(changed, "low-bit flip must eventually reach the trained entry");
    }

    #[test]
    fn inject_fault_on_empty_predictor_is_a_noop() {
        let mut v = Vtage::new(VtageConfig::paper(PredMode::ZeroOne));
        assert!(!v.inject_fault(12345));
    }

    #[test]
    fn stats_accumulate() {
        let mut v = Vtage::new(VtageConfig::paper(PredMode::Full64));
        train(&mut v, 0x9000, 3, 100);
        let s = v.stats();
        assert_eq!(s.lookups, 100);
        assert!(s.hits > 0);
        assert!(s.correct > 0);
    }
}
