//! TAGE conditional branch predictor [Seznec 2011].
//!
//! The paper's baseline front-end uses a 32KB, 1+15-table TAGE with
//! geometric history lengths between 5 and 640 bits (Table 2). Its tagged
//! tables are the engine VTAGE and D-VTAGE share (`tagged.rs`); this
//! module keeps the bimodal base, the direction entry and their training.
//!
//! History is updated *speculatively* at prediction time; the pipeline
//! checkpoints its position (a [`HistoryMark`]) and rewinds the history
//! to it on a squash. Table update happens in retirement order using
//! the indices and tags captured in the [`TageToken`] at prediction
//! time, so the updater never needs to reconstruct stale history.

use tvp_obs::counters::sat_inc;

use crate::history::HistoryMark;
use crate::tagged::{self, Entry, Probe, Table, Tagged};
use crate::util::XorShift64;

/// Maximum number of tagged tables supported by the fixed-size token.
pub const MAX_TAGGED_TABLES: usize = 15;

/// TAGE geometry and behaviour parameters.
#[derive(Clone, Debug)]
pub struct TageConfig {
    /// Number of tagged tables (≤ [`MAX_TAGGED_TABLES`]).
    pub num_tables: usize,
    /// Shortest history length (bits).
    pub min_hist: u32,
    /// Longest history length (bits).
    pub max_hist: u32,
    /// log2 of base (bimodal) table entries.
    pub base_log2: u32,
    /// log2 of each tagged table's entries.
    pub tagged_log2: u32,
    /// Tag width per tagged table.
    pub tag_bits: Vec<u32>,
    /// Updates between graceful usefulness decays.
    pub u_reset_period: u64,
    /// PRNG seed for allocation tie-breaking.
    pub seed: u64,
}

impl Default for TageConfig {
    /// The paper's Table 2 configuration: 1+15 tables, history 5–640,
    /// ≈32KB of state.
    fn default() -> Self {
        TageConfig {
            num_tables: 15,
            min_hist: 5,
            max_hist: 640,
            base_log2: 13,
            tagged_log2: 10,
            tag_bits: (0..15).map(|i| 8 + (i as u32) / 2).collect(), // audited(no-alloc-in-hot-path): constructor
            u_reset_period: 256 * 1024,
            seed: 0x7A6E_5EED,
        }
    }
}

impl TageConfig {
    /// Geometric history length of tagged table `i` (0 = shortest).
    #[must_use]
    pub fn history_length(&self, i: usize) -> u32 {
        tagged::history_length(self.min_hist, self.max_hist, self.num_tables, i)
    }

    /// Total predictor state in bits (base counters + tagged entries).
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        let base = (1u64 << self.base_log2) * 2;
        let tagged: u64 = (0..self.num_tables)
            .map(|i| (1u64 << self.tagged_log2) * (3 + 2 + u64::from(self.tag_bits[i])))
            .sum();
        base + tagged
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct TaggedEntry {
    tag: u16,
    ctr: i8, // 3-bit signed: -4..=3
    u: u8,   // 2-bit usefulness
}

impl Entry for TaggedEntry {
    fn matches(&self, tag: u16) -> bool {
        self.tag == tag
    }

    fn is_free(&self) -> bool {
        self.u == 0
    }
}

/// Everything the in-order updater needs about one prediction: indices
/// and tags computed with fetch-time history, plus the provider chain.
#[derive(Clone, Copy, Debug)]
pub struct TageToken {
    base_index: u32,
    probe: Probe<MAX_TAGGED_TABLES>,
    provider: Option<u8>,
    alt: Option<u8>,
    provider_pred: bool,
    alt_pred: bool,
    provider_new: bool,
    /// The final predicted direction.
    pub taken: bool,
}

/// Aggregate prediction statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct TageStats {
    /// Number of conditional branch predictions made.
    pub predictions: u64,
    /// Number of updates whose prediction was wrong.
    pub mispredictions: u64,
    /// Counter increments lost to saturation (should stay 0).
    pub overflow_events: u64,
}

/// The TAGE predictor.
pub struct Tage {
    cfg: TageConfig,
    base: Vec<u8>, // 2-bit counters
    tagged: Tagged<TaggedEntry, MAX_TAGGED_TABLES>,
    use_alt_on_na: i8, // 4-bit signed
    rng: XorShift64,
    tick: u64,
    stats: TageStats,
}

impl Tage {
    /// Builds a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration requests more than
    /// [`MAX_TAGGED_TABLES`] tables or mismatched tag widths.
    #[must_use]
    pub fn new(cfg: TageConfig) -> Self {
        assert_eq!(cfg.tag_bits.len(), cfg.num_tables, "tag_bits length mismatch");
        // Power-of-two tables: the index folds to log2 bits and hashes in the PC above them.
        let geometry = (0..cfg.num_tables).map(|i| Table {
            entries: 1 << cfg.tagged_log2,
            index_bits: cfg.tagged_log2,
            tag_bits: cfg.tag_bits[i],
            history: cfg.history_length(i),
        });
        Tage {
            base: vec![1; 1 << cfg.base_log2], // weakly not-taken // audited(no-alloc-in-hot-path): constructor
            tagged: Tagged::new(geometry, cfg.tagged_log2, &TaggedEntry::default()),
            use_alt_on_na: 0,
            rng: XorShift64::new(cfg.seed),
            tick: 0,
            stats: TageStats::default(),
            cfg,
        }
    }

    /// Predicts the direction of the conditional branch at `pc` using
    /// the current (speculative) history. The returned token must be
    /// passed back to [`Tage::update`] at retirement.
    pub fn predict(&mut self, pc: u64) -> TageToken {
        let probe = self.tagged.probe(pc);
        // The provider is the longest history match, the alternate the
        // next longest; the bimodal base stands in for either.
        let hits = self.tagged.matches(&probe);
        let provider = hits.longest_below(self.tagged.num_tables());
        let alt = provider.and_then(|p| hits.longest_below(p));
        let base_index = ((pc >> 2) & ((1u64 << self.cfg.base_log2) - 1)) as u32;
        let base_taken = self.base[base_index as usize] >= 2;
        let entry = |t: usize| self.tagged.entry(&probe, t);
        let provider_pred = provider.map_or(base_taken, |t| entry(t).ctr >= 0);
        let alt_pred = alt.map_or(base_taken, |t| entry(t).ctr >= 0);
        let provider_new =
            provider.map(entry).is_some_and(|e| e.u == 0 && (e.ctr == 0 || e.ctr == -1));
        sat_inc(&mut self.stats.predictions, &mut self.stats.overflow_events);
        TageToken {
            base_index,
            probe,
            provider: provider.map(|t| t as u8),
            alt: alt.map(|t| t as u8),
            provider_pred,
            alt_pred,
            provider_new,
            taken: if provider_new && self.use_alt_on_na >= 0 { alt_pred } else { provider_pred },
        }
    }

    /// Pushes the (speculative) outcome of a conditional branch into
    /// the global history. Call once per predicted conditional branch,
    /// right after [`Tage::predict`].
    pub fn push_history(&mut self, taken: bool) {
        self.tagged.push_history(taken);
    }

    /// Checkpoints the speculative history (attach to the in-flight
    /// branch; restore on squash): its position, not a copy.
    #[must_use]
    pub fn history_checkpoint(&self) -> HistoryMark {
        self.tagged.history_mark()
    }

    /// Rewinds the history to a checkpoint after a squash (see
    /// [`crate::history::BranchHistory::rewind`] for how far back that
    /// may be).
    pub fn restore_history(&mut self, mark: HistoryMark) {
        self.tagged.rewind_history(mark);
    }

    /// Trains the predictor with the architectural outcome. Call in
    /// retirement order.
    pub fn update(&mut self, token: &TageToken, taken: bool) {
        if token.taken != taken {
            sat_inc(&mut self.stats.mispredictions, &mut self.stats.overflow_events);
        }

        // use_alt_on_na bookkeeping: when the provider was freshly
        // allocated, learn whether trusting it would have been better.
        if token.provider_new && token.provider_pred != token.alt_pred {
            let delta = if token.provider_pred == taken { -1 } else { 1 };
            self.use_alt_on_na = (self.use_alt_on_na + delta).clamp(-8, 7);
        }

        // Update the provider's counter. The base predicts when no table
        // matched, and is kept warm while it serves as the alternate.
        if let Some(t) = token.provider {
            let e = self.tagged.entry_mut(&token.probe, t as usize);
            e.ctr = if taken { (e.ctr + 1).min(3) } else { (e.ctr - 1).max(-4) };
            if token.provider_pred != token.alt_pred {
                if token.provider_pred == taken {
                    e.u = (e.u + 1).min(3);
                } else {
                    e.u = e.u.saturating_sub(1);
                }
            }
        }
        if token.alt.is_none() {
            let c = &mut self.base[token.base_index as usize];
            *c = if taken { (*c + 1).min(3) } else { c.saturating_sub(1) };
        }

        // Allocate on a misprediction, in a table with longer history;
        // when no entry there is free, age them all instead.
        if token.taken != taken {
            let first = token.provider.map_or(0, |p| p as usize + 1);
            if let Some(t) = self.tagged.allocate(&token.probe, first, &mut self.rng) {
                let (tag, ctr) = (token.probe.tags[t], if taken { 0 } else { -1 });
                *self.tagged.entry_mut(&token.probe, t) = TaggedEntry { tag, ctr, u: 0 };
            } else {
                self.tagged.for_each_from(&token.probe, first, |e| e.u = e.u.saturating_sub(1));
            }
        }

        // Graceful usefulness decay.
        self.tick += 1;
        if self.tick.is_multiple_of(self.cfg.u_reset_period) {
            for t in 0..self.tagged.num_tables() {
                for e in self.tagged.table_mut(t) {
                    e.u >>= 1;
                }
            }
        }
    }

    /// Fault-injection hook: corrupts one direction counter chosen by
    /// the raw entropy `r` — inverts a bimodal counter and, on a valid
    /// tagged entry, inverts its signed counter (bit-flip of the 3-bit
    /// two's-complement encoding). Direction predictions are
    /// micro-architectural, so this perturbs timing only.
    pub fn inject_fault(&mut self, r: u64) {
        let bi = (r % self.base.len() as u64) as usize;
        self.base[bi] = 3 - self.base[bi];
        let t = ((r >> 16) % self.tagged.num_tables() as u64) as usize;
        let table = self.tagged.table_mut(t);
        let e = &mut table[((r >> 32) % table.len() as u64) as usize];
        e.ctr = -1 - e.ctr;
    }

    /// Prediction statistics so far.
    #[must_use]
    pub fn stats(&self) -> TageStats {
        self.stats
    }

    /// The configuration this predictor was built with.
    #[must_use]
    pub fn config(&self) -> &TageConfig {
        &self.cfg
    }
}

impl std::fmt::Debug for Tage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tage")
            .field("tables", &self.cfg.num_tables)
            .field("storage_bits", &self.cfg.storage_bits())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl tvp_verif::StorageBudget for Tage {
    fn storage_name(&self) -> &'static str {
        "tage"
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tage() -> Tage {
        Tage::new(TageConfig {
            num_tables: 4,
            min_hist: 4,
            max_hist: 64,
            base_log2: 8,
            tagged_log2: 7,
            tag_bits: vec![8, 9, 10, 11],
            u_reset_period: 1 << 20,
            seed: 1,
        })
    }

    /// Helper: run predict/update over a branch outcome stream and
    /// return final accuracy.
    fn accuracy(tage: &mut Tage, stream: impl Iterator<Item = (u64, bool)>) -> f64 {
        let mut correct = 0u64;
        let mut total = 0u64;
        for (pc, taken) in stream {
            let token = tage.predict(pc);
            tage.push_history(taken);
            if token.taken == taken {
                correct += 1;
            }
            total += 1;
            tage.update(&token, taken);
        }
        correct as f64 / total as f64
    }

    #[test]
    fn learns_biased_branches() {
        let mut tage = small_tage();
        let acc = accuracy(&mut tage, (0..20_000).map(|i| (0x1000 + (i % 16) * 4, true)));
        assert!(acc > 0.99, "always-taken accuracy = {acc}");
    }

    #[test]
    fn learns_short_periodic_patterns_via_history() {
        // Period-3 pattern needs history correlation; bimodal alone
        // cannot exceed 2/3.
        let mut tage = small_tage();
        let acc = accuracy(&mut tage, (0..60_000).map(|i| (0x2000, i % 3 == 0)));
        assert!(acc > 0.95, "period-3 accuracy = {acc}");
    }

    #[test]
    fn learns_correlated_branches() {
        // Second branch mirrors the first; with history the second is
        // fully predictable even though it is random in isolation.
        let mut tage = small_tage();
        let mut lcg = 7u64;
        let mut correct = 0;
        let total = 40_000;
        for _ in 0..total {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = lcg >> 62 & 1 == 1;
            let t1 = tage.predict(0x4000);
            tage.push_history(r);
            tage.update(&t1, r);
            let t2 = tage.predict(0x4010);
            tage.push_history(r);
            if t2.taken == r {
                correct += 1;
            }
            tage.update(&t2, r);
        }
        let acc = f64::from(correct) / f64::from(total);
        assert!(acc > 0.90, "correlated accuracy = {acc}");
    }

    #[test]
    fn history_checkpoint_restore_roundtrip() {
        let mut tage = small_tage();
        for i in 0..100 {
            let t = tage.predict(0x100 + i * 4);
            tage.push_history(i % 2 == 0);
            tage.update(&t, i % 2 == 0);
        }
        let ckpt = tage.history_checkpoint();
        let before = tage.predict(0x9000).taken;
        for _ in 0..10 {
            tage.push_history(true);
        }
        tage.restore_history(ckpt);
        assert_eq!(tage.predict(0x9000).taken, before);
    }

    #[test]
    fn default_config_matches_table2() {
        let cfg = TageConfig::default();
        assert_eq!(cfg.num_tables, 15);
        // The geometric series from 5 to 640 bits, rounded, in full.
        let lengths: Vec<u32> = (0..15).map(|i| cfg.history_length(i)).collect();
        assert_eq!(lengths, [5, 7, 10, 14, 20, 28, 40, 57, 80, 113, 160, 226, 320, 453, 640]);
        // ~32KB budget (Table 2).
        let kb = cfg.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((28.0..36.0).contains(&kb), "TAGE storage = {kb} KB");
    }

    #[test]
    fn indices_and_tags_match_known_answers() {
        // Table 2's TAGE after 40 outcomes of a period-3 pattern: one
        // PC's index and tag in every table pin the index fold width, the
        // PC terms and the tag hash, which the goldens see only through
        // aliasing.
        let mut tage = Tage::new(TageConfig::default());
        for i in 0..40 {
            tage.push_history(i % 3 == 0);
        }
        let token = tage.predict(0x4_1234);
        assert_eq!(token.base_index, 1165);
        let indices = [384, 448, 960, 964, 740, 630, 63, 63, 63, 63, 63, 63, 63, 63, 63];
        assert_eq!(token.probe.indices, indices);
        let tags = [150, 86, 83, 123, 994, 994, 87, 87, 2465, 2465, 8179, 8179, 1166, 1166, 31034];
        assert_eq!(token.probe.tags, tags);
    }

    #[test]
    fn stats_track_mispredictions() {
        let mut tage = small_tage();
        let _ = accuracy(&mut tage, (0..1000).map(|i| (0x100, i % 2 == 0)));
        let s = tage.stats();
        assert_eq!(s.predictions, 1000);
        assert!(s.mispredictions > 0);
        assert!(s.mispredictions < 1000);
    }

    #[test]
    fn injected_fault_flips_counters_but_keeps_predicting() {
        let mut tage = small_tage();
        // Train a strongly-taken branch, then corrupt heavily: the
        // predictor must keep functioning (accuracy recovers through
        // normal training) and never index out of bounds.
        let a1 = accuracy(&mut tage, (0..2000).map(|_| (0x200, true)));
        assert!(a1 > 0.95);
        for r in 0..256u64 {
            tage.inject_fault(r.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        let a2 = accuracy(&mut tage, (0..2000).map(|_| (0x200, true)));
        assert!(a2 > 0.80, "post-corruption retraining accuracy = {a2}");
    }
}
