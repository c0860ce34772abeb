//! D-VTAGE: a stride-based VTAGE variant [Perais & Seznec, HPCA 2015],
//! built to quantify the paper's §2.1/§3.3 argument.
//!
//! Stride predictors compute instance `n`'s value from instance
//! `n−1`'s — but in a deep pipeline many instances of the same
//! instruction are in flight, so the predictor must track *speculative*
//! state: how many unresolved instances exist per entry, and what value
//! the newest one was predicted to have. This module implements that
//! speculative window faithfully (including squash repair), which is
//! precisely the complexity the paper's MVP/TVP eliminate: with only
//! `0x0`/`0x1` or 9-bit values predictable, "specific algorithms such
//! as stride-based prediction become mostly irrelevant" (§3.3) — a
//! strided sequence leaves the admissible range after a handful of
//! instances.
//!
//! D-VTAGE shares VTAGE's tables, indexing, history and prediction
//! token ([`VtagePred`]); its entry shows the storage cost:
//! `last value + stride` per entry instead of a single value field.

use crate::util::XorShift64;
use crate::vtage::{PredMode, ValueEntry, ValueTables, VtageConfig, VtagePred};

/// D-VTAGE geometry: VTAGE geometry plus the stride field width and
/// the speculative window capacity.
#[derive(Clone, Debug)]
pub struct DvtageConfig {
    /// The underlying table geometry (entry counts, tags, confidence).
    pub base: VtageConfig,
    /// Stride field width in bits (storage accounting).
    pub stride_bits: u32,
    /// Capacity of the speculative in-flight window (the paper cites a
    /// fully-associative, priority-encoded structure whose overhead
    /// grows with the instruction window, §2.1).
    pub spec_window: usize,
}

impl DvtageConfig {
    /// The paper-geometry D-VTAGE at a given prediction mode.
    #[must_use]
    pub fn paper(mode: PredMode) -> Self {
        DvtageConfig { base: VtageConfig::paper(mode), stride_bits: 16, spec_window: 64 }
    }

    /// Total predictor state in bits: the VTAGE layout plus a stride
    /// per entry plus the speculative window (key + value per slot).
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        let entries: u64 = self.base.entries.iter().map(|&e| u64::from(e)).sum();
        let window_slot = 16 + self.base.mode.prediction_bits(); // key + spec value
        self.base.storage_bits()
            + entries * u64::from(self.stride_bits)
            + self.spec_window as u64 * window_slot
    }

    /// Kilobytes.
    #[must_use]
    pub fn storage_kb(&self) -> f64 {
        self.storage_bits() as f64 / 8.0 / 1024.0
    }
}

/// A speculative in-flight instance.
#[derive(Clone, Copy, Debug)]
struct SpecSlot {
    key: (u8, u32), // (table id: 0 = base, 1.. = tagged; index)
    seq: u64,
    value: u64,
}

/// The D-VTAGE predictor.
pub struct Dvtage {
    cfg: DvtageConfig,
    tables: ValueTables<i64>,
    window: Vec<SpecSlot>,
    rng: XorShift64,
}

impl Dvtage {
    /// Builds a predictor.
    ///
    /// # Panics
    ///
    /// Panics where [`crate::vtage::Vtage::new`] does.
    #[must_use]
    pub fn new(cfg: DvtageConfig) -> Self {
        Dvtage {
            tables: ValueTables::new(&cfg.base),
            window: Vec::new(),
            rng: XorShift64::new(cfg.base.seed ^ 0xD57A),
            cfg,
        }
    }

    /// Looks up a prediction: the provider's stride added to its newest
    /// in-flight instance, else to its last committed value. When the
    /// prediction is *used*, call [`Dvtage::note_inflight`].
    pub fn predict(&mut self, pc: u64) -> VtagePred {
        let mut pred = self.tables.lookup(pc);
        if pred.hit {
            let key = Self::key_of(&pred);
            // The stride chains from the *newest speculative instance*
            // of this entry, or the committed value when none is in
            // flight — the §2.1 speculative-state requirement.
            let newest_spec = self.window.iter().rev().find(|s| s.key == key).map(|s| s.value);
            let stride = self.tables.provider_mut(&pred).stride;
            pred.value = newest_spec.unwrap_or(pred.value).wrapping_add(stride as u64);
        }
        pred
    }

    fn key_of(pred: &VtagePred) -> (u8, u32) {
        let p = pred.provider as usize;
        (pred.provider, if p == 0 { pred.base_index } else { pred.probe.indices[p - 1] })
    }

    /// Registers a *used* prediction in the speculative window so later
    /// instances chain from it. Oldest slots spill when the window is
    /// full (their chains then mispredict — the structural hazard the
    /// paper notes grows with instruction-window size).
    pub fn note_inflight(&mut self, pred: &VtagePred, seq: u64) {
        if !pred.hit {
            return;
        }
        if self.window.len() >= self.cfg.spec_window {
            self.window.remove(0);
        }
        self.window.push(SpecSlot { key: Self::key_of(pred), seq, value: pred.value });
    }

    /// Squashes speculative window state at or after `seq` (pipeline
    /// flush repair).
    pub fn squash(&mut self, seq: u64) {
        self.window.retain(|s| s.seq < seq);
    }

    /// Trains with the committed value; also retires the instance from
    /// the speculative window.
    pub fn update(&mut self, pred: &VtagePred, actual: u64, seq: u64) {
        self.window.retain(|s| s.seq != seq);
        let admissible = self.cfg.base.mode.admits(actual);
        let mut correct = false;
        if pred.hit {
            let e = self.tables.provider_mut(pred);
            if e.valid {
                let new_stride = actual.wrapping_sub(e.value) as i64;
                correct = pred.value == actual;
                if correct {
                    e.conf.on_correct(&mut self.rng);
                    e.useful = (e.useful + 1).min((1 << self.cfg.base.useful_bits) - 1);
                } else {
                    e.conf.reset();
                    e.useful = e.useful.saturating_sub(1);
                }
                // Stride fields are bounded; out-of-range strides learn 0.
                let max = 1i64 << (self.cfg.stride_bits - 1);
                e.stride = if (-max..max).contains(&new_stride) { new_stride } else { 0 };
                e.value = if admissible { actual } else { e.value };
                if !admissible {
                    e.valid = false;
                }
            }
        }
        // Allocate as VTAGE does, but without ageing the entries when
        // none is free.
        if !correct && admissible {
            let tagged = &mut self.tables.tagged;
            if let Some(t) = tagged.allocate(&pred.probe, pred.provider as usize, &mut self.rng) {
                *tagged.entry_mut(&pred.probe, t) =
                    ValueEntry::new(&self.cfg.base, pred.probe.tags[t], actual);
            }
            let b = &mut self.tables.base[pred.base_index as usize];
            if !b.valid || b.conf.level() == 0 {
                *b = ValueEntry::new(&self.cfg.base, pred.base_tag, actual);
            }
        }
    }

    /// Pushes a branch outcome into the predictor's history.
    pub fn push_history(&mut self, taken: bool) {
        self.tables.tagged.push_history(taken);
    }

    /// Current speculative window occupancy (tests/diagnostics).
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.window.len()
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &DvtageConfig {
        &self.cfg
    }
}

impl std::fmt::Debug for Dvtage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dvtage")
            .field("mode", &self.cfg.base.mode)
            .field("storage_kb", &self.cfg.storage_kb())
            .field("inflight", &self.window.len())
            .finish_non_exhaustive()
    }
}

impl tvp_verif::StorageBudget for Dvtage {
    fn storage_name(&self) -> &'static str {
        "dvtage"
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_seq(vp: &mut Dvtage, pc: u64, values: &[u64], reps: usize) {
        let mut seq = 0u64;
        for _ in 0..reps {
            for &v in values {
                let p = vp.predict(pc);
                vp.update(&p, v, seq);
                seq += 1;
            }
        }
    }

    #[test]
    fn learns_constant_values_like_vtage() {
        let mut vp = Dvtage::new(DvtageConfig::paper(PredMode::Full64));
        train_seq(&mut vp, 0x1000, &[42], 3000);
        let p = vp.predict(0x1000);
        assert!(p.confident);
        assert_eq!(p.value, 42, "stride 0 chains to the same value");
    }

    #[test]
    fn learns_strided_sequences_vtage_cannot() {
        let mut vp = Dvtage::new(DvtageConfig::paper(PredMode::Full64));
        // value = 1000 + 8·n: every instance differs, so plain VTAGE
        // never gains confidence, but the stride is perfectly stable.
        let mut v = 1000u64;
        let mut confident_correct = 0;
        for seq in 0..5000u64 {
            let p = vp.predict(0x2000);
            if p.confident && p.value == v {
                confident_correct += 1;
            }
            vp.update(&p, v, seq);
            v += 8;
        }
        assert!(confident_correct > 2000, "stride coverage = {confident_correct}/5000");
    }

    #[test]
    fn speculative_window_chains_inflight_instances() {
        let mut vp = Dvtage::new(DvtageConfig::paper(PredMode::Full64));
        // Warm up the stride (committed state): 100, 108, 116, ...
        let mut v = 100u64;
        for seq in 0..4000u64 {
            let p = vp.predict(0x3000);
            vp.update(&p, v, seq);
            v += 8;
        }
        // Now issue three predictions back-to-back without retiring:
        // they must chain v+8, v+16, v+24 — not all v+8.
        let p1 = vp.predict(0x3000);
        vp.note_inflight(&p1, 10_000);
        let p2 = vp.predict(0x3000);
        vp.note_inflight(&p2, 10_001);
        let p3 = vp.predict(0x3000);
        assert_eq!(p2.value, p1.value.wrapping_add(8), "second instance chains");
        assert_eq!(p3.value, p2.value.wrapping_add(8), "third instance chains");
        assert_eq!(vp.inflight(), 2);
    }

    #[test]
    fn squash_repairs_the_window() {
        let mut vp = Dvtage::new(DvtageConfig::paper(PredMode::Full64));
        let mut v = 0u64;
        for seq in 0..4000u64 {
            let p = vp.predict(0x4000);
            vp.update(&p, v, seq);
            v += 4;
        }
        let p1 = vp.predict(0x4000);
        vp.note_inflight(&p1, 20_000);
        let p2 = vp.predict(0x4000);
        vp.note_inflight(&p2, 20_001);
        assert_eq!(vp.inflight(), 2);
        vp.squash(20_000); // pipeline flush: both instances die
        assert_eq!(vp.inflight(), 0);
        let p_again = vp.predict(0x4000);
        assert_eq!(p_again.value, p1.value, "chain restarts from committed state");
    }

    #[test]
    fn narrow_modes_make_strides_useless() {
        // The paper's §3.3 point: under MVP/TVP admissibility, a strided
        // sequence exits the representable range almost immediately, so
        // stride machinery adds nothing.
        for mode in [PredMode::ZeroOne, PredMode::Narrow9] {
            let mut vp = Dvtage::new(DvtageConfig::paper(mode));
            let mut v = 0u64;
            let mut confident_used = 0u64;
            for seq in 0..4000u64 {
                let p = vp.predict(0x5000);
                if p.confident && vp.config().base.mode.admits(p.value) {
                    confident_used += 1;
                }
                vp.update(&p, v, seq);
                v += 8; // leaves the 9-bit range after 32 instances
            }
            assert!(
                confident_used < 200,
                "{mode:?}: stride coverage should collapse, got {confident_used}"
            );
        }
    }

    #[test]
    fn storage_exceeds_vtage_at_the_same_geometry() {
        for mode in [PredMode::ZeroOne, PredMode::Narrow9, PredMode::Full64] {
            let d = DvtageConfig::paper(mode);
            assert!(
                d.storage_bits() > d.base.storage_bits(),
                "{mode:?}: stride fields must cost storage"
            );
        }
        // The paper's §2.1 note: speculative-window overhead exists and
        // grows with capacity.
        let small = DvtageConfig { spec_window: 16, ..DvtageConfig::paper(PredMode::Full64) };
        let big = DvtageConfig { spec_window: 512, ..DvtageConfig::paper(PredMode::Full64) };
        assert!(big.storage_bits() > small.storage_bits());
    }

    #[test]
    fn a_miss_with_no_free_entry_ages_nothing() {
        // Unlike TAGE and VTAGE, D-VTAGE leaves the usefulness of the
        // longer tables' entries alone when none of them is free.
        let mut vp = Dvtage::new(DvtageConfig::paper(PredMode::Full64));
        let pred = vp.predict(0x7000);
        assert!(!pred.hit);
        let mut held = ValueEntry::new(&vp.cfg.base, 0, 0);
        held.useful = 2;
        let n = vp.tables.tagged.num_tables();
        for t in 0..n {
            *vp.tables.tagged.entry_mut(&pred.probe, t) = held.clone();
        }
        vp.update(&pred, 5, 0);
        for t in 0..n {
            assert_eq!(vp.tables.tagged.entry(&pred.probe, t).useful, 2, "table {t}");
        }
    }

    #[test]
    fn window_capacity_limits_chaining() {
        let mut vp =
            Dvtage::new(DvtageConfig { spec_window: 2, ..DvtageConfig::paper(PredMode::Full64) });
        let mut v = 0u64;
        for seq in 0..4000u64 {
            let p = vp.predict(0x6000);
            vp.update(&p, v, seq);
            v += 4;
        }
        for i in 0..5u64 {
            let p = vp.predict(0x6000);
            vp.note_inflight(&p, 30_000 + i);
        }
        assert_eq!(vp.inflight(), 2, "window spills oldest instances");
    }
}
