//! Property-based tests of the prediction structures.

use proptest::prelude::*;
use tvp_predictors::fpc::Fpc;
use tvp_predictors::history::{
    BranchHistory, FoldedSpec, HistoryFolds, MAX_HISTORY_BITS, MAX_REWIND,
};
use tvp_predictors::util::XorShift64;
use tvp_predictors::vtage::{PredMode, Vtage, VtageConfig};

proptest! {
    #[test]
    fn folded_history_depends_only_on_window(
        prefix_a in proptest::collection::vec(any::<bool>(), 0..100),
        prefix_b in proptest::collection::vec(any::<bool>(), 0..100),
        window in proptest::collection::vec(any::<bool>(), 32..64),
        hist_len in 4u32..32,
        width in 2u32..16,
    ) {
        let folds = HistoryFolds::new(&[FoldedSpec { hist_len, width }]);
        let fold = |prefix: &[bool]| {
            let mut h = BranchHistory::new();
            for &b in prefix.iter().chain(&window) {
                h.push(&folds, b);
            }
            h.folded(0)
        };
        // `window` is longer than `hist_len`, so both folds see the
        // same effective history regardless of prefix.
        prop_assert_eq!(fold(&prefix_a), fold(&prefix_b));
    }

    #[test]
    fn folded_history_stays_in_range(
        bits in proptest::collection::vec(any::<bool>(), 1..200),
        width in 1u32..20,
    ) {
        let folds = HistoryFolds::new(&[FoldedSpec { hist_len: 16, width }]);
        let mut h = BranchHistory::new();
        for b in bits {
            h.push(&folds, b);
            prop_assert!(h.folded(0) < (1u64 << width));
        }
    }

    #[test]
    fn rewinding_the_ring_matches_a_copied_history(
        ops in proptest::collection::vec((0u8..16, any::<bool>(), 0u64..1_000), 1..600),
    ) {
        // TAGE's fold geometry (lengths 5..640) plus the longest fold
        // the ring supports. Marks are taken and rewound to as a
        // pipeline does: a rewind drops every younger mark, and no mark
        // is older than the in-flight bound.
        let mut specs: Vec<FoldedSpec> = [5u32, 9, 15, 25, 44, 76, 130, 224, 384, 640]
            .iter()
            .map(|&hist_len| FoldedSpec { hist_len, width: 10 })
            .collect();
        specs.push(FoldedSpec { hist_len: MAX_HISTORY_BITS as u32, width: 13 });
        let folds = HistoryFolds::new(&specs);
        let mut h = BranchHistory::new();
        let mut marks: Vec<(_, BranchHistory)> = Vec::new();
        for (op, taken, pick) in ops {
            match op {
                0 => marks.push((h.mark(), h.clone())),
                1 if !marks.is_empty() => {
                    let keep = pick as usize % marks.len();
                    let (mark, copy) = marks[keep].clone();
                    marks.truncate(keep + 1);
                    h.rewind(&folds, mark);
                    prop_assert_eq!(h.len(), copy.len());
                    for view in 0..specs.len() {
                        prop_assert_eq!(h.folded(view), copy.folded(view), "view {}", view);
                    }
                    for age in [0, 1, 63, 64, 639, MAX_HISTORY_BITS as u64 - 1] {
                        prop_assert_eq!(h.bit(age), copy.bit(age), "age {}", age);
                    }
                }
                _ => {
                    // Long runs of pushes, so the ring wraps many times.
                    for i in 0..=(pick % 8) {
                        h.push(&folds, taken ^ (i % 3 == 0));
                    }
                }
            }
            // Marks older than the in-flight bound have committed.
            marks.retain(|(_, copy)| h.len() - copy.len() <= MAX_REWIND);
        }
    }

    #[test]
    fn fpc_level_is_monotone_and_bounded(
        outcomes in proptest::collection::vec(any::<bool>(), 1..500),
        seed: u64,
    ) {
        let mut rng = XorShift64::new(seed);
        let mut c = Fpc::new(3, 4);
        for correct in outcomes {
            let before = c.level();
            if correct {
                c.on_correct(&mut rng);
                prop_assert!(c.level() >= before);
                prop_assert!(c.level() <= before + 1);
            } else {
                c.reset();
                prop_assert_eq!(c.level(), 0);
            }
            prop_assert!(c.level() <= 7);
        }
    }

    #[test]
    fn vtage_never_predicts_inadmissible_values_confidently(
        values in proptest::collection::vec(0u64..1024, 50..200),
    ) {
        // Train an MVP-width predictor on arbitrary small values; any
        // confident prediction it ever makes must be 0 or 1.
        let mut vp = Vtage::new(VtageConfig::paper(PredMode::ZeroOne));
        for (i, &v) in values.iter().cycle().take(3_000).enumerate() {
            let p = vp.predict(0x1000 + (i as u64 % 8) * 4);
            if p.confident {
                prop_assert!(p.value <= 1, "confident about {}", p.value);
            }
            vp.update(&p, v);
        }
    }

    #[test]
    fn vtage_storage_scales_monotonically(f1 in 0.1f64..4.0, f2 in 0.1f64..4.0) {
        let base = VtageConfig::paper(PredMode::Narrow9);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let s_lo = base.clone().scaled(lo).storage_bits();
        let s_hi = base.clone().scaled(hi).storage_bits();
        prop_assert!(s_lo <= s_hi, "{lo} → {s_lo}, {hi} → {s_hi}");
    }

    #[test]
    fn vtage_checkpoint_restore_is_lossless(
        outcomes in proptest::collection::vec(any::<bool>(), 1..100),
        extra in proptest::collection::vec(any::<bool>(), 1..50),
    ) {
        let mut vp = Vtage::new(VtageConfig::paper(PredMode::Full64));
        for &t in &outcomes {
            vp.push_history(t);
        }
        let ckpt = vp.history_checkpoint();
        let before = vp.predict(0xBEEF0);
        for &t in &extra {
            vp.push_history(t);
        }
        vp.restore_history(ckpt);
        let after = vp.predict(0xBEEF0);
        prop_assert_eq!(before.hit, after.hit);
        prop_assert_eq!(before.value, after.value);
    }
}

#[test]
fn tage_beats_bimodal_on_history_patterns() {
    // Not strictly a property test, but a randomized comparison: on
    // period-k patterns TAGE must outperform a pure bimodal table.
    use tvp_predictors::tage::{Tage, TageConfig};
    for period in [3u64, 5, 7] {
        let mut tage = Tage::new(TageConfig {
            num_tables: 6,
            min_hist: 4,
            max_hist: 64,
            base_log2: 8,
            tagged_log2: 8,
            tag_bits: vec![8, 9, 9, 10, 10, 11],
            u_reset_period: 1 << 20,
            seed: 3,
        });
        let mut correct = 0u64;
        let total = 30_000u64;
        for i in 0..total {
            let taken = i % period == 0;
            let token = tage.predict(0x1234);
            tage.push_history(taken);
            if token.taken == taken {
                correct += 1;
            }
            tage.update(&token, taken);
        }
        let acc = correct as f64 / total as f64;
        let bimodal_bound = (period - 1) as f64 / period as f64;
        assert!(
            acc > bimodal_bound + 0.02,
            "period {period}: TAGE {acc} vs bimodal bound {bimodal_bound}"
        );
    }
}
