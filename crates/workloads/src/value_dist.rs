//! Dynamic value distribution analysis (paper Fig. 1).
//!
//! Fig. 1 plots the distribution of values produced by instructions
//! writing general-purpose registers across SPEC CPU2017: `0x0` is the
//! most produced value (≈5%), `0x1` is third, and narrow values
//! dominate the top of the distribution — the observation motivating
//! MVP and TVP.

use std::collections::BTreeMap;

use crate::trace::Trace;

/// A value histogram over GPR-producing micro-ops.
#[derive(Clone, Debug, Default)]
pub struct ValueDistribution {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl ValueDistribution {
    /// Creates an empty distribution.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates every GPR-producing µop of a trace.
    pub fn add_trace(&mut self, trace: &Trace) {
        for u in &trace.uops {
            if u.uop.produces_gpr() {
                if let Some(v) = u.result {
                    *self.counts.entry(v).or_insert(0) += 1;
                    self.total += 1;
                }
            }
        }
    }

    /// Number of accumulated value productions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `n` most produced values with their dynamic share (descending,
    /// ties broken by value for determinism).
    #[must_use]
    pub fn top(&self, n: usize) -> Vec<(u64, f64)> {
        let mut entries: Vec<(u64, u64)> = self.counts.iter().map(|(&v, &c)| (v, c)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.into_iter().take(n).map(|(v, c)| (v, c as f64 / self.total as f64)).collect()
    }

    /// Dynamic share of a specific value.
    #[must_use]
    pub fn share(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        *self.counts.get(&value).unwrap_or(&0) as f64 / self.total as f64
    }

    /// Dynamic share of values admissible under a 9-bit signed
    /// representation (the TVP/register-inlining range).
    #[must_use]
    pub fn narrow9_share(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let narrow: u64 = self
            .counts
            .iter()
            .filter(|(&v, _)| (-256..=255).contains(&(v as i64)))
            .map(|(_, &c)| c)
            .sum();
        narrow as f64 / self.total as f64
    }

    /// Dynamic share of `0x0` and `0x1` combined (the MVP range).
    #[must_use]
    pub fn zero_one_share(&self) -> f64 {
        self.share(0) + self.share(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::suite;

    #[test]
    fn suite_distribution_matches_fig1_shape() {
        let mut dist = ValueDistribution::new();
        for w in suite() {
            dist.add_trace(&w.trace(20_000));
        }
        assert!(dist.total() > 100_000);
        // Fig. 1 shape: 0x0 is the most produced value.
        let top = dist.top(10);
        assert_eq!(top[0].0, 0, "0x0 must top the distribution, got {top:#x?}");
        // 0x0 share is a few percent or more.
        assert!(dist.share(0) > 0.03, "0x0 share = {}", dist.share(0));
        // 0x1 is prominent (top-5 in our suite; 3rd in the paper).
        assert!(top.iter().take(5).any(|&(val, _)| val == 1), "0x1 missing from top-5: {top:#x?}");
        // Narrow values dominate: the 9-bit share far exceeds the
        // 0/1-only share, which is the TVP-over-MVP argument.
        assert!(dist.narrow9_share() > dist.zero_one_share() + 0.10);
        assert!(dist.narrow9_share() > 0.25, "narrow9 = {}", dist.narrow9_share());
    }

    #[test]
    fn share_and_top_are_consistent() {
        let mut dist = ValueDistribution::new();
        dist.add_trace(&suite()[0].trace(5_000));
        let top = dist.top(3);
        for (v, share) in top {
            assert!((dist.share(v) - share).abs() < 1e-12);
        }
    }

    #[test]
    fn folding_source_chunks_equals_the_materialized_trace() {
        use crate::stream::TraceSource;
        use crate::suite::by_name;
        use crate::trace::Trace;

        const INSTS: u64 = 20_000;
        for name in ["string_match", "pointer_chase", "mc_playout"] {
            let w = by_name(name).expect("suite workload");
            let mut whole = ValueDistribution::new();
            whole.add_trace(&w.trace(INSTS));

            let mut folded = ValueDistribution::new();
            let mut source = w.source();
            let mut chunk = Trace::default();
            let mut left = INSTS;
            while left > 0 {
                let want = left.min(1_024);
                chunk.uops.clear();
                chunk.arch_insts = 0;
                let got = source.fill(want, &mut chunk).expect("machine source cannot fail");
                assert_eq!(got, want, "{name} halted early");
                folded.add_trace(&chunk);
                left -= got;
            }
            assert_eq!(folded.total(), whole.total(), "{name}: total");
            assert_eq!(folded.top(20), whole.top(20), "{name}: top 20");
        }
    }

    #[test]
    fn empty_distribution_is_safe() {
        let dist = ValueDistribution::new();
        assert_eq!(dist.total(), 0);
        assert_eq!(dist.share(0), 0.0);
        assert!(dist.top(5).is_empty());
        assert_eq!(dist.narrow9_share(), 0.0);
    }
}
