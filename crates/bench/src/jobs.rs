//! Simulation points as keyed jobs.
//!
//! Every (workload × configuration) point an experiment wants is an
//! [`ExpKey`]: the workload id, the instruction budget, the chaos seed
//! (when a campaign is armed) and a fingerprint of the *complete*
//! [`CoreConfig`]. Two experiments that ask for the same point get the
//! same key, so the engine simulates it exactly once and both read the
//! cached [`SimPoint`].

use tvp_core::config::CoreConfig;
use tvp_core::stats::SimStats;
use tvp_isa::stream::{fnv1a, fnv1a_fold};

/// FNV-1a over a key's components — the digest of [`ExpKey`] and of
/// the store's decoded `BlobKey`, which must agree for a blob to sit
/// under its own content address.
pub(crate) fn key_digest(
    workload: &str,
    insts: u64,
    chaos_seed: Option<u64>,
    config_fp: &str,
) -> u64 {
    let h = fnv1a(workload.as_bytes());
    let h = fnv1a_fold(h, &insts.to_le_bytes());
    let h = fnv1a_fold(h, &chaos_seed.unwrap_or(0).to_le_bytes());
    fnv1a_fold(h, config_fp.as_bytes())
}

/// Canonical identity of one simulation point.
///
/// The configuration fingerprint is the `Debug` rendering of the full
/// [`CoreConfig`]. Every field (including the nested TAGE, VTAGE,
/// memory-hierarchy and chaos sub-configs) derives `Debug`
/// structurally, so the rendering is injective: configurations that
/// differ in *any* field produce different fingerprints (locked by the
/// `fingerprint_covers_every_field` property test), and identical
/// configurations always collide — which is exactly what keys a
/// dedup cache.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExpKey {
    /// Bundled workload name (trace identity — traces are a pure
    /// function of workload and budget).
    pub workload: &'static str,
    /// Architectural instruction budget the trace was generated at.
    pub insts: u64,
    /// Chaos campaign seed, when fault injection is armed. Redundant
    /// with the fingerprint (the seed is part of `CoreConfig::chaos`)
    /// but kept as a first-class component so chaos points are
    /// self-describing in failure reports and telemetry.
    pub chaos_seed: Option<u64>,
    /// `Debug` rendering of the complete `CoreConfig`.
    pub config_fp: String,
}

impl ExpKey {
    /// Keys a simulation point.
    #[must_use]
    pub fn new(workload: &'static str, insts: u64, cfg: &CoreConfig) -> Self {
        ExpKey {
            workload,
            insts,
            chaos_seed: cfg.chaos.as_ref().map(|c| c.seed),
            config_fp: format!("{cfg:?}"),
        }
    }

    /// Short stable digest of the key (FNV-1a over all components),
    /// used to label jobs in telemetry without embedding the full
    /// fingerprint string.
    #[must_use]
    pub fn digest(&self) -> u64 {
        key_digest(self.workload, self.insts, self.chaos_seed, &self.config_fp)
    }

    /// Compact human-readable form for failure reports and progress
    /// lines: `workload@insts[/chaos:seed]#digest`.
    #[must_use]
    pub fn display(&self) -> String {
        let chaos = match self.chaos_seed {
            Some(seed) => format!("/chaos:{seed:#x}"),
            None => String::new(),
        };
        format!("{}@{}{}#{:016x}", self.workload, self.insts, chaos, self.digest())
    }
}

/// One schedulable simulation: the key plus the configuration needed
/// to actually run it (the key alone is a fingerprint, not a config).
#[derive(Clone, Debug)]
pub struct Job {
    /// Canonical identity (cache key).
    pub key: ExpKey,
    /// The configuration to simulate under.
    pub cfg: CoreConfig,
}

impl Job {
    /// Builds a job (and its key) for one simulation point.
    #[must_use]
    pub fn new(workload: &'static str, insts: u64, cfg: CoreConfig) -> Self {
        let key = ExpKey::new(workload, insts, &cfg);
        Job { key, cfg }
    }
}

/// The result of simulating one job. Deterministic: a pure function of
/// the job's key (trace × configuration), which is what makes the
/// result cache and the serial/parallel equivalence sound. Wall-clock
/// timings deliberately live in the runner's telemetry, *not* here, so
/// two runs of the same key compare equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimPoint {
    /// Full statistics of the simulated point.
    pub stats: SimStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_core::config::VpMode;

    #[test]
    fn identical_configs_collide_and_different_ones_do_not() {
        let a = ExpKey::new("k", 1000, &CoreConfig::table2());
        let b = ExpKey::new("k", 1000, &CoreConfig::table2());
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());

        let c = ExpKey::new("k", 1000, &CoreConfig::with_vp(VpMode::Tvp));
        assert_ne!(a, c);
        let d = ExpKey::new("k", 2000, &CoreConfig::table2());
        assert_ne!(a, d);
        let e = ExpKey::new("other", 1000, &CoreConfig::table2());
        assert_ne!(a, e);
    }

    #[test]
    fn chaos_seed_is_lifted_out_of_the_config() {
        let cfg = CoreConfig::table2().with_chaos(tvp_chaos::ChaosConfig::campaign(0xBEEF));
        let key = ExpKey::new("k", 10, &cfg);
        assert_eq!(key.chaos_seed, Some(0xBEEF));
        assert!(key.display().contains("/chaos:0xbeef"));

        let quiet = ExpKey::new("k", 10, &CoreConfig::table2());
        assert_eq!(quiet.chaos_seed, None);
        assert_ne!(key, quiet);
    }
}
