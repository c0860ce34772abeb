//! Keyed result cache with hit/miss accounting.
//!
//! The engine requests every simulation point each experiment wants;
//! the cache turns that request stream into a deduplicated schedule
//! (first request for a key is a **miss** and schedules the job, every
//! repeat is a **hit**) and afterwards serves the simulated
//! [`SimPoint`]s back to the assembly phase. Shared points — the
//! VP-off baseline appears in seven of the eleven experiments — are
//! therefore simulated exactly once per `run_all` invocation.

use std::collections::BTreeMap;

use crate::jobs::{ExpKey, Job, SimPoint};

/// Deduplicating store of simulated points, keyed by [`ExpKey`].
#[derive(Debug, Default)]
pub struct ResultCache {
    points: BTreeMap<ExpKey, SimPoint>,
    scheduled: BTreeMap<ExpKey, Job>,
    hits: u64,
    misses: u64,
    conflicts: u64,
}

impl ResultCache {
    /// Empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests one simulation point. The first request for a key
    /// schedules its job and counts as a miss; any further request for
    /// the same key (same experiment or a different one) is a hit and
    /// schedules nothing.
    pub fn request(&mut self, job: &Job) {
        if self.points.contains_key(&job.key) || self.scheduled.contains_key(&job.key) {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.scheduled.insert(job.key.clone(), job.clone());
        }
    }

    /// Drains the scheduled (deduplicated) jobs for the runner, in
    /// deterministic key order.
    pub fn take_scheduled(&mut self) -> Vec<Job> {
        std::mem::take(&mut self.scheduled).into_values().collect()
    }

    /// Stores one simulated point. Double-inserting the *same* value
    /// for a key is harmless (warm store + fresh simulation can race
    /// to the same answer); double-inserting a *different* value means
    /// two sources disagree about a deterministic point — a
    /// determinism bug. Conflicts are counted (and debug-asserted) and
    /// the first value wins, so a verified store blob is never
    /// silently displaced.
    pub fn insert(&mut self, key: ExpKey, point: SimPoint) {
        if let Some(existing) = self.points.get(&key) {
            if *existing != point {
                self.conflicts += 1;
                debug_assert_eq!(
                    *existing,
                    point,
                    "cache conflict: two values for one key {}",
                    key.display()
                );
            }
            return;
        }
        self.points.insert(key, point);
    }

    /// Looks up a simulated point (assembly phase; not counted in the
    /// hit/miss accounting, which describes scheduling dedup).
    #[must_use]
    pub fn get(&self, key: &ExpKey) -> Option<&SimPoint> {
        self.points.get(key)
    }

    /// Requests answered from already-requested keys.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests that scheduled a fresh simulation.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Double-inserts that disagreed on a key's value (determinism
    /// bugs; always 0 on a healthy run).
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// `hits / (hits + misses)`, or 0 for an untouched cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }

    /// Number of distinct points currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_core::config::{CoreConfig, VpMode};
    use tvp_core::stats::SimStats;

    fn job(workload: &'static str, vp: VpMode) -> Job {
        Job::new(workload, 1_000, CoreConfig::with_vp(vp))
    }

    #[test]
    fn dedup_accounting() {
        let mut cache = ResultCache::new();
        // Two experiments both want the k/Off baseline; only one wants
        // the TVP point.
        cache.request(&job("k", VpMode::Off));
        cache.request(&job("k", VpMode::Tvp));
        cache.request(&job("k", VpMode::Off));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 1);
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);

        let scheduled = cache.take_scheduled();
        assert_eq!(scheduled.len(), 2, "shared baseline scheduled once");

        // A request after simulation is still a hit, not a reschedule.
        let key = scheduled[0].key.clone();
        cache.insert(key.clone(), SimPoint { stats: SimStats::default() });
        cache.request(&scheduled[0].clone());
        assert_eq!(cache.hits(), 2);
        assert!(cache.take_scheduled().is_empty());
        assert!(cache.get(&key).is_some());
    }

    #[test]
    fn same_value_double_insert_is_not_a_conflict() {
        let mut cache = ResultCache::new();
        let key = job("k", VpMode::Tvp).key;
        let point = SimPoint { stats: SimStats { cycles: 9, ..Default::default() } };
        cache.insert(key.clone(), point);
        cache.insert(key.clone(), point);
        assert_eq!(cache.conflicts(), 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key), Some(&point));
    }

    #[test]
    fn disagreeing_double_insert_counts_a_conflict_and_keeps_first() {
        let mut cache = ResultCache::new();
        let key = job("k", VpMode::Tvp).key;
        let first = SimPoint { stats: SimStats { cycles: 9, ..Default::default() } };
        let second = SimPoint { stats: SimStats { cycles: 10, ..Default::default() } };
        cache.insert(key.clone(), first);
        // In debug builds the conflict also debug-asserts; swallow the
        // panic so the counter behaviour stays testable.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.insert(key.clone(), second);
        }));
        assert_eq!(cache.conflicts(), 1);
        assert_eq!(cache.get(&key), Some(&first), "first value wins");
    }

    #[test]
    fn empty_cache_rate_is_zero() {
        let cache = ResultCache::new();
        assert_eq!(cache.hit_rate(), 0.0);
        assert!(cache.is_empty());
        assert_eq!(cache.len(), 0);
    }
}
