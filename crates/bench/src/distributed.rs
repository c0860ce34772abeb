//! What is left of the retired multi-process campaign fabric.
//!
//! A store has one writing process at a time (DESIGN.md §14), and
//! every full-detail campaign runs through `engine::run`, which prints
//! the [`campaign_fingerprint`] of its schedule. The fold stays here,
//! under its old path, because `simbench`, a separate package, names
//! `tvp_bench::distributed::LEASE_BATCH`; the module moves when
//! `simbench` is next edited.

use tvp_isa::stream::{fnv1a_fold, FNV1A_OFFSET};

/// Read by nothing in the workspace. It is kept only because simbench,
/// a separate package, still passes it to
/// [`ResultStore::lease_all`](crate::store::ResultStore::lease_all);
/// the next change to the benchmark (ROADMAP item 1) deletes it
/// together with that call.
pub const LEASE_BATCH: usize = 64;

/// Order-sensitive FNV-1a fold over the schedule's key digests — the
/// identity of *what a campaign simulates*. Serial, `--jobs N`, cold,
/// resumed and warm runs of the same experiment set and budget compute
/// the same value; it is printed by every engine run and recorded in
/// telemetry so CI can compare runs without diffing files. A sampled
/// campaign folds its runs' fingerprints through it too
/// ([`crate::sampling::campaign_fingerprint`]).
#[must_use]
pub fn campaign_fingerprint(digests: impl Iterator<Item = u64>) -> u64 {
    digests.fold(FNV1A_OFFSET, |h, d| fnv1a_fold(h, &d.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let a = campaign_fingerprint([1u64, 2, 3].into_iter());
        let b = campaign_fingerprint([1u64, 2, 3].into_iter());
        let c = campaign_fingerprint([3u64, 2, 1].into_iter());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, campaign_fingerprint([1u64, 2].into_iter()));
    }
}
