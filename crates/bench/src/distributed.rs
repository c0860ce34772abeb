//! What is left of the retired multi-process campaign fabric: the two
//! items the one campaign path still uses.
//!
//! A store has one writing process at a time (DESIGN.md §14), and
//! every full-detail campaign runs through `engine::run`, which
//! journals its cold schedule in [`LEASE_BATCH`]-sized appends and
//! prints the [`campaign_fingerprint`] of its schedule. Both stay
//! here, under their old path, because `simbench` names
//! `tvp_bench::distributed::LEASE_BATCH` and is a separate package;
//! the module moves when `simbench` is next edited.

use tvp_isa::stream::{fnv1a_fold, FNV1A_OFFSET};

/// Points leased per journal append. Each batch is one atomic
/// append, so a crash mid-campaign leaves at most one torn batch
/// record instead of one giant torn line.
pub const LEASE_BATCH: usize = 64;

/// Order-sensitive FNV-1a fold over the schedule's key digests — the
/// identity of *what a campaign simulates*. Serial, `--jobs N`, cold,
/// resumed and warm runs of the same experiment set and budget compute
/// the same value; it is printed by every engine run and recorded in
/// telemetry so CI can compare runs without diffing files.
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
