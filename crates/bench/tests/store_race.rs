//! Concurrent-publish race on the durable store (DESIGN.md §14):
//! two handles on the same store directory publish the *same* key at
//! the same time, across a loop of barrier-synchronised
//! interleavings.
//!
//! The invariants under test:
//!
//! - both publishes succeed (blob bytes are a pure function of the
//!   key, so the race has no wrong winner);
//! - exactly one blob survives under the content address and it fully
//!   re-verifies (checksum, schema, echoed key);
//! - the journal replays the point as completed exactly once, no
//!   matter how many `done` records the racers appended;
//! - when the loser observably loses (publishes after the winner's
//!   blob landed), it is *counted* (`duplicate_publishes`), not
//!   silently absorbed.

use std::sync::{Arc, Barrier};

use tvp_bench::jobs::{ExpKey, SimPoint};
use tvp_bench::store::{LoadOutcome, ResultStore, StoreConfig};
use tvp_core::config::{CoreConfig, VpMode};
use tvp_core::stats::SimStats;

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tvp-race-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key_for(round: u64) -> ExpKey {
    let mut cfg = CoreConfig::with_vp(VpMode::Tvp);
    cfg.watchdog_cycles += round; // distinct digest per round
    ExpKey::new("string_match", 5_000, &cfg)
}

fn point_for(key: &ExpKey) -> SimPoint {
    SimPoint { stats: SimStats { cycles: 100 + key.digest() % 100, ..Default::default() } }
}

#[test]
fn racing_publishes_of_the_same_key_leave_one_valid_blob() {
    let dir = scratch("pair");
    // First open initializes the layout + journal. Each racer opens its
    // own handle before the barrier, so no open can sweep `tmp/` or
    // repair the journal while the other racer is writing.
    drop(ResultStore::open(StoreConfig::at(&dir)).expect("initialize store"));

    const ROUNDS: u64 = 24;
    for round in 0..ROUNDS {
        let key = key_for(round);
        let point = point_for(&key);
        let barrier = Arc::new(Barrier::new(2));
        let counts: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let barrier = Arc::clone(&barrier);
                    let (dir, key, point) = (dir.clone(), key.clone(), point);
                    scope.spawn(move || {
                        let mut store =
                            ResultStore::open(StoreConfig::at(&dir)).expect("racer open");
                        barrier.wait();
                        store.publish(&key, &point).expect("racing publish succeeds");
                        store.counters().duplicate_publishes
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("racer thread")).collect()
        });

        // Exactly one blob under the content address, fully valid.
        let blob = dir.join("blobs").join(format!("{:016x}.blob", key.digest()));
        assert!(blob.exists(), "round {round}: blob must exist");
        let mut verifier = ResultStore::open(StoreConfig::at(&dir)).expect("verifier");
        match verifier.load(&key) {
            LoadOutcome::Hit(p) => assert_eq!(*p, point, "round {round}: winner's bytes verify"),
            other => panic!("round {round}: expected a warm hit, got {other:?}"),
        }
        // Completed exactly once in the replayed journal.
        assert!(verifier.journal_state().completed.contains(&key.digest()));
        // At most one loser can have observed the winner's blob.
        assert!(counts.iter().sum::<u64>() <= 1, "round {round}: counts {counts:?}");
    }

    // All ROUNDS digests intact at the end — no cross-round damage.
    let mut store = ResultStore::open(StoreConfig::at(&dir)).expect("final open");
    for round in 0..ROUNDS {
        let key = key_for(round);
        assert!(
            matches!(store.load(&key), LoadOutcome::Hit(_)),
            "round {round}: blob survived the campaign"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observable_loser_is_counted_not_hidden() {
    // The deterministic half: handle B publishes strictly after A's
    // blob is durable, so B *must* see the collision and count it.
    let dir = scratch("loser");
    let key = key_for(1000);
    let point = point_for(&key);
    let mut a = ResultStore::open(StoreConfig::at(&dir)).expect("open a");
    let mut b = ResultStore::open(StoreConfig::at(&dir)).expect("open b");
    a.publish(&key, &point).expect("winner publish");
    b.publish(&key, &point).expect("loser publish");
    assert_eq!(a.counters().duplicate_publishes, 0);
    assert_eq!(b.counters().duplicate_publishes, 1, "the loser is counted");
    assert!(b.summary().contains("duplicate"), "and surfaced in the summary");
    // The store is still perfectly healthy.
    let report = tvp_bench::store::fsck::fsck(&dir).expect("fsck");
    assert!(report.clean(), "{}", report.summary());
    let _ = std::fs::remove_dir_all(&dir);
}
