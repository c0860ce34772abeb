//! Concurrent claims on the store journal (DESIGN.md §16.2): several
//! shared handles claim the *same* points at the same time, across a
//! loop of barrier-synchronised rounds.
//!
//! Each round, every handle runs the worker's claim loop over the same
//! candidate keys (each in its own rotated order, small batches):
//! refresh, claim the points not yet held, repeat until none is left.
//! Then each handle claims every point once more. The invariants:
//!
//! - every point ends with exactly one owner, and the handles' won
//!   sets are disjoint and together cover every point;
//! - a claim on a held point never wins, so after the final claims
//!   each handle holds exactly what it won;
//! - each handle's refreshed journal state equals a replay of the
//!   journal file.

use std::collections::BTreeSet;
use std::sync::Barrier;

use tvp_bench::jobs::ExpKey;
use tvp_bench::store::manifest::{replay, JOURNAL_FILE};
use tvp_bench::store::{ResultStore, StoreConfig};
use tvp_core::config::{CoreConfig, VpMode};

const HANDLES: usize = 3;
const ROUNDS: u64 = 24;
const KEYS: usize = 8;
const BATCH: usize = 3;

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tvp-claims-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key_for(round: u64, i: usize) -> ExpKey {
    let mut cfg = CoreConfig::with_vp(VpMode::Tvp);
    cfg.watchdog_cycles += round * KEYS as u64 + i as u64; // distinct digests
    ExpKey::new("string_match", 5_000, &cfg)
}

/// The worker's claim loop on `keys`, starting at `offset`: returns the
/// digests this handle won.
fn claim_until_all_held(store: &mut ResultStore, keys: &[ExpKey], offset: usize) -> BTreeSet<u64> {
    let worker = format!("w{offset}");
    let order: Vec<&ExpKey> = keys.iter().cycle().skip(offset).take(keys.len()).collect();
    let mut won = BTreeSet::new();
    loop {
        store.refresh().expect("refresh");
        let owners = &store.journal_state().owners;
        let free: Vec<&ExpKey> =
            order.iter().copied().filter(|k| !owners.contains_key(&k.digest())).collect();
        if free.is_empty() {
            return won;
        }
        for (i, _) in store.acquire_lease_batch(&free, &worker, BATCH).expect("claim") {
            won.insert(free[i].digest());
        }
    }
}

#[test]
fn racing_claims_leave_exactly_one_owner_per_point() {
    let dir = scratch("race");
    // First open initializes the layout + journal; the claimers then
    // attach shared, as workers do.
    drop(ResultStore::open(StoreConfig::at(&dir)).expect("initialize store"));
    // Handle h starts its claims at key `offset(h)` as worker `w<offset>`.
    let offset = |h: usize| h * KEYS / HANDLES;

    for round in 0..ROUNDS {
        let keys: Vec<ExpKey> = (0..KEYS).map(|i| key_for(round, i)).collect();
        let all: BTreeSet<u64> = keys.iter().map(ExpKey::digest).collect();
        let barrier = Barrier::new(HANDLES);
        let mut claimers: Vec<(ResultStore, BTreeSet<u64>)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..HANDLES)
                .map(|h| {
                    let (dir, keys, barrier) = (&dir, &keys, &barrier);
                    scope.spawn(move || {
                        let mut store =
                            ResultStore::open_shared(StoreConfig::at(dir)).expect("shared open");
                        barrier.wait();
                        let won = claim_until_all_held(&mut store, keys, offset(h));
                        (store, won)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("claimer thread")).collect()
        });

        // Every handle claims every point again: all are held, so every
        // such claim loses, and a handle keeps exactly what it held.
        let refs: Vec<&ExpKey> = keys.iter().collect();
        for (h, (store, won)) in claimers.iter_mut().enumerate() {
            let worker = format!("w{}", offset(h));
            let held = store.acquire_lease_batch(&refs, &worker, KEYS).expect("re-claim");
            let held: BTreeSet<u64> = held.iter().map(|&(i, _)| refs[i].digest()).collect();
            assert_eq!(&held, won, "round {round}: handle {h}'s re-claim changed its holds");
        }

        let replayed =
            replay(&std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("read journal"));
        let mut covered = BTreeSet::new();
        for (h, (store, won)) in claimers.iter_mut().enumerate() {
            assert!(covered.is_disjoint(won), "round {round}: handle {h} shares a won point");
            covered.extend(won.iter().copied());
            let worker = format!("w{}", offset(h));
            for d in won.iter() {
                assert!(replayed.holds(*d, &worker, 1), "round {round}: {d:016x} not {worker}'s");
            }
            store.refresh().expect("final refresh");
            assert_eq!(store.journal_state(), &replayed, "round {round}: handle {h} view");
        }
        assert_eq!(covered, all, "round {round}: every point has a winner");
        let owned: BTreeSet<u64> =
            replayed.owners.keys().copied().filter(|d| all.contains(d)).collect();
        assert_eq!(owned, all, "round {round}: every point has exactly one owner");
        assert_eq!(replayed.skipped_lines, 0, "round {round}: whole records only");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
