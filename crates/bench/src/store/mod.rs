//! Durable content-addressed result store — crash-safe resumable
//! campaigns.
//!
//! The in-process [`ResultCache`](crate::cache::ResultCache) dedups
//! points *within* one `run_all`; this store dedups them *across*
//! runs and across crashes. Every simulated point is published as a
//! self-verifying blob (see [`blob`]) under its key's content address,
//! and the blobs are the whole record: a killed campaign resumes by
//! loading every blob that verifies and simulating the rest, and a
//! corrupted blob is quarantined and re-simulated instead of poisoning
//! the results. A store has one writing process at a time.
//!
//! On-disk layout (`--store DIR` / `$TVP_STORE_DIR`):
//!
//! ```text
//! <dir>/
//!   blobs/<digest:016x>.blob        one verified point per file
//!   checkpoints/<digest:016x>.ckpt  newest checkpoint of a sampled run
//!   quarantine/<digest>.<reason>.<n>.blob   corrupt files, set aside
//!   tmp/                            scratch for atomic writes
//! ```
//!
//! `journal.log`, left in older stores by the retired campaign journal,
//! and `leases/`, `workers/` and `campaign.manifest`, left by the
//! retired multi-process fabric, are ignored: nothing reads or writes
//! them.
//!
//! Guarantees:
//!
//! - **Atomic writes.** One function, `write_atomic`, writes every
//!   file the store owns — blobs and checkpoints: scratch file in
//!   `tmp/`, fsync, rename into place, fsync of the directory. A
//!   reader (or a resumed campaign) can observe a file fully or not at
//!   all — never torn. A crash can at worst leave scratch files in
//!   `tmp/`, which the next open sweeps.
//! - **Verified loads.** [`ResultStore::load`] and
//!   [`ResultStore::load_checkpoint`] share one body that re-verifies
//!   everything: magic, schema, lengths, checksum, and that the key
//!   echoed inside the file is field-for-field the key that was asked
//!   for. A file that fails is renamed into `quarantine/` (evidence
//!   preserved), counted, and reported as a miss so the engine
//!   re-simulates it.
//! - **Determinism.** The store holds only deterministic simulation
//!   results keyed by deterministic fingerprints; blob bytes are a
//!   pure function of (key, point). This module is bound by the
//!   `determinism-audit` lint rule: no wall clocks, no environment
//!   reads — the kill knob and directory arrive via [`StoreConfig`].

use std::collections::BTreeSet;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

use crate::jobs::{ExpKey, SimPoint};
use crate::sampling::SampleKey;
use checkpoint::Checkpoint;

pub mod blob;
pub mod checkpoint;
pub mod fsck;

use blob::BlobError;

/// Exit code of a campaign deliberately killed by the
/// [`StoreConfig::kill_after`] chaos knob (CI's resume-smoke asserts
/// on it to distinguish the staged kill from a real failure).
pub const KILL_EXIT_CODE: i32 = 42;

/// Blob subdirectory name.
pub const BLOBS_DIR: &str = "blobs";
/// Checkpoint subdirectory name (sampled-campaign resume state).
pub const CHECKPOINTS_DIR: &str = "checkpoints";
/// Quarantine subdirectory name.
pub const QUARANTINE_DIR: &str = "quarantine";
/// Scratch subdirectory for atomic publication.
pub const TMP_DIR: &str = "tmp";

/// How the store is opened. No environment is read here — the engine
/// resolves `$TVP_STORE_DIR` / `$TVP_STORE_KILL_AFTER` and passes the
/// results in, keeping this module a pure function of its inputs.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Store root directory (created if missing).
    pub dir: PathBuf,
    /// Chaos knob: the process exits with [`KILL_EXIT_CODE`] right
    /// after the N-th blob or checkpoint becomes durable — a death
    /// between two publications, for kill-resume testing.
    pub kill_after: Option<u64>,
}

impl StoreConfig {
    /// A plain store at `dir` with no kill knob armed.
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        StoreConfig { dir: dir.into(), kill_after: None }
    }
}

/// Store activity counters for telemetry and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Loads served by a verified on-disk blob or checkpoint.
    pub warm_hits: u64,
    /// Loads that found no usable file.
    pub misses: u64,
    /// Corrupt / torn / version-skewed files moved to quarantine.
    pub quarantined: u64,
    /// Blobs and checkpoints published this run.
    pub published: u64,
    /// Valid files whose echoed key was a *different* key under the
    /// same 64-bit content address (astronomically rare; counted so it
    /// is observable rather than silent).
    pub digest_collisions: u64,
    /// Scratch files left by a crashed run, swept at open.
    pub tmp_swept: u64,
    /// Quarantine attempts where both the rename *and* the copy+remove
    /// fallback failed — the corrupt file may still be in place.
    /// Nonzero is a loud warning, never silent.
    pub quarantine_failed: u64,
    /// Publications that found the destination blob already present
    /// (another handle won the race). The bytes are deterministic, so
    /// the overwrite is harmless; the loser is counted here.
    pub duplicate_publishes: u64,
}

/// What [`ResultStore::load`] (`T` = [`SimPoint`]) or
/// [`ResultStore::load_checkpoint`] (`T` = [`Checkpoint`]) found for a
/// key.
#[derive(Debug)]
pub enum LoadOutcome<T = SimPoint> {
    /// A fully verified, key-matching record.
    Hit(Box<T>),
    /// No record at this content address.
    Miss,
    /// A file existed but failed verification; it has been quarantined
    /// and the key must be re-simulated (a checkpoint: the campaign
    /// starts cold).
    Quarantined(BlobError),
}

/// The durable store: directories and counters.
#[derive(Debug)]
pub struct ResultStore {
    cfg: StoreConfig,
    counters: StoreCounters,
    /// Digests already quarantined this run, to derive unique
    /// quarantine file names without re-listing the directory.
    quarantine_seq: BTreeSet<(u64, u32)>,
}

/// Fsyncs a directory so a just-renamed entry survives power loss
/// (POSIX requires the parent directory's metadata to be durable).
fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Writes `bytes` to `dest`, a file inside the store at `store_dir`,
/// so that a reader sees the whole file or none of it and the result
/// survives power loss: scratch file in `tmp/` → fsync → rename onto
/// `dest` → fsync of `dest`'s directory. The one atomic write of the
/// store: blobs and checkpoints.
///
/// Scratch names are unique per process *and* per write, not just per
/// destination: two handles in one process racing the same digest
/// (the concurrent-publish test) must never write through the same
/// scratch path, or one handle's
/// `File::create` truncates the other's half-written bytes and the
/// second rename fails on the vanished entry.
fn write_atomic(store_dir: &Path, dest: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = dest.file_name().unwrap_or_default().to_string_lossy();
    let tmp = store_dir.join(TMP_DIR).join(format!("{name}.{}.{seq}.tmp", std::process::id()));
    {
        let mut f = File::create(&tmp)?;
        io::Write::write_all(&mut f, bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dest)?;
    fsync_dir(dest.parent().unwrap_or(store_dir))
}

/// Moves `src` to `dest`, preferring an atomic same-filesystem rename
/// and falling back to copy + remove when the rename fails (the
/// classic case: `quarantine/` on a different device than `blobs/`,
/// where `rename(2)` returns `EXDEV`). The rename primitive is
/// injected so the fallback path has a deterministic regression test.
fn quarantine_transfer(
    src: &Path,
    dest: &Path,
    rename: impl Fn(&Path, &Path) -> io::Result<()>,
) -> io::Result<()> {
    if rename(src, dest).is_ok() {
        return Ok(());
    }
    std::fs::copy(src, dest)?;
    std::fs::remove_file(src)
}

impl ResultStore {
    /// Opens (creating if needed) the store at `cfg.dir`: lays out the
    /// subdirectories and sweeps stale scratch files from a previous
    /// crash.
    pub fn open(cfg: StoreConfig) -> io::Result<ResultStore> {
        for sub in [BLOBS_DIR, CHECKPOINTS_DIR, QUARANTINE_DIR, TMP_DIR] {
            std::fs::create_dir_all(cfg.dir.join(sub))?;
        }
        let mut tmp_swept = 0;
        for entry in std::fs::read_dir(cfg.dir.join(TMP_DIR))?.flatten() {
            if entry.path().is_file() && std::fs::remove_file(entry.path()).is_ok() {
                tmp_swept += 1;
            }
        }
        Ok(ResultStore {
            cfg,
            counters: StoreCounters { tmp_swept, ..Default::default() },
            quarantine_seq: BTreeSet::new(),
        })
    }

    /// The store root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Activity counters so far.
    #[must_use]
    pub fn counters(&self) -> &StoreCounters {
        &self.counters
    }

    fn blob_path(&self, digest: u64) -> PathBuf {
        self.cfg.dir.join(BLOBS_DIR).join(format!("{digest:016x}.blob"))
    }

    fn checkpoint_path(&self, digest: u64) -> PathBuf {
        self.cfg.dir.join(CHECKPOINTS_DIR).join(format!("{digest:016x}.ckpt"))
    }

    /// Loads and fully re-verifies the point for `key`. Corrupt blobs
    /// are moved aside into `quarantine/` and reported as
    /// [`LoadOutcome::Quarantined`]; the caller re-simulates.
    pub fn load(&mut self, key: &ExpKey) -> LoadOutcome {
        let digest = key.digest();
        self.load_verified(digest, &self.blob_path(digest), |bytes| {
            blob::decode(bytes).map(|(echo, point)| (echo.matches(key), point))
        })
    }

    /// Loads and fully re-verifies the sampled-campaign checkpoint for
    /// `key`, exactly as [`ResultStore::load`] does a point. A corrupt
    /// checkpoint is quarantined and the campaign starts cold
    /// (checkpoints are a cache, never a source of truth).
    pub fn load_checkpoint(&mut self, key: &SampleKey) -> LoadOutcome<Checkpoint> {
        let digest = key.digest();
        self.load_verified(digest, &self.checkpoint_path(digest), |bytes| {
            checkpoint::decode(bytes).map(|(echo, ckpt)| (echo.matches(key), ckpt))
        })
    }

    /// The one verified load: read the file at `path`, verify and
    /// decode it (`decode` also says whether the echoed key is the
    /// requested one), quarantine it on failure, and count.
    fn load_verified<T>(
        &mut self,
        digest: u64,
        path: &Path,
        decode: impl FnOnce(&[u8]) -> Result<(bool, T), BlobError>,
    ) -> LoadOutcome<T> {
        // An absent or unreadable file (permissions, I/O error) is a
        // miss rather than an aborted campaign.
        let Ok(bytes) = std::fs::read(path) else {
            self.counters.misses += 1;
            return LoadOutcome::Miss;
        };
        match decode(&bytes) {
            Ok((true, value)) => {
                self.counters.warm_hits += 1;
                LoadOutcome::Hit(Box::new(value))
            }
            Ok((false, _)) => {
                // A valid file for a *different* key under the same
                // content address. Don't quarantine a good file; count
                // the collision and re-simulate (the publish will
                // overwrite — acceptable at 2^-64 odds, and observable
                // through the counter).
                self.counters.digest_collisions += 1;
                self.counters.misses += 1;
                LoadOutcome::Miss
            }
            Err(err) => {
                self.quarantine(digest, path, &err);
                self.counters.quarantined += 1;
                LoadOutcome::Quarantined(err)
            }
        }
    }

    /// Moves a failed file into `quarantine/` under a unique name that
    /// records why it was pulled.
    fn quarantine(&mut self, digest: u64, path: &Path, err: &BlobError) {
        let qdir = self.cfg.dir.join(QUARANTINE_DIR);
        let mut seq: u32 = 0;
        let dest = loop {
            let candidate = qdir.join(format!("{digest:016x}.{}.{seq}.blob", err.tag()));
            if !candidate.exists() && !self.quarantine_seq.contains(&(digest, seq)) {
                break candidate;
            }
            seq += 1;
        };
        self.quarantine_seq.insert((digest, seq));
        if let Err(e) = quarantine_transfer(path, &dest, |s, d| std::fs::rename(s, d)) {
            // Both the rename and the copy+remove fallback failed.
            // Last resort: delete the bad bytes so they can never be
            // loaded again, and say so loudly — a quarantine that
            // silently fails would leave a corrupt file re-read (and
            // re-"quarantined") by every warm load forever.
            self.counters.quarantine_failed += 1;
            let removed = std::fs::remove_file(path).is_ok();
            eprintln!(
                "[store] warning: quarantine of {} -> {} failed ({e}); \
                 corrupt file {}",
                path.display(),
                dest.display(),
                if removed { "deleted instead (evidence lost)" } else { "may still be present" }
            );
        }
    }

    /// Does nothing and records nothing. It is kept only because
    /// simbench, a separate package, still calls it; the next change
    /// to the benchmark (ROADMAP item 1) deletes it together with that
    /// call.
    pub fn lease_all<'j>(&mut self, _keys: impl Iterator<Item = &'j ExpKey>) -> io::Result<()> {
        Ok(())
    }

    /// Publishes one simulated point durably: encode → atomic write
    /// into `blobs/`. A torn publication is impossible to observe.
    ///
    /// When the [`StoreConfig::kill_after`] chaos knob is armed, the
    /// process exits with [`KILL_EXIT_CODE`] right after the N-th blob
    /// is durable — the state a real kill between two publications
    /// leaves.
    pub fn publish(&mut self, key: &ExpKey, point: &SimPoint) -> io::Result<()> {
        let dest = self.blob_path(key.digest());
        if dest.exists() {
            // Another handle published this digest first. Blob bytes
            // are a pure function of the key, so overwriting is
            // harmless; the loser of the race is counted, not hidden.
            self.counters.duplicate_publishes += 1;
        }
        self.publish_file(&dest, &blob::encode(key, point))
    }

    /// Writes one blob or checkpoint file atomically, counts it, and
    /// fires the [`StoreConfig::kill_after`] knob. Blobs and
    /// checkpoints share the count, so the knob can kill a sampled
    /// campaign mid-trace too.
    fn publish_file(&mut self, dest: &Path, bytes: &[u8]) -> io::Result<()> {
        write_atomic(&self.cfg.dir, dest, bytes)?;
        self.counters.published += 1;
        if self.cfg.kill_after.is_some_and(|n| self.counters.published >= n) {
            eprintln!(
                "[store] TVP_STORE_KILL_AFTER: exiting after {} publication(s) ({} durable)",
                self.counters.published,
                dest.display()
            );
            std::process::exit(KILL_EXIT_CODE);
        }
        Ok(())
    }

    /// Publishes a sampled-campaign checkpoint durably through the
    /// same atomic write as [`ResultStore::publish`]. Later
    /// checkpoints for the same key overwrite earlier ones (only the
    /// newest matters for resume).
    pub fn publish_checkpoint(&mut self, key: &SampleKey, ckpt: &Checkpoint) -> io::Result<()> {
        self.publish_file(&self.checkpoint_path(key.digest()), &checkpoint::encode(key, ckpt))
    }

    /// One-line summary for the engine's stderr reporting.
    #[must_use]
    pub fn summary(&self) -> String {
        let c = &self.counters;
        let mut s = format!(
            "{} warm hit(s), {} miss(es), {} quarantined, {} published",
            c.warm_hits, c.misses, c.quarantined, c.published
        );
        if c.duplicate_publishes > 0 {
            s.push_str(&format!(", {} duplicate publish(es)", c.duplicate_publishes));
        }
        if c.quarantine_failed > 0 {
            s.push_str(&format!(", {} quarantine failure(s)!", c.quarantine_failed));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_core::config::{CoreConfig, VpMode};
    use tvp_core::stats::SimStats;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tvp_store_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(workload: &'static str) -> ExpKey {
        ExpKey::new(workload, 5_000, &CoreConfig::with_vp(VpMode::Tvp))
    }

    fn point(cycles: u64) -> SimPoint {
        SimPoint { stats: SimStats { cycles, insts_retired: 5_000, ..Default::default() } }
    }

    #[test]
    fn publish_then_load_roundtrip_and_counters() {
        let dir = scratch("roundtrip");
        let mut store = ResultStore::open(StoreConfig::at(&dir)).expect("open");
        let k = key("string_match");
        assert!(matches!(store.load(&k), LoadOutcome::Miss));
        store.publish(&k, &point(123)).expect("publish");
        match store.load(&k) {
            LoadOutcome::Hit(p) => assert_eq!(*p, point(123)),
            other => panic!("expected warm hit, got {other:?}"),
        }
        assert_eq!(store.counters().warm_hits, 1);
        assert_eq!(store.counters().misses, 1);
        assert_eq!(store.counters().published, 1);
        // The blob is also visible to a *fresh* store handle (the
        // cross-run resume path), which re-verifies it from scratch.
        let mut reopened = ResultStore::open(StoreConfig::at(&dir)).expect("reopen");
        assert!(matches!(reopened.load(&k), LoadOutcome::Hit(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_blob_is_quarantined_and_republishable() {
        let dir = scratch("quarantine");
        let mut store = ResultStore::open(StoreConfig::at(&dir)).expect("open");
        let k = key("mc_playout");
        store.publish(&k, &point(9)).expect("publish");
        // Flip one byte in the stored blob.
        let path = dir.join(BLOBS_DIR).join(format!("{:016x}.blob", k.digest()));
        let mut bytes = std::fs::read(&path).expect("read blob");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite corrupted");

        let mut resumed = ResultStore::open(StoreConfig::at(&dir)).expect("reopen");
        match resumed.load(&k) {
            LoadOutcome::Quarantined(err) => {
                assert!(matches!(
                    err,
                    BlobError::ChecksumMismatch { .. } | BlobError::MalformedKey
                ));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(!path.exists(), "bad blob removed from blobs/");
        let quarantined: Vec<_> = std::fs::read_dir(dir.join(QUARANTINE_DIR))
            .expect("quarantine dir")
            .flatten()
            .collect();
        assert_eq!(quarantined.len(), 1, "evidence preserved in quarantine/");
        // Re-simulating and re-publishing heals the store.
        resumed.publish(&k, &point(9)).expect("republish");
        assert!(matches!(resumed.load(&k), LoadOutcome::Hit(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tmp_files_are_swept_at_open() {
        let dir = scratch("sweep");
        std::fs::create_dir_all(dir.join(TMP_DIR)).expect("mk tmp");
        std::fs::write(dir.join(TMP_DIR).join("dead.tmp"), b"partial").expect("write");
        let store = ResultStore::open(StoreConfig::at(&dir)).expect("open");
        assert_eq!(store.counters().tmp_swept, 1);
        assert!(std::fs::read_dir(dir.join(TMP_DIR)).expect("tmp").next().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_transfer_falls_back_to_copy_and_remove() {
        // Regression: a failed quarantine rename used to be swallowed
        // (the blob was just deleted, or worse, left behind). The
        // cross-device case (`EXDEV`) is simulated by injecting a
        // rename that always fails: the fallback must copy the bytes
        // to the destination and remove the source.
        let dir = scratch("qt_fallback");
        std::fs::create_dir_all(&dir).expect("mk scratch");
        let src = dir.join("bad.blob");
        let dest = dir.join("quarantined.blob");
        std::fs::write(&src, b"corrupt evidence").expect("write src");
        quarantine_transfer(&src, &dest, |_, _| {
            Err(io::Error::new(io::ErrorKind::CrossesDevices, "EXDEV"))
        })
        .expect("fallback succeeds");
        assert!(!src.exists(), "source removed");
        assert_eq!(std::fs::read(&dest).expect("dest"), b"corrupt evidence");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_failure_is_counted_not_swallowed() {
        // Regression: when quarantine itself fails (here: the
        // quarantine directory was removed underneath the store, so
        // rename *and* copy both fail), the store must surface a
        // counter instead of silently doing nothing.
        let dir = scratch("qt_fail");
        let mut store = ResultStore::open(StoreConfig::at(&dir)).expect("open");
        let k = key("string_match");
        store.publish(&k, &point(5)).expect("publish");
        let path = dir.join(BLOBS_DIR).join(format!("{:016x}.blob", k.digest()));
        let mut bytes = std::fs::read(&path).expect("read blob");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt");
        std::fs::remove_dir_all(dir.join(QUARANTINE_DIR)).expect("sabotage quarantine dir");

        let mut resumed = ResultStore::open(StoreConfig::at(&dir)).expect("reopen");
        std::fs::remove_dir_all(dir.join(QUARANTINE_DIR)).expect("re-sabotage");
        assert!(matches!(resumed.load(&k), LoadOutcome::Quarantined(_)));
        assert_eq!(resumed.counters().quarantine_failed, 1, "failure surfaced");
        assert!(!path.exists(), "last resort: bad bytes deleted, never re-read");
        assert!(resumed.summary().contains("quarantine failure"), "summary warns");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_publish_counts_the_loser() {
        let dir = scratch("dup");
        let mut a = ResultStore::open(StoreConfig::at(&dir)).expect("open a");
        let mut b = ResultStore::open(StoreConfig::at(&dir)).expect("open b");
        let k = key("string_match");
        a.publish(&k, &point(7)).expect("publish a");
        b.publish(&k, &point(7)).expect("publish b");
        assert_eq!(a.counters().duplicate_publishes, 0, "winner saw no existing blob");
        assert_eq!(b.counters().duplicate_publishes, 1, "loser counted");
        assert!(matches!(a.load(&k), LoadOutcome::Hit(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_never_share_a_blob() {
        let dir = scratch("distinct");
        let mut store = ResultStore::open(StoreConfig::at(&dir)).expect("open");
        let a = key("string_match");
        let b = ExpKey::new("string_match", 5_000, &CoreConfig::with_vp(VpMode::Gvp));
        store.publish(&a, &point(1)).expect("publish a");
        store.publish(&b, &point(2)).expect("publish b");
        match (store.load(&a), store.load(&b)) {
            (LoadOutcome::Hit(pa), LoadOutcome::Hit(pb)) => {
                assert_eq!(*pa, point(1));
                assert_eq!(*pb, point(2));
            }
            other => panic!("expected two hits, got {other:?}"),
        }
        assert_eq!(store.counters().digest_collisions, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
