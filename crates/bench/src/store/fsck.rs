//! `fsck` for the result store: walk everything, trust nothing.
//!
//! [`fsck`] validates every blob and every sampled-campaign checkpoint
//! with one verifier loop (magic, schema, lengths, checksum, and that
//! the echoed key digests to the file's own content address), replays
//! the journal, and cross-checks it against the blobs: a `done` record
//! with no blob is **missing**, a valid blob with no `done` record is
//! an **orphan** (harmless — it still warms the next run — but worth
//! knowing about after a kill), leases with no completion are the
//! points a killed campaign died holding, and everything already in
//! `quarantine/` is counted. A file of an older schema whose frame
//! still verifies is **stale**, not corrupt: no run loads it again, and
//! it is counted apart without making the store unhealthy. Journals of
//! older stores that hold the retired fabric's record kinds replay like
//! any other (see [`manifest`]). The `fsck_store` bin is the CLI entry
//! point: it wires [`FsckReport`] to exit codes and JSON.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use super::blob::{self, BlobError, BLOB_MAGIC, BLOB_SCHEMA};
use super::checkpoint::{CKPT_MAGIC, CKPT_SCHEMA};
use super::manifest::{self, JournalState, JOURNAL_FILE};
use super::{checkpoint, BLOBS_DIR, CHECKPOINTS_DIR, QUARANTINE_DIR, TMP_DIR};
use crate::json;
use crate::json::Layout::{Inline, Lines};

/// One invalid blob or checkpoint found by the walk.
#[derive(Clone, Debug)]
pub struct BadBlob {
    /// Path relative to the store root (`blobs/…` or `checkpoints/…`).
    pub file: String,
    /// Why it failed verification.
    pub error: String,
}

/// Everything an fsck pass learned about a store.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Blobs that decoded and verified completely.
    pub blobs_ok: u64,
    /// Checkpoints that decoded and verified completely.
    pub checkpoints_ok: u64,
    /// Blobs and checkpoints that failed verification (checksum,
    /// newer schema, torn, or filed under the wrong content address).
    pub corrupt: Vec<BadBlob>,
    /// Blobs and checkpoints of an older schema whose frame (lengths
    /// and checksum) verifies: left by an earlier build, never loaded.
    pub stale_schema: u64,
    /// Valid blobs with no `done` journal record.
    pub orphans: Vec<String>,
    /// `done` journal records with no blob on disk.
    pub missing: Vec<String>,
    /// Files already set aside in `quarantine/`.
    pub quarantined: u64,
    /// Leases never completed or failed (killed mid-campaign).
    pub pending: u64,
    /// Terminal failures recorded in the journal.
    pub failed: u64,
    /// Stale scratch files in `tmp/` (a crashed publication).
    pub tmp_stale: u64,
    /// The journal ended in a torn (checksum-failing) line.
    pub journal_torn_tail: bool,
    /// Corrupt journal lines before the tail.
    pub journal_skipped: u64,
    /// The journal header was missing or wrong.
    pub journal_bad_header: bool,
}

impl FsckReport {
    /// True when the store is fully healthy: every blob and checkpoint
    /// verifies and every journal completion has its blob. Orphans,
    /// pending leases and a torn journal tail are *expected* after a
    /// kill and do not make a store unhealthy — resuming repairs them.
    /// Nor do files of an older schema, which are intact but stale.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.corrupt.is_empty() && self.missing.is_empty() && self.journal_skipped == 0
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} blob(s) ok, {} checkpoint(s) ok, {} corrupt, {} stale-schema, {} orphan(s), \
             {} missing, {} quarantined, {} pending lease(s), {} failed, torn_tail={}",
            self.blobs_ok,
            self.checkpoints_ok,
            self.corrupt.len(),
            self.stale_schema,
            self.orphans.len(),
            self.missing.len(),
            self.quarantined,
            self.pending,
            self.failed,
            self.journal_torn_tail,
        )
    }

    /// Machine-readable report (`fsck_store --json`), uploaded as the
    /// CI resume-smoke artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let corrupt: Vec<String> = self
            .corrupt
            .iter()
            .map(|b| {
                Inline.object(&[("file", json::string(&b.file)), ("error", json::string(&b.error))])
            })
            .collect();
        let strings = |v: &[String]| -> String {
            Lines.array(&v.iter().map(|s| json::string(s)).collect::<Vec<_>>())
        };
        Lines.object(&[
            ("clean", self.clean().to_string()),
            ("blobs_ok", self.blobs_ok.to_string()),
            ("checkpoints_ok", self.checkpoints_ok.to_string()),
            ("corrupt", Lines.array(&corrupt)),
            ("stale_schema", self.stale_schema.to_string()),
            ("orphans", strings(&self.orphans)),
            ("missing", strings(&self.missing)),
            ("quarantined", self.quarantined.to_string()),
            ("pending", self.pending.to_string()),
            ("failed", self.failed.to_string()),
            ("tmp_stale", self.tmp_stale.to_string()),
            ("journal_torn_tail", self.journal_torn_tail.to_string()),
            ("journal_skipped", self.journal_skipped.to_string()),
            ("journal_bad_header", self.journal_bad_header.to_string()),
        ])
    }
}

/// Counts plain files directly under `dir` (0 if it doesn't exist).
fn count_files(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter(|e| e.path().is_file()).count() as u64)
        .unwrap_or(0)
}

/// The one verifier loop: walks `<dir>/<sub>/*.<ext>` in sorted order
/// (deterministic reports) and fully verifies every file with
/// `echoed_digest` — frame, checksum, and that the echoed key digests
/// to the file name. A file framed under `magic` with a schema below
/// `schema` whose lengths and checksum verify counts as stale; other
/// failures land in `report.corrupt`. Returns the content addresses
/// that verified (one per file) and those whose file exists but did
/// not (corrupt or stale).
fn verify_files(
    dir: &Path,
    sub: &str,
    ext: &str,
    magic: &[u8; 8],
    schema: u32,
    echoed_digest: impl Fn(&[u8]) -> Result<u64, BlobError>,
    report: &mut FsckReport,
) -> (Vec<u64>, BTreeSet<u64>) {
    let mut ok = Vec::new();
    let mut bad = BTreeSet::new();
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join(sub))
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    files.sort();
    for path in files {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let mut fail = |error: String| {
            report.corrupt.push(BadBlob { file: format!("{sub}/{name}"), error });
        };
        let Some(stem) = name.strip_suffix(ext).and_then(|s| s.strip_suffix('.')) else {
            fail(format!("not a .{ext} file"));
            continue;
        };
        let Ok(addr) = u64::from_str_radix(stem, 16) else {
            fail("file name is not a 16-hex content address".to_owned());
            continue;
        };
        let verdict = match std::fs::read(&path) {
            Err(e) => Err(format!("unreadable: {e}")),
            Ok(bytes) => match echoed_digest(&bytes) {
                Err(BlobError::SchemaMismatch { found })
                    if found < schema && blob::unframe(&bytes, magic, found).is_ok() =>
                {
                    report.stale_schema += 1;
                    bad.insert(addr);
                    continue;
                }
                Err(e) => Err(e.to_string()),
                Ok(digest) if digest == addr => Ok(()),
                Ok(digest) => Err(format!(
                    "content address mismatch: file says {addr:016x}, key digests to {digest:016x}"
                )),
            },
        };
        match verdict {
            Ok(()) => ok.push(addr),
            Err(error) => {
                bad.insert(addr);
                fail(error);
            }
        }
    }
    (ok, bad)
}

/// Walks and validates the store at `dir`. Errors only on an unusable
/// root (not a store at all); per-file problems land in the report.
pub fn fsck(dir: &Path) -> io::Result<FsckReport> {
    if !dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a directory", dir.display()),
        ));
    }
    let mut report = FsckReport::default();

    // Journal first: it defines what *should* exist.
    let journal: JournalState = match std::fs::read_to_string(dir.join(JOURNAL_FILE)) {
        Ok(text) => manifest::replay(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => JournalState::default(),
        Err(e) => return Err(e),
    };
    report.journal_torn_tail = journal.torn_tail;
    report.journal_skipped = journal.skipped_lines;
    report.journal_bad_header = journal.bad_header;
    report.pending = journal.pending.len() as u64;
    report.failed = journal.failed.len() as u64;

    let blob_digest = |b: &[u8]| blob::decode(b).map(|(key, _)| key.digest());
    let (blobs, unloadable) =
        verify_files(dir, BLOBS_DIR, "blob", &BLOB_MAGIC, BLOB_SCHEMA, blob_digest, &mut report);
    report.blobs_ok = blobs.len() as u64;
    let ckpt_digest = |b: &[u8]| checkpoint::decode(b).map(|(key, _)| key.digest());
    let (ckpts, _) = verify_files(
        dir,
        CHECKPOINTS_DIR,
        "ckpt",
        &CKPT_MAGIC,
        CKPT_SCHEMA,
        ckpt_digest,
        &mut report,
    );
    report.checkpoints_ok = ckpts.len() as u64;

    // Cross-check journal vs blobs. A corrupt or stale blob is already
    // counted, so its address does not *also* count as missing.
    let on_disk: BTreeSet<u64> = blobs.into_iter().collect();
    for digest in on_disk.difference(&journal.completed) {
        report.orphans.push(format!("{digest:016x}.blob"));
    }
    for digest in journal.completed.difference(&on_disk) {
        if !unloadable.contains(digest) {
            report.missing.push(format!("{digest:016x}.blob"));
        }
    }

    report.quarantined = count_files(&dir.join(QUARANTINE_DIR));
    report.tmp_stale = count_files(&dir.join(TMP_DIR));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{ExpKey, SimPoint};
    use crate::store::{ResultStore, StoreConfig, BLOBS_DIR};
    use tvp_core::config::{CoreConfig, VpMode};
    use tvp_core::stats::SimStats;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tvp_fsck_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn populate(dir: &Path, n: u64) -> Vec<ExpKey> {
        let mut store = ResultStore::open(StoreConfig::at(dir)).expect("open");
        let keys: Vec<ExpKey> = (0..n)
            .map(|i| {
                let mut cfg = CoreConfig::with_vp(VpMode::Tvp);
                cfg.watchdog_cycles += i; // distinct fingerprints
                ExpKey::new("string_match", 5_000, &cfg)
            })
            .collect();
        store.lease_all(keys.iter()).expect("lease");
        for k in &keys {
            let stats = SimStats { cycles: 100 + k.digest() % 100, ..Default::default() };
            store.publish(k, &SimPoint { stats }).expect("publish");
        }
        keys
    }

    #[test]
    fn healthy_store_is_clean() {
        let dir = scratch("clean");
        let keys = populate(&dir, 3);
        let report = fsck(&dir).expect("fsck");
        assert!(report.clean(), "healthy store must fsck clean: {}", report.summary());
        assert_eq!(report.blobs_ok, keys.len() as u64);
        assert!(report.orphans.is_empty() && report.missing.is_empty());
        assert_eq!(report.pending, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_orphans_and_missing_are_all_reported() {
        let dir = scratch("dirty");
        let keys = populate(&dir, 3);
        let blob_of = |k: &ExpKey| dir.join(BLOBS_DIR).join(format!("{:016x}.blob", k.digest()));
        // Corrupt blob 0 (truncate = torn write).
        let bytes = std::fs::read(blob_of(&keys[0])).expect("read");
        std::fs::write(blob_of(&keys[0]), &bytes[..bytes.len() / 2]).expect("truncate");
        // Delete blob 1 → `done` with no blob = missing.
        std::fs::remove_file(blob_of(&keys[1])).expect("delete");
        // Drop an orphan blob (valid, but no journal record).
        let mut cfg = CoreConfig::with_vp(VpMode::Gvp);
        cfg.watchdog_cycles += 99;
        let orphan = ExpKey::new("mc_playout", 5_000, &cfg);
        let orphan_bytes =
            crate::store::blob::encode(&orphan, &SimPoint { stats: SimStats::default() });
        std::fs::write(
            dir.join(BLOBS_DIR).join(format!("{:016x}.blob", orphan.digest())),
            orphan_bytes,
        )
        .expect("write orphan");

        let report = fsck(&dir).expect("fsck");
        assert!(!report.clean());
        assert_eq!(report.corrupt.len(), 1, "truncated blob reported: {:?}", report.corrupt);
        assert!(report.corrupt[0].error.contains("torn"), "{:?}", report.corrupt);
        assert_eq!(report.missing, vec![format!("{:016x}.blob", keys[1].digest())]);
        assert_eq!(report.orphans, vec![format!("{:016x}.blob", orphan.digest())]);
        assert_eq!(report.blobs_ok, 2, "blob 2 and the orphan still verify");
        // The JSON form carries the same verdict and parses basic shape.
        let json = report.to_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("content") || json.contains("torn"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mislabeled_content_address_is_corruption() {
        let dir = scratch("mislabel");
        let keys = populate(&dir, 2);
        // File blob 0's bytes under blob 1's address.
        let a = dir.join(BLOBS_DIR).join(format!("{:016x}.blob", keys[0].digest()));
        let b = dir.join(BLOBS_DIR).join(format!("{:016x}.blob", keys[1].digest()));
        let bytes = std::fs::read(&a).expect("read");
        std::fs::write(&b, bytes).expect("overwrite under wrong address");
        let report = fsck(&dir).expect("fsck");
        assert_eq!(report.corrupt.len(), 1);
        assert!(report.corrupt[0].error.contains("content address mismatch"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_journal_kinds_replay_clean() {
        // A journal as the retired multi-process fabric left it: every
        // record kind it wrote, on top of a healthy store. w0 claimed
        // a fresh point, was reaped, and its late publish was fenced
        // off; w1 re-claimed the point and died holding it.
        let dir = scratch("retired");
        populate(&dir, 2);
        let mut text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("read journal");
        for body in [
            "wlease 0000000000000077 w0 1 string_match@5000#0000000000000077",
            "reclaim 0000000000000077 1",
            "stale 0000000000000077 w0 1",
            "wlease 0000000000000077 w1 2 string_match@5000#0000000000000077",
        ] {
            text.push_str(&format!("{}\n", manifest::seal(body)));
        }
        std::fs::write(dir.join(JOURNAL_FILE), text).expect("write journal");

        let report = fsck(&dir).expect("fsck");
        assert!(report.clean(), "retired records are not corruption: {}", report.summary());
        assert_eq!(report.journal_skipped, 0);
        assert!(!report.journal_torn_tail);
        assert_eq!((report.blobs_ok, report.pending, report.failed), (2, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_reported() {
        use crate::sampling::{run_sampled, SampleRunOptions, SampleSpec};
        let dir = scratch("ckpt");
        let store = std::sync::Mutex::new(ResultStore::open(StoreConfig::at(&dir)).expect("open"));
        let w = tvp_workloads::suite::by_name("pointer_chase").expect("workload");
        let spec = SampleSpec::new(4_000, 500, 500).expect("valid spec");
        let opts = SampleRunOptions { store: Some(&store), stop_after_intervals: Some(1) };
        let _ = run_sampled(&w, &CoreConfig::with_vp(VpMode::Tvp), 8_000, spec, opts)
            .expect("no pipeline deadlock");
        let report = fsck(&dir).expect("fsck");
        assert!(report.clean(), "a fresh checkpoint is healthy: {}", report.summary());
        assert_eq!(report.checkpoints_ok, 1);

        // Flip one byte in the middle of the only checkpoint.
        let ckpt = std::fs::read_dir(dir.join(crate::store::CHECKPOINTS_DIR))
            .expect("checkpoints dir")
            .flatten()
            .map(|e| e.path())
            .next()
            .expect("one checkpoint");
        let mut bytes = std::fs::read(&ckpt).expect("read checkpoint");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&ckpt, &bytes).expect("corrupt checkpoint");

        let report = fsck(&dir).expect("fsck again");
        assert!(!report.clean(), "a corrupt checkpoint is damage: {}", report.summary());
        assert_eq!(report.checkpoints_ok, 0);
        assert_eq!(report.corrupt.len(), 1, "{:?}", report.corrupt);
        assert!(report.corrupt[0].file.starts_with("checkpoints/"), "{:?}", report.corrupt);
        assert!(report.corrupt[0].error.contains("checksum"), "{:?}", report.corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Re-frames the blob of `key` in `dir` under `schema`, keeping its
    /// key and payload sections; `flip` inverts one payload byte after
    /// the checksum is taken.
    fn reframe_blob(dir: &Path, key: &ExpKey, schema: u32, flip: bool) {
        let path = dir.join(BLOBS_DIR).join(format!("{:016x}.blob", key.digest()));
        let bytes = std::fs::read(&path).expect("read blob");
        let (key_bytes, body) = blob::unframe(&bytes, &BLOB_MAGIC, BLOB_SCHEMA).expect("unframe");
        let mut framed = blob::frame(&BLOB_MAGIC, schema, key_bytes, body);
        if flip {
            let mid = framed.len() - blob::CHECKSUM_LEN - 1;
            framed[mid] ^= 0xFF;
        }
        std::fs::write(&path, framed).expect("rewrite blob");
    }

    #[test]
    fn an_intact_blob_of_an_older_schema_is_stale_not_corrupt() {
        let dir = scratch("stale");
        let keys = populate(&dir, 2);
        reframe_blob(&dir, &keys[0], 1, false);
        let report = fsck(&dir).expect("fsck");
        assert!(report.clean(), "a stale blob leaves the store healthy: {}", report.summary());
        assert_eq!(report.stale_schema, 1);
        assert!(report.corrupt.is_empty(), "{:?}", report.corrupt);
        assert!(report.missing.is_empty(), "its journal record is not a missing blob");
        assert_eq!(report.blobs_ok, 1);
        assert!(report.summary().contains("1 stale-schema"), "{}", report.summary());
        assert!(report.to_json().contains("\"stale_schema\": 1"), "{}", report.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_older_blob_or_a_newer_schema_stays_corrupt() {
        let dir = scratch("stale_damaged");
        let keys = populate(&dir, 2);
        reframe_blob(&dir, &keys[0], 1, true);
        reframe_blob(&dir, &keys[1], BLOB_SCHEMA + 1, false);
        let report = fsck(&dir).expect("fsck");
        assert!(!report.clean(), "{}", report.summary());
        assert_eq!(report.stale_schema, 0);
        let errors: Vec<&str> = report.corrupt.iter().map(|b| b.error.as_str()).collect();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors.iter().all(|e| e.contains("schema mismatch")), "{errors:?}");
        assert!(report.missing.is_empty(), "a corrupt blob is not also missing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_root_is_an_error_not_a_panic() {
        let dir = scratch("nonexistent");
        assert!(fsck(&dir).is_err());
    }
}
