//! `fsck` for the result store: walk everything, trust nothing.
//!
//! [`fsck`] checks what the store holds and nothing else. It validates
//! every blob and every sampled-campaign checkpoint with one verifier
//! loop (magic, schema, lengths, checksum, and that the echoed key
//! digests to the file's own content address), and counts the scratch
//! files left in `tmp/` and the files already in `quarantine/`. A file
//! of an older schema whose frame still verifies is **stale**, not
//! corrupt: no run loads it again, and it is counted apart without
//! making the store unhealthy. A `journal.log` left by an older build
//! is reported as ignored; like `leases/`, `workers/` and
//! `campaign.manifest`, it is never read or written. The `fsck_store`
//! bin is the CLI entry point: it wires [`FsckReport`] to exit codes
//! and JSON.

use std::io;
use std::path::{Path, PathBuf};

use super::blob::{self, BlobError, BLOB_MAGIC, BLOB_SCHEMA};
use super::checkpoint::{CKPT_MAGIC, CKPT_SCHEMA};
use super::{checkpoint, BLOBS_DIR, CHECKPOINTS_DIR, QUARANTINE_DIR, TMP_DIR};
use crate::json;
use crate::json::Layout::{Inline, Lines};

/// The campaign journal older builds kept in the store root. fsck only
/// notes that one exists.
const OLD_JOURNAL: &str = "journal.log";

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
    /// Files already set aside in `quarantine/`.
    pub quarantined: u64,
    /// Stale scratch files in `tmp/` (a crashed publication).
    pub tmp_stale: u64,
    /// The store holds a `journal.log` left by an older build, which
    /// nothing reads.
    pub ignored_journal: bool,
}

impl FsckReport {
    /// True when every blob and checkpoint verifies. Files of an older
    /// schema are intact but stale, and scratch files in `tmp/` are
    /// what a kill mid-write leaves (the next open sweeps them); neither
    /// makes a store unhealthy.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.corrupt.is_empty()
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} blob(s) ok, {} checkpoint(s) ok, {} corrupt, {} stale-schema, {} quarantined, \
             {} stale tmp file(s)",
            self.blobs_ok,
            self.checkpoints_ok,
            self.corrupt.len(),
            self.stale_schema,
            self.quarantined,
            self.tmp_stale,
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
        Lines.object(&[
            ("clean", self.clean().to_string()),
            ("blobs_ok", self.blobs_ok.to_string()),
            ("checkpoints_ok", self.checkpoints_ok.to_string()),
            ("corrupt", Lines.array(&corrupt)),
            ("stale_schema", self.stale_schema.to_string()),
            ("quarantined", self.quarantined.to_string()),
            ("tmp_stale", self.tmp_stale.to_string()),
            ("ignored_journal", self.ignored_journal.to_string()),
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
/// failures land in `report.corrupt`. Returns how many files verified.
fn verify_files(
    dir: &Path,
    sub: &str,
    ext: &str,
    magic: &[u8; 8],
    schema: u32,
    echoed_digest: impl Fn(&[u8]) -> Result<u64, BlobError>,
    report: &mut FsckReport,
) -> u64 {
    let mut ok = 0;
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
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) => {
                fail(format!("unreadable: {e}"));
                continue;
            }
        };
        match echoed_digest(&bytes) {
            Err(BlobError::SchemaMismatch { found })
                if found < schema && blob::unframe(&bytes, magic, found).is_ok() =>
            {
                report.stale_schema += 1;
            }
            Err(e) => fail(e.to_string()),
            Ok(digest) if digest == addr => ok += 1,
            Ok(digest) => fail(format!(
                "content address mismatch: file says {addr:016x}, key digests to {digest:016x}"
            )),
        }
    }
    ok
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
    let blob_digest = |b: &[u8]| blob::decode(b).map(|(key, _)| key.digest());
    report.blobs_ok =
        verify_files(dir, BLOBS_DIR, "blob", &BLOB_MAGIC, BLOB_SCHEMA, blob_digest, &mut report);
    let ckpt_digest = |b: &[u8]| checkpoint::decode(b).map(|(key, _)| key.digest());
    report.checkpoints_ok = verify_files(
        dir,
        CHECKPOINTS_DIR,
        "ckpt",
        &CKPT_MAGIC,
        CKPT_SCHEMA,
        ckpt_digest,
        &mut report,
    );
    report.quarantined = count_files(&dir.join(QUARANTINE_DIR));
    report.tmp_stale = count_files(&dir.join(TMP_DIR));
    report.ignored_journal = dir.join(OLD_JOURNAL).exists();
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
        assert!(!report.ignored_journal, "this build writes no journal");
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
        // Delete blob 1. The blobs are the whole record, so nothing
        // says it should exist: its point is simply cold again.
        std::fs::remove_file(blob_of(&keys[1])).expect("delete");

        let report = fsck(&dir).expect("fsck");
        assert!(!report.clean());
        assert_eq!(report.corrupt.len(), 1, "truncated blob reported: {:?}", report.corrupt);
        assert!(report.corrupt[0].error.contains("torn"), "{:?}", report.corrupt);
        assert_eq!(report.blobs_ok, 1, "blob 2 still verifies");
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
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_root_is_an_error_not_a_panic() {
        let dir = scratch("nonexistent");
        assert!(fsck(&dir).is_err());
    }
}
