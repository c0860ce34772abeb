//! Filesystem lease files and worker heartbeats — the mutual-exclusion
//! layer of the distributed campaign fabric (DESIGN.md §16).
//!
//! The journal records *history*; lease files are the *lock*. A worker
//! claims a point by creating `leases/<digest:016x>.lease` with
//! `O_CREAT|O_EXCL`, which the filesystem makes atomic: exactly one of
//! N racing workers wins each point, with no coordinator in the loop.
//! The file body is one sealed line naming the owner and its fencing
//! epoch, so the reaper (and `fsck-store`) can attribute every held
//! lease, and a worker can re-check *its own* ownership immediately
//! before journaling a completion — the fencing read that turns a dead
//! worker's late publish into a counted `stale` record instead of a
//! double-count.
//!
//! Heartbeats are `workers/<id>.hb` files holding a sealed
//! monotonically-increasing sequence number, rewritten through the
//! store's one atomic write (`store::write_atomic`). There are **no
//! wall clocks anywhere** — liveness is
//! judged by whether the sequence advances between two observations,
//! and the observation interval belongs to the caller (the reaper
//! bin sleeps; this module only reads and writes). That keeps the
//! whole layer a pure function of its inputs, bound by the
//! `determinism-audit` lint rule like the rest of the store.
//!
//! Crash anatomy the design leans on:
//!
//! - Killed *holding* a lease: the file persists, the heartbeat goes
//!   quiet, the reaper journals `reclaim` **then** deletes the file —
//!   in that order, so a lease file's absence always means "free to
//!   acquire at the epoch the journal now implies".
//! - Killed *between* publish and release: the blob is durable and the
//!   journal has `done`; the reaper sees a lease on a completed digest
//!   and simply deletes it (nothing to re-run).
//! - A stale worker that outlived a reclaim: its fencing read fails
//!   (file gone, or re-leased under a different owner/epoch) and it
//!   records `stale` instead of `done`. Blob bytes are deterministic,
//!   so even the unavoidable read-check-act window is benign — the
//!   worst case is the same bytes written twice.

use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use super::manifest::{seal, unseal, valid_worker_id};

/// Lease subdirectory name inside the store.
pub const LEASES_DIR: &str = "leases";
/// Heartbeat subdirectory name inside the store.
pub const WORKERS_DIR: &str = "workers";

/// A parsed lease file: who holds the point, at which fencing epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeaseOwner {
    /// Owning worker id (validated by [`valid_worker_id`]).
    pub worker: String,
    /// Fencing epoch the lease was taken at (reclaims + 1).
    pub epoch: u32,
}

/// Result of an acquisition attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Acquire {
    /// We created the lease file; the point is ours.
    Won,
    /// Another worker holds it (or held it when we raced).
    Held,
}

fn lease_path(store_dir: &Path, digest: u64) -> PathBuf {
    store_dir.join(LEASES_DIR).join(format!("{digest:016x}.lease"))
}

fn heartbeat_path(store_dir: &Path, worker: &str) -> PathBuf {
    store_dir.join(WORKERS_DIR).join(format!("{worker}.hb"))
}

/// Attempts to claim `digest` for `worker` at `epoch` by creating the
/// lease file with `O_CREAT|O_EXCL` — the atomic, coordinator-free
/// mutex. [`Acquire::Held`] is the normal contended outcome, not an
/// error.
pub fn acquire(store_dir: &Path, digest: u64, worker: &str, epoch: u32) -> io::Result<Acquire> {
    debug_assert!(valid_worker_id(worker), "worker id {worker:?} fails valid_worker_id");
    let path = lease_path(store_dir, digest);
    let mut file = match OpenOptions::new().write(true).create_new(true).open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => return Ok(Acquire::Held),
        Err(e) => return Err(e),
    };
    file.write_all(
        format!("{}\n", seal(&format!("held {digest:016x} {worker} {epoch}"))).as_bytes(),
    )?;
    file.sync_all()?;
    Ok(Acquire::Won)
}

/// Reads and verifies the lease file for `digest`. `Ok(None)` means no
/// lease is held; a present-but-garbled file (torn write by a worker
/// killed inside [`acquire`]) is also `None` — the reaper treats it as
/// reclaimable.
pub fn read(store_dir: &Path, digest: u64) -> io::Result<Option<LeaseOwner>> {
    let path = lease_path(store_dir, digest);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(parse_lease_body(text.trim_end_matches('\n'), digest))
}

fn parse_lease_body(line: &str, digest: u64) -> Option<LeaseOwner> {
    let body = unseal(line)?;
    let mut parts = body.split(' ');
    if parts.next()? != "held" {
        return None;
    }
    let file_digest = u64::from_str_radix(parts.next()?, 16).ok()?;
    if file_digest != digest {
        return None;
    }
    let worker = parts.next()?;
    if !valid_worker_id(worker) {
        return None;
    }
    let epoch = parts.next()?.parse().ok()?;
    parts.next().is_none().then(|| LeaseOwner { worker: worker.to_owned(), epoch })
}

/// The fencing read: does `worker`@`epoch` still own `digest`? A
/// missing, torn, or re-owned lease file all mean "no" — the caller
/// must record `stale` instead of `done`.
pub fn owned_by(store_dir: &Path, digest: u64, worker: &str, epoch: u32) -> bool {
    matches!(
        read(store_dir, digest),
        Ok(Some(ref o)) if o.worker == worker && o.epoch == epoch
    )
}

/// Releases a lease after its point is journaled `done` (or when the
/// reaper retires it — always *after* the `reclaim` record is
/// durable, so absence implies the journal already explains it).
pub fn release(store_dir: &Path, digest: u64) -> io::Result<()> {
    match std::fs::remove_file(lease_path(store_dir, digest)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Lists every held lease in the store: `(digest, owner)` pairs, plus
/// the digests of unreadable/torn lease files (owner `None`).
pub fn list(store_dir: &Path) -> io::Result<Vec<(u64, Option<LeaseOwner>)>> {
    let dir = store_dir.join(LEASES_DIR);
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".lease")) else { continue };
        let Ok(digest) = u64::from_str_radix(stem, 16) else { continue };
        out.push((digest, read(store_dir, digest)?));
    }
    out.sort_by_key(|(d, _)| *d);
    Ok(out)
}

/// Atomically writes `worker`'s heartbeat with sequence number `seq`
/// (`store::write_atomic`). Callers pass a strictly increasing
/// counter; liveness is "the sequence advanced between two reads",
/// with the observation interval owned by the reaper — no clocks in
/// here.
pub fn beat(store_dir: &Path, worker: &str, seq: u64) -> io::Result<()> {
    debug_assert!(valid_worker_id(worker), "worker id {worker:?} fails valid_worker_id");
    let line = format!("{}\n", seal(&format!("hb {worker} {seq}")));
    super::write_atomic(store_dir, &heartbeat_path(store_dir, worker), line.as_bytes())
}

/// Reads `worker`'s heartbeat sequence. `None` when the worker never
/// beat or its file is torn.
#[must_use]
pub fn read_beat(store_dir: &Path, worker: &str) -> Option<u64> {
    let text = std::fs::read_to_string(heartbeat_path(store_dir, worker)).ok()?;
    let body = unseal(text.trim_end_matches('\n'))?;
    let mut parts = body.split(' ');
    (parts.next()? == "hb" && parts.next()? == worker)
        .then(|| parts.next())
        .flatten()?
        .parse()
        .ok()
        .filter(|_| parts.next().is_none())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tvp_lease_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(LEASES_DIR)).expect("mk leases");
        std::fs::create_dir_all(dir.join(WORKERS_DIR)).expect("mk workers");
        std::fs::create_dir_all(dir.join(crate::store::TMP_DIR)).expect("mk tmp");
        dir
    }

    #[test]
    fn acquire_is_exclusive_and_release_frees() {
        let dir = scratch("excl");
        assert_eq!(acquire(&dir, 0x10, "w0", 1).expect("acquire"), Acquire::Won);
        assert_eq!(acquire(&dir, 0x10, "w1", 1).expect("contend"), Acquire::Held);
        assert_eq!(
            read(&dir, 0x10).expect("read"),
            Some(LeaseOwner { worker: "w0".into(), epoch: 1 })
        );
        assert!(owned_by(&dir, 0x10, "w0", 1));
        assert!(!owned_by(&dir, 0x10, "w1", 1), "wrong worker is fenced off");
        assert!(!owned_by(&dir, 0x10, "w0", 2), "wrong epoch is fenced off");
        release(&dir, 0x10).expect("release");
        assert_eq!(read(&dir, 0x10).expect("read freed"), None);
        assert_eq!(acquire(&dir, 0x10, "w1", 2).expect("re-acquire"), Acquire::Won);
        release(&dir, 0x10).expect("idempotent release");
        release(&dir, 0x10).expect("release of a free lease is Ok");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lease_file_reads_as_unowned() {
        let dir = scratch("torn");
        assert_eq!(acquire(&dir, 0x20, "w0", 1).expect("acquire"), Acquire::Won);
        // A worker killed mid-acquire leaves a short/garbled body.
        std::fs::write(dir.join(LEASES_DIR).join(format!("{:016x}.lease", 0x20)), b"held 00")
            .expect("tear");
        assert_eq!(read(&dir, 0x20).expect("read torn"), None);
        assert!(!owned_by(&dir, 0x20, "w0", 1), "torn lease never passes the fence");
        // A lease whose body names a different digest (copied file) is
        // also rejected.
        let other = seal(&format!("held {:016x} w0 1", 0x99_u64));
        std::fs::write(dir.join(LEASES_DIR).join(format!("{:016x}.lease", 0x20)), other)
            .expect("cross-digest");
        assert_eq!(read(&dir, 0x20).expect("read cross"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_reports_held_and_torn_leases_sorted() {
        let dir = scratch("list");
        assert_eq!(acquire(&dir, 0x31, "w1", 1).expect("a"), Acquire::Won);
        assert_eq!(acquire(&dir, 0x30, "w0", 2).expect("b"), Acquire::Won);
        std::fs::write(dir.join(LEASES_DIR).join(format!("{:016x}.lease", 0x32_u64)), b"junk")
            .expect("torn");
        let leases = list(&dir).expect("list");
        assert_eq!(leases.len(), 3);
        assert_eq!(leases[0].0, 0x30);
        assert_eq!(leases[0].1.as_ref().map(|o| o.epoch), Some(2));
        assert_eq!(leases[1].1.as_ref().map(|o| o.worker.as_str()), Some("w1"));
        assert_eq!(leases[2], (0x32, None), "torn lease listed as unattributed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_roundtrip_and_monotonic_overwrite() {
        let dir = scratch("hb");
        assert_eq!(read_beat(&dir, "w0"), None, "never beat");
        beat(&dir, "w0", 1).expect("beat 1");
        assert_eq!(read_beat(&dir, "w0"), Some(1));
        beat(&dir, "w0", 7).expect("beat 7");
        assert_eq!(read_beat(&dir, "w0"), Some(7), "atomic overwrite");
        std::fs::write(dir.join(WORKERS_DIR).join("w1.hb"), b"hb w1 3").expect("unsealed");
        assert_eq!(read_beat(&dir, "w1"), None, "unsealed heartbeat rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
