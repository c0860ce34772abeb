//! Distributed campaign fabric: a multi-process work-queue on the
//! durable result store (DESIGN.md §16).
//!
//! One **coordinator** pins a campaign by writing a manifest — the
//! instruction budget plus the full deduplicated schedule, in
//! schedule order — next to the store journal. Any number of
//! **worker** processes then attach to the same store directory and
//! drain the manifest:
//!
//! 1. refresh the campaign's journal view (other processes append to
//!    the same journal; replay is a pure function of the file);
//! 2. claim up to [`LEASE_BATCH`] points that are neither settled nor
//!    held, by appending one `wlease` batch to the journal — the
//!    journal is the lease: a claim wins if it is the first at its
//!    point's current epoch in file order
//!    ([`ResultStore::acquire_lease_batch`]);
//! 3. simulate the wins on the in-process pool and publish each point
//!    through the fenced path ([`ResultStore::publish_fenced`]) — a
//!    worker whose hold was reclaimed while it simulated is detected
//!    and deduped, never double-counted;
//! 4. go to 1 until every manifest point is done, failed, or held by
//!    some other worker.
//!
//! A **reaper** retires the holds of workers declared dead (the
//! caller names them — liveness is an orchestration fact, not
//! something the fabric guesses from clocks): each reclaimed point
//! returns to the pending pool at a bumped fencing epoch, so the next
//! worker re-runs it and the dead worker's late publish (if the
//! process was merely wedged, not dead) fences off as `stale`.
//!
//! The **merge** step is just the serial engine run against the same
//! store: every published point loads warm (fully re-verified),
//! orphans that nobody re-ran simulate locally, and assembly is
//! single-threaded in fixed experiment order — which is why serial,
//! `--jobs N` and K-process distributed campaigns produce
//! byte-identical `results/*.json` and agree on the campaign
//! fingerprint.
//!
//! Everything here is deterministic given the campaign inputs: the
//! schedule order is pinned by the manifest, blob bytes are a pure
//! function of the key, and the only nondeterminism (which worker
//! wins which claim) is confined to the journal's history — never to
//! the results.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use tvp_isa::stream::{fnv1a, fnv1a_fold, FNV1A_OFFSET};

use crate::cache::ResultCache;
use crate::experiments::{ExpContext, Experiment};
use crate::jobs::{ExpKey, Job};
use crate::prepare_suite;
use crate::runner;
use crate::store::manifest::{self, valid_worker_id};
use crate::store::{self, ResultStore, StoreConfig};

/// Points a worker claims per journal round-trip. Bounds both the
/// size of one `wlease` journal append and the work lost when a
/// worker dies mid-batch (at most this many points need reclaim).
pub const LEASE_BATCH: usize = 64;

/// Campaign manifest file, written by the coordinator into the store
/// directory.
pub const MANIFEST_FILE: &str = "campaign.manifest";

/// Header line identifying the manifest format version.
pub const MANIFEST_HEADER: &str = "tvp-manifest 1";

/// Order-sensitive FNV-1a fold over the schedule's key digests — the
/// identity of *what a campaign simulates*. Serial, `--jobs N` and
/// K-worker runs of the same experiment set and budget compute the
/// same value; it is printed by every engine run and recorded in
/// telemetry (schema 6) so CI can compare runs without diffing files.
#[must_use]
pub fn campaign_fingerprint(digests: impl Iterator<Item = u64>) -> u64 {
    digests.fold(FNV1A_OFFSET, |h, d| fnv1a_fold(h, &d.to_le_bytes()))
}

/// The coordinator's durable statement of one campaign: the
/// instruction budget and every deduplicated point, in schedule
/// order. Workers read the budget from here (not from their own
/// flags), so a coordinator/worker budget mismatch is impossible by
/// construction; a *schedule* mismatch (different binary versions
/// enumerating different points) is detected and refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignManifest {
    /// Architectural instruction budget per workload.
    pub insts: u64,
    /// `(digest, display label)` of every point, in schedule order.
    pub points: Vec<(u64, String)>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl CampaignManifest {
    /// Builds the manifest for a deduplicated schedule.
    #[must_use]
    pub fn from_schedule(insts: u64, schedule: &[Job]) -> Self {
        CampaignManifest {
            insts,
            points: schedule.iter().map(|j| (j.key.digest(), j.key.display())).collect(),
        }
    }

    /// Campaign id: FNV-1a over the budget and the ordered point
    /// digests. Two manifests with the same id describe the same
    /// campaign.
    #[must_use]
    pub fn id(&self) -> u64 {
        let mut bytes = Vec::with_capacity(8 + self.points.len() * 8);
        bytes.extend_from_slice(&self.insts.to_le_bytes());
        for (d, _) in &self.points {
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        fnv1a(&bytes)
    }

    /// The manifest path inside a store directory.
    #[must_use]
    pub fn path(store_dir: &Path) -> std::path::PathBuf {
        store_dir.join(MANIFEST_FILE)
    }

    /// Writes the manifest through the store's one atomic write
    /// (`store::write_atomic`: scratch in `tmp/`, fsync,
    /// rename, directory fsync). Every line is checksum-sealed and the
    /// trailer repeats the campaign id, so a torn or tampered manifest
    /// is detected at load, never half-trusted.
    pub fn write(&self, store_dir: &Path) -> io::Result<()> {
        let mut text = format!("{MANIFEST_HEADER}\n");
        text.push_str(&manifest::seal(&format!("insts {}", self.insts)));
        text.push('\n');
        for (digest, label) in &self.points {
            text.push_str(&manifest::seal(&format!("point {digest:016x} {label}")));
            text.push('\n');
        }
        text.push_str(&manifest::seal(&format!("end {:016x}", self.id())));
        text.push('\n');
        store::write_atomic(store_dir, &Self::path(store_dir), text.as_bytes())
    }

    /// Loads and fully verifies a manifest: header, per-line seals,
    /// and the trailer id recomputed over the parsed content.
    pub fn load(store_dir: &Path) -> io::Result<CampaignManifest> {
        let path = Self::path(store_dir);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                invalid(format!(
                    "no campaign manifest at {} — run the coordinator (`campaign_worker \
                     manifest --store ...`) before attaching workers",
                    path.display()
                ))
            } else {
                e
            }
        })?;
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(invalid(format!("{}: bad manifest header", path.display())));
        }
        let mut insts: Option<u64> = None;
        let mut points = Vec::new();
        let mut end: Option<u64> = None;
        for (n, line) in lines.enumerate() {
            let body = manifest::unseal(line).ok_or_else(|| {
                invalid(format!("{}: line {} fails its seal", path.display(), n + 2))
            })?;
            let mut toks = body.split(' ');
            match toks.next() {
                Some("insts") => {
                    insts = toks.next().and_then(|s| s.parse().ok());
                    if insts.is_none() {
                        return Err(invalid(format!("{}: malformed insts line", path.display())));
                    }
                }
                Some("point") => {
                    let digest =
                        toks.next().and_then(|s| u64::from_str_radix(s, 16).ok()).ok_or_else(
                            || invalid(format!("{}: malformed point line", path.display())),
                        )?;
                    let label = toks.collect::<Vec<_>>().join(" ");
                    points.push((digest, label));
                }
                Some("end") => {
                    end = toks.next().and_then(|s| u64::from_str_radix(s, 16).ok());
                }
                _ => return Err(invalid(format!("{}: unknown manifest record", path.display()))),
            }
        }
        let man = CampaignManifest {
            insts: insts.ok_or_else(|| invalid(format!("{}: missing insts", path.display())))?,
            points,
        };
        match end {
            Some(id) if id == man.id() => Ok(man),
            Some(_) => {
                Err(invalid(format!("{}: campaign id mismatch (torn or tampered)", path.display())))
            }
            None => Err(invalid(format!("{}: missing end trailer (torn write)", path.display()))),
        }
    }
}

/// What one worker invocation did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Points this worker simulated and published with a passing
    /// fence.
    pub published: u64,
    /// Publishes fenced off because the hold was reclaimed
    /// mid-simulation (deduped, not lost — the new owner's publish
    /// counts).
    pub stale: u64,
    /// Points that panicked on every attempt (journaled as `fail`).
    pub failed: u64,
    /// Claim rounds driven.
    pub rounds: u64,
}

/// Re-enumerates the deterministic schedule this binary would run at
/// `insts` and indexes it by key digest. The manifest stores digests
/// (keys are not round-trippable through a text file — `workload` is
/// a `&'static str` into the binary), so workers rebuild the jobs
/// locally and verify the manifest is a subset. The coordinator
/// enumerates the manifest through this function too.
#[must_use]
pub fn schedule_for(experiments: &[Box<dyn Experiment>], insts: u64) -> (ExpContext, Vec<Job>) {
    let ctx = ExpContext { insts, prepared: prepare_suite(insts) };
    let mut cache = ResultCache::new();
    for exp in experiments {
        for job in &exp.jobs(&ctx) {
            cache.request(job);
        }
    }
    let schedule = cache.take_scheduled();
    (ctx, schedule)
}

/// Drains the campaign manifest as worker `worker`: bounded claim
/// batches and fenced publishes. Returns when every manifest point is
/// done/failed or held by someone else.
///
/// # Errors
///
/// Fails on an invalid worker id, a missing/corrupt manifest, a
/// manifest point this binary's schedule does not contain (version
/// mismatch), or any store I/O error.
pub fn worker_loop(
    experiments: &[Box<dyn Experiment>],
    store_dir: &Path,
    worker: &str,
    jobs: usize,
    kill_after: Option<u64>,
) -> io::Result<WorkerReport> {
    if !valid_worker_id(worker) {
        return Err(invalid(format!(
            "invalid worker id {worker:?} (alphanumeric, `_`, `-`, `.`; 1..=64 chars)"
        )));
    }
    let man = CampaignManifest::load(store_dir)?;
    let mut store = ResultStore::open_shared(StoreConfig { dir: store_dir.into(), kill_after })?;
    let (ctx, schedule) = schedule_for(experiments, man.insts);
    let by_digest: BTreeMap<u64, &Job> = schedule.iter().map(|j| (j.key.digest(), j)).collect();
    for (digest, label) in &man.points {
        if !by_digest.contains_key(digest) {
            return Err(invalid(format!(
                "manifest point {label} ({digest:016x}) is not in this binary's schedule — \
                 coordinator/worker version mismatch"
            )));
        }
    }
    let traces: BTreeMap<&str, &tvp_workloads::trace::Trace> =
        ctx.prepared.iter().map(|p| (p.workload.name, &p.trace)).collect();

    let mut report = WorkerReport::default();
    loop {
        // Refresh the whole campaign's journal view — completions,
        // claims and reclaims by other processes matter.
        store.refresh()?;
        let js = store.journal_state();
        let candidates: Vec<&Job> = man
            .points
            .iter()
            .map(|(d, _)| d)
            .filter(|d| {
                !js.completed.contains(d)
                    && !js.failed.contains_key(d)
                    && !js.owners.contains_key(d)
            })
            .map(|d| by_digest[d])
            .collect();
        if candidates.is_empty() {
            break;
        }
        report.rounds += 1;
        let keys: Vec<&ExpKey> = candidates.iter().map(|j| &j.key).collect();
        // A round that loses every claim simulates nothing and claims
        // again: the winners' holds leave the next round's candidates.
        let won = store.acquire_lease_batch(&keys, worker, LEASE_BATCH)?;
        let batch: Vec<Job> = won.iter().map(|&(i, _)| candidates[i].clone()).collect();
        let epochs: BTreeMap<u64, u32> = won.iter().map(|&(i, e)| (keys[i].digest(), e)).collect();
        let outcome = runner::run_jobs(
            &batch,
            |name| traces.get(name).unwrap_or_else(|| panic!("no trace for workload {name}")),
            jobs,
            false,
        );
        // Publish in batch (schedule) order — deterministic for the
        // kill_after chaos knob, exactly like the serial engine.
        for (key, point) in outcome.points {
            if store.publish_fenced(&key, &point, worker, epochs[&key.digest()])? {
                report.published += 1;
            } else {
                report.stale += 1;
            }
        }
        for f in &outcome.failures {
            store.record_failure(&f.key, f.attempts)?;
            report.failed += 1;
        }
    }
    Ok(report)
}

/// What one reap pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReapReport {
    /// Holds reclaimed from dead workers (points returned to the
    /// pending pool at a bumped epoch).
    pub reclaimed: u64,
    /// Holds left alone (owner not in the dead set).
    pub live: u64,
}

/// Reclaims every point the journal's owner map shows held by a dead
/// worker. `is_dead` names them — liveness is decided by the
/// orchestrator (explicit `--dead` ids), never by this function
/// reading a clock.
pub fn reap(store_dir: &Path, is_dead: &dyn Fn(&str) -> bool) -> io::Result<ReapReport> {
    let mut store = ResultStore::open_shared(StoreConfig::at(store_dir))?;
    let mut report = ReapReport::default();
    for (digest, owner) in store.journal_state().owners.clone() {
        if is_dead(&owner.worker) {
            store.reclaim_lease(digest, owner.epoch)?;
            report.reclaimed += 1;
        } else {
            report.live += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::SimPoint;
    use tvp_core::config::{CoreConfig, VpMode};

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tvp-dist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(store::TMP_DIR)).expect("create tempdir");
        dir
    }

    fn jobs3() -> Vec<Job> {
        vec![
            Job::new("a", 100, CoreConfig::table2()),
            Job::new("b", 100, CoreConfig::with_vp(VpMode::Tvp)),
            Job::new("c", 200, CoreConfig::table2()),
        ]
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let a = campaign_fingerprint([1u64, 2, 3].into_iter());
        let b = campaign_fingerprint([1u64, 2, 3].into_iter());
        let c = campaign_fingerprint([3u64, 2, 1].into_iter());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, campaign_fingerprint([1u64, 2].into_iter()));
    }

    #[test]
    fn manifest_round_trips_and_pins_the_campaign() {
        let dir = tempdir("manifest");
        let man = CampaignManifest::from_schedule(100, &jobs3());
        man.write(&dir).expect("write manifest");
        let back = CampaignManifest::load(&dir).expect("load manifest");
        assert_eq!(man, back);
        assert_eq!(man.id(), back.id());
        // Same points at a different budget is a different campaign.
        let other = CampaignManifest::from_schedule(200, &jobs3());
        assert_ne!(man.id(), other.id());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_rejects_torn_and_tampered_files() {
        let dir = tempdir("manifest-torn");
        let man = CampaignManifest::from_schedule(100, &jobs3());
        man.write(&dir).expect("write manifest");
        let path = CampaignManifest::path(&dir);
        let text = std::fs::read_to_string(&path).expect("read back");

        // Torn: drop the end trailer.
        let torn: String =
            text.lines().filter(|l| !l.starts_with("end ")).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, torn).expect("write torn");
        let err = CampaignManifest::load(&dir).expect_err("torn manifest must not load");
        assert!(err.to_string().contains("end trailer"), "{err}");

        // Tampered: flip a digest nibble inside a sealed line.
        let tampered = text.replacen("point", "po1nt", 1);
        std::fs::write(&path, tampered).expect("write tampered");
        let err = CampaignManifest::load(&dir).expect_err("tampered manifest must not load");
        assert!(err.to_string().contains("seal"), "{err}");

        // Missing entirely: the error tells the operator what to run.
        std::fs::remove_file(&path).expect("remove manifest");
        let err = CampaignManifest::load(&dir).expect_err("missing manifest must not load");
        assert!(err.to_string().contains("coordinator"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reap_reclaims_dead_releases_done_and_spares_live() {
        let dir = tempdir("reap");
        let jobs = jobs3();
        let keys: Vec<&ExpKey> = jobs.iter().map(|j| &j.key).collect();
        let mut store = ResultStore::open(StoreConfig::at(&dir)).expect("open store");

        // w0 (dead) holds keys[0] unfinished and completed keys[1]
        // (its `done` ended that hold); w1 (live) holds keys[2].
        assert_eq!(store.acquire_lease_batch(&keys[0..2], "w0", LEASE_BATCH).expect("w0").len(), 2);
        assert_eq!(store.acquire_lease_batch(&keys[2..3], "w1", LEASE_BATCH).expect("w1").len(), 1);
        let point = SimPoint { stats: tvp_core::stats::SimStats::default() };
        assert!(store.publish_fenced(&jobs[1].key, &point, "w0", 1).expect("publish"));

        let report = reap(&dir, &|w| w == "w0").expect("reap");
        assert_eq!(
            report,
            ReapReport { reclaimed: 1, live: 1 },
            "w0's unfinished point reclaimed, its done point left alone, w1 untouched"
        );
        // The reclaimed point is pending again at a bumped epoch; the
        // live hold survives.
        let store = ResultStore::open_shared(StoreConfig::at(&dir)).expect("reopen");
        let js = store.journal_state();
        assert!(js.pending.contains(&jobs[0].key.digest()));
        assert_eq!(js.reclaims.get(&jobs[0].key.digest()), Some(&1));
        assert_eq!(js.epoch(jobs[0].key.digest()), 2);
        assert!(js.completed.contains(&jobs[1].key.digest()));
        assert_eq!(js.owners.keys().copied().collect::<Vec<_>>(), [jobs[2].key.digest()]);
        assert!(js.holds(jobs[2].key.digest(), "w1", 1), "only w1's hold remains");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
