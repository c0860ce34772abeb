//! Durable-store crash recovery, end to end through the engine.
//!
//! The robustness contract under test: cold run ≡ warm run ≡
//! kill-at-an-arbitrary-point-then-resume, all byte-identical in
//! `results/*.json`; and a store damaged in any of the classic ways
//! (torn write, flipped bits, schema skew) quarantines the bad blob,
//! re-simulates it, and still converges on the identical results. A
//! store an older build left, with its campaign journal and the retired
//! fabric's directories, loads warm and keeps those files untouched.
//!
//! Every test routes file output through [`RunOptions`] overrides —
//! no process-environment mutation — so the tests are safe to run on
//! parallel test threads.

use std::path::{Path, PathBuf};

use tvp_bench::engine::{self, EngineReport, RunOptions};
use tvp_bench::experiments::{vp_cfg, Assembled, ExpContext, Experiment, ResultFile, ResultSet};
use tvp_bench::jobs::{ExpKey, Job, SimPoint};
use tvp_bench::store::{
    blob, fsck, LoadOutcome, ResultStore, StoreConfig, BLOBS_DIR, QUARANTINE_DIR, TMP_DIR,
};
use tvp_core::config::VpMode;
use tvp_isa::stream::fnv1a;

/// Instruction budget: big enough for distinct per-config cycle
/// counts, small enough that each test runs several campaigns.
const INSTS: u64 = 2_000;

/// The campaign under test: three workloads × two VP flavours.
fn sweep_jobs(insts: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for w in tvp_workloads::suite().into_iter().take(3) {
        for vp in [VpMode::Tvp, VpMode::Gvp] {
            jobs.push(Job::new(w.name, insts, vp_cfg(vp, true)));
        }
    }
    jobs
}

struct Sweep;

impl Experiment for Sweep {
    fn name(&self) -> &'static str {
        "sweep"
    }

    fn jobs(&self, ctx: &ExpContext) -> Vec<Job> {
        sweep_jobs(ctx.insts)
    }

    fn assemble(&self, ctx: &ExpContext, results: &ResultSet<'_>) -> Assembled {
        let rows: Vec<String> = sweep_jobs(ctx.insts)
            .into_iter()
            .map(|job| {
                let stats = results.stats(&job.key);
                format!(
                    "{{\"point\": \"{}\", \"cycles\": {}, \"insts\": {}}}",
                    job.key.display(),
                    stats.cycles,
                    stats.insts_retired
                )
            })
            .collect();
        let json = format!("[{}]", rows.join(","));
        Assembled {
            report: String::new(),
            files: vec![ResultFile { name: "store_sweep".to_owned(), json }],
        }
    }
}

fn experiments() -> Vec<Box<dyn Experiment>> {
    vec![Box::new(Sweep)]
}

/// Unique scratch root per test (tests run on parallel threads).
fn scratch(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tvp_store_recovery_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the sweep campaign, returning the results file path and the
/// engine report. All output lands under `scratch`.
fn run_campaign(scratch: &Path, tag: &str, store: Option<&Path>) -> (PathBuf, EngineReport) {
    let results_dir = scratch.join(format!("results_{tag}"));
    let opts = RunOptions {
        workers: Some(2),
        insts: INSTS,
        store_dir: store.map(Path::to_path_buf),
        results_dir: Some(results_dir.to_string_lossy().into_owned()),
        telemetry_path: Some(
            scratch.join(format!("telemetry_{tag}.json")).to_string_lossy().into_owned(),
        ),
        ..RunOptions::default()
    };
    let report = engine::run(&experiments(), &opts);
    (results_dir.join("store_sweep.json"), report)
}

fn read_bytes(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The blob file backing `key` in the store at `dir`.
fn blob_path(dir: &Path, key: &ExpKey) -> PathBuf {
    dir.join(BLOBS_DIR).join(format!("{:016x}.blob", key.digest()))
}

/// Files currently in a store's quarantine, as names.
fn quarantine_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join(QUARANTINE_DIR))
        .map(|entries| {
            entries.flatten().map(|e| e.file_name().to_string_lossy().into_owned()).collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

#[test]
fn warm_rerun_is_byte_identical_and_simulates_nothing() {
    let root = scratch("warm");
    let store = root.join("store");

    let (no_store_path, baseline) = run_campaign(&root, "nostore", None);
    let (cold_path, cold) = run_campaign(&root, "cold", Some(&store));
    let (warm_path, warm) = run_campaign(&root, "warm", Some(&store));

    assert!(baseline.failures.is_empty() && cold.failures.is_empty() && warm.failures.is_empty());
    let reference = read_bytes(&no_store_path);
    assert_eq!(read_bytes(&cold_path), reference, "attaching a store changed the results");
    assert_eq!(read_bytes(&warm_path), reference, "warm rerun changed the results");

    assert!(!baseline.telemetry.store_enabled);
    assert!(cold.telemetry.store_enabled && warm.telemetry.store_enabled);
    assert_eq!(cold.telemetry.store_warm_hits, 0, "first store run is fully cold");
    let unique = sweep_jobs(INSTS).len() as u64;
    assert_eq!(warm.telemetry.store_warm_hits, unique, "second run loads every point warm");
    assert_eq!(warm.telemetry.jobs_unique, 0, "nothing left to simulate");
    assert_eq!(warm.telemetry.quarantined, 0);
    assert_eq!(warm.telemetry.cache_conflicts, 0);
    // The cold run builds one trace per workload of the sweep; the warm
    // run builds none.
    assert_eq!(cold.telemetry.traces_built, 3, "one trace per distinct workload");
    assert_eq!(warm.telemetry.traces_built, 0, "a warm rerun builds no trace");

    let report = fsck::fsck(&store).expect("fsck");
    assert!(report.clean(), "healthy store must fsck clean: {}", report.summary());
    let _ = std::fs::remove_dir_all(&root);
}

/// Tiny deterministic PRNG for picking the kill point — the chaos is
/// seeded, so the "random" interruption is reproducible.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[test]
fn kill_at_seeded_random_point_then_resume_is_byte_identical() {
    let root = scratch("kill");
    let cold_store = root.join("cold_store");
    let (cold_path, cold) = run_campaign(&root, "cold", Some(&cold_store));
    assert!(cold.failures.is_empty());
    let reference = read_bytes(&cold_path);

    // Reconstruct the on-disk state a campaign killed between two
    // publications leaves behind: a seeded-random prefix of blobs
    // published, one of them corrupted by a bit flip, and a stale
    // scratch file from the interrupted publication.
    let keys: Vec<ExpKey> = sweep_jobs(INSTS).into_iter().map(|j| j.key).collect();
    let mut source = ResultStore::open(StoreConfig::at(&cold_store)).expect("open cold store");
    let points: Vec<(ExpKey, SimPoint)> = keys
        .iter()
        .map(|k| match source.load(k) {
            LoadOutcome::Hit(p) => (k.clone(), *p),
            other => panic!("cold store must hold {}: {other:?}", k.display()),
        })
        .collect();

    let killed = root.join("killed_store");
    let mut seed = 0x9E37_79B9_7F4A_7C15;
    let survived: Vec<&(ExpKey, SimPoint)> = points
        .iter()
        .enumerate()
        .filter(|(i, _)| *i == 0 || xorshift(&mut seed).is_multiple_of(2))
        .map(|(_, kp)| kp)
        .collect();
    assert!(survived.len() < points.len(), "the kill must interrupt something");
    {
        let mut store = ResultStore::open(StoreConfig::at(&killed)).expect("open killed store");
        for (k, p) in &survived {
            store.publish(k, p).expect("publish surviving blob");
        }
    }
    // Bit-flip the first survivor's blob (disk corruption on top of
    // the kill) and leave a stale tmp file.
    let victim = &survived[0].0;
    let victim_blob = blob_path(&killed, victim);
    let mut bytes = read_bytes(&victim_blob);
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim_blob, &bytes).expect("corrupt blob");
    std::fs::write(killed.join(TMP_DIR).join("interrupted.tmp"), b"part").expect("stale tmp");

    // fsck sees the damage before the resume...
    let before = fsck::fsck(&killed).expect("fsck killed store");
    assert!(!before.clean(), "corrupted store must not fsck clean");
    assert_eq!(before.corrupt.len(), 1, "{:?}", before.corrupt);
    assert_eq!(before.tmp_stale, 1);

    // ...the resumed campaign repairs everything and reproduces the
    // cold results byte for byte.
    let (resumed_path, resumed) = run_campaign(&root, "resumed", Some(&killed));
    assert!(resumed.failures.is_empty() && resumed.skipped.is_empty());
    assert_eq!(read_bytes(&resumed_path), reference, "resume diverged from the cold run");
    assert_eq!(resumed.telemetry.quarantined, 1, "the flipped blob was quarantined");
    assert_eq!(
        resumed.telemetry.store_warm_hits,
        (survived.len() - 1) as u64,
        "every intact survivor loads warm"
    );
    assert_eq!(
        resumed.telemetry.jobs_unique,
        (points.len() - survived.len() + 1) as u64,
        "only interrupted + quarantined points re-simulate"
    );

    let after = fsck::fsck(&killed).expect("fsck resumed store");
    assert!(after.clean(), "resume must heal the store: {}", after.summary());
    assert_eq!(after.quarantined, 1, "evidence of the corruption is preserved");
    assert_eq!(after.tmp_stale, 0, "stale scratch swept");
    let names = quarantine_names(&killed);
    assert!(
        names[0].starts_with(&format!("{:016x}.", victim.digest())),
        "quarantine file {} names the corrupt digest",
        names[0]
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn schema_version_skew_is_quarantined_and_resimulated() {
    let root = scratch("schema");
    let store = root.join("store");
    let (cold_path, _) = run_campaign(&root, "cold", Some(&store));
    let reference = read_bytes(&cold_path);

    // Rewrite one blob as a future schema version with a *valid*
    // checksum — the reseal proves the schema gate itself rejects it,
    // not merely the checksum.
    let victim = sweep_jobs(INSTS).remove(0).key;
    let path = blob_path(&store, &victim);
    let mut bytes = read_bytes(&path);
    bytes[8..12].copy_from_slice(&(blob::BLOB_SCHEMA + 1).to_le_bytes());
    let len = bytes.len();
    let resealed = fnv1a(&bytes[..len - blob::CHECKSUM_LEN]);
    bytes[len - blob::CHECKSUM_LEN..].copy_from_slice(&resealed.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write skewed blob");

    let (rerun_path, rerun) = run_campaign(&root, "rerun", Some(&store));
    assert!(rerun.failures.is_empty());
    assert_eq!(read_bytes(&rerun_path), reference, "schema skew changed the results");
    assert_eq!(rerun.telemetry.quarantined, 1);
    let names = quarantine_names(&store);
    assert_eq!(names.len(), 1);
    assert!(names[0].contains(".schema."), "quarantine name {} carries the reason", names[0]);
    assert!(fsck::fsck(&store).expect("fsck").clean(), "re-publication healed the store");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_blob_write_is_detected_and_healed_on_rerun() {
    let root = scratch("torn");
    let store = root.join("store");
    let (cold_path, _) = run_campaign(&root, "cold", Some(&store));
    let reference = read_bytes(&cold_path);

    // Truncate a blob mid-body — the signature of a torn write that
    // bypassed the tmp+rename protocol (e.g. filesystem damage).
    let victim = sweep_jobs(INSTS).remove(1).key;
    let path = blob_path(&store, &victim);
    let bytes = read_bytes(&path);
    std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate blob");

    let (rerun_path, rerun) = run_campaign(&root, "rerun", Some(&store));
    assert!(rerun.failures.is_empty());
    assert_eq!(read_bytes(&rerun_path), reference, "torn blob changed the results");
    assert_eq!(rerun.telemetry.quarantined, 1);
    let names = quarantine_names(&store);
    assert_eq!(names.len(), 1);
    assert!(names[0].contains(".torn."), "quarantine name {} carries the reason", names[0]);
    assert!(fsck::fsck(&store).expect("fsck").clean());
    let _ = std::fs::remove_dir_all(&root);
}

/// One journal line as older builds sealed it: the body, then its
/// FNV-1a checksum.
fn sealed(body: &str) -> String {
    format!("{body} #{:016x}\n", fnv1a(body.as_bytes()))
}

#[test]
fn older_store_with_a_journal_loads_warm_and_keeps_it_untouched() {
    let root = scratch("older");
    let store = root.join("store");
    let (cold_path, cold) = run_campaign(&root, "cold", Some(&store));
    assert!(cold.failures.is_empty());
    let reference = read_bytes(&cold_path);

    // What an older build left next to the blobs: a campaign journal
    // with every record kind it or the retired fabric wrote and a torn
    // tail, and the fabric's empty `leases/`, `workers/` and
    // `campaign.manifest`.
    let digests: Vec<String> =
        sweep_jobs(INSTS).iter().map(|j| format!("{:016x}", j.key.digest())).collect();
    let (d0, d1, d2) = (&digests[0], &digests[1], &digests[2]);
    let mut journal = String::from("tvp-journal 1\n");
    for d in &digests {
        journal.push_str(&sealed(&format!("lease {d} point#{d}")));
    }
    for body in [
        format!("done {d0}"),
        format!("fail {d1} attempts 2"),
        format!("done {d1}"),
        format!("wlease {d2} w0 1 point#{d2}"),
        format!("reclaim {d2} 1"),
        format!("wlease {d2} w1 2 point#{d2}"),
        format!("stale {d2} w0 1"),
        format!("done {d2}"),
    ] {
        journal.push_str(&sealed(&body));
    }
    journal.push_str("done 00000000");
    let journal_path = store.join("journal.log");
    std::fs::write(&journal_path, &journal).expect("write journal");
    for dir in ["leases", "workers"] {
        std::fs::create_dir_all(store.join(dir)).expect("fabric directory");
    }
    std::fs::write(store.join("campaign.manifest"), b"").expect("fabric manifest");

    let report = fsck::fsck(&store).expect("fsck");
    assert!(report.clean(), "an older store is healthy: {}", report.summary());
    assert!(report.ignored_journal, "its journal is reported as ignored");
    assert_eq!(report.blobs_ok, digests.len() as u64);

    let (warm_path, warm) = run_campaign(&root, "warm", Some(&store));
    assert!(warm.failures.is_empty() && warm.skipped.is_empty());
    assert_eq!(warm.telemetry.store_warm_hits, digests.len() as u64, "every blob loads warm");
    assert_eq!(warm.telemetry.jobs_unique, 0, "nothing left to simulate");
    assert_eq!(read_bytes(&warm_path), reference, "an older store changed the results");

    assert!(fsck::fsck(&store).expect("fsck after the run").clean());
    assert_eq!(read_bytes(&journal_path), journal.as_bytes(), "the journal is never written");
    assert!(store.join("leases").is_dir() && store.join("campaign.manifest").is_file());
    let _ = std::fs::remove_dir_all(&root);
}
