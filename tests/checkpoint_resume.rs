//! Checkpoint/resume chaos tests for sampled campaigns.
//!
//! A sampled campaign must survive being killed between intervals: the
//! durable store holds an architectural checkpoint after every
//! interval, and a restarted run must produce the **byte-identical**
//! result fingerprint a never-killed run produces. These tests prove
//! that bar three ways:
//!
//! 1. stop mid-campaign (`stop_after_intervals`, the in-process kill
//!    analogue), resume from the store, compare fingerprints against a
//!    cold storeless reference;
//! 2. corrupt the on-disk checkpoint (single byte flip), watch the
//!    store quarantine it and the run fall back to a cold start with —
//!    again — the identical fingerprint;
//! 3. run a whole suite campaign at two `--jobs` widths and compare
//!    campaign fingerprints.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tvp_bench::sampling::{
    campaign_fingerprint, run_sampled, run_suite_sampled, SampleKey, SampleRunOptions, SampleSpec,
    SampledRun,
};
use tvp_bench::store::{ResultStore, StoreConfig, CHECKPOINTS_DIR};
use tvp_core::config::CoreConfig;
use tvp_workloads::suite::by_name;
use tvp_workloads::Workload;

/// Stream length / spec sized for 5 intervals — enough that a kill at
/// interval 2 leaves real work on both sides of the cut.
const INSTS: u64 = 50_000;

fn spec() -> SampleSpec {
    SampleSpec::new(10_000, 3_000, 2_000).expect("chaos spec is valid")
}

fn workload() -> Workload {
    by_name("pointer_chase").expect("pointer_chase is in the suite")
}

/// Per-test scratch directory (same pattern as `store_recovery.rs`):
/// under the system temp dir, keyed by pid + test name, recreated
/// fresh so a previous failed run cannot leak state in.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tvp_ckpt_resume_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

fn open_store(dir: &Path) -> Mutex<ResultStore> {
    Mutex::new(ResultStore::open(StoreConfig::at(dir.to_path_buf())).expect("store opens"))
}

/// One sampled run at [`INSTS`] under [`spec`]; a watchdog trip fails
/// the test.
fn sampled(
    w: &Workload,
    cfg: &CoreConfig,
    store: Option<&Mutex<ResultStore>>,
    stop_after_intervals: Option<u32>,
) -> SampledRun {
    run_sampled(w, cfg, INSTS, spec(), SampleRunOptions { store, stop_after_intervals })
        .expect("no pipeline deadlock")
}

#[test]
fn killed_campaign_resumes_byte_identical() {
    let dir = scratch("kill_resume");
    let cfg = CoreConfig::default();
    let w = workload();

    // Cold storeless reference: the fingerprint a never-killed,
    // never-checkpointed run produces.
    let reference = sampled(&w, &cfg, None, None);
    assert!(reference.intervals.len() >= 4, "spec must yield several intervals");
    let want = reference.fingerprint();

    // "Kill" after 2 freshly simulated intervals, checkpointing as we
    // go — the partial run returns with the store holding the newest
    // checkpoint.
    let store = open_store(&dir);
    let partial = sampled(&w, &cfg, Some(&store), Some(2));
    assert_eq!(partial.intervals.len(), 2, "stopped after exactly two intervals");
    assert!(partial.total_insts < INSTS, "the kill left work behind");

    // Resume: the restarted run must pick up the checkpoint (warm hit,
    // resumed intervals) and finish byte-identical to the reference.
    let resumed = sampled(&w, &cfg, Some(&store), None);
    assert_eq!(resumed.resumed_intervals, 2, "resume replays nothing before the cut");
    assert_eq!(
        resumed.intervals.len(),
        reference.intervals.len(),
        "resume completes the remaining intervals"
    );
    assert_eq!(resumed.fingerprint(), want, "kill + resume is byte-identical to cold");
    assert_eq!(resumed.total_insts, reference.total_insts);
    assert_eq!(resumed.measured_insts, reference.measured_insts);
    {
        let s = store.lock().expect("store lock poisoned");
        assert_eq!(s.counters().warm_hits, 1, "resume took the checkpoint path");
        assert_eq!(s.counters().quarantined, 0);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_quarantines_and_falls_back_cold() {
    let dir = scratch("corrupt_ckpt");
    let cfg = CoreConfig::default();
    let w = workload();

    let reference = sampled(&w, &cfg, None, None);
    let want = reference.fingerprint();

    // Publish checkpoints up to interval 2, then flip one byte in the
    // middle of the on-disk checkpoint.
    let store = open_store(&dir);
    let _ = sampled(&w, &cfg, Some(&store), Some(2));
    let digest = SampleKey::new(w.name, INSTS, &cfg, spec()).digest();
    let ckpt_path = dir.join(CHECKPOINTS_DIR).join(format!("{digest:016x}.ckpt"));
    let mut bytes = std::fs::read(&ckpt_path).expect("checkpoint file exists after publish");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&ckpt_path, &bytes).expect("corrupted checkpoint writes");

    // The restarted run must detect the corruption, quarantine the
    // checkpoint, start cold — and still land on the reference
    // fingerprint (checkpoints are a cache, never a source of truth).
    let resumed = sampled(&w, &cfg, Some(&store), None);
    assert_eq!(resumed.resumed_intervals, 0, "corrupt checkpoint must not be resumed from");
    assert_eq!(resumed.fingerprint(), want, "cold fallback is byte-identical");
    {
        let s = store.lock().expect("store lock poisoned");
        assert_eq!(s.counters().quarantined, 1, "the corrupt checkpoint was quarantined");
    }
    assert!(
        !ckpt_path.exists() || std::fs::read(&ckpt_path).expect("readable") != bytes,
        "the corrupt file must not linger as the live checkpoint"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_fingerprint_is_jobs_invariant() {
    let cfg = CoreConfig::default();
    // A small slice of the suite keeps this test fast while still
    // exercising cross-workload ordering under contention.
    let workloads: Vec<Workload> = ["pointer_chase", "stream_triad", "entropy_coder", "minimax"]
        .iter()
        .map(|n| by_name(n).expect("suite workload"))
        .collect();

    let serial = run_suite_sampled(&workloads, &cfg, INSTS, spec(), 1, None);
    let wide = run_suite_sampled(&workloads, &cfg, INSTS, spec(), 4, None);
    assert_eq!(serial.len(), workloads.len());
    assert_eq!(
        campaign_fingerprint(&serial),
        campaign_fingerprint(&wide),
        "campaign fingerprint must not depend on worker width"
    );
    for (a, b) in serial.iter().zip(&wide) {
        assert_eq!(a.fingerprint(), b.fingerprint(), "per-run fingerprints match across widths");
    }
}
