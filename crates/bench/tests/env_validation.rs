//! Malformed environment settings fail loudly (exit 2, message
//! naming the variable) instead of silently running with defaults.
//!
//! The regression these lock: `TVP_STORE_KILL_AFTER` used to be read
//! with `.ok().and_then(|s| s.parse().ok())`, so a typo (`3s`, `0x3`)
//! silently *disarmed* the chaos knob the crash-safety CI depends on
//! — the job would pass without ever exercising the kill path. Same
//! pattern for `TVP_INSTS`: a typo silently ran the default budget.
//! `--jobs 0` and a zero budget (`--insts 0`, `TVP_INSTS=0`) get the
//! same treatment: every binary that takes them exits 2 instead of
//! quietly running one worker or printing all-zero tables, and so does
//! an out-of-range chaos rate, an unknown experiment or workload name,
//! and a `simulate` flag its mode would ignore. An unusable store or
//! results directory is just as loud: one `FATAL:` line and exit 2,
//! never a panic, and before anything is simulated. So is a blob or
//! checkpoint the store cannot write, on each path that writes one.
//! A sampled run's watchdog trip exits 4 with its dump, like a full
//! run's.

use std::path::{Path, PathBuf};
use std::process::Command;

use tvp_bench::experiments::{fig2::Fig2, ExpContext, Experiment};
use tvp_bench::sampling::{SampleKey, SampleSpec};
use tvp_bench::store::{BLOBS_DIR, CHECKPOINTS_DIR};
use tvp_core::config::CoreConfig;

/// Runs `exe` with `args` and the given extra environment, with both
/// TVP knobs scrubbed first so the ambient test environment can't
/// leak in.
fn run(exe: &str, args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(exe);
    cmd.args(args);
    cmd.env_remove("TVP_INSTS");
    cmd.env_remove("TVP_STORE_KILL_AFTER");
    cmd.env_remove("TVP_STORE_DIR");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn binary")
}

fn assert_loud_rejection(out: &std::process::Output, var: &str, bad: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "malformed {var}={bad} must exit 2, got {:?}; stderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(var) && stderr.contains(bad),
        "stderr must name the variable and the offending value: {stderr}"
    );
}

#[test]
fn run_all_rejects_malformed_kill_after() {
    for bad in ["3s", "-1", "1.5", ""] {
        let out = run(
            env!("CARGO_BIN_EXE_run_all"),
            &["--smoke", "--jobs", "1"],
            &[("TVP_STORE_KILL_AFTER", bad)],
        );
        assert_loud_rejection(&out, "TVP_STORE_KILL_AFTER", bad);
    }
}

#[test]
fn run_all_rejects_malformed_insts() {
    for bad in ["lots", "0"] {
        let out =
            run(env!("CARGO_BIN_EXE_run_all"), &["--smoke", "--jobs", "1"], &[("TVP_INSTS", bad)]);
        assert_loud_rejection(&out, "TVP_INSTS", bad);
    }
}

#[test]
fn sample_campaign_rejects_malformed_kill_after() {
    let dir = std::env::temp_dir().join(format!("tvp-envval-{}", std::process::id()));
    let out = run(
        env!("CARGO_BIN_EXE_sample_campaign"),
        &["run", "--insts", "1000", "--store", dir.to_str().expect("utf8 tempdir")],
        &[("TVP_STORE_KILL_AFTER", "soon")],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_loud_rejection(&out, "TVP_STORE_KILL_AFTER", "soon");
}

#[test]
fn well_formed_kill_after_still_arms_the_knob() {
    // Sanity companion: a *valid* value must not be rejected by the
    // new validation. kill_after=1 exits with the kill code (42)
    // after the first publication — proving the knob armed.
    let dir = std::env::temp_dir().join(format!("tvp-envval-armed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(
        env!("CARGO_BIN_EXE_sample_campaign"),
        &[
            "run",
            "--insts",
            "30000",
            "--spec",
            "10000:1000:1000",
            "--store",
            dir.to_str().expect("utf8 tempdir"),
        ],
        &[("TVP_STORE_KILL_AFTER", "1")],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        out.status.code(),
        Some(42),
        "valid kill_after must arm the chaos knob; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `--jobs 0`, `--insts 0` and an out-of-range chaos rate are usage
/// errors (exit 2, naming the flag), never a silent one-worker,
/// zero-budget or clamped run. Parsing rejects them before any store
/// I/O or simulation.
fn assert_flag_rejected(flag: &str, exe: &str, args: &[&str]) {
    let out = run(exe, args, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains(flag), "stderr must name {flag}: {stderr}");
}

#[test]
fn run_all_rejects_zero_jobs() {
    assert_flag_rejected("--jobs", env!("CARGO_BIN_EXE_run_all"), &["--smoke", "--jobs", "0"]);
}

#[test]
fn sample_campaign_run_rejects_zero_jobs() {
    assert_flag_rejected(
        "--jobs",
        env!("CARGO_BIN_EXE_sample_campaign"),
        &["run", "--insts", "1000", "--jobs", "0"],
    );
}

#[test]
fn sample_campaign_validate_rejects_zero_jobs() {
    assert_flag_rejected(
        "--jobs",
        env!("CARGO_BIN_EXE_sample_campaign"),
        &["validate", "--insts", "1000", "--jobs", "0"],
    );
}

#[test]
fn run_all_rejects_zero_insts() {
    assert_flag_rejected(
        "--insts",
        env!("CARGO_BIN_EXE_run_all"),
        &["--insts", "0", "--jobs", "1"],
    );
}

#[test]
fn simulate_rejects_zero_insts() {
    let exe = env!("CARGO_BIN_EXE_simulate");
    assert_flag_rejected("--insts", exe, &["pointer_chase", "--insts", "0"]);
    assert_flag_rejected(
        "--insts",
        exe,
        &["pointer_chase", "--insts", "0", "--sample", "1000:100:100"],
    );
}

#[test]
fn sample_campaign_rejects_zero_insts() {
    let exe = env!("CARGO_BIN_EXE_sample_campaign");
    assert_flag_rejected("--insts", exe, &["run", "--insts", "0", "--jobs", "1"]);
    assert_flag_rejected("--insts", exe, &["validate", "--insts", "0", "--jobs", "1"]);
}

/// A chaos rate above 1000 per mille is rejected, not clamped to 1000.
#[test]
fn simulate_rejects_an_out_of_range_chaos_rate() {
    assert_flag_rejected(
        "--chaos-vp-permille",
        env!("CARGO_BIN_EXE_simulate"),
        &["pointer_chase", "--chaos-vp-permille", "1001"],
    );
}

/// An unknown workload is a usage error like every other: exit 2
/// naming it, not exit 1.
#[test]
fn simulate_rejects_an_unknown_workload() {
    assert_flag_rejected("no_such_workload", env!("CARGO_BIN_EXE_simulate"), &["no_such_workload"]);
}

/// A flag the chosen mode never reads exits 2 naming it, before any
/// trace is built: `--checkpoint` without `--sample`, and `--trace`,
/// `--oracle` or `--baseline-too` with it. Nothing is written.
#[test]
fn simulate_rejects_flags_its_mode_ignores() {
    let dir = std::env::temp_dir().join(format!("tvp-envval-ignored-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ckpt = dir.join("ckpt");
    let trace = dir.join("trace.json");
    let (ckpt, trace) = (ckpt.to_str().expect("utf8"), trace.to_str().expect("utf8"));
    let sampled = ["string_match", "--insts", "4000", "--sample", "2000:500:500"];
    let cases = [
        ("--checkpoint", vec!["string_match", "--insts", "2000", "--checkpoint", ckpt]),
        ("--trace", [&sampled[..], &["--trace", trace]].concat()),
        ("--oracle", [&sampled[..], &["--oracle"]].concat()),
        ("--baseline-too", [&sampled[..], &["--baseline-too"]].concat()),
    ];
    for (flag, args) in &cases {
        assert_flag_rejected(flag, env!("CARGO_BIN_EXE_simulate"), args);
    }
    let written = std::fs::read_dir(&dir).map_or(0, Iterator::count);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(written, 0, "a rejected run must write nothing");
}

/// A watchdog trip in a sampled run exits 4 with the deadlock dump,
/// as it does in a full run, not with a panic (exit 101). So does a
/// full run under `--oracle`: the oracle's final-state check is for
/// runs that finished, and must not report an unfinished one as a
/// divergence (exit 3).
#[test]
fn simulate_sampled_watchdog_trip_is_fatal() {
    let runs: [&[&str]; 2] = [
        &["pointer_chase", "--insts", "20000", "--sample", "20000:5000:5000", "--watchdog", "1"],
        &["pointer_chase", "--insts", "5000", "--oracle", "--watchdog", "1"],
    ];
    for args in runs {
        let out = run(env!("CARGO_BIN_EXE_simulate"), args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("FATAL: pipeline made no commit progress")),
            "{stderr}"
        );
        assert!(!stderr.contains("commit-oracle divergence"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

/// An I/O failure the run cannot continue past exits 2 with one
/// `FATAL:` line naming what failed, not with a panic (exit 101).
fn assert_fatal_io(out: &std::process::Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what} must exit 2; stderr: {stderr}");
    assert!(stderr.contains(what), "{stderr}");
    assert_eq!(stderr.lines().filter(|l| l.starts_with("FATAL: ")).count(), 1, "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A scratch directory holding one regular file, `not-a-dir`.
fn scratch_with_file(tag: &str) -> (std::path::PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("tvp-envval-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"a regular file").expect("write regular file");
    let file = file.to_str().expect("utf8 tempdir").to_owned();
    (dir, file)
}

#[test]
fn run_all_reports_an_unusable_store_as_fatal() {
    let (dir, file) = scratch_with_file("store-file");
    let results = dir.join("results");
    let telemetry = dir.join("telemetry.json");
    let out = run(
        env!("CARGO_BIN_EXE_run_all"),
        &["--insts", "1000", "--store", &file],
        &[
            ("TVP_RESULTS_DIR", results.to_str().expect("utf8 tempdir")),
            ("TVP_BENCH_TELEMETRY", telemetry.to_str().expect("utf8 tempdir")),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_fatal_io(&out, "result store");
}

#[test]
fn run_all_reports_an_unwritable_results_dir_as_fatal() {
    let (dir, file) = scratch_with_file("results-file");
    let telemetry = dir.join("telemetry.json");
    let store = dir.join("store");
    let out = run(
        env!("CARGO_BIN_EXE_run_all"),
        &["--insts", "1000", "--store", store.to_str().expect("utf8 tempdir")],
        &[
            ("TVP_RESULTS_DIR", &file),
            ("TVP_BENCH_TELEMETRY", telemetry.to_str().expect("utf8 tempdir")),
        ],
    );
    // The results directory is checked first: no point is simulated,
    // so none is published.
    let published =
        std::fs::read_dir(store.join(tvp_bench::store::BLOBS_DIR)).map_or(0, Iterator::count);
    let _ = std::fs::remove_dir_all(&dir);
    assert_fatal_io(&out, "results directory");
    assert_eq!(published, 0, "nothing may be published before the results dir fails");
}

#[test]
fn run_all_runs_only_the_named_experiments() {
    let dir = std::env::temp_dir().join(format!("tvp-envval-subset-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let results = dir.join("results");
    let telemetry = dir.join("telemetry.json");
    let out = run(
        env!("CARGO_BIN_EXE_run_all"),
        &["--insts", "1000", "--jobs", "2", "fig2_uops_ipc"],
        &[
            ("TVP_RESULTS_DIR", results.to_str().expect("utf8 tempdir")),
            ("TVP_BENCH_TELEMETRY", telemetry.to_str().expect("utf8 tempdir")),
        ],
    );
    let files: Vec<String> = std::fs::read_dir(&results)
        .into_iter()
        .flatten()
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    let record = std::fs::read_to_string(&telemetry).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(files, ["fig2_uops_ipc.json"]);
    assert!(record.contains("\"jobs_unique\": 25"), "Fig. 2 is one point per workload: {record}");
}

#[test]
fn run_all_rejects_an_unknown_experiment() {
    let dir = std::env::temp_dir().join(format!("tvp-envval-unknown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let results = dir.join("results");
    let telemetry = dir.join("telemetry.json");
    let out = run(
        env!("CARGO_BIN_EXE_run_all"),
        &["--insts", "1000", "fig9"],
        &[
            ("TVP_RESULTS_DIR", results.to_str().expect("utf8 tempdir")),
            ("TVP_BENCH_TELEMETRY", telemetry.to_str().expect("utf8 tempdir")),
        ],
    );
    let created = results.exists() || telemetry.exists();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("fig9") && stderr.contains("fig3_vp_speedup"), "{stderr}");
    assert!(!created, "an unknown name must fail before the run writes anything");
}

/// An empty scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tvp-envval-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Puts a non-empty directory at the store file `sub/<digest>.<ext>`
/// of each digest, so the rename that publishes the file there fails
/// with `EISDIR`. Unlike a read-only directory, this fails for root
/// too.
fn occupy(store: &Path, sub: &str, ext: &str, digests: impl Iterator<Item = u64>) {
    for digest in digests {
        let file = store.join(sub).join(format!("{digest:016x}.{ext}"));
        std::fs::create_dir_all(file.join("occupied")).expect("occupying directory");
    }
}

#[test]
fn run_all_reports_a_blob_it_cannot_publish_as_fatal() {
    let dir = scratch("publish-blob");
    let store = dir.join("store");
    let ctx = ExpContext { insts: 1000, prepared: Vec::new() };
    occupy(&store, BLOBS_DIR, "blob", Fig2.jobs(&ctx).iter().map(|j| j.key.digest()));
    let out = run(
        env!("CARGO_BIN_EXE_run_all"),
        &[
            "--insts",
            "1000",
            "--jobs",
            "1",
            "--store",
            store.to_str().expect("utf8"),
            "fig2_uops_ipc",
        ],
        &[
            ("TVP_RESULTS_DIR", dir.join("results").to_str().expect("utf8")),
            ("TVP_BENCH_TELEMETRY", dir.join("telemetry.json").to_str().expect("utf8")),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_fatal_io(&out, "cannot publish ");
}

#[test]
fn simulate_reports_a_checkpoint_it_cannot_publish_as_fatal() {
    let dir = scratch("publish-ckpt");
    let spec = SampleSpec::new(2000, 500, 500).expect("valid spec");
    let key = SampleKey::new("pointer_chase", 4000, &CoreConfig::table2(), spec);
    occupy(&dir, CHECKPOINTS_DIR, "ckpt", std::iter::once(key.digest()));
    let out = run(
        env!("CARGO_BIN_EXE_simulate"),
        &[
            "pointer_chase",
            "--insts",
            "4000",
            "--sample",
            "2000:500:500",
            "--checkpoint",
            dir.to_str().expect("utf8"),
        ],
        &[],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_fatal_io(&out, "cannot publish checkpoint");
}

#[test]
fn sample_campaign_reports_a_checkpoint_it_cannot_publish_as_fatal() {
    let dir = scratch("campaign-ckpt");
    let spec = SampleSpec::new(1000, 100, 100).expect("valid spec");
    let cfg = CoreConfig::default();
    let digests =
        tvp_workloads::suite::names().map(|w| SampleKey::new(w, 2000, &cfg, spec).digest());
    occupy(&dir, CHECKPOINTS_DIR, "ckpt", digests);
    let out = run(
        env!("CARGO_BIN_EXE_sample_campaign"),
        &[
            "run",
            "--insts",
            "2000",
            "--spec",
            "1000:100:100",
            "--jobs",
            "1",
            "--store",
            dir.to_str().expect("utf8"),
            "--telemetry",
            dir.join("telemetry.json").to_str().expect("utf8"),
        ],
        &[],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_fatal_io(&out, "cannot publish checkpoint");
}
