//! Malformed environment settings fail loudly (exit 2, message
//! naming the variable) instead of silently running with defaults.
//!
//! The regression these lock: `TVP_STORE_KILL_AFTER` used to be read
//! with `.ok().and_then(|s| s.parse().ok())`, so a typo (`3s`, `0x3`)
//! silently *disarmed* the chaos knob the crash-safety CI depends on
//! — the job would pass without ever exercising the kill path. Same
//! pattern for `TVP_INSTS`: a typo silently ran the default budget.
//! `--jobs 0` gets the same treatment: every binary that takes the
//! flag exits 2 instead of quietly running one worker. An unusable
//! store or results directory is just as loud: one `FATAL:` line and
//! exit 2, never a panic.

use std::process::Command;

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
    let out =
        run(env!("CARGO_BIN_EXE_run_all"), &["--smoke", "--jobs", "1"], &[("TVP_INSTS", "lots")]);
    assert_loud_rejection(&out, "TVP_INSTS", "lots");
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

/// `--jobs 0` is a usage error (exit 2, naming the flag), never a
/// silent one-worker run. Parsing rejects it before any store I/O or
/// simulation.
fn assert_zero_jobs_rejected(exe: &str, args: &[&str]) {
    let out = run(exe, args, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains("--jobs"), "stderr must name the flag: {stderr}");
}

#[test]
fn run_all_rejects_zero_jobs() {
    assert_zero_jobs_rejected(env!("CARGO_BIN_EXE_run_all"), &["--smoke", "--jobs", "0"]);
}

#[test]
fn sample_campaign_run_rejects_zero_jobs() {
    assert_zero_jobs_rejected(
        env!("CARGO_BIN_EXE_sample_campaign"),
        &["run", "--insts", "1000", "--jobs", "0"],
    );
}

#[test]
fn sample_campaign_validate_rejects_zero_jobs() {
    assert_zero_jobs_rejected(
        env!("CARGO_BIN_EXE_sample_campaign"),
        &["validate", "--insts", "1000", "--jobs", "0"],
    );
}

/// An I/O failure the run cannot continue past exits 2 with one
/// `FATAL:` line naming what failed, not with a panic (exit 101).
fn assert_fatal_io(out: &std::process::Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what} must exit 2; stderr: {stderr}");
    assert!(stderr.contains("FATAL") && stderr.contains(what), "{stderr}");
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
    let out = run(
        env!("CARGO_BIN_EXE_run_all"),
        &["--insts", "1000"],
        &[
            ("TVP_RESULTS_DIR", &file),
            ("TVP_BENCH_TELEMETRY", telemetry.to_str().expect("utf8 tempdir")),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_fatal_io(&out, "results directory");
}
