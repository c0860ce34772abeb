//! A closed stdout is not a crash. When the reader of a binary's
//! report goes away early (`simulate --list | head -2`, `run_all |
//! head -1`), the binary ends its output and exits with its own
//! status; `println!` used to panic there and exit 101. Any other
//! stdout write error is one `FATAL:` line and exit 2.
//!
//! Each test closes the pipe's read end before it spawns the binary,
//! so the binary's first write fails with `EPIPE` every time.

use std::process::{Command, Output, Stdio};

use tvp_bench::jobs::{ExpKey, SimPoint};
use tvp_bench::store::{ResultStore, StoreConfig, BLOBS_DIR};
use tvp_core::config::{CoreConfig, VpMode};
use tvp_core::stats::SimStats;

/// Runs `cmd`, its stdout a pipe nobody reads.
fn run_into_closed_pipe(cmd: &mut Command) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    cmd.stdout(writer).stderr(Stdio::piped()).output().expect("spawn binary")
}

fn assert_exit_without_panic(out: &Output, code: i32) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "a closed stdout must not panic: {stderr}");
}

#[test]
fn simulate_list_into_a_closed_pipe_exits_zero() {
    let out = run_into_closed_pipe(Command::new(env!("CARGO_BIN_EXE_simulate")).arg("--list"));
    assert_exit_without_panic(&out, 0);
}

#[test]
fn run_all_into_a_closed_pipe_finishes_and_exits_zero() {
    let dir =
        std::env::temp_dir().join(format!("tvp-closed-stdout-run-all-{}", std::process::id()));
    let out = run_into_closed_pipe(
        Command::new(env!("CARGO_BIN_EXE_run_all"))
            .args(["--jobs", "1", "--insts", "2000", "fig1_value_dist"])
            .env("TVP_RESULTS_DIR", dir.join("results"))
            .env("TVP_BENCH_TELEMETRY", dir.join("telemetry.json"))
            .env_remove("TVP_STORE_DIR")
            .env_remove("TVP_STORE_KILL_AFTER"),
    );
    let finished = dir.join("results").join("fig1_top_values.json").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert_exit_without_panic(&out, 0);
    assert!(finished, "run_all stopped before writing its results");
}

#[test]
fn fsck_store_into_a_closed_pipe_keeps_its_verdict() {
    let dir = std::env::temp_dir().join(format!("tvp-closed-stdout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = ExpKey::new("string_match", 5_000, &CoreConfig::with_vp(VpMode::Tvp));
    {
        let mut store = ResultStore::open(StoreConfig::at(&dir)).expect("open store");
        store.lease_all(std::iter::once(&key)).expect("lease");
        let point = SimPoint { stats: SimStats { cycles: 1_234, ..Default::default() } };
        store.publish(&key, &point).expect("publish");
    }
    let blob = dir.join(BLOBS_DIR).join(format!("{:016x}.blob", key.digest()));
    let bytes = std::fs::read(&blob).expect("read blob");
    std::fs::write(&blob, &bytes[..bytes.len() / 2]).expect("truncate blob");

    let out = run_into_closed_pipe(Command::new(env!("CARGO_BIN_EXE_fsck_store")).arg(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    assert_exit_without_panic(&out, 1);
}

/// A full device is a real write error, not a departed reader.
#[cfg(target_os = "linux")]
#[test]
fn simulate_list_onto_a_full_device_is_fatal() {
    let full = std::fs::OpenOptions::new().write(true).open("/dev/full").expect("open /dev/full");
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .arg("--list")
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn simulate");
    assert_exit_without_panic(&out, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("FATAL: cannot write to stdout"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "one FATAL line: {stderr}");
}
