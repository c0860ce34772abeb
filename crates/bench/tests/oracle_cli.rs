//! The commit oracle's command-line contract (README "Chaos testing",
//! DESIGN §9.5 and §11.3): a chaos campaign under `--oracle` exits 0
//! and names its seed, and the same campaign with recovery sabotaged
//! exits 3 with one `FATAL:` divergence line that carries the replay
//! seed and the flight recorder's event count, with the event trace
//! already on disk.

use std::process::Command;

#[test]
fn oracle_passes_a_campaign_and_catches_its_sabotaged_twin() {
    let campaign =
        ["pointer_chase", "--vp", "gvp", "--insts", "12000", "--chaos-seed", "7", "--oracle"];
    let clean = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(campaign)
        .output()
        .expect("spawn simulate");
    let stdout = String::from_utf8_lossy(&clean.stdout);
    let stderr = String::from_utf8_lossy(&clean.stderr);
    assert_eq!(clean.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.lines().any(|l| l.starts_with("chaos seed") && l.ends_with(" 0x7")), "{stdout}");

    let dir = std::env::temp_dir().join(format!("tvp-oracle-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace = dir.join("trace.json");
    let sabotaged = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(campaign)
        .arg("--sabotage")
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("spawn simulate");
    let written = std::fs::metadata(&trace).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&sabotaged.stderr);
    assert_eq!(sabotaged.status.code(), Some(3), "stderr: {stderr}");
    let fatal: Vec<&str> = stderr.lines().filter(|l| l.starts_with("FATAL: ")).collect();
    assert_eq!(fatal.len(), 1, "{stderr}");
    assert!(fatal[0].starts_with("FATAL: commit-oracle divergence"), "{stderr}");
    assert!(fatal[0].contains("[replay with chaos seed 0x7]"), "{stderr}");
    assert!(fatal[0].contains("trace events captured"), "{stderr}");
    assert!(written > 0, "the divergence must ship its event trace to disk");
}
