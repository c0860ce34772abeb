//! Golden-snapshot regression layer: every `SimStats` counter of every
//! workload under the paper's configuration.
//!
//! Every workload in the bundled suite is simulated at a fixed budget
//! with the paper's full TVP+SpSR configuration, and each of its
//! counters is written as one `workload counter value` line, in the
//! order of `SimStats::counters`, to compare against the checked-in
//! snapshot at `tests/golden/golden_stats.txt`. A mismatch names the
//! counter: a behaviour change shows as a changed value, a renamed
//! counter as one line gone and one new line with the same value, and
//! a removed counter as a line gone.
//!
//! On an intentional behaviour change, regenerate with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --release -p tvp-harness --test golden_stats
//! ```
//!
//! and review the snapshot diff like any other code change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use tvp_bench::experiments::vp_cfg;
use tvp_core::config::VpMode;
use tvp_core::pipeline::simulate;

/// Fixed budget: small enough to keep the suite fast, large enough
/// that predictors warm up and SpSR conversions occur.
const INSTS: u64 = 20_000;

fn golden_path() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/harness; the snapshot lives next to
    // the integration tests at the repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/golden_stats.txt")
}

/// Renders the current snapshot, one `workload counter value` line per
/// counter, in suite order.
fn render_snapshot() -> String {
    let cfg = vp_cfg(VpMode::Tvp, true);
    let mut out = String::new();
    let _ = writeln!(out, "# golden stats: suite @ {INSTS} insts, Table 2 + TVP + SpSR");
    let _ = writeln!(
        out,
        "# regenerate: GOLDEN_UPDATE=1 cargo test --release -p tvp-harness --test golden_stats"
    );
    for w in tvp_workloads::suite::suite() {
        let stats = simulate(cfg.clone(), &w.trace(INSTS));
        for (counter, value) in stats.counters() {
            let _ = writeln!(out, "{} {counter} {value}", w.name);
        }
    }
    out
}

/// The snapshot's `workload counter` → value entries.
fn entries(snapshot: &str) -> BTreeMap<&str, &str> {
    snapshot.lines().filter(|l| !l.starts_with('#')).filter_map(|l| l.rsplit_once(' ')).collect()
}

#[test]
fn suite_matches_golden_snapshot() {
    let actual = render_snapshot();
    let path = golden_path();

    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden snapshot");
        println!("golden snapshot regenerated at {}", path.display());
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no golden snapshot at {} ({e}); generate one with \
             GOLDEN_UPDATE=1 cargo test --release -p tvp-harness --test golden_stats",
            path.display()
        )
    });

    if expected == actual {
        return;
    }

    // Name each counter that moved, appeared or went away.
    let (golden, now) = (entries(&expected), entries(&actual));
    let mut diff = String::new();
    for (key, want) in &golden {
        match now.get(key) {
            Some(got) if got == want => {}
            Some(got) => {
                let _ = writeln!(diff, "  {key}: golden {want}, actual {got}");
            }
            None => {
                let _ = writeln!(diff, "  {key}: golden {want}, no longer reported");
            }
        }
    }
    for (key, got) in now.iter().filter(|(key, _)| !golden.contains_key(*key)) {
        let _ = writeln!(diff, "  {key}: not in the snapshot, actual {got}");
    }
    if diff.is_empty() {
        diff.push_str("  same entries, in a different order or with a different header\n");
    }
    panic!(
        "golden stats drifted:\n{diff}\
         if the change is intentional, regenerate with \
         GOLDEN_UPDATE=1 cargo test --release -p tvp-harness --test golden_stats \
         and review the snapshot diff"
    );
}

#[test]
fn snapshot_rendering_is_stable_within_a_process() {
    // The golden layer is only sound if rendering itself is
    // deterministic; lock that independently of the checked-in file.
    let w = tvp_workloads::suite::by_name("mc_playout").expect("bundled workload");
    let cfg = vp_cfg(VpMode::Tvp, true);
    let trace = w.trace(5_000);
    let a = simulate(cfg.clone(), &trace);
    let b = simulate(cfg, &trace);
    assert_eq!(a, b, "same trace, same stats");
}
