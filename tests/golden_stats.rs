//! Golden-snapshot regression layer: per-workload commit fingerprints
//! and key statistics under the default Table 2 configuration.
//!
//! Every workload in the bundled suite is simulated at a fixed budget
//! with the paper's full TVP+SpSR configuration, and the resulting
//! statistics are compared line-by-line against the checked-in
//! snapshot at `tests/golden/golden_stats.txt`. The snapshot locks:
//!
//! - a **commit fingerprint** — FNV-1a over the `Debug` rendering of
//!   the complete `SimStats`, so *any* counter drift is caught, not
//!   just the headline numbers;
//! - the headline numbers themselves (cycles, retired µops, IPC, VP
//!   coverage, SpSR conversions), so a mismatch names the statistic
//!   that moved in human units rather than only a hash.
//!
//! On an intentional behaviour change, regenerate with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --release -p tvp-harness --test golden_stats
//! ```
//!
//! and review the snapshot diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use tvp_bench::experiments::vp_cfg;
use tvp_core::config::VpMode;
use tvp_core::pipeline::simulate;
use tvp_isa::stream::fnv1a;

/// Fixed budget: small enough to keep the suite fast, large enough
/// that predictors warm up and SpSR conversions occur.
const INSTS: u64 = 20_000;

fn golden_path() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/harness; the snapshot lives next to
    // the integration tests at the repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/golden_stats.txt")
}

/// Renders the current per-workload snapshot, one `workload field
/// value` triple per line, in suite order.
fn render_snapshot() -> String {
    let cfg = vp_cfg(VpMode::Tvp, true);
    let mut out = String::new();
    let _ = writeln!(out, "# golden stats: suite @ {INSTS} insts, Table 2 + TVP + SpSR");
    let _ = writeln!(
        out,
        "# regenerate: GOLDEN_UPDATE=1 cargo test --release -p tvp-harness --test golden_stats"
    );
    for w in tvp_workloads::suite::suite() {
        let trace = w.trace(INSTS);
        let stats = simulate(cfg.clone(), &trace);
        let name = w.name;
        let _ = writeln!(out, "{name} fingerprint {:016x}", fnv1a(format!("{stats:?}").as_bytes()));
        let _ = writeln!(out, "{name} cycles {}", stats.cycles);
        let _ = writeln!(out, "{name} insts_retired {}", stats.insts_retired);
        let _ = writeln!(out, "{name} uops_retired {}", stats.uops_retired);
        let _ = writeln!(out, "{name} ipc {:.6}", stats.ipc());
        let _ = writeln!(out, "{name} vp_coverage {:.6}", stats.vp.coverage());
        let _ = writeln!(out, "{name} vp_used {}", stats.vp.used);
        let _ = writeln!(out, "{name} spsr_conversions {}", stats.rename.spsr);
        let _ = writeln!(out, "{name} spsr_squashed {}", stats.rename.spsr_squashed);
        let _ = writeln!(out, "{name} vp_flushes {}", stats.flush.vp_flushes);
    }
    out
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

    // Build a clear field-level diff instead of dumping both files.
    let mut diff = String::new();
    let exp_lines: Vec<&str> = expected.lines().collect();
    let act_lines: Vec<&str> = actual.lines().collect();
    for i in 0..exp_lines.len().max(act_lines.len()) {
        let e = exp_lines.get(i).copied().unwrap_or("<missing>");
        let a = act_lines.get(i).copied().unwrap_or("<missing>");
        if e != a {
            let _ = writeln!(diff, "  line {:>4}: golden  {e}", i + 1);
            let _ = writeln!(diff, "  line {:>4}: actual  {a}", i + 1);
        }
    }
    panic!(
        "golden stats drifted ({} differing line(s)):\n{diff}\
         if the change is intentional, regenerate with \
         GOLDEN_UPDATE=1 cargo test --release -p tvp-harness --test golden_stats \
         and review the snapshot diff",
        diff.lines().count() / 2
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
    assert_eq!(
        fnv1a(format!("{a:?}").as_bytes()),
        fnv1a(format!("{b:?}").as_bytes()),
        "same trace, same stats"
    );
}
