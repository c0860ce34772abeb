//! Golden-snapshot regression layer: every `SimStats` counter and every
//! CPI-stack class of every workload under the paper's configuration,
//! plus three runs that reach what that configuration does not.
//!
//! Every workload in the bundled suite is simulated at a fixed budget
//! with the paper's full TVP+SpSR configuration, and each of its
//! counters is written as one `workload counter value` line, in the
//! order of `SimStats::counters`, followed by one `workload cpi.class
//! slots` line per CPI-stack class (so where the lost slots went is
//! pinned by value, not only by the stack's sum invariant). Three more
//! runs per workload follow:
//!
//! * `sampled.run_fingerprint`: a sampled run of the same configuration
//!   whose fast-forward ends in functional warming;
//! * `campaign.*`: the `chaos_smoke` fault campaign (GVP+SpSR), its
//!   cycles and its eight fault-site counters;
//! * `replay.*`: GVP with selective replay and adaptive silencing, its
//!   cycles and its replay and flush counts.
//!
//! The lines are compared against the checked-in snapshot at
//! `tests/golden/golden_stats.txt`. A mismatch names the
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
use tvp_bench::sampling::{run_sampled, SampleRunOptions, SampleSpec};
use tvp_chaos::ChaosConfig;
use tvp_core::config::{CoreConfig, RecoveryPolicy, VpMode};
use tvp_core::pipeline::{simulate, Core};
use tvp_core::SimStats;
use tvp_workloads::trace::Trace;

/// Fixed budget: small enough to keep the suite fast, large enough
/// that predictors warm up and SpSR conversions occur.
const INSTS: u64 = 20_000;

/// The sampled run: five 20k-instruction periods, each a 10k-instruction
/// functional warm ahead of a 5k warmup and a 5k measured window.
const SAMPLED_INSTS: u64 = 100_000;
const SAMPLE_SPEC: &str = "20000:5000:5000";

/// The `chaos_smoke` campaign's seed.
const CHAOS_SEED: u64 = 0x7C4A_5EED;

/// The replay run's counters beside its cycles.
const REPLAY_COUNTERS: [&str; 3] = ["flush.vp_replays", "flush.replayed_uops", "flush.vp_flushes"];

fn golden_path() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/harness; the snapshot lives next to
    // the integration tests at the repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/golden_stats.txt")
}

/// Runs `trace` to completion on a fresh core.
fn run(cfg: &CoreConfig, trace: &Trace, name: &str) -> (SimStats, Core) {
    let mut core = Core::new(cfg.clone());
    let stats = core.run(trace);
    assert!(core.watchdog_diagnostic().is_none(), "{name} deadlocked");
    (stats, core)
}

/// Renders the current snapshot, one `workload counter value` line per
/// counter and CPI class, in suite order.
fn render_snapshot() -> String {
    let cfg = vp_cfg(VpMode::Tvp, true);
    let chaos =
        CoreConfig::with_vp(VpMode::Gvp).with_spsr().with_chaos(ChaosConfig::campaign(CHAOS_SEED));
    let mut replay = CoreConfig::with_vp(VpMode::Gvp);
    replay.recovery = RecoveryPolicy::Replay;
    replay.adaptive_silencing = true;
    let spec = SampleSpec::parse(SAMPLE_SPEC).expect("valid sample spec");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# golden stats: suite @ {INSTS} insts, Table 2 + TVP + SpSR; then per workload \
         sampled @ {SAMPLED_INSTS} insts {SAMPLE_SPEC}, chaos campaign {CHAOS_SEED:#x} \
         (GVP + SpSR) and replay recovery (GVP, adaptive silencing) @ {INSTS} insts"
    );
    let _ = writeln!(
        out,
        "# regenerate: GOLDEN_UPDATE=1 cargo test --release -p tvp-harness --test golden_stats"
    );
    for w in tvp_workloads::suite::suite() {
        let trace = w.trace(INSTS);
        let (stats, core) = run(&cfg, &trace, w.name);
        for (counter, value) in stats.counters() {
            let _ = writeln!(out, "{} {counter} {value}", w.name);
        }
        for (class, slots) in core.cpi_stack().components() {
            let _ = writeln!(out, "{} cpi.{class} {slots}", w.name);
        }

        let sampled = run_sampled(&w, &cfg, SAMPLED_INSTS, spec, SampleRunOptions::default())
            .unwrap_or_else(|diag| panic!("{} deadlocked sampled:\n{diag}", w.name));
        let _ = writeln!(out, "{} sampled.run_fingerprint {:016x}", w.name, sampled.fingerprint());

        let (stats, _) = run(&chaos, &trace, w.name);
        let _ = writeln!(out, "{} campaign.core.cycles {}", w.name, stats.cycles);
        for (counter, value) in
            stats.counters().into_iter().filter(|(c, _)| c.starts_with("chaos."))
        {
            let _ = writeln!(out, "{} campaign.{counter} {value}", w.name);
        }

        let (stats, _) = run(&replay, &trace, w.name);
        let _ = writeln!(out, "{} replay.core.cycles {}", w.name, stats.cycles);
        for (counter, value) in
            stats.counters().into_iter().filter(|(c, _)| REPLAY_COUNTERS.contains(c))
        {
            let _ = writeln!(out, "{} replay.{counter} {value}", w.name);
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
