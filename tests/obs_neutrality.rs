//! Observability-layer guarantees: determinism neutrality and the CPI
//! sum invariant.
//!
//! The obs layer (event trace ring, CPI stack, counter registry) and
//! the invariant auditors must be pure *observers*: switching tracing
//! or auditing on may never change a single simulated value. These
//! tests lock that property the strong way — an observed and a plain
//! core run the same workload and must produce a byte-identical
//! `SimStats` rendering and the same always-on commit fingerprint —
//! and lock the CPI accountant's books: every retire slot of every
//! cycle lands in exactly one bucket, so the components sum to
//! `cycles × commit_width` on every workload in the suite.

use tvp_bench::experiments::vp_cfg;
use tvp_core::config::VpMode;
use tvp_core::pipeline::Core;
use tvp_obs::registry::METRICS_SCHEMA_VERSION;

/// Instruction budget: large enough for flushes, replays and cache
/// misses to occur (the interesting attribution cases), small enough
/// to keep the suite sweep fast.
const INSTS: u64 = 8_000;

#[test]
fn tracing_is_determinism_neutral() {
    for w in tvp_workloads::suite().into_iter().take(4) {
        let trace = w.trace(INSTS);
        let cfg = vp_cfg(VpMode::Tvp, true);

        let mut plain = Core::new(cfg.clone());
        let plain_stats = plain.run(&trace);
        assert!(!plain.tracing_enabled());

        let mut traced = Core::new(cfg);
        traced.enable_tracing(1024);
        assert!(traced.tracing_enabled());
        let traced_stats = traced.run(&trace);

        assert_eq!(
            format!("{plain_stats:?}"),
            format!("{traced_stats:?}"),
            "{}: tracing changed a simulated statistic",
            w.name
        );
        assert_eq!(
            plain.commit_fingerprint(),
            traced.commit_fingerprint(),
            "{}: tracing changed the committed instruction stream",
            w.name
        );
        assert!(!traced.trace_events().is_empty(), "{}: ring captured nothing", w.name);
        assert!(plain.trace_events().is_empty(), "{}: untraced core has events", w.name);
    }
}

#[test]
fn auditing_is_determinism_neutral() {
    // The invariant auditors ship in the measurement build, so pin that
    // they only observe: auditing every cycle changes no statistic, no
    // committed instruction and no CPI slot.
    for w in tvp_workloads::suite().into_iter().take(3) {
        let trace = w.trace(INSTS / 4);
        let cfg = vp_cfg(VpMode::Tvp, true);

        let mut plain = Core::new(cfg.clone());
        let plain_stats = plain.run(&trace);

        let mut audited = Core::new(cfg);
        audited.enable_audit(1);
        let audited_stats = audited.run(&trace);

        assert_eq!(
            format!("{plain_stats:?}"),
            format!("{audited_stats:?}"),
            "{}: auditing changed a simulated statistic",
            w.name
        );
        assert_eq!(
            plain.commit_fingerprint(),
            audited.commit_fingerprint(),
            "{}: auditing changed the committed instruction stream",
            w.name
        );
        assert_eq!(plain.cpi_stack(), audited.cpi_stack(), "{}: auditing moved a CPI slot", w.name);
        assert!(audited.audit_report().is_clean(), "{}", audited.audit_report().render());
    }
}

#[test]
fn cpi_components_sum_to_cycles_times_width_on_every_workload() {
    for w in tvp_workloads::suite() {
        let trace = w.trace(INSTS);
        let cfg = vp_cfg(VpMode::Tvp, true);
        let width = cfg.commit_width as u64;
        let mut core = Core::new(cfg);
        let stats = core.run(&trace);
        let cpi = core.cpi_stack();
        assert_eq!(
            cpi.total(),
            stats.cycles * width,
            "{}: CPI stack books do not balance ({:?})",
            w.name,
            cpi
        );
        assert_eq!(cpi.base, stats.uops_retired, "{}: base component is retired µops", w.name);
    }
}

#[test]
fn cpi_sum_holds_under_every_vp_mode() {
    let w = tvp_workloads::suite().into_iter().next().expect("non-empty suite");
    let trace = w.trace(INSTS);
    for mode in [VpMode::Off, VpMode::Mvp, VpMode::Tvp, VpMode::Gvp] {
        let cfg = vp_cfg(mode, false);
        let width = cfg.commit_width as u64;
        let mut core = Core::new(cfg);
        let stats = core.run(&trace);
        assert_eq!(
            core.cpi_stack().total(),
            stats.cycles * width,
            "{mode:?}: CPI stack books do not balance"
        );
    }
}

#[test]
fn registry_export_matches_stats_and_is_schema_versioned() {
    let w = tvp_workloads::suite().into_iter().next().expect("non-empty suite");
    let trace = w.trace(INSTS);
    let mut core = Core::new(vp_cfg(VpMode::Tvp, true));
    let stats = core.run(&trace);
    let reg = core.export_registry();

    let counter = |name: &str| -> u64 {
        reg.counters()
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("registry is missing `{name}`"))
            .1
    };
    for (name, value) in stats.counters() {
        assert_eq!(counter(name), value, "registry `{name}` differs from `SimStats`");
    }
    assert_eq!(counter("cpi.total_slots"), core.cpi_stack().total());
    assert_eq!(counter("core.commit_fingerprint"), core.commit_fingerprint());
    // The memory and predictor walks contribute their scopes.
    for scope in ["mem.l1d.hits", "mem.dtlb.l1_hits", "tage.predictions", "vtage.lookups"] {
        let _ = counter(scope);
    }
    let json = reg.to_json();
    assert!(json.starts_with(&format!("{{\"schema\":{METRICS_SCHEMA_VERSION},")));
}
