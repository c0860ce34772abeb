//! End-to-end invariant audit: the full workload suite runs with the
//! cycle-level auditors switched on ([`Core::enable_audit`]) and must
//! produce zero violations, in every value-prediction flavour.

use tvp_core::{Core, CoreConfig, VpMode};

/// Runs `kernel` for `n` instructions under `vp`/`spsr` with frequent
/// audits and returns the rendered violations (empty when clean).
fn audit_run(kernel: &str, n: u64, vp: VpMode, spsr: bool) -> String {
    let workload = tvp_workloads::suite::by_name(kernel).expect("kernel exists");
    let trace = workload.trace(n);
    let mut cfg = CoreConfig::with_vp(vp);
    cfg.spsr = spsr;
    let mut core = Core::new(cfg);
    core.enable_audit(64);
    let _stats = core.run(&trace);
    core.audit_report().render()
}

#[test]
fn full_suite_is_invariant_clean_under_tvp_spsr() {
    // The paper's headline configuration, across the whole suite.
    for w in tvp_workloads::suite() {
        let rendered = audit_run(w.name, 20_000, VpMode::Tvp, true);
        assert!(rendered.is_empty(), "{}:\n{rendered}", w.name);
    }
}

#[test]
fn every_vp_mode_is_invariant_clean() {
    // One representative kernel through every VP flavour (GVP includes
    // wide PRF writes and replay-prone predictions).
    for vp in [VpMode::Off, VpMode::Mvp, VpMode::Tvp, VpMode::Gvp] {
        for spsr in [false, true] {
            let rendered = audit_run("mc_playout", 15_000, vp, spsr);
            assert!(rendered.is_empty(), "vp={vp:?} spsr={spsr}:\n{rendered}");
        }
    }
}

#[test]
fn replay_recovery_is_invariant_clean() {
    // The selective-replay recovery path rewires IQ occupancy and
    // register readiness; the auditors must stay clean through it.
    let workload = tvp_workloads::suite::by_name("pointer_chase").expect("kernel exists");
    let trace = workload.trace(15_000);
    let mut cfg = CoreConfig::with_vp(VpMode::Gvp);
    cfg.recovery = tvp_core::config::RecoveryPolicy::Replay;
    let mut core = Core::new(cfg);
    core.enable_audit(16);
    let _stats = core.run(&trace);
    let report = core.audit_report();
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn storage_report_fits_table2_budgets() {
    // Every structure the core instantiates must have a Table 2 budget
    // on file and fit under it — checked here directly, in addition to
    // the end-of-run assertion inside `Core::run`.
    for vp in [VpMode::Off, VpMode::Mvp, VpMode::Tvp, VpMode::Gvp] {
        let core = Core::new(CoreConfig::with_vp(vp));
        let report = core.storage_report();
        assert!(report.len() >= 10, "expected a full report, got {report:?}");
        let violations =
            tvp_verif::budget::check_budgets(&tvp_verif::budget::table2_budgets(), &report);
        assert!(violations.is_empty(), "vp={vp:?}: {violations:?}");
    }
}

#[test]
fn enable_audit_checks_the_storage_budget_at_the_end_of_a_run() {
    // A VTAGE twice the paper's size overruns its Table 2 budget. The
    // end-of-run check must say so under `enable_audit(0)` (no periodic
    // audits), and a core that never enables auditing reports nothing.
    let trace = tvp_workloads::suite::by_name("string_match").expect("kernel exists").trace(2_000);
    let mut cfg = CoreConfig::with_vp(VpMode::Tvp);
    let mut vtage = cfg.effective_vtage().expect("TVP has a predictor");
    for e in &mut vtage.entries {
        *e *= 2;
    }
    cfg.vtage = Some(vtage);

    let mut audited = Core::new(cfg.clone());
    audited.enable_audit(0);
    let _stats = audited.run(&trace);
    let report = audited.audit_report();
    assert!(
        report.violations.iter().any(|(_, who, _)| *who == "storage-budget"),
        "doubled VTAGE passed the budget check:\n{}",
        report.render()
    );

    let mut plain = Core::new(cfg);
    let _stats = plain.run(&trace);
    assert!(plain.audit_report().is_clean(), "{}", plain.audit_report().render());
}
