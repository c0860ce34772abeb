//! Fixed-seed chaos smoke campaign — the CI gate for PR-level fault
//! resilience.
//!
//! For every bundled workload, runs the full fault campaign (forced VP
//! mispredictions at ≥1%, predictor-table corruption, branch
//! inversion, cache delays, prefetch drops) under the GVP+SpSR
//! configuration with the golden-model commit oracle, the deadlock
//! watchdog and the invariant auditors armed, and requires the
//! committed architectural state to be identical to the functional
//! machine's and the audit to be clean. Then proves the oracle has
//! teeth: the same campaign with recovery deliberately sabotaged
//! (squashes skip the trace-cursor rollback) must be caught, with the
//! replaying seed attached. Any failure exits non-zero.
//!
//! ```text
//! cargo run --release -p tvp-bench --bin chaos_smoke
//! ```

use tvp_bench::outln;
use tvp_chaos::{ChaosConfig, DivergenceKind};
use tvp_core::config::{CoreConfig, VpMode};
use tvp_core::pipeline::Core;

/// One fixed seed for the whole gate: failures reproduce exactly.
const SEED: u64 = 0x7C4A_5EED;
const INSTS: u64 = 8_000;

fn main() {
    let mut failures = 0u32;
    for w in tvp_workloads::suite() {
        let mut machine = w.machine();
        let init = machine.clone();
        let trace = machine.run(INSTS);
        let golden = machine.arch_snapshot();

        let cfg =
            CoreConfig::with_vp(VpMode::Gvp).with_spsr().with_chaos(ChaosConfig::campaign(SEED));
        let mut core = Core::new(cfg);
        core.enable_oracle(init);
        core.enable_audit(1_000);
        let stats = core.run(&trace);

        let mut verdict = "ok";
        if let Some(diag) = core.watchdog_diagnostic() {
            eprintln!("{}: watchdog tripped under campaign:\n{diag}", w.name);
            verdict = "WATCHDOG";
        } else if let Some(d) = core.oracle_final_check(&golden) {
            eprintln!("{}: {d}", w.name);
            verdict = "DIVERGED";
        }
        if let Some(summary) = core.audit_report().first_violation_summary() {
            eprintln!("{}: auditor violation: {summary}", w.name);
            verdict = "AUDIT";
        }
        if verdict != "ok" {
            failures += 1;
        }
        outln!(
            "{:<18} {:>8} faults ({:>4} forced vp) {:>9} cycles  {}",
            w.name,
            stats.chaos.total(),
            stats.chaos.vp_forced_mispredicts,
            stats.cycles,
            verdict
        );
    }

    // Broken fixture: recovery sabotaged — the oracle must catch it on
    // a workload where the campaign provokes value-misprediction
    // flushes, and the divergence must carry the replaying seed.
    let w = tvp_workloads::suite::by_name("pointer_chase").expect("bundled workload");
    let machine = w.machine();
    let trace = machine.clone().run(12_000);
    let cfg = CoreConfig::with_vp(VpMode::Gvp).with_chaos(ChaosConfig::sabotaged_campaign(SEED));
    let mut core = Core::new(cfg);
    core.enable_oracle(machine);
    let _stats = core.run(&trace);
    match core.oracle_divergence() {
        Some(d) if matches!(d.kind, DivergenceKind::Order { .. }) && d.chaos_seed == Some(SEED) => {
            outln!("sabotaged recovery caught: {d}");
        }
        Some(d) => {
            eprintln!("sabotage caught but with the wrong shape: {d}");
            failures += 1;
        }
        None => {
            eprintln!("sabotaged recovery was NOT caught — the oracle has no teeth");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("chaos smoke: {failures} failure(s) [seed {SEED:#x}]");
        std::process::exit(1);
    }
    outln!("chaos smoke: all workloads architecturally identical under campaign [seed {SEED:#x}]");
}
