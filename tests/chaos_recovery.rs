//! Chaos-engine integration tests: random programs under random fault
//! campaigns must converge to the golden functional state, sabotaged
//! recovery must be caught by the commit oracle, and the watchdog must
//! diagnose stalls instead of hanging.

use proptest::prelude::*;
use tvp_chaos::{ChaosConfig, DivergenceKind, FaultKind};
use tvp_core::config::{CoreConfig, VpMode};
use tvp_core::pipeline::Core;
use tvp_isa::flags::Cond;
use tvp_isa::inst::build::*;
use tvp_isa::inst::{AddrMode, Inst};
use tvp_isa::reg::x;
use tvp_workloads::machine::ArchSnapshot;
use tvp_workloads::program::Asm;
use tvp_workloads::{Machine, Trace};

/// One random loop-body instruction over scratch registers x0–x7,
/// data pointer x20 (mirrors `workload_properties`).
fn arb_inst() -> impl Strategy<Value = Inst> {
    let reg = 0u8..8;
    prop_oneof![
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(d, a, b)| add(x(d), x(a), x(b))),
        (reg.clone(), reg.clone(), -64i64..64).prop_map(|(d, a, i)| sub(x(d), x(a), i)),
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(d, a, b)| eor(x(d), x(a), x(b))),
        (reg.clone(), -256i64..256).prop_map(|(d, i)| movz(x(d), i)),
        (reg.clone(), reg.clone()).prop_map(|(d, a)| mov(x(d), x(a))),
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(d, a, b)| mul(x(d), x(a), x(b))),
        (reg.clone(), 0i64..256)
            .prop_map(|(d, o)| { ldr(x(d), AddrMode::BaseDisp { base: x(20), disp: o * 8 }) }),
        (reg, 0i64..256)
            .prop_map(|(s, o)| { str(x(s), AddrMode::BaseDisp { base: x(20), disp: o * 8 }) }),
    ]
}

/// A random fault campaign: each site gets an independent rate, with
/// forced VP mispredictions always enabled so recovery is exercised.
fn arb_campaign() -> impl Strategy<Value = ChaosConfig> {
    (1u64..u64::MAX, 10u32..200, 0u32..50, 0u32..50, 0u32..50, 0u32..50, 0u32..100, 0u32..100)
        .prop_map(|(seed, vp, vtage, tage, btb, ss, inv, delay)| {
            let mut c = ChaosConfig::quiet(seed);
            c.vp_force_mispredict_permille = vp;
            c.vtage_corrupt_permille = vtage;
            c.tage_corrupt_permille = tage;
            c.btb_corrupt_permille = btb;
            c.storeset_corrupt_permille = ss;
            c.branch_invert_permille = inv;
            c.cache_delay_permille = delay;
            c.cache_delay_max_cycles = 40;
            c.prefetch_drop_permille = inv;
            c
        })
}

/// Assembles a random loop, runs it functionally, and returns the
/// machine before the run, the trace and the golden final snapshot.
fn golden_program(insts: &[Inst], loops: i64) -> (Machine, Trace, ArchSnapshot) {
    let mut a = Asm::new();
    a.i(movz(x(9), loops));
    a.label("top");
    for i in insts {
        a.i(*i);
    }
    a.i(subs(x(9), x(9), 1i64));
    a.b_cond(Cond::Ne, "top");
    let mut m = Machine::new(a.assemble().expect("random program assembles"));
    m.set_reg(x(20), 0x40_0000);
    for i in 0..512u64 {
        m.write_mem(0x40_0000 + i * 8, 8, i.wrapping_mul(0x9E37));
    }
    let init = m.clone();
    let trace = m.run(16_000);
    (init, trace, m.arch_snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole property: random program × random campaign still
    /// commits exactly the golden architectural state.
    #[test]
    fn random_campaigns_converge_to_golden_state(
        insts in proptest::collection::vec(arb_inst(), 2..20),
        loops in 8i64..64,
        campaign in arb_campaign(),
    ) {
        let (init, trace, golden) = golden_program(&insts, loops);
        for vp in [VpMode::Tvp, VpMode::Gvp] {
            let cfg = CoreConfig::with_vp(vp).with_spsr().with_chaos(campaign);
            let mut core = Core::new(cfg);
            core.enable_oracle(init.clone());
            let s = core.run(&trace);
            prop_assert!(core.watchdog_diagnostic().is_none());
            prop_assert_eq!(s.insts_retired, trace.arch_insts);
            prop_assert_eq!(
                core.oracle_final_check(&golden), None,
                "diverged under {:?}, campaign {:?}", vp, campaign
            );
        }
    }

    /// Broken fixture: with the cursor-rollback sabotage armed, any
    /// run that actually flushes a value misprediction must be caught
    /// by the oracle as an order gap carrying the replaying seed.
    #[test]
    fn sabotaged_recovery_never_escapes_the_oracle(
        insts in proptest::collection::vec(arb_inst(), 2..20),
        seed in 1u64..u64::MAX,
    ) {
        let (init, trace, golden) = golden_program(&insts, 48);
        let mut campaign = ChaosConfig::sabotaged_campaign(seed);
        campaign.vp_force_mispredict_permille = 500;
        let cfg = CoreConfig::with_vp(VpMode::Gvp).with_chaos(campaign);
        let mut core = Core::new(cfg);
        core.enable_oracle(init);
        let s = core.run(&trace);
        if s.flush.vp_flushes > 0 {
            // At least one squash skipped its rollback → must diverge.
            let d = core.oracle_final_check(&golden);
            prop_assert!(d.is_some(), "sabotage escaped: {} flushes", s.flush.vp_flushes);
            let d = d.expect("checked above");
            prop_assert!(matches!(d.kind, DivergenceKind::Order { .. }), "{}", d);
            prop_assert_eq!(d.chaos_seed, Some(seed));
        }
    }
}

#[test]
fn divergence_replays_exactly_from_its_seed() {
    // The seed embedded in a divergence report reproduces the same
    // first divergence on a fresh core — the replay contract.
    let w = tvp_workloads::suite::by_name("pointer_chase").expect("bundled workload");
    let run = |seed: u64| {
        let m = w.machine();
        let trace = m.clone().run(12_000);
        let cfg =
            CoreConfig::with_vp(VpMode::Gvp).with_chaos(ChaosConfig::sabotaged_campaign(seed));
        let mut core = Core::new(cfg);
        core.enable_oracle(m);
        let _ = core.run(&trace);
        core.oracle_divergence().cloned()
    };
    let first = run(0xFEED_FACE).expect("sabotage diverges on pointer_chase");
    let replay = run(first.chaos_seed.expect("divergence carries its seed"));
    assert_eq!(Some(first), replay, "same seed must reproduce the same divergence");
}

#[test]
fn watchdog_diagnoses_instead_of_hanging() {
    let w = tvp_workloads::suite::by_name("stream_triad").expect("bundled workload");
    let trace = w.trace(2_000);
    let mut cfg = CoreConfig::table2();
    cfg.watchdog_cycles = 25; // shorter than the cold-start DRAM fill
    let mut core = Core::new(cfg);
    let _ = core.run(&trace);
    let diag = core.watchdog_diagnostic().expect("cold start stalls longer than 25 cycles");
    assert!(diag.stalled_cycles >= 25);
    assert!(diag.to_string().contains("no commit progress"), "{diag}");
}

#[test]
fn per_site_counters_attribute_each_fault_kind() {
    // Enabling exactly one site must light up exactly that counter
    // among the table-corruption sites.
    let w = tvp_workloads::suite::by_name("mc_playout").expect("bundled workload");
    let trace = w.trace(6_000);
    for kind in [FaultKind::TageCorrupt, FaultKind::BtbCorrupt, FaultKind::StoreSetCorrupt] {
        let mut c = ChaosConfig::quiet(11);
        match kind {
            FaultKind::TageCorrupt => c.tage_corrupt_permille = 100,
            FaultKind::BtbCorrupt => c.btb_corrupt_permille = 100,
            FaultKind::StoreSetCorrupt => c.storeset_corrupt_permille = 100,
            _ => {}
        }
        let s = tvp_core::pipeline::simulate(CoreConfig::table2().with_chaos(c), &trace);
        assert_eq!(s.insts_retired, trace.arch_insts, "{kind:?}");
        let hit = match kind {
            FaultKind::TageCorrupt => s.chaos.tage_corruptions,
            FaultKind::BtbCorrupt => s.chaos.btb_corruptions,
            FaultKind::StoreSetCorrupt => s.chaos.storeset_corruptions,
            _ => 0,
        };
        assert!(hit > 0, "{kind:?} counter never fired");
        assert_eq!(s.chaos.total(), hit, "{kind:?}: only its own counter may fire");
    }
}
