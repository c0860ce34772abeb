//! Simulation statistics: everything the paper's figures report.
//!
//! Counters on fault-campaign paths are hardened:
//! [`tvp_obs::counters::sat_inc`] / [`tvp_obs::counters::sat_add`]
//! saturate at `u64::MAX` instead of wrapping and bump
//! [`SimStats::overflow_events`], so an arbitrarily long chaos run can
//! degrade a counter's precision but never silently corrupt reported
//! IPC.
//!
//! [`SimStats::counters_mut`] is the one list of the counters: each
//! has its dotted name there, and the blob codec, the registry export,
//! `simulate`'s report and the golden snapshot all walk that table.

/// Rename-time elimination categories (Fig. 4's stacked bars).
#[must_use = "rename counters feed Fig. 4; dropping them silently skews the elimination breakdown"]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RenameStats {
    /// Architectural instructions processed at rename (first µops).
    pub arch_insts: u64,
    /// µops processed at rename.
    pub uops: u64,
    /// Static zero-idiom eliminations (e.g. `eor x, x`, `movz #0`).
    pub zero_idiom: u64,
    /// Static one-idiom eliminations (`movz #1`).
    pub one_idiom: u64,
    /// Eliminated register moves (move elimination).
    pub move_elim: u64,
    /// Moves *not* eliminated due to the 64→32-bit width restriction.
    pub non_me_move: u64,
    /// 9-bit signed move-immediate idiom eliminations (TVP inlining).
    pub nine_bit_idiom: u64,
    /// Speculative strength reductions (Table 1, value-driven).
    pub spsr: u64,
    /// SpSR-reduced µops that were squashed by a later value
    /// misprediction flush (informational).
    pub spsr_squashed: u64,
}

impl RenameStats {
    /// Fraction of architectural instructions eliminated at rename by
    /// the given counter.
    #[must_use]
    pub fn fraction(&self, count: u64) -> f64 {
        if self.arch_insts == 0 {
            0.0
        } else {
            count as f64 / self.arch_insts as f64
        }
    }
}

/// Value prediction accounting (coverage/accuracy of §6.1).
#[must_use = "value-prediction counters feed the coverage/accuracy tables; dropping them hides mispredictions"]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VpStats {
    /// VP-eligible µops seen at rename.
    pub eligible: u64,
    /// Predictions used (confident, admissible, not silenced).
    pub used: u64,
    /// Used predictions that validated correct.
    pub correct_used: u64,
    /// Used predictions that validated incorrect (each costs a flush).
    pub incorrect_used: u64,
    /// Cycles during which the predictor was silenced.
    pub silenced_lookups: u64,
}

impl VpStats {
    /// Coverage: `correct_used / eligible` (paper §6.1).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.eligible == 0 {
            0.0
        } else {
            self.correct_used as f64 / self.eligible as f64
        }
    }

    /// Accuracy: `correct_used / (correct_used + incorrect_used)`.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let total = self.correct_used + self.incorrect_used;
        if total == 0 {
            1.0
        } else {
            self.correct_used as f64 / total as f64
        }
    }
}

/// Activity proxies for the power discussion (Fig. 6).
#[must_use = "activity counters feed the Fig. 6 power proxies"]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActivityStats {
    /// Integer PRF read ports exercised at issue.
    pub int_prf_reads: u64,
    /// Integer PRF writes (writeback + GVP prediction writes).
    pub int_prf_writes: u64,
    /// µops dispatched into the instruction queue.
    pub iq_dispatched: u64,
    /// µops issued from the instruction queue.
    pub iq_issued: u64,
}

/// Pipeline flush accounting.
#[must_use = "flush counters explain every cycle lost to recovery"]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Branch mispredictions (front-end stalls in this trace-driven
    /// model).
    pub branch_mispredicts: u64,
    /// Value misprediction flushes.
    pub vp_flushes: u64,
    /// Memory-ordering violation flushes.
    pub mem_order_flushes: u64,
    /// µops squashed by flushes.
    pub squashed_uops: u64,
    /// Value mispredictions repaired by selective replay instead of a
    /// flush (GVP wide predictions under [`crate::config::RecoveryPolicy::Replay`]).
    pub vp_replays: u64,
    /// µops re-executed by replays.
    pub replayed_uops: u64,
}

/// Per-site fault-injection counters (one per
/// `tvp_chaos::FaultKind`), kept by the pipeline at the injection
/// sites.
#[must_use = "fault counters prove a chaos campaign actually exercised its sites"]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Value predictions deliberately forced wrong at rename.
    pub vp_forced_mispredicts: u64,
    /// VTAGE entries corrupted (valid entry found and damaged).
    pub vtage_corruptions: u64,
    /// TAGE counter corruptions.
    pub tage_corruptions: u64,
    /// BTB entries invalidated.
    pub btb_corruptions: u64,
    /// Store-set SSIT/LFST corruptions.
    pub storeset_corruptions: u64,
    /// Branch-misprediction verdicts inverted in the front end.
    pub branch_inversions: u64,
    /// Data-cache accesses given extra latency.
    pub cache_delays: u64,
    /// Cycles with prefetch issue suppressed.
    pub prefetch_drop_cycles: u64,
}

impl ChaosStats {
    /// Total faults injected across every site.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.vp_forced_mispredicts
            .saturating_add(self.vtage_corruptions)
            .saturating_add(self.tage_corruptions)
            .saturating_add(self.btb_corruptions)
            .saturating_add(self.storeset_corruptions)
            .saturating_add(self.branch_inversions)
            .saturating_add(self.cache_delays)
            .saturating_add(self.prefetch_drop_cycles)
    }
}

/// Top-level simulation result.
#[must_use = "a simulation result that is dropped was a wasted run"]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Architectural instructions retired.
    pub insts_retired: u64,
    /// µops retired.
    pub uops_retired: u64,
    /// Rename/elimination counters.
    pub rename: RenameStats,
    /// Value prediction counters.
    pub vp: VpStats,
    /// Activity counters.
    pub activity: ActivityStats,
    /// Flush counters.
    pub flush: FlushStats,
    /// Fault-injection counters.
    pub chaos: ChaosStats,
    /// Counter saturations observed ([`tvp_obs::counters::sat_inc`]):
    /// non-zero means some counter above pinned at `u64::MAX` instead
    /// of wrapping.
    pub overflow_events: u64,
}

/// Counters in one [`SimStats`]: the length of
/// [`SimStats::counters_mut`]'s table.
pub const COUNTERS: usize = 36;

// Every field of `SimStats` is a `u64` counter, so its size counts the
// fields. With the table's disjoint `&mut` borrows this makes a field
// left out of the table, or listed twice, a compile error.
const _: () = assert!(std::mem::size_of::<SimStats>() == COUNTERS * 8);

impl SimStats {
    /// Every counter with its dotted name (`scope.field`), in
    /// declaration order, which is the blob wire order: the one place
    /// the counters are listed.
    pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); COUNTERS] {
        let SimStats {
            cycles,
            insts_retired,
            uops_retired,
            rename: r,
            vp,
            activity: a,
            flush: f,
            chaos: c,
            overflow_events,
        } = self;
        [
            ("core.cycles", cycles),
            ("core.insts_retired", insts_retired),
            ("core.uops_retired", uops_retired),
            ("rename.arch_insts", &mut r.arch_insts),
            ("rename.uops", &mut r.uops),
            ("rename.zero_idiom", &mut r.zero_idiom),
            ("rename.one_idiom", &mut r.one_idiom),
            ("rename.move_elim", &mut r.move_elim),
            ("rename.non_me_move", &mut r.non_me_move),
            ("rename.nine_bit_idiom", &mut r.nine_bit_idiom),
            ("rename.spsr", &mut r.spsr),
            ("rename.spsr_squashed", &mut r.spsr_squashed),
            ("vp.eligible", &mut vp.eligible),
            ("vp.used", &mut vp.used),
            ("vp.correct_used", &mut vp.correct_used),
            ("vp.incorrect_used", &mut vp.incorrect_used),
            ("vp.silenced_lookups", &mut vp.silenced_lookups),
            ("activity.int_prf_reads", &mut a.int_prf_reads),
            ("activity.int_prf_writes", &mut a.int_prf_writes),
            ("activity.iq_dispatched", &mut a.iq_dispatched),
            ("activity.iq_issued", &mut a.iq_issued),
            ("flush.branch_mispredicts", &mut f.branch_mispredicts),
            ("flush.vp_flushes", &mut f.vp_flushes),
            ("flush.mem_order_flushes", &mut f.mem_order_flushes),
            ("flush.squashed_uops", &mut f.squashed_uops),
            ("flush.vp_replays", &mut f.vp_replays),
            ("flush.replayed_uops", &mut f.replayed_uops),
            ("chaos.vp_forced_mispredicts", &mut c.vp_forced_mispredicts),
            ("chaos.vtage_corruptions", &mut c.vtage_corruptions),
            ("chaos.tage_corruptions", &mut c.tage_corruptions),
            ("chaos.btb_corruptions", &mut c.btb_corruptions),
            ("chaos.storeset_corruptions", &mut c.storeset_corruptions),
            ("chaos.branch_inversions", &mut c.branch_inversions),
            ("chaos.cache_delays", &mut c.cache_delays),
            ("chaos.prefetch_drop_cycles", &mut c.prefetch_drop_cycles),
            ("core.overflow_events", overflow_events),
        ]
    }

    /// Every counter's name and value, in [`SimStats::counters_mut`]'s
    /// order.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); COUNTERS] {
        let mut copy = *self;
        copy.counters_mut().map(|(name, value)| (name, *value))
    }

    /// The derived ratios under their registry names: IPC, µops per
    /// instruction, VP coverage and VP accuracy.
    #[must_use]
    pub fn gauges(&self) -> [(&'static str, f64); 4] {
        [
            ("core.ipc", self.ipc()),
            ("core.expansion_ratio", self.expansion_ratio()),
            ("vp.coverage", self.vp.coverage()),
            ("vp.accuracy", self.vp.accuracy()),
        ]
    }

    /// Architectural instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts_retired as f64 / self.cycles as f64
        }
    }

    /// µops per architectural instruction (Fig. 2 bars).
    #[must_use]
    pub fn expansion_ratio(&self) -> f64 {
        if self.insts_retired == 0 {
            1.0
        } else {
            self.uops_retired as f64 / self.insts_retired as f64
        }
    }

    /// Relative speedup over a baseline run of the same workload.
    /// Zero simulated cycles (an empty trace) reports parity rather
    /// than `inf`/`NaN`, matching the other guarded ratio helpers.
    #[must_use]
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        if self.cycles == 0 {
            1.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = SimStats {
            cycles: 1000,
            insts_retired: 2500,
            uops_retired: 2700,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.expansion_ratio() - 1.08).abs() < 1e-12);
        s.vp = VpStats {
            eligible: 1000,
            used: 300,
            correct_used: 299,
            incorrect_used: 1,
            ..Default::default()
        };
        assert!((s.vp.coverage() - 0.299).abs() < 1e-12);
        assert!(s.vp.accuracy() > 0.99);
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let base = SimStats { cycles: 1100, insts_retired: 1000, ..Default::default() };
        let fast = SimStats { cycles: 1000, insts_retired: 1000, ..Default::default() };
        assert!((fast.speedup_over(&base) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn counter_table_names_each_field_once() {
        let mut s = SimStats::default();
        for ((_, counter), value) in s.counters_mut().into_iter().zip(1_001..) {
            *counter = value;
        }
        let mut seen = std::collections::BTreeSet::new();
        for ((name, value), expected) in s.counters().into_iter().zip(1_001..) {
            assert!(seen.insert(name), "`{name}` is listed twice");
            assert_eq!(value, expected, "`{name}` reads back another counter");
            let (scope, field) =
                name.split_once('.').unwrap_or_else(|| panic!("`{name}` is not `scope.field`"));
            assert!(!scope.is_empty() && !field.is_empty() && !field.contains('.'), "{name}");
            // The value must sit in the field the name ends with, inside
            // the struct the scope names.
            let rendered = match scope {
                "core" => format!(
                    "{:?}",
                    SimStats {
                        rename: RenameStats::default(),
                        vp: VpStats::default(),
                        activity: ActivityStats::default(),
                        flush: FlushStats::default(),
                        chaos: ChaosStats::default(),
                        ..s
                    }
                ),
                "rename" => format!("{:?}", s.rename),
                "vp" => format!("{:?}", s.vp),
                "activity" => format!("{:?}", s.activity),
                "flush" => format!("{:?}", s.flush),
                "chaos" => format!("{:?}", s.chaos),
                _ => panic!("`{name}` has an unknown scope"),
            };
            assert!(
                rendered.contains(&format!(" {field}: {value}")),
                "`{name}` does not name the field holding {value}: {rendered}"
            );
        }
        assert_eq!(seen.len(), COUNTERS);
        // The table lists the fields in declaration order, so the blob
        // wire order moves only with the struct, never by a table edit.
        let in_declaration_order: Vec<u64> = format!("{s:?}")
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|digits| digits.parse().ok())
            .collect();
        let table_order: Vec<u64> = (1_001..).take(COUNTERS).collect();
        assert_eq!(in_declaration_order, table_order, "the table must follow declaration order");
    }

    #[test]
    fn chaos_total_sums_all_sites() {
        let c = ChaosStats {
            vp_forced_mispredicts: 1,
            vtage_corruptions: 2,
            tage_corruptions: 3,
            btb_corruptions: 4,
            storeset_corruptions: 5,
            branch_inversions: 6,
            cache_delays: 7,
            prefetch_drop_cycles: 8,
        };
        assert_eq!(c.total(), 36);
    }

    #[test]
    fn zero_division_guards() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.expansion_ratio(), 1.0);
        assert_eq!(s.vp.coverage(), 0.0);
        assert_eq!(s.vp.accuracy(), 1.0);
        assert_eq!(s.rename.fraction(5), 0.0);
    }

    #[test]
    fn every_ratio_helper_guards_a_zero_denominator() {
        // A zero-cycle self (empty trace) must not turn a speedup into
        // `inf`; parity is the only sane report.
        let zero = SimStats::default();
        let base = SimStats { cycles: 1_000, ..Default::default() };
        let sp = zero.speedup_over(&base);
        assert!(sp.is_finite(), "speedup_over(cycles=0) must stay finite, got {sp}");
        assert_eq!(sp, 1.0);
        // Zero-cycle baseline over a real run: plain ratio, still finite.
        assert_eq!(base.speedup_over(&zero), 0.0);
        // Both zero: parity.
        assert_eq!(zero.speedup_over(&zero), 1.0);

        // The other three ratio families with zero denominators.
        assert_eq!(zero.ipc(), 0.0);
        assert_eq!(zero.expansion_ratio(), 1.0);
        let vp = VpStats::default();
        assert_eq!(vp.coverage(), 0.0);
        assert_eq!(vp.accuracy(), 1.0);
        let rn = RenameStats::default();
        assert_eq!(rn.fraction(123), 0.0);
    }
}
