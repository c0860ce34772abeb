//! Core configuration (paper Table 2) and the VP/SpSR feature matrix.

use tvp_isa::op::ExecClass;
use tvp_mem::hierarchy::HierarchyConfig;
use tvp_predictors::tage::TageConfig;
use tvp_predictors::vtage::{PredMode, VtageConfig};

/// How value mispredictions are repaired (paper §2.2 / §3.4).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum RecoveryPolicy {
    /// Full pipeline flush — the paper's chosen scheme (§3.4). Always
    /// used for MVP/TVP predictions, which have no physical register
    /// to repair.
    #[default]
    Flush,
    /// Selective replay of the mispredicted value's consumers, for
    /// GVP wide predictions only (they own a physical register that
    /// can be overwritten in place). MVP/TVP predictions still flush.
    /// The paper discusses this as the lower-cost-but-complex
    /// alternative, including the "replay tornado" hazard [Kim &
    /// Lipasti 2004], which the silencing window also guards here.
    Replay,
}

/// Which value-prediction flavour the core runs (paper §6.1).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum VpMode {
    /// No value prediction (the baseline still performs move and
    /// 0/1-idiom elimination).
    #[default]
    Off,
    /// Minimal VP: predict only `0x0`/`0x1`, written through the
    /// hardwired zero/one physical registers.
    Mvp,
    /// Targeted VP: predict 9-bit signed values through physical
    /// register inlining (widened names). Implies 9-bit idiom
    /// elimination.
    Tvp,
    /// Generic VP: predict arbitrary 64-bit values; narrow values use
    /// inlining, wide values are written to the PRF at rename.
    Gvp,
}

impl VpMode {
    /// The matching predictor width mode, if VP is enabled.
    #[must_use]
    pub fn pred_mode(self) -> Option<PredMode> {
        match self {
            VpMode::Off => None,
            VpMode::Mvp => Some(PredMode::ZeroOne),
            VpMode::Tvp => Some(PredMode::Narrow9),
            VpMode::Gvp => Some(PredMode::Full64),
        }
    }

    /// Whether this mode uses widened (value-inlining) register names.
    #[must_use]
    pub fn uses_inlining(self) -> bool {
        matches!(self, VpMode::Tvp | VpMode::Gvp)
    }
}

/// Full core configuration. [`CoreConfig::table2`] reproduces the
/// paper's machine.
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Instructions fetched per cycle from the line buffer.
    pub fetch_width: usize,
    /// Fetch queue capacity (µops).
    pub fetch_queue: usize,
    /// Rename width (µops per cycle).
    pub rename_width: usize,
    /// Maximum µops issued per cycle across all ports.
    pub issue_width: usize,
    /// Commit width (µops per cycle).
    pub commit_width: usize,
    /// Fetch-to-decode latency in cycles.
    pub fetch_to_decode: u64,
    /// Decode-to-rename latency in cycles.
    pub decode_to_rename: u64,
    /// Rename-to-dispatch latency in cycles.
    pub rename_to_dispatch: u64,
    /// Extra cycles of taken-branch fetch bubble.
    pub taken_branch_penalty: u64,
    /// Front-end refill penalty after a pipeline flush or branch
    /// misprediction redirect.
    pub redirect_penalty: u64,
    /// Decode-stage redirect penalty for a taken branch missing the BTB.
    pub btb_miss_penalty: u64,
    /// Reorder buffer capacity (µops).
    pub rob_size: usize,
    /// Unified instruction queue (scheduler) capacity.
    pub iq_size: usize,
    /// Load queue capacity.
    pub lq_size: usize,
    /// Store queue capacity.
    pub sq_size: usize,
    /// Integer physical registers.
    pub int_regs: usize,
    /// FP/SIMD physical registers.
    pub fp_regs: usize,
    /// Move elimination (baseline DSR).
    pub move_elim: bool,
    /// Zero/one-idiom elimination (baseline DSR).
    pub zero_one_idiom: bool,
    /// 9-bit signed move-immediate idiom elimination (requires
    /// inlining; automatically active under TVP/GVP).
    pub nine_bit_idiom: bool,
    /// Value prediction flavour.
    pub vp: VpMode,
    /// Override for the value predictor geometry (defaults to the
    /// paper's VTAGE at the mode's width).
    pub vtage: Option<VtageConfig>,
    /// Speculative Strength Reduction.
    pub spsr: bool,
    /// Predictor silencing window after a value misprediction, in
    /// cycles (paper §3.4.1: 250).
    pub silence_cycles: u64,
    /// Value-misprediction recovery scheme (GVP wide predictions
    /// only; see [`RecoveryPolicy`]).
    pub recovery: RecoveryPolicy,
    /// Extension (paper §3.4.1 future work): adapt the silencing
    /// window dynamically — double it on clustered mispredictions (up
    /// to 16× the base), halve it after quiet periods. The paper notes
    /// "the optimal silencing amount varies with pipeline geometry and
    /// benchmark, and a dynamic scheme would likely be beneficial".
    pub adaptive_silencing: bool,
    /// Branch predictor geometry.
    pub tage: TageConfig,
    /// Memory hierarchy geometry.
    pub mem: HierarchyConfig,
    /// Deterministic fault-injection campaign (`None` = no chaos).
    pub chaos: Option<tvp_chaos::ChaosConfig>,
    /// Deadlock watchdog: trip after this many cycles without a commit
    /// (0 disables the watchdog entirely).
    pub watchdog_cycles: u64,
}

impl CoreConfig {
    /// The paper's Table 2 machine: 11-stage, 8-wide, 315-entry ROB.
    #[must_use]
    pub fn table2() -> Self {
        CoreConfig {
            fetch_width: 16,
            fetch_queue: 32,
            rename_width: 8,
            issue_width: 15,
            commit_width: 8,
            fetch_to_decode: 3,
            decode_to_rename: 1,
            rename_to_dispatch: 2,
            taken_branch_penalty: 1,
            redirect_penalty: 2,
            btb_miss_penalty: 3,
            rob_size: 315,
            iq_size: 92,
            lq_size: 74,
            sq_size: 53,
            int_regs: 292,
            fp_regs: 292,
            move_elim: true,
            zero_one_idiom: true,
            nine_bit_idiom: false,
            vp: VpMode::Off,
            vtage: None,
            spsr: false,
            silence_cycles: 250,
            recovery: RecoveryPolicy::Flush,
            adaptive_silencing: false,
            tage: TageConfig::default(),
            mem: HierarchyConfig::default(),
            chaos: None,
            watchdog_cycles: 1_000_000,
        }
    }

    /// Table 2 with a VP flavour enabled (TVP/GVP imply 9-bit idiom
    /// elimination, as in §6.1).
    #[must_use]
    pub fn with_vp(vp: VpMode) -> Self {
        let mut cfg = Self::table2();
        cfg.vp = vp;
        cfg.nine_bit_idiom = vp.uses_inlining();
        cfg
    }

    /// Adds SpSR on top of the current configuration.
    #[must_use]
    pub fn with_spsr(mut self) -> Self {
        self.spsr = true;
        self
    }

    /// Arms a deterministic fault-injection campaign.
    #[must_use]
    pub fn with_chaos(mut self, chaos: tvp_chaos::ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// The effective value predictor geometry (explicit override or
    /// the paper's geometry at the mode's width).
    #[must_use]
    pub fn effective_vtage(&self) -> Option<VtageConfig> {
        let mode = self.vp.pred_mode()?;
        Some(self.vtage.clone().unwrap_or_else(|| VtageConfig::paper(mode)))
    }

    /// Execution latency of a class (Table 2 "Issue" row).
    #[must_use]
    pub fn latency(&self, class: ExecClass) -> u64 {
        match class {
            ExecClass::IntAlu | ExecClass::Branch | ExecClass::Nop => 1,
            ExecClass::IntMul => 3,
            ExecClass::IntDiv => 20,
            ExecClass::FpAlu => 3,
            ExecClass::FpMul => 4,
            ExecClass::FpMac => 5,
            ExecClass::FpDiv => 12,
            // Loads: 1-cycle AGU; cache latency added separately.
            ExecClass::Load | ExecClass::Store => 1,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::table2()
    }
}

/// Per-cycle functional unit pools (Table 2 "Issue" row).
#[derive(Clone, Debug)]
pub struct FuPool {
    /// ALU-capable units: 4 simple + 2 mul-combo = 6.
    pub int_alu: usize,
    /// Integer multiply pipes.
    pub int_mul: usize,
    /// Integer divide units (not pipelined).
    pub int_div: usize,
    /// FP-capable units: 3 combo + 1 div-combo = 4.
    pub fp_alu: usize,
    /// FP multiply/mac pipes.
    pub fp_mul: usize,
    /// FP divide units (not pipelined).
    pub fp_div: usize,
    /// Load ports.
    pub load: usize,
    /// Store ports.
    pub store: usize,
}

impl Default for FuPool {
    fn default() -> Self {
        FuPool {
            int_alu: 6,
            int_mul: 2,
            int_div: 1,
            fp_alu: 4,
            fp_mul: 4,
            fp_div: 1,
            load: 2,
            store: 2,
        }
    }
}

impl FuPool {
    /// How many pools there are, one per field.
    pub const POOLS: usize = 8;

    /// The pool a class draws from, numbered in field order.
    #[must_use]
    pub fn pool(class: ExecClass) -> usize {
        match class {
            ExecClass::IntAlu | ExecClass::Branch | ExecClass::Nop => 0,
            ExecClass::IntMul => 1,
            ExecClass::IntDiv => 2,
            ExecClass::FpAlu => 3,
            ExecClass::FpMul | ExecClass::FpMac => 4,
            ExecClass::FpDiv => 5,
            ExecClass::Load => 6,
            ExecClass::Store => 7,
        }
    }

    /// Units of the pool a class draws from.
    #[must_use]
    pub fn capacity(&self, class: ExecClass) -> usize {
        let FuPool { int_alu, int_mul, int_div, fp_alu, fp_mul, fp_div, load, store } = *self;
        [int_alu, int_mul, int_div, fp_alu, fp_mul, fp_div, load, store][Self::pool(class)]
    }

    /// Whether the class's unit is occupied for the whole operation
    /// (non-pipelined divides).
    #[must_use]
    pub fn unpipelined(class: ExecClass) -> bool {
        matches!(class, ExecClass::IntDiv | ExecClass::FpDiv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let c = CoreConfig::table2();
        assert_eq!(c.rob_size, 315);
        assert_eq!(c.iq_size, 92);
        assert_eq!(c.lq_size, 74);
        assert_eq!(c.sq_size, 53);
        assert_eq!(c.int_regs, 292);
        assert_eq!(c.fp_regs, 292);
        assert_eq!(c.rename_width, 8);
        assert_eq!(c.issue_width, 15);
        assert_eq!(c.silence_cycles, 250);
        assert!(c.move_elim && c.zero_one_idiom);
        assert!(!c.nine_bit_idiom && !c.spsr);
        assert_eq!(c.vp, VpMode::Off);
    }

    #[test]
    fn chaos_and_degradation_default_off() {
        let c = CoreConfig::table2();
        assert!(c.chaos.is_none());
        assert_eq!(c.watchdog_cycles, 1_000_000);
        let armed = CoreConfig::table2().with_chaos(tvp_chaos::ChaosConfig::campaign(42));
        assert_eq!(armed.chaos.map(|ch| ch.seed), Some(42));
    }

    #[test]
    fn vp_modes_imply_inlining() {
        assert!(!CoreConfig::with_vp(VpMode::Mvp).nine_bit_idiom);
        assert!(CoreConfig::with_vp(VpMode::Tvp).nine_bit_idiom);
        assert!(CoreConfig::with_vp(VpMode::Gvp).nine_bit_idiom);
        assert!(CoreConfig::with_vp(VpMode::Off).effective_vtage().is_none());
        assert!(CoreConfig::with_vp(VpMode::Tvp).effective_vtage().is_some());
    }

    #[test]
    fn latencies_match_table2() {
        let c = CoreConfig::table2();
        assert_eq!(c.latency(ExecClass::IntAlu), 1);
        assert_eq!(c.latency(ExecClass::IntMul), 3);
        assert_eq!(c.latency(ExecClass::IntDiv), 20);
        assert_eq!(c.latency(ExecClass::FpAlu), 3);
        assert_eq!(c.latency(ExecClass::FpMul), 4);
        assert_eq!(c.latency(ExecClass::FpMac), 5);
        assert_eq!(c.latency(ExecClass::FpDiv), 12);
    }

    #[test]
    fn fu_pool_matches_table2() {
        let p = FuPool::default();
        assert_eq!(p.int_alu, 6, "4 simple + 2 mul-combo ALUs");
        assert_eq!(p.int_mul, 2);
        assert_eq!(p.int_div, 1);
        assert_eq!(p.fp_alu, 4);
        assert_eq!(p.load, 2);
        assert_eq!(p.store, 2);
        assert!(FuPool::unpipelined(ExecClass::IntDiv));
        assert!(!FuPool::unpipelined(ExecClass::IntMul));
        // Total issue bandwidth: 6 + 1 + 4 + 2 + 2 = 15.
        assert_eq!(p.int_alu + p.int_div + p.fp_alu + p.load + p.store, 15);
    }
}
