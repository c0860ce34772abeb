//! Dynamic instruction traces.
//!
//! The functional machine emits one [`TraceUop`] per executed micro-op.
//! The timing core replays these records: every µop carries its actual
//! result value (so value predictions can be validated), its memory
//! address (so the cache hierarchy sees the real stream) and its branch
//! outcome (so the front-end model can be checked against truth).

use tvp_isa::flags::Nzcv;
use tvp_isa::inst::Inst;

/// Resolved outcome of a branch micro-op.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Whether the branch was taken.
    pub taken: bool,
    /// The next program counter (fall-through when not taken).
    pub target: u64,
}

/// One executed micro-op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceUop {
    /// Global µop sequence number.
    pub seq: u64,
    /// Program counter of the parent architectural instruction.
    pub pc: u64,
    /// The micro-op (post-expansion form: no pre/post-index addressing),
    /// interned ([`tvp_isa::inst::intern`]): every record of the same
    /// µop points at one copy.
    pub uop: &'static Inst,
    /// `true` for the first µop of an architectural instruction.
    pub first_uop: bool,
    /// Value written to the destination register, if any (also recorded
    /// for `xzr` destinations, where the write is architecturally
    /// discarded).
    pub result: Option<u64>,
    /// Condition flags produced, for flag-setting µops.
    pub flags_out: Option<Nzcv>,
    /// Effective virtual address, for loads and stores.
    pub mem_addr: Option<u64>,
    /// Branch resolution, for branch µops.
    pub branch: Option<BranchOutcome>,
}

impl TraceUop {
    /// Returns `true` if this µop is eligible for value prediction:
    /// it writes at least one general-purpose integer register
    /// (paper §6.1).
    #[must_use]
    pub fn vp_eligible(&self) -> bool {
        self.uop.produces_gpr() && !self.uop.op.is_branch() && !self.uop.op.is_store()
    }
}

// A record holds a reference to its µop, not a 64-byte copy of it.
const _: () = assert!(size_of::<TraceUop>() <= 80);

/// A complete dynamic trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Executed micro-ops, in program order.
    pub uops: Vec<TraceUop>,
    /// Number of architectural instructions covered.
    pub arch_insts: u64,
}

impl Trace {
    /// µops per architectural instruction — the "expansion ratio" of
    /// Fig. 2.
    #[must_use]
    pub fn expansion_ratio(&self) -> f64 {
        if self.arch_insts == 0 {
            return 1.0;
        }
        self.uops.len() as f64 / self.arch_insts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_isa::inst::build::*;
    use tvp_isa::inst::AddrMode;
    use tvp_isa::reg::{x, XZR};

    fn mk(inst: tvp_isa::inst::Inst) -> TraceUop {
        TraceUop {
            seq: 0,
            pc: 0x1_0000,
            uop: tvp_isa::inst::intern(inst),
            first_uop: true,
            result: None,
            flags_out: None,
            mem_addr: None,
            branch: None,
        }
    }

    #[test]
    fn vp_eligibility_follows_paper_rule() {
        assert!(mk(add(x(0), x(1), 2i64)).vp_eligible());
        assert!(mk(ldr(x(0), AddrMode::BaseDisp { base: x(1), disp: 0 })).vp_eligible());
        assert!(!mk(str(x(0), AddrMode::BaseDisp { base: x(1), disp: 0 })).vp_eligible());
        assert!(!mk(cmp(x(0), 1i64)).vp_eligible(), "xzr destination");
        assert!(!mk(fadd(tvp_isa::reg::v(0), tvp_isa::reg::v(1), tvp_isa::reg::v(2))).vp_eligible());
        assert!(!mk(sub(XZR, x(0), x(1))).vp_eligible());
    }

    #[test]
    fn expansion_ratio() {
        let t = Trace { uops: vec![mk(nop()), mk(nop()), mk(nop())], arch_insts: 2 };
        assert!((t.expansion_ratio() - 1.5).abs() < 1e-9);
        assert!((Trace::default().expansion_ratio() - 1.0).abs() < 1e-9);
    }
}
