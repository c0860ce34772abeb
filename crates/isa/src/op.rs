//! Operation kinds and their static properties.
//!
//! [`Op`] enumerates every micro-operation the machine can execute. The
//! set mirrors the ARMv8 subset used by the paper's evaluation: the
//! integer/logic operations of SpSR Table 1, conditional selects,
//! multiply/divide, loads/stores, branches and a small FP repertoire.

use crate::flags::Cond;
use std::fmt;

/// Operand width of an integer operation. `W32` operations compute on the
/// low 32 bits and zero-extend the result (ARMv8 `w`-register semantics).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Width {
    /// 32-bit (`w` registers).
    W32,
    /// 64-bit (`x` registers).
    #[default]
    W64,
}

impl Width {
    /// Number of value bits.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            Width::W32 => 32,
            Width::W64 => 64,
        }
    }

    /// Mask selecting the value bits.
    #[must_use]
    pub fn mask(self) -> u64 {
        match self {
            Width::W32 => 0xFFFF_FFFF,
            Width::W64 => u64::MAX,
        }
    }
}

/// The kind of control-flow transfer a branch micro-op performs, used to
/// pick the right predictor structure (TAGE vs BTB vs RAS vs IBTC).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum BranchKind {
    /// `b.cond`, `cbz`, `cbnz`, `tbz`, `tbnz`.
    CondDirect,
    /// `b`.
    UncondDirect,
    /// `bl`.
    Call,
    /// `ret`.
    Return,
    /// `br`.
    Indirect,
    /// `blr`.
    IndirectCall,
}

/// Execution resource class; selects functional unit and latency.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ExecClass {
    /// Simple one-cycle integer ALU operation.
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Unpipelined integer divide.
    IntDiv,
    /// Simple FP/SIMD operation.
    FpAlu,
    /// FP multiply.
    FpMul,
    /// FP multiply-accumulate.
    FpMac,
    /// Unpipelined FP divide.
    FpDiv,
    /// Memory read.
    Load,
    /// Memory write.
    Store,
    /// Control transfer.
    Branch,
    /// No-operation (still fetched/decoded/retired).
    Nop,
}

/// A micro-operation kind.
///
/// Flag-setting variants (`adds`/`subs`/`ands`) are expressed by the
/// `sets_flags` field of [`crate::inst::Inst`], not by separate opcodes.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Op {
    // --- integer ALU ---
    /// `add dst, src1, src2`.
    Add,
    /// `sub dst, src1, src2`.
    Sub,
    /// `and dst, src1, src2`.
    And,
    /// `orr dst, src1, src2`.
    Orr,
    /// `eor dst, src1, src2`.
    Eor,
    /// `bic dst, src1, src2` (`src1 & !src2`).
    Bic,
    /// Logical shift left; shift amount from `src2`.
    Lsl,
    /// Logical shift right.
    Lsr,
    /// Arithmetic shift right.
    Asr,
    /// Rotate right.
    Ror,
    /// Bit reverse.
    Rbit,
    /// Count leading zeros.
    Clz,
    /// Unsigned bitfield extract: `(src1 >> lsb) & mask(width)`.
    /// Stands in for ARMv8 `ubfm` (paper Table 1 row `ubfm`).
    Ubfx {
        /// Least significant extracted bit.
        lsb: u8,
        /// Number of extracted bits (1–64).
        width: u8,
    },
    /// Signed bitfield extract.
    Sbfx {
        /// Least significant extracted bit.
        lsb: u8,
        /// Number of extracted bits (1–64).
        width: u8,
    },
    /// Move immediate (`movz`/`movn` collapsed): result is the immediate.
    MovImm,
    /// Register move (`mov dst, src1`, i.e. `orr dst, xzr, src1`).
    Mov,
    /// Conditional select: `cond ? src1 : src2`.
    Csel(Cond),
    /// Conditional select-increment: `cond ? src1 : src2 + 1`.
    Csinc(Cond),
    /// Conditional select-negate: `cond ? src1 : -src2`.
    Csneg(Cond),
    /// Conditional select-invert: `cond ? src1 : !src2`.
    Csinv(Cond),

    // --- integer multiply / divide ---
    /// `mul dst, src1, src2`.
    Mul,
    /// `madd dst, src1, src2, src3` (`src3 + src1 * src2`).
    Madd,
    /// `msub dst, src1, src2, src3` (`src3 - src1 * src2`).
    Msub,
    /// Unsigned divide (`x / 0 == 0` per ARMv8).
    Udiv,
    /// Signed divide.
    Sdiv,

    // --- floating point ---
    /// FP add.
    Fadd,
    /// FP subtract.
    Fsub,
    /// FP multiply.
    Fmul,
    /// FP divide.
    Fdiv,
    /// FP fused multiply-add (`src3 + src1 * src2`).
    Fmadd,
    /// FP negate.
    Fneg,
    /// FP absolute value.
    Fabs,
    /// FP square root (uses the divider).
    Fsqrt,
    /// FP compare, sets `NZCV`.
    Fcmp,
    /// FP register move.
    Fmov,
    /// Move GPR bits into an FP register.
    FmovFromInt,
    /// Move FP register bits into a GPR.
    FmovToInt,
    /// Convert FP to signed integer (round toward zero, saturating).
    FcvtToInt,
    /// Convert signed integer to FP.
    FcvtFromInt,

    // --- memory ---
    /// Load `size` bytes; `signed` selects sign- vs zero-extension.
    Load {
        /// Access size in bytes (1, 2, 4 or 8).
        size: u8,
        /// Sign-extend the loaded value.
        signed: bool,
    },
    /// Store the low `size` bytes of the data register.
    Store {
        /// Access size in bytes (1, 2, 4 or 8).
        size: u8,
    },

    // --- control flow ---
    /// Unconditional direct branch.
    B,
    /// Direct call (writes link register x30).
    Bl,
    /// Indirect branch through `src1`.
    Br,
    /// Indirect call through `src1` (writes x30).
    Blr,
    /// Function return (indirect through `src1`, conventionally x30).
    Ret,
    /// Conditional direct branch on `NZCV`.
    BCond(Cond),
    /// Compare-and-branch if zero.
    Cbz,
    /// Compare-and-branch if non-zero.
    Cbnz,
    /// Test bit and branch if zero.
    Tbz(u8),
    /// Test bit and branch if non-zero.
    Tbnz(u8),

    /// No-operation.
    Nop,
}

impl Op {
    /// The execution resource class of this operation.
    #[must_use]
    pub fn exec_class(self) -> ExecClass {
        use Op::*;
        match self {
            Add
            | Sub
            | And
            | Orr
            | Eor
            | Bic
            | Lsl
            | Lsr
            | Asr
            | Ror
            | Rbit
            | Clz
            | Ubfx { .. }
            | Sbfx { .. }
            | MovImm
            | Mov
            | Csel(_)
            | Csinc(_)
            | Csneg(_)
            | Csinv(_)
            | FmovToInt
            | FcvtToInt => ExecClass::IntAlu,
            Mul | Madd | Msub => ExecClass::IntMul,
            Udiv | Sdiv => ExecClass::IntDiv,
            Fadd | Fsub | Fneg | Fabs | Fcmp | Fmov | FmovFromInt | FcvtFromInt => ExecClass::FpAlu,
            Fmul => ExecClass::FpMul,
            Fmadd => ExecClass::FpMac,
            Fdiv | Fsqrt => ExecClass::FpDiv,
            Load { .. } => ExecClass::Load,
            Store { .. } => ExecClass::Store,
            B | Bl | Br | Blr | Ret | BCond(_) | Cbz | Cbnz | Tbz(_) | Tbnz(_) => ExecClass::Branch,
            Nop => ExecClass::Nop,
        }
    }

    /// Returns the branch kind, or `None` for non-branch operations.
    #[must_use]
    pub fn branch_kind(self) -> Option<BranchKind> {
        match self {
            Op::B => Some(BranchKind::UncondDirect),
            Op::Bl => Some(BranchKind::Call),
            Op::Br => Some(BranchKind::Indirect),
            Op::Blr => Some(BranchKind::IndirectCall),
            Op::Ret => Some(BranchKind::Return),
            Op::BCond(_) | Op::Cbz | Op::Cbnz | Op::Tbz(_) | Op::Tbnz(_) => {
                Some(BranchKind::CondDirect)
            }
            _ => None,
        }
    }

    /// Returns `true` if this operation is a branch.
    #[must_use]
    pub fn is_branch(self) -> bool {
        self.branch_kind().is_some()
    }

    /// Returns `true` if this operation reads the condition flags.
    #[must_use]
    pub fn reads_flags(self) -> bool {
        matches!(self, Op::Csel(_) | Op::Csinc(_) | Op::Csneg(_) | Op::Csinv(_) | Op::BCond(_))
    }

    /// The condition code evaluated by this operation, if any.
    #[must_use]
    pub fn cond(self) -> Option<Cond> {
        match self {
            Op::Csel(c) | Op::Csinc(c) | Op::Csneg(c) | Op::Csinv(c) | Op::BCond(c) => Some(c),
            _ => None,
        }
    }

    /// Returns `true` if the operation is allowed to set flags (i.e. a
    /// `sets_flags` variant such as `adds`/`subs`/`ands` exists), or
    /// always sets them (`fcmp`).
    #[must_use]
    pub fn may_set_flags(self) -> bool {
        matches!(self, Op::Add | Op::Sub | Op::And | Op::Bic | Op::Fcmp)
    }

    /// Returns `true` for memory operations.
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }

    /// Returns `true` for loads.
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, Op::Load { .. })
    }

    /// Returns `true` for stores.
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(self, Op::Store { .. })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Op::*;
        match self {
            Add => write!(f, "add"),
            Sub => write!(f, "sub"),
            And => write!(f, "and"),
            Orr => write!(f, "orr"),
            Eor => write!(f, "eor"),
            Bic => write!(f, "bic"),
            Lsl => write!(f, "lsl"),
            Lsr => write!(f, "lsr"),
            Asr => write!(f, "asr"),
            Ror => write!(f, "ror"),
            Rbit => write!(f, "rbit"),
            Clz => write!(f, "clz"),
            Ubfx { lsb, width } => write!(f, "ubfx #{lsb},#{width}"),
            Sbfx { lsb, width } => write!(f, "sbfx #{lsb},#{width}"),
            MovImm => write!(f, "movz"),
            Mov => write!(f, "mov"),
            Csel(c) => write!(f, "csel.{c}"),
            Csinc(c) => write!(f, "csinc.{c}"),
            Csneg(c) => write!(f, "csneg.{c}"),
            Csinv(c) => write!(f, "csinv.{c}"),
            Mul => write!(f, "mul"),
            Madd => write!(f, "madd"),
            Msub => write!(f, "msub"),
            Udiv => write!(f, "udiv"),
            Sdiv => write!(f, "sdiv"),
            Fadd => write!(f, "fadd"),
            Fsub => write!(f, "fsub"),
            Fmul => write!(f, "fmul"),
            Fdiv => write!(f, "fdiv"),
            Fmadd => write!(f, "fmadd"),
            Fneg => write!(f, "fneg"),
            Fabs => write!(f, "fabs"),
            Fsqrt => write!(f, "fsqrt"),
            Fcmp => write!(f, "fcmp"),
            Fmov => write!(f, "fmov"),
            FmovFromInt => write!(f, "fmov.from_int"),
            FmovToInt => write!(f, "fmov.to_int"),
            FcvtToInt => write!(f, "fcvtzs"),
            FcvtFromInt => write!(f, "scvtf"),
            Load { size, signed } => {
                let s = if *signed { "s" } else { "" };
                write!(f, "ldr{s}{size}")
            }
            Store { size } => write!(f, "str{size}"),
            B => write!(f, "b"),
            Bl => write!(f, "bl"),
            Br => write!(f, "br"),
            Blr => write!(f, "blr"),
            Ret => write!(f, "ret"),
            BCond(c) => write!(f, "b.{c}"),
            Cbz => write!(f, "cbz"),
            Cbnz => write!(f, "cbnz"),
            Tbz(b) => write!(f, "tbz #{b}"),
            Tbnz(b) => write!(f, "tbnz #{b}"),
            Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_class_covers_table2_units() {
        assert_eq!(Op::Add.exec_class(), ExecClass::IntAlu);
        assert_eq!(Op::Madd.exec_class(), ExecClass::IntMul);
        assert_eq!(Op::Udiv.exec_class(), ExecClass::IntDiv);
        assert_eq!(Op::Fadd.exec_class(), ExecClass::FpAlu);
        assert_eq!(Op::Fmul.exec_class(), ExecClass::FpMul);
        assert_eq!(Op::Fmadd.exec_class(), ExecClass::FpMac);
        assert_eq!(Op::Fdiv.exec_class(), ExecClass::FpDiv);
        assert_eq!(Op::Load { size: 8, signed: false }.exec_class(), ExecClass::Load);
        assert_eq!(Op::Store { size: 4 }.exec_class(), ExecClass::Store);
        assert_eq!(Op::Ret.exec_class(), ExecClass::Branch);
    }

    #[test]
    fn branch_kinds() {
        assert_eq!(Op::B.branch_kind(), Some(BranchKind::UncondDirect));
        assert_eq!(Op::Bl.branch_kind(), Some(BranchKind::Call));
        assert_eq!(Op::Ret.branch_kind(), Some(BranchKind::Return));
        assert_eq!(Op::Br.branch_kind(), Some(BranchKind::Indirect));
        assert_eq!(Op::Cbz.branch_kind(), Some(BranchKind::CondDirect));
        assert_eq!(Op::Add.branch_kind(), None);
    }

    #[test]
    fn flag_readers() {
        use crate::flags::Cond;
        assert!(Op::Csel(Cond::Eq).reads_flags());
        assert!(Op::BCond(Cond::Gt).reads_flags());
        assert!(!Op::Cbz.reads_flags()); // cbz tests a register, not flags
        assert!(!Op::Add.reads_flags());
    }

    #[test]
    fn width_masks() {
        assert_eq!(Width::W32.mask(), 0xFFFF_FFFF);
        assert_eq!(Width::W64.mask(), u64::MAX);
        assert_eq!(Width::W32.bits(), 32);
    }

    #[test]
    fn may_set_flags_matches_armv8_subset() {
        assert!(Op::Add.may_set_flags()); // adds
        assert!(Op::Sub.may_set_flags()); // subs
        assert!(Op::And.may_set_flags()); // ands
        assert!(!Op::Orr.may_set_flags());
        assert!(!Op::Eor.may_set_flags());
        assert!(Op::Fcmp.may_set_flags());
    }
}
