//! Architectural instructions, micro-ops and µop expansion.
//!
//! Programs are sequences of [`Inst`]. At decode, an instruction expands
//! into one or more micro-ops ([`expand`]): memory operations with
//! pre/post-increment addressing split into an access µop plus a
//! base-update `add` µop, mirroring the gem5 behaviour the paper measures
//! in Fig. 2 (the "expansion ratio").

use crate::op::{Op, Width};
use crate::reg::Reg;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// Second source operand: a register or an immediate.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Src2 {
    /// No second operand.
    None,
    /// Register operand.
    Reg(Reg),
    /// Immediate operand.
    Imm(i64),
}

impl Src2 {
    /// Returns the register, if this operand is a register.
    #[must_use]
    pub fn reg(self) -> Option<Reg> {
        match self {
            Src2::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// Returns the immediate, if this operand is an immediate.
    #[must_use]
    pub fn imm(self) -> Option<i64> {
        match self {
            Src2::Imm(i) => Some(i),
            _ => None,
        }
    }
}

impl From<Reg> for Src2 {
    fn from(r: Reg) -> Self {
        Src2::Reg(r)
    }
}

impl From<i64> for Src2 {
    fn from(i: i64) -> Self {
        Src2::Imm(i)
    }
}

/// Memory addressing mode of an architectural load/store.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AddrMode {
    /// `[base, #disp]`.
    BaseDisp {
        /// Base address register.
        base: Reg,
        /// Signed byte displacement.
        disp: i64,
    },
    /// `[base, index, lsl #shift]`.
    BaseIndex {
        /// Base address register.
        base: Reg,
        /// Index register.
        index: Reg,
        /// Left shift applied to the index (0–4).
        shift: u8,
    },
    /// `[base, #disp]!` — base is updated *before* the access.
    PreIndex {
        /// Base address register (written back).
        base: Reg,
        /// Signed byte displacement.
        disp: i64,
    },
    /// `[base], #disp` — base is updated *after* the access.
    PostIndex {
        /// Base address register (written back).
        base: Reg,
        /// Signed byte displacement.
        disp: i64,
    },
}

impl AddrMode {
    /// The base address register.
    #[must_use]
    pub fn base(self) -> Reg {
        match self {
            AddrMode::BaseDisp { base, .. }
            | AddrMode::BaseIndex { base, .. }
            | AddrMode::PreIndex { base, .. }
            | AddrMode::PostIndex { base, .. } => base,
        }
    }
}

/// An architectural instruction (and, after [`expand`], a micro-op).
///
/// Micro-ops only ever use [`AddrMode::BaseDisp`] or
/// [`AddrMode::BaseIndex`] addressing.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Inst {
    /// Operation kind.
    pub op: Op,
    /// Operand width for integer operations.
    pub width: Width,
    /// Destination register.
    pub dst: Option<Reg>,
    /// First source register (also the data register for stores).
    pub src1: Option<Reg>,
    /// Second source operand.
    pub src2: Src2,
    /// Third source register (`madd`/`msub`/`fmadd` addend).
    pub src3: Option<Reg>,
    /// Set condition flags (`adds`/`subs`/`ands`; always set for `fcmp`).
    pub sets_flags: bool,
    /// Memory addressing (loads/stores only).
    pub addr: Option<AddrMode>,
    /// Direct branch target (program counter), resolved by the assembler.
    pub target: Option<u64>,
}

impl Inst {
    /// Creates a no-operand instruction template; builders in
    /// `tvp-workloads` fill in the fields.
    #[must_use]
    pub fn new(op: Op) -> Self {
        Inst {
            op,
            width: Width::W64,
            dst: None,
            src1: None,
            src2: Src2::None,
            src3: None,
            sets_flags: false,
            addr: None,
            target: None,
        }
    }

    /// All source registers read by this instruction, including the
    /// address registers of memory operations and `NZCV` for
    /// flag-reading operations. Order is deterministic.
    pub fn src_regs(&self) -> impl Iterator<Item = Reg> {
        let [addr1, addr2] = match self.addr {
            Some(AddrMode::BaseIndex { base, index, .. }) => [Some(base), Some(index)],
            Some(m) => [Some(m.base()), None],
            None => [None, None],
        };
        let flags = if self.op.reads_flags() { Some(Reg::Nzcv) } else { None };
        [self.src1, self.src2.reg(), self.src3, addr1, addr2, flags].into_iter().flatten()
    }

    /// All destination registers written by this instruction, including
    /// `NZCV` for flag-setting operations.
    pub fn dst_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        let flags = if self.sets_flags { Some(Reg::Nzcv) } else { None };
        self.dst.into_iter().chain(flags)
    }

    /// Returns `true` if this instruction writes at least one *writable*
    /// general-purpose integer register — the paper's value-prediction
    /// eligibility criterion (§6.1).
    #[must_use]
    pub fn produces_gpr(&self) -> bool {
        self.dst.is_some_and(Reg::is_gpr)
    }

    /// Validates internal consistency; used by the assembler and by
    /// property tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn validate(&self) -> Result<(), String> {
        if self.op.is_mem() && self.addr.is_none() {
            return Err(format!("memory op {} lacks an addressing mode", self.op));
        }
        if !self.op.is_mem() && self.addr.is_some() {
            return Err(format!("non-memory op {} has an addressing mode", self.op));
        }
        if self.sets_flags && !self.op.may_set_flags() {
            return Err(format!("op {} cannot set flags", self.op));
        }
        if self.op == Op::Fcmp && !self.sets_flags {
            return Err("fcmp must set flags".to_owned());
        }
        match self.op.branch_kind() {
            Some(
                crate::op::BranchKind::CondDirect
                | crate::op::BranchKind::UncondDirect
                | crate::op::BranchKind::Call,
            ) if self.target.is_none() => {
                return Err(format!("direct branch {} lacks a target", self.op));
            }
            Some(
                crate::op::BranchKind::Indirect
                | crate::op::BranchKind::IndirectCall
                | crate::op::BranchKind::Return,
            ) if self.src1.is_none() => {
                return Err(format!("indirect branch {} lacks a source register", self.op));
            }
            _ => {}
        }
        if let Op::Ubfx { lsb, width } | Op::Sbfx { lsb, width } = self.op {
            if width == 0 || u32::from(lsb) + u32::from(width) > 64 {
                return Err(format!("bitfield out of range: lsb={lsb} width={width}"));
            }
        }
        if let Op::Load { size, .. } | Op::Store { size } = self.op {
            if !matches!(size, 1 | 2 | 4 | 8) {
                return Err(format!("unsupported access size {size}"));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op)?;
        if self.sets_flags && self.op != Op::Fcmp {
            write!(f, "s")?;
        }
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
        }
        if let Some(s) = self.src1 {
            write!(f, ", {s}")?;
        }
        match self.src2 {
            Src2::Reg(r) => write!(f, ", {r}")?,
            Src2::Imm(i) => write!(f, ", #{i}")?,
            Src2::None => {}
        }
        if let Some(s) = self.src3 {
            write!(f, ", {s}")?;
        }
        if let Some(a) = self.addr {
            match a {
                AddrMode::BaseDisp { base, disp } => write!(f, ", [{base}, #{disp}]")?,
                AddrMode::BaseIndex { base, index, shift } => {
                    write!(f, ", [{base}, {index}, lsl #{shift}]")?;
                }
                AddrMode::PreIndex { base, disp } => write!(f, ", [{base}, #{disp}]!")?,
                AddrMode::PostIndex { base, disp } => write!(f, ", [{base}], #{disp}")?,
            }
        }
        if let Some(t) = self.target {
            write!(f, ", ->{t:#x}")?;
        }
        Ok(())
    }
}

/// Expands an architectural instruction into micro-ops.
///
/// Pre-index addressing becomes `add base, base, #disp` followed by the
/// access with zero displacement; post-index becomes the access followed
/// by the base update. Every other instruction is a single µop.
///
/// # Examples
///
/// ```
/// use tvp_isa::inst::{expand, AddrMode, Inst};
/// use tvp_isa::op::Op;
/// use tvp_isa::reg::x;
///
/// let mut ldr = Inst::new(Op::Load { size: 8, signed: false });
/// ldr.dst = Some(x(0));
/// ldr.addr = Some(AddrMode::PostIndex { base: x(1), disp: 8 });
/// let uops = expand(&ldr);
/// assert_eq!(uops.len(), 2);
/// assert!(uops[0].op.is_load());
/// assert_eq!(uops[1].op, Op::Add); // base update
/// ```
#[must_use]
pub fn expand(inst: &Inst) -> Vec<Inst> {
    match inst.addr {
        Some(AddrMode::PreIndex { base, disp }) => {
            let mut update = Inst::new(Op::Add);
            update.dst = Some(base);
            update.src1 = Some(base);
            update.src2 = Src2::Imm(disp);
            let mut access = *inst;
            access.addr = Some(AddrMode::BaseDisp { base, disp: 0 });
            vec![update, access]
        }
        Some(AddrMode::PostIndex { base, disp }) => {
            let mut access = *inst;
            access.addr = Some(AddrMode::BaseDisp { base, disp: 0 });
            let mut update = Inst::new(Op::Add);
            update.dst = Some(base);
            update.src1 = Some(base);
            update.src2 = Src2::Imm(disp);
            vec![access, update]
        }
        _ => vec![*inst],
    }
}

/// Returns the one process-wide copy of `uop`, so that a trace record
/// can point at its µop instead of carrying a copy of it.
///
/// The pool behind it is content-addressed: equal µops get the same
/// reference, different µops different ones. It only grows, keeping
/// each distinct µop once for the life of the process (a workload
/// executes 10–23 of them), and it is never iterated, so no order can
/// leak out of it. The assembler and the trace-stream decoder intern;
/// nothing on a simulation step does.
#[must_use]
pub fn intern(uop: Inst) -> &'static Inst {
    static POOL: Mutex<BTreeSet<&'static Inst>> = Mutex::new(BTreeSet::new());
    // An insert either completes or leaves the set as it was, so a
    // lock poisoned by a panicking holder still guards a sound pool.
    let mut pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&interned) = pool.get(&uop) {
        return interned;
    }
    let interned: &'static Inst = Box::leak(Box::new(uop));
    pool.insert(interned);
    interned
}

/// Convenience constructors mirroring assembly mnemonics. These are the
/// building blocks used by the workload DSL.
pub mod build {
    use super::{AddrMode, Inst, Src2};
    use crate::flags::Cond;
    use crate::op::{Op, Width};
    use crate::reg::{Reg, XZR};

    fn alu(op: Op, dst: Reg, src1: Reg, src2: impl Into<Src2>) -> Inst {
        let mut i = Inst::new(op);
        i.dst = Some(dst);
        i.src1 = Some(src1);
        i.src2 = src2.into();
        i
    }

    /// `add dst, src1, src2`.
    #[must_use]
    pub fn add(dst: Reg, src1: Reg, src2: impl Into<Src2>) -> Inst {
        alu(Op::Add, dst, src1, src2)
    }

    /// `sub dst, src1, src2`.
    #[must_use]
    pub fn sub(dst: Reg, src1: Reg, src2: impl Into<Src2>) -> Inst {
        alu(Op::Sub, dst, src1, src2)
    }

    /// `and dst, src1, src2`.
    #[must_use]
    pub fn and(dst: Reg, src1: Reg, src2: impl Into<Src2>) -> Inst {
        alu(Op::And, dst, src1, src2)
    }

    /// `orr dst, src1, src2`.
    #[must_use]
    pub fn orr(dst: Reg, src1: Reg, src2: impl Into<Src2>) -> Inst {
        alu(Op::Orr, dst, src1, src2)
    }

    /// `eor dst, src1, src2`.
    #[must_use]
    pub fn eor(dst: Reg, src1: Reg, src2: impl Into<Src2>) -> Inst {
        alu(Op::Eor, dst, src1, src2)
    }

    /// `bic dst, src1, src2`.
    #[must_use]
    pub fn bic(dst: Reg, src1: Reg, src2: impl Into<Src2>) -> Inst {
        alu(Op::Bic, dst, src1, src2)
    }

    /// `adds dst, src1, src2`.
    #[must_use]
    pub fn adds(dst: Reg, src1: Reg, src2: impl Into<Src2>) -> Inst {
        let mut i = alu(Op::Add, dst, src1, src2);
        i.sets_flags = true;
        i
    }

    /// `subs dst, src1, src2`.
    #[must_use]
    pub fn subs(dst: Reg, src1: Reg, src2: impl Into<Src2>) -> Inst {
        let mut i = alu(Op::Sub, dst, src1, src2);
        i.sets_flags = true;
        i
    }

    /// `ands dst, src1, src2`.
    #[must_use]
    pub fn ands(dst: Reg, src1: Reg, src2: impl Into<Src2>) -> Inst {
        let mut i = alu(Op::And, dst, src1, src2);
        i.sets_flags = true;
        i
    }

    /// `cmp src1, src2` (alias of `subs xzr, src1, src2`).
    #[must_use]
    pub fn cmp(src1: Reg, src2: impl Into<Src2>) -> Inst {
        subs(XZR, src1, src2)
    }

    /// `tst src1, src2` (alias of `ands xzr, src1, src2`).
    #[must_use]
    pub fn tst(src1: Reg, src2: impl Into<Src2>) -> Inst {
        ands(XZR, src1, src2)
    }

    /// `lsl dst, src1, src2`.
    #[must_use]
    pub fn lsl(dst: Reg, src1: Reg, src2: impl Into<Src2>) -> Inst {
        alu(Op::Lsl, dst, src1, src2)
    }

    /// `lsr dst, src1, src2`.
    #[must_use]
    pub fn lsr(dst: Reg, src1: Reg, src2: impl Into<Src2>) -> Inst {
        alu(Op::Lsr, dst, src1, src2)
    }

    /// `asr dst, src1, src2`.
    #[must_use]
    pub fn asr(dst: Reg, src1: Reg, src2: impl Into<Src2>) -> Inst {
        alu(Op::Asr, dst, src1, src2)
    }

    /// `rbit dst, src1`.
    #[must_use]
    pub fn rbit(dst: Reg, src1: Reg) -> Inst {
        let mut i = Inst::new(Op::Rbit);
        i.dst = Some(dst);
        i.src1 = Some(src1);
        i
    }

    /// `clz dst, src1`.
    #[must_use]
    pub fn clz(dst: Reg, src1: Reg) -> Inst {
        let mut i = Inst::new(Op::Clz);
        i.dst = Some(dst);
        i.src1 = Some(src1);
        i
    }

    /// `ubfx dst, src1, #lsb, #width`.
    #[must_use]
    pub fn ubfx(dst: Reg, src1: Reg, lsb: u8, width: u8) -> Inst {
        let mut i = Inst::new(Op::Ubfx { lsb, width });
        i.dst = Some(dst);
        i.src1 = Some(src1);
        i
    }

    /// `movz dst, #imm` (also covers arbitrary move-immediates).
    #[must_use]
    pub fn movz(dst: Reg, imm: i64) -> Inst {
        let mut i = Inst::new(Op::MovImm);
        i.dst = Some(dst);
        i.src2 = Src2::Imm(imm);
        i
    }

    /// `mov dst, src` (register move).
    #[must_use]
    pub fn mov(dst: Reg, src: Reg) -> Inst {
        let mut i = Inst::new(Op::Mov);
        i.dst = Some(dst);
        i.src1 = Some(src);
        i
    }

    /// `csel dst, src1, src2, cond`.
    #[must_use]
    pub fn csel(dst: Reg, src1: Reg, src2: Reg, cond: Cond) -> Inst {
        alu(Op::Csel(cond), dst, src1, Src2::Reg(src2))
    }

    /// `csinc dst, src1, src2, cond`.
    #[must_use]
    pub fn csinc(dst: Reg, src1: Reg, src2: Reg, cond: Cond) -> Inst {
        alu(Op::Csinc(cond), dst, src1, Src2::Reg(src2))
    }

    /// `csneg dst, src1, src2, cond`.
    #[must_use]
    pub fn csneg(dst: Reg, src1: Reg, src2: Reg, cond: Cond) -> Inst {
        alu(Op::Csneg(cond), dst, src1, Src2::Reg(src2))
    }

    /// `cset dst, cond` (alias of `csinc dst, xzr, xzr, !cond`).
    #[must_use]
    pub fn cset(dst: Reg, cond: Cond) -> Inst {
        csinc(dst, XZR, XZR, cond.invert())
    }

    /// `mul dst, src1, src2`.
    #[must_use]
    pub fn mul(dst: Reg, src1: Reg, src2: Reg) -> Inst {
        alu(Op::Mul, dst, src1, Src2::Reg(src2))
    }

    /// `madd dst, src1, src2, src3`.
    #[must_use]
    pub fn madd(dst: Reg, src1: Reg, src2: Reg, src3: Reg) -> Inst {
        let mut i = alu(Op::Madd, dst, src1, Src2::Reg(src2));
        i.src3 = Some(src3);
        i
    }

    /// `udiv dst, src1, src2`.
    #[must_use]
    pub fn udiv(dst: Reg, src1: Reg, src2: Reg) -> Inst {
        alu(Op::Udiv, dst, src1, Src2::Reg(src2))
    }

    /// `sdiv dst, src1, src2`.
    #[must_use]
    pub fn sdiv(dst: Reg, src1: Reg, src2: Reg) -> Inst {
        alu(Op::Sdiv, dst, src1, Src2::Reg(src2))
    }

    /// `ldr dst, <addr>` (64-bit).
    #[must_use]
    pub fn ldr(dst: Reg, addr: AddrMode) -> Inst {
        ldr_sized(dst, addr, 8, false)
    }

    /// Load with explicit size/signedness.
    #[must_use]
    pub fn ldr_sized(dst: Reg, addr: AddrMode, size: u8, signed: bool) -> Inst {
        let mut i = Inst::new(Op::Load { size, signed });
        i.dst = Some(dst);
        i.addr = Some(addr);
        i
    }

    /// `str data, <addr>` (64-bit).
    #[must_use]
    pub fn str(data: Reg, addr: AddrMode) -> Inst {
        str_sized(data, addr, 8)
    }

    /// Store with explicit size.
    #[must_use]
    pub fn str_sized(data: Reg, addr: AddrMode, size: u8) -> Inst {
        let mut i = Inst::new(Op::Store { size });
        i.src1 = Some(data);
        i.addr = Some(addr);
        i
    }

    /// FP two-operand helper.
    fn fp2(op: Op, dst: Reg, src1: Reg, src2: Reg) -> Inst {
        alu(op, dst, src1, Src2::Reg(src2))
    }

    /// `fadd dst, src1, src2`.
    #[must_use]
    pub fn fadd(dst: Reg, src1: Reg, src2: Reg) -> Inst {
        fp2(Op::Fadd, dst, src1, src2)
    }

    /// `fsub dst, src1, src2`.
    #[must_use]
    pub fn fsub(dst: Reg, src1: Reg, src2: Reg) -> Inst {
        fp2(Op::Fsub, dst, src1, src2)
    }

    /// `fmul dst, src1, src2`.
    #[must_use]
    pub fn fmul(dst: Reg, src1: Reg, src2: Reg) -> Inst {
        fp2(Op::Fmul, dst, src1, src2)
    }

    /// `fdiv dst, src1, src2`.
    #[must_use]
    pub fn fdiv(dst: Reg, src1: Reg, src2: Reg) -> Inst {
        fp2(Op::Fdiv, dst, src1, src2)
    }

    /// `fmadd dst, src1, src2, src3`.
    #[must_use]
    pub fn fmadd(dst: Reg, src1: Reg, src2: Reg, src3: Reg) -> Inst {
        let mut i = fp2(Op::Fmadd, dst, src1, src2);
        i.src3 = Some(src3);
        i
    }

    /// `fcmp src1, src2`.
    #[must_use]
    pub fn fcmp(src1: Reg, src2: Reg) -> Inst {
        let mut i = Inst::new(Op::Fcmp);
        i.src1 = Some(src1);
        i.src2 = Src2::Reg(src2);
        i.sets_flags = true;
        i
    }

    /// `scvtf dst, src` (signed int → FP).
    #[must_use]
    pub fn scvtf(dst: Reg, src: Reg) -> Inst {
        let mut i = Inst::new(Op::FcvtFromInt);
        i.dst = Some(dst);
        i.src1 = Some(src);
        i
    }

    /// `fcvtzs dst, src` (FP → signed int).
    #[must_use]
    pub fn fcvtzs(dst: Reg, src: Reg) -> Inst {
        let mut i = Inst::new(Op::FcvtToInt);
        i.dst = Some(dst);
        i.src1 = Some(src);
        i
    }

    /// `nop`.
    #[must_use]
    pub fn nop() -> Inst {
        Inst::new(Op::Nop)
    }

    /// Marks an instruction as 32-bit (`w`-register) width.
    #[must_use]
    pub fn w32(mut inst: Inst) -> Inst {
        inst.width = Width::W32;
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use crate::op::Op;
    use crate::reg::{x, XZR};

    #[test]
    fn expansion_single_uop_for_plain_ops() {
        let i = add(x(0), x(1), x(2));
        assert_eq!(expand(&i).len(), 1);
        let l = ldr(x(0), AddrMode::BaseDisp { base: x(1), disp: 16 });
        assert_eq!(expand(&l).len(), 1);
    }

    #[test]
    fn expansion_preindex_order() {
        let l = ldr(x(0), AddrMode::PreIndex { base: x(1), disp: 8 });
        let uops = expand(&l);
        assert_eq!(uops.len(), 2);
        assert_eq!(uops[0].op, Op::Add);
        assert_eq!(uops[0].dst, Some(x(1)));
        assert!(uops[1].op.is_load());
        assert_eq!(uops[1].addr, Some(AddrMode::BaseDisp { base: x(1), disp: 0 }));
    }

    #[test]
    fn expansion_postindex_order() {
        let s = str(x(5), AddrMode::PostIndex { base: x(2), disp: -4 });
        let uops = expand(&s);
        assert_eq!(uops.len(), 2);
        assert!(uops[0].op.is_store());
        assert_eq!(uops[1].op, Op::Add);
        assert_eq!(uops[1].src2, Src2::Imm(-4));
    }

    #[test]
    fn src_regs_include_address_and_flags() {
        let l = ldr(x(0), AddrMode::BaseIndex { base: x(1), index: x(2), shift: 3 });
        let srcs: Vec<_> = l.src_regs().collect();
        assert_eq!(srcs, vec![x(1), x(2)]);

        let c = csel(x(0), x(1), x(2), crate::flags::Cond::Eq);
        let srcs: Vec<_> = c.src_regs().collect();
        assert_eq!(srcs, vec![x(1), x(2), Reg::Nzcv]);
    }

    #[test]
    fn dst_regs_include_flags() {
        let i = subs(XZR, x(1), x(2));
        let dsts: Vec<_> = i.dst_regs().collect();
        assert_eq!(dsts, vec![XZR, Reg::Nzcv]);
        assert!(!i.produces_gpr()); // xzr is not a GPR
        assert!(adds(x(3), x(1), 4i64).produces_gpr());
    }

    #[test]
    fn store_data_is_src1() {
        let s = str(x(7), AddrMode::BaseDisp { base: x(8), disp: 0 });
        let srcs: Vec<_> = s.src_regs().collect();
        assert_eq!(srcs, vec![x(7), x(8)]);
        assert!(s.dst_regs().next().is_none());
    }

    #[test]
    fn validate_catches_malformed() {
        let mut bad = add(x(0), x(1), x(2));
        bad.addr = Some(AddrMode::BaseDisp { base: x(3), disp: 0 });
        assert!(bad.validate().is_err());

        let mut bad_flags = orr(x(0), x(1), x(2));
        bad_flags.sets_flags = true;
        assert!(bad_flags.validate().is_err());

        let b = Inst::new(Op::B);
        assert!(b.validate().is_err(), "direct branch without target");

        let good = cmp(x(1), 0i64);
        assert!(good.validate().is_ok());
    }

    #[test]
    fn cset_is_csinc_alias() {
        let i = cset(x(0), crate::flags::Cond::Eq);
        assert_eq!(i.op, Op::Csinc(crate::flags::Cond::Ne));
        assert_eq!(i.src1, Some(XZR));
        assert_eq!(i.src2, Src2::Reg(XZR));
    }

    #[test]
    fn intern_keeps_one_copy_of_each_distinct_uop() {
        let base = ldr(x(0), AddrMode::BaseDisp { base: x(1), disp: 8 });
        let changes: [fn(&mut Inst); 9] = [
            |i| i.op = Op::Load { size: 4, signed: true },
            |i| i.width = Width::W32,
            |i| i.dst = Some(x(2)),
            |i| i.src1 = Some(x(3)),
            |i| i.src2 = Src2::Imm(-1),
            |i| i.src3 = Some(x(4)),
            |i| i.sets_flags = true,
            |i| i.addr = Some(AddrMode::BaseDisp { base: x(1), disp: 16 }),
            |i| i.target = Some(0x1_0000),
        ];
        let mut variants = vec![base];
        for change in changes {
            let mut v = base;
            change(&mut v);
            variants.push(v);
        }
        let interned: Vec<&'static Inst> = variants.iter().map(|&v| intern(v)).collect();
        for (k, (&v, &first)) in variants.iter().zip(&interned).enumerate() {
            assert_eq!(*first, v, "variant {k} keeps its value");
            assert!(std::ptr::eq(intern(v), first), "variant {k} is interned once");
            for (j, &other) in interned.iter().enumerate().filter(|&(j, _)| j != k) {
                assert!(!std::ptr::eq(first, other), "variants {k} and {j} share a copy");
            }
        }
    }

    #[test]
    fn display_is_readable() {
        let i = adds(x(0), x(1), 42i64);
        assert_eq!(i.to_string(), "adds x0, x1, #42");
        let l = ldr(x(3), AddrMode::PostIndex { base: x(4), disp: 8 });
        assert_eq!(l.to_string(), "ldr8 x3, [x4], #8");
    }
}
