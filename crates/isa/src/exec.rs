//! Functional (architectural) semantics of every non-memory,
//! non-branch micro-op.
//!
//! The functional machine in `tvp-workloads` uses [`exec_alu`] to compute
//! trace values; the timing core reuses the same function inside unit
//! tests to cross-check trace results, guaranteeing a single source of
//! truth for semantics.

use crate::flags::Nzcv;
use crate::op::{Op, Width};

/// Operand bundle for [`exec_alu`]. Register operands are pre-read;
/// immediate second operands are materialised into `b`.
#[derive(Copy, Clone, Debug, Default)]
pub struct Operands {
    /// First source value.
    pub a: u64,
    /// Second source value (register or immediate).
    pub b: u64,
    /// Third source value (`madd`/`msub`/`fmadd` addend).
    pub c: u64,
    /// Incoming condition flags.
    pub flags: Nzcv,
}

/// Result of functional execution.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AluResult {
    /// The destination value (zero-extended for 32-bit operations).
    pub value: u64,
    /// New condition flags, for flag-setting operations.
    pub flags: Option<Nzcv>,
}

impl AluResult {
    fn plain(value: u64) -> Self {
        AluResult { value, flags: None }
    }
}

fn add_with_flags(a: u64, b: u64, width: Width) -> (u64, Nzcv) {
    match width {
        Width::W64 => {
            let (r, carry) = a.overflowing_add(b);
            let v = ((a ^ r) & (b ^ r)) >> 63 == 1;
            (r, Nzcv::from_result(r, carry, v))
        }
        Width::W32 => {
            let (a, b) = (a as u32, b as u32);
            let (r, carry) = a.overflowing_add(b);
            let v = ((a ^ r) & (b ^ r)) >> 31 == 1;
            (u64::from(r), Nzcv::from_result32(r, carry, v))
        }
    }
}

fn sub_with_flags(a: u64, b: u64, width: Width) -> (u64, Nzcv) {
    match width {
        Width::W64 => {
            let r = a.wrapping_sub(b);
            let carry = a >= b; // "no borrow"
            let v = ((a ^ b) & (a ^ r)) >> 63 == 1;
            (r, Nzcv::from_result(r, carry, v))
        }
        Width::W32 => {
            let (a, b) = (a as u32, b as u32);
            let r = a.wrapping_sub(b);
            let carry = a >= b;
            let v = ((a ^ b) & (a ^ r)) >> 31 == 1;
            (u64::from(r), Nzcv::from_result32(r, carry, v))
        }
    }
}

fn logic_flags(r: u64, width: Width) -> Nzcv {
    match width {
        Width::W64 => Nzcv::from_result(r, false, false),
        Width::W32 => Nzcv::from_result32(r as u32, false, false),
    }
}

fn narrow(v: u64, width: Width) -> u64 {
    v & width.mask()
}

fn fcmp_flags(a: f64, b: f64) -> Nzcv {
    if a.is_nan() || b.is_nan() {
        Nzcv { n: false, z: false, c: true, v: true }
    } else if a < b {
        Nzcv { n: true, z: false, c: false, v: false }
    } else if a == b {
        Nzcv { n: false, z: true, c: true, v: false }
    } else {
        Nzcv { n: false, z: false, c: true, v: false }
    }
}

/// Executes a non-memory, non-branch micro-op functionally.
///
/// `sets_flags` requests the flag-setting variant (`adds`/`subs`/`ands`);
/// it is ignored for operations that cannot set flags, except `fcmp`
/// which always sets them.
///
/// # Panics
///
/// Panics if called with a memory or branch operation — those are
/// executed by the machine, which owns memory and control flow.
///
/// # Examples
///
/// ```
/// use tvp_isa::exec::{exec_alu, Operands};
/// use tvp_isa::op::{Op, Width};
///
/// let r = exec_alu(Op::Add, Width::W64, true, Operands { a: 1, b: u64::MAX, ..Default::default() });
/// assert_eq!(r.value, 0);
/// assert!(r.flags.unwrap().z && r.flags.unwrap().c);
/// ```
#[must_use]
pub fn exec_alu(op: Op, width: Width, sets_flags: bool, ops: Operands) -> AluResult {
    let Operands { a, b, c, flags } = ops;
    let (a_n, b_n) = (narrow(a, width), narrow(b, width));
    match op {
        Op::Add => {
            let (r, f) = add_with_flags(a_n, b_n, width);
            AluResult { value: narrow(r, width), flags: sets_flags.then_some(f) }
        }
        Op::Sub => {
            let (r, f) = sub_with_flags(a_n, b_n, width);
            AluResult { value: narrow(r, width), flags: sets_flags.then_some(f) }
        }
        Op::And => {
            let r = narrow(a_n & b_n, width);
            AluResult { value: r, flags: sets_flags.then(|| logic_flags(r, width)) }
        }
        Op::Orr => AluResult::plain(narrow(a_n | b_n, width)),
        Op::Eor => AluResult::plain(narrow(a_n ^ b_n, width)),
        Op::Bic => {
            let r = narrow(a_n & !b_n, width);
            AluResult { value: r, flags: sets_flags.then(|| logic_flags(r, width)) }
        }
        Op::Lsl => {
            let sh = (b & u64::from(width.bits() - 1)) as u32;
            AluResult::plain(narrow(a_n.wrapping_shl(sh), width))
        }
        Op::Lsr => {
            let sh = (b & u64::from(width.bits() - 1)) as u32;
            AluResult::plain(narrow(a_n.wrapping_shr(sh), width))
        }
        Op::Asr => {
            let sh = (b & u64::from(width.bits() - 1)) as u32;
            let r = match width {
                Width::W64 => (a_n as i64).wrapping_shr(sh) as u64,
                Width::W32 => u64::from(((a_n as u32) as i32).wrapping_shr(sh) as u32),
            };
            AluResult::plain(narrow(r, width))
        }
        Op::Ror => {
            let sh = (b & u64::from(width.bits() - 1)) as u32;
            let r = match width {
                Width::W64 => a_n.rotate_right(sh),
                Width::W32 => u64::from((a_n as u32).rotate_right(sh)),
            };
            AluResult::plain(r)
        }
        Op::Rbit => {
            let r = match width {
                Width::W64 => a_n.reverse_bits(),
                Width::W32 => u64::from((a_n as u32).reverse_bits()),
            };
            AluResult::plain(r)
        }
        Op::Clz => {
            let r = match width {
                Width::W64 => u64::from(a_n.leading_zeros()),
                Width::W32 => u64::from((a_n as u32).leading_zeros()),
            };
            AluResult::plain(r)
        }
        Op::Ubfx { lsb, width: w } => {
            let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
            AluResult::plain((a >> lsb) & mask)
        }
        Op::Sbfx { lsb, width: w } => {
            let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
            let field = (a >> lsb) & mask;
            let sign = 1u64 << (w - 1);
            let r = if field & sign != 0 { field | !mask } else { field };
            AluResult::plain(narrow(r, width))
        }
        Op::MovImm => AluResult::plain(narrow(b, width)),
        Op::Mov => AluResult::plain(narrow(a, width)),
        Op::Csel(cond) => AluResult::plain(narrow(if cond.eval(flags) { a_n } else { b_n }, width)),
        Op::Csinc(cond) => AluResult::plain(narrow(
            if cond.eval(flags) { a_n } else { b_n.wrapping_add(1) },
            width,
        )),
        Op::Csneg(cond) => {
            AluResult::plain(narrow(if cond.eval(flags) { a_n } else { b_n.wrapping_neg() }, width))
        }
        Op::Csinv(cond) => {
            AluResult::plain(narrow(if cond.eval(flags) { a_n } else { !b_n }, width))
        }
        Op::Mul => AluResult::plain(narrow(a_n.wrapping_mul(b_n), width)),
        Op::Madd => {
            AluResult::plain(narrow(narrow(c, width).wrapping_add(a_n.wrapping_mul(b_n)), width))
        }
        Op::Msub => {
            AluResult::plain(narrow(narrow(c, width).wrapping_sub(a_n.wrapping_mul(b_n)), width))
        }
        Op::Udiv => {
            let r = match width {
                Width::W64 => a_n.checked_div(b_n).unwrap_or(0),
                Width::W32 => u64::from((a_n as u32).checked_div(b_n as u32).unwrap_or(0)),
            };
            AluResult::plain(r)
        }
        Op::Sdiv => {
            let r = match width {
                Width::W64 => {
                    let (a, b) = (a_n as i64, b_n as i64);
                    if b == 0 {
                        0
                    } else {
                        a.wrapping_div(b) as u64
                    }
                }
                Width::W32 => {
                    let (a, b) = (a_n as u32 as i32, b_n as u32 as i32);
                    u64::from(if b == 0 { 0 } else { a.wrapping_div(b) } as u32)
                }
            };
            AluResult::plain(r)
        }
        Op::Fadd => AluResult::plain((f64::from_bits(a) + f64::from_bits(b)).to_bits()),
        Op::Fsub => AluResult::plain((f64::from_bits(a) - f64::from_bits(b)).to_bits()),
        Op::Fmul => AluResult::plain((f64::from_bits(a) * f64::from_bits(b)).to_bits()),
        Op::Fdiv => AluResult::plain((f64::from_bits(a) / f64::from_bits(b)).to_bits()),
        Op::Fmadd => AluResult::plain(
            f64::from_bits(a).mul_add(f64::from_bits(b), f64::from_bits(c)).to_bits(),
        ),
        Op::Fneg => AluResult::plain((-f64::from_bits(a)).to_bits()),
        Op::Fabs => AluResult::plain(f64::from_bits(a).abs().to_bits()),
        Op::Fsqrt => AluResult::plain(f64::from_bits(a).sqrt().to_bits()),
        Op::Fcmp => {
            AluResult { value: 0, flags: Some(fcmp_flags(f64::from_bits(a), f64::from_bits(b))) }
        }
        Op::Fmov | Op::FmovFromInt | Op::FmovToInt => AluResult::plain(a),
        Op::FcvtToInt => {
            let f = f64::from_bits(a);
            let r = if f.is_nan() {
                0i64
            } else if f >= i64::MAX as f64 {
                i64::MAX
            } else if f <= i64::MIN as f64 {
                i64::MIN
            } else {
                f as i64
            };
            AluResult::plain(r as u64)
        }
        Op::FcvtFromInt => AluResult::plain(((a as i64) as f64).to_bits()),
        Op::Nop => AluResult::plain(0),
        Op::Load { .. } | Op::Store { .. } => {
            panic!("memory op {op} must be executed by the machine")
        }
        Op::B
        | Op::Bl
        | Op::Br
        | Op::Blr
        | Op::Ret
        | Op::BCond(_)
        | Op::Cbz
        | Op::Cbnz
        | Op::Tbz(_)
        | Op::Tbnz(_) => panic!("branch {op} must be executed by the machine"),
    }
}

/// Decides whether a conditional branch is taken, given the evaluated
/// source value (for `cbz`/`cbnz`/`tbz`/`tbnz`) or flags (`b.cond`).
#[must_use]
pub fn branch_taken(op: Op, width: Width, src: u64, flags: Nzcv) -> bool {
    let src = src & width.mask();
    match op {
        Op::B | Op::Bl | Op::Br | Op::Blr | Op::Ret => true,
        Op::BCond(c) => c.eval(flags),
        Op::Cbz => src == 0,
        Op::Cbnz => src != 0,
        Op::Tbz(bit) => src & (1u64 << bit) == 0,
        Op::Tbnz(bit) => src & (1u64 << bit) != 0,
        _ => panic!("{op} is not a branch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::Cond;

    fn ops(a: u64, b: u64) -> Operands {
        Operands { a, b, ..Default::default() }
    }

    #[test]
    fn add_sub_flags_64() {
        let r = exec_alu(Op::Add, Width::W64, true, ops(u64::MAX, 1));
        assert_eq!(r.value, 0);
        let f = r.flags.unwrap();
        assert!(f.z && f.c && !f.v && !f.n);

        let r = exec_alu(Op::Sub, Width::W64, true, ops(0, 1));
        assert_eq!(r.value, u64::MAX);
        let f = r.flags.unwrap();
        assert!(f.n && !f.z && !f.c && !f.v);

        // Signed overflow: i64::MAX + 1.
        let r = exec_alu(Op::Add, Width::W64, true, ops(i64::MAX as u64, 1));
        assert!(r.flags.unwrap().v);
    }

    #[test]
    fn w32_results_zero_extend() {
        let r = exec_alu(Op::Add, Width::W32, false, ops(0xFFFF_FFFF, 1));
        assert_eq!(r.value, 0);
        let r = exec_alu(Op::Sub, Width::W32, true, ops(0, 1));
        assert_eq!(r.value, 0xFFFF_FFFF);
        assert!(r.flags.unwrap().n);
        // High garbage in inputs is ignored.
        let r = exec_alu(Op::Add, Width::W32, false, ops(0xDEAD_0000_0000_0001, 2));
        assert_eq!(r.value, 3);
    }

    #[test]
    fn logic_and_shift_semantics() {
        assert_eq!(exec_alu(Op::And, Width::W64, false, ops(0b1100, 0b1010)).value, 0b1000);
        assert_eq!(exec_alu(Op::Bic, Width::W64, false, ops(0b1100, 0b1010)).value, 0b0100);
        assert_eq!(exec_alu(Op::Lsl, Width::W64, false, ops(1, 63)).value, 1 << 63);
        assert_eq!(exec_alu(Op::Lsr, Width::W64, false, ops(1 << 63, 63)).value, 1);
        assert_eq!(
            exec_alu(Op::Asr, Width::W64, false, ops(u64::MAX << 32, 16)).value,
            u64::MAX << 16
        );
        // Shift amounts wrap at the operand width.
        assert_eq!(exec_alu(Op::Lsl, Width::W32, false, ops(1, 33)).value, 2);
    }

    #[test]
    fn ands_zero_operand_gives_zero_result_flags() {
        // The SpSR frontend-NZCV case: ands with a zero operand.
        let r = exec_alu(Op::And, Width::W64, true, ops(0, 0xDEAD_BEEF));
        assert_eq!(r.value, 0);
        assert_eq!(r.flags.unwrap(), crate::flags::Nzcv::ZERO_RESULT);
    }

    #[test]
    fn bitfield_extract() {
        assert_eq!(
            exec_alu(Op::Ubfx { lsb: 8, width: 8 }, Width::W64, false, ops(0xAB_CD, 0)).value,
            0xAB
        );
        assert_eq!(
            exec_alu(Op::Sbfx { lsb: 0, width: 8 }, Width::W64, false, ops(0x80, 0)).value,
            u64::MAX << 8 | 0x80
        );
        assert_eq!(
            exec_alu(Op::Ubfx { lsb: 0, width: 64 }, Width::W64, false, ops(u64::MAX, 0)).value,
            u64::MAX
        );
    }

    #[test]
    fn conditional_selects() {
        let eq = Nzcv { z: true, ..Nzcv::default() };
        let ne = Nzcv::default();
        let mk = |flags| Operands { a: 10, b: 20, flags, ..Default::default() };
        assert_eq!(exec_alu(Op::Csel(Cond::Eq), Width::W64, false, mk(eq)).value, 10);
        assert_eq!(exec_alu(Op::Csel(Cond::Eq), Width::W64, false, mk(ne)).value, 20);
        assert_eq!(exec_alu(Op::Csinc(Cond::Eq), Width::W64, false, mk(ne)).value, 21);
        assert_eq!(
            exec_alu(Op::Csneg(Cond::Eq), Width::W64, false, mk(ne)).value,
            20u64.wrapping_neg()
        );
        assert_eq!(exec_alu(Op::Csinv(Cond::Eq), Width::W64, false, mk(ne)).value, !20u64);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        assert_eq!(exec_alu(Op::Udiv, Width::W64, false, ops(42, 0)).value, 0);
        assert_eq!(exec_alu(Op::Sdiv, Width::W64, false, ops(42, 0)).value, 0);
        // i64::MIN / -1 must not trap.
        let r = exec_alu(Op::Sdiv, Width::W64, false, ops(i64::MIN as u64, u64::MAX));
        assert_eq!(r.value, i64::MIN as u64);
    }

    #[test]
    fn madd_msub() {
        let o = Operands { a: 3, b: 4, c: 100, ..Default::default() };
        assert_eq!(exec_alu(Op::Madd, Width::W64, false, o).value, 112);
        assert_eq!(exec_alu(Op::Msub, Width::W64, false, o).value, 88);
    }

    #[test]
    fn fp_ops_roundtrip_through_bits() {
        let a = 1.5f64.to_bits();
        let b = 2.25f64.to_bits();
        assert_eq!(f64::from_bits(exec_alu(Op::Fadd, Width::W64, false, ops(a, b)).value), 3.75);
        assert_eq!(f64::from_bits(exec_alu(Op::Fmul, Width::W64, false, ops(a, b)).value), 3.375);
        let fm = exec_alu(
            Op::Fmadd,
            Width::W64,
            false,
            Operands { a, b, c: 1.0f64.to_bits(), ..Default::default() },
        );
        assert_eq!(f64::from_bits(fm.value), 4.375);
    }

    #[test]
    fn fcmp_flag_encoding() {
        let f = |a: f64, b: f64| {
            exec_alu(Op::Fcmp, Width::W64, true, ops(a.to_bits(), b.to_bits())).flags.unwrap()
        };
        assert!(f(1.0, 2.0).n);
        assert!(f(2.0, 2.0).z && f(2.0, 2.0).c);
        assert!(f(3.0, 2.0).c && !f(3.0, 2.0).z);
        let nan = f(f64::NAN, 2.0);
        assert!(nan.c && nan.v && !nan.z && !nan.n);
    }

    #[test]
    fn fcvt_saturates() {
        let big = 1e300f64.to_bits();
        assert_eq!(exec_alu(Op::FcvtToInt, Width::W64, false, ops(big, 0)).value, i64::MAX as u64);
        let nan = f64::NAN.to_bits();
        assert_eq!(exec_alu(Op::FcvtToInt, Width::W64, false, ops(nan, 0)).value, 0);
    }

    #[test]
    fn branch_taken_rules() {
        let f0 = Nzcv::default();
        assert!(branch_taken(Op::B, Width::W64, 0, f0));
        assert!(branch_taken(Op::Cbz, Width::W64, 0, f0));
        assert!(!branch_taken(Op::Cbz, Width::W64, 1, f0));
        assert!(branch_taken(Op::Cbnz, Width::W64, 7, f0));
        assert!(branch_taken(Op::Tbz(3), Width::W64, 0b0111, f0));
        assert!(branch_taken(Op::Tbnz(2), Width::W64, 0b0100, f0));
        // W32 branches ignore high bits.
        assert!(branch_taken(Op::Cbz, Width::W32, 0xFFFF_FFFF_0000_0000, f0));
        let z = Nzcv { z: true, ..Nzcv::default() };
        assert!(branch_taken(Op::BCond(Cond::Eq), Width::W64, 0, z));
        assert!(!branch_taken(Op::BCond(Cond::Ne), Width::W64, 0, z));
    }

    #[test]
    #[should_panic(expected = "must be executed by the machine")]
    fn loads_are_rejected() {
        let _ = exec_alu(Op::Load { size: 8, signed: false }, Width::W64, false, ops(0, 0));
    }
}
