//! Condition flags (`NZCV`) and condition codes.
//!
//! ARMv8 flag-setting instructions (`adds`, `subs`, `ands`, …) write the
//! four condition flags; conditional instructions (`b.cond`, `csel`,
//! `csinc`, `csneg`) evaluate a [`Cond`] against them.
//!
//! SpSR keeps track of `NZCV` in the frontend when the flags are produced
//! by a strength-reduced instruction (paper §4.2): an `ands` with a
//! predicted-zero operand always produces `{N=0, Z=1, C=0, V=0}`, which is
//! exactly [`Nzcv::ZERO_RESULT`].

use std::fmt;

/// The four ARMv8 condition flags.
///
/// # Examples
///
/// ```
/// use tvp_isa::flags::{Cond, Nzcv};
///
/// let flags = Nzcv::from_result(0, false, false);
/// assert!(flags.z);
/// assert!(Cond::Eq.eval(flags));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Nzcv {
    /// Negative: result's sign bit.
    pub n: bool,
    /// Zero: result equals zero.
    pub z: bool,
    /// Carry (or "no borrow" for subtraction).
    pub c: bool,
    /// Signed overflow.
    pub v: bool,
}

impl Nzcv {
    /// The flags produced by any flag-setting instruction whose result is
    /// guaranteed to be `0x0` with no carry/overflow, e.g. `ands` with a
    /// zero operand. Used by SpSR's frontend `NZCV` register.
    pub const ZERO_RESULT: Nzcv = Nzcv { n: false, z: true, c: false, v: false };

    /// Derives flags from a 64-bit result plus carry/overflow bits.
    #[must_use]
    pub fn from_result(result: u64, carry: bool, overflow: bool) -> Self {
        Nzcv { n: (result >> 63) & 1 == 1, z: result == 0, c: carry, v: overflow }
    }

    /// Derives flags from a 32-bit result plus carry/overflow bits.
    #[must_use]
    pub fn from_result32(result: u32, carry: bool, overflow: bool) -> Self {
        Nzcv { n: (result >> 31) & 1 == 1, z: result == 0, c: carry, v: overflow }
    }

    /// Packs the flags into the canonical 4-bit `NZCV` encoding
    /// (bit 3 = N, bit 2 = Z, bit 1 = C, bit 0 = V).
    #[must_use]
    pub fn pack(self) -> u8 {
        (u8::from(self.n) << 3)
            | (u8::from(self.z) << 2)
            | (u8::from(self.c) << 1)
            | u8::from(self.v)
    }

    /// Unpacks flags from the canonical 4-bit encoding; the upper four
    /// bits of `bits` are ignored.
    #[must_use]
    pub fn unpack(bits: u8) -> Self {
        Nzcv {
            n: bits & 0b1000 != 0,
            z: bits & 0b0100 != 0,
            c: bits & 0b0010 != 0,
            v: bits & 0b0001 != 0,
        }
    }
}

impl fmt::Display for Nzcv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}{}",
            if self.n { 'N' } else { 'n' },
            if self.z { 'Z' } else { 'z' },
            if self.c { 'C' } else { 'c' },
            if self.v { 'V' } else { 'v' },
        )
    }
}

/// ARMv8 condition codes.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Cond {
    /// Equal (`Z == 1`).
    Eq,
    /// Not equal (`Z == 0`).
    Ne,
    /// Carry set / unsigned higher or same (`C == 1`).
    Cs,
    /// Carry clear / unsigned lower (`C == 0`).
    Cc,
    /// Minus / negative (`N == 1`).
    Mi,
    /// Plus / positive or zero (`N == 0`).
    Pl,
    /// Overflow set (`V == 1`).
    Vs,
    /// Overflow clear (`V == 0`).
    Vc,
    /// Unsigned higher (`C == 1 && Z == 0`).
    Hi,
    /// Unsigned lower or same (`C == 0 || Z == 1`).
    Ls,
    /// Signed greater or equal (`N == V`).
    Ge,
    /// Signed less than (`N != V`).
    Lt,
    /// Signed greater than (`Z == 0 && N == V`).
    Gt,
    /// Signed less or equal (`Z == 1 || N != V`).
    Le,
    /// Always true.
    Al,
}

impl Cond {
    /// Evaluates the condition against a set of flags.
    #[must_use]
    pub fn eval(self, f: Nzcv) -> bool {
        match self {
            Cond::Eq => f.z,
            Cond::Ne => !f.z,
            Cond::Cs => f.c,
            Cond::Cc => !f.c,
            Cond::Mi => f.n,
            Cond::Pl => !f.n,
            Cond::Vs => f.v,
            Cond::Vc => !f.v,
            Cond::Hi => f.c && !f.z,
            Cond::Ls => !f.c || f.z,
            Cond::Ge => f.n == f.v,
            Cond::Lt => f.n != f.v,
            Cond::Gt => !f.z && f.n == f.v,
            Cond::Le => f.z || f.n != f.v,
            Cond::Al => true,
        }
    }

    /// The logically inverted condition (`invert(Eq) == Ne`, …).
    /// `Al` has no inversion in the ARMv8 encoding and maps to itself.
    #[must_use]
    pub fn invert(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Cs => Cond::Cc,
            Cond::Cc => Cond::Cs,
            Cond::Mi => Cond::Pl,
            Cond::Pl => Cond::Mi,
            Cond::Vs => Cond::Vc,
            Cond::Vc => Cond::Vs,
            Cond::Hi => Cond::Ls,
            Cond::Ls => Cond::Hi,
            Cond::Ge => Cond::Lt,
            Cond::Lt => Cond::Ge,
            Cond::Gt => Cond::Le,
            Cond::Le => Cond::Gt,
            Cond::Al => Cond::Al,
        }
    }

    /// All sixteen condition codes, useful for exhaustive tests.
    pub const ALL: [Cond; 15] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Cs,
        Cond::Cc,
        Cond::Mi,
        Cond::Pl,
        Cond::Vs,
        Cond::Vc,
        Cond::Hi,
        Cond::Ls,
        Cond::Ge,
        Cond::Lt,
        Cond::Gt,
        Cond::Le,
        Cond::Al,
    ];
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Cs => "cs",
            Cond::Cc => "cc",
            Cond::Mi => "mi",
            Cond::Pl => "pl",
            Cond::Vs => "vs",
            Cond::Vc => "vc",
            Cond::Hi => "hi",
            Cond::Ls => "ls",
            Cond::Ge => "ge",
            Cond::Lt => "lt",
            Cond::Gt => "gt",
            Cond::Le => "le",
            Cond::Al => "al",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for bits in 0..16u8 {
            assert_eq!(Nzcv::unpack(bits).pack(), bits);
        }
    }

    #[test]
    fn zero_result_constant() {
        assert_eq!(Nzcv::ZERO_RESULT, Nzcv::from_result(0, false, false));
        assert_eq!(Nzcv::ZERO_RESULT.pack(), 0b0100);
    }

    #[test]
    fn from_result_sign_and_zero() {
        let f = Nzcv::from_result(u64::MAX, true, false);
        assert!(f.n && !f.z && f.c && !f.v);
        let f = Nzcv::from_result32(0x8000_0000, false, true);
        assert!(f.n && !f.z && !f.c && f.v);
    }

    #[test]
    fn inversion_is_involutive_and_complementary() {
        for cond in Cond::ALL {
            assert_eq!(cond.invert().invert(), cond);
            if cond == Cond::Al {
                continue;
            }
            for bits in 0..16u8 {
                let f = Nzcv::unpack(bits);
                assert_ne!(
                    cond.eval(f),
                    cond.invert().eval(f),
                    "{cond} vs {} on {f}",
                    cond.invert()
                );
            }
        }
    }

    #[test]
    fn eval_standard_cases() {
        let eq = Nzcv { z: true, ..Nzcv::default() };
        assert!(Cond::Eq.eval(eq));
        assert!(!Cond::Ne.eval(eq));
        assert!(Cond::Le.eval(eq));
        assert!(!Cond::Gt.eval(eq));
        assert!(Cond::Al.eval(eq));

        // Signed comparisons: N != V means less-than.
        let lt = Nzcv { n: true, v: false, ..Nzcv::default() };
        assert!(Cond::Lt.eval(lt));
        assert!(!Cond::Ge.eval(lt));

        // Unsigned: Hi requires carry and non-zero.
        let hi = Nzcv { c: true, z: false, ..Nzcv::default() };
        assert!(Cond::Hi.eval(hi));
        assert!(!Cond::Ls.eval(hi));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Cond::Eq.to_string(), "eq");
        assert_eq!(Nzcv::ZERO_RESULT.to_string(), "nZcv");
    }
}
