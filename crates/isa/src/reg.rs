//! Architectural register identifiers.
//!
//! The machine models an ARMv8-like register file: 31 general purpose
//! integer registers (`x0`–`x30`), a hardwired zero register (`xzr`,
//! encoded as integer register 31), 32 floating-point/SIMD registers
//! (`v0`–`v31`) and the `NZCV` condition-flags register.
//!
//! Only *integer* register producers are eligible for value prediction
//! (paper §6.1), which is why [`Reg::is_gpr`] exists as a first-class
//! query.

use std::fmt;

/// Number of addressable integer registers including the zero register.
pub const NUM_INT_REGS: u8 = 32;
/// Number of floating-point/SIMD registers.
pub const NUM_FP_REGS: u8 = 32;
/// Encoding of the hardwired zero register within the integer class.
pub const ZERO_REG_INDEX: u8 = 31;

/// An architectural register name.
///
/// # Examples
///
/// ```
/// use tvp_isa::reg::{Reg, XZR};
///
/// let dst = Reg::int(0);
/// assert!(dst.is_gpr());
/// assert!(!XZR.is_gpr()); // writes to xzr are discarded
/// assert_eq!(dst.to_string(), "x0");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Reg {
    /// Integer register `x0`–`x30`, or `xzr` for index 31.
    Int(u8),
    /// Floating-point / SIMD register `v0`–`v31`.
    Fp(u8),
    /// The condition-flags register (negative, zero, carry, overflow).
    Nzcv,
}

/// The hardwired zero register (`xzr`). Reads return `0x0`; writes are
/// discarded.
pub const XZR: Reg = Reg::Int(ZERO_REG_INDEX);

impl Reg {
    /// Creates an integer register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn int(index: u8) -> Self {
        assert!(index < NUM_INT_REGS, "integer register index out of range: {index}");
        Reg::Int(index)
    }

    /// Creates a floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn fp(index: u8) -> Self {
        assert!(index < NUM_FP_REGS, "fp register index out of range: {index}");
        Reg::Fp(index)
    }

    /// Returns `true` for a *writable* general-purpose integer register,
    /// i.e. any integer register except the hardwired zero register.
    ///
    /// This is the value-prediction eligibility class of the paper: only
    /// instructions producing one or more general purpose registers are
    /// candidates for VP.
    #[must_use]
    pub fn is_gpr(self) -> bool {
        matches!(self, Reg::Int(i) if i != ZERO_REG_INDEX)
    }

    /// Returns `true` if this is the hardwired zero register.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self == XZR
    }

    /// Returns `true` for any integer-class register, including `xzr`.
    #[must_use]
    pub fn is_int(self) -> bool {
        matches!(self, Reg::Int(_))
    }

    /// Returns `true` for a floating-point register.
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(self, Reg::Fp(_))
    }

    /// A dense index suitable for architectural register-file arrays:
    /// integer registers map to `0..32`, FP registers to `32..64` and
    /// `NZCV` to `64`.
    #[must_use]
    pub fn dense_index(self) -> usize {
        match self {
            Reg::Int(i) => usize::from(i),
            Reg::Fp(i) => usize::from(NUM_INT_REGS) + usize::from(i),
            Reg::Nzcv => usize::from(NUM_INT_REGS) + usize::from(NUM_FP_REGS),
        }
    }
}

/// Total number of dense architectural register slots (see
/// [`Reg::dense_index`]).
pub const NUM_DENSE_REGS: usize = NUM_INT_REGS as usize + NUM_FP_REGS as usize + 1;

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::Int(ZERO_REG_INDEX) => write!(f, "xzr"),
            Reg::Int(i) => write!(f, "x{i}"),
            Reg::Fp(i) => write!(f, "v{i}"),
            Reg::Nzcv => write!(f, "nzcv"),
        }
    }
}

/// Shorthand constructor for integer registers, mirroring assembly syntax.
///
/// # Panics
///
/// Panics if `index >= 32`.
#[must_use]
pub fn x(index: u8) -> Reg {
    Reg::int(index)
}

/// Shorthand constructor for floating-point registers.
///
/// # Panics
///
/// Panics if `index >= 32`.
#[must_use]
pub fn v(index: u8) -> Reg {
    Reg::fp(index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_not_gpr() {
        assert!(!XZR.is_gpr());
        assert!(XZR.is_zero());
        assert!(XZR.is_int());
    }

    #[test]
    fn gpr_classification() {
        for i in 0..31 {
            assert!(Reg::int(i).is_gpr(), "x{i} must be a GPR");
        }
        for i in 0..32 {
            assert!(!Reg::fp(i).is_gpr());
        }
        assert!(!Reg::Nzcv.is_gpr());
    }

    #[test]
    fn dense_indices_are_unique_and_bounded() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..NUM_INT_REGS {
            assert!(seen.insert(Reg::Int(i).dense_index()));
        }
        for i in 0..NUM_FP_REGS {
            assert!(seen.insert(Reg::Fp(i).dense_index()));
        }
        assert!(seen.insert(Reg::Nzcv.dense_index()));
        assert!(seen.iter().all(|&i| i < NUM_DENSE_REGS));
        assert_eq!(seen.len(), NUM_DENSE_REGS);
    }

    #[test]
    fn display_matches_assembly_syntax() {
        assert_eq!(x(5).to_string(), "x5");
        assert_eq!(v(12).to_string(), "v12");
        assert_eq!(XZR.to_string(), "xzr");
        assert_eq!(Reg::Nzcv.to_string(), "nzcv");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_constructor_validates() {
        let _ = Reg::int(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_constructor_validates() {
        let _ = Reg::fp(32);
    }
}
