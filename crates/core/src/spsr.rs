//! Speculative Strength Reduction — the paper's Table 1 decision logic.
//!
//! Given a micro-op and whatever operand values are *known at rename*
//! (through hardwired registers, inlined names, or the frontend NZCV
//! register), [`reduce`] decides whether the µop can disappear at
//! rename and what its destination should be renamed to.
//!
//! The same function implements baseline Dynamic Strength Reduction
//! (move/zero/one-idiom elimination): the caller controls *which*
//! knowledge is visible. With only architectural knowledge (`xzr`
//! sources, `eor x, x`, `movz` immediates) the reductions found are the
//! baseline's; with name-derived knowledge they are SpSR.

use tvp_isa::exec::{exec_alu, Operands};
use tvp_isa::flags::Nzcv;
use tvp_isa::inst::{Inst, Src2};
use tvp_isa::op::Op;

/// Operand knowledge available to the reducer at rename time.
#[derive(Copy, Clone, Debug, Default)]
pub struct Known {
    /// Value of `src1`, if known.
    pub src1: Option<u64>,
    /// Value of `src2` (immediate operands are always known).
    pub src2: Option<u64>,
    /// Condition flags, if tracked by the frontend NZCV register.
    pub flags: Option<Nzcv>,
}

/// The outcome of a reduction decision.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Reduction {
    /// Not reducible with the available knowledge.
    None,
    /// Destination is always `0x0` → rename to the hardwired zero
    /// register. Carries the computed flags for flag-setting ops.
    ZeroIdiom {
        /// Flags to install in the frontend NZCV register (flag-setting
        /// reductions only).
        flags: Option<Nzcv>,
    },
    /// Destination is always `0x1` → rename to the hardwired one
    /// register.
    OneIdiom {
        /// Flags to install, if the op sets flags.
        flags: Option<Nzcv>,
    },
    /// Destination equals `src1` → move elimination path.
    MoveOfSrc1,
    /// Destination equals `src2` → move elimination path.
    MoveOfSrc2,
    /// The full result is computable at rename (all inputs known).
    KnownValue {
        /// The computed destination value.
        value: u64,
        /// Computed flags, for flag-setting ops.
        flags: Option<Nzcv>,
    },
    /// A conditional branch whose direction is known at rename.
    ResolvedBranch {
        /// The architecturally-determined direction.
        taken: bool,
    },
}

impl Reduction {
    /// Returns `true` for any reduction other than [`Reduction::None`].
    #[must_use]
    pub fn is_reduced(self) -> bool {
        self != Reduction::None
    }
}

/// Returns `true` if `op` is in the set of operations Table 1
/// considers for strength reduction.
#[must_use]
pub fn table1_op(op: Op) -> bool {
    matches!(
        op,
        Op::Add
            | Op::Sub
            | Op::And
            | Op::Orr
            | Op::Eor
            | Op::Bic
            | Op::Lsl
            | Op::Lsr
            | Op::Asr
            | Op::Ubfx { .. }
            | Op::Rbit
            | Op::Mov
            | Op::Csel(_)
            | Op::Csinc(_)
            | Op::Csneg(_)
            | Op::Cbz
            | Op::Cbnz
            | Op::Tbz(_)
            | Op::Tbnz(_)
            | Op::BCond(_)
    )
}

fn value_reduction(_uop: &Inst, value: u64, flags: Option<Nzcv>) -> Reduction {
    match value {
        0 => Reduction::ZeroIdiom { flags },
        1 => Reduction::OneIdiom { flags },
        _ => Reduction::KnownValue { value, flags },
    }
}

/// Applies Table 1 to one micro-op.
///
/// The reducer is conservative about flags: a flag-setting operation is
/// only reduced when its flags are fully computable at rename (the
/// paper's hardwired-NZCV assumption, §4.2).
#[must_use]
pub fn reduce(uop: &Inst, known: &Known) -> Reduction {
    if !table1_op(uop.op) {
        return Reduction::None;
    }
    let k1 = known.src1;
    let k2 = match uop.src2 {
        Src2::Imm(i) => Some(i as u64),
        _ => known.src2,
    };

    // Fully-known operands: compute the result (and flags) outright.
    // This subsumes the "if src0 == 0x1 and src1 == 0x1" rows of
    // Table 1 and generalises them under TVP's 9-bit knowledge.
    let all_known = match uop.op {
        Op::Mov | Op::Rbit | Op::Ubfx { .. } => k1.is_some(),
        Op::Cbz | Op::Cbnz | Op::Tbz(_) | Op::Tbnz(_) => k1.is_some(),
        Op::BCond(_) => known.flags.is_some(),
        Op::Csel(_) | Op::Csinc(_) | Op::Csneg(_) => false, // handled below
        _ => k1.is_some() && k2.is_some(),
    };

    match uop.op {
        Op::Cbz | Op::Cbnz | Op::Tbz(_) | Op::Tbnz(_) if all_known => {
            let taken =
                tvp_isa::exec::branch_taken(uop.op, uop.width, k1.unwrap(), Nzcv::default());
            return Reduction::ResolvedBranch { taken };
        }
        Op::BCond(c) => {
            return match known.flags {
                Some(f) => Reduction::ResolvedBranch { taken: c.eval(f) },
                None => Reduction::None,
            };
        }
        Op::Cbz | Op::Cbnz | Op::Tbz(_) | Op::Tbnz(_) => return Reduction::None,
        _ => {}
    }

    // Conditional selects: reducible once the flags are known (§4.2).
    if let Op::Csel(c) | Op::Csinc(c) | Op::Csneg(c) = uop.op {
        let Some(f) = known.flags else { return Reduction::None };
        let cond_true = c.eval(f);
        return match (uop.op, cond_true) {
            // Condition true: all three select src1 — a plain move.
            (_, true) => match k1 {
                Some(v) => value_reduction(uop, v & uop.width.mask(), None),
                None => Reduction::MoveOfSrc1,
            },
            // csel false: selects src2 — also a move.
            (Op::Csel(_), false) => match k2 {
                Some(v) => value_reduction(uop, v & uop.width.mask(), None),
                None => Reduction::MoveOfSrc2,
            },
            // csinc/csneg false: compute only if src2 is known
            // (the paper reduces these only when the condition is
            // true; with full knowledge we can go further).
            (_, false) => match k2 {
                Some(_) => {
                    let r = exec_alu(
                        uop.op,
                        uop.width,
                        false,
                        Operands { a: 0, b: k2.unwrap(), flags: f, ..Default::default() },
                    );
                    value_reduction(uop, r.value, None)
                }
                None => Reduction::None,
            },
        };
    }

    if all_known {
        let r = exec_alu(
            uop.op,
            uop.width,
            uop.sets_flags,
            Operands {
                a: k1.unwrap_or(0),
                b: k2.unwrap_or(0),
                flags: known.flags.unwrap_or_default(),
                ..Default::default()
            },
        );
        if uop.sets_flags && r.flags.is_none() {
            return Reduction::None;
        }
        return value_reduction(uop, r.value, r.flags);
    }

    // Partially-known idioms (the heart of Table 1). Flag-setting ops
    // may only reduce when the flags are still fully determined — for
    // `ands`, a single zero operand forces result 0 and NZCV to the
    // zero-result pattern.
    let (z1, z2) = (k1 == Some(0), k2 == Some(0));
    match uop.op {
        Op::And | Op::Bic if z1 => {
            let flags = uop.sets_flags.then_some(Nzcv::ZERO_RESULT);
            Reduction::ZeroIdiom { flags }
        }
        Op::And if z2 => {
            let flags = uop.sets_flags.then_some(Nzcv::ZERO_RESULT);
            Reduction::ZeroIdiom { flags }
        }
        _ if uop.sets_flags => Reduction::None,
        Op::Add | Op::Orr | Op::Eor if z1 => Reduction::MoveOfSrc2,
        Op::Add | Op::Orr | Op::Eor if z2 => Reduction::MoveOfSrc1,
        Op::Sub | Op::Bic if z2 => Reduction::MoveOfSrc1,
        Op::Lsl | Op::Lsr | Op::Asr if z1 => Reduction::ZeroIdiom { flags: None },
        Op::Lsl | Op::Lsr | Op::Asr if z2 => Reduction::MoveOfSrc1,
        Op::Ubfx { .. } | Op::Rbit if z1 => Reduction::ZeroIdiom { flags: None },
        // eor x, x (same register) is a zero idiom even without known
        // values — the caller detects the same-register case and passes
        // equal knowledge; here we handle the known-equal-values case.
        Op::Eor if k1.is_some() && k1 == k2 => Reduction::ZeroIdiom { flags: None },
        _ => Reduction::None,
    }
}

/// Evaluates whether `eor dst, a, a` (both sources the same
/// architectural register) — the classic static zero idiom.
#[must_use]
pub fn is_static_eor_zero(uop: &Inst) -> bool {
    uop.op == Op::Eor
        && !uop.sets_flags
        && uop.src1.is_some()
        && uop.src2.reg().is_some()
        && uop.src1 == uop.src2.reg()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_isa::flags::Cond;
    use tvp_isa::inst::build::*;
    use tvp_isa::reg::x;

    fn k(src1: Option<u64>, src2: Option<u64>) -> Known {
        Known { src1, src2, flags: None }
    }

    // ---- Table 1, row by row ----

    #[test]
    fn row_sub_imm1_with_src0_one() {
        // sub dst, src0, #1 : zero-idiom when src0 == 0x1.
        let u = sub(x(0), x(1), 1i64);
        assert_eq!(reduce(&u, &k(Some(1), None)), Reduction::ZeroIdiom { flags: None });
        assert_eq!(reduce(&u, &k(None, None)), Reduction::None);
    }

    #[test]
    fn row_sub_reg() {
        let u = sub(x(0), x(1), x(2));
        // src1 == 0x0 → move of src0.
        assert_eq!(reduce(&u, &k(None, Some(0))), Reduction::MoveOfSrc1);
        // both 0x1 → zero idiom.
        assert_eq!(reduce(&u, &k(Some(1), Some(1))), Reduction::ZeroIdiom { flags: None });
        // src0 == 0x0 alone is not reducible (negation).
        assert_eq!(reduce(&u, &k(Some(0), None)), Reduction::None);
    }

    #[test]
    fn row_add_orr_eor_imm1_one_idiom() {
        for u in [add(x(0), x(1), 1i64), orr(x(0), x(1), 1i64), eor(x(0), x(1), 1i64)] {
            assert_eq!(reduce(&u, &k(Some(0), None)), Reduction::OneIdiom { flags: None }, "{u}");
        }
    }

    #[test]
    fn row_add_orr_eor_reg_move_idiom() {
        for u in [add(x(0), x(1), x(2)), orr(x(0), x(1), x(2)), eor(x(0), x(1), x(2))] {
            assert_eq!(reduce(&u, &k(Some(0), None)), Reduction::MoveOfSrc2, "{u}");
            assert_eq!(reduce(&u, &k(None, Some(0))), Reduction::MoveOfSrc1, "{u}");
        }
    }

    #[test]
    fn row_and_imm1() {
        let u = and(x(0), x(1), 1i64);
        assert_eq!(reduce(&u, &k(Some(0), None)), Reduction::ZeroIdiom { flags: None });
        assert_eq!(reduce(&u, &k(Some(1), None)), Reduction::OneIdiom { flags: None });
    }

    #[test]
    fn row_and_reg_zero_idiom() {
        let u = and(x(0), x(1), x(2));
        assert_eq!(reduce(&u, &k(Some(0), None)), Reduction::ZeroIdiom { flags: None });
        assert_eq!(reduce(&u, &k(None, Some(0))), Reduction::ZeroIdiom { flags: None });
    }

    #[test]
    fn row_shifts() {
        for u in [lsr(x(0), x(1), 4i64), lsl(x(0), x(1), 4i64)] {
            assert_eq!(reduce(&u, &k(Some(0), None)), Reduction::ZeroIdiom { flags: None }, "{u}");
        }
        let u = lsl(x(0), x(1), x(2));
        assert_eq!(reduce(&u, &k(Some(0), None)), Reduction::ZeroIdiom { flags: None });
        assert_eq!(reduce(&u, &k(None, Some(0))), Reduction::MoveOfSrc1, "shift by zero is a move");
    }

    #[test]
    fn row_ubfm_and_rbit() {
        let u = ubfx(x(0), x(1), 8, 8);
        assert_eq!(reduce(&u, &k(Some(0), None)), Reduction::ZeroIdiom { flags: None });
        let u = rbit(x(0), x(1));
        assert_eq!(reduce(&u, &k(Some(0), None)), Reduction::ZeroIdiom { flags: None });
    }

    #[test]
    fn row_bic() {
        let u = bic(x(0), x(1), x(2));
        assert_eq!(reduce(&u, &k(Some(0), None)), Reduction::ZeroIdiom { flags: None });
        assert_eq!(reduce(&u, &k(None, Some(0))), Reduction::MoveOfSrc1);
    }

    #[test]
    fn row_ands_nop_plus_nzcv() {
        let u = ands(x(0), x(1), x(2));
        // Any zero operand → result 0, flags {n=0,Z=1,c=0,v=0}.
        for known in [k(Some(0), None), k(None, Some(0))] {
            match reduce(&u, &known) {
                Reduction::ZeroIdiom { flags: Some(f) } => assert_eq!(f, Nzcv::ZERO_RESULT),
                r => panic!("expected zero idiom with flags, got {r:?}"),
            }
        }
        // ands with both == 0x1 → result 1 + flags.
        match reduce(&u, &k(Some(1), Some(1))) {
            Reduction::OneIdiom { flags: Some(f) } => {
                assert!(!f.z && !f.n && !f.c && !f.v);
            }
            r => panic!("expected one idiom with flags, got {r:?}"),
        }
        // A flag-setter with a single known non-zero operand must NOT
        // reduce (flags not determined).
        assert_eq!(reduce(&u, &k(Some(1), None)), Reduction::None);
    }

    #[test]
    fn row_subs_adds_fully_known() {
        let u = subs(x(0), x(1), x(2));
        match reduce(&u, &k(Some(1), Some(1))) {
            Reduction::ZeroIdiom { flags: Some(f) } => {
                assert!(f.z && f.c, "1 - 1 = 0 with no borrow");
            }
            r => panic!("expected zero idiom, got {r:?}"),
        }
        match reduce(&adds(x(0), x(1), x(2)), &k(Some(0), Some(1))) {
            Reduction::OneIdiom { flags: Some(f) } => assert!(!f.z),
            r => panic!("expected one idiom, got {r:?}"),
        }
        // Partially known flag-setters never reduce.
        assert_eq!(reduce(&u, &k(None, Some(0))), Reduction::None);
    }

    #[test]
    fn row_cbz_tbz_resolution() {
        let mut cbz_u = Inst::new(Op::Cbz);
        cbz_u.src1 = Some(x(3));
        cbz_u.target = Some(0x40);
        assert_eq!(reduce(&cbz_u, &k(Some(0), None)), Reduction::ResolvedBranch { taken: true });
        assert_eq!(reduce(&cbz_u, &k(Some(1), None)), Reduction::ResolvedBranch { taken: false });
        assert_eq!(reduce(&cbz_u, &k(None, None)), Reduction::None);

        let mut tbz_u = Inst::new(Op::Tbz(0));
        tbz_u.src1 = Some(x(3));
        tbz_u.target = Some(0x40);
        assert_eq!(reduce(&tbz_u, &k(Some(1), None)), Reduction::ResolvedBranch { taken: false });
    }

    #[test]
    fn row_bcond_with_known_flags() {
        let mut u = Inst::new(Op::BCond(Cond::Eq));
        u.target = Some(0x80);
        let known = Known { flags: Some(Nzcv::ZERO_RESULT), ..Default::default() };
        assert_eq!(reduce(&u, &known), Reduction::ResolvedBranch { taken: true });
        let known = Known { flags: Some(Nzcv::default()), ..Default::default() };
        assert_eq!(reduce(&u, &known), Reduction::ResolvedBranch { taken: false });
        assert_eq!(reduce(&u, &Known::default()), Reduction::None);
    }

    #[test]
    fn row_csel_family() {
        let zf = Some(Nzcv::ZERO_RESULT); // Eq holds
        let nf = Some(Nzcv::default()); // Eq fails

        let u = csel(x(0), x(1), x(2), Cond::Eq);
        assert_eq!(reduce(&u, &Known { flags: zf, ..Default::default() }), Reduction::MoveOfSrc1);
        assert_eq!(reduce(&u, &Known { flags: nf, ..Default::default() }), Reduction::MoveOfSrc2);
        assert_eq!(reduce(&u, &Known::default()), Reduction::None, "NZCV not available");

        // csinc with condition true → move of src1 (paper's rule).
        let u = csinc(x(0), x(1), x(2), Cond::Eq);
        assert_eq!(reduce(&u, &Known { flags: zf, ..Default::default() }), Reduction::MoveOfSrc1);
        // Condition false with known src2 → computable (src2 + 1).
        assert_eq!(
            reduce(&u, &Known { flags: nf, src2: Some(41), ..Default::default() }),
            Reduction::KnownValue { value: 42, flags: None }
        );
        // Condition false, src2 unknown → not reduced.
        assert_eq!(reduce(&u, &Known { flags: nf, ..Default::default() }), Reduction::None);

        // csneg, condition false, known src2 → negated value.
        let u = csneg(x(0), x(1), x(2), Cond::Eq);
        assert_eq!(
            reduce(&u, &Known { flags: nf, src2: Some(5), ..Default::default() }),
            Reduction::KnownValue { value: 5u64.wrapping_neg(), flags: None }
        );
    }

    // ---- general properties ----

    #[test]
    fn known_values_compute_via_exec_semantics() {
        let u = add(x(0), x(1), x(2));
        assert_eq!(
            reduce(&u, &k(Some(20), Some(22))),
            Reduction::KnownValue { value: 42, flags: None }
        );
        // Width is respected.
        let u = w32(add(x(0), x(1), x(2)));
        assert_eq!(
            reduce(&u, &k(Some(0xFFFF_FFFF), Some(1))),
            Reduction::ZeroIdiom { flags: None }
        );
    }

    #[test]
    fn non_table1_ops_never_reduce() {
        let u = mul(x(0), x(1), x(2));
        assert_eq!(reduce(&u, &k(Some(0), Some(0))), Reduction::None);
        let u = udiv(x(0), x(1), x(2));
        assert_eq!(reduce(&u, &k(Some(0), Some(1))), Reduction::None);
    }

    #[test]
    fn static_eor_zero_detection() {
        assert!(is_static_eor_zero(&eor(x(0), x(3), x(3))));
        assert!(!is_static_eor_zero(&eor(x(0), x(3), x(4))));
        assert!(!is_static_eor_zero(&eor(x(0), x(3), 0i64)));
    }

    #[test]
    fn mov_with_known_source_becomes_value() {
        let u = mov(x(0), x(1));
        assert_eq!(reduce(&u, &k(Some(7), None)), Reduction::KnownValue { value: 7, flags: None });
        assert_eq!(reduce(&u, &k(Some(0), None)), Reduction::ZeroIdiom { flags: None });
    }
}
