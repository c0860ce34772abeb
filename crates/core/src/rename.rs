//! Register renaming with DSR, 9-bit idiom elimination, MVP/TVP/GVP
//! destination handling and SpSR.
//!
//! The renamer owns the speculative RAT, the committed RAT (CRAT), the
//! free lists and the SpSR frontend-NZCV view (which is simply "the
//! flags RAT entry is a [`PhysName::KnownFlags`] name"). The pipeline
//! drives it one µop at a time — intra-group dependencies fall out of
//! sequential processing, and rollback uses per-µop undo records, the
//! Active-List walk of §3.2.1.

use tvp_isa::flags::Nzcv;
use tvp_isa::inst::Inst;
use tvp_isa::op::{Op, Width};
use tvp_isa::reg::{Reg, NUM_DENSE_REGS};
use tvp_obs::counters::sat_inc;

use crate::config::CoreConfig;
use crate::inline_vec::{InlineVec, MAX_DST_REGS, MAX_SRC_REGS};
use crate::physreg::{PhysName, RegFile, PHYS_ONE, PHYS_ZERO};
use crate::spsr::{is_static_eor_zero, reduce, Known, Reduction};
use crate::stats::RenameStats;

/// Register file class.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum RegClass {
    /// Integer registers (including renamed `NZCV`).
    #[default]
    Int,
    /// FP/SIMD registers.
    Fp,
}

/// Class of an architectural register.
#[must_use]
pub fn class_of(reg: Reg) -> RegClass {
    if reg.is_fp() {
        RegClass::Fp
    } else {
        RegClass::Int
    }
}

/// A scheduling dependency on a real physical register.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Dep {
    /// Register class.
    pub class: RegClass,
    /// Physical register id.
    pub p: u16,
}

/// Why a µop disappeared at rename (Fig. 4's categories).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ElimCategory {
    /// Static zero idiom (`eor x,x`, `movz #0`, `and` with `xzr`, …).
    ZeroIdiom,
    /// Static one idiom (`movz #1`).
    OneIdiom,
    /// Move elimination.
    MoveElim,
    /// 9-bit signed move-immediate inlining (TVP).
    NineBit,
    /// Speculative strength reduction (value-driven, Table 1).
    Spsr,
}

/// How the value prediction for a µop's destination was applied.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PredApply {
    /// Renamed to a hardwired or inlined name — no physical register.
    Named,
    /// GVP wide value: allocated a register and wrote the prediction
    /// to the PRF at rename.
    WidePrfWrite,
}

/// The renamer's output for one µop.
#[derive(Clone, Debug, Default)]
pub struct RenamedUop {
    /// Scheduling dependencies (real registers only). Inline: a µop
    /// has at most [`MAX_SRC_REGS`] register sources, and the rename
    /// path must not hit the allocator once per µop.
    pub deps: InlineVec<Dep, MAX_SRC_REGS>,
    /// Integer PRF read ports this µop will exercise at issue.
    pub prf_reads: u32,
    /// Undo log: `(dense arch index, previous name)` pairs, oldest
    /// first. Also identifies the new mappings for commit. Inline: a
    /// µop maps at most [`MAX_DST_REGS`] registers (dest + `NZCV`).
    pub undo: InlineVec<(usize, PhysName), MAX_DST_REGS>,
    /// Register allocated for the destination, if any.
    pub dest_alloc: Option<(RegClass, u16)>,
    /// Register allocated for the flags, if any.
    pub flags_alloc: Option<u16>,
    /// Elimination category (µop skips the IQ entirely).
    pub eliminated: Option<ElimCategory>,
    /// The value this µop was predicted to produce (validate at
    /// execute).
    pub predicted: Option<(u64, PredApply)>,
    /// A conditional branch resolved at rename (SpSR).
    pub resolved_branch: Option<bool>,
    /// A move that could not be eliminated due to the 64→32-bit width
    /// restriction.
    pub non_me_move: bool,
}

/// Rename failure: out of physical registers; retry next cycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RenameStall;

/// The renamer.
pub struct Renamer {
    rat: Vec<PhysName>,
    crat: Vec<PhysName>,
    int: RegFile,
    fp: RegFile,
    move_elim: bool,
    zero_one_idiom: bool,
    nine_bit_idiom: bool,
    spsr: bool,
    inlining: bool,
    pub(crate) stats: RenameStats,
    /// Saturation sink for the rename counters ([`sat_inc`]); folded
    /// into `SimStats::overflow_events` at the end of a run.
    pub(crate) overflow_events: u64,
}

impl Renamer {
    /// Builds a renamer for the given configuration, with every
    /// architectural register mapped to a fresh, ready physical
    /// register (the workload's initial state).
    #[must_use]
    pub fn new(cfg: &CoreConfig) -> Self {
        let mut int = RegFile::new(cfg.int_regs, 2);
        let mut fp = RegFile::new(cfg.fp_regs, 0);
        let mut rat = Vec::with_capacity(NUM_DENSE_REGS); // audited(no-alloc-in-hot-path): constructor
        for dense in 0..NUM_DENSE_REGS {
            let name = if dense == Reg::Int(tvp_isa::reg::ZERO_REG_INDEX).dense_index() {
                PhysName::Reg(PHYS_ZERO)
            } else if dense < 32 || dense == Reg::Nzcv.dense_index() {
                let p = int.alloc().expect("initial int mapping");
                int.set_ready(p, 0);
                PhysName::Reg(p)
            } else {
                let p = fp.alloc().expect("initial fp mapping");
                fp.set_ready(p, 0);
                PhysName::Reg(p)
            };
            rat.push(name);
        }
        // The CRAT shares the initial mappings under a single reference
        // each: one refcount unit covers a name's whole new_names → CRAT
        // lifetime, released when the next writer of the same register
        // commits (see `commit_with_names`). A second per-table
        // reference here would never be released — the registers would
        // leak out of the free list at their first overwrite.
        Renamer {
            crat: rat.clone(),
            rat,
            int,
            fp,
            move_elim: cfg.move_elim,
            zero_one_idiom: cfg.zero_one_idiom,
            nine_bit_idiom: cfg.nine_bit_idiom || cfg.vp.uses_inlining(),
            spsr: cfg.spsr,
            inlining: cfg.nine_bit_idiom || cfg.vp.uses_inlining(),
            stats: RenameStats::default(),
            overflow_events: 0,
        }
    }

    /// Current speculative mapping of an architectural register.
    #[must_use]
    pub fn name_of(&self, reg: Reg) -> PhysName {
        if reg.is_zero() {
            return PhysName::Reg(PHYS_ZERO);
        }
        self.rat[reg.dense_index()]
    }

    fn regfile(&mut self, class: RegClass) -> &mut RegFile {
        match class {
            RegClass::Int => &mut self.int,
            RegClass::Fp => &mut self.fp,
        }
    }

    /// Shared access to a register file class.
    #[must_use]
    pub fn file(&self, class: RegClass) -> &RegFile {
        match class {
            RegClass::Int => &self.int,
            RegClass::Fp => &self.fp,
        }
    }

    /// Mutable access (the pipeline marks readiness at writeback).
    pub fn file_mut(&mut self, class: RegClass) -> &mut RegFile {
        self.regfile(class)
    }

    /// The SpSR frontend NZCV view: flags known at rename time.
    #[must_use]
    pub fn frontend_flags(&self) -> Option<Nzcv> {
        self.rat[Reg::Nzcv.dense_index()].known_flags()
    }

    /// Rename statistics.
    pub fn stats(&self) -> RenameStats {
        self.stats
    }

    fn known_of_name(name: PhysName) -> Option<u64> {
        name.known_value()
    }

    /// Value knowledge for a source register, via its current name.
    /// Only meaningful for integer-class sources.
    fn dynamic_known(&self, reg: Option<Reg>) -> Option<u64> {
        let reg = reg?;
        if reg.is_zero() {
            return Some(0);
        }
        if !reg.is_int() {
            return None;
        }
        Self::known_of_name(self.rat[reg.dense_index()])
    }

    /// Static (architectural) knowledge: only the zero register.
    fn static_known(reg: Option<Reg>) -> Option<u64> {
        match reg {
            Some(r) if r.is_zero() => Some(0),
            _ => None,
        }
    }

    fn collect_deps(&self, uop: &Inst, out: &mut RenamedUop) {
        for src in uop.src_regs() {
            if src.is_zero() {
                continue;
            }
            let name = self.rat[src.dense_index()];
            if let PhysName::Reg(p) = name {
                let class = class_of(src);
                out.deps.push(Dep { class, p });
                if class == RegClass::Int && name.needs_prf_read() {
                    out.prf_reads += 1;
                }
            }
        }
    }

    /// Installs `name` as the new mapping of `reg`, recording undo.
    fn map_dest(&mut self, reg: Reg, name: PhysName, out: &mut RenamedUop) {
        if reg.is_zero() {
            return; // xzr writes are discarded; no mapping changes
        }
        let dense = reg.dense_index();
        out.undo.push((dense, self.rat[dense]));
        self.rat[dense] = name;
    }

    /// Can a move of `src_name` into a `width` destination be
    /// eliminated? Implements §5's width restriction and its TVP
    /// relaxation (known non-sign-extended values are safe).
    fn move_width_ok(&self, width: Width, src_name: PhysName) -> bool {
        if width == Width::W64 {
            return true;
        }
        match src_name {
            PhysName::Reg(p) => self.int.is32(p),
            PhysName::Inline(v) => v >= 0,
            PhysName::KnownFlags(_) => false,
        }
    }

    /// Whether `value` can be carried by a name in this configuration.
    fn representable(&self, value: u64) -> Option<PhysName> {
        if self.zero_one_idiom || self.inlining {
            if value == 0 {
                return Some(PhysName::Reg(PHYS_ZERO));
            }
            if value == 1 {
                return Some(PhysName::Reg(PHYS_ONE));
            }
        }
        if self.inlining {
            return PhysName::inline_for(value);
        }
        None
    }

    /// Applies a reduction's destination/flags effects. Returns the
    /// elimination category to record, or `None` if the reduction is
    /// not representable in this configuration.
    fn apply_reduction(
        &mut self,
        uop: &Inst,
        reduction: Reduction,
        category: ElimCategory,
        out: &mut RenamedUop,
    ) -> Option<ElimCategory> {
        let (dest_name, flags): (Option<PhysName>, Option<Nzcv>) = match reduction {
            Reduction::ZeroIdiom { flags } => (Some(PhysName::Reg(PHYS_ZERO)), flags),
            Reduction::OneIdiom { flags } => (Some(PhysName::Reg(PHYS_ONE)), flags),
            Reduction::KnownValue { value, flags } => {
                let name = self.representable(value)?;
                (Some(name), flags)
            }
            Reduction::MoveOfSrc1 | Reduction::MoveOfSrc2 => {
                if !self.move_elim {
                    return None;
                }
                let src =
                    if reduction == Reduction::MoveOfSrc1 { uop.src1 } else { uop.src2.reg() }?;
                let name = self.name_of(src);
                if !self.move_width_ok(uop.width, name) {
                    out.non_me_move = true;
                    sat_inc(&mut self.stats.non_me_move, &mut self.overflow_events);
                    return None;
                }
                if let PhysName::Reg(p) = name {
                    self.int.add_ref(p);
                }
                (Some(name), None)
            }
            Reduction::ResolvedBranch { taken } => {
                out.resolved_branch = Some(taken);
                (None, None)
            }
            Reduction::None => return None,
        };
        if uop.sets_flags {
            // Table 1 only reduces flag-setters with computable flags.
            let f = flags?;
            self.map_dest(Reg::Nzcv, PhysName::KnownFlags(f.pack()), out);
        }
        if let (Some(dst), Some(name)) = (uop.dst, dest_name) {
            self.map_dest(dst, name, out);
        }
        Some(category)
    }

    /// Renames one µop.
    ///
    /// `prediction` is the confident value prediction for this µop's
    /// destination (already filtered for eligibility, admissibility
    /// and silencing by the caller).
    ///
    /// # Errors
    ///
    /// Returns [`RenameStall`] when a physical register is needed and
    /// the free list is empty. No state is modified in that case.
    pub fn rename_uop(
        &mut self,
        uop: &Inst,
        first_uop: bool,
        prediction: Option<u64>,
    ) -> Result<RenamedUop, RenameStall> {
        let mut out = RenamedUop::default();
        self.collect_deps(uop, &mut out);
        sat_inc(&mut self.stats.uops, &mut self.overflow_events);
        if first_uop {
            sat_inc(&mut self.stats.arch_insts, &mut self.overflow_events);
        }

        // --- move-immediate idioms -------------------------------------
        if uop.op == Op::MovImm {
            let value = uop.src2.imm().unwrap_or(0) as u64 & uop.width.mask();
            if self.zero_one_idiom && value == 0 {
                self.map_dest(
                    uop.dst.expect("movz has a destination"),
                    PhysName::Reg(PHYS_ZERO),
                    &mut out,
                );
                out.eliminated = Some(ElimCategory::ZeroIdiom);
                sat_inc(&mut self.stats.zero_idiom, &mut self.overflow_events);
                return Ok(out);
            }
            if self.zero_one_idiom && value == 1 {
                self.map_dest(
                    uop.dst.expect("movz has a destination"),
                    PhysName::Reg(PHYS_ONE),
                    &mut out,
                );
                out.eliminated = Some(ElimCategory::OneIdiom);
                sat_inc(&mut self.stats.one_idiom, &mut self.overflow_events);
                return Ok(out);
            }
            if self.nine_bit_idiom {
                if let Some(name) = PhysName::inline_for(value) {
                    self.map_dest(uop.dst.expect("movz has a destination"), name, &mut out);
                    out.eliminated = Some(ElimCategory::NineBit);
                    sat_inc(&mut self.stats.nine_bit_idiom, &mut self.overflow_events);
                    return Ok(out);
                }
            }
        }

        // --- register-move elimination ----------------------------------
        if uop.op == Op::Mov && self.move_elim {
            let src = uop.src1.expect("mov has a source");
            let name = self.name_of(src);
            if self.move_width_ok(uop.width, name) {
                if let PhysName::Reg(p) = name {
                    self.int.add_ref(p);
                }
                self.map_dest(uop.dst.expect("mov has a destination"), name, &mut out);
                out.eliminated = Some(ElimCategory::MoveElim);
                sat_inc(&mut self.stats.move_elim, &mut self.overflow_events);
                return Ok(out);
            }
            out.non_me_move = true;
            sat_inc(&mut self.stats.non_me_move, &mut self.overflow_events);
        }

        // --- static DSR (baseline zero/one-idiom + move idioms) ---------
        if self.zero_one_idiom && uop.op != Op::Mov {
            let static_known = Known {
                src1: Self::static_known(uop.src1),
                src2: Self::static_known(uop.src2.reg()),
                flags: None,
            };
            let static_red = if is_static_eor_zero(uop) {
                Reduction::ZeroIdiom { flags: None }
            } else if static_known.src1.is_some() || static_known.src2.is_some() {
                reduce(uop, &static_known)
            } else {
                Reduction::None
            };
            let category = match static_red {
                Reduction::ZeroIdiom { .. } => Some(ElimCategory::ZeroIdiom),
                Reduction::OneIdiom { .. } => Some(ElimCategory::OneIdiom),
                Reduction::MoveOfSrc1 | Reduction::MoveOfSrc2 => Some(ElimCategory::MoveElim),
                Reduction::KnownValue { .. }
                | Reduction::ResolvedBranch { .. }
                | Reduction::None => None,
            };
            if let Some(cat) = category {
                if let Some(applied) = self.apply_reduction(uop, static_red, cat, &mut out) {
                    out.eliminated = Some(applied);
                    match applied {
                        ElimCategory::ZeroIdiom => {
                            sat_inc(&mut self.stats.zero_idiom, &mut self.overflow_events);
                        }
                        ElimCategory::OneIdiom => {
                            sat_inc(&mut self.stats.one_idiom, &mut self.overflow_events);
                        }
                        ElimCategory::MoveElim => {
                            sat_inc(&mut self.stats.move_elim, &mut self.overflow_events);
                        }
                        _ => {}
                    }
                    return Ok(out);
                }
            }
        }

        // --- SpSR (value-driven, Table 1) --------------------------------
        if self.spsr {
            let known = Known {
                src1: self.dynamic_known(uop.src1),
                src2: self.dynamic_known(uop.src2.reg()),
                flags: self.frontend_flags(),
            };
            // Skip cases static DSR already covers (pure-imm knowledge
            // was handled above); require at least one *dynamic* fact.
            let has_dynamic = (known.src1.is_some() && !uop.src1.is_some_and(Reg::is_zero))
                || (known.src2.is_some() && !uop.src2.reg().is_some_and(Reg::is_zero))
                || known.flags.is_some();
            if has_dynamic {
                let red = reduce(uop, &known);
                if red.is_reduced() {
                    if let Some(applied) =
                        self.apply_reduction(uop, red, ElimCategory::Spsr, &mut out)
                    {
                        out.eliminated = Some(applied);
                        sat_inc(&mut self.stats.spsr, &mut self.overflow_events);
                        return Ok(out);
                    }
                }
            }
        }

        // --- value prediction of the destination ------------------------
        if let Some(value) = prediction {
            if let Some(name) = self.representable(value) {
                if uop.sets_flags && self.int.free_count() < 1 {
                    return Err(self.unwind_stall(first_uop));
                }
                self.map_dest(uop.dst.expect("VP-eligible µops have a GPR dest"), name, &mut out);
                out.predicted = Some((value, PredApply::Named));
                if uop.sets_flags {
                    let p = self.int.alloc().expect("checked above");
                    out.flags_alloc = Some(p);
                    self.map_dest(Reg::Nzcv, PhysName::Reg(p), &mut out);
                }
                return Ok(out);
            }
            // GVP wide prediction: allocate and pre-write the PRF.
            if self.int.free_count() < 1 + usize::from(uop.sets_flags) {
                return Err(self.unwind_stall(first_uop));
            }
            let p = self.int.alloc().expect("checked above");
            self.int.set_ready(p, 0);
            self.int.set_is32(p, value <= u64::from(u32::MAX));
            self.map_dest(
                uop.dst.expect("VP-eligible µops have a GPR dest"),
                PhysName::Reg(p),
                &mut out,
            );
            out.dest_alloc = Some((RegClass::Int, p));
            out.predicted = Some((value, PredApply::WidePrfWrite));
            if uop.sets_flags {
                let pf = self.int.alloc().expect("checked above");
                out.flags_alloc = Some(pf);
                self.map_dest(Reg::Nzcv, PhysName::Reg(pf), &mut out);
            }
            return Ok(out);
        }

        // --- ordinary rename ---------------------------------------------
        let dest_class = uop.dst.filter(|d| !d.is_zero()).map(class_of);
        let int_need = usize::from(uop.sets_flags) + usize::from(dest_class == Some(RegClass::Int));
        let fp_need = usize::from(dest_class == Some(RegClass::Fp));
        if self.int.free_count() < int_need || self.fp.free_count() < fp_need {
            return Err(self.unwind_stall(first_uop));
        }
        if let Some(class) = dest_class {
            let dst = uop.dst.expect("dest_class implies a destination");
            let p = self.regfile(class).alloc().expect("checked above");
            self.map_dest(dst, PhysName::Reg(p), &mut out);
            out.dest_alloc = Some((class, p));
            let is32 = match uop.op {
                Op::Load { size, signed } => !signed && size <= 4,
                _ => uop.width == Width::W32,
            };
            self.regfile(class).set_is32(p, is32);
        }
        if uop.sets_flags {
            let p = self.int.alloc().expect("checked above");
            out.flags_alloc = Some(p);
            self.map_dest(Reg::Nzcv, PhysName::Reg(p), &mut out);
        }
        Ok(out)
    }

    /// Backs out the statistics counted optimistically at the top of
    /// [`Renamer::rename_uop`] when the µop stalls.
    fn unwind_stall(&mut self, first_uop: bool) -> RenameStall {
        // audited(saturating-counter): backs out this call's increment
        self.stats.uops -= 1;
        if first_uop {
            // audited(saturating-counter): backs out this call's increment
            self.stats.arch_insts -= 1;
        }
        RenameStall
    }

    /// Rolls back one µop's mappings (squash). Must be called in
    /// reverse rename order — the paper's Active-List walk (§3.2.1).
    pub fn rollback(&mut self, renamed: &RenamedUop) {
        for &(dense, old) in renamed.undo.iter().rev() {
            let current = self.rat[dense];
            if let PhysName::Reg(p) = current {
                let class = if (32..64).contains(&dense) { RegClass::Fp } else { RegClass::Int };
                self.regfile(class).release(p);
            }
            self.rat[dense] = old;
        }
    }

    /// Commits one µop's new mappings (provided by the ROB entry,
    /// which captured `(dense index, new name)` pairs at rename time).
    pub fn commit_with_names(&mut self, new_names: &[(usize, PhysName)]) {
        for &(dense, name) in new_names {
            let old = self.crat[dense];
            if let PhysName::Reg(p) = old {
                let class = if (32..64).contains(&dense) { RegClass::Fp } else { RegClass::Int };
                self.regfile(class).release(p);
            }
            self.crat[dense] = name;
        }
    }

    /// The committed mapping of a dense register index (tests).
    #[must_use]
    pub fn crat_entry(&self, dense: usize) -> PhysName {
        self.crat[dense]
    }

    /// The speculative mapping of a dense register index (the pipeline
    /// captures new names for ROB entries right after renaming).
    #[must_use]
    pub fn rat_entry(&self, dense: usize) -> PhysName {
        self.rat[dense]
    }
}

impl std::fmt::Debug for Renamer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Renamer")
            .field("int_free", &self.int.free_count())
            .field("fp_free", &self.fp.free_count())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VpMode;
    use tvp_isa::flags::Cond;
    use tvp_isa::inst::{build::*, AddrMode};
    use tvp_isa::reg::{x, XZR};

    fn renamer(vp: VpMode, spsr: bool) -> Renamer {
        let mut cfg = CoreConfig::with_vp(vp);
        cfg.spsr = spsr;
        Renamer::new(&cfg)
    }

    #[test]
    fn baseline_allocates_and_tracks_deps() {
        let mut r = renamer(VpMode::Off, false);
        let u = add(x(0), x(1), x(2));
        let out = r.rename_uop(&u, true, None).unwrap();
        assert!(out.eliminated.is_none());
        assert!(out.dest_alloc.is_some());
        assert_eq!(out.deps.len(), 2);
        assert_eq!(out.prf_reads, 2);
        // The new mapping is visible.
        assert_eq!(r.name_of(x(0)).reg(), Some(out.dest_alloc.unwrap().1));
    }

    #[test]
    fn movz_zero_one_idioms() {
        let mut r = renamer(VpMode::Off, false);
        let out = r.rename_uop(&movz(x(0), 0), true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::ZeroIdiom));
        assert_eq!(r.name_of(x(0)), PhysName::Reg(PHYS_ZERO));
        let out = r.rename_uop(&movz(x(1), 1), true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::OneIdiom));
        assert_eq!(r.name_of(x(1)), PhysName::Reg(PHYS_ONE));
        // Without inlining, movz #42 executes normally.
        let out = r.rename_uop(&movz(x(2), 42), true, None).unwrap();
        assert!(out.eliminated.is_none());
    }

    #[test]
    fn nine_bit_idiom_elimination_under_tvp() {
        let mut r = renamer(VpMode::Tvp, false);
        let out = r.rename_uop(&movz(x(0), 42), true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::NineBit));
        assert_eq!(r.name_of(x(0)), PhysName::Inline(42));
        // Out of range still executes.
        let out = r.rename_uop(&movz(x(1), 300), true, None).unwrap();
        assert!(out.eliminated.is_none());
    }

    #[test]
    fn move_elimination_shares_registers() {
        let mut r = renamer(VpMode::Off, false);
        let src_p = r.name_of(x(5)).reg().unwrap();
        let rc_before = r.file(RegClass::Int).ref_count(src_p);
        let out = r.rename_uop(&mov(x(6), x(5)), true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::MoveElim));
        assert_eq!(r.name_of(x(6)).reg(), Some(src_p));
        assert_eq!(r.file(RegClass::Int).ref_count(src_p), rc_before + 1);
    }

    #[test]
    fn w32_move_width_restriction() {
        let mut r = renamer(VpMode::Off, false);
        // x5's initial mapping is not known-32-bit → w-move not
        // eliminated (§5).
        let out = r.rename_uop(&w32(mov(x(6), x(5))), true, None).unwrap();
        assert!(out.eliminated.is_none());
        assert!(out.non_me_move);
        // After a 32-bit producer, the move eliminates.
        let _ = r.rename_uop(&w32(add(x(7), x(1), x(2))), true, None).unwrap();
        let out = r.rename_uop(&w32(mov(x(8), x(7))), true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::MoveElim));
    }

    #[test]
    fn static_move_idioms_via_xzr() {
        let mut r = renamer(VpMode::Off, false);
        // add x0, x1, xzr → move of x1.
        let u = add(x(0), x(1), XZR);
        let out = r.rename_uop(&u, true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::MoveElim));
        assert_eq!(r.name_of(x(0)), r.name_of(x(1)));
        // eor x2, x3, x3 → zero idiom.
        let out = r.rename_uop(&eor(x(2), x(3), x(3)), true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::ZeroIdiom));
        // and x4, x5, xzr → zero idiom.
        let out = r.rename_uop(&and(x(4), x(5), XZR), true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::ZeroIdiom));
    }

    #[test]
    fn mvp_prediction_uses_hardwired_registers() {
        let mut r = renamer(VpMode::Mvp, false);
        let u = ldr(x(0), AddrMode::BaseDisp { base: x(1), disp: 0 });
        let out = r.rename_uop(&u, true, Some(0)).unwrap();
        assert_eq!(out.predicted, Some((0, PredApply::Named)));
        assert!(out.dest_alloc.is_none(), "MVP predictions need no register");
        assert_eq!(r.name_of(x(0)), PhysName::Reg(PHYS_ZERO));
    }

    #[test]
    fn tvp_prediction_inlines_value() {
        let mut r = renamer(VpMode::Tvp, false);
        let u = add(x(0), x(1), x(2));
        let out = r.rename_uop(&u, true, Some(42)).unwrap();
        assert_eq!(out.predicted, Some((42, PredApply::Named)));
        assert_eq!(r.name_of(x(0)), PhysName::Inline(42));
    }

    #[test]
    fn gvp_wide_prediction_writes_prf() {
        let mut r = renamer(VpMode::Gvp, false);
        let u = ldr(x(0), AddrMode::BaseDisp { base: x(1), disp: 0 });
        let out = r.rename_uop(&u, true, Some(0xDEAD_BEEF_0000)).unwrap();
        let (_, p) = out.dest_alloc.expect("wide prediction allocates");
        assert_eq!(out.predicted, Some((0xDEAD_BEEF_0000, PredApply::WidePrfWrite)));
        assert_eq!(r.file(RegClass::Int).ready_at(p), 0, "prediction ready immediately");
    }

    #[test]
    fn spsr_add_with_predicted_zero_operand() {
        let mut r = renamer(VpMode::Mvp, true);
        // x2 gets predicted to 0 (its producer).
        let producer = ldr(x(2), AddrMode::BaseDisp { base: x(1), disp: 0 });
        let _ = r.rename_uop(&producer, true, Some(0)).unwrap();
        // add x0, x3, x2 now SpSRs to a move of x3.
        let u = add(x(0), x(3), x(2));
        let out = r.rename_uop(&u, true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::Spsr));
        assert_eq!(r.name_of(x(0)), r.name_of(x(3)));
        assert_eq!(r.stats().spsr, 1);
    }

    #[test]
    fn spsr_ands_installs_frontend_flags_and_enables_csel() {
        let mut r = renamer(VpMode::Mvp, true);
        let producer = ldr(x(2), AddrMode::BaseDisp { base: x(1), disp: 0 });
        let _ = r.rename_uop(&producer, true, Some(0)).unwrap();
        // ands x0, x3, x2 → nop + NZCV = zero-result.
        let u = ands(x(0), x(3), x(2));
        let out = r.rename_uop(&u, true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::Spsr));
        assert_eq!(r.frontend_flags(), Some(Nzcv::ZERO_RESULT));
        // csel x4, x5, x6, eq — condition known true → move of x5.
        let u = csel(x(4), x(5), x(6), Cond::Eq);
        let out = r.rename_uop(&u, true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::Spsr));
        assert_eq!(r.name_of(x(4)), r.name_of(x(5)));
        // A non-reduced flag writer invalidates the frontend view.
        let u = subs(x(7), x(8), x(9));
        let _ = r.rename_uop(&u, true, None).unwrap();
        assert_eq!(r.frontend_flags(), None);
    }

    #[test]
    fn spsr_resolves_branches_on_known_values() {
        let mut r = renamer(VpMode::Mvp, true);
        let producer = ldr(x(2), AddrMode::BaseDisp { base: x(1), disp: 0 });
        let _ = r.rename_uop(&producer, true, Some(0)).unwrap();
        let mut cbz_u = Inst::new(Op::Cbz);
        cbz_u.src1 = Some(x(2));
        cbz_u.target = Some(0x40);
        let out = r.rename_uop(&cbz_u, true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::Spsr));
        assert_eq!(out.resolved_branch, Some(true));
    }

    #[test]
    fn mvp_cannot_spsr_nine_bit_values() {
        // MVP has no inlining: a KnownValue of 5 is unrepresentable.
        let mut r = renamer(VpMode::Mvp, true);
        let producer = ldr(x(2), AddrMode::BaseDisp { base: x(1), disp: 0 });
        let _ = r.rename_uop(&producer, true, Some(1)).unwrap();
        // add x0, x2, #4 → result 5 → cannot be named in MVP.
        let u = add(x(0), x(2), 4i64);
        let out = r.rename_uop(&u, true, None).unwrap();
        assert!(out.eliminated.is_none());
        // Under TVP the same pattern inlines.
        let mut r = renamer(VpMode::Tvp, true);
        let _ = r.rename_uop(&producer, true, Some(1)).unwrap();
        let out = r.rename_uop(&u, true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::Spsr));
        assert_eq!(r.name_of(x(0)), PhysName::Inline(5));
    }

    #[test]
    fn rollback_restores_mappings_and_frees() {
        let mut r = renamer(VpMode::Off, false);
        let before = r.name_of(x(0));
        let free_before = r.file(RegClass::Int).free_count();
        let out = r.rename_uop(&add(x(0), x(1), x(2)), true, None).unwrap();
        assert_eq!(r.file(RegClass::Int).free_count(), free_before - 1);
        r.rollback(&out);
        assert_eq!(r.name_of(x(0)), before);
        assert_eq!(r.file(RegClass::Int).free_count(), free_before);
    }

    #[test]
    fn rollback_of_move_elim_drops_reference() {
        let mut r = renamer(VpMode::Off, false);
        let p = r.name_of(x(5)).reg().unwrap();
        let rc = r.file(RegClass::Int).ref_count(p);
        let out = r.rename_uop(&mov(x(6), x(5)), true, None).unwrap();
        assert_eq!(r.file(RegClass::Int).ref_count(p), rc + 1);
        r.rollback(&out);
        assert_eq!(r.file(RegClass::Int).ref_count(p), rc);
    }

    #[test]
    fn commit_releases_previous_crat_mapping() {
        let mut r = renamer(VpMode::Off, false);
        let old = r.crat_entry(x(0).dense_index());
        let out = r.rename_uop(&add(x(0), x(1), x(2)), true, None).unwrap();
        let new_name = r.name_of(x(0));
        let old_p = old.reg().unwrap();
        let rc = r.file(RegClass::Int).ref_count(old_p);
        let names: Vec<(usize, PhysName)> = out.undo.iter().map(|&(d, _)| (d, new_name)).collect();
        r.commit_with_names(&names);
        assert_eq!(r.crat_entry(x(0).dense_index()), new_name);
        assert_eq!(r.file(RegClass::Int).ref_count(old_p), rc - 1);
    }

    #[test]
    fn rename_stall_when_out_of_registers() {
        let mut cfg = CoreConfig::table2();
        cfg.int_regs = 36; // 2 hardwired + 32 initial + 2 spare
        let mut r = Renamer::new(&cfg);
        assert!(r.rename_uop(&add(x(0), x(1), x(2)), true, None).is_ok());
        assert!(r.rename_uop(&add(x(3), x(1), x(2)), true, None).is_ok());
        assert!(r.rename_uop(&add(x(4), x(1), x(2)), true, None).is_err(), "free list exhausted");
        // Eliminations still succeed without registers.
        let out = r.rename_uop(&movz(x(5), 0), true, None).unwrap();
        assert_eq!(out.eliminated, Some(ElimCategory::ZeroIdiom));
    }

    #[test]
    fn xzr_destination_allocates_nothing() {
        let mut r = renamer(VpMode::Off, false);
        let free = r.file(RegClass::Int).free_count();
        // cmp = subs xzr, …: allocates only the flags register.
        let out = r.rename_uop(&cmp(x(1), x(2)), true, None).unwrap();
        assert!(out.dest_alloc.is_none());
        assert!(out.flags_alloc.is_some());
        assert_eq!(r.file(RegClass::Int).free_count(), free - 1);
    }
}
