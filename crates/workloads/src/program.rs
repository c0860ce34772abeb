//! Programs and the assembler DSL.
//!
//! A [`Program`] is a sequence of architectural instructions laid out at
//! [`TEXT_BASE`], four bytes apart, held already decoded: assembly runs
//! [`expand`] once per instruction and [`intern`]s each µop, so the
//! machine executes the µops of a text slot without decoding them
//! again, and its trace records point at them. The [`Asm`] builder
//! provides a label-based assembler so kernels read like assembly
//! listings:
//!
//! ```
//! use tvp_workloads::program::Asm;
//! use tvp_isa::inst::build::*;
//! use tvp_isa::reg::x;
//! use tvp_isa::flags::Cond;
//!
//! let mut a = Asm::new();
//! a.i(movz(x(0), 10));
//! a.label("loop");
//! a.i(subs(x(0), x(0), 1i64));
//! a.b_cond(Cond::Ne, "loop");
//! let program = a.assemble().unwrap();
//! assert_eq!(program.len(), 3);
//! assert_eq!(program.fetch(program.entry()).unwrap().len(), 1, "one µop");
//! ```

use std::collections::BTreeMap;
use std::fmt;

use tvp_isa::flags::Cond;
use tvp_isa::inst::{expand, intern, Inst};
use tvp_isa::op::Op;
use tvp_isa::reg::Reg;

/// Base virtual address of the text segment.
pub const TEXT_BASE: u64 = 0x0001_0000;

/// Size of one instruction in bytes.
pub const INST_BYTES: u64 = 4;

/// An assembled program: the text segment as a table of decoded µops.
#[derive(Clone, Debug)]
pub struct Program {
    /// Every instruction's µops in text order, as [`expand`] produced
    /// them at assembly, interned.
    uops: Vec<&'static Inst>,
    /// Text slot `i` (the instruction at `TEXT_BASE + i * INST_BYTES`)
    /// owns `uops[starts[i]..starts[i + 1]]`; the last entry is
    /// `uops.len()`.
    starts: Vec<usize>,
}

impl Program {
    /// The µops of the instruction at virtual address `pc`, or `None`
    /// outside the text segment or off instruction alignment (the
    /// machine halts there).
    #[must_use]
    pub fn fetch(&self, pc: u64) -> Option<&[&'static Inst]> {
        let offset = pc.checked_sub(TEXT_BASE).filter(|o| o.is_multiple_of(INST_BYTES))?;
        let slot = usize::try_from(offset / INST_BYTES).ok()?;
        let end = *self.starts.get(slot.checked_add(1)?)?;
        Some(&self.uops[self.starts[slot]..end])
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Returns `true` for an empty program.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry point (first instruction).
    #[must_use]
    pub fn entry(&self) -> u64 {
        TEXT_BASE
    }
}

/// Assembly error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// A branch referenced a label that was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// An instruction failed validation.
    InvalidInst {
        /// Index of the offending instruction.
        index: usize,
        /// Description from [`Inst::validate`].
        reason: String,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::InvalidInst { index, reason } => {
                write!(f, "invalid instruction at index {index}: {reason}")
            }
        }
    }
}

impl std::error::Error for AsmError {}

/// The assembler builder.
#[derive(Default, Debug)]
pub struct Asm {
    insts: Vec<Inst>,
    labels: BTreeMap<String, usize>,
    fixups: Vec<(usize, String)>,
}

impl Asm {
    /// Creates an empty assembler.
    #[must_use]
    pub fn new() -> Self {
        Asm::default()
    }

    /// Defines a label at the current position.
    ///
    /// # Panics
    ///
    /// Panics on duplicate labels (a programming error in a kernel).
    pub fn label(&mut self, name: &str) {
        let prev = self.labels.insert(name.to_owned(), self.insts.len());
        assert!(prev.is_none(), "duplicate label `{name}`");
    }

    /// Appends an instruction.
    pub fn i(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    fn branch_to(&mut self, op: Op, label: &str) -> &mut Self {
        let mut inst = Inst::new(op);
        inst.target = Some(0); // patched at assemble time
        self.fixups.push((self.insts.len(), label.to_owned()));
        self.insts.push(inst);
        self
    }

    /// `b label`.
    pub fn b(&mut self, label: &str) -> &mut Self {
        self.branch_to(Op::B, label)
    }

    /// `bl label` (writes x30).
    pub fn bl(&mut self, label: &str) -> &mut Self {
        let idx = self.insts.len();
        self.branch_to(Op::Bl, label);
        self.insts[idx].dst = Some(tvp_isa::reg::x(30));
        self
    }

    /// `b.cond label`.
    pub fn b_cond(&mut self, cond: Cond, label: &str) -> &mut Self {
        self.branch_to(Op::BCond(cond), label)
    }

    /// `cbz reg, label`.
    pub fn cbz(&mut self, reg: Reg, label: &str) -> &mut Self {
        let idx = self.insts.len();
        self.branch_to(Op::Cbz, label);
        self.insts[idx].src1 = Some(reg);
        self
    }

    /// `cbnz reg, label`.
    pub fn cbnz(&mut self, reg: Reg, label: &str) -> &mut Self {
        let idx = self.insts.len();
        self.branch_to(Op::Cbnz, label);
        self.insts[idx].src1 = Some(reg);
        self
    }

    /// `tbz reg, #bit, label`.
    pub fn tbz(&mut self, reg: Reg, bit: u8, label: &str) -> &mut Self {
        let idx = self.insts.len();
        self.branch_to(Op::Tbz(bit), label);
        self.insts[idx].src1 = Some(reg);
        self
    }

    /// `tbnz reg, #bit, label`.
    pub fn tbnz(&mut self, reg: Reg, bit: u8, label: &str) -> &mut Self {
        let idx = self.insts.len();
        self.branch_to(Op::Tbnz(bit), label);
        self.insts[idx].src1 = Some(reg);
        self
    }

    /// `ret` (indirect through x30).
    pub fn ret(&mut self) -> &mut Self {
        let mut inst = Inst::new(Op::Ret);
        inst.src1 = Some(tvp_isa::reg::x(30));
        self.insts.push(inst);
        self
    }

    /// `br reg`.
    pub fn br(&mut self, reg: Reg) -> &mut Self {
        let mut inst = Inst::new(Op::Br);
        inst.src1 = Some(reg);
        self.insts.push(inst);
        self
    }

    /// Resolves labels, validates every instruction and expands each
    /// into its µops, which it interns.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] on undefined labels or malformed
    /// instructions.
    pub fn assemble(mut self) -> Result<Program, AsmError> {
        for (idx, label) in &self.fixups {
            let target =
                self.labels.get(label).ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
            self.insts[*idx].target = Some(TEXT_BASE + *target as u64 * INST_BYTES);
        }
        let mut uops = Vec::with_capacity(self.insts.len());
        let mut starts = Vec::with_capacity(self.insts.len() + 1);
        starts.push(0);
        for (index, inst) in self.insts.iter().enumerate() {
            inst.validate().map_err(|reason| AsmError::InvalidInst { index, reason })?;
            uops.extend(expand(inst).into_iter().map(intern));
            starts.push(uops.len());
        }
        Ok(Program { uops, starts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_isa::inst::build::*;
    use tvp_isa::inst::AddrMode;
    use tvp_isa::reg::x;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut a = Asm::new();
        a.label("top");
        a.i(add(x(0), x(0), 1i64));
        a.b("skip");
        a.i(add(x(0), x(0), 100i64));
        a.label("skip");
        a.b("top");
        let p = a.assemble().unwrap();
        // b skip at index 1 → target index 3.
        assert_eq!(p.fetch(TEXT_BASE + 4).unwrap()[0].target, Some(TEXT_BASE + 12));
        // b top at index 3 → target index 0.
        assert_eq!(p.fetch(TEXT_BASE + 12).unwrap()[0].target, Some(TEXT_BASE));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Asm::new();
        a.b("nowhere");
        assert_eq!(a.assemble().unwrap_err(), AsmError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut a = Asm::new();
        a.label("l");
        a.label("l");
    }

    #[test]
    fn fetch_outside_text_is_none() {
        let mut a = Asm::new();
        a.i(nop());
        let p = a.assemble().unwrap();
        assert!(p.fetch(TEXT_BASE).is_some());
        assert!(p.fetch(TEXT_BASE + 4).is_none());
        assert!(p.fetch(0).is_none());
        assert!(p.fetch(TEXT_BASE + 2).is_none(), "misaligned");
    }

    #[test]
    fn each_slot_fetches_its_own_expanded_uops() {
        let mut a = Asm::new();
        let pre = ldr(x(1), AddrMode::PreIndex { base: x(0), disp: 8 });
        let post = str(x(1), AddrMode::PostIndex { base: x(0), disp: -8 });
        a.i(pre);
        a.i(nop());
        a.i(post);
        a.i(add(x(2), x(1), 1i64));
        let p = a.assemble().unwrap();
        assert_eq!(p.len(), 4, "one text slot per instruction, not per µop");
        for (slot, inst) in [pre, nop(), post, add(x(2), x(1), 1i64)].iter().enumerate() {
            let pc = TEXT_BASE + slot as u64 * INST_BYTES;
            let uops: Vec<Inst> = p.fetch(pc).unwrap().iter().map(|&&u| u).collect();
            assert_eq!(uops, expand(inst), "slot {slot}");
        }
        assert_eq!(p.fetch(TEXT_BASE).unwrap().len(), 2, "pre-index: update, then access");
        assert!(p.fetch(TEXT_BASE + 4 * INST_BYTES).is_none(), "past the last slot");
    }

    #[test]
    fn invalid_instruction_reported_with_index() {
        let mut a = Asm::new();
        a.i(nop());
        let mut bad = orr(x(0), x(1), x(2));
        bad.sets_flags = true;
        a.i(bad);
        match a.assemble().unwrap_err() {
            AsmError::InvalidInst { index, .. } => assert_eq!(index, 1),
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn bl_writes_link_register() {
        let mut a = Asm::new();
        a.label("f");
        a.bl("f");
        let p = a.assemble().unwrap();
        assert_eq!(p.fetch(TEXT_BASE).unwrap()[0].dst, Some(x(30)));
    }
}
