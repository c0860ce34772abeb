//! The functional machine: architectural execution and trace emission.
//!
//! Executes a [`Program`] at architectural precision — registers, flags,
//! byte-addressed sparse memory, control flow — running each text
//! slot's µops as the assembler decoded them, and emits a
//! [`Trace`] of micro-ops annotated with actual results. The timing
//! core never re-executes semantics; it replays this trace, which makes
//! the functional model the single source of architectural truth.

use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use tvp_isa::exec::{branch_taken, exec_alu, Operands};
use tvp_isa::flags::Nzcv;
use tvp_isa::inst::{AddrMode, Inst, Src2};
use tvp_isa::op::Op;
use tvp_isa::reg::{Reg, NUM_FP_REGS, NUM_INT_REGS, ZERO_REG_INDEX};

use crate::program::{Program, INST_BYTES};
use crate::trace::{BranchOutcome, Trace, TraceUop};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Bytes per sparse-memory page (the checkpoint format serializes
/// whole pages).
pub const PAGE_BYTES: usize = PAGE_SIZE;

/// Sparse byte-addressed memory. Untouched bytes read as zero.
///
/// Each present page is 4 KiB of a chunk. A page that a store touches
/// first gets a chunk of its own; a data segment handed over by value
/// ([`SparseMem::adopt`]) becomes one chunk that backs, without a copy,
/// every page it covers whole.
///
/// Addresses wrap past `u64::MAX` to 0, as effective-address
/// arithmetic does. An access that fits inside a page costs one hash
/// probe and moves one 8-byte word; one that crosses a boundary is
/// split there.
#[derive(Default, Debug, Clone)]
pub struct SparseMem {
    /// Page index → (chunk, byte offset of the page in the chunk).
    pages: std::collections::HashMap<u64, (usize, usize), BuildHasherDefault<PageHasher>>,
    chunks: Vec<Box<[u8]>>,
}

/// A fixed multiplicative hash of a page index (one multiply by an odd
/// constant), so the page map is the same in every process. Its keys
/// are simulated addresses, and nothing reads the map in its iteration
/// order.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An access of `len` (at most 8) bytes at `addr` that fits inside one
/// page, as a field of the page's 8-byte word that holds it: `(page
/// index, byte offset of the word in the page, bit offset of the access
/// in the word, mask of the access's bits)`. `None` when the access
/// crosses a page boundary.
fn in_page(addr: u64, len: usize) -> Option<(u64, usize, u32, u64)> {
    let offset = addr as usize & (PAGE_SIZE - 1);
    (offset + len <= PAGE_SIZE).then(|| {
        let at = offset.min(PAGE_SIZE - 8);
        (addr >> PAGE_SHIFT, at, 8 * (offset - at) as u32, u64::MAX >> (64 - 8 * len))
    })
}

/// The little-endian word at byte `at` of a page.
fn word(page: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(page[at..at + 8].try_into().expect("a word is 8 bytes"))
}

/// Splits the `len` bytes starting at `addr` at page boundaries,
/// yielding `(page index, offset within the page, byte range of the
/// access)` for each piece in address order.
fn page_spans(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = addr.wrapping_add(done as u64);
            let offset = (at as usize) & (PAGE_SIZE - 1);
            let span = done..done + (len - done).min(PAGE_SIZE - offset);
            done = span.end;
            (at >> PAGE_SHIFT, offset, span)
        })
    })
}

impl SparseMem {
    /// The bytes of page `page`, if it is present.
    fn page(&self, page: u64) -> Option<&[u8]> {
        let &(chunk, at) = self.pages.get(&page)?;
        Some(&self.chunks[chunk][at..at + PAGE_SIZE])
    }

    /// The bytes of page `page`, which gets a zeroed chunk of its own
    /// if it is not yet present.
    fn page_mut(&mut self, page: u64) -> &mut [u8] {
        let SparseMem { pages, chunks } = self;
        let &mut (chunk, at) = pages.entry(page).or_insert_with(|| {
            // audited(no-alloc-in-hot-path): a page's first write, once per page
            chunks.push(vec![0; PAGE_SIZE].into_boxed_slice());
            (chunks.len() - 1, 0)
        });
        &mut chunks[chunk][at..at + PAGE_SIZE]
    }

    /// Reads `size` bytes (1, 2, 4 or 8) little-endian. Never allocates
    /// a page.
    ///
    /// # Panics
    ///
    /// Panics on an unsupported size.
    #[must_use]
    pub fn read(&self, addr: u64, size: u8) -> u64 {
        assert!(matches!(size, 1 | 2 | 4 | 8), "unsupported read size {size}");
        if let Some((page, at, shift, mask)) = in_page(addr, usize::from(size)) {
            return self.page(page).map_or(0, |data| (word(data, at) >> shift) & mask);
        }
        let mut bytes = [0u8; 8];
        for (page, offset, span) in page_spans(addr, usize::from(size)) {
            if let Some(data) = self.page(page) {
                bytes[span.clone()].copy_from_slice(&data[offset..offset + span.len()]);
            }
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes the low `size` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics on an unsupported size.
    pub fn write(&mut self, addr: u64, size: u8, value: u64) {
        assert!(matches!(size, 1 | 2 | 4 | 8), "unsupported write size {size}");
        if let Some((page, at, shift, mask)) = in_page(addr, usize::from(size)) {
            let data = self.page_mut(page);
            let merged = (word(data, at) & !(mask << shift)) | ((value & mask) << shift);
            data[at..at + 8].copy_from_slice(&merged.to_le_bytes());
            return;
        }
        self.write_bytes(addr, &value.to_le_bytes()[..usize::from(size)]);
    }

    /// Copies `bytes` to memory starting at `addr`, one page at a time.
    /// Allocates exactly the pages the bytes land on.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (page, offset, span) in page_spans(addr, bytes.len()) {
            self.page_mut(page)[offset..offset + span.len()].copy_from_slice(&bytes[span]);
        }
    }

    /// Writes `bytes` at `addr` as [`SparseMem::write_bytes`] would,
    /// keeping the buffer as the memory of every page it covers whole:
    /// those pages are not copied. Bytes on a page the buffer covers in
    /// part are copied, and so is the whole buffer when one of the
    /// pages it covers whole is already present or when it wraps past
    /// `u64::MAX`.
    pub fn adopt(&mut self, addr: u64, mut bytes: Vec<u8>) {
        let len = bytes.len();
        // Bytes before the first page boundary at or after `addr`.
        let head = (PAGE_SIZE - (addr as usize & (PAGE_SIZE - 1))) % PAGE_SIZE;
        let whole = len.saturating_sub(head) / PAGE_SIZE;
        let wraps = len > 0 && addr.checked_add(len as u64 - 1).is_none();
        let first = addr.wrapping_add(head as u64) >> PAGE_SHIFT;
        let pages = first..first + whole as u64;
        if whole == 0 || wraps || pages.clone().any(|page| self.pages.contains_key(&page)) {
            self.write_bytes(addr, &bytes);
            return;
        }
        let tail = head + whole * PAGE_SIZE;
        self.write_bytes(addr, &bytes[..head]);
        self.write_bytes(addr.wrapping_add(tail as u64), &bytes[tail..]);
        bytes.truncate(tail);
        let chunk = self.chunks.len();
        self.chunks.push(bytes.into_boxed_slice());
        for (k, page) in pages.enumerate() {
            self.pages.insert(page, (chunk, head + k * PAGE_SIZE));
        }
    }

    /// Content digest (FNV-1a over non-zero bytes). All-zero pages are
    /// skipped and zero bytes within a page contribute nothing, so two
    /// memories with identical *observable* contents digest equally
    /// even when one allocated pages the other never touched.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (page, data) in self.nonzero_pages() {
            h = fnv_mix(h, page);
            for (i, &b) in data.iter().enumerate() {
                if b != 0 {
                    h = fnv_mix(h, ((i as u64) << 8) | u64::from(b));
                }
            }
        }
        h
    }

    /// Iterates pages that hold at least one non-zero byte, in
    /// ascending page-index order. All-zero pages are skipped so the
    /// serialized image matches what [`SparseMem::digest`] observes.
    pub fn nonzero_pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        // audited(no-alloc-in-hot-path): the digest and checkpoint path, never a step
        let mut pages: Vec<u64> = self.pages.keys().copied().collect();
        pages.sort_unstable();
        let images = pages.into_iter().filter_map(|page| Some((page, self.page(page)?)));
        images.filter(|(_, data)| data.iter().any(|&b| b != 0))
    }

    /// Installs a full page image at `page_index` (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics when `bytes` is not exactly one page long.
    pub fn install_page(&mut self, page_index: u64, bytes: &[u8]) {
        assert_eq!(bytes.len(), PAGE_SIZE, "page image must be {PAGE_SIZE} bytes");
        self.page_mut(page_index).copy_from_slice(bytes);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv_mix(h: u64, v: u64) -> u64 {
    let mut h = h;
    for shift in [0u32, 16, 32, 48] {
        h ^= (v >> shift) & 0xFFFF;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The complete architectural state of a [`Machine`]: registers,
/// flags, program counter and memory. The machine executes on one;
/// [`Machine::arch_snapshot`] hands out a copy. The chaos commit oracle
/// replays a clone of the machine taken before the traced run and
/// compares the state its replay reaches against the traced machine's
/// final snapshot.
#[derive(Clone, Debug)]
pub struct ArchSnapshot {
    /// Integer register file (`x0`–`x30`; index 31 is the hardwired
    /// zero register and always reads 0).
    pub int: [u64; NUM_INT_REGS as usize],
    /// Floating-point/SIMD register file (raw bits).
    pub fp: [u64; NUM_FP_REGS as usize],
    /// Condition flags.
    pub flags: Nzcv,
    /// Program counter.
    pub pc: u64,
    /// Sparse data memory.
    pub mem: SparseMem,
}

impl ArchSnapshot {
    /// Digest of the whole architectural state (registers, flags, PC
    /// and memory), suitable for cheap equality checks in tests.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for &r in &self.int {
            h = fnv_mix(h, r);
        }
        for &r in &self.fp {
            h = fnv_mix(h, r);
        }
        h = fnv_mix(h, u64::from(self.flags.pack()));
        h = fnv_mix(h, self.pc);
        fnv_mix(h, self.mem.digest())
    }

    fn reg(&self, r: Reg) -> u64 {
        match r {
            Reg::Int(ZERO_REG_INDEX) => 0,
            Reg::Int(i) => self.int[usize::from(i)],
            Reg::Fp(i) => self.fp[usize::from(i)],
            Reg::Nzcv => u64::from(self.flags.pack()),
        }
    }

    fn set_reg(&mut self, r: Reg, value: u64) {
        match r {
            Reg::Int(ZERO_REG_INDEX) => {}
            Reg::Int(i) => self.int[usize::from(i)] = value,
            Reg::Fp(i) => self.fp[usize::from(i)] = value,
            Reg::Nzcv => self.flags = Nzcv::unpack(value as u8),
        }
    }

    fn src2_value(&self, s: Src2) -> u64 {
        match s {
            Src2::None => 0,
            Src2::Reg(r) => self.reg(r),
            Src2::Imm(i) => i as u64,
        }
    }

    fn effective_addr(&self, addr: AddrMode) -> u64 {
        match addr {
            AddrMode::BaseDisp { base, disp } => self.reg(base).wrapping_add(disp as u64),
            AddrMode::BaseIndex { base, index, shift } => {
                self.reg(base).wrapping_add(self.reg(index) << shift)
            }
            AddrMode::PreIndex { .. } | AddrMode::PostIndex { .. } => {
                // audited(no-panic-in-hot-path): assembly expands writeback addressing away
                unreachable!("writeback addressing is removed by µop expansion")
            }
        }
    }
}

/// The architectural machine: a decoded [`Program`], the live
/// architectural state and the µop sequence position.
#[derive(Debug, Clone)]
pub struct Machine {
    program: Program,
    arch: ArchSnapshot,
    seq: u64,
}

impl Machine {
    /// Creates a machine at the program's entry point with zeroed
    /// registers and memory.
    #[must_use]
    pub fn new(program: Program) -> Self {
        let arch = ArchSnapshot {
            int: [0; NUM_INT_REGS as usize],
            fp: [0; NUM_FP_REGS as usize],
            flags: Nzcv::default(),
            pc: program.entry(),
            mem: SparseMem::default(),
        };
        Machine { program, arch, seq: 0 }
    }

    /// Reads an architectural register (the zero register reads 0).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.arch.reg(r)
    }

    /// Writes an architectural register (writes to the zero register
    /// are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.arch.set_reg(r, value);
    }

    /// Direct memory write for workload initialisation.
    pub fn write_mem(&mut self, addr: u64, size: u8, value: u64) {
        self.arch.mem.write(addr, size, value);
    }

    /// Direct memory read, mostly for tests.
    #[must_use]
    pub fn read_mem(&self, addr: u64, size: u8) -> u64 {
        self.arch.mem.read(addr, size)
    }

    /// Bulk memory initialisation: hands a data segment over to memory
    /// without copying the pages it covers whole ([`SparseMem::adopt`]).
    pub(crate) fn adopt_bytes(&mut self, addr: u64, bytes: Vec<u8>) {
        self.arch.mem.adopt(addr, bytes);
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.arch.pc
    }

    /// Global sequence number of the *next* µop this machine will
    /// execute — the machine's position in the dynamic µop stream.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Reconstructs a machine from an architectural snapshot plus its
    /// µop sequence position — the checkpoint-resume path. The restored
    /// machine continues the dynamic instruction stream exactly where
    /// the snapshotted one left off.
    #[must_use]
    pub fn restore(program: Program, snap: &ArchSnapshot, seq: u64) -> Self {
        Machine { program, arch: snap.clone(), seq }
    }

    /// Snapshots the complete architectural state (registers, flags,
    /// PC, memory).
    #[must_use]
    pub fn arch_snapshot(&self) -> ArchSnapshot {
        self.arch.clone()
    }

    /// Executes one *architectural* instruction, appending its µops to
    /// `out`. Returns `false` when the machine has halted (PC left the
    /// text segment).
    pub fn step_into(&mut self, out: &mut Trace) -> bool {
        let pc = self.arch.pc;
        if !self.step_exec(|uop, fx| out.uops.push(fx.record(pc, uop))) {
            return false;
        }
        out.arch_insts += 1;
        true
    }

    /// Executes one architectural instruction *without* recording it —
    /// the functional fast-forward used between sampled intervals.
    /// Sequence numbers still advance so every µop keeps its global
    /// position in the dynamic instruction stream.
    pub fn step_quiet(&mut self) -> bool {
        self.step_exec(|_, _| ())
    }

    /// Functionally executes up to `max_arch_insts` instructions
    /// without emitting a trace; returns how many actually ran before
    /// the machine halted.
    pub fn fast_forward(&mut self, max_arch_insts: u64) -> u64 {
        let mut done = 0;
        while done < max_arch_insts && self.step_quiet() {
            done += 1;
        }
        done
    }

    /// Executes one architectural instruction — the µops its text slot
    /// decoded to at assembly — handing each µop and what it produced
    /// to `emit`. Returns `false` (without calling `emit`) when the
    /// machine has halted.
    fn step_exec(&mut self, mut emit: impl FnMut(&'static Inst, Effects)) -> bool {
        let Machine { program, arch, seq } = self;
        let pc = arch.pc;
        let Some(uops) = program.fetch(pc) else {
            return false;
        };
        let mut next_pc = pc + INST_BYTES;
        for (k, &uop) in uops.iter().enumerate() {
            let mut fx = Effects { seq: *seq, first_uop: k == 0, ..Effects::default() };
            *seq += 1;
            match uop.op {
                Op::Load { size, signed } => {
                    let addr = arch.effective_addr(uop.addr.expect("load has addressing"));
                    let raw = arch.mem.read(addr, size);
                    let value = if signed && size < 8 {
                        let shift = 64 - u32::from(size) * 8;
                        (((raw << shift) as i64) >> shift) as u64
                    } else {
                        raw
                    };
                    let dst = uop.dst.expect("load has a destination");
                    arch.set_reg(dst, value);
                    fx.mem_addr = Some(addr);
                    fx.result = Some(value);
                }
                Op::Store { size } => {
                    let addr = arch.effective_addr(uop.addr.expect("store has addressing"));
                    let data = arch.reg(uop.src1.expect("store has a data register"));
                    arch.mem.write(addr, size, data);
                    fx.mem_addr = Some(addr);
                }
                op if op.is_branch() => {
                    let src = uop.src1.map_or(0, |r| arch.reg(r));
                    let taken = branch_taken(op, uop.width, src, arch.flags);
                    let target = match op {
                        Op::Br | Op::Blr | Op::Ret => src,
                        _ => uop.target.expect("direct branch has a target"),
                    };
                    if matches!(op, Op::Bl | Op::Blr) {
                        let link = pc + INST_BYTES;
                        arch.set_reg(Reg::Int(30), link);
                        fx.result = Some(link);
                    }
                    if taken {
                        next_pc = target;
                    }
                    fx.branch = Some(BranchOutcome {
                        taken,
                        target: if taken { target } else { pc + INST_BYTES },
                    });
                }
                op => {
                    let ops = Operands {
                        a: uop.src1.map_or(0, |r| arch.reg(r)),
                        b: arch.src2_value(uop.src2),
                        c: uop.src3.map_or(0, |r| arch.reg(r)),
                        flags: arch.flags,
                    };
                    let r = exec_alu(op, uop.width, uop.sets_flags, ops);
                    if let Some(dst) = uop.dst {
                        arch.set_reg(dst, r.value);
                        fx.result = Some(r.value);
                    }
                    if let Some(f) = r.flags {
                        arch.flags = f;
                        fx.flags_out = Some(f);
                    }
                }
            }
            emit(uop, fx);
        }
        arch.pc = next_pc;
        true
    }

    /// Runs up to `max_arch_insts` architectural instructions (or until
    /// the machine halts) and returns the trace, whose records are
    /// reserved once from the budget.
    pub fn run(&mut self, max_arch_insts: u64) -> Trace {
        let mut trace = Trace::default();
        self.run_into(max_arch_insts, &mut trace);
        trace
    }

    /// Runs up to `max_arch_insts` architectural instructions (or until
    /// the machine halts), appending their µops to `out`, and returns
    /// how many ran.
    ///
    /// `out` first reserves one record per instruction: every
    /// instruction yields at least one µop, so a trace of one µop per
    /// instruction never reallocates and one that expands (to at most
    /// two µops an instruction) reallocates once. A reservation the allocator refuses (a budget of
    /// `u64::MAX`, say) leaves `out` to grow as it fills.
    pub(crate) fn run_into(&mut self, max_arch_insts: u64, out: &mut Trace) -> u64 {
        let budget = usize::try_from(max_arch_insts).unwrap_or(usize::MAX);
        // A refused reservation is not an error: the trace grows instead.
        let _ = out.uops.try_reserve(budget);
        let mut done = 0;
        while done < max_arch_insts && self.step_into(out) {
            done += 1;
        }
        done
    }
}

/// What executing one µop produced: every field of its [`TraceUop`]
/// beyond the µop itself and its instruction's PC.
#[derive(Default)]
struct Effects {
    seq: u64,
    first_uop: bool,
    result: Option<u64>,
    flags_out: Option<Nzcv>,
    mem_addr: Option<u64>,
    branch: Option<BranchOutcome>,
}

impl Effects {
    /// The trace record of `uop`, executed at `pc`.
    fn record(self, pc: u64, uop: &'static Inst) -> TraceUop {
        let Effects { seq, first_uop, result, flags_out, mem_addr, branch } = self;
        TraceUop { seq, pc, uop, first_uop, result, flags_out, mem_addr, branch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Asm;
    use tvp_isa::flags::Cond;
    use tvp_isa::inst::build::*;
    use tvp_isa::reg::x;

    #[test]
    fn counted_loop_executes_correctly() {
        let mut a = Asm::new();
        a.i(movz(x(0), 10)); // counter
        a.i(movz(x(1), 0)); // sum
        a.label("loop");
        a.i(add(x(1), x(1), x(0)));
        a.i(subs(x(0), x(0), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let mut m = Machine::new(a.assemble().unwrap());
        let t = m.run(1_000);
        assert_eq!(m.reg(x(1)), 55, "sum 10..1");
        assert_eq!(m.reg(x(0)), 0);
        // 2 setup + 10 × 3 loop insts.
        assert_eq!(t.arch_insts, 32);
        assert!(t.uops.len() as u64 >= t.arch_insts);
    }

    #[test]
    fn machine_halts_at_text_end() {
        let mut a = Asm::new();
        a.i(movz(x(0), 7));
        let mut m = Machine::new(a.assemble().unwrap());
        let t = m.run(100);
        assert_eq!(t.arch_insts, 1, "runs off the end and halts");
    }

    #[test]
    fn memory_roundtrip_with_sizes() {
        let mut a = Asm::new();
        a.i(movz(x(0), 0x2000));
        a.i(movz(x(1), 0x1234));
        a.i(str_sized(x(1), AddrMode::BaseDisp { base: x(0), disp: 0 }, 2));
        a.i(ldr_sized(x(2), AddrMode::BaseDisp { base: x(0), disp: 0 }, 2, false));
        a.i(ldr_sized(x(3), AddrMode::BaseDisp { base: x(0), disp: 1 }, 1, false));
        let mut m = Machine::new(a.assemble().unwrap());
        let _ = m.run(100);
        assert_eq!(m.reg(x(2)), 0x1234);
        assert_eq!(m.reg(x(3)), 0x12, "little-endian high byte");
    }

    #[test]
    fn signed_loads_sign_extend() {
        let mut a = Asm::new();
        a.i(movz(x(0), 0x3000));
        a.i(movz(x(1), 0x80));
        a.i(str_sized(x(1), AddrMode::BaseDisp { base: x(0), disp: 0 }, 1));
        a.i(ldr_sized(x(2), AddrMode::BaseDisp { base: x(0), disp: 0 }, 1, true));
        let mut m = Machine::new(a.assemble().unwrap());
        let _ = m.run(100);
        assert_eq!(m.reg(x(2)), (-128i64) as u64);
    }

    #[test]
    fn post_index_walks_an_array() {
        let mut a = Asm::new();
        a.i(movz(x(0), 0x4000)); // pointer
        a.i(movz(x(1), 0)); // sum
        a.i(movz(x(2), 4)); // count
        a.label("loop");
        a.i(ldr(x(3), AddrMode::PostIndex { base: x(0), disp: 8 }));
        a.i(add(x(1), x(1), x(3)));
        a.i(subs(x(2), x(2), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let mut m = Machine::new(a.assemble().unwrap());
        for i in 0..4u64 {
            m.write_mem(0x4000 + i * 8, 8, 10 + i);
        }
        let t = m.run(1_000);
        assert_eq!(m.reg(x(1)), 10 + 11 + 12 + 13);
        assert_eq!(m.reg(x(0)), 0x4000 + 32, "post-index writeback");
        assert!(t.expansion_ratio() > 1.0, "ldr post-index expands to 2 µops");
    }

    #[test]
    fn call_and_return() {
        let mut a = Asm::new();
        a.i(movz(x(0), 1));
        a.bl("callee");
        a.i(add(x(0), x(0), 100i64));
        a.b("end");
        a.label("callee");
        a.i(add(x(0), x(0), 10i64));
        a.ret();
        a.label("end");
        a.i(nop());
        let mut m = Machine::new(a.assemble().unwrap());
        let _ = m.run(100);
        assert_eq!(m.reg(x(0)), 111, "call, body, return, continue");
    }

    #[test]
    fn flags_and_csel() {
        let mut a = Asm::new();
        a.i(movz(x(0), 5));
        a.i(movz(x(1), 9));
        a.i(cmp(x(0), x(1)));
        a.i(csel(x(2), x(0), x(1), Cond::Lt)); // 5 < 9 → x0
        a.i(cset(x(3), Cond::Lt)); // → 1
        let mut m = Machine::new(a.assemble().unwrap());
        let _ = m.run(100);
        assert_eq!(m.reg(x(2)), 5);
        assert_eq!(m.reg(x(3)), 1);
    }

    #[test]
    fn trace_records_branch_outcomes() {
        let mut a = Asm::new();
        a.i(movz(x(0), 2));
        a.label("loop");
        a.i(subs(x(0), x(0), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let mut m = Machine::new(a.assemble().unwrap());
        let t = m.run(100);
        let branches: Vec<_> = t.uops.iter().filter_map(|u| u.branch).collect();
        assert_eq!(branches.len(), 2);
        assert!(branches[0].taken);
        assert!(!branches[1].taken);
    }

    #[test]
    fn zero_register_reads_zero_and_discards_writes() {
        let mut a = Asm::new();
        a.i(movz(x(5), 42));
        a.i(add(tvp_isa::reg::XZR, x(5), x(5)));
        a.i(add(x(6), tvp_isa::reg::XZR, 0i64));
        let mut m = Machine::new(a.assemble().unwrap());
        let t = m.run(100);
        assert_eq!(m.reg(x(6)), 0);
        // The discarded write is still recorded in the trace.
        assert_eq!(t.uops[1].result, Some(84));
    }

    #[test]
    fn memory_digest_normalizes_untouched_zero_pages() {
        let mut a = SparseMem::default();
        let mut b = SparseMem::default();
        a.write(0x1000, 8, 0xABCD);
        b.write(0x1000, 8, 0xABCD);
        // `a` additionally touches a page with a value that is later
        // overwritten back to zero; observable contents stay equal.
        a.write(0x9000, 8, 7);
        a.write(0x9000, 8, 0);
        assert_eq!(a.digest(), b.digest());
        b.write(0x1000, 1, 0xFF);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn arch_snapshot_round_trips_machine_state() {
        let mut a = Asm::new();
        a.i(movz(x(3), 99));
        let mut m = Machine::new(a.assemble().unwrap());
        m.write_mem(0x5000, 8, 0x1234);
        let before = m.arch_snapshot();
        let _ = m.run(10);
        let after = m.arch_snapshot();
        assert_ne!(before.digest(), after.digest(), "run changed x3 and pc");
        assert_eq!(after.int[3], 99);
        assert_eq!(after.mem.read(0x5000, 8), 0x1234);
        assert_eq!(after.digest(), m.arch_snapshot().digest(), "snapshot is stable");
    }

    #[test]
    fn fast_forward_is_equivalent_to_traced_execution() {
        let mut a = Asm::new();
        a.i(movz(x(0), 50));
        a.i(movz(x(1), 0));
        a.label("loop");
        a.i(add(x(1), x(1), x(0)));
        a.i(subs(x(0), x(0), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let prog = a.assemble().unwrap();
        let mut traced = Machine::new(prog.clone());
        let mut quiet = Machine::new(prog);
        let _ = traced.run(40);
        assert_eq!(quiet.fast_forward(40), 40);
        assert_eq!(quiet.seq(), traced.seq(), "seq advances identically");
        assert_eq!(
            quiet.arch_snapshot().digest(),
            traced.arch_snapshot().digest(),
            "architectural state identical"
        );
        // Both machines now emit the same continuation trace.
        let t1 = traced.run(20);
        let t2 = quiet.run(20);
        assert_eq!(t1.uops.len(), t2.uops.len());
        for (u1, u2) in t1.uops.iter().zip(&t2.uops) {
            assert_eq!(u1.seq, u2.seq);
            assert_eq!(u1.result, u2.result);
        }
    }

    #[test]
    fn restore_resumes_the_identical_stream() {
        let mut a = Asm::new();
        a.i(movz(x(0), 30));
        a.i(movz(x(2), 0x6000));
        a.label("loop");
        a.i(str_sized(x(0), AddrMode::BaseDisp { base: x(2), disp: 0 }, 8));
        a.i(ldr(x(3), AddrMode::BaseDisp { base: x(2), disp: 0 }));
        a.i(subs(x(0), x(0), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let prog = a.assemble().unwrap();
        let mut original = Machine::new(prog.clone());
        assert_eq!(original.fast_forward(25), 25);
        let snap = original.arch_snapshot();
        let seq = original.seq();
        let mut resumed = Machine::restore(prog, &snap, seq);
        let t1 = original.run(40);
        let t2 = resumed.run(40);
        assert_eq!(t1.arch_insts, t2.arch_insts);
        for (u1, u2) in t1.uops.iter().zip(&t2.uops) {
            assert_eq!(
                (u1.seq, u1.pc, u1.result, u1.mem_addr),
                (u2.seq, u2.pc, u2.result, u2.mem_addr)
            );
        }
    }

    #[test]
    fn nonzero_pages_roundtrip_through_install() {
        let mut m = SparseMem::default();
        m.write(0x1008, 8, 0xDEAD_BEEF);
        m.write(0x9000, 8, 7);
        m.write(0x9000, 8, 0); // all-zero page: skipped
        let mut restored = SparseMem::default();
        let mut pages = 0;
        for (page, bytes) in m.nonzero_pages() {
            restored.install_page(page, bytes);
            pages += 1;
        }
        assert_eq!(pages, 1);
        assert_eq!(restored.digest(), m.digest());
        assert_eq!(restored.read(0x1008, 8), 0xDEAD_BEEF);
    }

    #[test]
    fn adopting_a_segment_keeps_its_buffer_as_the_pages() {
        let mut bytes = vec![0u8; 3 * PAGE_SIZE + 100];
        bytes[5] = 1;
        bytes[3 * PAGE_SIZE + 99] = 2;
        let buffer = bytes.as_ptr();
        let mut m = SparseMem::default();
        m.write(0x10_0000 + 3 * PAGE_SIZE as u64 + 200, 1, 3); // the tail page exists
        m.adopt(0x10_0000, bytes);
        assert_eq!(m.chunks.len(), 2, "one chunk for the present page, one adopted");
        assert_eq!(m.chunks[1].as_ptr(), buffer, "the three whole pages are not copied");
        assert_eq!(m.read(0x10_0005, 1), 1);
        assert_eq!(m.read(0x10_0000 + 3 * PAGE_SIZE as u64 + 99, 1), 2, "the tail is copied");
        assert_eq!(m.read(0x10_0000 + 3 * PAGE_SIZE as u64 + 200, 1), 3);

        // A segment over a page that is already present is copied.
        m.adopt(0x10_0000 + 2 * PAGE_SIZE as u64, vec![7; 3 * PAGE_SIZE]);
        assert_eq!(m.chunks.len(), 3, "the fifth page is new; the rest are copied into");
        assert_eq!(m.read(0x10_0000 + 4 * PAGE_SIZE as u64 + 8, 1), 7);
    }

    #[test]
    fn sparse_memory_defaults_to_zero() {
        let m = SparseMem::default();
        assert_eq!(m.read(0xDEAD_BEEF, 8), 0);
        let mut m = SparseMem::default();
        m.write(0xFFF, 8, 0x1122_3344_5566_7788);
        // Crosses a page boundary.
        assert_eq!(m.read(0xFFF, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read(0x1000, 1), 0x77);
    }

    #[test]
    fn addresses_wrap_past_the_top_of_the_address_space() {
        let mut m = SparseMem::default();
        m.write(0, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(u64::MAX - 3, 8), 0x5566_7788_0000_0000);
        m.write(u64::MAX - 1, 4, 0xAABB_CCDD);
        assert_eq!(m.read(u64::MAX - 1, 2), 0xCCDD);
        assert_eq!(m.read(0, 8), 0x1122_3344_5566_AABB);
        assert_eq!(
            m.nonzero_pages().map(|(page, _)| page).collect::<Vec<_>>(),
            [0, u64::MAX >> 12]
        );

        let mut a = Asm::new();
        a.i(nop());
        let mut machine = Machine::new(a.assemble().unwrap());
        machine.adopt_bytes(u64::MAX, vec![0x11, 0x22]);
        assert_eq!(machine.read_mem(u64::MAX, 2), 0x2211);
        assert_eq!(machine.read_mem(0, 1), 0x22);
    }
}
