//! Property-based tests of the functional machine and sparse memory.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tvp_isa::flags::Cond;
use tvp_isa::inst::build::*;
use tvp_isa::inst::AddrMode;
use tvp_isa::reg::x;
use tvp_workloads::machine::{SparseMem, PAGE_BYTES};
use tvp_workloads::program::Asm;
use tvp_workloads::{Machine, MachineSource, Trace, TraceSource};

/// Skips `skip` instructions of `quiet` and fills the next `fill`, then
/// checks them against the last `fill` instructions of `traced` filled
/// `skip + fill` from the same start: every record equal in all eight
/// fields, and the same `seq`, registers, flags, PC and memory
/// afterwards.
/// Returns the compared window.
fn assert_skip_then_fill_matches(
    name: &str,
    mut quiet: MachineSource,
    mut traced: MachineSource,
    skip: u64,
    fill: u64,
) -> Trace {
    let mut full = Trace::default();
    assert_eq!(traced.fill(skip + fill, &mut full).expect("fill"), skip + fill, "{name} halted");
    assert_eq!(quiet.skip(skip).expect("skip"), skip, "{name} halted while skipping");
    let mut window = Trace::default();
    assert_eq!(quiet.fill(fill, &mut window).expect("fill"), fill, "{name} halted");
    let tail = &full.uops[full.uops.len() - window.uops.len()..];
    for (got, want) in window.uops.iter().zip(tail) {
        // `TraceUop`'s equality compares seq, pc, uop, first_uop,
        // result, flags_out, mem_addr and branch.
        assert_eq!(got, want, "{name}: skipped-then-filled record differs from the traced one");
    }
    assert!(window.uops[0].first_uop, "{name}: the window starts on an instruction boundary");
    let (q, t) = (quiet.machine().arch_snapshot(), traced.machine().arch_snapshot());
    assert_eq!(quiet.machine().seq(), traced.machine().seq(), "{name}: seq");
    // Everything `ArchSnapshot::digest` hashes, compared directly: as
    // strong, and much faster than hashing the data segments byte by
    // byte in a debug build.
    assert_eq!((q.int, q.fp, q.flags, q.pc), (t.int, t.fp, t.flags, t.pc), "{name}: registers");
    assert!(q.mem.nonzero_pages().eq(t.mem.nonzero_pages()), "{name}: memory differs");
    window
}

/// Skip and fill are one semantics on every kernel of the suite.
#[test]
fn skip_then_fill_equals_fill_on_every_kernel() {
    let mut split_insts = 0;
    for w in tvp_workloads::suite() {
        let window = assert_skip_then_fill_matches(w.name, w.source(), w.source(), 3_000, 1_000);
        let extra_uops = window.uops.iter().filter(|u| !u.first_uop).count();
        if w.name == "pixel_encode" {
            assert!(extra_uops > 0, "pixel_encode expands some instructions into two µops");
        }
        split_insts += extra_uops;
    }
    assert!(split_insts > 0, "the suite exercises multi-µop text slots");
}

/// Pre-index and post-index instructions (two µops each) between
/// single-µop ones: the suite uses only post-index addressing.
#[test]
fn skip_then_fill_equals_fill_across_writeback_addressing() {
    let mut asm = Asm::new();
    asm.i(movz(x(0), 0x8000));
    asm.i(movz(x(3), 400));
    asm.label("loop");
    asm.i(ldr(x(1), AddrMode::PreIndex { base: x(0), disp: 8 }));
    asm.i(add(x(1), x(1), x(3)));
    asm.i(str(x(1), AddrMode::PostIndex { base: x(0), disp: 16 }));
    asm.i(subs(x(3), x(3), 1i64));
    asm.b_cond(Cond::Ne, "loop");
    let program = asm.assemble().expect("assembles");
    let source = || MachineSource::new(Machine::new(program.clone()));
    let window = assert_skip_then_fill_matches("writeback", source(), source(), 1_001, 500);
    let pairs: Vec<_> = window.uops.windows(2).filter(|p| !p[1].first_uop).collect();
    assert!(pairs.iter().any(|p| p[0].uop.op == tvp_isa::op::Op::Add), "pre-index: update first");
    assert!(pairs.iter().any(|p| p[0].uop.op.is_store()), "post-index: access first");
}

/// One operation that changes sparse memory.
enum MemOp {
    Write { addr: u64, size: u8, value: u64 },
    WriteBytes { addr: u64, bytes: Vec<u8> },
    Adopt { addr: u64, bytes: Vec<u8> },
    Install { page: u64, bytes: Vec<u8> },
}

/// Addresses within 16 bytes of a page boundary. The boundary at 0
/// puts half of its addresses just below `u64::MAX`, so accesses there
/// wrap to the bottom of the address space.
fn boundary_addr() -> impl Strategy<Value = u64> {
    (0u64..6, -16i64..16)
        .prop_map(|(page, delta)| (page * PAGE_BYTES as u64).wrapping_add(delta as u64))
}

/// Addresses in the lowest six pages or the highest six, 8-byte
/// aligned or not, half of them within 16 bytes of a page boundary.
fn access_addr() -> impl Strategy<Value = u64> {
    let span = 6 * PAGE_BYTES as u64;
    prop_oneof![
        boundary_addr(),
        (0..span, any::<bool>(), any::<bool>()).prop_map(|(at, top, aligned)| {
            let addr = if top { u64::MAX - at } else { at };
            if aligned {
                addr & !7
            } else {
                addr
            }
        }),
    ]
}

fn access_size() -> impl Strategy<Value = u8> {
    (0u8..4).prop_map(|log2| 1 << log2)
}

/// Records `bytes` written at `addr` in the byte-map model.
fn model_write(model: &mut BTreeMap<u64, u8>, addr: u64, bytes: &[u8]) {
    for (i, &b) in bytes.iter().enumerate() {
        model.insert(addr.wrapping_add(i as u64), b);
    }
}

/// The `size`-byte little-endian value at `addr` in the byte-map model.
fn model_read(model: &BTreeMap<u64, u8>, addr: u64, size: u8) -> u64 {
    (0..u64::from(size)).fold(0, |v, i| {
        v | u64::from(model.get(&addr.wrapping_add(i)).copied().unwrap_or(0)) << (8 * i)
    })
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    let top_page = u64::MAX >> PAGE_BYTES.trailing_zeros();
    prop_oneof![
        (access_addr(), access_size(), any::<u64>()).prop_map(|(addr, size, value)| MemOp::Write {
            addr,
            size,
            value
        }),
        (boundary_addr(), proptest::collection::vec(any::<u8>(), 0..=3 * PAGE_BYTES))
            .prop_map(|(addr, bytes)| MemOp::WriteBytes { addr, bytes }),
        (access_addr(), 0usize..=7 * PAGE_BYTES / 2, any::<u64>())
            .prop_map(|(addr, len, seed)| MemOp::Adopt { addr, bytes: segment_bytes(seed, len) }),
        (0u64..12, any::<u64>()).prop_map(move |(k, seed)| MemOp::Install {
            page: if k < 6 { k } else { top_page - (k - 6) },
            bytes: segment_bytes(seed, PAGE_BYTES),
        }),
    ]
}

/// `len` bytes drawn from `seed`, about a third of them zero.
fn segment_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = TestRng::new(seed);
    (0..len)
        .map(|_| match rng.next_u64() {
            r if r % 3 == 0 => 0,
            r => (r >> 8) as u8,
        })
        .collect()
}

/// A data segment in the first eight pages, page-aligned or not, of up
/// to three and a half pages: segments overlap and end mid-page.
fn segment() -> impl Strategy<Value = (u64, Vec<u8>)> {
    let page = PAGE_BYTES as u64;
    (0u64..8, any::<bool>(), 0u64..page, 0usize..=7 * PAGE_BYTES / 2, any::<u64>()).prop_map(
        move |(at, aligned, offset, len, seed)| {
            let base = at * page + if aligned { 0 } else { offset };
            (base, segment_bytes(seed, len))
        },
    )
}

/// Asserts that two memories hold the same page images and digest,
/// and read the same at every probe.
fn assert_same_memory(adopted: &SparseMem, copied: &SparseMem, probes: &[(u64, u8)]) {
    assert!(adopted.nonzero_pages().eq(copied.nonzero_pages()), "page images differ");
    assert_eq!(adopted.digest(), copied.digest());
    for &(addr, size) in probes {
        assert_eq!(adopted.read(addr, size), copied.read(addr, size), "read({addr:#x}, {size})");
    }
}

proptest! {
    #[test]
    fn adopting_segments_equals_copying_them(
        low in proptest::collection::vec(segment(), 1..8),
        top in (1usize..3 * PAGE_BYTES, any::<u64>()),
        wrap in (1u64..PAGE_BYTES as u64, 1usize..2 * PAGE_BYTES, any::<u64>()),
        probes in proptest::collection::vec((any::<u64>(), access_size()), 200..201),
        writes in proptest::collection::vec((boundary_addr(), access_size(), any::<u64>()), 0..60),
    ) {
        // The low segments, one ending at u64::MAX, and one starting
        // below it that may wrap to the bottom of the address space
        // over pages the low segments hold.
        let mut segments = low;
        segments.push((0u64.wrapping_sub(top.0 as u64), segment_bytes(top.1, top.0)));
        segments.push((0u64.wrapping_sub(wrap.0), segment_bytes(wrap.2, wrap.1)));
        let (mut adopted, mut copied) = (SparseMem::default(), SparseMem::default());
        for (base, bytes) in segments {
            copied.write_bytes(base, &bytes);
            adopted.adopt(base, bytes);
        }
        // Probes near the bottom of the address space and near its top.
        let span = 12 * PAGE_BYTES as u64;
        let probes: Vec<(u64, u8)> = probes
            .into_iter()
            .map(|(r, size)| {
                let at = (r >> 1) % span;
                (if r & 1 == 0 { at } else { 0u64.wrapping_sub(at) }, size)
            })
            .collect();
        assert_same_memory(&adopted, &copied, &probes);
        for (addr, size, value) in writes {
            adopted.write(addr, size, value);
            copied.write(addr, size, value);
        }
        assert_same_memory(&adopted, &copied, &probes);
    }

    #[test]
    fn sparse_memory_read_after_write(
        writes in proptest::collection::vec((0u64..0x10_0000, 0u8..4, any::<u64>()), 1..50),
    ) {
        let mut mem = SparseMem::default();
        let mut reference = std::collections::HashMap::new();
        for (addr, size_sel, value) in writes {
            let size = [1u8, 2, 4, 8][size_sel as usize];
            mem.write(addr, size, value);
            for i in 0..u64::from(size) {
                reference.insert(addr + i, (value >> (8 * i)) as u8);
            }
        }
        for (&addr, &byte) in &reference {
            prop_assert_eq!(mem.read(addr, 1) as u8, byte);
        }
    }

    #[test]
    fn sparse_memory_matches_a_byte_map_model(
        ops in proptest::collection::vec((mem_op(), access_addr(), access_size()), 1..40),
    ) {
        let mut mem = SparseMem::default();
        let mut model = BTreeMap::<u64, u8>::new();
        for (op, probe, probe_size) in ops {
            let at = match op {
                MemOp::Write { addr, size, value } => {
                    mem.write(addr, size, value);
                    model_write(&mut model, addr, &value.to_le_bytes()[..usize::from(size)]);
                    addr
                }
                MemOp::WriteBytes { addr, bytes } => {
                    mem.write_bytes(addr, &bytes);
                    model_write(&mut model, addr, &bytes);
                    addr
                }
                MemOp::Adopt { addr, bytes } => {
                    model_write(&mut model, addr, &bytes);
                    mem.adopt(addr, bytes);
                    addr
                }
                MemOp::Install { page, bytes } => {
                    let addr = page * PAGE_BYTES as u64;
                    mem.install_page(page, &bytes);
                    model_write(&mut model, addr, &bytes);
                    addr
                }
            };
            // The word the operation starts at, and a probe anywhere.
            for (addr, size) in [(at, 8), (probe, probe_size)] {
                let want = model_read(&model, addr, size);
                prop_assert_eq!(mem.read(addr, size), want, "read({:#x}, {})", addr, size);
            }
        }
        // The model's pages that hold a non-zero byte, in ascending order.
        let mut pages = BTreeMap::<u64, Vec<u8>>::new();
        for (&addr, &b) in model.iter().filter(|&(_, &b)| b != 0) {
            let page = pages.entry(addr / PAGE_BYTES as u64).or_insert_with(|| vec![0; PAGE_BYTES]);
            page[addr as usize % PAGE_BYTES] = b;
        }
        let want: Vec<(u64, Vec<u8>)> = pages.into_iter().collect();
        let got: Vec<(u64, Vec<u8>)> = mem.nonzero_pages().map(|(p, b)| (p, b.to_vec())).collect();
        let indices = |pages: &[(u64, Vec<u8>)]| pages.iter().map(|&(p, _)| p).collect::<Vec<_>>();
        prop_assert!(got == want, "pages {:x?}, want {:x?}", indices(&got), indices(&want));
        let mut reference = SparseMem::default();
        for (page, bytes) in &want {
            reference.install_page(*page, bytes);
        }
        prop_assert_eq!(mem.digest(), reference.digest());
    }

    #[test]
    fn machine_alu_matches_native_arithmetic(a: u32, b: u32) {
        // A tiny program computing (a + b) * 2 - a, checked against
        // native arithmetic.
        let mut asm = Asm::new();
        asm.i(add(x(2), x(0), x(1)));
        asm.i(add(x(2), x(2), x(2)));
        asm.i(sub(x(2), x(2), x(0)));
        let mut m = Machine::new(asm.assemble().unwrap());
        m.set_reg(x(0), u64::from(a));
        m.set_reg(x(1), u64::from(b));
        let _ = m.run(10);
        let expected = (u64::from(a) + u64::from(b)) * 2 - u64::from(a);
        prop_assert_eq!(m.reg(x(2)), expected);
    }

    #[test]
    fn store_load_roundtrip_through_machine(value: u64, disp in 0i64..512) {
        let mut asm = Asm::new();
        asm.i(str(x(0), AddrMode::BaseDisp { base: x(20), disp }));
        asm.i(ldr(x(1), AddrMode::BaseDisp { base: x(20), disp }));
        let mut m = Machine::new(asm.assemble().unwrap());
        m.set_reg(x(0), value);
        m.set_reg(x(20), 0x9000);
        let trace = m.run(10);
        prop_assert_eq!(m.reg(x(1)), value);
        // The trace records both effective addresses identically.
        prop_assert_eq!(trace.uops[0].mem_addr, trace.uops[1].mem_addr);
        prop_assert_eq!(trace.uops[1].result, Some(value));
    }

    #[test]
    fn loop_trip_counts_are_exact(n in 1i64..200) {
        let mut asm = Asm::new();
        asm.i(movz(x(0), n));
        asm.label("loop");
        asm.i(add(x(1), x(1), 1i64));
        asm.i(subs(x(0), x(0), 1i64));
        asm.b_cond(tvp_isa::flags::Cond::Ne, "loop");
        let mut m = Machine::new(asm.assemble().unwrap());
        let trace = m.run(100_000);
        prop_assert_eq!(m.reg(x(1)), n as u64);
        prop_assert_eq!(trace.arch_insts, 1 + 3 * n as u64);
        // Exactly one not-taken branch (the exit).
        let not_taken = trace
            .uops
            .iter()
            .filter(|u| u.branch.is_some_and(|b| !b.taken))
            .count();
        prop_assert_eq!(not_taken, 1);
    }
}
