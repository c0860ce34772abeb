//! Building the suite assembles 25 small programs and generates no
//! data segment: the segments (27 MB across the suite) are generated
//! per machine, by `Workload::machine`.
//!
//! A counting global allocator sums the bytes requested while the
//! suite is built, sized and restored from a snapshot. A workload that
//! held its data segments would cost megabytes here. This binary holds
//! a single test: the counter is process-wide, and a second test
//! thread would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tvp_isa::flags::Nzcv;
use tvp_isa::reg::{NUM_FP_REGS, NUM_INT_REGS};
use tvp_workloads::machine::SparseMem;
use tvp_workloads::{ArchSnapshot, Workload};

/// Bytes requested from the allocator by the process.
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with a byte counter.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`
// and returns `System`'s result, so `System`'s contract carries over;
// the counter only observes calls. The trait's default `alloc_zeroed`
// goes through `alloc`, so every allocated byte is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes allocated while running `f`.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.load(Ordering::SeqCst);
    let out = f();
    (out, BYTES.load(Ordering::SeqCst) - before)
}

#[test]
fn building_the_suite_generates_no_data_segment() {
    const LIMIT: usize = 1 << 20;
    let (suite, built) = bytes_during(tvp_workloads::suite);
    assert!(built < LIMIT, "suite() allocated {built} bytes; its data segments are 27 MB");

    // Sizing and restoring never generate data either: a restore from
    // a register-only snapshot costs a program copy, not a segment.
    let empty = ArchSnapshot {
        int: [0; NUM_INT_REGS as usize],
        fp: [0; NUM_FP_REGS as usize],
        flags: Nzcv::default(),
        pc: 0,
        mem: SparseMem::default(),
    };
    let (_, sized) = bytes_during(|| suite.iter().map(Workload::code_size).sum::<usize>());
    assert_eq!(sized, 0, "code_size allocated {sized} bytes");
    let (restored, restoring) =
        bytes_during(|| suite.iter().map(|w| w.machine_restored(&empty, 0)).collect::<Vec<_>>());
    assert!(restoring < LIMIT, "machine_restored allocated {restoring} bytes across the suite");
    drop(restored);

    // A machine does generate its workload's segments: sparse_graph's
    // 8 MB image once as the generated segment and once in the
    // machine's pages, with no third copy on the way.
    let sparse_graph = suite.iter().find(|w| w.name == "sparse_graph").expect("sparse_graph");
    let (machine, generated) = bytes_during(|| sparse_graph.machine());
    assert!(generated >= 8 << 20, "sparse_graph's machine allocated only {generated} bytes");
    assert!(generated < 20 << 20, "sparse_graph's machine allocated {generated} bytes");
    drop(machine);
}
