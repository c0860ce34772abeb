//! The functional machine executes from a table decoded at assembly,
//! so stepping allocates nothing per instruction: the only heap traffic
//! left is a sparse-memory page on its first write.
//!
//! A counting global allocator counts allocation calls while every
//! kernel of the suite fast-forwards and then fills into a trace whose
//! capacity was reserved up front. Expanding each instruction into a
//! fresh `Vec` on every step would cost at least one allocation per
//! instruction. This binary holds a single test: the counter is
//! process-wide, and a second test thread would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tvp_workloads::{Trace, TraceSource};

/// Allocation calls made by the process.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with an allocation counter.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`
// and return `System`'s result, so `System`'s contract carries over;
// the counter only observes calls. The trait's default `realloc` and
// `alloc_zeroed` go through `alloc`, so every allocation is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn stepping_allocates_nothing_per_instruction() {
    const SKIP: u64 = 20_000;
    const FILL: u64 = 5_000;
    for w in tvp_workloads::suite() {
        let mut source = w.source();
        let mut trace = Trace { uops: Vec::with_capacity(4 * FILL as usize), arch_insts: 0 };
        let before = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(source.skip(SKIP).expect("skip"), SKIP, "{} halted", w.name);
        let skipped = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(source.fill(FILL, &mut trace).expect("fill"), FILL, "{} halted", w.name);
        let filled = ALLOCS.load(Ordering::SeqCst);
        // New memory pages are the only allocations: far fewer than
        // one per hundred instructions.
        let (skip_allocs, fill_allocs) = (skipped - before, filled - skipped);
        assert!(
            skip_allocs * 100 < SKIP as usize && fill_allocs * 100 < FILL as usize,
            "{}: {skip_allocs} allocations skipping {SKIP} instructions, \
             {fill_allocs} filling {FILL}",
            w.name
        );
    }
}
