//! A core allocates its tables when it is built and almost nothing
//! while it runs.
//!
//! A counting global allocator counts allocation calls. Building a
//! TVP+SpSR core of the Table 2 machine must take a few dozen of them:
//! every cache, TLB and BTB keeps its sets in one array, not one `Vec`
//! per set. Running branch-heavy kernels allocates only while queues and
//! consumer lists grow to their working size, well under one call per
//! 100 retired µops: the ROB, the fetch queue and the predictors'
//! in-flight records are allocated at their Table 2 bounds when the core
//! is built, the checkpoint each fetched branch takes holds its history
//! positions and return-address stack inline, and the wakeup wheel links
//! its events through per-register arrays. Once grown,
//! nothing allocates: a longer second segment on the same core makes no
//! call at all. This binary holds a single test: the counter is
//! process-wide, and a second test thread would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tvp_core::config::{CoreConfig, VpMode};
use tvp_core::Core;

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

/// Allocation calls made while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCS.load(Ordering::SeqCst) - before)
}

#[test]
fn a_core_allocates_when_built_not_per_uop() {
    const INSTS: u64 = 30_000;
    const NEW_LIMIT: usize = 80;
    let cfg = CoreConfig::with_vp(VpMode::Tvp).with_spsr();
    let (core, built) = allocs_during(|| Core::new(cfg.clone()));
    assert!(built <= NEW_LIMIT, "Core::new made {built} allocations (limit {NEW_LIMIT})");
    drop(core);

    for name in ["minimax", "expr_tree", "mc_playout"] {
        let mut machine = tvp_workloads::suite::by_name(name).expect("suite kernel").machine();
        let (first, second) = (machine.run(INSTS), machine.run(4 * INSTS));
        let mut core = Core::new(cfg.clone());
        let (stats, ran) = allocs_during(|| core.run(&first));
        assert!(stats.flush.branch_mispredicts > 0, "{name}: no branch was mispredicted");
        assert!(
            ran * 100 < stats.uops_retired as usize,
            "{name}: {ran} allocations over {} retired µops (limit: one per 100)",
            stats.uops_retired
        );
        let (_, ran) = allocs_during(|| core.run_segment(&second));
        assert_eq!(ran, 0, "{name}: a warm core allocated over {} µops", second.uops.len());
    }
}
