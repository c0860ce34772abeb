//! Sampled simulation streams its trace, so its memory must not grow
//! with the stream's length.
//!
//! A counting global allocator tracks the process's live heap bytes.
//! A sampled run over a `stream_triad` stream 10× longer than a first
//! one may peak at no more than 1.5× the first run's heap. The kernel
//! walks fixed arrays, so its architectural footprint does not grow
//! with the stream; only a source or sampler that buffered the stream
//! would. This binary holds a single test: the counters are
//! process-wide, and a second test thread would pollute them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tvp_bench::sampling::{run_sampled, SampleRunOptions, SampleSpec};
use tvp_core::config::CoreConfig;

/// Live heap bytes of the process.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest value `LIVE` reached since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with live/peak byte accounting.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`
// and return `System`'s result, so `System`'s contract carries over;
// the counters only observe sizes. The trait's default `realloc` and
// `alloc_zeroed` go through these two, so every byte is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak heap bytes `run_sampled` holds above what was live before it,
/// for a `stream_triad` stream of `insts` instructions.
fn peak_heap(insts: u64, spec: SampleSpec) -> usize {
    let workload = tvp_workloads::suite::by_name("stream_triad").expect("suite workload");
    let cfg = CoreConfig::default();
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let run = run_sampled(&workload, &cfg, insts, spec, SampleRunOptions::default())
        .expect("no pipeline deadlock");
    assert!(!run.halted, "stream_triad must not halt within {insts} instructions");
    assert_eq!(run.total_insts, insts);
    drop(run);
    PEAK.load(Ordering::SeqCst) - before
}

#[test]
fn peak_heap_is_flat_in_stream_length() {
    let spec = SampleSpec::new(2_000, 200, 200).expect("valid spec");
    let short = peak_heap(20_000, spec);
    let long = peak_heap(200_000, spec);
    #[allow(clippy::cast_precision_loss)]
    let ratio = long as f64 / short as f64;
    assert!(
        ratio <= 1.5,
        "peak heap grew {ratio:.2}x for a 10x longer stream ({short} -> {long} bytes)"
    );
}
