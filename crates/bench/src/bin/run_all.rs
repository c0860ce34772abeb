//! Runs the full paper reproduction (Figs. 1–6, Table 3, ablations)
//! through the parallel deterministic experiment engine:
//!
//! ```text
//! cargo run --release -p tvp-bench --bin run_all -- --jobs 8
//! cargo run --release -p tvp-bench --bin run_all -- --jobs 1 --smoke
//! ```
//!
//! Every simulation point across all experiments is enumerated as a
//! keyed job, deduplicated through the result cache (shared baselines
//! simulate exactly once), and run on a work-stealing pool sized by
//! `--jobs` (default: available cores). `--jobs 1` and `--jobs N`
//! produce byte-identical `results/*.json`. A failed point never
//! aborts the sequence: the engine finishes everything else, reports
//! the failed jobs' keys, and exits non-zero. The run record (wall
//! time, sims/sec, simulated cycles/sec, cache hit rate, per-job
//! timings) lands in `telemetry.json` (`$TVP_BENCH_TELEMETRY`
//! redirects it). Simulator performance is measured by `simbench/`
//! (see `simbench/README.md`).

fn main() {
    tvp_bench::engine::run_main(&tvp_bench::experiments::all());
}
