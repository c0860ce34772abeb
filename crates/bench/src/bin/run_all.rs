//! Runs the paper reproduction (Figs. 1–6, Table 3, ablations) through
//! the parallel deterministic experiment engine:
//!
//! ```text
//! cargo run --release -p tvp-bench --bin run_all -- --jobs 8
//! cargo run --release -p tvp-bench --bin run_all -- --jobs 1 --smoke
//! cargo run --release -p tvp-bench --bin run_all -- fig3_vp_speedup fig5_spsr_speedup
//! ```
//!
//! Positional arguments name the experiments to run
//! ([`Experiment::name`](tvp_bench::experiments::Experiment::name):
//! `fig1_value_dist` … `ablation_dvtage`, DESIGN.md §4); they run in
//! the canonical order, and all eleven run when none is named. An
//! unknown name exits 2 and lists the valid ones.
//!
//! Every simulation point across the selected experiments is
//! enumerated as a keyed job, deduplicated through the result cache
//! (shared baselines simulate exactly once), and run on a
//! work-stealing pool sized by `--jobs` (default: available cores).
//! `--jobs 1` and `--jobs N` produce byte-identical `results/*.json`.
//! A failed point never aborts the sequence: the engine finishes
//! everything else, reports the failed jobs' keys, and exits non-zero.
//! The experiments' tables print once the run is done; a reader that
//! closes stdout early (`run_all | head -1`) does not change the exit
//! status.
//! The run record (wall time, sims/sec, simulated cycles/sec, cache
//! hit rate, per-job timings) lands in `telemetry.json`
//! (`$TVP_BENCH_TELEMETRY` redirects it). Simulator performance is
//! measured by `simbench/` (see `simbench/README.md`).

use tvp_bench::{engine, outln};

fn main() {
    let (opts, experiments) = engine::parse_run_options(std::env::args().skip(1));
    let report = engine::run(&experiments, &opts);
    if let Some(text) = report.text.strip_suffix('\n') {
        outln!("{text}");
    }
    std::process::exit(engine::exit_code(&report));
}
