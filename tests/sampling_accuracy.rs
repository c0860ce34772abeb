//! Sampled-vs-full accuracy across the whole workload suite.
//!
//! Every suite workload is simulated twice under the paper's headline
//! TVP + SpSR configuration: once in full detail (the reference) and
//! once through the sampled-simulation path (fast-forward + functional
//! warming + detailed windows, weighted reconstruction). The headline
//! statistics — IPC, branch MPKI, VP MPKI, SpSR coverage — must agree
//! within the declared per-stat error bounds
//! ([`tvp_bench::sampling::DEFAULT_BOUNDS`]), and a machine-readable
//! error report is written as a test artifact.
//!
//! The bounds are empirical worst-case-plus-headroom, not aspirations:
//! loosening them is a regression, and a methodology change that
//! tightens them (longer functional warming, smarter interval
//! placement) should ratchet them down.

use std::path::PathBuf;

use tvp_bench::sampling::{error_report, validate_sampling, SampleSpec, DEFAULT_BOUNDS};
use tvp_core::config::{CoreConfig, VpMode};

/// Stream length per workload: long enough that sampling fast-forwards
/// most of it, short enough for the full-detail reference runs.
const INSTS: u64 = 60_000;

/// The accuracy-test sampling spec: 3 intervals of 20k, each ending in
/// 8k detailed warmup + 2k measured (the skip tail is functionally
/// warmed). [`DEFAULT_BOUNDS`] was calibrated at exactly this spec.
fn spec() -> SampleSpec {
    SampleSpec::new(20_000, 8_000, 2_000).expect("accuracy spec is valid")
}

/// Unique artifact path per process (tests run on parallel threads,
/// but this file is written once by the one test that produces it).
fn report_path() -> PathBuf {
    std::env::temp_dir().join(format!("tvp_sampling_error_report_{}.json", std::process::id()))
}

#[test]
fn every_workload_reconstructs_within_declared_bounds() {
    let cfg = CoreConfig::with_vp(VpMode::Tvp).with_spsr();
    let workloads = tvp_workloads::suite();

    // Full + sampled per workload on the library's worker pool (the
    // same check `sample_campaign validate` runs); results come back
    // in suite order regardless of scheduling.
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let results = validate_sampling(&workloads, &cfg, INSTS, spec(), jobs);
    assert_eq!(results.len(), workloads.len(), "one comparison per suite workload");

    // Machine-readable artifact first, so a bounds failure still
    // leaves the full error table behind for diagnosis.
    let path = report_path();
    std::fs::write(&path, error_report(INSTS, spec(), &results))
        .expect("error report artifact writes");

    let mut violations = Vec::new();
    for e in &results {
        for v in e.violations(&DEFAULT_BOUNDS) {
            violations.push(format!("{}: {v}", e.workload));
        }
    }
    assert!(
        violations.is_empty(),
        "sampled reconstruction out of bounds (full report: {}):\n{}",
        path.display(),
        violations.join("\n")
    );

    // The reconstruction must also be exact where exactness is
    // structural: weights covering the entire stream is already
    // asserted inside run_sampled's unit tests; here, spot-check that
    // the estimate is not degenerate (nonzero cycles and IPC for every
    // workload).
    for e in &results {
        assert!(e.sampled.ipc() > 0.0, "{}: degenerate sampled IPC", e.workload);
        assert!(e.full.ipc() > 0.0, "{}: degenerate full IPC", e.workload);
    }
    let _ = std::fs::remove_file(&path);
}
