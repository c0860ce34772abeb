//! `run_all` failure handling: a panicking simulation point must not
//! abort the run. The engine reports the failed job by key, skips only
//! the experiments that depend on it, assembles everything else, and
//! exits non-zero.
//!
//! The poison job uses `watchdog_cycles = 1`: the deadlock watchdog
//! trips on the first cycle and `simulate` panics with its diagnostic —
//! a deterministic in-job panic with no special-casing in the engine.

use tvp_bench::engine::{self, RunOptions};
use tvp_bench::experiments::{vp_cfg, Assembled, ExpContext, Experiment, ResultFile, ResultSet};
use tvp_bench::jobs::Job;
use tvp_core::config::VpMode;

/// An experiment whose single point cannot simulate.
struct Poisoned;

impl Experiment for Poisoned {
    fn name(&self) -> &'static str {
        "poisoned"
    }

    fn jobs(&self, ctx: &ExpContext) -> Vec<Job> {
        let mut cfg = vp_cfg(VpMode::Tvp, true);
        cfg.watchdog_cycles = 1; // trips immediately → simulate panics
        vec![Job::new("mc_playout", ctx.insts, cfg)]
    }

    fn assemble(&self, _ctx: &ExpContext, _results: &ResultSet<'_>) -> Assembled {
        unreachable!("assemble must not run for an experiment with a failed point")
    }
}

/// A healthy single-point experiment that must still complete.
struct Healthy;

impl Experiment for Healthy {
    fn name(&self) -> &'static str {
        "healthy"
    }

    fn jobs(&self, ctx: &ExpContext) -> Vec<Job> {
        vec![Job::new("mc_playout", ctx.insts, vp_cfg(VpMode::Tvp, true))]
    }

    fn assemble(&self, ctx: &ExpContext, results: &ResultSet<'_>) -> Assembled {
        let key = Job::new("mc_playout", ctx.insts, vp_cfg(VpMode::Tvp, true)).key;
        assert!(results.stats(&key).cycles > 0);
        let probe = ResultFile { name: "healthy_probe".to_owned(), json: "[]".to_owned() };
        Assembled { report: String::new(), files: vec![probe] }
    }
}

#[test]
fn failed_job_is_reported_and_the_rest_of_the_run_completes() {
    // Route the engine's file output into a scratch directory — this
    // test exercises the real end-to-end path, including result and
    // telemetry writes.
    let scratch = std::env::temp_dir().join(format!("tvp_engine_failures_{}", std::process::id()));
    let results_dir = scratch.join("results");
    let telemetry = scratch.join("telemetry.json");
    // Safety: this integration-test binary contains a single #[test],
    // so no concurrent thread observes the environment mutation.
    std::env::set_var("TVP_RESULTS_DIR", &results_dir);
    std::env::set_var("TVP_BENCH_TELEMETRY", &telemetry);

    let experiments: Vec<Box<dyn Experiment>> = vec![Box::new(Poisoned), Box::new(Healthy)];
    let opts = RunOptions { workers: Some(2), insts: 2_000, ..RunOptions::default() };
    let report = engine::run(&experiments, &opts);

    // The poisoned point failed, with its key, and its panic payload
    // carries the watchdog diagnostic.
    assert_eq!(report.failures.len(), 1, "exactly the poisoned job fails");
    let failure = &report.failures[0];
    assert_eq!(failure.key.workload, "mc_playout");
    assert!(
        failure.panic.contains("deadlock"),
        "panic payload should carry the watchdog deadlock diagnostic, got: {}",
        failure.panic
    );
    assert_eq!(
        failure.attempts,
        tvp_bench::runner::MAX_ATTEMPTS,
        "a deterministic panic burns its single bounded retry before being reported"
    );
    assert_eq!(report.telemetry.retries, 1, "telemetry counts the retried job");

    // Only the poisoned experiment was skipped; the healthy one
    // assembled and wrote its artefact.
    assert_eq!(report.skipped.len(), 1);
    assert_eq!(report.skipped[0].0, "poisoned");
    assert!(results_dir.join("healthy_probe.json").is_file(), "healthy experiment still writes");

    // Telemetry records the failure and the process exits non-zero.
    assert_eq!(report.telemetry.jobs_failed, 1);
    assert!(telemetry.is_file(), "telemetry written even on failure");
    assert_eq!(engine::exit_code(&report), 1);

    let _ = std::fs::remove_dir_all(&scratch);
}
