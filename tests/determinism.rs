//! Determinism guarantees of the parallel experiment engine.
//!
//! The engine's core contract (ISSUE: "`--jobs 1` and `--jobs N` are
//! byte-identical") rests on three properties, each locked here:
//!
//! 1. a [`SimPoint`] is a pure function of its [`ExpKey`] — running the
//!    same job twice yields an identical point;
//! 2. the worker count is invisible in the assembled output — the same
//!    job grid run serially and on a wide pool produces byte-identical
//!    JSON artefacts;
//! 3. chaos-seeded points (fault-injection campaigns) replay exactly,
//!    even when scheduled concurrently with other work.

use std::collections::BTreeSet;

use tvp_bench::cache::ResultCache;
use tvp_bench::experiments::{vp_cfg, ExpContext, Experiment, ResultSet};
use tvp_bench::jobs::Job;
use tvp_bench::runner::run_jobs;
use tvp_core::config::{CoreConfig, VpMode};

/// Small budget: each simulation point is a few milliseconds.
const INSTS: u64 = 2_000;

/// The context the engine passes: the budget, and no prepared traces.
fn ctx() -> ExpContext {
    ExpContext { insts: INSTS, prepared: Vec::new() }
}

/// Runs `jobs` at the given pool width and returns the populated
/// cache and the number of traces the pool built, asserting no job
/// failed.
fn run_into_cache(jobs: &[Job], workers: usize) -> (ResultCache, u64) {
    let mut cache = ResultCache::new();
    for job in jobs {
        cache.request(job);
    }
    let schedule = cache.take_scheduled();
    let outcome = run_jobs(&schedule, workers, false, |_, _| {});
    assert!(outcome.failures.is_empty(), "unexpected failures: {:?}", outcome.failures);
    for (key, point) in outcome.points {
        cache.insert(key, point);
    }
    (cache, outcome.traces_built)
}

/// Distinct workloads among `jobs`: the traces a pool must build.
fn distinct_workloads(jobs: &[Job]) -> u64 {
    jobs.iter().map(|j| j.key.workload).collect::<BTreeSet<_>>().len() as u64
}

#[test]
fn same_key_simulates_to_the_same_point() {
    let job = Job::new("mc_playout", INSTS, vp_cfg(VpMode::Tvp, true));

    let (a, _) = run_into_cache(std::slice::from_ref(&job), 1);
    let (b, _) = run_into_cache(std::slice::from_ref(&job), 1);
    let pa = a.get(&job.key).expect("point simulated");
    let pb = b.get(&job.key).expect("point simulated");
    assert_eq!(pa, pb, "SimPoint must be a pure function of its ExpKey");
}

#[test]
fn serial_and_parallel_grids_assemble_byte_identical_json() {
    // A real experiment grid: fig2 spans every workload under three
    // configurations, sharing the DSR baseline with other figures.
    let exp = tvp_bench::experiments::fig2::Fig2;
    let ctx = ctx();
    let jobs = exp.jobs(&ctx);
    assert!(jobs.len() > 10, "fig2 should enumerate a real grid, got {}", jobs.len());

    let (serial, built_serial) = run_into_cache(&jobs, 1);
    let (parallel, built_parallel) = run_into_cache(&jobs, 4);
    // Each workload's trace is built exactly once, even under racing
    // workers.
    let workloads = distinct_workloads(&jobs);
    assert_eq!((built_serial, built_parallel), (workloads, workloads));

    let serial = exp.assemble(&ctx, &ResultSet::new(&serial));
    let parallel = exp.assemble(&ctx, &ResultSet::new(&parallel));
    assert_eq!(serial.report, parallel.report, "the tables must not depend on the worker count");
    let (files_serial, files_parallel) = (serial.files, parallel.files);
    assert_eq!(files_serial.len(), files_parallel.len());
    for (s, p) in files_serial.iter().zip(&files_parallel) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.json, p.json, "results JSON must not depend on the worker count");
    }
}

#[test]
fn pool_width_does_not_change_any_point() {
    // Same grid, three pool widths, compare every cached point (a
    // stronger form of the JSON check: no aggregation masks drift).
    let exp = tvp_bench::experiments::fig6::Fig6;
    let jobs = exp.jobs(&ctx());

    let (one, built_one) = run_into_cache(&jobs, 1);
    let (three, built_three) = run_into_cache(&jobs, 3);
    let (eight, built_eight) = run_into_cache(&jobs, 8);
    let workloads = distinct_workloads(&jobs);
    assert_eq!((built_one, built_three, built_eight), (workloads, workloads, workloads));
    for job in &jobs {
        let p1 = one.get(&job.key).expect("point");
        let p3 = three.get(&job.key).expect("point");
        let p8 = eight.get(&job.key).expect("point");
        assert_eq!(p1, p3, "{}", job.key.display());
        assert_eq!(p1, p8, "{}", job.key.display());
    }
}

#[test]
fn chaos_seeded_points_replay_identically() {
    let mk = |seed: u64| -> Job {
        let cfg =
            CoreConfig::with_vp(VpMode::Tvp).with_chaos(tvp_chaos::ChaosConfig::campaign(seed));
        Job::new("pointer_chase", INSTS, cfg)
    };
    // Two distinct campaigns plus a quiet point, scheduled together on
    // a multi-worker pool, twice.
    let jobs = vec![
        mk(0xDEAD_BEEF),
        mk(0x1234_5678),
        Job::new("pointer_chase", INSTS, vp_cfg(VpMode::Tvp, true)),
    ];
    let (a, _) = run_into_cache(&jobs, 3);
    let (b, _) = run_into_cache(&jobs, 3);
    for job in &jobs {
        assert_eq!(
            a.get(&job.key).expect("point"),
            b.get(&job.key).expect("point"),
            "chaos campaign must replay exactly: {}",
            job.key.display()
        );
    }
    // Distinct seeds are distinct points: the chaos engine actually
    // perturbed the run.
    let k1 = &jobs[0].key;
    let k2 = &jobs[1].key;
    assert_ne!(k1, k2, "seed is part of the key");
    assert_ne!(
        a.get(k1).expect("point").stats.chaos.total(),
        0,
        "campaign config must inject faults"
    );
}
