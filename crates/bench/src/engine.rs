//! The experiment engine: enumerate → dedupe → simulate → assemble.
//!
//! Used by `run_all`, which selects the experiments to run by name
//! ([`parse_run_options`]). The phases are:
//!
//! 1. **enumerate** — collect each experiment's
//!    [`Job`](crate::jobs::Job)s, by workload name, and push them
//!    through the [`ResultCache`], which dedupes shared points (the
//!    VP-off baseline appears in most experiments but simulates once);
//!    with a durable store attached (`--store` / `$TVP_STORE_DIR`),
//!    already-published points load warm — fully re-verified — and
//!    leave the schedule, so a killed campaign resumes where it died;
//! 2. **simulate** — run the deduplicated cold schedule on the
//!    work-stealing pool ([`runner::run_jobs`]), which builds each
//!    workload's trace on demand, only for cold points, and frees it
//!    after the workload's last point; each panicked job is retried
//!    once; each fresh point is published durably, in schedule order,
//!    as soon as it and every point scheduled before it are done;
//! 3. **assemble** — single-threaded, in fixed experiment order: render
//!    each experiment's tables into the report text and write its
//!    `results/*.json` from cached points only. The engine prints
//!    nothing to stdout; `run_all` prints the text it returns.
//!
//! Failures never abort the sequence: a panicked job is recorded with
//! its [`ExpKey`], experiments that depend on it are skipped (and
//! listed), every other experiment still assembles, and the process
//! exits non-zero at the end. An I/O failure the run cannot continue
//! past — an unusable store, an unwritable results directory, results
//! file or telemetry file — is reported as one `FATAL:` line and exits
//! with code 2 ([`crate::fatal`]), never as a panic.
//!
//! This is the one campaign path: a store has one writing process at a
//! time, and serial, `--jobs N`, resumed and warm runs all go through
//! [`run`].
//!
//! Determinism: a trace is a pure function of (workload, budget),
//! built once per run by whichever worker first needs it; simulation
//! is a pure function of (trace, config), the schedule is keyed, and
//! assembly is ordered — so `--jobs 1` and `--jobs N` produce
//! byte-identical results files.

use std::path::PathBuf;
use std::time::Instant;

use crate::cache::ResultCache;
use crate::experiments::{ExpContext, Experiment, ResultSet};
use crate::jobs::ExpKey;
use crate::runner::{self, JobFailure};
use crate::store::{LoadOutcome, ResultStore, StoreConfig, StoreCounters};
use crate::telemetry::{Telemetry, TELEMETRY_SCHEMA};
use crate::{textln, DEFAULT_INSTS};

/// Instruction budget used by `--smoke` (CI-sized).
pub const SMOKE_INSTS: u64 = 20_000;

/// Parsed engine options.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker threads (`--jobs N`); `None` sizes to available cores.
    pub workers: Option<usize>,
    /// Architectural instructions per workload.
    pub insts: u64,
    /// Smoke mode (CI-sized budget unless `--insts` overrides).
    pub smoke: bool,
    /// Per-job progress lines on stderr.
    pub progress: bool,
    /// Emit the raw per-job timing array in telemetry (`--per-job`).
    pub per_job: bool,
    /// Durable result store directory (`--store DIR` /
    /// `$TVP_STORE_DIR`); `None` runs without a store.
    pub store_dir: Option<PathBuf>,
    /// Chaos knob (`$TVP_STORE_KILL_AFTER`): deliberately exit with
    /// [`crate::store::KILL_EXIT_CODE`] after N blob publications.
    pub store_kill_after: Option<u64>,
    /// Results directory override; `None` resolves [`results_dir`]
    /// (env / default). Tests use the override to avoid mutating
    /// process-wide environment from parallel test threads.
    pub results_dir: Option<String>,
    /// Telemetry path override; `None` resolves
    /// [`Telemetry::default_path`].
    pub telemetry_path: Option<String>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workers: None,
            insts: DEFAULT_INSTS,
            smoke: false,
            progress: false,
            per_job: false,
            store_dir: None,
            store_kill_after: None,
            results_dir: None,
            telemetry_path: None,
        }
    }
}

/// Parses `run_all`'s command line: `[--jobs N] [--smoke] [--insts N]
/// [--progress] [--per-job] [--store DIR] [NAME…]`. Each NAME is an
/// [`Experiment::name`]; the named experiments come back in the
/// canonical [`all`](crate::experiments::all) order, and all eleven
/// when no name is given. Budget precedence: `--insts` flag, then the
/// `TVP_INSTS` environment variable, then the smoke/default budget.
/// Store precedence: `--store` flag, then `$TVP_STORE_DIR`; the
/// kill-resume chaos knob is environment-only (`$TVP_STORE_KILL_AFTER`).
///
/// # Panics
///
/// Exits the process (code 2) on unknown or malformed arguments, a
/// zero budget, or an unknown experiment name (listing the valid
/// ones) — before any store is opened or any point is simulated.
#[must_use]
pub fn parse_run_options(
    args: impl Iterator<Item = String>,
) -> (RunOptions, Vec<Box<dyn Experiment>>) {
    let usage = || -> ! {
        eprintln!(
            "usage: run_all [--jobs N] [--smoke] [--insts N] [--progress] [--per-job] \
             [--store DIR] [NAME...]"
        );
        std::process::exit(2);
    };
    let mut workers = None;
    let mut insts_flag: Option<u64> = None;
    let mut smoke = false;
    let mut progress = false;
    let mut per_job = false;
    let mut store_flag: Option<PathBuf> = None;
    let mut names: Vec<String> = Vec::new();
    let args: Vec<String> = args.collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => workers = Some(crate::jobs_or_exit(it.next().map(String::as_str))),
            "--smoke" => smoke = true,
            "--insts" => {
                let n = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                insts_flag = Some(crate::insts_or_exit("--insts", n));
            }
            "--progress" => progress = true,
            "--per-job" => per_job = true,
            "--store" => {
                store_flag = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            name if !name.starts_with('-') => names.push(name.to_owned()),
            _ => usage(),
        }
    }
    let mut experiments = crate::experiments::all();
    if let Some(bad) = names.iter().find(|n| experiments.iter().all(|e| e.name() != n.as_str())) {
        let valid: Vec<&str> = experiments.iter().map(|e| e.name()).collect();
        eprintln!("error: unknown experiment `{bad}`; valid names: {}", valid.join(" "));
        std::process::exit(2);
    }
    if !names.is_empty() {
        experiments.retain(|e| names.iter().any(|n| n == e.name()));
    }
    // Environment settings fail loudly: a malformed value exits with a
    // message rather than silently running the default (which used to
    // disarm the TVP_STORE_KILL_AFTER chaos knob CI relies on).
    let insts = insts_flag
        .or_else(|| {
            crate::env_u64_or_exit("TVP_INSTS").map(|n| crate::insts_or_exit("TVP_INSTS", n))
        })
        .unwrap_or(if smoke { SMOKE_INSTS } else { DEFAULT_INSTS });
    let store_dir = store_flag.or_else(|| std::env::var_os("TVP_STORE_DIR").map(PathBuf::from));
    let store_kill_after = crate::env_u64_or_exit("TVP_STORE_KILL_AFTER");
    let opts = RunOptions {
        workers,
        insts,
        smoke,
        progress,
        per_job,
        store_dir,
        store_kill_after,
        results_dir: None,
        telemetry_path: None,
    };
    (opts, experiments)
}

/// Resolves the results directory (`$TVP_RESULTS_DIR`, default
/// `results`).
#[must_use]
pub fn results_dir() -> String {
    std::env::var("TVP_RESULTS_DIR").unwrap_or_else(|_| "results".to_owned())
}

/// What one engine invocation produced, beyond the files on disk.
pub struct EngineReport {
    /// The assembled experiments' tables, under a banner per
    /// experiment when several ran, one `\n`-terminated line each.
    pub text: String,
    /// Jobs that panicked, with their keys.
    pub failures: Vec<JobFailure>,
    /// Experiments skipped because one of their points failed, with
    /// the missing keys.
    pub skipped: Vec<(&'static str, Vec<ExpKey>)>,
    /// Performance record of this invocation.
    pub telemetry: Telemetry,
}

/// Runs `experiments` end to end: enumerate, dedupe, simulate on the
/// pool, assemble in order, write results JSON and telemetry.
///
/// Exits with code 2 through [`crate::fatal`] when the store cannot be
/// opened or written, or the results directory, a results file or the
/// telemetry file cannot be written; job panics are *contained* and
/// reported through the returned [`EngineReport`]. The results
/// directory is created first, so an unusable one fails before the
/// store is opened or any point is simulated.
pub fn run(experiments: &[Box<dyn Experiment>], opts: &RunOptions) -> EngineReport {
    let total_start = Instant::now();
    let dir = opts.results_dir.clone().unwrap_or_else(results_dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| crate::fatal(&format!("cannot create results directory {dir}"), &e));
    let ctx = ExpContext { insts: opts.insts, prepared: Vec::new() };

    // 1. enumerate + dedupe ——————————————————————————————————————————
    let mut cache = ResultCache::new();
    let mut wanted: Vec<(&'static str, Vec<ExpKey>)> = Vec::new();
    for exp in experiments {
        let jobs = exp.jobs(&ctx);
        for job in &jobs {
            cache.request(job);
        }
        wanted.push((exp.name(), jobs.into_iter().map(|j| j.key).collect()));
    }
    let schedule = cache.take_scheduled();
    let requested = cache.hits() + cache.misses();
    let workers = runner::resolve_workers(opts.workers);
    // Fingerprint of the full deduplicated schedule — computed before
    // warm filtering, so serial, `--jobs N`, cold, resumed and warm
    // runs of the same campaign all print the same value.
    let campaign_fingerprint =
        crate::distributed::campaign_fingerprint(schedule.iter().map(|j| j.key.digest()));
    eprintln!(
        "[engine] {} unique simulation points ({} requested, {} cache hits) on {} worker(s)",
        schedule.len(),
        requested,
        cache.hits(),
        workers
    );
    eprintln!("[engine] campaign fingerprint {campaign_fingerprint:016x}");

    // 1b. warm-load from the durable store ———————————————————————————
    // Every reloaded blob is re-verified (checksum, schema, echoed
    // key); corrupt blobs are quarantined and stay in the cold
    // schedule to be re-simulated.
    let mut store = opts.store_dir.as_ref().map(|dir| {
        let cfg = StoreConfig { dir: dir.clone(), kill_after: opts.store_kill_after };
        ResultStore::open(cfg).unwrap_or_else(|e| {
            crate::fatal(&format!("cannot open result store {}", dir.display()), &e)
        })
    });
    let schedule = if let Some(store) = store.as_mut() {
        let total = schedule.len();
        let mut cold = Vec::with_capacity(total);
        for job in schedule {
            match store.load(&job.key) {
                LoadOutcome::Hit(point) => cache.insert(job.key.clone(), *point),
                LoadOutcome::Miss => cold.push(job),
                LoadOutcome::Quarantined(err) => {
                    eprintln!(
                        "[engine] store: QUARANTINED corrupt blob for {} ({err}); re-simulating",
                        job.key.display()
                    );
                    cold.push(job);
                }
            }
        }
        eprintln!(
            "[engine] store {}: {} of {total} point(s) loaded warm, {} to simulate",
            store.dir().display(),
            total - cold.len(),
            cold.len()
        );
        cold
    } else {
        schedule
    };

    // 2. simulate and publish ——————————————————————————————————————————
    // The pool hands each point over in schedule order, on this thread,
    // while the workers simulate the rest — deterministic, which is
    // what makes the kill_after chaos knob reproducible for a given
    // seed/schedule, and a store that cannot be written fails at its
    // first fresh point.
    let sim_start = Instant::now();
    let outcome = runner::run_jobs(&schedule, workers, opts.progress, |key, point| {
        if let Some(store) = store.as_mut() {
            store
                .publish(key, point)
                .unwrap_or_else(|e| crate::fatal(&format!("cannot publish {}", key.display()), &e));
        }
        cache.insert(key.clone(), *point);
    });
    let sim_wall = sim_start.elapsed();
    let store_counters: StoreCounters = store.as_ref().map(|s| *s.counters()).unwrap_or_default();
    if let Some(store) = store.as_ref() {
        eprintln!("[engine] store: {}", store.summary());
    }

    // 3. assemble ————————————————————————————————————————————————————
    let mut skipped = Vec::new();
    let mut text = String::new();
    let results = ResultSet::new(&cache);
    for (exp, (name, keys)) in experiments.iter().zip(&wanted) {
        if experiments.len() > 1 {
            textln!(text, "\n================================================================");
            textln!(text, "== {name}");
            textln!(text, "================================================================\n");
        }
        let missing: Vec<ExpKey> =
            keys.iter().filter(|k| cache.get(k).is_none()).cloned().collect();
        if missing.is_empty() {
            let assembled = exp.assemble(&ctx, &results);
            text.push_str(&assembled.report);
            for file in assembled {
                let path = format!("{dir}/{}.json", file.name);
                std::fs::write(&path, file.json).unwrap_or_else(|e| {
                    crate::fatal(&format!("cannot write results file {path}"), &e)
                });
                textln!(text, "\n[results written to {path}]");
            }
        } else {
            eprintln!("[engine] SKIPPED {name}: {} failed point(s)", missing.len());
            skipped.push((*name, missing));
        }
    }

    // telemetry ——————————————————————————————————————————————————————
    let cpu_time = outcome.timings.iter().map(|t| t.wall).sum();
    let simulated_cycles = outcome.timings.iter().map(|t| t.cycles).sum();
    #[allow(clippy::cast_possible_truncation)]
    let telemetry = Telemetry {
        schema: TELEMETRY_SCHEMA,
        workers,
        insts: opts.insts,
        smoke: opts.smoke,
        jobs_requested: requested,
        jobs_unique: schedule.len() as u64,
        cache_hits: cache.hits(),
        cache_hit_rate: cache.hit_rate(),
        jobs_failed: outcome.failures.len() as u64,
        retries: outcome.retries,
        quarantined: store_counters.quarantined,
        store_warm_hits: store_counters.warm_hits,
        store_enabled: store.is_some(),
        cache_conflicts: cache.conflicts(),
        campaign_fingerprint,
        traces_built: outcome.traces_built,
        sim_wall,
        total_wall: total_start.elapsed(),
        cpu_time,
        simulated_cycles,
        per_job: outcome.timings,
        emit_per_job: opts.per_job,
        sampling: None,
    };
    let telemetry_path = opts.telemetry_path.clone().unwrap_or_else(Telemetry::default_path);
    telemetry.write(&telemetry_path).unwrap_or_else(|e| {
        crate::fatal(&format!("cannot write telemetry file {telemetry_path}"), &e)
    });
    eprintln!("[engine] {}", telemetry.summary());
    eprintln!("[engine] telemetry written to {telemetry_path}");

    EngineReport { text, failures: outcome.failures, skipped, telemetry }
}

/// Prints the failure report (if any) and returns the process exit
/// code: 0 on a fully clean run, 1 when any job failed.
#[must_use]
pub fn exit_code(report: &EngineReport) -> i32 {
    if report.failures.is_empty() && report.skipped.is_empty() {
        return 0;
    }
    eprintln!("\n[engine] {} job(s) FAILED:", report.failures.len());
    for f in &report.failures {
        let first_line = f.panic.lines().next().unwrap_or("");
        eprintln!("  {}: {first_line}", f.key.display());
    }
    for (name, missing) in &report.skipped {
        eprintln!("[engine] experiment {name} skipped ({} missing point(s))", missing.len());
    }
    1
}
