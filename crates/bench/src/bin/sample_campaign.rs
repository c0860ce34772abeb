//! Sampled-simulation campaign driver: run the whole suite sampled in
//! parallel, or validate sampled-vs-full error bounds.
//!
//! ```text
//! sample_campaign run      [--insts N] [--spec P:W:M] [--jobs N] [--store DIR] [--telemetry FILE]
//! sample_campaign validate [--insts N] [--spec P:W:M] [--jobs N] [--report FILE]
//! ```
//!
//! `run` executes every suite workload under interval sampling on a
//! worker pool and prints one weighted-reconstruction row per workload
//! plus the campaign fingerprint (byte-identical across `--jobs`
//! widths and across kill/resume). With `--store DIR` each interval is
//! checkpointed through the durable store (honouring
//! `$TVP_STORE_KILL_AFTER`) so a killed campaign resumes mid-trace.
//!
//! `validate` simulates each workload both ways — full detail and
//! sampled — and holds the headline stats (IPC, branch MPKI, VP MPKI,
//! SpSR coverage) to the declared error bounds, writing a
//! machine-readable report and exiting non-zero on any violation.

use std::sync::Mutex;
use std::time::Instant;

use tvp_bench::outln;
use tvp_bench::sampling::{
    campaign_fingerprint, error_report, run_suite_sampled, validate_sampling, SampleSpec,
    SampledRun, DEFAULT_BOUNDS,
};
use tvp_bench::store::{ResultStore, StoreConfig};
use tvp_bench::telemetry::{SamplingTelemetry, Telemetry, TELEMETRY_SCHEMA};
use tvp_core::config::{CoreConfig, VpMode};

fn usage() -> ! {
    eprintln!(
        "usage: sample_campaign run      [--insts N] [--spec P:W:M] [--jobs N] \
         [--store DIR] [--telemetry FILE]\n       \
         sample_campaign validate [--insts N] [--spec P:W:M] [--jobs N] [--report FILE]"
    );
    std::process::exit(2);
}

/// Parses `--insts N`: a positive instruction budget (`_` separators
/// allowed).
fn parse_insts(v: Option<String>) -> u64 {
    let insts = v.and_then(|s| s.replace('_', "").parse().ok()).unwrap_or_else(|| {
        eprintln!("--insts needs an unsigned integer");
        usage()
    });
    tvp_bench::insts_or_exit("--insts", insts)
}

fn parse_spec(v: Option<String>) -> SampleSpec {
    let s = v.unwrap_or_else(|| {
        eprintln!("--spec needs PERIOD:WARMUP:MEASURED");
        usage()
    });
    SampleSpec::parse(&s).unwrap_or_else(|e| {
        eprintln!("bad --spec: {e}");
        usage()
    })
}

fn parse_vp(v: Option<String>) -> VpMode {
    match v.as_deref() {
        Some("off") => VpMode::Off,
        Some("mvp") => VpMode::Mvp,
        Some("tvp") => VpMode::Tvp,
        Some("gvp") => VpMode::Gvp,
        _ => {
            eprintln!("--vp needs off|mvp|tvp|gvp");
            usage()
        }
    }
}

fn open_store(dir: &str) -> ResultStore {
    let kill_after = tvp_bench::env_u64_or_exit("TVP_STORE_KILL_AFTER");
    ResultStore::open(StoreConfig { dir: dir.into(), kill_after })
        .unwrap_or_else(|e| tvp_bench::fatal(&format!("cannot open checkpoint store {dir}"), &e))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(mode) = args.next() else { usage() };
    match mode.as_str() {
        "run" => cmd_run(args),
        "validate" => cmd_validate(args),
        _ => usage(),
    }
}

fn cmd_run(mut args: impl Iterator<Item = String>) {
    let mut insts: u64 = 1_000_000;
    let mut spec = SampleSpec::new(100_000, 10_000, 10_000).expect("default spec is valid");
    let mut jobs: usize = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut store_dir: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut cfg = CoreConfig::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--insts" => insts = parse_insts(args.next()),
            "--spec" => spec = parse_spec(args.next()),
            "--jobs" => jobs = tvp_bench::jobs_or_exit(args.next().as_deref()),
            "--store" => store_dir = args.next(),
            "--telemetry" => telemetry_path = args.next(),
            "--vp" => {
                cfg.vp = parse_vp(args.next());
                cfg.nine_bit_idiom = cfg.vp.uses_inlining();
            }
            "--spsr" => cfg.spsr = true,
            _ => usage(),
        }
    }
    let workloads = tvp_workloads::suite::suite();
    let store = store_dir.as_deref().map(|d| Mutex::new(open_store(d)));
    eprintln!(
        "sampled campaign: {} workloads, {insts} arch insts each, spec {}, {} job(s)",
        workloads.len(),
        spec.display(),
        jobs
    );

    let t0 = Instant::now();
    let runs = run_suite_sampled(&workloads, &cfg, insts, spec, jobs, store.as_ref());
    let wall = t0.elapsed();

    outln!(
        "{:<16} {:>9} {:>7} {:>8} {:>12} {:>8} {:>8} {:>8}  fp",
        "workload",
        "intervals",
        "resumed",
        "ipc",
        "cycles",
        "br_mpki",
        "vp_mpki",
        "spsr"
    );
    for (w, run) in workloads.iter().zip(&runs) {
        let est = run.estimate();
        outln!(
            "{:<16} {:>9} {:>7} {:>8.4} {:>12.0} {:>8.3} {:>8.3} {:>8.4}  {:016x}",
            w.name,
            run.intervals.len(),
            run.resumed_intervals,
            est.ipc(),
            est.cycles,
            est.branch_mpki(),
            est.vp_mpki(),
            est.spsr_coverage(),
            run.fingerprint()
        );
    }
    let fp = campaign_fingerprint(&runs);
    outln!("campaign fingerprint   {fp:016x}");

    let agg = |f: fn(&SampledRun) -> u64| runs.iter().map(f).sum::<u64>();
    let total_insts = agg(|r| r.total_insts);
    let detailed = agg(|r| r.warmup_insts) + agg(|r| r.measured_insts);
    #[allow(clippy::cast_precision_loss)]
    let detail_fraction = if total_insts == 0 { 0.0 } else { detailed as f64 / total_insts as f64 };
    let telemetry = Telemetry {
        schema: TELEMETRY_SCHEMA,
        workers: jobs,
        insts,
        smoke: false,
        jobs_requested: workloads.len() as u64,
        jobs_unique: workloads.len() as u64,
        cache_hits: 0,
        cache_hit_rate: 0.0,
        jobs_failed: 0,
        retries: 0,
        quarantined: 0,
        store_warm_hits: runs.iter().filter(|r| r.resumed_intervals > 0).count() as u64,
        store_enabled: store.is_some(),
        cache_conflicts: 0,
        campaign_fingerprint: fp,
        traces_built: 0,
        sim_wall: wall,
        total_wall: wall,
        cpu_time: wall,
        simulated_cycles: runs
            .iter()
            .flat_map(|r| r.intervals.iter())
            .map(|i| i.stats.cycles)
            .sum(),
        per_job: Vec::new(),
        emit_per_job: false,
        sampling: Some(SamplingTelemetry {
            period: spec.period,
            warmup: spec.warmup,
            measured: spec.measured,
            intervals: runs.iter().map(|r| r.intervals.len() as u64).sum(),
            resumed_intervals: agg(|r| u64::from(r.resumed_intervals)),
            total_insts,
            skipped_insts: agg(|r| r.skipped_insts),
            warmup_insts: agg(|r| r.warmup_insts),
            measured_insts: agg(|r| r.measured_insts),
            detail_fraction,
            fingerprint: fp,
        }),
    };
    if let Some(path) = telemetry_path {
        telemetry.write(&path).unwrap_or_else(|e| {
            tvp_bench::fatal(&format!("cannot write telemetry file {path}"), &e)
        });
        eprintln!("telemetry written: {path}");
    }
    eprintln!("[campaign] {:.2}s wall, detail fraction {:.4}", wall.as_secs_f64(), detail_fraction);
    if let Some(s) = &store {
        eprintln!("[store] {}", s.lock().expect("store lock poisoned").summary());
    }
}

fn cmd_validate(mut args: impl Iterator<Item = String>) {
    let mut insts: u64 = 60_000;
    // The spec DEFAULT_BOUNDS was calibrated at — changing one without
    // re-deriving the other turns the bounds into fiction.
    let mut spec = SampleSpec::new(20_000, 8_000, 2_000).expect("default spec is valid");
    let mut jobs: usize = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut report_path = "sampling_error_report.json".to_owned();
    // Validation runs the paper's headline configuration (TVP + SpSR)
    // so the VP-MPKI and SpSR-coverage bounds are exercised for real.
    let mut cfg = CoreConfig::with_vp(VpMode::Tvp).with_spsr();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--insts" => insts = parse_insts(args.next()),
            "--spec" => spec = parse_spec(args.next()),
            "--jobs" => jobs = tvp_bench::jobs_or_exit(args.next().as_deref()),
            "--report" => report_path = args.next().unwrap_or_else(|| usage()),
            "--vp" => {
                cfg.vp = parse_vp(args.next());
                cfg.nine_bit_idiom = cfg.vp.uses_inlining();
            }
            "--spsr" => cfg.spsr = true,
            _ => usage(),
        }
    }
    let workloads = tvp_workloads::suite::suite();
    eprintln!(
        "validating sampled accuracy: {} workloads, {insts} arch insts, spec {}, {} job(s)",
        workloads.len(),
        spec.display(),
        jobs
    );

    // Results come back in workload order, so the report (and the exit
    // code) is independent of scheduling.
    let results = validate_sampling(&workloads, &cfg, insts, spec, jobs);

    let mut failures = 0u32;
    for e in &results {
        let violations = e.violations(&DEFAULT_BOUNDS);
        if violations.is_empty() {
            outln!(
                "PASS {:<16} ipc {:.4} vs {:.4} (rel err {:.4})",
                e.workload,
                e.sampled.ipc(),
                e.full.ipc(),
                e.ipc_rel_err
            );
        } else {
            failures += 1;
            outln!("FAIL {:<16} {}", e.workload, violations.join("; "));
        }
    }

    if let Err(e) = std::fs::write(&report_path, error_report(insts, spec, &results)) {
        tvp_bench::fatal(&format!("cannot write error report {report_path}"), &e);
    }
    eprintln!("error report written: {report_path}");
    if failures > 0 {
        eprintln!("{failures} workload(s) out of bounds");
        std::process::exit(1);
    }
    eprintln!("all {} workloads within bounds", results.len());
}
