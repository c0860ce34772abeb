//! Distributed campaign driver (DESIGN.md §16): coordinator, worker,
//! reaper and merge in one binary.
//!
//! ```text
//! # 1. coordinator: initialize the store and pin the campaign
//! campaign_worker manifest --store DIR [--insts N | --smoke]
//!
//! # 2. any number of workers, concurrently, on the same store
//! campaign_worker worker --store DIR --id w0 [--jobs N]
//!
//! # 3. after a worker dies: reclaim its points so others re-run them
//! campaign_worker reap --store DIR --dead w0 [--dead w1 ...]
//! campaign_worker reap --store DIR --all     # no workers left alive
//!
//! # 4. assemble results/*.json (byte-identical to a serial run)
//! campaign_worker merge --store DIR [--results DIR] [--telemetry P] [--jobs N]
//! ```
//!
//! Workers and merge read the instruction budget from the manifest,
//! never from their own flags — a coordinator/worker budget mismatch
//! is impossible by construction. `$TVP_STORE_KILL_AFTER` arms the
//! same chaos knob as everywhere else: the worker process exits with
//! code 42 after N blob publications, mid-lease, which is exactly the
//! crash the reaper exists to clean up after.

use std::path::PathBuf;

use tvp_bench::distributed::{self, CampaignManifest};
use tvp_bench::engine::{self, RunOptions, SMOKE_INSTS};
use tvp_bench::experiments;
use tvp_bench::store::{manifest, ResultStore, StoreConfig};
use tvp_bench::DEFAULT_INSTS;

fn usage() -> ! {
    eprintln!(
        "usage: campaign_worker <mode> --store DIR ...\n\
         modes:\n  \
         manifest [--insts N | --smoke]          pin the campaign (coordinator)\n  \
         worker --id WID [--jobs N]              drain the manifest\n  \
         reap (--dead WID ... | --all)           reclaim dead workers' points\n  \
         merge [--results DIR] [--telemetry P] [--jobs N]   assemble results"
    );
    std::process::exit(2);
}

fn parse_u64(flag: &str, v: Option<String>) -> u64 {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: {flag} needs an unsigned integer");
        std::process::exit(2);
    })
}

fn fatal(e: &std::io::Error) -> ! {
    eprintln!("FATAL: {e}");
    std::process::exit(1);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(mode) = args.next() else { usage() };
    match mode.as_str() {
        "manifest" => cmd_manifest(args),
        "worker" => cmd_worker(args),
        "reap" => cmd_reap(args),
        "merge" => cmd_merge(args),
        _ => usage(),
    }
}

fn need_store(store: Option<PathBuf>) -> PathBuf {
    store.unwrap_or_else(|| {
        eprintln!("error: --store DIR is required");
        std::process::exit(2);
    })
}

fn cmd_manifest(mut args: impl Iterator<Item = String>) {
    let mut store_dir: Option<PathBuf> = None;
    let mut insts: Option<u64> = None;
    let mut smoke = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--store" => store_dir = args.next().map(PathBuf::from),
            "--insts" => insts = Some(parse_u64("--insts", args.next())),
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }
    let dir = need_store(store_dir);
    let insts = insts.unwrap_or(if smoke { SMOKE_INSTS } else { DEFAULT_INSTS });
    // Opening the store exclusively creates the layout and the
    // journal — the initialization workers' shared opens require.
    let store = ResultStore::open(StoreConfig::at(&dir)).unwrap_or_else(|e| fatal(&e));
    drop(store);
    let (_, schedule) = distributed::schedule_for(&experiments::all(), insts);
    let man = CampaignManifest::from_schedule(insts, &schedule);
    man.write(&dir).unwrap_or_else(|e| fatal(&e));
    println!(
        "campaign {:016x}: {} point(s) at {} insts, fingerprint {:016x}",
        man.id(),
        man.points.len(),
        man.insts,
        distributed::campaign_fingerprint(man.points.iter().map(|(d, _)| *d)),
    );
    println!("manifest written to {}", CampaignManifest::path(&dir).display());
}

fn cmd_worker(mut args: impl Iterator<Item = String>) {
    let mut store_dir: Option<PathBuf> = None;
    let mut id: Option<String> = None;
    let mut jobs: usize = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--store" => store_dir = args.next().map(PathBuf::from),
            "--id" => id = args.next(),
            "--jobs" => jobs = tvp_bench::jobs_or_exit(args.next().as_deref()),
            _ => usage(),
        }
    }
    let dir = need_store(store_dir);
    let Some(id) = id else {
        eprintln!("error: worker needs --id WID");
        std::process::exit(2);
    };
    let kill_after = tvp_bench::env_u64_or_exit("TVP_STORE_KILL_AFTER");
    let report = distributed::worker_loop(&experiments::all(), &dir, &id, jobs, kill_after)
        .unwrap_or_else(|e| fatal(&e));
    println!(
        "worker {id}: {} published, {} stale (fenced off), {} failed, {} round(s)",
        report.published, report.stale, report.failed, report.rounds
    );
    std::process::exit(i32::from(report.failed > 0));
}

fn cmd_reap(mut args: impl Iterator<Item = String>) {
    let mut store_dir: Option<PathBuf> = None;
    let mut dead: Vec<String> = Vec::new();
    let mut all = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--store" => store_dir = args.next().map(PathBuf::from),
            "--dead" => {
                let Some(w) = args.next() else { usage() };
                if !manifest::valid_worker_id(&w) {
                    eprintln!("error: invalid worker id {w:?}");
                    std::process::exit(2);
                }
                dead.push(w);
            }
            "--all" => all = true,
            _ => usage(),
        }
    }
    let dir = need_store(store_dir);
    if dead.is_empty() && !all {
        eprintln!("error: reap needs --dead WID (repeatable) or --all");
        std::process::exit(2);
    }
    let is_dead = |w: &str| all || dead.iter().any(|d| d == w);
    let report = distributed::reap(&dir, &is_dead).unwrap_or_else(|e| fatal(&e));
    println!("reap: {} reclaimed, {} live hold(s) spared", report.reclaimed, report.live);
}

fn cmd_merge(mut args: impl Iterator<Item = String>) {
    let mut store_dir: Option<PathBuf> = None;
    let mut results_dir: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut workers: Option<usize> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--store" => store_dir = args.next().map(PathBuf::from),
            "--results" => results_dir = args.next(),
            "--telemetry" => telemetry_path = args.next(),
            "--jobs" => workers = Some(tvp_bench::jobs_or_exit(args.next().as_deref())),
            _ => usage(),
        }
    }
    let dir = need_store(store_dir);
    let man = CampaignManifest::load(&dir).unwrap_or_else(|e| fatal(&e));
    // The merge is the ordinary engine run against the campaign
    // store: published points load warm (fully re-verified), orphans
    // simulate locally, assembly is serial in fixed experiment order
    // — byte-identical to a serial run of the same campaign.
    let opts = RunOptions {
        workers,
        insts: man.insts,
        store_dir: Some(dir),
        store_kill_after: tvp_bench::env_u64_or_exit("TVP_STORE_KILL_AFTER"),
        results_dir,
        telemetry_path,
        ..RunOptions::default()
    };
    let report = engine::run(&experiments::all(), &opts);
    std::process::exit(engine::exit_code(&report));
}
