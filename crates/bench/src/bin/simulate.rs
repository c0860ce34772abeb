//! Interactive simulator driver: run any workload under any
//! configuration and print a gem5-style statistics report.
//!
//! ```text
//! cargo run --release -p tvp-bench --bin simulate -- --list
//! cargo run --release -p tvp-bench --bin simulate -- pointer_chase --vp gvp --insts 200000
//! cargo run --release -p tvp-bench --bin simulate -- mc_playout --vp mvp --spsr --no-stride-prefetch
//! cargo run --release -p tvp-bench --bin simulate -- pointer_chase --vp gvp --chaos-seed 7 --oracle
//! cargo run --release -p tvp-bench --bin simulate -- pixel_encode --vp tvp --trace trace.json
//! ```
//!
//! Exit code `2` is a usage error (an unknown workload or flag, or a
//! flag the chosen mode would ignore) or an I/O failure (an unusable
//! checkpoint store, an unwritable trace file), reported as one
//! `FATAL:` line. Verification exit codes (all print the reproducing
//! chaos seed when a campaign is armed):
//!
//! * `3` — the golden-model commit oracle found a divergence;
//! * `4` — the deadlock watchdog tripped (no commit progress), in a
//!   full or a `--sample` run;
//! * `5` — an invariant auditor reported a violation (full runs audit
//!   every 1,000 cycles and at the end).

use tvp_bench::outln;
use tvp_chaos::ChaosConfig;
use tvp_core::config::{CoreConfig, VpMode};
use tvp_core::pipeline::Core;

fn usage() -> ! {
    eprintln!(
        "usage: simulate <workload> [--vp off|mvp|tvp|gvp] [--spsr] \
         [--insts N] [--silence N] [--adaptive-silencing] \
         [--no-stride-prefetch] [--no-ampm] [--baseline-too] \
         [--trace FILE]\n       \
         chaos: [--chaos-seed N] [--chaos-vp-permille N] \
         [--chaos-branch-permille N] [--chaos-cache-permille N] \
         [--sabotage] [--oracle] [--watchdog CYCLES]\n       \
         sampling: [--sample PERIOD:WARMUP:MEASURED] [--checkpoint DIR]\n       \
         simulate --list"
    );
    std::process::exit(2);
}

/// Parses a `--chaos-*-permille` rate for `flag`: a value above 1000
/// exits 2 naming the flag, rather than being clamped silently.
fn permille(flag: &str, raw: Option<&String>) -> u32 {
    match raw.and_then(|s| s.parse::<u32>().ok()) {
        Some(rate) if rate <= 1000 => rate,
        _ => {
            eprintln!(
                "error: {flag} needs a rate in 0..=1000, got {:?}",
                raw.map_or("", String::as_str)
            );
            std::process::exit(2);
        }
    }
}

/// The reproducing chaos seed, appended to every verification
/// `FATAL:` line when a campaign is armed.
fn seed_note(seed: Option<u64>) -> String {
    seed.map_or_else(String::new, |seed| format!(" [chaos seed {seed:#x}]"))
}

/// Sampled-simulation mode (`--sample P:W:M`): fast-forward between
/// intervals, simulate warmup + measured windows in detail, print the
/// weighted whole-trace reconstruction. With `--checkpoint DIR`, the
/// machine state and finished intervals are published through the
/// durable store after every interval (honouring
/// `$TVP_STORE_KILL_AFTER`), and a later invocation resumes mid-trace.
/// A tripped watchdog exits 4 with the deadlock dump, as full runs do.
fn run_sampled_mode(
    workload: &tvp_workloads::Workload,
    cfg: &CoreConfig,
    insts: u64,
    spec: tvp_bench::sampling::SampleSpec,
    checkpoint_dir: Option<&str>,
) {
    use tvp_bench::sampling::{run_sampled, SampleRunOptions};
    use tvp_bench::store::{ResultStore, StoreConfig};

    let store = checkpoint_dir.map(|dir| {
        let kill_after = tvp_bench::env_u64_or_exit("TVP_STORE_KILL_AFTER");
        let s =
            ResultStore::open(StoreConfig { dir: dir.into(), kill_after }).unwrap_or_else(|e| {
                tvp_bench::fatal(&format!("cannot open checkpoint store {dir}"), &e)
            });
        std::sync::Mutex::new(s)
    });
    eprintln!(
        "sampled simulation: {} ({insts} arch insts, spec {}, {:.2}% detail)...",
        workload.name,
        spec.display(),
        spec.detail_fraction() * 100.0
    );
    let opts = SampleRunOptions { store: store.as_ref(), stop_after_intervals: None };
    let run = run_sampled(workload, cfg, insts, spec, opts).unwrap_or_else(|diag| {
        eprintln!("FATAL: {diag}{}", seed_note(cfg.chaos.as_ref().map(|c| c.seed)));
        std::process::exit(4);
    });
    let est = run.estimate();

    outln!("---------- {} ({}) [sampled] ----------", workload.name, workload.proxy);
    outln!("sample spec            {:>12}", spec.display());
    outln!("intervals              {:>12}", run.intervals.len());
    outln!("resumed intervals      {:>12}", run.resumed_intervals);
    outln!("insts consumed         {:>12}", run.total_insts);
    outln!("insts fast-forwarded   {:>12}", run.skipped_insts);
    outln!("insts warmed up        {:>12}", run.warmup_insts);
    outln!("insts measured         {:>12}", run.measured_insts);
    outln!("halted early           {:>12}", run.halted);
    outln!("run fingerprint        {:>12}", format!("{:016x}", run.fingerprint()));
    outln!("-- reconstructed whole-trace estimates");
    outln!("est. cycles            {:>12.0}", est.cycles);
    outln!("est. IPC               {:>12.4}", est.ipc());
    outln!("est. branch MPKI       {:>12.4}", est.branch_mpki());
    outln!("est. VP MPKI           {:>12.4}", est.vp_mpki());
    outln!("est. SpSR coverage     {:>12.4}", est.spsr_coverage());
    if let Some(s) = &store {
        eprintln!("[store] {}", s.lock().expect("store lock poisoned").summary());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "--list" {
        outln!("{:<18} {:<20} {:>6}", "workload", "proxy", "insts");
        for w in tvp_workloads::suite() {
            outln!("{:<18} {:<20} {:>6}", w.name, w.proxy, w.code_size());
        }
        return;
    }

    let name = args[0].clone();
    let mut cfg = CoreConfig::table2();
    let mut insts: u64 = 300_000;
    let mut baseline_too = false;
    let mut chaos: Option<ChaosConfig> = None;
    let mut sabotage = false;
    let mut oracle = false;
    let mut trace_out: Option<String> = None;
    let mut sample: Option<tvp_bench::sampling::SampleSpec> = None;
    let mut checkpoint_dir: Option<String> = None;
    let mut it = args.iter().skip(1);
    let parse_num =
        |s: Option<&String>| -> u64 { s.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()) };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--vp" => {
                let mode = it.next().unwrap_or_else(|| usage());
                cfg.vp = match mode.as_str() {
                    "off" => VpMode::Off,
                    "mvp" => VpMode::Mvp,
                    "tvp" => VpMode::Tvp,
                    "gvp" => VpMode::Gvp,
                    _ => usage(),
                };
                cfg.nine_bit_idiom = cfg.vp.uses_inlining();
            }
            "--spsr" => cfg.spsr = true,
            "--insts" => insts = tvp_bench::insts_or_exit("--insts", parse_num(it.next())),
            "--silence" => cfg.silence_cycles = parse_num(it.next()),
            "--adaptive-silencing" => cfg.adaptive_silencing = true,
            "--no-stride-prefetch" => cfg.mem.stride_prefetcher = false,
            "--no-ampm" => cfg.mem.ampm_prefetcher = false,
            "--baseline-too" => baseline_too = true,
            "--chaos-seed" => chaos = Some(ChaosConfig::campaign(parse_num(it.next()))),
            "--chaos-vp-permille" => {
                let rate = permille(arg, it.next());
                chaos
                    .get_or_insert_with(|| ChaosConfig::campaign(1))
                    .vp_force_mispredict_permille = rate;
            }
            "--chaos-branch-permille" => {
                let rate = permille(arg, it.next());
                chaos.get_or_insert_with(|| ChaosConfig::campaign(1)).branch_invert_permille = rate;
            }
            "--chaos-cache-permille" => {
                let rate = permille(arg, it.next());
                chaos.get_or_insert_with(|| ChaosConfig::campaign(1)).cache_delay_permille = rate;
            }
            "--sabotage" => sabotage = true,
            "--oracle" => oracle = true,
            "--trace" => trace_out = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--sample" => {
                let spec = it.next().unwrap_or_else(|| usage());
                sample = Some(tvp_bench::sampling::SampleSpec::parse(spec).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                }));
            }
            "--checkpoint" => checkpoint_dir = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--watchdog" => cfg.watchdog_cycles = parse_num(it.next()),
            _ => usage(),
        }
    }
    if sabotage {
        chaos.get_or_insert_with(|| ChaosConfig::campaign(1)).sabotage =
            Some(tvp_chaos::Sabotage::SkipCursorRollback);
    }
    cfg.chaos = chaos;

    let Some(workload) = tvp_workloads::suite::by_name(&name) else {
        eprintln!("error: unknown workload `{name}` (try --list)");
        std::process::exit(2);
    };
    // A flag the chosen mode never reads is a usage error, not a no-op.
    let ignored = if sample.is_some() {
        [("--trace", trace_out.is_some()), ("--oracle", oracle), ("--baseline-too", baseline_too)]
            .into_iter()
            .find_map(|(flag, set)| set.then_some(flag))
    } else {
        checkpoint_dir.is_some().then_some("--checkpoint")
    };
    if let Some(flag) = ignored {
        let why = if sample.is_some() { "has no effect with --sample" } else { "needs --sample" };
        eprintln!("error: {flag} {why}");
        std::process::exit(2);
    }

    if let Some(spec) = sample {
        run_sampled_mode(&workload, &cfg, insts, spec, checkpoint_dir.as_deref());
        return;
    }

    eprintln!("generating trace: {name} ({insts} arch insts)...");
    let mut machine = workload.machine();
    let init = machine.arch_snapshot();
    let trace = machine.run(insts);
    let golden = machine.arch_snapshot();
    eprintln!("simulating...");
    let mut core = Core::new(cfg.clone());
    core.enable_audit(1_000);
    if oracle {
        core.enable_oracle(&init);
    }
    if trace_out.is_some() {
        core.enable_tracing(tvp_core::pipeline::DEFAULT_TRACE_CAPACITY);
    }
    let s = core.run(&trace);

    // Export the event trace *before* the verification gates below so a
    // divergence (exit 3) or watchdog fire (exit 4) still ships its
    // flight-recorder history to disk.
    if let Some(path) = &trace_out {
        let json = tvp_obs::export::chrome_trace(
            &core.trace_events(),
            core.trace_dropped(),
            &core.export_registry(),
        );
        if let Err(e) = std::fs::write(path, json) {
            tvp_bench::fatal(&format!("cannot write trace file {path}"), &e);
        }
        eprintln!(
            "trace written: {path} ({} events, {} dropped)",
            core.trace_events().len(),
            core.trace_dropped()
        );
    }

    outln!("---------- {} ({}) ----------", workload.name, workload.proxy);
    outln!(
        "config                 vp={:?} spsr={} silence={}{}",
        cfg.vp,
        cfg.spsr,
        cfg.silence_cycles,
        if cfg.adaptive_silencing { "+adaptive" } else { "" }
    );
    if let Some(seed) = core.chaos_seed() {
        outln!("chaos seed             {seed:#x}");
    }
    for (name, value) in s.counters() {
        outln!("{name:<27} {value:>12}");
    }
    for (name, value) in s.gauges() {
        outln!("{name:<27} {value:>12.4}");
    }
    let cpi = core.cpi_stack();
    outln!("-- cycle attribution (CPI stack, retire-slot counts)");
    for (name, slots) in cpi.components() {
        outln!("{name:<22} {slots:>12} ({:>6.2}%)", cpi.fraction(slots) * 100.0);
    }
    outln!("attributed slots       {:>12} (= cycles x width: {})", cpi.total(), {
        if cpi.total() == s.cycles.saturating_mul(cfg.commit_width as u64) {
            "ok"
        } else {
            "MISMATCH"
        }
    });

    if baseline_too {
        let mut base_cfg = CoreConfig::table2();
        base_cfg.mem = cfg.mem.clone();
        let base = tvp_core::pipeline::simulate(base_cfg, &trace);
        outln!("-- vs. baseline");
        outln!("baseline cycles        {:>12}", base.cycles);
        outln!("speedup                {:>11.2}%", (s.speedup_over(&base) - 1.0) * 100.0);
    }

    // Verification gates, most root-cause first. Each prints the
    // reproducing chaos seed (the Divergence embeds it; the others
    // print it explicitly).
    let divergence = core.oracle_divergence().cloned().or_else(|| {
        if oracle {
            core.oracle_final_check(&golden)
        } else {
            None
        }
    });
    if let Some(d) = divergence {
        eprintln!("FATAL: {d}");
        std::process::exit(3);
    }
    if let Some(diag) = core.watchdog_diagnostic() {
        eprintln!("FATAL: {diag}{}", seed_note(core.chaos_seed()));
        std::process::exit(4);
    }
    if let Some(summary) = core.audit_report().first_violation_summary() {
        eprintln!("FATAL: invariant auditor violation: {summary}{}", seed_note(core.chaos_seed()));
        std::process::exit(5);
    }
}
