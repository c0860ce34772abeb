//! # tvp-bench — experiment harness
//!
//! One experiment per table/figure of the paper, all run by one binary:
//! `run_all [NAME…]` (see DESIGN.md §4 for the index of names). This
//! library holds the shared machinery: the experiment engine and its
//! pool, configuration shorthand, geometric means and machine-readable
//! result dumps.
//!
//! `run_all` takes the instruction budget through `--insts` or the
//! `TVP_INSTS` environment variable (architectural instructions per
//! workload; default 300,000 — a scaled-down SimPoint) and writes JSON
//! next to its stdout tables into `results/`. The library itself prints
//! nothing to stdout: the engine returns the tables as text and the
//! binary prints them ([`outln!`]).

use tvp_core::config::VpMode;
use tvp_core::stats::SimStats;
use tvp_workloads::suite::Workload;
use tvp_workloads::trace::Trace;

pub mod cache;
pub mod distributed;
pub mod engine;
pub mod experiments;
#[cfg(test)]
mod fingerprint_tests;
pub mod jobs;
pub mod runner;
pub mod sampling;
pub mod store;
pub mod telemetry;

/// Default per-workload instruction budget.
pub const DEFAULT_INSTS: u64 = 300_000;

/// Parses an optional unsigned-integer setting. `Ok(None)` when unset;
/// a *set but malformed* value is an error, never a silent fallback. A
/// typo in `TVP_STORE_KILL_AFTER` used to silently disable the chaos
/// knob the crash-safety CI depends on, and a typo in `TVP_INSTS`
/// silently ran the default budget — both now fail loudly.
pub fn parse_env_u64(name: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    match raw {
        None => Ok(None),
        Some(s) => s.trim().parse::<u64>().map(Some).map_err(|_| {
            format!("{name} must be an unsigned integer, got {s:?} — fix or unset it")
        }),
    }
}

/// Reads `name` from the environment through [`parse_env_u64`],
/// exiting with code 2 (the CLI usage-error code) on a malformed
/// value.
#[must_use]
pub fn env_u64_or_exit(name: &str) -> Option<u64> {
    let raw = match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            eprintln!("error: {name} is set but is not valid UTF-8 — fix or unset it");
            std::process::exit(2);
        }
    };
    match parse_env_u64(name, raw.as_deref()) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// Parses a `--jobs N` value: a positive worker count. A missing,
/// malformed or zero value exits with code 2 (the CLI usage-error
/// code) instead of quietly running one worker.
#[must_use]
pub fn jobs_or_exit(raw: Option<&str>) -> usize {
    match raw.and_then(|s| s.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("error: --jobs needs a positive integer, got {:?}", raw.unwrap_or(""));
            std::process::exit(2);
        }
    }
}

/// Checks an instruction budget read from `source` (the `--insts` flag
/// or the `TVP_INSTS` variable): zero exits with code 2 (the CLI
/// usage-error code) instead of simulating nothing and printing
/// all-zero tables — which an accuracy gate would pass.
#[must_use]
pub fn insts_or_exit(source: &str, insts: u64) -> u64 {
    if insts == 0 {
        eprintln!("error: {source} needs a positive instruction count, got 0");
        std::process::exit(2);
    }
    insts
}

/// Reports an I/O failure the run cannot continue past (an unusable
/// store, an unwritable results directory or file) as one
/// `FATAL: <context>: <err>` line and exits with code 2, the code for
/// an unusable store — a loud, structured failure instead of a panic.
pub fn fatal(context: &str, err: &dyn std::fmt::Display) -> ! {
    eprintln!("FATAL: {context}: {err}");
    std::process::exit(2);
}

/// Writes one line of a binary's stdout report. A closed pipe (a
/// reader such as `head` that has seen enough) ends the output and
/// leaves the binary to finish with its own exit status; any other
/// write error is [`fatal`]. `println!` panics on both. Called through
/// [`outln!`].
pub fn out(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            fatal("cannot write to stdout", &e);
        }
    }
}

/// `println!` for the binaries' stdout reports, through [`out`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::out(format_args!($($arg)*))
    };
}

/// `println!` into a `String`: appends one line to a report that a
/// binary prints later. Writing to a `String` cannot fail.
macro_rules! textln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}
pub(crate) use textln;

/// A workload with its materialized trace, the element of
/// [`ExpContext::prepared`](experiments::ExpContext::prepared). The
/// engine builds none: the pool builds each trace on demand
/// ([`runner::run_jobs`]). It exists only for simbench's traced driver
/// and goes in ROADMAP item 2(b).
pub struct PreparedWorkload {
    /// The workload definition.
    pub workload: Workload,
    /// Its dynamic trace at the configured budget.
    pub trace: Trace,
}

/// Geometric mean of `new/old` cycle-count speedups, as the paper
/// reports (Figs. 3 and 5, Table 3).
#[must_use]
pub fn geomean_speedup(pairs: &[(SimStats, SimStats)]) -> f64 {
    if pairs.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = pairs.iter().map(|(new, base)| new.speedup_over(base).ln()).sum();
    (log_sum / pairs.len() as f64).exp()
}

/// Arithmetic mean.
#[must_use]
pub fn amean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Harmonic mean (Fig. 2's IPC average).
#[must_use]
pub fn hmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
    }
}

/// Speedup in percent over a baseline.
#[must_use]
pub fn speedup_pct(new: &SimStats, base: &SimStats) -> f64 {
    (new.speedup_over(base) - 1.0) * 100.0
}

/// JSON-friendly snapshot of one simulation.
#[derive(Clone, Debug)]
pub struct StatsRow {
    /// Workload name.
    pub workload: &'static str,
    /// Configuration label (e.g. `"tvp+spsr"`).
    pub config: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Architectural instructions retired.
    pub insts: u64,
    /// µops retired.
    pub uops: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// VP coverage (`correct_used / eligible`).
    pub vp_coverage: f64,
    /// VP accuracy.
    pub vp_accuracy: f64,
    /// VP-misprediction pipeline flushes.
    pub vp_flushes: u64,
    /// Branch mispredictions.
    pub branch_mispredicts: u64,
    /// Integer PRF reads.
    pub prf_reads: u64,
    /// Integer PRF writes.
    pub prf_writes: u64,
    /// µops dispatched into the IQ.
    pub iq_dispatched: u64,
    /// µops issued.
    pub iq_issued: u64,
    /// Rename eliminations: zero idiom.
    pub zero_idiom: u64,
    /// Rename eliminations: one idiom.
    pub one_idiom: u64,
    /// Rename eliminations: move elimination.
    pub move_elim: u64,
    /// Rename eliminations: 9-bit idiom.
    pub nine_bit_idiom: u64,
    /// Rename eliminations: SpSR.
    pub spsr: u64,
    /// Moves blocked by the width restriction.
    pub non_me_move: u64,
}

impl StatsRow {
    /// Builds a row from a simulation result.
    #[must_use]
    pub fn new(workload: &'static str, config: impl Into<String>, s: &SimStats) -> Self {
        StatsRow {
            workload,
            config: config.into(),
            cycles: s.cycles,
            insts: s.insts_retired,
            uops: s.uops_retired,
            ipc: s.ipc(),
            vp_coverage: s.vp.coverage(),
            vp_accuracy: s.vp.accuracy(),
            vp_flushes: s.flush.vp_flushes,
            branch_mispredicts: s.flush.branch_mispredicts,
            prf_reads: s.activity.int_prf_reads,
            prf_writes: s.activity.int_prf_writes,
            iq_dispatched: s.activity.iq_dispatched,
            iq_issued: s.activity.iq_issued,
            zero_idiom: s.rename.zero_idiom,
            one_idiom: s.rename.one_idiom,
            move_elim: s.rename.move_elim,
            nine_bit_idiom: s.rename.nine_bit_idiom,
            spsr: s.rename.spsr,
            non_me_move: s.rename.non_me_move,
        }
    }
}

/// The workspace's one JSON writer, `tvp_obs::json`, re-exported for
/// this crate's documents and for simbench.
pub use tvp_obs::json;

impl StatsRow {
    /// Serialises the row as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::Layout::Lines.object(&[
            ("workload", json::string(self.workload)),
            ("config", json::string(&self.config)),
            ("cycles", self.cycles.to_string()),
            ("insts", self.insts.to_string()),
            ("uops", self.uops.to_string()),
            ("ipc", json::number(self.ipc)),
            ("vp_coverage", json::number(self.vp_coverage)),
            ("vp_accuracy", json::number(self.vp_accuracy)),
            ("vp_flushes", self.vp_flushes.to_string()),
            ("branch_mispredicts", self.branch_mispredicts.to_string()),
            ("prf_reads", self.prf_reads.to_string()),
            ("prf_writes", self.prf_writes.to_string()),
            ("iq_dispatched", self.iq_dispatched.to_string()),
            ("iq_issued", self.iq_issued.to_string()),
            ("zero_idiom", self.zero_idiom.to_string()),
            ("one_idiom", self.one_idiom.to_string()),
            ("move_elim", self.move_elim.to_string()),
            ("nine_bit_idiom", self.nine_bit_idiom.to_string()),
            ("spsr", self.spsr.to_string()),
            ("non_me_move", self.non_me_move.to_string()),
        ])
    }
}

/// The VP flavours of Fig. 3, with display labels.
pub const VP_FLAVOURS: [(VpMode, &str); 3] =
    [(VpMode::Mvp, "Min. VP"), (VpMode::Tvp, "Tar. VP"), (VpMode::Gvp, "Gen. VP")];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_behave() {
        assert!((hmean(&[1.0, 4.0]) - 1.6).abs() < 1e-12);
        assert!((amean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        let base = SimStats { cycles: 100, ..Default::default() };
        let fast = SimStats { cycles: 80, ..Default::default() };
        let g = geomean_speedup(&[(fast, base), (base, base)]);
        assert!((g - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn env_settings_parse_loudly() {
        assert_eq!(parse_env_u64("TVP_INSTS", None), Ok(None));
        assert_eq!(parse_env_u64("TVP_INSTS", Some("300000")), Ok(Some(300_000)));
        assert_eq!(parse_env_u64("TVP_INSTS", Some(" 42\n")), Ok(Some(42)));
        // Malformed values are errors, not silent defaults — the old
        // `.ok().and_then(|s| s.parse().ok())` pattern discarded these.
        for bad in ["", "3x", "-1", "1.5", "0x10", "lots"] {
            let err = parse_env_u64("TVP_STORE_KILL_AFTER", Some(bad)).unwrap_err();
            assert!(
                err.contains("TVP_STORE_KILL_AFTER") && err.contains(&format!("{bad:?}")),
                "error should name the variable and the value: {err}"
            );
        }
    }

    #[test]
    fn stats_row_snapshot() {
        let s = SimStats { cycles: 10, insts_retired: 20, uops_retired: 22, ..Default::default() };
        let row = StatsRow::new("k", "base", &s);
        assert_eq!(row.ipc, 2.0);
        assert_eq!(row.uops, 22);
    }
}
