//! SimPoint-style sampled simulation with streaming traces.
//!
//! The paper evaluates on 100M-instruction SimPoints; cycle-simulating
//! that much dynamic instruction stream in detail is three orders of
//! magnitude beyond the whole-trace flow. This module implements the
//! classic sampling answer (see DESIGN.md §15):
//!
//! * the dynamic stream is *never* materialized — a
//!   [`TraceSource`] (normally the functional machine itself) is
//!   fast-forwarded architecturally between intervals;
//! * each sampling period of `P` instructions ends with a warmup
//!   window of `W` instructions that primes caches, TLBs and
//!   predictors on a fresh core *without charging statistics*,
//!   followed by a measured window of `M` instructions simulated in
//!   full detail;
//! * whole-trace statistics are reconstructed by weighting each
//!   measured window by the instruction count its period represents.
//!
//! Determinism: a sampled run is a pure function of
//! (workload, config, budget, spec). Every interval runs on a fresh
//! core and carries its own commit fingerprint; the run fingerprint
//! folds them in interval order, so cold runs, resumed runs and any
//! `--jobs` width must agree bit-for-bit — the same bar PR 3/PR 7 set
//! for full runs.
//!
//! Checkpoint/resume rides the PR 7 durable store: after each interval
//! the machine's architectural state plus every finished interval is
//! published as a self-verifying checkpoint blob (see
//! [`crate::store::checkpoint`]), so a killed campaign resumes
//! mid-trace without re-executing the prefix.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tvp_chaos::DeadlockDiagnostic;
use tvp_core::config::CoreConfig;
use tvp_core::pipeline::{simulate, Core};
use tvp_core::stats::SimStats;
use tvp_isa::stream::{fnv1a, fnv1a_fold, FNV1A_OFFSET};
use tvp_workloads::stream::{MachineSource, TraceSource};
use tvp_workloads::suite::Workload;
use tvp_workloads::trace::Trace;

use crate::jobs::ExpKey;
use crate::json;
use crate::json::Layout::Lines;
use crate::store::checkpoint::Checkpoint;
use crate::store::{LoadOutcome, ResultStore};

/// Upper bound on the functionally-warmed tail of each interval's skip
/// phase. Skipped instructions beyond this window are fast-forwarded
/// raw; the last `min(skip, cap)` additionally train caches and
/// predictors through [`Core::functional_warm`]. Bounding the window
/// keeps the per-interval cost flat as the period grows, and keeps
/// every interval a pure function of its own period (the
/// resume-determinism invariant).
pub const FUNCTIONAL_WARMING_CAP: u64 = 100_000;

/// Chunk size the warming tail is streamed in: one chunk of µop
/// records is materialized at a time, so memory stays flat no matter
/// how long the warming window is.
pub const FUNCTIONAL_WARMING_CHUNK: u64 = 16_384;

/// One sampling configuration: every `period` architectural
/// instructions, the last `warmup + measured` are simulated in detail
/// and only the final `measured` are charged to statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SampleSpec {
    /// Sampling period (architectural instructions per interval).
    pub period: u64,
    /// Detailed-but-unmeasured warmup instructions per interval.
    pub warmup: u64,
    /// Measured instructions per interval.
    pub measured: u64,
}

impl SampleSpec {
    /// Validates and builds a spec.
    ///
    /// # Errors
    ///
    /// A description of the violated constraint (`measured ≥ 1`,
    /// `warmup + measured ≤ period`).
    pub fn new(period: u64, warmup: u64, measured: u64) -> Result<Self, String> {
        if measured == 0 {
            return Err("sample spec: measured window must be at least 1 instruction".into());
        }
        let detailed = warmup.checked_add(measured).ok_or("sample spec: overflow")?;
        if detailed > period {
            return Err(format!(
                "sample spec: warmup ({warmup}) + measured ({measured}) exceed period ({period})"
            ));
        }
        Ok(SampleSpec { period, warmup, measured })
    }

    /// Parses the CLI form `PERIOD:WARMUP:MEASURED`.
    ///
    /// # Errors
    ///
    /// A description of the parse or constraint failure.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 3 {
            return Err(format!("sample spec `{s}`: expected PERIOD:WARMUP:MEASURED"));
        }
        let num = |p: &str| -> Result<u64, String> {
            p.replace('_', "").parse().map_err(|_| format!("sample spec `{s}`: bad number `{p}`"))
        };
        SampleSpec::new(num(parts[0])?, num(parts[1])?, num(parts[2])?)
    }

    /// Fraction of the stream simulated in detail (warmup + measured).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn detail_fraction(&self) -> f64 {
        if self.period == 0 {
            return 1.0;
        }
        (self.warmup + self.measured) as f64 / self.period as f64
    }

    /// Canonical display form (`period:warmup:measured`).
    #[must_use]
    pub fn display(&self) -> String {
        format!("{}:{}:{}", self.period, self.warmup, self.measured)
    }
}

/// Identity of one *sampled* simulation point: the underlying
/// experiment key plus the sampling spec. Digests are domain-separated
/// from full-run [`ExpKey`] digests so checkpoints and result blobs
/// can never collide across the two spaces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleKey {
    /// The underlying (workload × config × budget) identity.
    pub exp: ExpKey,
    /// The sampling configuration.
    pub spec: SampleSpec,
}

impl SampleKey {
    /// Keys a sampled point.
    #[must_use]
    pub fn new(workload: &'static str, insts: u64, cfg: &CoreConfig, spec: SampleSpec) -> Self {
        SampleKey { exp: ExpKey::new(workload, insts, cfg), spec }
    }

    /// Content digest (FNV-1a over the experiment digest, a domain
    /// tag, and the spec fields).
    #[must_use]
    pub fn digest(&self) -> u64 {
        sample_digest(self.exp.digest(), &self.spec)
    }

    /// Human-readable form for reports.
    #[must_use]
    pub fn display(&self) -> String {
        format!("{}~{}#{:016x}", self.exp.display(), self.spec.display(), self.digest())
    }
}

/// The [`SampleKey`] digest from its parts, shared with the key echoed
/// in a checkpoint file.
pub(crate) fn sample_digest(exp_digest: u64, spec: &SampleSpec) -> u64 {
    let words = [exp_digest, spec.period, spec.warmup, spec.measured];
    words.iter().fold(fnv1a(b"sampled"), |h, w| fnv1a_fold(h, &w.to_le_bytes()))
}

/// The measured outcome of one sampled interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalResult {
    /// Interval index (0-based, in stream order).
    pub index: u32,
    /// Global µop sequence number where the measured window began.
    pub start_seq: u64,
    /// Architectural instructions this interval stands for (the whole
    /// period, or the actual tail when the machine halted early).
    pub represented_insts: u64,
    /// Architectural instructions actually measured.
    pub measured_insts: u64,
    /// µops actually measured.
    pub measured_uops: u64,
    /// Full statistics of the measured window.
    pub stats: SimStats,
    /// Commit fingerprint of the measured window — the per-interval
    /// determinism witness.
    pub fingerprint: u64,
}

/// A complete sampled run: per-interval results plus stream totals.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SampledRun {
    /// Every measured interval, in stream order.
    pub intervals: Vec<IntervalResult>,
    /// Architectural instructions consumed from the stream in total
    /// (fast-forwarded + warmup + measured).
    pub total_insts: u64,
    /// Instructions functionally fast-forwarded (never detailed).
    pub skipped_insts: u64,
    /// Instructions simulated as unmeasured warmup.
    pub warmup_insts: u64,
    /// Instructions simulated and measured.
    pub measured_insts: u64,
    /// Whether the machine halted before the budget was exhausted.
    pub halted: bool,
    /// Intervals served from a resume checkpoint instead of being
    /// re-simulated (0 on a cold run; telemetry only, excluded from
    /// the fingerprint so cold and resumed runs compare equal).
    pub resumed_intervals: u32,
}

impl SampledRun {
    /// Order-sensitive fingerprint over every interval's fingerprint
    /// and identity — byte-identity witness across `--jobs` widths and
    /// kill/resume.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.intervals
            .iter()
            .flat_map(|iv| {
                [
                    u64::from(iv.index),
                    iv.start_seq,
                    iv.represented_insts,
                    iv.measured_insts,
                    iv.measured_uops,
                    iv.fingerprint,
                    iv.stats.cycles,
                ]
            })
            .chain([self.total_insts])
            .fold(FNV1A_OFFSET, |h, w| fnv1a_fold(h, &w.to_le_bytes()))
    }

    /// Weighted whole-trace reconstruction (see DESIGN.md §15): every
    /// measured counter is scaled by its interval's weight
    /// `represented_insts / measured_insts` and summed.
    #[must_use]
    pub fn estimate(&self) -> SampleEstimate {
        let mut e = SampleEstimate::default();
        for iv in &self.intervals {
            if iv.measured_insts == 0 {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let w = iv.represented_insts as f64 / iv.measured_insts as f64;
            #[allow(clippy::cast_precision_loss)]
            let scale = |v: u64| v as f64 * w;
            let s = &iv.stats;
            e.insts += scale(s.insts_retired);
            e.uops += scale(s.uops_retired);
            e.cycles += scale(s.cycles);
            e.branch_mispredicts += scale(s.flush.branch_mispredicts);
            e.vp_used += scale(s.vp.used);
            e.vp_incorrect += scale(s.vp.incorrect_used);
            e.rename_uops += scale(s.rename.uops);
            e.spsr += scale(s.rename.spsr);
        }
        e
    }
}

/// Whole-trace statistics reconstructed from the weighted intervals.
/// Floating point is fine here (reports only — fingerprints and
/// checkpoints stay integer).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SampleEstimate {
    /// Estimated retired architectural instructions.
    pub insts: f64,
    /// Estimated retired µops.
    pub uops: f64,
    /// Estimated cycles.
    pub cycles: f64,
    /// Estimated branch mispredictions.
    pub branch_mispredicts: f64,
    /// Estimated value predictions consumed.
    pub vp_used: f64,
    /// Estimated incorrect consumed value predictions.
    pub vp_incorrect: f64,
    /// Estimated renamed µops.
    pub rename_uops: f64,
    /// Estimated SpSR-strength-reduced µops.
    pub spsr: f64,
}

impl SampleEstimate {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles > 0.0 {
            self.insts / self.cycles
        } else {
            0.0
        }
    }

    /// Branch mispredictions per kilo-instruction.
    #[must_use]
    pub fn branch_mpki(&self) -> f64 {
        if self.insts > 0.0 {
            self.branch_mispredicts * 1000.0 / self.insts
        } else {
            0.0
        }
    }

    /// Incorrect consumed value predictions per kilo-instruction.
    #[must_use]
    pub fn vp_mpki(&self) -> f64 {
        if self.insts > 0.0 {
            self.vp_incorrect * 1000.0 / self.insts
        } else {
            0.0
        }
    }

    /// Fraction of renamed µops that SpSR strength-reduced.
    #[must_use]
    pub fn spsr_coverage(&self) -> f64 {
        if self.rename_uops > 0.0 {
            self.spsr / self.rename_uops
        } else {
            0.0
        }
    }

    /// The same headline stats computed from a *full* run's
    /// statistics, for error-bound comparison.
    #[must_use]
    pub fn from_full(s: &SimStats) -> SampleEstimate {
        #[allow(clippy::cast_precision_loss)]
        let f = |v: u64| v as f64;
        SampleEstimate {
            insts: f(s.insts_retired),
            uops: f(s.uops_retired),
            cycles: f(s.cycles),
            branch_mispredicts: f(s.flush.branch_mispredicts),
            vp_used: f(s.vp.used),
            vp_incorrect: f(s.vp.incorrect_used),
            rename_uops: f(s.rename.uops),
            spsr: f(s.rename.spsr),
        }
    }
}

/// Declared per-stat error bounds for sampled-vs-full validation:
/// relative for IPC, absolute for the rate stats (which sit near zero
/// for many workloads, where relative error is meaningless).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorBounds {
    /// Max relative IPC error (|sampled − full| / full).
    pub ipc_rel: f64,
    /// Max absolute branch-MPKI error.
    pub branch_mpki_abs: f64,
    /// Max absolute VP-MPKI error.
    pub vp_mpki_abs: f64,
    /// Max absolute SpSR-coverage error (coverage is already a
    /// fraction in [0, 1]).
    pub spsr_coverage_abs: f64,
}

/// Default bounds the accuracy suite holds every workload to, derived
/// empirically: observed worst-case error across the 25-workload suite
/// under the paper's TVP+SpSR configuration at the accuracy-test spec,
/// plus headroom. The IPC bound is dominated by the cold-start bias of
/// fresh-core intervals on workloads whose training horizon exceeds
/// one sampling period (`stream_triad_2`, `discrete_event` — see
/// DESIGN.md §15); functional warming of the skip tail roughly halves
/// that bias but cannot see past the period boundary. Tightening these
/// is a deliberate act, loosening them is a regression.
pub const DEFAULT_BOUNDS: ErrorBounds =
    ErrorBounds { ipc_rel: 0.40, branch_mpki_abs: 3.0, vp_mpki_abs: 1.0, spsr_coverage_abs: 0.10 };

/// Sampled-vs-full error of one workload's headline stats.
#[derive(Clone, Debug, PartialEq)]
pub struct StatErrors {
    /// Workload name.
    pub workload: String,
    /// Full-run headline stats.
    pub full: SampleEstimate,
    /// Sampled reconstruction.
    pub sampled: SampleEstimate,
    /// Relative IPC error.
    pub ipc_rel_err: f64,
    /// Absolute branch-MPKI error.
    pub branch_mpki_err: f64,
    /// Absolute VP-MPKI error.
    pub vp_mpki_err: f64,
    /// Absolute SpSR-coverage error.
    pub spsr_coverage_err: f64,
}

impl StatErrors {
    /// Compares a sampled reconstruction against full-run stats.
    #[must_use]
    pub fn compare(workload: &str, full: &SimStats, sampled: &SampleEstimate) -> StatErrors {
        let full = SampleEstimate::from_full(full);
        let ipc_rel_err = if full.ipc() > 0.0 {
            (sampled.ipc() - full.ipc()).abs() / full.ipc()
        } else {
            sampled.ipc().abs()
        };
        StatErrors {
            workload: workload.to_owned(),
            full,
            sampled: *sampled,
            ipc_rel_err,
            branch_mpki_err: (sampled.branch_mpki() - full.branch_mpki()).abs(),
            vp_mpki_err: (sampled.vp_mpki() - full.vp_mpki()).abs(),
            spsr_coverage_err: (sampled.spsr_coverage() - full.spsr_coverage()).abs(),
        }
    }

    /// The bounds this comparison violates (empty = pass).
    #[must_use]
    pub fn violations(&self, bounds: &ErrorBounds) -> Vec<String> {
        let mut v = Vec::new();
        if self.ipc_rel_err > bounds.ipc_rel {
            v.push(format!("ipc: rel err {:.4} > bound {:.4}", self.ipc_rel_err, bounds.ipc_rel));
        }
        if self.branch_mpki_err > bounds.branch_mpki_abs {
            v.push(format!(
                "branch_mpki: abs err {:.4} > bound {:.4}",
                self.branch_mpki_err, bounds.branch_mpki_abs
            ));
        }
        if self.vp_mpki_err > bounds.vp_mpki_abs {
            v.push(format!(
                "vp_mpki: abs err {:.4} > bound {:.4}",
                self.vp_mpki_err, bounds.vp_mpki_abs
            ));
        }
        if self.spsr_coverage_err > bounds.spsr_coverage_abs {
            v.push(format!(
                "spsr_coverage: abs err {:.4} > bound {:.4}",
                self.spsr_coverage_err, bounds.spsr_coverage_abs
            ));
        }
        v
    }

    /// True when every stat is within `bounds`.
    #[must_use]
    pub fn passes(&self, bounds: &ErrorBounds) -> bool {
        self.violations(bounds).is_empty()
    }

    /// Machine-readable JSON object for the error report artifact.
    #[must_use]
    pub fn to_json(&self, bounds: &ErrorBounds) -> String {
        Lines.object(&[
            ("workload", json::string(&self.workload)),
            ("full_ipc", json::number(self.full.ipc())),
            ("sampled_ipc", json::number(self.sampled.ipc())),
            ("ipc_rel_err", json::number(self.ipc_rel_err)),
            ("full_branch_mpki", json::number(self.full.branch_mpki())),
            ("sampled_branch_mpki", json::number(self.sampled.branch_mpki())),
            ("branch_mpki_err", json::number(self.branch_mpki_err)),
            ("full_vp_mpki", json::number(self.full.vp_mpki())),
            ("sampled_vp_mpki", json::number(self.sampled.vp_mpki())),
            ("vp_mpki_err", json::number(self.vp_mpki_err)),
            ("full_spsr_coverage", json::number(self.full.spsr_coverage())),
            ("sampled_spsr_coverage", json::number(self.sampled.spsr_coverage())),
            ("spsr_coverage_err", json::number(self.spsr_coverage_err)),
            ("pass", self.passes(bounds).to_string()),
        ])
    }
}

/// Knobs of one sampled run beyond the key itself.
#[derive(Debug, Default)]
pub struct SampleRunOptions<'s> {
    /// Durable store for checkpoint publication and resume, shared
    /// behind a mutex so parallel campaign workers can interleave
    /// publications. `None` runs cold with no checkpoints.
    pub store: Option<&'s Mutex<ResultStore>>,
    /// In-process chaos knob: stop (returning the partial run) after
    /// this many *newly simulated* intervals, leaving the store in the
    /// exact state a mid-campaign kill produces. Test-only analogue of
    /// `TVP_STORE_KILL_AFTER` that composes with `#[test]` threads.
    pub stop_after_intervals: Option<u32>,
}

/// Runs one workload sampled: fast-forward / warmup / measure per
/// interval, optional checkpoint publication and resume through the
/// durable store.
///
/// # Errors
///
/// Returns the watchdog's [`DeadlockDiagnostic`] if the pipeline stops
/// making commit progress in a warmup or measured segment (a simulator
/// bug, or a `watchdog_cycles` too short for the machine). Intervals
/// finished before it are already published to the store. A checkpoint
/// that cannot be written is not returned as an error: the process
/// exits with one `FATAL:` line and code 2 ([`crate::fatal`]).
///
/// # Panics
///
/// Panics if the machine source fails (it cannot: machine execution
/// is infallible).
pub fn run_sampled(
    workload: &Workload,
    cfg: &CoreConfig,
    insts: u64,
    spec: SampleSpec,
    opts: SampleRunOptions<'_>,
) -> Result<SampledRun, Box<DeadlockDiagnostic>> {
    let key = SampleKey::new(workload.name, insts, cfg, spec);
    let SampleRunOptions { store, stop_after_intervals } = opts;

    let mut run = SampledRun::default();
    let mut source;
    // Resume from the newest valid checkpoint, if the store has one.
    if let Some(ckpt) =
        store.and_then(|m| match m.lock().expect("store lock poisoned").load_checkpoint(&key) {
            LoadOutcome::Hit(c) => Some(c),
            LoadOutcome::Miss | LoadOutcome::Quarantined(_) => None,
        })
    {
        source = MachineSource::new(workload.machine_restored(&ckpt.snapshot, ckpt.seq));
        run.intervals = ckpt.intervals;
        run.total_insts = ckpt.total_insts;
        run.skipped_insts = ckpt.skipped_insts;
        run.warmup_insts = ckpt.warmup_insts;
        run.measured_insts = ckpt.measured_insts;
        run.resumed_intervals = u32::try_from(run.intervals.len()).expect("interval count fits");
    } else {
        source = workload.source();
    }

    let mut fresh_intervals: u32 = 0;
    while run.total_insts < insts {
        let budget = insts - run.total_insts;
        // The detailed window sits at the end of the period; a final
        // partial period keeps its windows but shrinks the skip.
        let period = spec.period.min(budget).max(1);
        let detailed = (spec.warmup + spec.measured).min(period);
        let warmup = detailed.saturating_sub(spec.measured);
        let measured = detailed - warmup;
        let skip = period - detailed;

        // Fresh core per interval: its state is a pure function of the
        // interval's own records, so a resumed run replays any interval
        // byte-identically from the architectural checkpoint alone.
        let mut core = Core::new(cfg.clone());

        // Skip phase: raw fast-forward, then functionally warm the
        // tail of the skip (bounded, streamed in chunks) so caches and
        // predictors whose training horizon exceeds the detailed
        // warmup window are primed without detailed simulation.
        let fwarm = skip.min(FUNCTIONAL_WARMING_CAP);
        let mut skipped = source.skip(skip - fwarm).expect("machine source cannot fail");
        let mut halted_in_skip = skipped < skip - fwarm;
        if !halted_in_skip {
            let mut chunk = Trace::default();
            let mut warmed_func = 0u64;
            while warmed_func < fwarm {
                let want = (fwarm - warmed_func).min(FUNCTIONAL_WARMING_CHUNK);
                chunk.uops.clear();
                chunk.arch_insts = 0;
                let got = source.fill(want, &mut chunk).expect("machine source cannot fail");
                core.functional_warm(&chunk);
                warmed_func += got;
                skipped += got;
                if got < want {
                    halted_in_skip = true;
                    break;
                }
            }
        }
        run.skipped_insts += skipped;
        run.total_insts += skipped;
        if halted_in_skip {
            run.halted = true;
            break;
        }

        let mut warm = Trace::default();
        let warmed = source.fill(warmup, &mut warm).expect("machine source cannot fail");
        run.warmup_insts += warmed;
        run.total_insts += warmed;

        let start_seq = source.machine().seq();
        let mut meas = Trace::default();
        let measured_got = source.fill(measured, &mut meas).expect("machine source cannot fail");
        run.measured_insts += measured_got;
        run.total_insts += measured_got;
        if warmed < warmup || measured_got == 0 {
            run.halted = true;
            break;
        }

        if !warm.uops.is_empty() {
            let _ = core.run_segment(&warm);
            watchdog_ok(&core)?;
        }
        core.begin_measurement();
        let stats = core.run_segment(&meas);
        watchdog_ok(&core)?;

        let index = u32::try_from(run.intervals.len()).expect("interval count fits u32");
        // The interval represents everything consumed since the last
        // one (skip + warmup + measured), so weights cover the stream.
        let represented = skipped + warmed + measured_got;
        run.intervals.push(IntervalResult {
            index,
            start_seq,
            represented_insts: represented,
            measured_insts: measured_got,
            measured_uops: meas.uops.len() as u64,
            stats,
            fingerprint: core.commit_fingerprint(),
        });
        if measured_got < measured {
            run.halted = true;
        }

        if let Some(m) = store {
            let ckpt = Checkpoint {
                seq: source.machine().seq(),
                snapshot: source.machine().arch_snapshot(),
                intervals: run.intervals.clone(),
                total_insts: run.total_insts,
                skipped_insts: run.skipped_insts,
                warmup_insts: run.warmup_insts,
                measured_insts: run.measured_insts,
            };
            m.lock().expect("store lock poisoned").publish_checkpoint(&key, &ckpt).unwrap_or_else(
                |e| crate::fatal(&format!("cannot publish checkpoint {}", key.display()), &e),
            );
        }
        fresh_intervals += 1;
        if run.halted {
            break;
        }
        if stop_after_intervals.is_some_and(|n| fresh_intervals >= n) {
            return Ok(run);
        }
    }
    Ok(run)
}

/// The tripped watchdog's diagnostic as an error.
fn watchdog_ok(core: &Core) -> Result<(), Box<DeadlockDiagnostic>> {
    core.watchdog_diagnostic().map_or(Ok(()), |diag| Err(Box::new(diag.clone())))
}

/// The run, or a panic with the deadlock dump in the wording of
/// [`tvp_core::pipeline::simulate`], for callers that return no error.
fn or_deadlock_panic(run: Result<SampledRun, Box<DeadlockDiagnostic>>) -> SampledRun {
    run.unwrap_or_else(|diag| panic!("pipeline deadlock:\n{diag}"))
}

/// Maps `f` over `items` on a pool of `jobs` scoped worker threads.
/// Each result lands in its item's slot, so the output is in item
/// order regardless of worker count or completion order.
///
/// # Panics
///
/// Panics if a worker thread panics, with that worker's panic payload.
fn slot_pool<T: Sync, R: Send>(items: &[T], jobs: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.max(1).min(items.len().max(1)))
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let result = f(item);
                    *slots[i].lock().expect("slot lock poisoned") = Some(result);
                })
            })
            .collect();
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock poisoned").expect("worker filled every slot"))
        .collect()
}

/// Runs a whole workload list sampled on a pool of `jobs` worker
/// threads. Results come back in workload order regardless of worker
/// count or completion order — together with the per-interval
/// fingerprints, that makes the campaign byte-identical across
/// `--jobs` widths (the same bar the full-run pool meets).
///
/// # Panics
///
/// Panics with the deadlock dump if a run's watchdog trips, and
/// propagates any other worker panic (a failed sampled run is a
/// simulator bug, not a recoverable condition).
#[must_use]
pub fn run_suite_sampled(
    workloads: &[Workload],
    cfg: &CoreConfig,
    insts: u64,
    spec: SampleSpec,
    jobs: usize,
    store: Option<&Mutex<ResultStore>>,
) -> Vec<SampledRun> {
    slot_pool(workloads, jobs, |w| {
        let opts = SampleRunOptions { store, stop_after_intervals: None };
        or_deadlock_panic(run_sampled(w, cfg, insts, spec, opts))
    })
}

/// The sampled-vs-full accuracy check (DESIGN.md §15.4): simulates
/// each workload in full detail (the reference) and sampled, on a pool
/// of `jobs` worker threads, and compares the headline stats. Results
/// are in workload order. `sample_campaign validate` and the
/// `sampling_accuracy` test both run this.
///
/// # Panics
///
/// Panics with the deadlock dump if the full-detail reference or a
/// sampled run trips its watchdog, and propagates any other worker
/// panic (a simulator bug).
#[must_use]
pub fn validate_sampling(
    workloads: &[Workload],
    cfg: &CoreConfig,
    insts: u64,
    spec: SampleSpec,
    jobs: usize,
) -> Vec<StatErrors> {
    slot_pool(workloads, jobs, |w| {
        let full = simulate(cfg.clone(), &w.machine().run(insts));
        let run = or_deadlock_panic(run_sampled(w, cfg, insts, spec, SampleRunOptions::default()));
        StatErrors::compare(w.name, &full, &run.estimate())
    })
}

/// The machine-readable error report of a [`validate_sampling`] run
/// against [`DEFAULT_BOUNDS`]: budget, spec, bounds, the number of
/// workloads out of bounds, and one row per workload.
#[must_use]
pub fn error_report(insts: u64, spec: SampleSpec, results: &[StatErrors]) -> String {
    let b = &DEFAULT_BOUNDS;
    let failures = results.iter().filter(|e| !e.passes(b)).count();
    let rows: Vec<String> = results.iter().map(|e| e.to_json(b)).collect();
    Lines.object(&[
        ("insts", insts.to_string()),
        ("spec", json::string(&spec.display())),
        ("bounds_ipc_rel", json::number(b.ipc_rel)),
        ("bounds_branch_mpki_abs", json::number(b.branch_mpki_abs)),
        ("bounds_vp_mpki_abs", json::number(b.vp_mpki_abs)),
        ("bounds_spsr_coverage_abs", json::number(b.spsr_coverage_abs)),
        ("failures", failures.to_string()),
        ("workloads", Lines.array(&rows)),
    ])
}

/// Order-sensitive fingerprint over a campaign's per-workload run
/// fingerprints — one number that must match across `--jobs` widths
/// and across kill/resume.
#[must_use]
pub fn campaign_fingerprint(runs: &[SampledRun]) -> u64 {
    crate::distributed::campaign_fingerprint(runs.iter().map(SampledRun::fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_core::config::VpMode;
    use tvp_workloads::suite::by_name;

    fn spec() -> SampleSpec {
        SampleSpec::new(4_000, 600, 600).expect("valid spec")
    }

    #[test]
    fn spec_validation_and_parsing() {
        assert!(SampleSpec::new(100, 60, 50).is_err(), "warmup+measured > period");
        assert!(SampleSpec::new(100, 10, 0).is_err(), "measured must be positive");
        let s = SampleSpec::parse("1_000_000:20000:20000").expect("parses");
        assert_eq!(s, SampleSpec { period: 1_000_000, warmup: 20_000, measured: 20_000 });
        assert!(SampleSpec::parse("10:2").is_err());
        assert!((s.detail_fraction() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn sample_key_digests_are_domain_separated() {
        let cfg = CoreConfig::with_vp(VpMode::Tvp);
        let k = SampleKey::new("string_match", 20_000, &cfg, spec());
        assert_ne!(k.digest(), k.exp.digest(), "sampled and full digests never collide");
        let other = SampleKey::new(
            "string_match",
            20_000,
            &cfg,
            SampleSpec::new(4_000, 600, 601).expect("valid"),
        );
        assert_ne!(k.digest(), other.digest(), "spec is part of the identity");
        assert!(k.display().contains("~4000:600:600#"));
    }

    #[test]
    fn sampled_run_is_deterministic_and_covers_the_stream() {
        let w = by_name("pointer_chase").expect("workload");
        let cfg = CoreConfig::with_vp(VpMode::Tvp);
        let run = || run_sampled(&w, &cfg, 20_000, spec(), SampleRunOptions::default());
        let a = run().expect("no pipeline deadlock");
        let b = run().expect("no pipeline deadlock");
        assert_eq!(a, b, "sampled runs are pure functions of their key");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.total_insts, 20_000);
        assert_eq!(a.intervals.len(), 5);
        let represented: u64 = a.intervals.iter().map(|iv| iv.represented_insts).sum();
        assert_eq!(represented, 20_000, "weights cover the whole stream");
        assert!(a.measured_insts < a.total_insts / 4, "most of the stream is fast-forwarded");
    }

    #[test]
    fn estimate_tracks_full_simulation() {
        let w = by_name("image_filter").expect("workload");
        let cfg = CoreConfig::with_vp(VpMode::Tvp);
        let insts = 24_000;
        let full = simulate(cfg.clone(), &w.trace(insts));
        let run = run_sampled(&w, &cfg, insts, spec(), SampleRunOptions::default())
            .expect("no pipeline deadlock");
        let errors = StatErrors::compare(w.name, &full, &run.estimate());
        assert!(
            errors.passes(&DEFAULT_BOUNDS),
            "sampled stats out of bounds: {:?}",
            errors.violations(&DEFAULT_BOUNDS)
        );
    }

    #[test]
    fn halting_workload_shrinks_the_tail_interval() {
        // A tiny budget against a spec larger than the program run
        // exercises the partial-period path.
        let w = by_name("pointer_chase").expect("workload");
        let cfg = CoreConfig::with_vp(VpMode::Off);
        let run = run_sampled(&w, &cfg, 1_000, spec(), SampleRunOptions::default())
            .expect("no pipeline deadlock");
        assert_eq!(run.intervals.len(), 1);
        assert_eq!(run.total_insts, 1_000);
        assert!(run.intervals[0].measured_insts <= 600);
    }

    #[test]
    #[should_panic(expected = "pipeline deadlock:\npipeline made no commit progress")]
    fn suite_run_panics_with_the_deadlock_dump() {
        let mut cfg = CoreConfig::table2();
        cfg.watchdog_cycles = 1;
        let w = by_name("pointer_chase").expect("workload");
        let _ = run_suite_sampled(&[w], &cfg, 20_000, spec(), 1, None);
    }
}
