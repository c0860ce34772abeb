//! Scoped work-stealing thread pool for simulation jobs.
//!
//! Workers run on `std::thread::scope` threads (no `'static` bounds,
//! no dependencies): each worker owns a deque seeded with one
//! contiguous block of job indices, pops from its own front, and steals
//! from the back of the busiest sibling when empty. Jobs are coarse
//! (one full pipeline simulation each, typically 10⁵–10⁶ cycles), so
//! the per-steal mutex cost is noise.
//!
//! Every job runs under `catch_unwind`: a panicking simulation (e.g. a
//! watchdog-diagnosed deadlock) is captured as a [`JobFailure`] carrying
//! the job's [`ExpKey`] and the panic payload. The pool always drains —
//! one poisoned point can never hang or abort the whole run.
//!
//! [`run_jobs`] hands each point over on the calling thread, in
//! schedule order, as soon as it and every job scheduled before it
//! have finished: the engine publishes a point while the workers
//! simulate the rest, so a store that cannot be written fails the run
//! at its first fresh point, not after the last. A failed job is
//! passed over, not waited for.
//!
//! [`run_jobs`] owns the traces: the first job of a workload builds
//! that workload's trace at the job's budget, the workload's other jobs
//! share it, and it is dropped once every one of them has succeeded. A
//! cold schedule comes in [`ExpKey`] order, so a workload's jobs are
//! adjacent, and the blocks are cut where a workload begins: each
//! worker sweeps workloads of its own one at a time, and a thief works
//! inward from the far end of its victim's block. Live traces stay at
//! the ends being worked on, so two workers hold at most two however
//! far apart they drift; a round-robin deal let one worker run ahead
//! and kept every workload between the two alive. A run with nothing
//! to simulate builds no trace.
//!
//! Determinism: results are keyed, a trace is a pure function of
//! (workload, budget) and the simulator a pure function of (trace,
//! config), so *which worker* builds a trace or runs a job — and in
//! what order — cannot affect any simulated value. The assembly phase
//! consumes results by key in experiment order, which is what makes
//! `--jobs 1` and `--jobs N` byte-identical.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tvp_core::pipeline::Core;
use tvp_obs::cpi::CpiStack;
use tvp_workloads::suite::{by_name, names};
use tvp_workloads::trace::Trace;

use crate::jobs::{ExpKey, Job, SimPoint};

/// A job that panicked instead of producing a [`SimPoint`] — on every
/// attempt (a panic healed by the retry is not a failure).
#[derive(Clone, Debug)]
pub struct JobFailure {
    /// The failed point's identity.
    pub key: ExpKey,
    /// Rendered panic payload of the final attempt.
    pub panic: String,
    /// How many attempts were made (always [`MAX_ATTEMPTS`] for a
    /// reported failure).
    pub attempts: u32,
}

/// Attempts per job: the first run plus one bounded retry. The
/// simulator is deterministic, so a *logic* panic will simply repeat —
/// the retry exists for transient environmental failures (OOM-killed
/// sibling, resource spikes) and costs nothing when the first attempt
/// succeeds.
pub const MAX_ATTEMPTS: u32 = 2;

/// Fixed pause before the retry attempt, giving a transient condition
/// (memory pressure, scheduler spike) time to clear.
pub const RETRY_BACKOFF: Duration = Duration::from_millis(25);

/// Wall-clock timing of one completed job (telemetry only; never part
/// of the cached result).
#[derive(Clone, Debug)]
pub struct JobTiming {
    /// The point's identity.
    pub key: ExpKey,
    /// Simulation wall time.
    pub wall: Duration,
    /// Cycles the point simulated (throughput numerator).
    pub cycles: u64,
    /// The point's CPI stack — where its retire-bandwidth slots went.
    pub cpi: CpiStack,
}

/// Everything the pool produced: results, failures and timings.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Successfully simulated points.
    pub points: Vec<(ExpKey, SimPoint)>,
    /// Jobs that panicked on every attempt, with their keys.
    pub failures: Vec<JobFailure>,
    /// Per-job wall-clock timings (successful jobs only).
    pub timings: Vec<JobTiming>,
    /// Jobs that needed a second attempt (healed or not).
    pub retries: u64,
    /// Workload traces the pool generated: one per distinct (workload,
    /// budget) among the jobs through [`run_jobs`], 0 through
    /// [`run_jobs_with`], whose closure brings its own input.
    pub traces_built: u64,
}

/// One job's outcome, sent by whichever worker ran the job: the
/// simulated point, its CPI stack and wall time (or the rendered panic
/// payload of the final attempt), plus the attempt count.
type JobResult = (Result<(SimPoint, CpiStack, Duration), String>, u32);

/// Resolves the worker count: an explicit `--jobs N` wins, otherwise
/// the pool is sized to the machine's available cores.
#[must_use]
pub fn resolve_workers(requested: Option<usize>) -> usize {
    match requested {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Runs `jobs` on `workers` threads and returns all results, failures
/// and timings. Each job's trace comes from the pool's shared traces
/// (see the module docs); a job's wall time includes building or
/// waiting for it. Panics in jobs are contained (and retried once, see
/// [`MAX_ATTEMPTS`]); a job that fails both attempts keeps its
/// workload's trace alive until the pool drains.
///
/// `hand_over` sees each simulated point on the calling thread, in
/// schedule order, as soon as it and every job scheduled before it
/// have finished or failed, while the workers go on with the rest.
///
/// # Panics
///
/// Panics before starting the pool if a job names no suite workload —
/// a harness bug, not a simulation failure.
pub fn run_jobs(
    jobs: &[Job],
    workers: usize,
    progress: bool,
    hand_over: impl FnMut(&ExpKey, &SimPoint),
) -> RunOutcome {
    let traces = Traces::new(jobs);
    let sim = |job: &Job| {
        let trace = traces.acquire(&job.key);
        // Drive the core directly (rather than through `simulate`) so
        // the CPI stack can be captured for per-job telemetry; the
        // watchdog fail-loud behaviour of `simulate` is preserved.
        let mut core = Core::new(job.cfg.clone());
        let stats = core.run(&trace);
        if let Some(diag) = core.watchdog_diagnostic() {
            // deliberate fail-loud path — a tripped watchdog is a simulator bug
            panic!("pipeline deadlock:\n{diag}");
        }
        traces.succeeded(&job.key);
        (SimPoint { stats }, core.cpi_stack())
    };
    let mut outcome = run_pool(jobs, workers, progress, sim, hand_over);
    outcome.traces_built = traces.built.into_inner();
    outcome
}

/// One (workload, budget)'s trace and the jobs that still need it.
struct TraceSlot {
    /// Built by the first job that asks; dropped by the last success.
    trace: Option<Arc<Trace>>,
    /// Jobs of this (workload, budget) that have not yet succeeded.
    pending: usize,
}

/// The traces of one [`run_jobs`] call, one slot per distinct
/// (workload, budget) among its jobs.
struct Traces {
    slots: BTreeMap<(&'static str, u64), Mutex<TraceSlot>>,
    built: AtomicU64,
}

impl Traces {
    /// One slot per distinct (workload, budget) of `jobs`, counting the
    /// jobs that need it. Builds nothing.
    fn new(jobs: &[Job]) -> Self {
        let mut slots = BTreeMap::new();
        for job in jobs {
            let name = job.key.workload;
            assert!(
                names().any(|n| n == name),
                "job {} names {name:?}, which is not a suite workload",
                job.key.display()
            );
            slots
                .entry((name, job.key.insts))
                .or_insert_with(|| Mutex::new(TraceSlot { trace: None, pending: 0 }))
                .get_mut()
                .expect("fresh slot lock")
                .pending += 1;
        }
        Traces { slots, built: AtomicU64::new(0) }
    }

    /// Locks `key`'s slot. A panic under the lock (a failed build)
    /// leaves the slot valid, so the next job simply builds again.
    fn slot(&self, key: &ExpKey) -> MutexGuard<'_, TraceSlot> {
        self.slots[&(key.workload, key.insts)].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The trace `key` simulates, built by the first job that needs it.
    /// The slot stays locked during the build, so a sibling job waits
    /// for the trace instead of building a duplicate.
    fn acquire(&self, key: &ExpKey) -> Arc<Trace> {
        let mut slot = self.slot(key);
        assert!(slot.pending > 0, "trace of {} freed while a job still needs it", key.display());
        if slot.trace.is_none() {
            let trace = by_name(key.workload).expect("checked name").trace(key.insts);
            slot.trace = Some(Arc::new(trace));
            self.built.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(slot.trace.as_ref().expect("built above"))
    }

    /// Counts one succeeded job of `key`'s trace; the last one drops it.
    fn succeeded(&self, key: &ExpKey) {
        let mut slot = self.slot(key);
        slot.pending -= 1;
        if slot.pending == 0 {
            slot.trace = None;
        }
    }
}

/// The pool with an injectable simulation function — the production
/// path goes through [`run_jobs`]; tests inject flaky `sim` closures
/// to exercise the retry machinery deterministically.
pub fn run_jobs_with(
    jobs: &[Job],
    workers: usize,
    progress: bool,
    sim: impl Fn(&Job) -> (SimPoint, CpiStack) + Sync,
) -> RunOutcome {
    run_pool(jobs, workers, progress, sim, |_, _| {})
}

/// The pool: runs `sim` over `jobs` on `workers` threads while the
/// calling thread hands each point to `hand_over` in schedule order
/// (see [`run_jobs`]).
fn run_pool(
    jobs: &[Job],
    workers: usize,
    progress: bool,
    sim: impl Fn(&Job) -> (SimPoint, CpiStack) + Sync,
    mut hand_over: impl FnMut(&ExpKey, &SimPoint),
) -> RunOutcome {
    let workers = workers.max(1).min(jobs.len().max(1));
    // Block seeding: worker `w` starts with the `w`-th contiguous slice
    // of the schedule, cut where a trace (workload, budget) begins, so
    // no trace is shared by two starting blocks. Stealing evens out
    // whatever imbalance the workloads create.
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let mut group_start = 0;
    for (i, job) in jobs.iter().enumerate() {
        let first = &jobs[group_start].key;
        if (first.workload, first.insts) != (job.key.workload, job.key.insts) {
            group_start = i;
        }
        deques[group_start * workers / jobs.len()].lock().expect("seed deque").push_back(i);
    }

    let mut results: Vec<Option<JobResult>> = jobs.iter().map(|_| None).collect();
    let done = AtomicUsize::new(0);
    let total = jobs.len();

    std::thread::scope(|scope| {
        let (finished_tx, finished) = mpsc::channel();
        for me in 0..workers {
            let deques = &deques;
            let finished_tx = finished_tx.clone();
            let done = &done;
            let sim = &sim;
            scope.spawn(move || {
                while let Some(idx) = next_job(deques, me) {
                    let job = &jobs[idx];
                    let mut attempts = 0;
                    let result = loop {
                        attempts += 1;
                        let start = Instant::now();
                        let result = catch_unwind(AssertUnwindSafe(|| sim(job)));
                        let wall = start.elapsed();
                        match result {
                            Ok((point, cpi)) => break Ok((point, cpi, wall)),
                            Err(payload) => {
                                let text = panic_text(payload.as_ref());
                                if attempts >= MAX_ATTEMPTS {
                                    break Err(text);
                                }
                                if progress {
                                    eprintln!(
                                        "  [retry {attempts}/{MAX_ATTEMPTS}] {}",
                                        job.key.display()
                                    );
                                }
                                std::thread::sleep(RETRY_BACKOFF);
                            }
                        }
                    };
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if progress {
                        eprintln!("  [{finished:>4}/{total}] {}", job.key.display());
                    }
                    if finished_tx.send((idx, (result, attempts))).is_err() {
                        break; // the calling thread panicked: nobody takes results
                    }
                }
            });
        }
        drop(finished_tx);
        // Hand over the longest finished prefix of the schedule as it
        // grows, passing over failed jobs.
        let mut next = 0;
        for (idx, result) in finished {
            results[idx] = Some(result);
            while let Some(Some((result, _))) = results.get(next) {
                if let Ok((point, _, _)) = result {
                    hand_over(&jobs[next].key, point);
                }
                next += 1;
            }
        }
    });

    let mut outcome = RunOutcome::default();
    for (job, result) in jobs.iter().zip(results) {
        let (result, attempts) = result.expect("pool drained every job");
        if attempts > 1 {
            outcome.retries += 1;
        }
        match result {
            Ok((point, cpi, wall)) => {
                outcome.timings.push(JobTiming {
                    key: job.key.clone(),
                    wall,
                    cycles: point.stats.cycles,
                    cpi,
                });
                outcome.points.push((job.key.clone(), point));
            }
            Err(panic) => {
                outcome.failures.push(JobFailure { key: job.key.clone(), panic, attempts });
            }
        }
    }
    outcome
}

/// Pops from our own deque, or steals from the back of the fullest
/// sibling. `None` only when every deque is empty (all jobs taken).
fn next_job(deques: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    if let Some(idx) = deques[me].lock().expect("own deque").pop_front() {
        return Some(idx);
    }
    // Steal from the victim with the most queued work to keep steal
    // frequency low.
    let victim = deques
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != me)
        .max_by_key(|(_, d)| d.lock().expect("victim deque").len())
        .map(|(i, _)| i)?;
    deques[victim].lock().expect("steal deque").pop_back()
}

/// Renders a panic payload (the two shapes `panic!` produces).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_core::config::{CoreConfig, VpMode};

    /// One job per workload for the first three suite workloads.
    fn tiny_jobs() -> Vec<Job> {
        names().take(3).map(|name| Job::new(name, 2_000, CoreConfig::table2())).collect()
    }

    #[test]
    fn pool_runs_all_jobs_any_width() {
        let jobs = tiny_jobs();
        let serial = run_jobs(&jobs, 1, false, |_, _| {});
        let wide = run_jobs(&jobs, 4, false, |_, _| {});
        assert_eq!(serial.points.len(), jobs.len());
        assert_eq!(wide.points.len(), jobs.len());
        assert!(serial.failures.is_empty() && wide.failures.is_empty());
        assert_eq!((serial.traces_built, wide.traces_built), (3, 3), "one trace per workload");
        for ((ka, pa), (kb, pb)) in serial.points.iter().zip(&wide.points) {
            assert_eq!(ka, kb);
            assert_eq!(pa, pb, "worker count changed a simulated point");
        }
    }

    #[test]
    fn panicking_job_fails_with_its_key_and_pool_drains() {
        // A watchdog budget of 1 cycle trips on the first cold-cache
        // stall, and the simulate() entry point panics on the
        // diagnostic — a deterministic in-job panic.
        let mut poisoned = CoreConfig::table2();
        poisoned.watchdog_cycles = 1;
        let mut jobs = tiny_jobs();
        jobs.insert(1, Job::new(jobs[0].key.workload, 2_000, poisoned));

        let outcome = run_jobs(&jobs, 3, false, |_, _| {});
        assert_eq!(outcome.points.len(), jobs.len() - 1, "healthy jobs all completed");
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].key, jobs[1].key, "failure names the poisoned key");
        assert!(!outcome.failures[0].panic.is_empty());
        assert_eq!(
            outcome.failures[0].attempts, MAX_ATTEMPTS,
            "a deterministic panic is retried once before being reported"
        );
        assert_eq!(outcome.retries, 1, "only the poisoned job needed a retry");
        assert_eq!(outcome.traces_built, 3, "the failed job's retry reused its workload's trace");
    }

    #[test]
    #[should_panic(expected = "\"no_such_workload\", which is not a suite workload")]
    fn unknown_workload_panics_before_the_pool_starts() {
        let mut jobs = tiny_jobs();
        jobs.push(Job::new("no_such_workload", 2_000, CoreConfig::table2()));
        let _ = run_jobs(&jobs, 2, false, |_, _| {});
    }

    #[test]
    fn a_trace_lives_until_its_last_job_succeeds() {
        let jobs: Vec<Job> = [VpMode::Off, VpMode::Tvp]
            .map(|vp| Job::new("minimax", 1_000, CoreConfig::with_vp(vp)))
            .into();
        let traces = Traces::new(&jobs);
        let trace = Arc::downgrade(&traces.acquire(&jobs[0].key));
        assert!(trace.upgrade().is_some(), "the slot holds the built trace");
        traces.succeeded(&jobs[0].key);
        let shared = traces.acquire(&jobs[1].key);
        assert!(Arc::ptr_eq(&shared, &trace.upgrade().expect("alive")), "the sibling shares it");
        drop(shared);
        assert!(trace.upgrade().is_some(), "a job that has not succeeded keeps it alive");
        traces.succeeded(&jobs[1].key);
        assert!(trace.upgrade().is_none(), "the last success drops it");
        assert_eq!(traces.built.into_inner(), 1);
    }

    #[test]
    fn block_seeding_keeps_at_most_workers_plus_one_traces_alive() {
        // Two configs per workload, one of them slow: a round-robin deal
        // gives one worker every slow job, so the other runs ahead and
        // every workload between them holds its trace.
        let workers = 2;
        let jobs: Vec<Job> = names()
            .take(8)
            .flat_map(|name| {
                [VpMode::Off, VpMode::Tvp].map(|vp| Job::new(name, 500, CoreConfig::with_vp(vp)))
            })
            .collect();
        let traces = Traces::new(&jobs);
        let peak = AtomicUsize::new(0);
        let outcome = run_jobs_with(&jobs, workers, false, |job| {
            let _trace = traces.acquire(&job.key);
            let live = traces.slots.values().filter(|s| s.lock().expect("slot").trace.is_some());
            peak.fetch_max(live.count(), Ordering::Relaxed);
            if job.cfg.vp == VpMode::Off {
                std::thread::sleep(Duration::from_millis(5));
            }
            traces.succeeded(&job.key);
            (SimPoint { stats: Default::default() }, CpiStack::default())
        });
        assert!(outcome.failures.is_empty());
        assert_eq!(traces.built.into_inner(), 8, "one trace per workload");
        let peak = peak.into_inner();
        assert!(peak <= workers + 1, "{peak} traces alive at once with {workers} workers");
    }

    #[test]
    fn points_are_handed_over_in_order_while_the_pool_runs() {
        // One worker runs the jobs in order. The last waits for the
        // first's hand-over, which it gets only if a point is handed
        // over before the pool drains; the failed job between them is
        // passed over, not waited for.
        let jobs: Vec<Job> =
            ["a", "fails", "b"].map(|name| Job::new(name, 1_000, CoreConfig::table2())).into();
        let (handed_tx, handed_rx) = mpsc::channel();
        let handed_rx = Mutex::new(handed_rx);
        let mut handed = Vec::new();
        let outcome = run_pool(
            &jobs,
            1,
            false,
            |job| {
                match job.key.workload {
                    "fails" => panic!("always fails"),
                    "b" => {
                        let first = handed_rx
                            .lock()
                            .expect("receiver")
                            .recv_timeout(Duration::from_secs(10));
                        assert_eq!(first.ok(), Some(jobs[0].key.clone()), "no hand-over yet");
                    }
                    _ => {}
                }
                (SimPoint { stats: Default::default() }, CpiStack::default())
            },
            |key, _| {
                handed.push(key.clone());
                handed_tx.send(key.clone()).expect("the waiting job holds the receiver");
            },
        );
        assert_eq!(outcome.failures.len(), 1, "only the failing job fails");
        assert_eq!(outcome.retries, 1, "b got its hand-over on the first attempt");
        assert_eq!(handed, [jobs[0].key.clone(), jobs[2].key.clone()]);
    }

    #[test]
    fn transient_panic_is_healed_by_the_single_retry() {
        use std::sync::atomic::AtomicBool;
        let jobs = vec![
            Job::new("a", 1_000, CoreConfig::table2()),
            Job::new("b", 1_000, CoreConfig::table2()),
        ];
        let flaked = AtomicBool::new(false);
        let outcome = run_jobs_with(&jobs, 1, false, |job| {
            if job.key.workload == "b" && !flaked.swap(true, Ordering::Relaxed) {
                panic!("transient failure");
            }
            (SimPoint { stats: Default::default() }, CpiStack::default())
        });
        assert!(outcome.failures.is_empty(), "the retry healed the flake");
        assert_eq!(outcome.points.len(), 2);
        assert_eq!(outcome.retries, 1);
        assert_eq!(outcome.timings.len(), 2);
    }

    #[test]
    fn persistent_panic_exhausts_both_attempts() {
        use std::sync::atomic::AtomicU32;
        let jobs = vec![Job::new("a", 1_000, CoreConfig::table2())];
        let calls = AtomicU32::new(0);
        let outcome = run_jobs_with(&jobs, 1, false, |_job| -> (SimPoint, CpiStack) {
            calls.fetch_add(1, Ordering::Relaxed);
            panic!("always fails");
        });
        assert_eq!(calls.load(Ordering::Relaxed), MAX_ATTEMPTS);
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].attempts, MAX_ATTEMPTS);
        assert!(outcome.failures[0].panic.contains("always fails"));
        assert_eq!(outcome.retries, 1);
    }
}
