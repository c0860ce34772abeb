//! The cycle-level out-of-order pipeline.
//!
//! Replays a [`Trace`] through the Table 2 machine: a line-buffer fetch
//! front-end with TAGE/BTB/RAS/IBTC prediction, 8-wide rename with
//! DSR / 9-bit idiom elimination / MVP-TVP-GVP / SpSR, dispatch into
//! ROB + unified IQ + split LSQ, 15-wide issue across the Table 2
//! functional-unit pools, in-place value-prediction validation at
//! execute (with full pipeline flush *including the predicted µop* for
//! MVP/TVP, §3.4), store-set-gated load speculation, and 8-wide commit
//! that trains every predictor in retirement order.
//!
//! Being trace-driven, branch mispredictions stall fetch at the branch
//! until it resolves (wrong-path µops are not simulated — see
//! DESIGN.md §2), while value mispredictions and memory-ordering
//! violations squash correct-path µops that are then re-fetched by
//! rolling the trace cursor back.
//!
//! [`Core`] runs the stages. Each structure that several stages touch
//! is one type that keeps its own books (DESIGN.md §12):
//!
//! * `queue` — the positioned queue behind the ROB, the load queue and
//!   the store queue;
//! * `lsq` — both load/store queues, the windows around their issued
//!   entries, and the store sets;
//! * `predict` — the branch and value predictors, the predict path that
//!   fetch and functional warming share, and the branch checkpoints;
//! * `recovery` — the pending flushes and replays, each queue due by
//!   cycle.
//!
//! Issue counts functional units per [`FuPool`] pool.

mod lsq;
mod predict;
mod queue;
mod recovery;

use std::collections::VecDeque;

use tvp_chaos::{
    ChaosEngine, CommitOracle, DeadlockDiagnostic, Divergence, FaultKind, MshrInfo, RobHeadInfo,
    Sabotage, Watchdog,
};
use tvp_isa::op::{BranchKind, ExecClass};
use tvp_isa::stream::{fnv1a_fold, FNV1A_OFFSET};
use tvp_mem::hierarchy::Hierarchy;
use tvp_obs::counters::{sat_add, sat_inc};
use tvp_obs::cpi::{CpiStack, SlotClass};
use tvp_obs::event::{EventKind, TraceEvent, Tracer};
use tvp_obs::registry::Registry;
use tvp_predictors::history::MAX_REWIND;
use tvp_workloads::trace::Trace;

use crate::config::{CoreConfig, FuPool, RecoveryPolicy, VpMode};
use crate::inline_vec::{InlineVec, MAX_DST_REGS};
use crate::physreg::PhysName;
use crate::rename::{Dep, ElimCategory, PredApply, RegClass, RenamedUop, Renamer};
use crate::scheduler::Scheduler;
use crate::stats::SimStats;
use lsq::Lsq;
use predict::Predictors;
use queue::{Aged, PosQueue};
use recovery::{DueQueue, FlushKind, PendingFlush, PendingReplay};
use tvp_workloads::machine::{ArchSnapshot, Machine};

/// A µop sitting in the fetch queue: what fetch learned about it, which
/// the µop's ROB entry keeps. A branch's predictions wait for its commit
/// in the predictors' records, not here.
#[derive(Clone, Debug)]
struct Fetched {
    idx: usize,
    rename_ready: u64,
    fetch_wait: bool,
}

#[derive(Clone, Debug)]
struct RobEntry {
    /// The fetch-queue entry the µop was renamed from.
    fetched: Fetched,
    seq: u64,
    renamed: RenamedUop,
    /// `(dense arch index, name)` of each mapping the µop made, which
    /// commit makes architectural.
    new_names: InlineVec<(u8, PhysName), MAX_DST_REGS>,
    in_iq: bool,
    issued: bool,
    /// Whether rename looked the µop up in the value predictor, which
    /// keeps the lookup for commit to train with.
    vp_lookup: bool,
    /// For loads/stores: this entry's position in its queue. Zero for
    /// other µops.
    lsq_pos: u64,
    done_cycle: u64,
    dispatch_ready: u64,
}

// Every fetched µop is copied into the fetch queue and then into the
// ROB, so both entries carry no prediction state.
const _: () = assert!(std::mem::size_of::<Fetched>() <= 24);
const _: () = assert!(std::mem::size_of::<RobEntry>() <= 152);

impl Aged for RobEntry {
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// Default event-ring capacity when tracing is enabled without an
/// explicit size (`simulate --trace`).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// The simulator core. Construct with a configuration, then
/// [`Core::run`] a trace.
pub struct Core {
    cfg: CoreConfig,
    fu: FuPool,
    /// Per pool, the cycle its unpipelined unit frees up.
    fu_busy: [u64; FuPool::POOLS],
    pred: Predictors,
    mem: Hierarchy,
    renamer: Renamer,
    lsq: Lsq,

    cycle: u64,
    /// Cycle count at the start of the current measurement segment:
    /// [`Core::run`] reports `cycle - cycle_base` so warmup segments
    /// (see [`Core::begin_measurement`]) are never charged to stats.
    cycle_base: u64,
    cursor: usize,
    fetch_queue: VecDeque<Fetched>,
    fetch_resume: u64,
    fetch_wait_branch: Option<u64>,
    current_line: u64,
    /// The scheduler's ready set is keyed by ROB position.
    rob: PosQueue<RobEntry>,
    iq_count: usize,
    sched: Scheduler,
    // Reusable consumer-wakeup scratch — cleared per use, never
    // reallocated on the per-cycle path.
    wake_scratch: Vec<u64>,
    replay_wake_scratch: Vec<u64>,
    flushes: DueQueue<PendingFlush>,
    replays: DueQueue<PendingReplay>,
    // Reusable scratch (replay wavefront) — cleared per use, never
    // reallocated on the per-cycle path.
    replay_poison_scratch: Vec<Dep>,
    silence_until: u64,
    silence_len: u64,
    last_vp_flush: u64,
    chaos: Option<ChaosEngine>,
    oracle: Option<CommitOracle>,
    divergence: Option<Divergence>,
    watchdog_diag: Option<DeadlockDiagnostic>,
    stats: SimStats,
    // Observability (tvp-obs). All four are observation-only: they
    // read pipeline state but never feed back into it, which is what
    // keeps tracing determinism-neutral.
    tracer: Tracer,
    cpi: CpiStack,
    commit_fp: u64,
    flush_shadow_class: SlotClass,
    flush_shadow_until: u64,
    flush_refill: u64,
    // Invariant auditing (tvp-verif), switched on by
    // [`Core::enable_audit`]; like tracing, it only observes.
    audit: Option<Audit>,
    audit_report: tvp_verif::AuditReport,
    last_committed_seq: Option<u64>,
}

/// The auditors [`Core::enable_audit`] switched on, and their cadence.
struct Audit {
    every: u64,
    auditors: Vec<Box<dyn tvp_verif::PipelineAuditor>>,
}

impl Core {
    /// Builds a core.
    #[must_use]
    pub fn new(cfg: CoreConfig) -> Self {
        // Every branch in flight may have to be squashed, so a history
        // must be able to rewind over all of them.
        assert!(
            (cfg.rob_size + cfg.fetch_queue) as u64 <= MAX_REWIND,
            "{} ROB and {} fetch-queue entries exceed the {MAX_REWIND} branches a history rewinds",
            cfg.rob_size,
            cfg.fetch_queue
        );
        // Front-end refill depth after a flush redirect: how long the
        // ROB stays empty while refetched µops travel to dispatch. The
        // CPI accountant charges that shadow to the flush's class.
        let flush_refill = cfg.redirect_penalty
            + cfg.fetch_to_decode
            + cfg.decode_to_rename
            + cfg.rename_to_dispatch;
        Core {
            fu: FuPool::default(),
            fu_busy: [0; FuPool::POOLS],
            pred: Predictors::new(&cfg),
            mem: Hierarchy::new(cfg.mem.clone()),
            renamer: Renamer::new(&cfg),
            lsq: Lsq::new(cfg.lq_size, cfg.sq_size),
            cycle: 0,
            cycle_base: 0,
            cursor: 0,
            fetch_queue: VecDeque::with_capacity(cfg.fetch_queue),
            fetch_resume: 0,
            fetch_wait_branch: None,
            current_line: u64::MAX,
            rob: PosQueue::with_capacity(cfg.rob_size),
            iq_count: 0,
            sched: Scheduler::new(cfg.rob_size, cfg.int_regs, cfg.fp_regs),
            wake_scratch: Vec::new(), // audited(no-alloc-in-hot-path): constructor
            replay_wake_scratch: Vec::new(), // audited(no-alloc-in-hot-path): constructor
            flushes: DueQueue::new(),
            replays: DueQueue::new(),
            replay_poison_scratch: Vec::new(), // audited(no-alloc-in-hot-path): constructor
            silence_until: 0,
            silence_len: cfg.silence_cycles,
            last_vp_flush: 0,
            chaos: cfg.chaos.map(ChaosEngine::new),
            oracle: None,
            divergence: None,
            watchdog_diag: None,
            stats: SimStats::default(),
            tracer: Tracer::disabled(),
            cpi: CpiStack::default(),
            commit_fp: FNV1A_OFFSET,
            flush_shadow_class: SlotClass::Frontend,
            flush_shadow_until: 0,
            flush_refill,
            audit: None,
            audit_report: tvp_verif::AuditReport::default(),
            last_committed_seq: None,
            cfg,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Runs the entire trace to completion and returns statistics.
    ///
    /// If the pipeline stops making commit progress for
    /// [`CoreConfig::watchdog_cycles`] cycles, the run stops early and
    /// a structured [`DeadlockDiagnostic`] is available from
    /// [`Core::watchdog_diagnostic`] instead of the process hanging
    /// (the [`simulate`] convenience wrapper still panics on it, with
    /// the full dump as the message). The stall is measured from the
    /// cycle and retired count this call starts at, so a warmed core
    /// whose `cycle` is already past the threshold is not a stall.
    ///
    /// After a quiet cycle the run jumps straight to the next cycle at
    /// which anything can happen; the result is the same as stepping
    /// through them (DESIGN.md §12.1). Cores with chaos or auditing
    /// armed step through every cycle.
    pub fn run(&mut self, trace: &Trace) -> SimStats {
        let mut watchdog =
            Watchdog::new(self.cfg.watchdog_cycles, self.cycle, self.stats.uops_retired);
        // Chaos rolls its dice and the auditors look once per cycle, so
        // those cores live through quiet cycles one by one.
        let skip_quiet = self.chaos.is_none() && self.audit.is_none();
        while self.cursor < trace.uops.len() || !self.rob.is_empty() || !self.fetch_queue.is_empty()
        {
            let quiet = self.step(trace);
            if watchdog.observe(self.cycle, self.stats.uops_retired) {
                let stalled = watchdog.stalled_for(self.cycle);
                self.tracer.record(EventKind::Watchdog, self.cycle, 0, 0, stalled);
                self.watchdog_diag = Some(self.deadlock_diagnostic(trace, stalled));
                break;
            }
            if quiet && skip_quiet {
                self.skip_quiet_cycles(trace, watchdog.deadline());
            }
        }
        self.stats.cycles = self.cycle - self.cycle_base;
        self.stats.rename = self.renamer.stats();
        // The renamer keeps its own saturation sink; fold it into the
        // headline overflow count so one number still answers "did any
        // counter lose precision this run?".
        self.stats.overflow_events =
            self.stats.overflow_events.saturating_add(self.renamer.overflow_events);
        if self.audit.is_some() {
            self.final_audit();
        }
        self.stats
    }

    /// Runs one trace *segment* on a core that may already be warm.
    ///
    /// Identical to [`Core::run`] except that the replay cursor is
    /// rewound for the new trace: sampled simulation feeds the warmup
    /// and measured windows of an interval as separate bounded traces,
    /// and every microarchitectural structure (caches, TLBs, branch
    /// and value predictors, store sets) carries its warm state across
    /// the boundary. Sequence numbers must keep increasing across
    /// segments — the functional machine's global µop numbering
    /// guarantees this.
    pub fn run_segment(&mut self, trace: &Trace) -> SimStats {
        self.cursor = 0;
        self.current_line = u64::MAX;
        self.run(trace)
    }

    /// Marks the warmup → measured transition of a sampled interval.
    ///
    /// Call between two [`Core::run_segment`] calls, when the pipeline
    /// has drained (which `run` guarantees on return): every statistic
    /// accumulated so far — counters, CPI stack, rename stats, the
    /// commit fingerprint — is discarded, and subsequent stats are
    /// charged from the current cycle. Warm predictor/cache state is
    /// deliberately kept; that is the entire point of warmup.
    pub fn begin_measurement(&mut self) {
        self.stats = SimStats::default();
        self.renamer.stats = crate::stats::RenameStats::default();
        self.renamer.overflow_events = 0;
        self.cpi = CpiStack::default();
        self.commit_fp = FNV1A_OFFSET;
        self.cycle_base = self.cycle;
    }

    /// Functionally warms long-horizon microarchitectural state —
    /// caches, TLBs, branch predictors, the value predictor — from a
    /// trace segment *without* cycle-accurate simulation and without
    /// charging any statistics.
    ///
    /// Sampled simulation fast-forwards between measured intervals; a
    /// measurement window started on a cold core under-reports IPC for
    /// any workload whose working set or predictor training horizon
    /// exceeds the detailed warmup window (the classic cold-start bias
    /// of sampling). This walks each record in architectural order and
    /// performs only the training side of the pipeline: instruction
    /// and data accesses touch the memory hierarchy, branches run the
    /// predict→history→update sequence the detailed path performs at
    /// fetch + retire, and VP-eligible µops train the value predictor
    /// on their actual results. One pseudo-cycle elapses per µop so
    /// in-flight miss latencies expire naturally.
    ///
    /// Costs a few table lookups per µop — orders of magnitude cheaper
    /// than detailed simulation — and is deterministic: the warmed
    /// state is a pure function of the core's prior state and the
    /// segment's records.
    pub fn functional_warm(&mut self, trace: &Trace) {
        for u in &trace.uops {
            let _ = self.fill_line(u.pc);
            self.current_line = u.pc >> 6;

            if let Some(outcome) = u.branch {
                let kind = u.uop.op.branch_kind().expect("branch outcome implies branch");
                // The fetch-side prediction, then the retire-side
                // training, which architectural order makes adjacent.
                let prediction = self.pred.predict(u.pc, kind, outcome);
                if let Some(token) = prediction.tage {
                    self.pred.tage.update(&token, outcome.taken);
                }
                if let Some(path) = prediction.itc_path {
                    self.pred.itc.update_with_path(u.pc, outcome.target, path);
                }
                if outcome.taken {
                    self.pred.btb.insert(u.pc, outcome.target, kind);
                    self.follow_taken(outcome.target);
                }
            }

            if let Some(addr) = u.mem_addr {
                let _ = self.mem.data_access(u.pc, addr, u.uop.op.is_store(), self.cycle);
            }

            if let Some(pred) = self.pred.predict_value(u) {
                self.pred.train_value(&pred, u.result);
            }

            self.cycle += 1;
        }
        self.pred.rebase_floor();
    }

    /// Looks `pc`'s line up in the instruction cache when it is not the
    /// current line, with a sequential next-line prefetch (degree 4) so
    /// a cold code sweep overlaps its line fills instead of serialising
    /// one DRAM round-trip per 64B. Returns the cycle the line is there.
    fn fill_line(&mut self, pc: u64) -> u64 {
        if pc >> 6 == self.current_line {
            return self.cycle;
        }
        let done = self.mem.inst_access(pc, self.cycle);
        for i in 1..=4u64 {
            self.mem.inst_prefetch(pc + i * 64, self.cycle);
        }
        done
    }

    /// A taken branch extends the indirect path, and fetch goes on in
    /// its target's line.
    fn follow_taken(&mut self, target: u64) {
        self.pred.itc.push_path(target);
        self.current_line = target >> 6;
    }

    /// Assembles the watchdog's structured dump of the stalled
    /// pipeline.
    fn deadlock_diagnostic(&self, trace: &Trace, stalled_cycles: u64) -> DeadlockDiagnostic {
        let rob_head = self.rob.front().map(|e| RobHeadInfo {
            seq: e.seq,
            pc: trace.uops[e.fetched.idx].pc,
            issued: e.issued,
            eliminated: e.renamed.eliminated.is_some(),
            in_iq: e.in_iq,
            done_cycle: e.done_cycle,
        });
        let oldest_mshr = self
            .mem
            .oldest_mshr(self.cycle)
            .map(|(level, line_addr, done_cycle)| MshrInfo { level, line_addr, done_cycle });
        let [lq, sq] = self.lsq.seqs();
        DeadlockDiagnostic {
            cycle: self.cycle,
            uops_retired: self.stats.uops_retired,
            stalled_cycles,
            rob_occupancy: self.rob.len(),
            rob_head,
            iq_occupancy: self.iq_count,
            lq_occupancy: lq.len(),
            sq_occupancy: sq.len(),
            fetch_queue: self.fetch_queue.len(),
            trace_cursor: self.cursor,
            fetch_resume: self.fetch_resume,
            fetch_wait_branch: self.fetch_wait_branch,
            pending_flushes: self.flushes.len(),
            pending_replays: self.replays.len(),
            silence_until: self.silence_until,
            oldest_mshr,
        }
    }

    /// Advances one cycle. Returns whether the cycle was quiet: no
    /// replay or flush applied, nothing retired, no event fired, nothing
    /// issued, rename and fetch did not touch a µop, and no issue
    /// candidate is left waiting.
    fn step(&mut self, trace: &Trace) -> bool {
        self.inject_chaos();
        let replayed = self.apply_pending_replays(trace);
        let flushed = self.apply_pending_flush(trace);
        let retired = self.commit(trace);
        self.account_cycle(retired, trace);
        let issued = self.issue(trace);
        let renamed = self.rename(trace);
        let fetched = self.fetch(trace);
        if let Some(audit) = &self.audit {
            if audit.every != 0 && self.cycle.is_multiple_of(audit.every) {
                self.run_audit();
            }
        }
        self.cycle += 1;
        let busy = replayed || flushed || retired > 0 || issued || renamed || fetched;
        !busy && !self.sched.has_ready()
    }

    /// Jumps over the cycles after a quiet step (see [`Core::step`])
    /// in which nothing can happen. Such a step changed nothing that a
    /// later cycle reads, so the pipeline stays as it is until the
    /// earliest of: the ROB head finishing, a dispatch or writeback
    /// event, the fetch-queue head reaching rename, fetch resuming, or
    /// a pending flush or replay coming due. Every skipped cycle would
    /// have retired nothing and charged its slots to the class
    /// [`Core::stall_class`] gives, which changes only where the flush
    /// shadow ends. The jump stops one cycle short of the watchdog's
    /// `deadline`, so a trip lands on the cycle it would have without
    /// skipping.
    fn skip_quiet_cycles(&mut self, trace: &Trace, deadline: Option<u64>) {
        let head_done = self.rob.front().map_or(u64::MAX, |e| e.done_cycle);
        let rename_ready = self.fetch_queue.front().map_or(u64::MAX, |f| f.rename_ready);
        let wakes = [
            head_done,
            self.sched.next_event(),
            rename_ready,
            self.fetch_resume,
            self.flushes.next_due(),
            self.replays.next_due(),
        ];
        // A time already passed wakes nothing: what it gated is waiting
        // on one of the others (a full queue on a commit, say).
        let mut next = wakes.into_iter().filter(|&at| at >= self.cycle).min().unwrap_or(u64::MAX);
        if let Some(deadline) = deadline {
            next = next.min(deadline.saturating_sub(1));
        }
        if next == u64::MAX || next <= self.cycle {
            return;
        }
        let width = self.cfg.commit_width as u64;
        let shadow_end = self.flush_shadow_until.clamp(self.cycle, next);
        for (from, to) in [(self.cycle, shadow_end), (shadow_end, next)] {
            if to > from {
                self.cpi.lose(self.stall_class(trace, from), (to - from) * width);
            }
        }
        self.cycle = next;
    }

    /// CPI-stack attribution for this cycle: `retired` slots are
    /// credited to the base component and the remaining
    /// `commit_width − retired` slots are charged to exactly one loss
    /// class, chosen deterministically from the post-commit pipeline
    /// state. Pure accounting — reads state, never writes it — so the
    /// stack always sums to `cycles × commit_width` and cannot perturb
    /// the simulation.
    fn account_cycle(&mut self, retired: u64, trace: &Trace) {
        let width = self.cfg.commit_width as u64;
        self.cpi.retire(retired);
        if retired >= width {
            return;
        }
        let class = self.stall_class(trace, self.cycle);
        self.cpi.lose(class, width - retired);
    }

    /// The loss class of a commit slot left empty at `cycle`, from the
    /// post-commit pipeline state.
    fn stall_class(&self, trace: &Trace, cycle: u64) -> SlotClass {
        match self.rob.front() {
            // Commit stopped on an unfinished head: memory if the head
            // is waiting on the data path, otherwise back-end
            // latency/contention.
            Some(head) => {
                let op = &trace.uops[head.fetched.idx].uop.op;
                if op.is_load() || op.is_store() {
                    SlotClass::Memory
                } else {
                    SlotClass::BackendStructural
                }
            }
            // ROB empty: the front end is starved. Distinguish the
            // refill shadow of a recent flush, a fetch stall on an
            // unresolved mispredicted branch, and plain front-end
            // latency (i-cache misses, redirect bubbles, trace drain).
            None => {
                if cycle < self.flush_shadow_until {
                    self.flush_shadow_class
                } else if self.fetch_wait_branch.is_some() {
                    SlotClass::BranchMispredict
                } else {
                    SlotClass::Frontend
                }
            }
        }
    }

    /// Per-cycle fault sites: predictor-table corruption and prefetch
    /// suppression. (Per-event sites — forced VP mispredicts, branch
    /// inversions, cache delays — fire inline at rename, fetch and
    /// issue.) Each site rolls independently and zero-rate sites
    /// consume no entropy, so one campaign's decisions replay exactly
    /// from its seed.
    fn inject_chaos(&mut self) {
        let Some(ch) = self.chaos.as_mut() else { return };
        if ch.fire(FaultKind::VtageCorrupt) {
            let r = ch.entropy();
            if self.pred.vtage.as_mut().is_some_and(|vp| vp.inject_fault(r)) {
                sat_inc(&mut self.stats.chaos.vtage_corruptions, &mut self.stats.overflow_events);
            }
        }
        if ch.fire(FaultKind::TageCorrupt) {
            let r = ch.entropy();
            self.pred.tage.inject_fault(r);
            sat_inc(&mut self.stats.chaos.tage_corruptions, &mut self.stats.overflow_events);
        }
        if ch.fire(FaultKind::BtbCorrupt) {
            let r = ch.entropy();
            if self.pred.btb.inject_fault(r) {
                sat_inc(&mut self.stats.chaos.btb_corruptions, &mut self.stats.overflow_events);
            }
        }
        if ch.fire(FaultKind::StoreSetCorrupt) {
            let r = ch.entropy();
            self.lsq.inject_fault(r);
            sat_inc(&mut self.stats.chaos.storeset_corruptions, &mut self.stats.overflow_events);
        }
        let drop_prefetch = ch.fire(FaultKind::PrefetchDrop);
        self.mem.set_prefetch_suppressed(drop_prefetch);
        if drop_prefetch {
            sat_inc(&mut self.stats.chaos.prefetch_drop_cycles, &mut self.stats.overflow_events);
        }
    }

    // ----------------------------------------------------------------
    // commit
    // ----------------------------------------------------------------

    /// Retires up to `commit_width` finished µops; returns how many
    /// retired this cycle (the CPI stack's base credit).
    fn commit(&mut self, trace: &Trace) -> u64 {
        let mut retired: u64 = 0;
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            if !(head.renamed.eliminated.is_some() || head.issued) || head.done_cycle > self.cycle {
                break;
            }
            // Issue cleared its ready bit; clearing it again keeps the
            // next µop at this position from inheriting a stale one.
            self.sched.remove_ready(self.rob.start());
            let entry = self.rob.pop_front().expect("head exists");
            let u = &trace.uops[entry.fetched.idx];

            // Golden-model lockstep check: the committed µop must be the
            // record the replaying functional machine emits; the first
            // divergence is recorded (with the replaying chaos seed and
            // the traced last-N-event history) and the oracle goes quiet.
            if let Some(oracle) = self.oracle.as_mut() {
                if let Err(d) = oracle.on_commit(u) {
                    if self.divergence.is_none() {
                        let seed = self.chaos.as_ref().map(ChaosEngine::seed);
                        self.divergence =
                            Some(d.with_seed(seed).with_history(self.tracer.snapshot()));
                    }
                }
            }

            if u.uop.op.is_store() {
                let addr = u.mem_addr.expect("store has an address");
                let _ = self.mem.data_access(u.pc, addr, true, self.cycle);
            }
            self.lsq.remove(u.uop.op, false);
            self.renamer.commit_with_names(&entry.new_names);

            // Train predictors in retirement order.
            if let Some(b) = u.branch {
                let record = self.pred.take_branch(entry.seq);
                if let Some(token) = record.tage.as_ref() {
                    self.pred.tage.update(token, b.taken);
                }
                let kind = u.uop.op.branch_kind().expect("branch outcome implies branch");
                if b.taken {
                    self.pred.btb.insert(u.pc, b.target, kind);
                }
                if matches!(
                    kind,
                    BranchKind::Indirect | BranchKind::IndirectCall | BranchKind::Return
                ) {
                    self.pred.itc.update_with_path(u.pc, b.target, record.itc_path);
                }
            }
            if entry.vp_lookup {
                self.pred.commit_value(entry.seq, u.result);
            }
            self.pred.retire(entry.seq);

            sat_inc(&mut self.stats.uops_retired, &mut self.stats.overflow_events);
            if u.first_uop {
                sat_inc(&mut self.stats.insts_retired, &mut self.stats.overflow_events);
            }
            retired += 1;
            // Order-sensitive commit fingerprint over (seq, pc) — the
            // determinism-neutrality witness (always on; a few integer
            // ops per retirement).
            self.commit_fp = fnv1a_fold(self.commit_fp, &entry.seq.to_le_bytes());
            self.commit_fp = fnv1a_fold(self.commit_fp, &u.pc.to_le_bytes());
            self.tracer.record(EventKind::Commit, self.cycle, entry.seq, u.pc, 0);
            self.last_committed_seq = Some(entry.seq);
        }
        retired
    }

    // ----------------------------------------------------------------
    // issue / execute
    // ----------------------------------------------------------------

    /// The µop's first operand whose value is unavailable this cycle
    /// (`None` means every dependence is ready), evaluated on wakeup
    /// events and at select re-verification.
    fn first_unready_dep(&self, renamed: &RenamedUop) -> Option<Dep> {
        renamed.deps.iter().copied().find(|d| self.renamer.file(d.class).ready_at(d.p) > self.cycle)
    }

    /// Evaluates `seq` for wakeup: a live, un-issued IQ entry past its
    /// dispatch latency either enters the ready set (all operands
    /// available) or subscribes to its first not-ready operand's
    /// consumer list. Everything else is a no-op — stale events from
    /// squashed-and-reused seqs or superseded writebacks re-evaluate
    /// current truth and die here, which is what makes the event
    /// machinery equivalence-safe.
    fn try_wake(&mut self, seq: u64) {
        let Some(pos) = self.rob.find(seq) else { return };
        let e = &self.rob[pos];
        if !e.in_iq || e.issued || e.dispatch_ready > self.cycle {
            // Not (yet) a candidate; if the dispatch latency has not
            // elapsed, the dispatch-FIFO event still covers it.
            return;
        }
        match self.first_unready_dep(&e.renamed) {
            None => self.sched.insert_ready(pos),
            Some(d) => self.sched.subscribe(d.class, d.p, seq),
        }
    }

    /// Wakes every consumer subscribed to `(class, p)` — called when
    /// the register's value becomes available.
    fn wake_consumers(&mut self, class: RegClass, p: u16) {
        let mut scratch = std::mem::take(&mut self.wake_scratch);
        scratch.clear();
        self.sched.drain_consumers(class, p, &mut scratch);
        for &seq in &scratch {
            self.try_wake(seq);
        }
        self.wake_scratch = scratch;
    }

    /// Register writeback: `(class, p)` becomes readable at `at`,
    /// always a future cycle (minimum FU latency is one), so consumers
    /// are woken by a scheduled event instead of polling.
    fn write_back(&mut self, class: RegClass, p: u16, at: u64) {
        debug_assert!(at > self.cycle);
        self.renamer.file_mut(class).set_ready(p, at);
        self.sched.schedule_wake(at, class, p);
    }

    /// Fires this cycle's wakeup events: µops reaching dispatch, and
    /// register writebacks completing now. A writeback event is stale
    /// — skipped, keeping its subscribers — unless the register still
    /// becomes ready at exactly the event's cycle; a replay may have
    /// un-produced the register after the event was scheduled. Returns
    /// whether any event fired.
    fn wake_due(&mut self) -> bool {
        let mut fired = false;
        while let Some(seq) = self.sched.pop_due_dispatch(self.cycle) {
            self.try_wake(seq);
            fired = true;
        }
        while let Some((at, class, p)) = self.sched.pop_due_wake(self.cycle) {
            if self.renamer.file(class).ready_at(p) == at {
                self.wake_consumers(class, p);
            }
            fired = true;
        }
        fired
    }

    /// Wakeup, select and execute. Returns whether an event fired or a
    /// µop issued.
    fn issue(&mut self, trace: &Trace) -> bool {
        let woke = self.wake_due();
        let mut issued_total = 0usize;
        let mut pool_issued = [0usize; FuPool::POOLS];

        // Select: walk the ready set oldest-first (ROB position is
        // age), re-verifying the full issue predicate per candidate.
        // The set is a *superset* of the issuable µops (wakeup inserts
        // optimistically, and a replay can un-ready an operand after
        // insertion), so verification failures evict and re-subscribe,
        // while structural rejections — FU caps, busy dividers,
        // store-set gates — keep the entry for later cycles.
        let rob_end = self.rob.end();
        let mut next_pos = self.rob.start();
        while issued_total < self.cfg.issue_width {
            let Some(pos) = self.sched.first_ready_in(next_pos, rob_end) else { break };
            next_pos = pos + 1;
            let entry = &self.rob[pos];
            let seq = entry.seq;
            if !entry.in_iq || entry.issued || entry.dispatch_ready > self.cycle {
                self.sched.remove_ready(pos);
                continue;
            }
            let u = &trace.uops[entry.fetched.idx];
            let class = u.uop.op.exec_class();
            let pool = FuPool::pool(class);
            if pool_issued[pool] >= self.fu.capacity(class) {
                continue;
            }
            if let Some(d) = self.first_unready_dep(&entry.renamed) {
                // An operand was un-produced after this µop woke
                // (poisoned VP replay); wait on it like any other.
                self.sched.remove_ready(pos);
                self.sched.subscribe(d.class, d.p, seq);
                continue;
            }
            // Only an unpipelined unit is ever busy past its issue.
            if self.fu_busy[pool] > self.cycle {
                continue;
            }
            let mut completion = self.cycle + self.cfg.latency(class);
            match class {
                ExecClass::Load => {
                    // Held back by its store-set gate, or issued:
                    // forwarded from an older store, or sent to memory.
                    let Some((addr, forwards)) = self.lsq.issue_load(entry.lsq_pos) else {
                        continue;
                    };
                    completion = if forwards {
                        self.cycle + 4
                    } else {
                        self.mem.data_access(u.pc, addr, false, self.cycle)
                    };
                    // Chaos: perturb load latency (timing-only fault).
                    if let Some(ch) = self.chaos.as_mut() {
                        if ch.fire(FaultKind::CacheDelay) {
                            completion += ch.extra_delay();
                            sat_inc(
                                &mut self.stats.chaos.cache_delays,
                                &mut self.stats.overflow_events,
                            );
                        }
                    }
                }
                ExecClass::Store => {
                    // A younger load that already issued to an
                    // overlapping address read stale data.
                    if let Some(load_seq) = self.lsq.issue_store(entry.lsq_pos) {
                        let flush = PendingFlush {
                            first_squashed_seq: load_seq,
                            kind: FlushKind::MemOrder,
                        };
                        self.flushes.push(completion, flush);
                    }
                }
                _ => {}
            }
            if FuPool::unpipelined(class) {
                self.fu_busy[pool] = completion;
            }

            // Value prediction validation, in place at the FU (§3.3).
            if let Some((predicted, apply)) = self.rob[pos].renamed.predicted {
                let actual = u.result.expect("VP-eligible µops produce a value");
                if predicted != actual {
                    self.tracer.record(
                        EventKind::ValueMispredict,
                        self.cycle,
                        seq,
                        u.pc,
                        predicted,
                    );
                    // MVP/TVP must refetch the mispredicted µop itself
                    // (§3.4); GVP has a register to repair in place but
                    // still flushes younger consumers — unless the
                    // Replay recovery policy repairs them selectively.
                    let include_self = apply == PredApply::Named;
                    let wide_reg = self.rob[pos].renamed.dest_alloc.map(|(_, p)| p);
                    let replay_reg = (!include_self && self.cfg.recovery == RecoveryPolicy::Replay)
                        .then_some(wide_reg)
                        .flatten();
                    if let Some(reg) = replay_reg {
                        self.replays.push(completion, PendingReplay { seq, reg });
                    } else {
                        let first_squashed_seq = if include_self { seq } else { seq + 1 };
                        let kind = FlushKind::ValueMispredict;
                        self.flushes.push(completion, PendingFlush { first_squashed_seq, kind });
                    }
                    sat_inc(&mut self.stats.vp.incorrect_used, &mut self.stats.overflow_events);
                } else {
                    sat_inc(&mut self.stats.vp.correct_used, &mut self.stats.overflow_events);
                }
            }

            // Branch resolution un-stalls fetch.
            if self.rob[pos].fetched.fetch_wait {
                completion = completion.max(self.cycle + 1);
                if self.fetch_wait_branch == Some(seq) {
                    self.fetch_wait_branch = None;
                    self.fetch_resume = completion + self.cfg.redirect_penalty;
                }
            }

            // Register writeback scheduling. The µop also frees its
            // scheduler slot here.
            let entry = &mut self.rob[pos];
            entry.issued = true;
            entry.done_cycle = completion;
            entry.in_iq = false;
            self.iq_count -= 1;
            let dest_alloc = entry.renamed.dest_alloc;
            let flags_alloc = entry.renamed.flags_alloc;
            let unpredicted = entry.renamed.predicted.is_none();
            let prf_reads = u64::from(entry.renamed.prf_reads);
            self.sched.remove_ready(pos);
            if let Some((class, p)) = dest_alloc {
                // GVP wide predictions were made ready at rename; the
                // µop still performs its datapath write at execute
                // (validation is a compare at the FU, §3.3), so the
                // write port is exercised either way.
                if unpredicted {
                    self.write_back(class, p, completion);
                }
                if class == RegClass::Int {
                    sat_inc(
                        &mut self.stats.activity.int_prf_writes,
                        &mut self.stats.overflow_events,
                    );
                }
            }
            if let Some(p) = flags_alloc {
                self.write_back(RegClass::Int, p, completion);
                sat_inc(&mut self.stats.activity.int_prf_writes, &mut self.stats.overflow_events);
            }
            // Predicted µops with named destinations write no register.
            sat_add(
                &mut self.stats.activity.int_prf_reads,
                prf_reads,
                &mut self.stats.overflow_events,
            );
            sat_inc(&mut self.stats.activity.iq_issued, &mut self.stats.overflow_events);
            self.tracer.record(EventKind::Issue, self.cycle, seq, u.pc, 0);
            pool_issued[pool] += 1;
            issued_total += 1;
        }
        woke || issued_total > 0
    }

    // ----------------------------------------------------------------
    // rename / dispatch
    // ----------------------------------------------------------------

    /// Renames and dispatches up to `rename_width` µops. Returns whether
    /// any µop got past the queue-capacity checks: from there on, even a
    /// rename that fails has looked up the value predictor.
    fn rename(&mut self, trace: &Trace) -> bool {
        let mut touched = false;
        for _ in 0..self.cfg.rename_width {
            let Some(front) = self.fetch_queue.front() else { break };
            if front.rename_ready > self.cycle {
                break;
            }
            if self.rob.len() >= self.cfg.rob_size {
                break;
            }
            let u = &trace.uops[front.idx];
            if self.lsq.is_full(u.uop.op) {
                break;
            }
            touched = true;

            // Value prediction lookup (always, for training; used only
            // when confident, admissible and not silenced).
            let vp_token = self.pred.predict_value(u);
            let mode = self.cfg.vp.pred_mode();
            let usable =
                vp_token.filter(|p| p.confident && mode.is_some_and(|m| m.admits(p.value)));
            let mut prediction = usable.map(|p| p.value);
            if prediction.is_some() && self.cycle < self.silence_until {
                sat_inc(&mut self.stats.vp.silenced_lookups, &mut self.stats.overflow_events);
                prediction = None;
            }

            // Chaos: force a used prediction wrong. The forced value
            // (0, or 1 when the actual result is 0) is admissible in
            // every prediction mode and always differs from the actual
            // result, so validation at issue must flush and recover.
            // Silencing above still applies — a forced mispredict
            // cannot livelock the pipeline.
            if prediction.is_some() {
                if let Some(ch) = self.chaos.as_mut() {
                    if ch.fire(FaultKind::VpForceMispredict) {
                        let actual = u.result.expect("VP-eligible µops produce a value");
                        prediction = Some(u64::from(actual == 0));
                        sat_inc(
                            &mut self.stats.chaos.vp_forced_mispredicts,
                            &mut self.stats.overflow_events,
                        );
                    }
                }
            }

            let Ok(renamed) = self.renamer.rename_uop(u.uop, prediction) else {
                // Out of physical registers; retry next cycle.
                break;
            };

            // IQ capacity — checked after rename so eliminated µops
            // (which skip the IQ) are not throttled by a full
            // scheduler. Roll the rename back if we cannot dispatch.
            let needs_iq = renamed.eliminated.is_none();
            if needs_iq && self.iq_count >= self.cfg.iq_size {
                self.renamer.rollback(&renamed);
                break;
            }

            let fetched = self.fetch_queue.pop_front().expect("front exists");
            let mut new_names: InlineVec<(u8, PhysName), MAX_DST_REGS> = InlineVec::new();
            for &(dense, _) in &renamed.undo {
                new_names.push((dense, self.renamer.rat_entry(usize::from(dense))));
            }

            // A freshly allocated register has no live consumers; drop
            // wakeup subscriptions left over from a squashed previous
            // lifetime of the same physical register.
            if let Some((class, p)) = renamed.dest_alloc {
                self.sched.clear_consumers(class, p);
            }
            if let Some(p) = renamed.flags_alloc {
                self.sched.clear_consumers(RegClass::Int, p);
            }

            let lsq_pos = self.lsq.dispatch(u);

            // GVP wide predictions are written to the PRF at rename —
            // the extra write ports the paper charges GVP for (§6.2).
            if matches!(renamed.predicted, Some((_, PredApply::WidePrfWrite))) {
                sat_inc(&mut self.stats.activity.int_prf_writes, &mut self.stats.overflow_events);
            }

            // SpSR-resolved branch: redirect/unstall the front-end at
            // rename instead of execute.
            if renamed.resolved_branch.is_some() && self.fetch_wait_branch == Some(u.seq) {
                self.fetch_wait_branch = None;
                self.fetch_resume = self.cycle + 1;
            }

            let eliminated = renamed.eliminated.is_some();
            if needs_iq {
                self.iq_count += 1;
                sat_inc(&mut self.stats.activity.iq_dispatched, &mut self.stats.overflow_events);
            }
            // The µop enters the ROB: only now do the rename and VP
            // counters count it, so a retried rename counts once.
            sat_inc(&mut self.renamer.stats.uops, &mut self.renamer.overflow_events);
            if u.first_uop {
                sat_inc(&mut self.renamer.stats.arch_insts, &mut self.renamer.overflow_events);
            }
            if let Some(pred) = vp_token {
                self.pred.keep_value(u.seq, pred);
                sat_inc(&mut self.stats.vp.eligible, &mut self.stats.overflow_events);
            }
            if prediction.is_some() {
                sat_inc(&mut self.stats.vp.used, &mut self.stats.overflow_events);
            }
            self.tracer.record(EventKind::Rename, self.cycle, u.seq, u.pc, 0);
            let dispatch_ready = self.cycle + self.cfg.rename_to_dispatch;
            self.rob.push_back(RobEntry {
                fetched,
                seq: u.seq,
                renamed,
                new_names,
                in_iq: needs_iq,
                issued: false,
                vp_lookup: vp_token.is_some(),
                lsq_pos,
                done_cycle: if eliminated { self.cycle + 1 } else { u64::MAX },
                dispatch_ready,
            });
            if needs_iq {
                // Wakeup evaluation fires when the dispatch latency
                // elapses (the FIFO is pushed in rename order with a
                // constant offset, so due cycles stay sorted).
                self.sched.push_dispatch(dispatch_ready, u.seq);
            }
        }
        touched
    }

    // ----------------------------------------------------------------
    // fetch
    // ----------------------------------------------------------------

    /// Fetches up to `fetch_width` µops. Returns whether fetch touched
    /// a µop (looked it up in the instruction cache).
    fn fetch(&mut self, trace: &Trace) -> bool {
        if self.cycle < self.fetch_resume
            || self.fetch_wait_branch.is_some()
            || self.fetch_queue.len() >= self.cfg.fetch_queue
            || self.cursor >= trace.uops.len()
        {
            return false;
        }
        let mut fetched = 0usize;
        while fetched < self.cfg.fetch_width
            && self.fetch_queue.len() < self.cfg.fetch_queue
            && self.cursor < trace.uops.len()
        {
            let u = &trace.uops[self.cursor];
            let done = self.fill_line(u.pc);
            if done > self.cycle + 1 {
                self.fetch_resume = done;
                return true;
            }
            self.current_line = u.pc >> 6;

            let mut fetch_wait = false;
            let mut taken_bubble = false;
            if let Some(outcome) = u.branch {
                let kind = u.uop.op.branch_kind().expect("branch outcome implies branch");
                let itc_path = self.pred.itc.path_checkpoint();
                let prediction = self.pred.predict(u.pc, kind, outcome);
                let mut mispredicted = prediction.missed;
                // A direct branch predicted taken needs its target from
                // the BTB; a miss costs a decode-stage mistarget bubble.
                let needs_target = match kind {
                    BranchKind::CondDirect => outcome.taken && !mispredicted,
                    BranchKind::UncondDirect | BranchKind::Call => true,
                    _ => false,
                };
                if needs_target && self.pred.btb.lookup(u.pc).is_none() {
                    self.fetch_resume = self.cycle + self.cfg.btb_miss_penalty;
                    taken_bubble = true;
                }
                // Chaos: invert the misprediction verdict. Both
                // directions are timing-only in a trace-driven model —
                // a spurious "mispredict" stalls fetch until the branch
                // resolves; a masked one skips the stall.
                if let Some(ch) = self.chaos.as_mut() {
                    if ch.fire(FaultKind::BranchInvert) {
                        mispredicted = !mispredicted;
                        sat_inc(
                            &mut self.stats.chaos.branch_inversions,
                            &mut self.stats.overflow_events,
                        );
                    }
                }
                if outcome.taken {
                    self.follow_taken(outcome.target);
                }
                // Checkpoint speculative front-end state after this
                // branch, for later squash recovery, and keep what its
                // commit trains with.
                self.pred.checkpoint(u.seq, prediction.tage, itc_path);
                if mispredicted {
                    sat_inc(
                        &mut self.stats.flush.branch_mispredicts,
                        &mut self.stats.overflow_events,
                    );
                    self.tracer.record(EventKind::BranchMispredict, self.cycle, u.seq, u.pc, 1);
                    fetch_wait = true;
                    self.fetch_wait_branch = Some(u.seq);
                } else if outcome.taken && !taken_bubble {
                    self.fetch_resume = self.cycle + 1 + self.cfg.taken_branch_penalty;
                    taken_bubble = true;
                }
            }

            self.fetch_queue.push_back(Fetched {
                idx: self.cursor,
                rename_ready: self.cycle + self.cfg.fetch_to_decode + self.cfg.decode_to_rename,
                fetch_wait,
            });
            self.cursor += 1;
            fetched += 1;
            if fetch_wait || taken_bubble {
                break;
            }
        }
        true
    }

    // ----------------------------------------------------------------
    // replay (RecoveryPolicy::Replay, GVP wide predictions)
    // ----------------------------------------------------------------

    /// Selectively re-executes the direct and indirect consumers of a
    /// mispredicted (wide, GVP) value: the register is repaired in
    /// place, issued consumers are reset to re-issue with the correct
    /// value, and their own destinations propagate the poison set
    /// transitively (paper §2.2's "replay wavefront"). Falls back to a
    /// flush when the scheduler cannot reabsorb the wavefront.
    /// Returns whether any replay came due.
    fn apply_pending_replays(&mut self, trace: &Trace) -> bool {
        // Quiet cycles (the overwhelmingly common case) stop here.
        if self.cycle < self.replays.next_due() {
            return false;
        }
        let mut poisoned = std::mem::take(&mut self.replay_poison_scratch);
        let mut rewake = std::mem::take(&mut self.replay_wake_scratch);
        while let Some(replay) = self.replays.pop_due(self.cycle) {
            // The mispredicted µop may have been squashed by an older
            // flush in the meantime; its repair is then moot.
            let Some(start) = self.rob.find(replay.seq) else {
                continue;
            };
            // Guard against the replay tornado: silence the predictor
            // exactly as a flush would (§3.4.1).
            self.silence_until = self.cycle + self.silence_len;
            sat_inc(&mut self.stats.flush.vp_replays, &mut self.stats.overflow_events);

            // The repaired value becomes available now — wake anything
            // already waiting on it.
            self.renamer.file_mut(RegClass::Int).set_ready(replay.reg, self.cycle);
            self.wake_consumers(RegClass::Int, replay.reg);

            poisoned.clear();
            poisoned.push(Dep { class: RegClass::Int, p: replay.reg });
            rewake.clear();
            let mut fallback_flush = false;
            for pos in (start + 1)..self.rob.end() {
                let entry = &self.rob[pos];
                if !entry.issued {
                    continue; // unissued consumers wait naturally
                }
                let consumes = entry.renamed.deps.iter().any(|d| poisoned.contains(d));
                if !consumes {
                    continue;
                }
                // Needs a scheduler slot to re-issue from.
                if !entry.in_iq && self.iq_count >= self.cfg.iq_size {
                    fallback_flush = true;
                    break;
                }
                let entry = &mut self.rob[pos];
                entry.issued = false;
                entry.done_cycle = u64::MAX;
                if !entry.in_iq {
                    entry.in_iq = true;
                    self.iq_count += 1;
                }
                // Un-produce its outputs and extend the wavefront. Any
                // writeback wake event still in flight for these
                // registers is now stale: it will fail the `ready_at`
                // validation and die without waking anyone.
                if let Some((class, p)) = entry.renamed.dest_alloc {
                    self.renamer.file_mut(class).set_ready(p, u64::MAX);
                    poisoned.push(Dep { class, p });
                }
                if let Some(p) = entry.renamed.flags_alloc {
                    self.renamer.file_mut(RegClass::Int).set_ready(p, u64::MAX);
                    poisoned.push(Dep { class: RegClass::Int, p });
                }
                self.lsq.unissue(trace.uops[entry.fetched.idx].uop.op, entry.lsq_pos);
                rewake.push(entry.seq);
                sat_inc(&mut self.stats.flush.replayed_uops, &mut self.stats.overflow_events);
            }
            // Re-enter the reset µops into the wakeup machinery after
            // the whole wavefront is poisoned (issue runs later this
            // cycle and re-verifies, so evaluation order within the
            // cycle is immaterial).
            for &seq in &rewake {
                self.try_wake(seq);
            }
            if fallback_flush {
                let first_squashed_seq = replay.seq + 1;
                let kind = FlushKind::ValueMispredict;
                self.flushes.push(self.cycle, PendingFlush { first_squashed_seq, kind });
            }
        }
        self.replay_poison_scratch = poisoned;
        self.replay_wake_scratch = rewake;
        true
    }

    // ----------------------------------------------------------------
    // flush
    // ----------------------------------------------------------------

    /// Applies the oldest due flush, if any; returns whether it did.
    fn apply_pending_flush(&mut self, trace: &Trace) -> bool {
        // Quiet cycles (the overwhelmingly common case) stop here.
        if self.cycle < self.flushes.next_due() {
            return false;
        }
        let Some(flush) = self.flushes.due(self.cycle).min_by_key(|f| f.first_squashed_seq) else {
            return false;
        };
        let cut = flush.first_squashed_seq;
        // The chosen flush supersedes every pending flush or replay of a
        // µop it squashes (they will re-arise after re-execution if
        // still relevant), and so every other due flush.
        self.flushes.retain(|f| f.first_squashed_seq < cut);
        self.replays.retain(|r| r.seq < cut);

        match flush.kind {
            FlushKind::ValueMispredict => {
                sat_inc(&mut self.stats.flush.vp_flushes, &mut self.stats.overflow_events);
                if self.cfg.adaptive_silencing {
                    // Dynamic scheme (§3.4.1 future work): clustered
                    // mispredictions widen the window geometrically
                    // (guaranteeing liveness even when the configured
                    // base is shorter than the refetch path); quiet
                    // spells shrink it back, never below the base.
                    if self.cycle.saturating_sub(self.last_vp_flush) < 4 * self.silence_len.max(16)
                    {
                        self.silence_len =
                            (self.silence_len.max(1) * 2).min(self.cfg.silence_cycles.max(16) * 16);
                    } else {
                        self.silence_len = (self.silence_len / 2).max(self.cfg.silence_cycles);
                    }
                    self.last_vp_flush = self.cycle;
                }
                self.silence_until = self.cycle + self.silence_len;
            }
            FlushKind::MemOrder => {
                sat_inc(&mut self.stats.flush.mem_order_flushes, &mut self.stats.overflow_events);
            }
        }

        // Squash younger ROB entries, youngest first.
        let mut squash_cursor: Option<usize> = None;
        let mut squashed_now: u64 = 0;
        while self.rob.back().is_some_and(|e| e.seq >= cut) {
            let entry = self.rob.pop_back().expect("back exists");
            if entry.in_iq {
                self.iq_count -= 1;
            }
            // Squashed µops leave the ready set; their ROB position is
            // reused after refetch and must not carry a stale
            // candidacy. (Dispatch-FIFO and wake-wheel events for them
            // are re-verified on delivery, so they can stay.)
            self.sched.remove_ready(self.rob.end());
            if entry.renamed.eliminated == Some(ElimCategory::Spsr) {
                // On the renamer's stats: the end-of-run
                // `stats.rename = renamer.stats()` fold overwrites
                // `stats.rename`.
                sat_inc(&mut self.renamer.stats.spsr_squashed, &mut self.renamer.overflow_events);
            }
            self.lsq.remove(trace.uops[entry.fetched.idx].uop.op, true);
            self.renamer.rollback(&entry.renamed);
            squashed_now += 1;
            squash_cursor = Some(entry.fetched.idx);
        }
        // Squashed fetch-queue µops are all younger than the ROB tail.
        if let Some(front) = self.fetch_queue.front() {
            squash_cursor.get_or_insert(front.idx);
            squashed_now += self.fetch_queue.len() as u64;
        }
        sat_add(&mut self.stats.flush.squashed_uops, squashed_now, &mut self.stats.overflow_events);
        self.tracer.record(EventKind::Flush, self.cycle, cut, 0, squashed_now);
        self.fetch_queue.clear();

        // Roll the trace cursor back to refetch from the squash point.
        // The SkipCursorRollback sabotage deliberately omits this on
        // value-misprediction flushes: the squashed µops are never
        // refetched, the commit stream gains a sequence gap, and the
        // golden-model oracle must report an Order divergence — the
        // broken fixture proving the oracle catches recovery bugs.
        let sabotaged = flush.kind == FlushKind::ValueMispredict
            && self
                .chaos
                .as_ref()
                .is_some_and(|c| c.sabotage() == Some(Sabotage::SkipCursorRollback));
        if let Some(idx) = squash_cursor {
            if !sabotaged {
                self.cursor = idx;
            }
        }

        // Restore speculative front-end state to the youngest surviving
        // checkpoint.
        self.pred.squash(cut);

        self.fetch_wait_branch = None;
        self.fetch_resume = self.cycle + self.cfg.redirect_penalty;
        self.current_line = u64::MAX;

        // CPI attribution: while the ROB refills behind this redirect,
        // empty-ROB cycles are this flush's fault, not generic
        // front-end latency.
        self.flush_shadow_class = match flush.kind {
            FlushKind::ValueMispredict => SlotClass::VpMispredictFlush,
            FlushKind::MemOrder => SlotClass::Memory,
        };
        self.flush_shadow_until = self.cycle + self.flush_refill;
        true
    }

    /// Statistics snapshot (valid after [`Core::run`]).
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    // ----------------------------------------------------------------
    // chaos / oracle / watchdog surface
    // ----------------------------------------------------------------

    /// Arms the golden-model commit oracle: `machine`, in the state the
    /// traced run started from (a clone taken before it produced the
    /// trace), replays the run, and every committed µop is checked in
    /// lockstep against the record it emits.
    pub fn enable_oracle(&mut self, machine: Machine) {
        self.oracle = Some(CommitOracle::new(machine));
    }

    /// The first lockstep divergence the oracle found, if any.
    #[must_use]
    pub fn oracle_divergence(&self) -> Option<&Divergence> {
        self.divergence.as_ref()
    }

    /// Compares the architectural state the commit stream reached
    /// against the functional machine's `golden` state. `None` means
    /// the committed state is architecturally identical (or a lockstep
    /// divergence was already reported — see
    /// [`Core::oracle_divergence`]). Call after a [`Core::run`] that
    /// the watchdog did not stop: an unfinished run has not reached the
    /// golden end state.
    #[must_use]
    pub fn oracle_final_check(&self, golden: &ArchSnapshot) -> Option<Divergence> {
        let oracle = self.oracle.as_ref()?;
        if let Some(d) = self.divergence.clone() {
            return Some(d);
        }
        let seed = self.chaos.as_ref().map(ChaosEngine::seed);
        oracle.final_check(golden).map(|d| d.with_seed(seed))
    }

    /// The deadlock dump, if the watchdog tripped during [`Core::run`].
    #[must_use]
    pub fn watchdog_diagnostic(&self) -> Option<&DeadlockDiagnostic> {
        self.watchdog_diag.as_ref()
    }

    /// The active chaos campaign's replay seed, if one is armed.
    #[must_use]
    pub fn chaos_seed(&self) -> Option<u64> {
        self.chaos.as_ref().map(ChaosEngine::seed)
    }

    // ----------------------------------------------------------------
    // observability surface (tvp-obs)
    // ----------------------------------------------------------------

    /// Enables event tracing into a fresh ring holding the last
    /// `capacity` events. Call before [`Core::run`]. Recording is
    /// observation-only: the `obs_neutrality` harness test locks that
    /// enabling it changes neither the commit fingerprint nor any
    /// statistic.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = Tracer::enabled(capacity);
    }

    /// Whether event tracing is currently enabled.
    #[must_use]
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// The CPI stack accumulated so far (complete after [`Core::run`];
    /// components sum to `cycles × commit_width`).
    pub fn cpi_stack(&self) -> CpiStack {
        self.cpi
    }

    /// Order-sensitive FNV-1a fingerprint of the committed `(seq, pc)`
    /// stream — the determinism-neutrality witness.
    #[must_use]
    pub fn commit_fingerprint(&self) -> u64 {
        self.commit_fp
    }

    /// The traced events, oldest first (empty when tracing is
    /// disabled).
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.tracer.snapshot()
    }

    /// Events lost to ring overwrite (the exported window is a suffix
    /// of the run when this is non-zero).
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    /// Walks every statistics struct — core, CPI, memory hierarchy,
    /// TLBs, branch and value predictors — into one flat
    /// schema-versioned counter [`Registry`] for JSON export
    /// ([`Registry::to_json`]).
    #[must_use]
    pub fn export_registry(&self) -> Registry {
        let mut reg = Registry::new();
        let s = &self.stats;
        for (name, value) in s.counters() {
            reg.counter(name, value);
        }
        reg.counter("core.commit_fingerprint", self.commit_fp);
        reg.counter("chaos.total_faults", s.chaos.total());
        self.cpi.fill_registry(&mut reg);
        reg.counter("trace.events_dropped", self.tracer.dropped());
        self.mem.fill_registry(&mut reg);
        let tage = self.pred.tage.stats();
        reg.counter("tage.predictions", tage.predictions);
        reg.counter("tage.mispredictions", tage.mispredictions);
        reg.counter("tage.overflow_events", tage.overflow_events);
        let btb = self.pred.btb.stats();
        reg.counter("btb.hits", btb.hits);
        reg.counter("btb.misses", btb.misses);
        reg.counter("btb.overflow_events", btb.overflow_events);
        if let Some(vp) = self.pred.vtage.as_ref() {
            let v = vp.stats();
            reg.counter("vtage.lookups", v.lookups);
            reg.counter("vtage.hits", v.hits);
            reg.counter("vtage.correct", v.correct);
            reg.counter("vtage.incorrect", v.incorrect);
            reg.counter("vtage.overflow_events", v.overflow_events);
        }
        for (name, value) in s.gauges() {
            reg.gauge(name, value);
        }
        reg.gauge("cpi.base_fraction", self.cpi.fraction(self.cpi.base));
        reg
    }
}

// --------------------------------------------------------------------
// verification (tvp-verif)
// --------------------------------------------------------------------

impl Core {
    /// Switches on the invariant auditors
    /// ([`tvp_verif::standard_suite`]). Call before [`Core::run`]. They
    /// run every `every` cycles (0: only at the end of each run), and
    /// once more when a run ends, together with the Table 2
    /// storage-budget check. Auditing is observation-only: the
    /// `obs_neutrality` harness test locks that enabling it changes
    /// neither the commit fingerprint nor any statistic. Findings
    /// accumulate in [`Core::audit_report`].
    pub fn enable_audit(&mut self, every: u64) {
        self.audit = Some(Audit { every, auditors: tvp_verif::standard_suite() });
    }

    fn snap_name(name: PhysName) -> tvp_verif::SnapName {
        match name {
            PhysName::Reg(p) => tvp_verif::SnapName::Reg(p),
            PhysName::Inline(v) => tvp_verif::SnapName::Inline(v),
            PhysName::KnownFlags(f) => tvp_verif::SnapName::KnownFlags(f),
        }
    }

    /// Class of a dense architectural index (see [`tvp_isa::reg::Reg::dense_index`]):
    /// `32..64` are the FP registers, everything else (GPRs and `NZCV`)
    /// lives in the integer file.
    fn snap_class(dense: usize) -> tvp_verif::RegClass {
        if (32..64).contains(&dense) {
            tvp_verif::RegClass::Fp
        } else {
            tvp_verif::RegClass::Int
        }
    }

    fn class_snapshot(&self, class: crate::rename::RegClass) -> tvp_verif::RegClassSnapshot {
        let file = self.renamer.file(class);
        tvp_verif::RegClassSnapshot {
            class: match class {
                crate::rename::RegClass::Int => tvp_verif::RegClass::Int,
                crate::rename::RegClass::Fp => tvp_verif::RegClass::Fp,
            },
            total: file.total(),
            hardwired: file.hardwired(),
            free: file.free_regs(),
            ref_counts: file.ref_counts(),
        }
    }

    /// Assembles the plain-data mirror of the renaming and queue state
    /// that the [`tvp_verif`] auditors inspect. Taken between cycles,
    /// when no µop is mid-rename.
    #[must_use]
    pub fn snapshot(&self) -> tvp_verif::PipelineSnapshot {
        use tvp_isa::reg::NUM_DENSE_REGS;
        let map_entry = |dense: usize, name: PhysName| tvp_verif::MapEntry {
            dense: dense as u16,
            class: Self::snap_class(dense),
            name: Self::snap_name(name),
        };
        let crat = (0..NUM_DENSE_REGS).map(|d| map_entry(d, self.renamer.crat_entry(d))).collect(); // audited(no-alloc-in-hot-path): verif snapshot, off the per-cycle loop
        let rat = (0..NUM_DENSE_REGS).map(|d| map_entry(d, self.renamer.rat_entry(d))).collect(); // audited(no-alloc-in-hot-path): verif snapshot, off the per-cycle loop
        let rob = self
            .rob
            .iter()
            .map(|e| tvp_verif::RobSnapshot {
                seq: e.seq,
                in_iq: e.in_iq,
                issued: e.issued,
                // Ground-truth issue predicate, computed by polling
                // operand `ready_at` — deliberately independent of the
                // event-driven scheduler it cross-checks. An entry
                // renamed *this* cycle is excluded: rename runs after
                // issue, so no scheduler (event-driven or polling)
                // could have considered it yet.
                issuable: e.in_iq
                    && !e.issued
                    && e.dispatch_ready <= self.cycle
                    && e.dispatch_ready < self.cycle + self.cfg.rename_to_dispatch.max(1)
                    && self.first_unready_dep(&e.renamed).is_none(),
                new_names: e.new_names.iter().map(|&(d, n)| map_entry(usize::from(d), n)).collect(), // audited(no-alloc-in-hot-path): verif snapshot, off the per-cycle loop
            })
            .collect(); // audited(no-alloc-in-hot-path): verif snapshot, off the per-cycle loop
        let [lq_seqs, sq_seqs] = self.lsq.seqs();
        tvp_verif::PipelineSnapshot {
            cycle: self.cycle,
            int: self.class_snapshot(crate::rename::RegClass::Int),
            fp: self.class_snapshot(crate::rename::RegClass::Fp),
            crat,
            rat,
            rob,
            iq_count: self.iq_count,
            ready_seqs: self.ready_seqs(),
            lq_seqs: lq_seqs.collect(), // audited(no-alloc-in-hot-path): verif snapshot, off the per-cycle loop
            sq_seqs: sq_seqs.collect(), // audited(no-alloc-in-hot-path): verif snapshot, off the per-cycle loop
            limits: tvp_verif::QueueLimits {
                rob: self.cfg.rob_size,
                iq: self.cfg.iq_size,
                lq: self.cfg.lq_size,
                sq: self.cfg.sq_size,
            },
            committed_seq: self.last_committed_seq,
            uops_retired: self.stats.uops_retired,
        }
    }

    /// The issue candidates' sequence numbers, oldest first.
    fn ready_seqs(&self) -> Vec<u64> {
        let mut seqs = Vec::new(); // audited(no-alloc-in-hot-path): verif snapshot, off the per-cycle loop
        let mut pos = self.rob.start();
        while let Some(hit) = self.sched.first_ready_in(pos, self.rob.end()) {
            seqs.push(self.rob[hit].seq);
            pos = hit + 1;
        }
        seqs
    }

    fn run_audit(&mut self) {
        let snap = self.snapshot();
        if let Some(audit) = self.audit.as_mut() {
            tvp_verif::run_suite(&mut audit.auditors, &snap, &mut self.audit_report);
        }
    }

    /// End-of-run audit: one last invariant pass over the drained
    /// pipeline, plus the storage-budget assertion — the single place
    /// every [`tvp_verif::StorageBudget`] report is checked against the
    /// paper's Table 2 ceilings.
    fn final_audit(&mut self) {
        self.run_audit();
        let specs = tvp_verif::budget::table2_budgets();
        for v in tvp_verif::budget::check_budgets(&specs, &self.storage_report()) {
            self.audit_report.violations.push((self.cycle, "storage-budget", v));
        }
    }

    /// Modeled hardware state, in bits, per structure — every table the
    /// core instantiates, named as in the Table 2 budget list.
    #[must_use]
    pub fn storage_report(&self) -> Vec<(String, u64)> {
        use tvp_verif::StorageBudget;
        let p = &self.pred;
        let vtage = p.vtage.as_ref().map(|vp| vp as &dyn StorageBudget);
        let tables =
            [&p.tage as &dyn StorageBudget, &p.btb, &p.ras, &p.itc].into_iter().chain(vtage);
        let mut out: Vec<_> =
            tables.map(|t| (t.storage_name().to_owned(), t.storage_bits())).collect(); // audited(no-alloc-in-hot-path): storage report, runs once per config
        out.extend(self.mem.storage_report());
        out
    }

    /// Everything the auditors have found so far (complete after
    /// [`Core::run`]; empty unless [`Core::enable_audit`] was called).
    #[must_use]
    pub fn audit_report(&self) -> &tvp_verif::AuditReport {
        &self.audit_report
    }
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cycle", &self.cycle)
            .field("vp", &self.cfg.vp)
            .field("spsr", &self.cfg.spsr)
            .finish_non_exhaustive()
    }
}

/// Convenience: simulate a trace under a configuration.
///
/// # Panics
///
/// Panics with the full [`DeadlockDiagnostic`] dump if the pipeline
/// stops making commit progress (a simulator bug); drive [`Core`]
/// directly to handle the diagnostic programmatically.
pub fn simulate(cfg: CoreConfig, trace: &Trace) -> SimStats {
    let mut core = Core::new(cfg);
    let stats = core.run(trace);
    if let Some(diag) = core.watchdog_diagnostic() {
        // audited(no-panic-in-hot-path): deliberate fail-loud path — a tripped watchdog is a simulator bug
        panic!("pipeline deadlock:\n{diag}");
    }
    stats
}

/// Convenience: simulate a named VP mode (paper Table 2 machine).
pub fn simulate_vp(vp: VpMode, spsr: bool, trace: &Trace) -> SimStats {
    let mut cfg = CoreConfig::with_vp(vp);
    cfg.spsr = spsr;
    simulate(cfg, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_isa::flags::Cond;
    use tvp_isa::inst::build::*;
    use tvp_isa::inst::AddrMode;
    use tvp_isa::reg::x;
    use tvp_workloads::program::Asm;
    use tvp_workloads::Machine;

    fn counted_loop_trace(n: i64) -> Trace {
        let mut a = Asm::new();
        a.i(movz(x(0), n));
        a.label("loop");
        a.i(add(x(1), x(1), x(0)));
        a.i(subs(x(0), x(0), 1i64));
        a.b_cond(Cond::Ne, "loop");
        Machine::new(a.assemble().unwrap()).run(100_000)
    }

    #[test]
    fn baseline_retires_every_instruction() {
        let trace = counted_loop_trace(500);
        let stats = simulate(CoreConfig::table2(), &trace);
        assert_eq!(stats.insts_retired, trace.arch_insts);
        assert_eq!(stats.uops_retired, trace.uops.len() as u64);
        assert!(stats.cycles > 0);
        let ipc = stats.ipc();
        assert!(ipc > 0.5 && ipc < 8.0, "loop IPC = {ipc}");
    }

    #[test]
    fn auditors_stay_clean_on_a_small_loop() {
        // Audit every cycle, across every VP/SpSR flavour, so rename,
        // squash and commit all hit the invariant checks repeatedly.
        let trace = counted_loop_trace(400);
        for vp in [VpMode::Off, VpMode::Mvp, VpMode::Tvp, VpMode::Gvp] {
            for spsr in [false, true] {
                let mut cfg = CoreConfig::with_vp(vp);
                cfg.spsr = spsr;
                let mut core = Core::new(cfg);
                core.enable_audit(1);
                let _stats = core.run(&trace);
                let report = core.audit_report();
                assert!(report.is_clean(), "vp={vp:?} spsr={spsr}:\n{}", report.render());
            }
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let trace = counted_loop_trace(300);
        let a = simulate(CoreConfig::table2(), &trace);
        let b = simulate(CoreConfig::table2(), &trace);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.activity.int_prf_reads, b.activity.int_prf_reads);
    }

    #[test]
    fn rename_counts_each_uop_once_across_stalls() {
        // A 4-entry IQ and a PRF with 5 free registers make rename fail
        // both ways, out of registers and out of IQ slots, and retry. The
        // loop never flushes, so each µop enters the ROB once and retires
        // once, and each count must match.
        let mut a = Asm::new();
        a.i(movz(x(0), 300));
        a.i(movz(x(4), 3));
        a.i(movz(x(5), 4));
        a.i(movz(x(6), 1));
        a.label("loop");
        a.i(add(x(3), x(4), x(5))); // always 7: predicted and used
        a.i(mul(x(6), x(6), x(3))); // a chain of multi-cycle µops
        a.i(add(x(1), x(1), x(0)));
        a.i(subs(x(0), x(0), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let trace = Machine::new(a.assemble().unwrap()).run(100_000);
        let mut cfg = CoreConfig::with_vp(VpMode::Tvp);
        cfg.iq_size = 4;
        cfg.int_regs = 40;
        let stats = simulate(cfg, &trace);
        assert_eq!(stats.flush.squashed_uops, 0, "the loop must not flush");
        assert_eq!(stats.rename.uops, stats.uops_retired);
        assert_eq!(stats.rename.arch_insts, stats.insts_retired);
        let eligible = trace.uops.iter().filter(|u| u.vp_eligible()).count() as u64;
        assert_eq!(stats.vp.eligible, eligible);
        assert!(stats.vp.used > 0, "the constant add was never predicted");
        assert_eq!(stats.vp.used, stats.vp.correct_used + stats.vp.incorrect_used);
    }

    #[test]
    fn loop_branches_become_predictable() {
        let trace = counted_loop_trace(2_000);
        let stats = simulate(CoreConfig::table2(), &trace);
        // One final not-taken mispredict plus warmup at most.
        let rate = stats.flush.branch_mispredicts as f64 / trace.arch_insts as f64;
        assert!(rate < 0.02, "mispredict rate = {rate}");
    }

    /// Stats for `iters` iterations of the loop `body` emits, counted
    /// down in x9 by a `subs`/`b.ne` pair, with x20 pointing at 0x7000.
    pub(super) fn run_loop(cfg: &CoreConfig, iters: i64, body: impl Fn(&mut Asm)) -> SimStats {
        let mut a = Asm::new();
        a.i(movz(x(9), iters));
        a.label("loop");
        body(&mut a);
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let mut m = Machine::new(a.assemble().unwrap());
        m.set_reg(x(20), 0x7000);
        let trace = m.run(u64::MAX);
        let stats = simulate(cfg.clone(), &trace);
        assert_eq!(stats.insts_retired, trace.arch_insts);
        stats
    }

    /// The steady-state cost of the loop `body` emits: the cycles 2N
    /// iterations take beyond N, at N = 1,000 and N = 2,000. A loop in
    /// steady state costs the same per iteration at both.
    pub(super) fn slopes(cfg: &CoreConfig, body: impl Fn(&mut Asm)) -> [u64; 2] {
        let cycles = |iters| run_loop(cfg, iters, &body).cycles;
        let (n1, n2, n4) = (cycles(1_000), cycles(2_000), cycles(4_000));
        [n2 - n1, n4 - n2]
    }

    fn add_chain(a: &mut Asm) {
        for _ in 0..4 {
            a.i(add(x(1), x(1), 1i64));
        }
    }

    #[test]
    fn dependent_alu_chain_limits_ipc() {
        // A pure serial chain cannot exceed 1 result per cycle.
        let cfg = CoreConfig::table2();
        let stats = run_loop(&cfg, 4_000, add_chain);
        // 4 serial adds per iteration → at least ~4 cycles/iteration.
        let cycles_per_iter = stats.cycles as f64 / 4_000.0;
        assert!(cycles_per_iter >= 3.5, "cycles/iter = {cycles_per_iter}");
        assert!(cycles_per_iter <= 8.0, "cycles/iter = {cycles_per_iter}");
        // Exactly: each iteration waits on its four adds in turn.
        let per_iter = 4 * cfg.latency(ExecClass::IntAlu);
        assert_eq!(slopes(&cfg, add_chain), [1_000 * per_iter, 2_000 * per_iter]);
    }

    #[test]
    fn dependent_chains_run_at_their_table2_latency() {
        use tvp_isa::reg::v;
        let cfg = CoreConfig::table2();
        // Each link of a 4-deep chain waits for the one before it, so
        // an iteration costs four of the class's latencies.
        let links = [
            (ExecClass::IntMul, mul(x(1), x(1), x(2))),
            (ExecClass::IntDiv, udiv(x(1), x(1), x(2))),
            (ExecClass::FpAlu, fadd(v(1), v(1), v(2))),
            (ExecClass::FpMul, fmul(v(1), v(1), v(2))),
            (ExecClass::FpMac, fmadd(v(1), v(1), v(2), v(3))),
            (ExecClass::FpDiv, fdiv(v(1), v(1), v(2))),
        ];
        for (class, link) in links {
            let chain = |a: &mut Asm| {
                for _ in 0..4 {
                    a.i(link);
                }
            };
            let per_iter = 4 * cfg.latency(class);
            assert_eq!(slopes(&cfg, chain), [1_000 * per_iter, 2_000 * per_iter], "{class:?}");
        }
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        let cfg = CoreConfig::table2();
        let body = |a: &mut Asm| {
            for k in 1..=5 {
                a.i(add(x(k), x(10), i64::from(k)));
            }
        };
        let stats = run_loop(&cfg, 4_000, body);
        assert!(stats.ipc() > 3.0, "independent IPC = {}", stats.ipc());
        // Front-end bound: six ALUs could issue two iterations a cycle,
        // but fetch stops at the taken branch and delivers one
        // iteration per fetch cycle plus the taken-branch bubble.
        let per_iter = 1 + cfg.taken_branch_penalty;
        assert_eq!(slopes(&cfg, body), [1_000 * per_iter, 2_000 * per_iter]);
    }

    #[test]
    fn gvp_accelerates_stable_load_chain() {
        // A serial chain through loads of never-changing pointers: the
        // pointer_chase mechanism in miniature.
        let w = tvp_workloads::suite::by_name("pointer_chase").unwrap();
        let trace = w.trace(60_000);
        let base = simulate_vp(VpMode::Off, false, &trace);
        let gvp = simulate_vp(VpMode::Gvp, false, &trace);
        let speedup = gvp.speedup_over(&base);
        assert!(speedup > 1.10, "GVP speedup on pointer_chase = {speedup}");
        assert!(gvp.vp.coverage() > 0.05, "coverage = {}", gvp.vp.coverage());
        assert!(gvp.vp.accuracy() > 0.99, "accuracy = {}", gvp.vp.accuracy());
        // MVP cannot capture 64-bit pointers: its gain must be a
        // small fraction of GVP's.
        let mvp = simulate_vp(VpMode::Mvp, false, &trace);
        let mvp_gain = mvp.speedup_over(&base) - 1.0;
        let gvp_gain = speedup - 1.0;
        assert!(mvp_gain < gvp_gain * 0.3, "MVP gain {mvp_gain:.3} vs GVP gain {gvp_gain:.3}");
    }

    #[test]
    fn spsr_eliminates_instructions_without_breaking_retirement() {
        let w = tvp_workloads::suite::by_name("mc_playout").unwrap();
        let trace = w.trace(40_000);
        let plain = simulate_vp(VpMode::Mvp, false, &trace);
        let spsr = simulate_vp(VpMode::Mvp, true, &trace);
        assert_eq!(spsr.insts_retired, trace.arch_insts);
        assert!(spsr.rename.spsr > 0, "no SpSR reductions found");
        assert!(
            spsr.activity.iq_dispatched < plain.activity.iq_dispatched,
            "SpSR must reduce IQ dispatches: {} vs {}",
            spsr.activity.iq_dispatched,
            plain.activity.iq_dispatched
        );
    }

    #[test]
    fn value_mispredictions_flush_and_stay_correct() {
        // A load whose value changes periodically: the predictor gains
        // confidence, then mispredicts, forcing flushes — retirement
        // must stay exact and accuracy high thanks to FPC.
        let mut a = Asm::new();
        a.i(movz(x(0), 0x4000));
        a.i(movz(x(9), 60_000));
        a.label("loop");
        a.i(ldr(x(1), AddrMode::BaseDisp { base: x(0), disp: 0 }));
        a.i(add(x(2), x(2), x(1)));
        a.i(and(x(3), x(9), 0xFFFi64));
        a.i(str(x(3), AddrMode::BaseDisp { base: x(0), disp: 8 }));
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let mut m = Machine::new(a.assemble().unwrap());
        m.write_mem(0x4000, 8, 7);
        let trace = m.run(30_000);
        let stats = simulate_vp(VpMode::Gvp, false, &trace);
        assert_eq!(stats.insts_retired, trace.arch_insts);
        assert!(stats.vp.used > 0);
    }

    #[test]
    fn store_load_forwarding_and_ordering() {
        // Store followed by a dependent load to the same address in a
        // tight loop: must retire correctly (forwarding or violation
        // recovery both acceptable timings).
        let cfg = CoreConfig::table2();
        let body = |a: &mut Asm| {
            a.i(add(x(1), x(1), 1i64));
            a.i(str(x(1), AddrMode::BaseDisp { base: x(20), disp: 0 }));
            a.i(ldr(x(2), AddrMode::BaseDisp { base: x(20), disp: 0 }));
            a.i(add(x(3), x(3), x(2)));
        };
        // The first load to pass its store trains the store sets; every
        // later one waits and forwards, so the loop stays front-end
        // bound at one iteration per fetch cycle plus the bubble.
        assert_eq!(run_loop(&cfg, 3_000, body).flush.mem_order_flushes, 1);
        let per_iter = 1 + cfg.taken_branch_penalty;
        assert_eq!(slopes(&cfg, body), [1_000 * per_iter, 2_000 * per_iter]);
    }

    #[test]
    fn forwarding_with_multiple_older_overlapping_stores() {
        // Two older stores cover the loaded range (one exactly, one
        // overlapping): the existence scan over older issued stores
        // must forward, and retirement must stay exact. This is the
        // shape where a youngest-first `rev().find()` and an
        // oldest-first `any()` see different *witnesses* but must
        // agree on the answer.
        let mut a = Asm::new();
        a.i(movz(x(0), 0x8000));
        a.i(movz(x(9), 2_000));
        a.label("loop");
        a.i(add(x(1), x(1), 1i64));
        a.i(str(x(1), AddrMode::BaseDisp { base: x(0), disp: 0 }));
        a.i(str(x(1), AddrMode::BaseDisp { base: x(0), disp: 4 }));
        a.i(ldr(x(2), AddrMode::BaseDisp { base: x(0), disp: 0 }));
        a.i(add(x(3), x(3), x(2)));
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let trace = Machine::new(a.assemble().unwrap()).run(30_000);
        let stats = simulate(CoreConfig::table2(), &trace);
        assert_eq!(stats.insts_retired, trace.arch_insts);
        let again = simulate(CoreConfig::table2(), &trace);
        assert_eq!(stats.cycles, again.cycles);
    }

    #[test]
    fn idiom_elimination_reduces_dispatch() {
        // A loop full of eliminable idioms barely touches the IQ.
        let mut a = Asm::new();
        a.i(movz(x(9), 4_000));
        a.label("loop");
        a.i(movz(x(1), 0)); // zero idiom
        a.i(movz(x(2), 1)); // one idiom
        a.i(mov(x(3), x(4))); // move elimination
        a.i(eor(x(5), x(6), x(6))); // zero idiom
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let trace = Machine::new(a.assemble().unwrap()).run(30_000);
        let stats = simulate(CoreConfig::table2(), &trace);
        let r = stats.rename;
        assert!(r.zero_idiom > 7_000, "zero idioms = {}", r.zero_idiom);
        assert!(r.one_idiom > 3_000);
        assert!(r.move_elim > 3_000);
        // Eliminated µops never dispatch.
        assert!(stats.activity.iq_dispatched < stats.uops_retired);
    }

    #[test]
    fn all_suite_kernels_complete_under_every_config() {
        for name in ["string_match", "sparse_graph", "stream_triad"] {
            let w = tvp_workloads::suite::by_name(name).unwrap();
            let trace = w.trace(8_000);
            for vp in [VpMode::Off, VpMode::Mvp, VpMode::Tvp, VpMode::Gvp] {
                for spsr in [false, true] {
                    let stats = simulate_vp(vp, spsr, &trace);
                    assert_eq!(
                        stats.insts_retired, trace.arch_insts,
                        "{name} under {vp:?}/spsr={spsr}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use tvp_chaos::{ChaosConfig, DivergenceKind};

    /// Runs a suite workload functionally: `(init, trace, golden)`, the
    /// machine before the run, its trace and its state after.
    fn golden_run(name: &str, n: u64) -> (Machine, Trace, ArchSnapshot) {
        let w = tvp_workloads::suite::by_name(name).expect("workload exists");
        let mut m = w.machine();
        let init = m.clone();
        let trace = m.run(n);
        (init, trace, m.arch_snapshot())
    }

    #[test]
    fn chaos_campaign_commits_identical_architectural_state() {
        // Full fault campaign (≥2% forced VP mispredicts, predictor
        // table corruption, branch inversion, cache delays, prefetch
        // drops) against the golden-model oracle: timing is perturbed
        // but committed state must be architecturally identical.
        let (init, trace, golden) = golden_run("pointer_chase", 12_000);
        let cfg = CoreConfig::with_vp(VpMode::Gvp).with_chaos(ChaosConfig::campaign(0xC0FFEE));
        let mut core = Core::new(cfg);
        core.enable_oracle(init);
        let stats = core.run(&trace);
        assert!(core.watchdog_diagnostic().is_none());
        assert_eq!(stats.insts_retired, trace.arch_insts);
        assert!(
            stats.chaos.vp_forced_mispredicts > 0,
            "campaign must actually force mispredictions: {:?}",
            stats.chaos
        );
        assert!(stats.chaos.total() > stats.chaos.vp_forced_mispredicts, "other sites fired too");
        assert_eq!(core.oracle_divergence(), None);
        assert_eq!(core.oracle_final_check(&golden), None);
    }

    #[test]
    fn sabotaged_recovery_is_caught_with_replayable_seed() {
        // Same campaign, but value-misprediction squashes deliberately
        // skip the trace-cursor rollback: squashed µops are never
        // refetched and the oracle must report the sequence gap, with
        // the campaign seed attached for replay.
        let seed = 0xBAD_5EED;
        let (init, trace, _) = golden_run("pointer_chase", 12_000);
        let cfg =
            CoreConfig::with_vp(VpMode::Gvp).with_chaos(ChaosConfig::sabotaged_campaign(seed));
        let mut core = Core::new(cfg);
        core.enable_oracle(init);
        let _stats = core.run(&trace);
        let d = core.oracle_divergence().expect("sabotage must diverge");
        assert!(
            matches!(d.kind, DivergenceKind::Order { .. }),
            "skipped refetch shows up as an order gap: {d}"
        );
        assert_eq!(d.chaos_seed, Some(seed), "divergence must carry the replaying seed");
        assert!(d.to_string().contains("replay with chaos seed"), "{d}");
    }

    #[test]
    fn chaos_campaigns_are_deterministic() {
        let (init, trace, _) = golden_run("mc_playout", 8_000);
        let run = || {
            let cfg = CoreConfig::with_vp(VpMode::Tvp).with_chaos(ChaosConfig::campaign(7));
            let mut core = Core::new(cfg);
            core.enable_oracle(init.clone());
            let stats = core.run(&trace);
            (stats.cycles, stats.chaos, stats.flush.vp_flushes)
        };
        assert_eq!(run(), run(), "same seed must replay the same campaign exactly");
    }

    #[test]
    fn watchdog_trips_with_structured_diagnostic() {
        // A watchdog threshold shorter than the cold I-cache miss at
        // cycle 0 must trip immediately and describe the stall instead
        // of hanging.
        let (_, trace, _) = golden_run("stream_triad", 2_000);
        let mut cfg = CoreConfig::table2();
        cfg.watchdog_cycles = 20;
        let mut core = Core::new(cfg);
        let _stats = core.run(&trace);
        let diag = core.watchdog_diagnostic().expect("cold-start stall exceeds 20 cycles");
        assert!(diag.stalled_cycles >= 20);
        let text = diag.to_string();
        assert!(text.contains("no commit progress"), "{text}");
    }

    #[test]
    fn functional_warming_moves_the_squash_floor_with_the_front_end() {
        // A squash that finds no in-flight branch checkpoint restores the
        // floor, so after warming the floor must hold the warmed front
        // end (histories, RAS, indirect path), not the cold one.
        let (_, warm, _) = golden_run("mc_playout", 5_000);
        let mut core = Core::new(CoreConfig::with_vp(VpMode::Tvp));
        let cold = core.pred.mark(0);
        core.functional_warm(&warm);
        let warmed = core.pred.mark(0);
        assert_ne!(warmed, cold, "warming moved the front end");
        core.pred.squash(0);
        assert_eq!(core.pred.mark(0), warmed);
    }

    #[test]
    fn a_skipping_core_trips_the_watchdog_on_the_stepping_cycle() {
        // The cold start stalls for hundreds of quiet cycles. A plain
        // core jumps over them, an audited one steps through each; both
        // must trip on the same cycle with the same dump and books.
        let (_, trace, _) = golden_run("stream_triad", 2_000);
        for threshold in [20, 100, 200] {
            let mut cfg = CoreConfig::table2();
            cfg.watchdog_cycles = threshold;
            let mut skipping = Core::new(cfg.clone());
            let mut stepping = Core::new(cfg);
            stepping.enable_audit(0);
            let (a, b) = (skipping.run(&trace), stepping.run(&trace));
            let dump = |core: &Core| core.watchdog_diagnostic().map(ToString::to_string);
            assert!(dump(&skipping).is_some(), "threshold {threshold}: the cold stall trips");
            assert_eq!(dump(&skipping), dump(&stepping), "threshold {threshold}");
            assert_eq!(a, b, "threshold {threshold}");
            assert_eq!(skipping.cpi_stack(), stepping.cpi_stack(), "threshold {threshold}");
        }
    }

    #[test]
    fn watchdog_counts_from_the_segment_start() {
        // A sampled interval: functional warming advances `cycle` past
        // the threshold, `begin_measurement` zeroes the retired count,
        // and the measured segment must still run to completion.
        let w = tvp_workloads::suite::by_name("stream_triad").expect("workload exists");
        let mut m = w.machine();
        let warm = m.run(3_000);
        let measured = m.run(500);
        let mut cfg = CoreConfig::table2();
        cfg.watchdog_cycles = 1_000;
        let mut core = Core::new(cfg);
        core.functional_warm(&warm);
        assert!(warm.uops.len() >= 2_000 && core.cycle > 1_000, "warming passed the threshold");
        core.begin_measurement();
        let stats = core.run_segment(&measured);
        assert!(core.watchdog_diagnostic().is_none(), "{:?}", core.watchdog_diagnostic());
        assert_eq!(stats.uops_retired, measured.uops.len() as u64);
        assert_eq!(stats.insts_retired, measured.arch_insts);
    }
}

#[cfg(test)]
mod adaptive_silencing_tests {
    use super::*;
    use tvp_isa::flags::Cond;
    use tvp_isa::inst::build::*;
    use tvp_isa::inst::AddrMode;
    use tvp_isa::reg::x;
    use tvp_workloads::program::Asm;
    use tvp_workloads::Machine;

    /// A load that flips value every `period` iterations: clustered
    /// mispredictions once confidence builds.
    fn flipping_trace() -> Trace {
        let mut a = Asm::new();
        a.i(movz(x(9), 30_000));
        a.label("loop");
        a.i(and(x(1), x(9), 0x1FFi64));
        a.i(cmp(x(1), 256i64));
        a.i(cset(x(2), Cond::Cc));
        a.i(str_sized(x(2), AddrMode::BaseDisp { base: x(20), disp: 0 }, 1));
        a.i(ldr_sized(x(3), AddrMode::BaseDisp { base: x(20), disp: 0 }, 1, false));
        a.i(add(x(4), x(4), x(3)));
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let mut m = Machine::new(a.assemble().unwrap());
        m.set_reg(x(20), 0x50_0000);
        m.run(250_000)
    }

    #[test]
    fn adaptive_silencing_matches_fixed_outside_storms() {
        // Isolated mispredictions (one per value flip) gain nothing
        // from backoff, but must not lose anything either.
        let trace = flipping_trace();
        let run = |adaptive: bool| {
            let mut cfg = CoreConfig::with_vp(VpMode::Mvp);
            cfg.silence_cycles = 50;
            cfg.adaptive_silencing = adaptive;
            simulate(cfg, &trace)
        };
        let fixed = run(false);
        let adaptive = run(true);
        assert_eq!(fixed.insts_retired, adaptive.insts_retired);
        assert!(
            adaptive.flush.vp_flushes <= fixed.flush.vp_flushes,
            "backoff must never add flushes: {} vs {}",
            adaptive.flush.vp_flushes,
            fixed.flush.vp_flushes
        );
    }

    #[test]
    fn adaptive_silencing_escapes_a_livelock_prone_window() {
        // A silencing window shorter than the flush-to-rename path
        // would re-use the same stale confident prediction forever:
        // the paper's livelock (§3.4.1). The geometric backoff
        // escapes it.
        let trace = flipping_trace();
        let mut cfg = CoreConfig::with_vp(VpMode::Mvp);
        cfg.silence_cycles = 2; // shorter than redirect + decode depth
        cfg.adaptive_silencing = true;
        let s = simulate(cfg, &trace);
        assert_eq!(s.insts_retired, trace.arch_insts);
        assert!(s.flush.vp_flushes > 0);
    }

    #[test]
    fn adaptive_silencing_is_neutral_when_values_behave() {
        let w = tvp_workloads::suite::by_name("mc_playout").unwrap();
        let trace = w.trace(25_000);
        let run = |adaptive: bool| {
            let mut cfg = CoreConfig::with_vp(VpMode::Mvp);
            cfg.adaptive_silencing = adaptive;
            simulate(cfg, &trace)
        };
        let fixed = run(false);
        let adaptive = run(true);
        let delta = (adaptive.cycles as f64 / fixed.cycles as f64 - 1.0).abs();
        assert!(delta < 0.02, "well-behaved workloads should be unaffected: {delta}");
    }
}

#[cfg(test)]
mod control_flow_tests {
    use super::*;
    use tvp_isa::flags::Cond;
    use tvp_isa::inst::build::*;
    use tvp_isa::inst::AddrMode;
    use tvp_isa::reg::x;
    use tvp_workloads::program::Asm;
    use tvp_workloads::Machine;

    #[test]
    fn calls_and_returns_flow_through_the_ras() {
        let mut a = Asm::new();
        a.i(movz(x(9), 3_000));
        a.label("loop");
        a.bl("helper");
        a.bl("helper");
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        a.b("end");
        a.label("helper");
        a.i(add(x(1), x(1), 1i64));
        a.ret();
        a.label("end");
        a.i(nop());
        let trace = Machine::new(a.assemble().unwrap()).run(50_000);
        let s = simulate(CoreConfig::table2(), &trace);
        assert_eq!(s.insts_retired, trace.arch_insts);
        // Returns are RAS-predicted: misses should be a warmup handful.
        let rate = s.flush.branch_mispredicts as f64 / trace.arch_insts as f64;
        assert!(rate < 0.02, "call/ret mispredict rate {rate}");
    }

    #[test]
    fn monomorphic_indirect_branches_are_learned() {
        // A jump through a register that always targets the same
        // label: the indirect target cache should capture it.
        let mut a = Asm::new();
        a.i(movz(x(9), 3_000));
        a.label("loop");
        a.i(movz(x(5), 0x1_0000 + 6 * 4)); // address of "body"
        a.br(x(5));
        a.i(nop()); // skipped
        a.label("body");
        a.i(add(x(1), x(1), 1i64));
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let trace = Machine::new(a.assemble().unwrap()).run(50_000);
        let s = simulate(CoreConfig::table2(), &trace);
        assert_eq!(s.insts_retired, trace.arch_insts);
        let rate = s.flush.branch_mispredicts as f64 / trace.arch_insts as f64;
        assert!(rate < 0.05, "indirect mispredict rate {rate}");
    }

    #[test]
    fn store_sets_learn_to_avoid_repeat_violations() {
        // A tight store→load same-address pattern: the first ordering
        // violation trains the SSIT, after which the load waits.
        let mut a = Asm::new();
        a.i(movz(x(9), 4_000));
        a.label("loop");
        a.i(add(x(1), x(1), 3i64));
        a.i(mul(x(2), x(1), x(1))); // delay the store's data
        a.i(str(x(2), AddrMode::BaseDisp { base: x(20), disp: 0 }));
        a.i(ldr(x(3), AddrMode::BaseDisp { base: x(20), disp: 0 }));
        a.i(add(x(4), x(4), x(3)));
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let mut m = Machine::new(a.assemble().unwrap());
        m.set_reg(x(20), 0x7000);
        let trace = m.run(50_000);
        let s = simulate(CoreConfig::table2(), &trace);
        assert_eq!(s.insts_retired, trace.arch_insts);
        // Far fewer violations than iterations → the predictor learned.
        assert!(
            s.flush.mem_order_flushes < 4_000 / 10,
            "mem-order flushes = {} (no learning?)",
            s.flush.mem_order_flushes
        );
        // Exactly: the first violation trains the pair, and the load
        // waits for its store ever after, however long the loop runs.
        let body = |a: &mut Asm| {
            a.i(add(x(1), x(1), 3i64));
            a.i(mul(x(2), x(1), x(1)));
            a.i(str(x(2), AddrMode::BaseDisp { base: x(20), disp: 0 }));
            a.i(ldr(x(3), AddrMode::BaseDisp { base: x(20), disp: 0 }));
            a.i(add(x(4), x(4), x(3)));
        };
        for iters in [1_000, 2_000, 4_000] {
            let s = super::tests::run_loop(&CoreConfig::table2(), iters, body);
            assert_eq!(s.flush.mem_order_flushes, 1, "{iters} iterations");
        }
    }

    #[test]
    fn gvp_flush_excludes_the_predicted_uop_itself() {
        // GVP has a register to repair, so the mispredicted µop is not
        // refetched — only younger µops squash. Check via squashed
        // counts against MVP on the same value-hostile trace.
        let mut a = Asm::new();
        a.i(movz(x(9), 20_000));
        a.label("loop");
        a.i(and(x(1), x(9), 0x7FFi64));
        a.i(cmp(x(1), 1024i64));
        a.i(cset(x(2), Cond::Cc));
        a.i(str_sized(x(2), AddrMode::BaseDisp { base: x(20), disp: 0 }, 1));
        a.i(ldr_sized(x(3), AddrMode::BaseDisp { base: x(20), disp: 0 }, 1, false));
        a.i(add(x(4), x(4), x(3)));
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let mut m = Machine::new(a.assemble().unwrap());
        m.set_reg(x(20), 0x7100);
        let trace = m.run(200_000);
        let mvp = simulate_vp(VpMode::Mvp, false, &trace);
        let gvp = simulate_vp(VpMode::Gvp, false, &trace);
        assert_eq!(mvp.insts_retired, trace.arch_insts);
        assert_eq!(gvp.insts_retired, trace.arch_insts);
        if mvp.flush.vp_flushes > 0 && gvp.flush.vp_flushes > 0 {
            let mvp_per = mvp.flush.squashed_uops as f64 / mvp.flush.vp_flushes as f64;
            let gvp_per = gvp.flush.squashed_uops as f64 / gvp.flush.vp_flushes as f64;
            assert!(
                gvp_per <= mvp_per + 1.0,
                "GVP flushes should not squash more per event: {gvp_per} vs {mvp_per}"
            );
        }
    }

    #[test]
    fn fp_divides_serialize_on_the_unpipelined_unit() {
        use tvp_isa::reg::v;
        let cfg = CoreConfig::table2();
        // Two independent FP divides per iteration compete for the
        // single non-pipelined divider, each holding it for its whole
        // latency.
        let pair = |a: &mut Asm| {
            a.i(fdiv(v(1), v(2), v(3)));
            a.i(fdiv(v(4), v(5), v(6)));
        };
        let per_iter = 2 * cfg.latency(ExecClass::FpDiv);
        assert_eq!(super::tests::slopes(&cfg, pair), [1_000 * per_iter, 2_000 * per_iter]);
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use crate::config::RecoveryPolicy;
    use tvp_isa::flags::Cond;
    use tvp_isa::inst::build::*;
    use tvp_isa::inst::AddrMode;
    use tvp_isa::reg::x;
    use tvp_workloads::program::Asm;
    use tvp_workloads::Machine;

    /// A wide (64-bit) loaded value that changes periodically, with a
    /// chain of dependent work — GVP gains confidence, mispredicts on
    /// each change, and under Replay only the consumers re-execute.
    fn wide_flipping_trace() -> Trace {
        let mut a = Asm::new();
        a.i(movz(x(9), 25_000));
        a.label("loop");
        a.i(and(x(1), x(9), 0xFFFi64));
        a.i(cmp(x(1), 2048i64));
        a.i(cset(x(2), Cond::Cc));
        a.i(lsl(x(2), x(2), 40i64)); // wide value: 0 or 1<<40
        a.i(add(x(2), x(2), 0x1234i64));
        a.i(str(x(2), AddrMode::BaseDisp { base: x(20), disp: 0 }));
        a.i(ldr(x(3), AddrMode::BaseDisp { base: x(20), disp: 0 })); // wide, GVP-only
        a.i(lsr(x(4), x(3), 8i64)); // consumers
        a.i(add(x(5), x(5), x(4)));
        a.i(eor(x(6), x(3), x(5)));
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let mut m = Machine::new(a.assemble().unwrap());
        m.set_reg(x(20), 0x60_0000);
        m.run(280_000)
    }

    #[test]
    fn replay_retires_exactly_and_replays_instead_of_flushing() {
        let trace = wide_flipping_trace();
        let run = |policy: RecoveryPolicy| {
            let mut cfg = CoreConfig::with_vp(VpMode::Gvp);
            cfg.recovery = policy;
            simulate(cfg, &trace)
        };
        let flush = run(RecoveryPolicy::Flush);
        let replay = run(RecoveryPolicy::Replay);
        assert_eq!(flush.insts_retired, trace.arch_insts);
        assert_eq!(replay.insts_retired, trace.arch_insts);
        if flush.flush.vp_flushes > 0 {
            assert!(
                replay.flush.vp_replays > 0,
                "replay policy should convert flushes into replays"
            );
            assert!(
                replay.flush.vp_flushes < flush.flush.vp_flushes,
                "replays: {} flushes remain {} (was {})",
                replay.flush.vp_replays,
                replay.flush.vp_flushes,
                flush.flush.vp_flushes
            );
            // Replay squashes nothing for the replayed events.
            assert!(replay.flush.squashed_uops <= flush.flush.squashed_uops);
            // And should not be slower.
            assert!(
                replay.cycles <= flush.cycles + flush.cycles / 50,
                "replay {} vs flush {}",
                replay.cycles,
                flush.cycles
            );
        }
    }

    #[test]
    fn replay_policy_never_applies_to_named_predictions() {
        // MVP predictions have no register to repair: even under
        // Replay they must flush (and refetch the µop itself).
        let trace = wide_flipping_trace();
        let mut cfg = CoreConfig::with_vp(VpMode::Mvp);
        cfg.recovery = RecoveryPolicy::Replay;
        let s = simulate(cfg, &trace);
        assert_eq!(s.insts_retired, trace.arch_insts);
        assert_eq!(s.flush.vp_replays, 0, "MVP cannot replay");
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = wide_flipping_trace();
        let run = || {
            let mut cfg = CoreConfig::with_vp(VpMode::Gvp);
            cfg.recovery = RecoveryPolicy::Replay;
            simulate(cfg, &trace)
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.flush.vp_replays, b.flush.vp_replays);
        assert_eq!(a.flush.replayed_uops, b.flush.replayed_uops);
    }

    #[test]
    fn replay_works_across_the_suite() {
        for name in ["pointer_chase", "discrete_event", "mc_playout"] {
            let w = tvp_workloads::suite::by_name(name).unwrap();
            let trace = w.trace(15_000);
            let mut cfg = CoreConfig::with_vp(VpMode::Gvp);
            cfg.recovery = RecoveryPolicy::Replay;
            let s = simulate(cfg, &trace);
            assert_eq!(s.insts_retired, trace.arch_insts, "{name}");
        }
    }
}

#[cfg(test)]
mod frontend_tests {
    use super::*;
    use tvp_isa::flags::Cond;
    use tvp_isa::inst::build::*;
    use tvp_isa::reg::x;
    use tvp_workloads::program::Asm;
    use tvp_workloads::Machine;

    fn tight_loop_trace(body_nops: usize, iters: i64) -> Trace {
        let mut a = Asm::new();
        a.i(movz(x(9), iters));
        a.label("loop");
        for _ in 0..body_nops {
            a.i(add(x(1), x(2), x(3)));
        }
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        Machine::new(a.assemble().unwrap()).run(200_000)
    }

    #[test]
    fn taken_branch_penalty_costs_cycles() {
        // A tiny loop is taken-branch-bound: raising the penalty must
        // slow it by roughly one cycle per iteration.
        let trace = tight_loop_trace(2, 4_000);
        let run = |penalty: u64| {
            let mut cfg = CoreConfig::table2();
            cfg.taken_branch_penalty = penalty;
            simulate(cfg, &trace)
        };
        let fast = run(0);
        let slow = run(3);
        let delta = slow.cycles as f64 - fast.cycles as f64;
        assert!(
            delta > 4_000.0 * 2.0,
            "3 extra bubble cycles/iter should cost > 8k cycles, got {delta}"
        );
    }

    #[test]
    fn btb_warmup_is_visible_then_disappears() {
        // First encounter of each taken branch pays the decode-redirect
        // bubble; afterwards the BTB hits. Compare a huge-penalty
        // configuration: total cost must be bounded by (static branch
        // count × penalty), not scale with iterations.
        let trace = tight_loop_trace(6, 3_000);
        let run = |penalty: u64| {
            let mut cfg = CoreConfig::table2();
            cfg.btb_miss_penalty = penalty;
            simulate(cfg, &trace)
        };
        let base = run(0);
        let costly = run(40);
        let delta = costly.cycles.saturating_sub(base.cycles);
        assert!(delta < 40 * 16, "BTB misses must be warmup-only: delta {delta}");
    }

    #[test]
    fn fetch_queue_capacity_limits_frontend_runahead() {
        let trace = tight_loop_trace(10, 2_000);
        let run = |fq: usize| {
            let mut cfg = CoreConfig::table2();
            cfg.fetch_queue = fq;
            simulate(cfg, &trace)
        };
        let big = run(32);
        let tiny = run(2);
        assert!(tiny.cycles >= big.cycles, "a 2-entry fetch queue cannot be faster");
    }

    #[test]
    fn icache_misses_stall_cold_fetch_only() {
        // A program large enough to span many I-cache lines: the second
        // outer iteration must run much faster than the first.
        let mut a = Asm::new();
        a.i(movz(x(9), 40));
        a.label("outer");
        for i in 0..400 {
            a.i(add(x(1), x(2), i as i64 % 100));
        }
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "outer");
        let trace = Machine::new(a.assemble().unwrap()).run(50_000);
        let s = simulate(CoreConfig::table2(), &trace);
        // 40 iterations × 402 insts at 8-wide ≈ 2k cycles + one cold
        // sweep; anything beyond ~3× ideal means repeated stalls.
        let ideal = trace.uops.len() as f64 / 8.0;
        assert!(
            (s.cycles as f64) < ideal * 3.0,
            "I-cache must warm up: {} vs ideal {}",
            s.cycles,
            ideal
        );
    }
}
