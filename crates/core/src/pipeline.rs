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

use std::collections::VecDeque;

use tvp_chaos::{
    ChaosEngine, CommitOracle, DeadlockDiagnostic, Divergence, FaultKind, MshrInfo, RobHeadInfo,
    Sabotage, Watchdog,
};
use tvp_isa::op::{BranchKind, ExecClass, Op};
use tvp_isa::stream::{fnv1a_fold, FNV1A_OFFSET};
use tvp_mem::hierarchy::Hierarchy;
use tvp_obs::counters::{sat_add, sat_inc};
use tvp_obs::cpi::{CpiStack, SlotClass};
use tvp_obs::event::{EventKind, TraceEvent, Tracer};
use tvp_obs::registry::Registry;
use tvp_predictors::btb::Btb;
use tvp_predictors::history::BranchHistory;
use tvp_predictors::indirect::IndirectTargetCache;
use tvp_predictors::ras::Ras;
use tvp_predictors::tage::{Tage, TageToken};
use tvp_predictors::vtage::{Vtage, VtagePred};
use tvp_workloads::trace::{Trace, TraceUop};

use crate::config::{CoreConfig, FuPool, RecoveryPolicy, VpMode};
use crate::inline_vec::{InlineVec, MAX_DST_REGS};
use crate::physreg::PhysName;
use crate::rename::{Dep, ElimCategory, PredApply, RegClass, RenamedUop, Renamer};
use crate::scheduler::Scheduler;
use crate::stats::SimStats;
use crate::storesets::StoreSets;
use tvp_workloads::machine::ArchSnapshot;

/// A µop sitting in the fetch queue.
#[derive(Clone, Debug)]
struct Fetched {
    idx: usize,
    rename_ready: u64,
    tage_token: Option<TageToken>,
    fetch_wait: bool,
    itc_path_at_predict: u64,
}

#[derive(Clone, Debug)]
struct RobEntry {
    idx: usize,
    seq: u64,
    renamed: RenamedUop,
    new_names: InlineVec<(usize, PhysName), MAX_DST_REGS>,
    in_iq: bool,
    issued: bool,
    /// For loads/stores: this entry's position in its LSQ
    /// (`base + len` at push time), giving O(1) seq→index lookup as
    /// `lsq_pos - lq_base`/`- sq_base`. Zero for other µops.
    lsq_pos: u64,
    done_cycle: u64,
    dispatch_ready: u64,
    tage_token: Option<TageToken>,
    vp_token: Option<VtagePred>,
    fetch_wait: bool,
    first_uop: bool,
    itc_path_at_predict: u64,
}

#[derive(Clone, Copy, Debug)]
struct LqEntry {
    seq: u64,
    addr: u64,
    size: u8,
    issued: bool,
    wait_store: Option<u64>,
}

#[derive(Clone, Copy, Debug)]
struct SqEntry {
    seq: u64,
    addr: u64,
    size: u8,
    issued: bool,
    pc: u64,
}

/// Speculative front-end state after one fetched branch, held inline
/// so pushing one allocates nothing.
#[derive(Clone, Copy, Debug)]
struct Checkpoint {
    seq: u64,
    tage: BranchHistory,
    vtage: Option<BranchHistory>,
    ras: Ras,
    itc_path: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FlushKind {
    ValueMispredict,
    MemOrder,
}

#[derive(Clone, Copy, Debug)]
struct PendingFlush {
    at_cycle: u64,
    first_squashed_seq: u64,
    kind: FlushKind,
}

#[derive(Clone, Copy, Debug)]
struct PendingReplay {
    at_cycle: u64,
    seq: u64,
    reg: u16,
}

fn overlap(a_addr: u64, a_size: u8, b_addr: u64, b_size: u8) -> bool {
    // Saturating ends: a range touching the top of the address space
    // must not wrap to 0 and report disjoint (or panic in debug).
    a_addr < b_addr.saturating_add(u64::from(b_size))
        && b_addr < a_addr.saturating_add(u64::from(a_size))
}

/// Conservative summary of the *issued* entries in one load/store
/// queue: how many there are, and a bounding address interval
/// containing all of them. The interval only grows while any issued
/// entry remains and resets when the count reaches zero, so it is
/// always a superset — a load/store whose range misses the interval
/// provably has no issued partner and skips the queue scan entirely.
#[derive(Clone, Copy, Debug)]
struct IssuedWindow {
    count: usize,
    lo: u64,
    hi: u64,
}

impl IssuedWindow {
    fn new() -> Self {
        IssuedWindow { count: 0, lo: u64::MAX, hi: 0 }
    }

    fn add(&mut self, addr: u64, size: u8) {
        self.count += 1;
        self.lo = self.lo.min(addr);
        self.hi = self.hi.max(addr.saturating_add(u64::from(size)));
    }

    fn remove(&mut self) {
        debug_assert!(self.count > 0);
        self.count -= 1;
        if self.count == 0 {
            self.lo = u64::MAX;
            self.hi = 0;
        }
    }

    fn may_overlap(&self, addr: u64, size: u8) -> bool {
        self.count > 0 && addr < self.hi && self.lo < addr.saturating_add(u64::from(size))
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
    tage: Tage,
    btb: Btb,
    ras: Ras,
    itc: IndirectTargetCache,
    vtage: Option<Vtage>,
    mem: Hierarchy,
    renamer: Renamer,
    storesets: StoreSets,

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
    rob: VecDeque<RobEntry>,
    iq_count: usize,
    lq: VecDeque<LqEntry>,
    sq: VecDeque<SqEntry>,
    // LSQ position bases: `*_base` counts every pop_front, so an entry
    // pushed at position `base + len` currently lives at index
    // `position - base` (pop_back shrinks from the tail and
    // invalidates no surviving index or position).
    lq_base: u64,
    sq_base: u64,
    lq_issued: IssuedWindow,
    sq_issued: IssuedWindow,
    sched: Scheduler,
    // Reusable consumer-wakeup scratch — cleared per use, never
    // reallocated on the per-cycle path.
    wake_scratch: Vec<u64>,
    replay_wake_scratch: Vec<u64>,
    checkpoints: VecDeque<Checkpoint>,
    floor: Checkpoint,
    pending_flushes: Vec<PendingFlush>,
    pending_replays: Vec<PendingReplay>,
    // Next-due watermarks: the minimum `at_cycle` over the pending
    // flush/replay sets (`u64::MAX` when empty), so quiet cycles skip
    // the due-filtering entirely instead of re-scanning per cycle.
    flushes_next_due: u64,
    replays_next_due: u64,
    // Reusable scratch (replay wavefront) — cleared per use, never
    // reallocated on the per-cycle path.
    replay_due_scratch: Vec<PendingReplay>,
    replay_poison_scratch: Vec<crate::rename::Dep>,
    silence_until: u64,
    silence_len: u64,
    last_vp_flush: u64,
    int_div_busy: u64,
    fp_div_busy: u64,
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
        let tage = Tage::new(cfg.tage.clone());
        let vtage = cfg.effective_vtage().map(Vtage::new);
        let ras = Ras::new(32);
        let itc = IndirectTargetCache::new(1024, 12);
        let floor = Checkpoint {
            seq: 0,
            tage: tage.history_checkpoint(),
            vtage: vtage.as_ref().map(Vtage::history_checkpoint),
            ras,
            itc_path: itc.path_checkpoint(),
        };
        // Front-end refill depth after a flush redirect: how long the
        // ROB stays empty while refetched µops travel to dispatch. The
        // CPI accountant charges that shadow to the flush's class.
        let flush_refill = cfg.redirect_penalty
            + cfg.fetch_to_decode
            + cfg.decode_to_rename
            + cfg.rename_to_dispatch;
        Core {
            fu: FuPool::default(),
            btb: Btb::new(8192, 4),
            mem: Hierarchy::new(cfg.mem.clone()),
            renamer: Renamer::new(&cfg),
            storesets: StoreSets::new(2048, 2048),
            tage,
            ras,
            itc,
            vtage,
            cycle: 0,
            cycle_base: 0,
            cursor: 0,
            fetch_queue: VecDeque::new(),
            fetch_resume: 0,
            fetch_wait_branch: None,
            current_line: u64::MAX,
            rob: VecDeque::new(),
            iq_count: 0,
            lq: VecDeque::new(),
            sq: VecDeque::new(),
            lq_base: 0,
            sq_base: 0,
            lq_issued: IssuedWindow::new(),
            sq_issued: IssuedWindow::new(),
            sched: Scheduler::new(cfg.int_regs, cfg.fp_regs),
            wake_scratch: Vec::new(), // audited(no-alloc-in-hot-path): constructor
            replay_wake_scratch: Vec::new(), // audited(no-alloc-in-hot-path): constructor
            checkpoints: VecDeque::new(),
            floor,
            pending_flushes: Vec::new(), // audited(no-alloc-in-hot-path): constructor
            pending_replays: Vec::new(), // audited(no-alloc-in-hot-path): constructor
            flushes_next_due: u64::MAX,
            replays_next_due: u64::MAX,
            replay_due_scratch: Vec::new(), // audited(no-alloc-in-hot-path): constructor
            replay_poison_scratch: Vec::new(), // audited(no-alloc-in-hot-path): constructor
            silence_until: 0,
            silence_len: cfg.silence_cycles,
            last_vp_flush: 0,
            int_div_busy: 0,
            fp_div_busy: 0,
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
    pub fn run(&mut self, trace: &Trace) -> SimStats {
        let mut watchdog =
            Watchdog::new(self.cfg.watchdog_cycles, self.cycle, self.stats.uops_retired);
        while self.cursor < trace.uops.len() || !self.rob.is_empty() || !self.fetch_queue.is_empty()
        {
            self.step(trace);
            if watchdog.observe(self.cycle, self.stats.uops_retired) {
                let stalled = watchdog.stalled_for(self.cycle);
                self.tracer.record(EventKind::Watchdog, self.cycle, 0, 0, stalled);
                self.watchdog_diag = Some(self.deadlock_diagnostic(trace, stalled));
                break;
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
            // Instruction-side: line fill plus the same degree-4
            // next-line prefetch the fetch stage issues.
            let line = u.pc >> 6;
            if line != self.current_line {
                let _ = self.mem.inst_access(u.pc, self.cycle);
                for i in 1..=4u64 {
                    self.mem.inst_prefetch(u.pc + i * 64, self.cycle);
                }
                self.current_line = line;
            }

            if let Some(outcome) = u.branch {
                let kind = u.uop.op.branch_kind().expect("branch outcome implies branch");
                match kind {
                    BranchKind::CondDirect => {
                        // Predict-then-update with the same token the
                        // detailed path would carry from fetch to
                        // retire; architectural order makes the two
                        // adjacent here.
                        let token = self.tage.predict(u.pc);
                        self.tage.push_history(outcome.taken);
                        if let Some(vp) = self.vtage.as_mut() {
                            vp.push_history(outcome.taken);
                        }
                        self.tage.update(&token, outcome.taken);
                    }
                    BranchKind::UncondDirect => {}
                    BranchKind::Call => self.ras.push(u.pc + 4),
                    BranchKind::Return => {
                        let _ = self.ras.pop();
                    }
                    BranchKind::Indirect | BranchKind::IndirectCall => {
                        let path = self.itc.path_checkpoint();
                        let _ = self.itc.predict(u.pc);
                        if kind == BranchKind::IndirectCall {
                            self.ras.push(u.pc + 4);
                        }
                        self.itc.update_with_path(u.pc, outcome.target, path);
                    }
                }
                if outcome.taken {
                    self.btb.insert(u.pc, outcome.target, kind);
                    self.itc.push_path(outcome.target);
                    self.current_line = outcome.target >> 6;
                }
            }

            if let Some(addr) = u.mem_addr {
                let _ = self.mem.data_access(u.pc, addr, u.uop.op.is_store(), self.cycle);
            }

            if u.vp_eligible() {
                if let Some(vp) = self.vtage.as_mut() {
                    let pred = vp.predict(Self::vp_key(u));
                    if let Some(actual) = u.result {
                        vp.update(&pred, actual);
                    }
                }
            }

            self.cycle += 1;
        }
    }

    /// Assembles the watchdog's structured dump of the stalled
    /// pipeline.
    fn deadlock_diagnostic(&self, trace: &Trace, stalled_cycles: u64) -> DeadlockDiagnostic {
        let rob_head = self.rob.front().map(|e| RobHeadInfo {
            seq: e.seq,
            pc: trace.uops[e.idx].pc,
            issued: e.issued,
            eliminated: e.renamed.eliminated.is_some(),
            in_iq: e.in_iq,
            done_cycle: e.done_cycle,
        });
        let oldest_mshr = self
            .mem
            .oldest_mshr(self.cycle)
            .map(|(level, line_addr, done_cycle)| MshrInfo { level, line_addr, done_cycle });
        DeadlockDiagnostic {
            cycle: self.cycle,
            uops_retired: self.stats.uops_retired,
            stalled_cycles,
            rob_occupancy: self.rob.len(),
            rob_head,
            iq_occupancy: self.iq_count,
            lq_occupancy: self.lq.len(),
            sq_occupancy: self.sq.len(),
            fetch_queue: self.fetch_queue.len(),
            trace_cursor: self.cursor,
            fetch_resume: self.fetch_resume,
            fetch_wait_branch: self.fetch_wait_branch,
            pending_flushes: self.pending_flushes.len(),
            pending_replays: self.pending_replays.len(),
            silence_until: self.silence_until,
            oldest_mshr,
        }
    }

    /// Advances one cycle.
    fn step(&mut self, trace: &Trace) {
        self.inject_chaos();
        self.apply_pending_replays(trace);
        self.apply_pending_flush(trace);
        let retired = self.commit(trace);
        self.account_cycle(retired, trace);
        self.issue(trace);
        self.rename(trace);
        self.fetch(trace);
        if let Some(audit) = &self.audit {
            if audit.every != 0 && self.cycle.is_multiple_of(audit.every) {
                self.run_audit();
            }
        }
        self.cycle += 1;
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
        let class = match self.rob.front() {
            // Commit stopped on an unfinished head: memory if the head
            // is waiting on the data path, otherwise back-end
            // latency/contention.
            Some(head) => {
                let op = &trace.uops[head.idx].uop.op;
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
                if self.cycle < self.flush_shadow_until {
                    self.flush_shadow_class
                } else if self.fetch_wait_branch.is_some() {
                    SlotClass::BranchMispredict
                } else {
                    SlotClass::Frontend
                }
            }
        };
        self.cpi.lose(class, width - retired);
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
            if self.vtage.as_mut().is_some_and(|vp| vp.inject_fault(r)) {
                sat_inc(&mut self.stats.chaos.vtage_corruptions, &mut self.stats.overflow_events);
            }
        }
        if ch.fire(FaultKind::TageCorrupt) {
            let r = ch.entropy();
            self.tage.inject_fault(r);
            sat_inc(&mut self.stats.chaos.tage_corruptions, &mut self.stats.overflow_events);
        }
        if ch.fire(FaultKind::BtbCorrupt) {
            let r = ch.entropy();
            if self.btb.inject_fault(r) {
                sat_inc(&mut self.stats.chaos.btb_corruptions, &mut self.stats.overflow_events);
            }
        }
        if ch.fire(FaultKind::StoreSetCorrupt) {
            let r = ch.entropy();
            self.storesets.inject_fault(r);
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
            let entry = self.rob.pop_front().expect("head exists");
            let u = &trace.uops[entry.idx];

            // Golden-model lockstep check: re-execute the committed µop
            // through the functional semantics; the first divergence is
            // recorded (with the replaying chaos seed and the traced
            // last-N-event history) and the oracle goes quiet.
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
                let popped = self.sq.pop_front();
                debug_assert_eq!(popped.map(|s| s.seq), Some(entry.seq));
                self.sq_base += 1;
                if popped.is_some_and(|s| s.issued) {
                    self.sq_issued.remove();
                }
                self.storesets.store_completed(u.pc, entry.seq);
            }
            if u.uop.op.is_load() {
                let popped = self.lq.pop_front();
                debug_assert_eq!(popped.map(|l| l.seq), Some(entry.seq));
                self.lq_base += 1;
                if popped.is_some_and(|l| l.issued) {
                    self.lq_issued.remove();
                }
            }
            self.renamer.commit_with_names(&entry.new_names);

            // Train predictors in retirement order.
            if let Some(token) = entry.tage_token.as_ref() {
                let outcome = u.branch.expect("token implies branch");
                self.tage.update(token, outcome.taken);
            }
            if let Some(b) = u.branch {
                let kind = u.uop.op.branch_kind().expect("branch outcome implies branch");
                if b.taken {
                    self.btb.insert(u.pc, b.target, kind);
                }
                if matches!(
                    kind,
                    BranchKind::Indirect | BranchKind::IndirectCall | BranchKind::Return
                ) {
                    self.itc.update_with_path(u.pc, b.target, entry.itc_path_at_predict);
                }
            }
            if let (Some(vp), Some(token)) = (self.vtage.as_mut(), entry.vp_token.as_ref()) {
                if let Some(actual) = u.result {
                    vp.update(token, actual);
                }
            }

            // Advance the history checkpoint floor past this µop.
            while self.checkpoints.front().is_some_and(|c| c.seq <= entry.seq) {
                self.floor = self.checkpoints.pop_front().expect("front exists");
            }

            sat_inc(&mut self.stats.uops_retired, &mut self.stats.overflow_events);
            if entry.first_uop {
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

    /// O(1) seq→ROB-index. The ROB is seq-contiguous in normal
    /// operation (the trace assigns consecutive seqs and a flush
    /// squashes a contiguous suffix), so `seq - front.seq` is the
    /// index; the `SkipCursorRollback` sabotage deliberately creates
    /// gaps, and the age-sorted deque then falls back to binary
    /// search.
    fn rob_index(&self, seq: u64) -> Option<usize> {
        let front = self.rob.front()?.seq;
        let idx = usize::try_from(seq.checked_sub(front)?).ok()?;
        if idx < self.rob.len() && self.rob[idx].seq == seq {
            return Some(idx);
        }
        self.rob.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    /// The µop's first operand whose value is unavailable this cycle
    /// (`None` means every dependence is ready). This is the old
    /// per-candidate `deps_ready` poll, now evaluated only on wakeup
    /// events and at select re-verification — not per IQ entry per
    /// cycle.
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
        let Some(i) = self.rob_index(seq) else { return };
        let e = &self.rob[i];
        if !e.in_iq || e.issued || e.dispatch_ready > self.cycle {
            // Not (yet) a candidate; if the dispatch latency has not
            // elapsed, the dispatch-FIFO event still covers it.
            return;
        }
        match self.first_unready_dep(&e.renamed) {
            None => self.sched.insert_ready(seq),
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

    /// Arms a pending flush and maintains the next-due watermark.
    fn push_flush(&mut self, f: PendingFlush) {
        self.flushes_next_due = self.flushes_next_due.min(f.at_cycle);
        self.pending_flushes.push(f);
    }

    /// Arms a pending replay and maintains the next-due watermark.
    fn push_replay(&mut self, r: PendingReplay) {
        self.replays_next_due = self.replays_next_due.min(r.at_cycle);
        self.pending_replays.push(r);
    }

    /// Fires this cycle's wakeup events: µops reaching dispatch, and
    /// register writebacks completing now. A writeback event is stale
    /// — skipped, keeping its subscribers — unless the register still
    /// becomes ready at exactly the event's cycle; a replay may have
    /// un-produced the register after the event was scheduled.
    fn wake_due(&mut self) {
        while let Some(seq) = self.sched.pop_due_dispatch(self.cycle) {
            self.try_wake(seq);
        }
        while let Some((at, class, p)) = self.sched.pop_due_wake(self.cycle) {
            if self.renamer.file(class).ready_at(p) == at {
                self.wake_consumers(class, p);
            }
        }
    }

    fn issue(&mut self, trace: &Trace) {
        self.wake_due();
        let mut issued_total = 0usize;
        let mut class_counts = [0usize; 12];
        let class_slot = |c: ExecClass| -> usize {
            match c {
                ExecClass::IntAlu | ExecClass::Branch | ExecClass::Nop => 0,
                ExecClass::IntMul => 1,
                ExecClass::IntDiv => 2,
                ExecClass::FpAlu => 3,
                ExecClass::FpMul | ExecClass::FpMac => 4,
                ExecClass::FpDiv => 5,
                ExecClass::Load => 6,
                ExecClass::Store => 7,
            }
        };
        let fu_cap = |pool: &FuPool, slot: usize| -> usize {
            match slot {
                0 => pool.int_alu,
                1 => pool.int_mul,
                2 => pool.int_div,
                3 => pool.fp_alu,
                4 => pool.fp_mul,
                5 => pool.fp_div,
                6 => pool.load,
                7 => pool.store,
                _ => 0,
            }
        };

        // Select: walk the ready set oldest-first, re-verifying the
        // full issue predicate per candidate. The set is a *superset*
        // of the issuable µops (wakeup inserts optimistically, and a
        // replay can un-ready an operand after insertion), so
        // verification failures evict and re-subscribe, while
        // structural rejections — FU caps, busy dividers, store-set
        // gates — keep the entry for later cycles exactly as the old
        // O(ROB) scan's `continue` did. Every candidate is visited in
        // seq (= age) order under the same width and per-slot caps, so
        // the selected set each cycle is identical to the scan's.
        let mut next_seq = 0u64;
        while issued_total < self.cfg.issue_width {
            let Some(seq) = self.sched.first_ready_at_or_after(next_seq) else { break };
            next_seq = seq + 1;
            let Some(i) = self.rob_index(seq) else {
                self.sched.remove_ready(seq);
                continue;
            };
            let entry = &self.rob[i];
            if !entry.in_iq || entry.issued || entry.dispatch_ready > self.cycle {
                self.sched.remove_ready(seq);
                continue;
            }
            let u = &trace.uops[entry.idx];
            let class = u.uop.op.exec_class();
            let slot = class_slot(class);
            if class_counts[slot] >= fu_cap(&self.fu, slot) {
                continue;
            }
            if let Some(d) = self.first_unready_dep(&entry.renamed) {
                // An operand was un-produced after this µop woke
                // (poisoned VP replay); wait on it like any other.
                self.sched.remove_ready(seq);
                self.sched.subscribe(d.class, d.p, seq);
                continue;
            }
            // Non-pipelined dividers.
            match class {
                ExecClass::IntDiv if self.int_div_busy > self.cycle => continue,
                ExecClass::FpDiv if self.fp_div_busy > self.cycle => continue,
                _ => {}
            }
            // Load/store queue constraints.
            let mut completion = self.cycle + self.cfg.latency(class);
            match class {
                ExecClass::Load => {
                    let lq_idx = (entry.lsq_pos - self.lq_base) as usize;
                    let lq_entry = self.lq[lq_idx];
                    debug_assert_eq!(lq_entry.seq, seq);
                    // Store-set gate: wait for the predicted store
                    // (O(log SQ) on the seq-sorted queue).
                    if let Some(dep) = lq_entry.wait_store {
                        let gated = match self.sq.binary_search_by_key(&dep, |s| s.seq) {
                            Ok(si) => !self.sq[si].issued,
                            Err(_) => false,
                        };
                        if gated {
                            continue;
                        }
                    }
                    // Store-to-load forwarding from an older executed
                    // matching store. Only existence matters (the
                    // youngest-first orientation of the old scan chose
                    // among equals, but any match forwards), so the
                    // scan is bounded to older stores and skipped
                    // outright when the load's range misses the
                    // issued-store address window.
                    let forward = self.sq_issued.may_overlap(lq_entry.addr, lq_entry.size) && {
                        let older = self.sq.partition_point(|s| s.seq < seq);
                        self.sq.iter().take(older).any(|s| {
                            s.issued && overlap(s.addr, s.size, lq_entry.addr, lq_entry.size)
                        })
                    };
                    if forward {
                        completion = self.cycle + 4;
                    } else {
                        completion = self.mem.data_access(u.pc, lq_entry.addr, false, self.cycle);
                    }
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
                    self.lq[lq_idx].issued = true;
                    self.lq_issued.add(lq_entry.addr, lq_entry.size);
                }
                ExecClass::Store => {
                    let sq_idx = (entry.lsq_pos - self.sq_base) as usize;
                    let sq_entry = &mut self.sq[sq_idx];
                    debug_assert_eq!(sq_entry.seq, seq);
                    sq_entry.issued = true;
                    let (s_addr, s_size, s_pc) = (sq_entry.addr, sq_entry.size, sq_entry.pc);
                    self.sq_issued.add(s_addr, s_size);
                    // Memory-ordering violation: a younger load already
                    // issued with an overlapping address. The LQ is
                    // seq-sorted, so the first younger match *is* the
                    // minimum; the scan is skipped when the store's
                    // range misses the issued-load address window.
                    let violating = if self.lq_issued.may_overlap(s_addr, s_size) {
                        let younger = self.lq.partition_point(|l| l.seq <= seq);
                        self.lq
                            .iter()
                            .skip(younger)
                            .find(|l| l.issued && overlap(l.addr, l.size, s_addr, s_size))
                            .map(|l| l.seq)
                    } else {
                        None
                    };
                    if let Some(load_seq) = violating {
                        let load_idx = self
                            .rob_index(load_seq)
                            .map(|li| self.rob[li].idx)
                            .expect("violating load is in the ROB");
                        let load_pc = trace.uops[load_idx].pc;
                        self.storesets.violation(load_pc, s_pc);
                        self.push_flush(PendingFlush {
                            at_cycle: completion,
                            first_squashed_seq: load_seq,
                            kind: FlushKind::MemOrder,
                        });
                    }
                }
                ExecClass::IntDiv => self.int_div_busy = completion,
                ExecClass::FpDiv => self.fp_div_busy = completion,
                _ => {}
            }

            // Value prediction validation, in place at the FU (§3.3).
            if let Some((predicted, apply)) = self.rob[i].renamed.predicted {
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
                    let wide_reg = self.rob[i].renamed.dest_alloc.map(|(_, p)| p);
                    let replay_reg = (!include_self && self.cfg.recovery == RecoveryPolicy::Replay)
                        .then_some(wide_reg)
                        .flatten();
                    if let Some(reg) = replay_reg {
                        self.push_replay(PendingReplay { at_cycle: completion, seq, reg });
                    } else {
                        self.push_flush(PendingFlush {
                            at_cycle: completion,
                            first_squashed_seq: if include_self { seq } else { seq + 1 },
                            kind: FlushKind::ValueMispredict,
                        });
                    }
                    sat_inc(&mut self.stats.vp.incorrect_used, &mut self.stats.overflow_events);
                } else {
                    sat_inc(&mut self.stats.vp.correct_used, &mut self.stats.overflow_events);
                }
            }

            // Branch resolution un-stalls fetch.
            if self.rob[i].fetch_wait {
                completion = completion.max(self.cycle + 1);
                if self.fetch_wait_branch == Some(seq) {
                    self.fetch_wait_branch = None;
                    self.fetch_resume = completion + self.cfg.redirect_penalty;
                }
            }

            // Register writeback scheduling. The µop also frees its
            // scheduler slot here (this was a separate per-cycle
            // `drain_issued_iq` ROB walk; nothing reads `in_iq`
            // between issue and that walk, so folding it in is
            // behavior-identical).
            let entry = &mut self.rob[i];
            entry.issued = true;
            entry.done_cycle = completion;
            entry.in_iq = false;
            self.iq_count -= 1;
            let dest_alloc = entry.renamed.dest_alloc;
            let flags_alloc = entry.renamed.flags_alloc;
            let unpredicted = entry.renamed.predicted.is_none();
            let prf_reads = u64::from(entry.renamed.prf_reads);
            self.sched.remove_ready(seq);
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
            class_counts[slot] += 1;
            issued_total += 1;
        }
    }

    // ----------------------------------------------------------------
    // rename / dispatch
    // ----------------------------------------------------------------

    fn vp_key(u: &TraceUop) -> u64 {
        u.pc | (u64::from(!u.first_uop) * 2)
    }

    fn rename(&mut self, trace: &Trace) {
        for _ in 0..self.cfg.rename_width {
            let Some(front) = self.fetch_queue.front() else { break };
            if front.rename_ready > self.cycle {
                break;
            }
            if self.rob.len() >= self.cfg.rob_size {
                break;
            }
            let idx = front.idx;
            let u = &trace.uops[idx];
            // LSQ capacity.
            if u.uop.op.is_load() && self.lq.len() >= self.cfg.lq_size {
                break;
            }
            if u.uop.op.is_store() && self.sq.len() >= self.cfg.sq_size {
                break;
            }

            // Value prediction lookup (always, for training; used only
            // when confident, admissible and not silenced).
            let mut vp_token = None;
            let mut prediction = None;
            if let Some(vp) = self.vtage.as_mut() {
                if u.vp_eligible() {
                    let pred = vp.predict(Self::vp_key(u));
                    sat_inc(&mut self.stats.vp.eligible, &mut self.stats.overflow_events);
                    let mode = self.cfg.vp.pred_mode().expect("vtage implies a mode");
                    if pred.confident && mode.admits(pred.value) {
                        if self.cycle < self.silence_until {
                            sat_inc(
                                &mut self.stats.vp.silenced_lookups,
                                &mut self.stats.overflow_events,
                            );
                        } else {
                            prediction = Some(pred.value);
                        }
                    }
                    vp_token = Some(pred);
                }
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

            let Ok(renamed) = self.renamer.rename_uop(&u.uop, u.first_uop, prediction) else {
                // Out of physical registers; retry next cycle (the
                // retry will re-count eligibility, so back it out).
                if vp_token.is_some() {
                    // audited(saturating-counter): backs out this cycle's increment
                    self.stats.vp.eligible -= 1;
                }
                break;
            };
            if prediction.is_some() {
                sat_inc(&mut self.stats.vp.used, &mut self.stats.overflow_events);
            }

            // IQ capacity — checked after rename so eliminated µops
            // (which skip the IQ) are not throttled by a full
            // scheduler. Roll the rename back if we cannot dispatch.
            let needs_iq = renamed.eliminated.is_none();
            if needs_iq && self.iq_count >= self.cfg.iq_size {
                self.renamer.rollback(&renamed);
                // Back out the optimistic rename statistics (each
                // decrement reverses an increment made this cycle, so
                // underflow is impossible).
                // audited(saturating-counter): backs out this cycle's increment
                self.renamer.stats.uops -= 1;
                if u.first_uop {
                    // audited(saturating-counter): backs out this cycle's increment
                    self.renamer.stats.arch_insts -= 1;
                }
                if prediction.is_some() {
                    // audited(saturating-counter): backs out this cycle's increment
                    self.stats.vp.used -= 1;
                }
                if vp_token.is_some() {
                    // audited(saturating-counter): backs out this cycle's increment
                    self.stats.vp.eligible -= 1;
                }
                break;
            }

            let fetched = self.fetch_queue.pop_front().expect("front exists");
            let mut new_names: InlineVec<(usize, PhysName), MAX_DST_REGS> = InlineVec::new();
            for &(dense, _) in &renamed.undo {
                new_names.push((dense, self.renamer.rat_entry(dense)));
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

            let mut lsq_pos = 0u64;
            if u.uop.op.is_load() {
                lsq_pos = self.lq_base + self.lq.len() as u64;
                self.lq.push_back(LqEntry {
                    seq: u.seq,
                    addr: u.mem_addr.expect("load has an address"),
                    size: match u.uop.op {
                        Op::Load { size, .. } => size,
                        // audited(no-panic-in-hot-path): guarded by is_load() on the µop above
                        _ => unreachable!(),
                    },
                    issued: false,
                    wait_store: self.storesets.load_dependency(u.pc),
                });
            }
            if u.uop.op.is_store() {
                // audited(no-panic-in-hot-path): guarded by is_store() on the µop above
                let Op::Store { size } = u.uop.op else { unreachable!() };
                lsq_pos = self.sq_base + self.sq.len() as u64;
                self.sq.push_back(SqEntry {
                    seq: u.seq,
                    addr: u.mem_addr.expect("store has an address"),
                    size,
                    issued: false,
                    pc: u.pc,
                });
                let _ = self.storesets.store_dispatched(u.pc, u.seq);
            }

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
            self.tracer.record(EventKind::Rename, self.cycle, u.seq, u.pc, 0);
            let dispatch_ready = self.cycle + self.cfg.rename_to_dispatch;
            self.rob.push_back(RobEntry {
                idx,
                seq: u.seq,
                renamed,
                new_names,
                in_iq: needs_iq,
                issued: false,
                lsq_pos,
                done_cycle: if eliminated { self.cycle + 1 } else { u64::MAX },
                dispatch_ready,
                tage_token: fetched.tage_token,
                vp_token,
                fetch_wait: fetched.fetch_wait,
                first_uop: u.first_uop,
                itc_path_at_predict: fetched.itc_path_at_predict,
            });
            if needs_iq {
                // Wakeup evaluation fires when the dispatch latency
                // elapses (the FIFO is pushed in rename order with a
                // constant offset, so due cycles stay sorted).
                self.sched.push_dispatch(dispatch_ready, u.seq);
            }
        }
    }

    // ----------------------------------------------------------------
    // fetch
    // ----------------------------------------------------------------

    fn fetch(&mut self, trace: &Trace) {
        if self.cycle < self.fetch_resume || self.fetch_wait_branch.is_some() {
            return;
        }
        let mut fetched = 0usize;
        while fetched < self.cfg.fetch_width
            && self.fetch_queue.len() < self.cfg.fetch_queue
            && self.cursor < trace.uops.len()
        {
            let u = &trace.uops[self.cursor];
            // Instruction cache.
            let line = u.pc >> 6;
            if line != self.current_line {
                let done = self.mem.inst_access(u.pc, self.cycle);
                // Sequential next-line instruction prefetch (degree 4),
                // so a cold code sweep overlaps its line fills instead
                // of serialising one DRAM round-trip per 64B.
                for i in 1..=4u64 {
                    self.mem.inst_prefetch(u.pc + i * 64, self.cycle);
                }
                if done > self.cycle + 1 {
                    self.fetch_resume = done;
                    return;
                }
                self.current_line = line;
            }

            let itc_path_at_predict = self.itc.path_checkpoint();
            let mut tage_token = None;
            let mut fetch_wait = false;
            let mut taken_bubble = false;
            if let Some(outcome) = u.branch {
                let kind = u.uop.op.branch_kind().expect("branch outcome implies branch");
                let mut mispredicted = false;
                match kind {
                    BranchKind::CondDirect => {
                        let token = self.tage.predict(u.pc);
                        mispredicted |= token.taken != outcome.taken;
                        self.tage.push_history(outcome.taken);
                        if let Some(vp) = self.vtage.as_mut() {
                            vp.push_history(outcome.taken);
                        }
                        tage_token = Some(token);
                        if outcome.taken && !mispredicted && self.btb.lookup(u.pc).is_none() {
                            // Decode-stage mistarget bubble.
                            self.fetch_resume = self.cycle + self.cfg.btb_miss_penalty;
                            taken_bubble = true;
                        }
                    }
                    BranchKind::UncondDirect | BranchKind::Call => {
                        if self.btb.lookup(u.pc).is_none() {
                            self.fetch_resume = self.cycle + self.cfg.btb_miss_penalty;
                            taken_bubble = true;
                        }
                        if kind == BranchKind::Call {
                            self.ras.push(u.pc + 4);
                        }
                    }
                    BranchKind::Return => {
                        let predicted = self.ras.pop();
                        mispredicted |= predicted != Some(outcome.target);
                    }
                    BranchKind::Indirect | BranchKind::IndirectCall => {
                        let predicted = self.itc.predict(u.pc);
                        mispredicted |= predicted != Some(outcome.target);
                        if kind == BranchKind::IndirectCall {
                            self.ras.push(u.pc + 4);
                        }
                    }
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
                    self.itc.push_path(outcome.target);
                    self.current_line = outcome.target >> 6;
                }
                // Checkpoint speculative front-end state after this
                // branch, for later squash recovery.
                self.checkpoints.push_back(Checkpoint {
                    seq: u.seq,
                    tage: self.tage.history_checkpoint(),
                    vtage: self.vtage.as_ref().map(Vtage::history_checkpoint),
                    ras: self.ras,
                    itc_path: self.itc.path_checkpoint(),
                });
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
                tage_token,
                fetch_wait,
                itc_path_at_predict,
            });
            self.cursor += 1;
            fetched += 1;
            if fetch_wait || taken_bubble {
                return;
            }
        }
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
    fn apply_pending_replays(&mut self, trace: &Trace) {
        // Next-due watermark: quiet cycles (the overwhelmingly common
        // case) skip the due filter entirely.
        if self.pending_replays.is_empty() || self.cycle < self.replays_next_due {
            return;
        }
        let mut due = std::mem::take(&mut self.replay_due_scratch);
        due.clear();
        due.extend(self.pending_replays.iter().copied().filter(|r| r.at_cycle <= self.cycle));
        self.pending_replays.retain(|r| r.at_cycle > self.cycle);
        self.replays_next_due =
            self.pending_replays.iter().map(|r| r.at_cycle).min().unwrap_or(u64::MAX);
        let mut poisoned = std::mem::take(&mut self.replay_poison_scratch);
        let mut rewake = std::mem::take(&mut self.replay_wake_scratch);
        for &replay in &due {
            // The mispredicted µop may have been squashed by an older
            // flush in the meantime; its repair is then moot.
            let Some(start) = self.rob_index(replay.seq) else {
                continue;
            };
            // Guard against the replay tornado: silence the predictor
            // exactly as a flush would (§3.4.1).
            self.silence_until = self.cycle + self.silence_len;
            sat_inc(&mut self.stats.flush.vp_replays, &mut self.stats.overflow_events);

            // The repaired value becomes available now — wake anything
            // already waiting on it (this replaces the old per-cycle
            // readiness poll noticing the repair).
            self.renamer.file_mut(RegClass::Int).set_ready(replay.reg, self.cycle);
            self.wake_consumers(RegClass::Int, replay.reg);

            poisoned.clear();
            poisoned.push(Dep { class: RegClass::Int, p: replay.reg });
            rewake.clear();
            let mut fallback_flush = false;
            for i in (start + 1)..self.rob.len() {
                let entry = &self.rob[i];
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
                let seq = entry.seq;
                let lsq_pos = entry.lsq_pos;
                let entry = &mut self.rob[i];
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
                let u = &trace.uops[self.rob[i].idx];
                if u.uop.op.is_load() {
                    let lq_idx = (lsq_pos - self.lq_base) as usize;
                    if let Some(l) = self.lq.get_mut(lq_idx) {
                        debug_assert_eq!(l.seq, seq);
                        if l.issued {
                            l.issued = false;
                            self.lq_issued.remove();
                        }
                    }
                }
                if u.uop.op.is_store() {
                    let sq_idx = (lsq_pos - self.sq_base) as usize;
                    if let Some(s) = self.sq.get_mut(sq_idx) {
                        debug_assert_eq!(s.seq, seq);
                        if s.issued {
                            s.issued = false;
                            self.sq_issued.remove();
                        }
                    }
                }
                rewake.push(seq);
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
                self.push_flush(PendingFlush {
                    at_cycle: self.cycle,
                    first_squashed_seq: replay.seq + 1,
                    kind: FlushKind::ValueMispredict,
                });
            }
        }
        self.replay_due_scratch = due;
        self.replay_poison_scratch = poisoned;
        self.replay_wake_scratch = rewake;
    }

    // ----------------------------------------------------------------
    // flush
    // ----------------------------------------------------------------

    fn apply_pending_flush(&mut self, trace: &Trace) {
        // Next-due watermark: quiet cycles (the overwhelmingly common
        // case) skip the due scan entirely.
        if self.pending_flushes.is_empty() || self.cycle < self.flushes_next_due {
            return;
        }
        let due = self.pending_flushes.iter().filter(|f| f.at_cycle <= self.cycle);
        let Some(flush) = due.min_by_key(|f| f.first_squashed_seq).copied() else {
            // The watermark was conservative (stale-low); tighten it.
            self.flushes_next_due =
                self.pending_flushes.iter().map(|f| f.at_cycle).min().unwrap_or(u64::MAX);
            return;
        };
        // The chosen flush supersedes any pending flush of a younger
        // µop (they will be squashed and, if still relevant, re-arise
        // after re-execution).
        self.pending_flushes
            .retain(|f| f.at_cycle > self.cycle && f.first_squashed_seq < flush.first_squashed_seq);
        self.pending_replays.retain(|r| r.seq < flush.first_squashed_seq);
        self.flushes_next_due =
            self.pending_flushes.iter().map(|f| f.at_cycle).min().unwrap_or(u64::MAX);
        self.replays_next_due =
            self.pending_replays.iter().map(|r| r.at_cycle).min().unwrap_or(u64::MAX);

        let cut = flush.first_squashed_seq;
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
            let u = &trace.uops[entry.idx];
            if entry.in_iq {
                self.iq_count -= 1;
            }
            // Squashed µops leave the ready set; their sequence number
            // may be reused after refetch and must not carry a stale
            // candidacy. (Dispatch-FIFO and wake-heap events for them
            // are re-verified on delivery, so they can stay.)
            self.sched.remove_ready(entry.seq);
            if entry.renamed.eliminated == Some(ElimCategory::Spsr) {
                // Kept on the renamer's stats so the end-of-run
                // `stats.rename = renamer.stats()` fold preserves it
                // (bumping `stats.rename` directly was overwritten by
                // that fold and always reported zero).
                sat_inc(&mut self.renamer.stats.spsr_squashed, &mut self.renamer.overflow_events);
            }
            if u.uop.op.is_store() {
                if self.sq.pop_back().is_some_and(|s| s.issued) {
                    self.sq_issued.remove();
                }
                self.storesets.store_completed(u.pc, entry.seq);
            }
            if u.uop.op.is_load() && self.lq.pop_back().is_some_and(|l| l.issued) {
                self.lq_issued.remove();
            }
            self.renamer.rollback(&entry.renamed);
            squashed_now += 1;
            squash_cursor = Some(entry.idx);
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
        while self.checkpoints.back().is_some_and(|c| c.seq >= cut) {
            self.checkpoints.pop_back();
        }
        let ckpt = *self.checkpoints.back().unwrap_or(&self.floor);
        self.tage.restore_history(ckpt.tage);
        if let (Some(vp), Some(h)) = (self.vtage.as_mut(), ckpt.vtage) {
            vp.restore_history(h);
        }
        self.ras = ckpt.ras;
        self.itc.restore_path(ckpt.itc_path);

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
    }

    /// Statistics snapshot (valid after [`Core::run`]).
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    // ----------------------------------------------------------------
    // chaos / oracle / watchdog surface
    // ----------------------------------------------------------------

    /// Arms the golden-model commit oracle: every committed µop will be
    /// re-executed from `init` (the architectural state *before* the
    /// traced run) and checked in lockstep.
    pub fn enable_oracle(&mut self, init: &ArchSnapshot) {
        self.oracle = Some(CommitOracle::new(init));
    }

    /// The first lockstep divergence the oracle found, if any.
    #[must_use]
    pub fn oracle_divergence(&self) -> Option<&Divergence> {
        self.divergence.as_ref()
    }

    /// Compares the oracle's reconstructed final architectural state
    /// against the functional machine's `golden` state. `None` means
    /// the committed state is architecturally identical (or a lockstep
    /// divergence was already reported — see
    /// [`Core::oracle_divergence`]). Call after [`Core::run`].
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
        let tage = self.tage.stats();
        reg.counter("tage.predictions", tage.predictions);
        reg.counter("tage.mispredictions", tage.mispredictions);
        reg.counter("tage.overflow_events", tage.overflow_events);
        let btb = self.btb.stats();
        reg.counter("btb.hits", btb.hits);
        reg.counter("btb.misses", btb.misses);
        reg.counter("btb.overflow_events", btb.overflow_events);
        if let Some(vp) = self.vtage.as_ref() {
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
                new_names: e.new_names.iter().map(|&(d, n)| map_entry(d, n)).collect(), // audited(no-alloc-in-hot-path): verif snapshot, off the per-cycle loop
            })
            .collect(); // audited(no-alloc-in-hot-path): verif snapshot, off the per-cycle loop
        tvp_verif::PipelineSnapshot {
            cycle: self.cycle,
            int: self.class_snapshot(crate::rename::RegClass::Int),
            fp: self.class_snapshot(crate::rename::RegClass::Fp),
            crat,
            rat,
            rob,
            iq_count: self.iq_count,
            ready_seqs: self.sched.ready_seqs(),
            lq_seqs: self.lq.iter().map(|l| l.seq).collect(), // audited(no-alloc-in-hot-path): verif snapshot, off the per-cycle loop
            sq_seqs: self.sq.iter().map(|s| s.seq).collect(), // audited(no-alloc-in-hot-path): verif snapshot, off the per-cycle loop
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
        // audited(no-alloc-in-hot-path): storage report, runs once per config
        let mut out = vec![
            (self.tage.storage_name().to_owned(), self.tage.storage_bits()), // audited(no-alloc-in-hot-path): storage report, runs once per config
            (self.btb.storage_name().to_owned(), self.btb.storage_bits()), // audited(no-alloc-in-hot-path): storage report, runs once per config
            (self.ras.storage_name().to_owned(), self.ras.storage_bits()), // audited(no-alloc-in-hot-path): storage report, runs once per config
            (self.itc.storage_name().to_owned(), self.itc.storage_bits()), // audited(no-alloc-in-hot-path): storage report, runs once per config
        ];
        if let Some(vp) = self.vtage.as_ref() {
            out.push((vp.storage_name().to_owned(), vp.storage_bits())); // audited(no-alloc-in-hot-path): storage report, runs once per config
        }
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
    fn loop_branches_become_predictable() {
        let trace = counted_loop_trace(2_000);
        let stats = simulate(CoreConfig::table2(), &trace);
        // One final not-taken mispredict plus warmup at most.
        let rate = stats.flush.branch_mispredicts as f64 / trace.arch_insts as f64;
        assert!(rate < 0.02, "mispredict rate = {rate}");
    }

    #[test]
    fn dependent_alu_chain_limits_ipc() {
        // A pure serial chain cannot exceed 1 result per cycle.
        let mut a = Asm::new();
        a.i(movz(x(0), 4_000));
        a.label("loop");
        a.i(add(x(1), x(1), 1i64));
        a.i(add(x(1), x(1), 1i64));
        a.i(add(x(1), x(1), 1i64));
        a.i(add(x(1), x(1), 1i64));
        a.i(subs(x(0), x(0), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let trace = Machine::new(a.assemble().unwrap()).run(50_000);
        let stats = simulate(CoreConfig::table2(), &trace);
        // 4 serial adds per iteration → at least ~4 cycles/iteration.
        let cycles_per_iter = stats.cycles as f64 / 4_000.0;
        assert!(cycles_per_iter >= 3.5, "cycles/iter = {cycles_per_iter}");
        assert!(cycles_per_iter <= 8.0, "cycles/iter = {cycles_per_iter}");
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        let mut a = Asm::new();
        a.i(movz(x(0), 4_000));
        a.label("loop");
        a.i(add(x(1), x(10), 1i64));
        a.i(add(x(2), x(10), 2i64));
        a.i(add(x(3), x(10), 3i64));
        a.i(add(x(4), x(10), 4i64));
        a.i(add(x(5), x(10), 5i64));
        a.i(subs(x(0), x(0), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let trace = Machine::new(a.assemble().unwrap()).run(50_000);
        let stats = simulate(CoreConfig::table2(), &trace);
        assert!(stats.ipc() > 3.0, "independent IPC = {}", stats.ipc());
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
        let mut a = Asm::new();
        a.i(movz(x(0), 0x8000));
        a.i(movz(x(9), 3_000));
        a.label("loop");
        a.i(add(x(1), x(1), 1i64));
        a.i(str(x(1), AddrMode::BaseDisp { base: x(0), disp: 0 }));
        a.i(ldr(x(2), AddrMode::BaseDisp { base: x(0), disp: 0 }));
        a.i(add(x(3), x(3), x(2)));
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let trace = Machine::new(a.assemble().unwrap()).run(30_000);
        let stats = simulate(CoreConfig::table2(), &trace);
        assert_eq!(stats.insts_retired, trace.arch_insts);
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
    fn overlap_edges() {
        // Adjacent ranges share no byte.
        assert!(!overlap(0x100, 8, 0x108, 8));
        assert!(!overlap(0x108, 8, 0x100, 8));
        // One shared byte.
        assert!(overlap(0x100, 9, 0x108, 8));
        // Containment and identity.
        assert!(overlap(0x100, 8, 0x102, 2));
        assert!(overlap(0x100, 8, 0x100, 8));
        // Zero-size ranges at the edge of (or outside) the other
        // range never overlap; strictly *inside*, the half-open
        // formula conservatively reports contact. No µop issues a
        // zero-size access, so only the conservative direction could
        // ever matter.
        assert!(!overlap(0x100, 0, 0x100, 8));
        assert!(!overlap(0x108, 0, 0x100, 8));
        assert!(!overlap(0x100, 0, 0x100, 0));
        assert!(overlap(0x102, 8, 0x104, 0));
        // Top of the address space: the end saturates at `u64::MAX`
        // instead of wrapping to 0 (wrap would make a range touching
        // the top compare disjoint with everything, or panic in
        // debug). Saturation consistently treats the exclusive end as
        // capped, so byte MAX itself is never covered by a saturated
        // range — the same on both operands.
        assert!(overlap(u64::MAX - 3, 8, u64::MAX - 1, 8));
        assert!(!overlap(u64::MAX, 1, u64::MAX - 1, 8), "end is capped below byte MAX");
        assert!(!overlap(u64::MAX, 1, u64::MAX - 8, 8));
    }

    #[test]
    fn issued_window_is_a_conservative_interval() {
        let mut w = IssuedWindow::new();
        assert!(!w.may_overlap(0, u8::MAX), "empty window overlaps nothing");
        w.add(0x100, 8);
        w.add(0x200, 8);
        assert!(w.may_overlap(0x104, 4));
        assert!(w.may_overlap(0x1F0, 0x20), "gap between members still hits the interval");
        assert!(!w.may_overlap(0x0F8, 8), "below lo");
        assert!(!w.may_overlap(0x208, 8), "at hi (exclusive end)");
        // The interval never shrinks while occupied...
        w.remove();
        assert!(w.may_overlap(0x104, 4) && w.may_overlap(0x204, 4));
        // ...and resets once the last member leaves.
        w.remove();
        assert!(!w.may_overlap(0x104, 4));
        // Saturating end at the top of the address space: the window
        // mirrors `overlap`'s capped exclusive end, so it stays a
        // superset of the true answers right up to the boundary.
        w.add(u64::MAX - 1, 8);
        assert!(w.may_overlap(u64::MAX - 1, 1));
        assert!(!w.may_overlap(u64::MAX, 1), "capped end excludes byte MAX, like overlap()");
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

    /// Runs a suite workload functionally, capturing the architectural
    /// state before and after: `(init, trace, golden)`.
    fn golden_run(name: &str, n: u64) -> (ArchSnapshot, Trace, ArchSnapshot) {
        let w = tvp_workloads::suite::by_name(name).expect("workload exists");
        let mut m = w.machine();
        let init = m.arch_snapshot();
        let trace = m.run(n);
        let golden = m.arch_snapshot();
        (init, trace, golden)
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
        core.enable_oracle(&init);
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
        core.enable_oracle(&init);
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
            core.enable_oracle(&init);
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
        let mut a = Asm::new();
        use tvp_isa::reg::v;
        a.i(movz(x(9), 2_000));
        a.label("loop");
        // Two independent FP divides per iteration compete for the
        // single non-pipelined divider (12 cycles each).
        a.i(fdiv(v(1), v(2), v(3)));
        a.i(fdiv(v(4), v(5), v(6)));
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let mut m = Machine::new(a.assemble().unwrap());
        for r in 2..7 {
            m.set_reg(v(r), f64::to_bits(1.5 + f64::from(r)));
        }
        let trace = m.run(20_000);
        let s = simulate(CoreConfig::table2(), &trace);
        // 2 divides × 12 cycles, non-pipelined → ≥ 24 cycles/iter.
        let per_iter = s.cycles as f64 / 2_000.0;
        assert!(per_iter >= 20.0, "cycles/iter = {per_iter} (divider pipelined?)");
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
