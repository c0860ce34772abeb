//! Golden-model differential oracle.
//!
//! The timing core never computes architectural values — it replays
//! the functional trace — so a *correct* pipeline commits exactly the
//! records the functional machine emitted: every sequence number once,
//! in order, each record as the machine wrote it. [`CommitOracle`]
//! checks that in lockstep against the functional machine itself: it
//! holds a [`Machine`] in the state the traced run started from, steps
//! it one instruction ([`Machine::step_into`]) once the commit stream
//! has consumed the previous instruction's records, and compares each
//! committed [`TraceUop`] with the record the machine emitted for it.
//! Any recovery bug that skips, duplicates, reorders or alters
//! committed work — e.g. a squash that forgets to roll the trace cursor
//! back — surfaces as the first [`Divergence`], with enough context to
//! replay the campaign.

use std::fmt;

use tvp_isa::flags::Nzcv;
use tvp_isa::op::Op;
use tvp_isa::stream::fnv1a;
use tvp_workloads::machine::{ArchSnapshot, Machine};
use tvp_workloads::trace::{BranchOutcome, Trace, TraceUop};

/// What diverged between the pipeline's commit stream and the golden
/// model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The committed sequence number is not the next expected one:
    /// a µop was skipped, duplicated or reordered.
    Order {
        /// The sequence number the golden model expected to commit.
        expected_seq: u64,
    },
    /// An architectural instruction committed at the wrong PC.
    Pc {
        /// The PC the golden model expected.
        expected_pc: u64,
    },
    /// A field of the committed record (address, value, flags, link,
    /// or the µop itself) disagrees with the golden model's record.
    Mismatch {
        /// Which quantity diverged. `"µop"` compares digests of the two
        /// whole records, when only a field with no numeric form
        /// differs.
        what: &'static str,
        /// Golden-model value.
        expected: u64,
        /// Committed value (`u64::MAX` when the field is absent).
        got: u64,
    },
    /// A branch resolved differently than the golden model's.
    Branch {
        /// Golden-model branch resolution.
        expected: BranchOutcome,
        /// Committed resolution, if any.
        got: Option<BranchOutcome>,
    },
    /// Post-run architectural state differs from the functional
    /// machine's final state.
    FinalState {
        /// Which piece of state (register name, "flags", "pc",
        /// "memory digest").
        what: String,
        /// Golden final value.
        expected: u64,
        /// The state the commit stream reached.
        got: u64,
    },
}

/// The first point where the pipeline's committed state departed from
/// the golden model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Sequence number of the diverging committed µop (or of the last
    /// µop before a final-state mismatch).
    pub seq: u64,
    /// PC of the diverging µop.
    pub pc: u64,
    /// What went wrong.
    pub kind: DivergenceKind,
    /// Seed of the chaos campaign that provoked the divergence, when
    /// one was active; rerunning with this seed reproduces the fault
    /// sequence exactly.
    pub chaos_seed: Option<u64>,
    /// The pipeline's last-N-cycle event history (oldest first), when
    /// event tracing was enabled — the flight recorder's contents at
    /// the moment of divergence. Empty when tracing was off.
    pub history: Vec<tvp_obs::event::TraceEvent>,
}

impl Divergence {
    /// Attaches the replaying chaos seed.
    #[must_use]
    pub fn with_seed(mut self, seed: Option<u64>) -> Self {
        self.chaos_seed = seed;
        self
    }

    /// Attaches the event-trace flight-recorder snapshot.
    #[must_use]
    pub fn with_history(mut self, history: Vec<tvp_obs::event::TraceEvent>) -> Self {
        self.history = history;
        self
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "commit-oracle divergence at seq {} (pc {:#x}): ", self.seq, self.pc)?;
        match &self.kind {
            DivergenceKind::Order { expected_seq } => {
                write!(f, "expected seq {expected_seq} to commit next")?;
            }
            DivergenceKind::Pc { expected_pc } => {
                write!(f, "expected instruction at pc {expected_pc:#x}")?;
            }
            DivergenceKind::Mismatch { what, expected, got } => {
                write!(f, "{what}: expected {expected:#x}, got {got:#x}")?;
            }
            DivergenceKind::Branch { expected, got } => {
                write!(f, "branch outcome: expected {expected:?}, got {got:?}")?;
            }
            DivergenceKind::FinalState { what, expected, got } => {
                write!(f, "final {what}: expected {expected:#x}, got {got:#x}")?;
            }
        }
        if let Some(seed) = self.chaos_seed {
            write!(f, " [replay with chaos seed {seed:#x}]")?;
        }
        if !self.history.is_empty() {
            write!(f, " [{} trace events captured]", self.history.len())?;
        }
        Ok(())
    }
}

/// Lockstep golden model fed by the pipeline's commit stage.
#[derive(Clone, Debug)]
pub struct CommitOracle {
    /// The functional machine, at most one instruction ahead of the
    /// commit stream.
    machine: Machine,
    /// The records the machine emitted for the instruction it executed
    /// last; the buffer is reused from step to step.
    inst: Trace,
    /// How many of `inst`'s records have committed.
    next: usize,
    commits: u64,
    poisoned: bool,
}

impl CommitOracle {
    /// Creates an oracle whose golden model is `machine`, which must be
    /// in the state the traced run started from: a clone of the
    /// machine taken before it produced the trace.
    #[must_use]
    pub fn new(machine: Machine) -> Self {
        CommitOracle { machine, inst: Trace::default(), next: 0, commits: 0, poisoned: false }
    }

    /// Number of µops validated so far.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// The golden model's current architectural state.
    #[must_use]
    pub fn snapshot(&self) -> ArchSnapshot {
        self.machine.arch_snapshot()
    }

    /// Validates one committed µop against the golden model, stepping
    /// the model when the µop starts a new instruction.
    ///
    /// After the first divergence the oracle is *poisoned*: further
    /// calls are no-ops returning `Ok`, so the caller keeps only the
    /// first (root-cause) report.
    ///
    /// # Errors
    ///
    /// Returns the [`Divergence`] when the committed µop departs from
    /// the golden model.
    pub fn on_commit(&mut self, u: &TraceUop) -> Result<(), Divergence> {
        if self.poisoned {
            return Ok(());
        }
        match self.check(u) {
            Ok(()) => {
                self.commits += 1;
                Ok(())
            }
            Err(kind) => {
                self.poisoned = true;
                Err(Divergence {
                    seq: u.seq,
                    pc: u.pc,
                    kind,
                    chaos_seed: None,
                    // audited(no-alloc-in-hot-path): divergence construction — error path, runs at most once
                    history: Vec::new(),
                })
            }
        }
    }

    /// Compares the state the commit stream reached against the
    /// functional machine's final snapshot. Returns the first mismatch,
    /// if any.
    #[must_use]
    pub fn final_check(&self, golden: &ArchSnapshot) -> Option<Divergence> {
        if self.poisoned {
            // A lockstep divergence was already reported; final state
            // is not meaningful past that point.
            return None;
        }
        let (seq, pc) = match self.next.checked_sub(1) {
            Some(last) => (self.inst.uops[last].seq, self.inst.uops[last].pc),
            None => (self.machine.seq().saturating_sub(1), self.machine.pc()),
        };
        let wrap = |kind| Divergence {
            // audited(no-alloc-in-hot-path): divergence construction — error path, runs at most once
            history: Vec::new(),
            seq,
            pc,
            kind,
            chaos_seed: None,
        };
        // The model has executed a whole instruction the stream left
        // half committed.
        if let Some(u) = self.inst.uops.get(self.next) {
            return Some(wrap(DivergenceKind::Order { expected_seq: u.seq }));
        }
        let state =
            |what, expected, got| Some(wrap(DivergenceKind::FinalState { what, expected, got }));
        let ours = self.machine.arch_snapshot();
        for i in 0..ours.int.len() {
            if ours.int[i] != golden.int[i] {
                return state(format!("x{i}"), golden.int[i], ours.int[i]); // audited(no-alloc-in-hot-path): mismatch report, fires at most once per run
            }
        }
        for i in 0..ours.fp.len() {
            if ours.fp[i] != golden.fp[i] {
                return state(format!("v{i}"), golden.fp[i], ours.fp[i]); // audited(no-alloc-in-hot-path): mismatch report, fires at most once per run
            }
        }
        if ours.flags.pack() != golden.flags.pack() {
            return state(
                "flags".to_owned(), // audited(no-alloc-in-hot-path): mismatch report, fires at most once per run
                u64::from(golden.flags.pack()),
                u64::from(ours.flags.pack()),
            );
        }
        if ours.pc != golden.pc {
            return state("pc".to_owned(), golden.pc, ours.pc); // audited(no-alloc-in-hot-path): mismatch report, fires at most once per run
        }
        let (want, got) = (golden.mem.digest(), ours.mem.digest());
        if want != got {
            return state("memory digest".to_owned(), want, got); // audited(no-alloc-in-hot-path): mismatch report, fires at most once per run
        }
        None
    }

    fn check(&mut self, u: &TraceUop) -> Result<(), DivergenceKind> {
        if self.next == self.inst.uops.len() {
            self.inst.uops.clear();
            self.next = 0;
            if !self.machine.step_into(&mut self.inst) {
                // The machine has halted: nothing more may commit.
                return Err(DivergenceKind::Order { expected_seq: self.machine.seq() });
            }
        }
        let want = &self.inst.uops[self.next];
        if u != want {
            return Err(classify(want, u));
        }
        self.next += 1;
        Ok(())
    }
}

/// Names the first field, in a fixed order, in which `got` departs from
/// `want`, the record the machine emitted at that position.
fn classify(want: &TraceUop, got: &TraceUop) -> DivergenceKind {
    let mismatch = |what, expected: Option<u64>, got: Option<u64>| DivergenceKind::Mismatch {
        what,
        expected: expected.unwrap_or(u64::MAX),
        got: got.unwrap_or(u64::MAX),
    };
    let flags = |f: Option<Nzcv>| f.map(|f| u64::from(f.pack()));
    let op = want.uop.op;
    if got.seq != want.seq {
        DivergenceKind::Order { expected_seq: want.seq }
    } else if got.pc != want.pc && want.first_uop {
        DivergenceKind::Pc { expected_pc: want.pc }
    } else if got.pc != want.pc {
        mismatch("intra-instruction pc", Some(want.pc), Some(got.pc))
    } else if got.mem_addr != want.mem_addr {
        let what = if op.is_store() { "store address" } else { "load address" };
        mismatch(what, want.mem_addr, got.mem_addr)
    } else if got.result != want.result {
        let what = match op {
            Op::Load { .. } => "load value",
            Op::Bl | Op::Blr => "link value",
            _ => "result value",
        };
        mismatch(what, want.result, got.result)
    } else if got.flags_out != want.flags_out {
        mismatch("flags", flags(want.flags_out), flags(got.flags_out))
    } else if let Some(expected) = want.branch.filter(|&b| got.branch != Some(b)) {
        DivergenceKind::Branch { expected, got: got.branch }
    } else {
        // audited(no-alloc-in-hot-path): mismatch report, fires at most once per run
        let digest = |u: &TraceUop| fnv1a(format!("{u:?}").as_bytes());
        mismatch("µop", Some(digest(want)), Some(digest(got)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvp_isa::inst::{intern, Inst};

    fn oracle_for(name: &str, insts: u64) -> (CommitOracle, tvp_workloads::Trace, ArchSnapshot) {
        let w = tvp_workloads::suite::by_name(name).expect("workload exists");
        let mut m = w.machine();
        let oracle = CommitOracle::new(m.clone());
        let trace = m.run(insts);
        (oracle, trace, m.arch_snapshot())
    }

    #[test]
    fn clean_commit_stream_matches_golden_model() {
        for name in tvp_workloads::suite::names() {
            let (mut oracle, trace, golden) = oracle_for(name, 3_000);
            for u in &trace.uops {
                oracle.on_commit(u).expect("functional trace replays cleanly");
            }
            assert_eq!(oracle.commits(), trace.uops.len() as u64);
            assert_eq!(oracle.final_check(&golden), None, "{name}");
            assert_eq!(oracle.snapshot().digest(), golden.digest(), "{name}");
        }
    }

    #[test]
    fn skipped_uop_is_caught_as_order_divergence() {
        let (mut oracle, trace, _) = oracle_for("string_match", 500);
        oracle.on_commit(&trace.uops[0]).expect("first µop is clean");
        let d = oracle.on_commit(&trace.uops[2]).expect_err("gap must be flagged");
        assert_eq!(d.kind, DivergenceKind::Order { expected_seq: 1 });
        assert_eq!(d.seq, 2);
        // Poisoned: subsequent commits are ignored, first report wins.
        assert_eq!(oracle.on_commit(&trace.uops[3]), Ok(()));
    }

    #[test]
    fn duplicated_uop_is_caught() {
        let (mut oracle, trace, _) = oracle_for("string_match", 500);
        oracle.on_commit(&trace.uops[0]).expect("first µop is clean");
        let d = oracle.on_commit(&trace.uops[0]).expect_err("replayed seq 0");
        assert!(matches!(d.kind, DivergenceKind::Order { expected_seq: 1 }));
    }

    #[test]
    fn corrupted_result_is_caught() {
        let (mut oracle, trace, _) = oracle_for("expr_tree", 500);
        let mut bad = None;
        for (i, u) in trace.uops.iter().enumerate() {
            if u.result.is_some() && !u.uop.op.is_branch() && u.mem_addr.is_none() {
                bad = Some(i);
                break;
            }
        }
        let bad = bad.expect("an ALU-producing µop exists");
        for u in &trace.uops[..bad] {
            oracle.on_commit(u).expect("prefix is clean");
        }
        let mut forged = trace.uops[bad].clone();
        forged.result = forged.result.map(|v| v ^ 0x8000_0001);
        let d = oracle.on_commit(&forged).expect_err("wrong value must diverge");
        assert!(matches!(d.kind, DivergenceKind::Mismatch { what: "result value", .. }), "{d}");
    }

    /// A loop that commits each kind of record a forgery can target: a
    /// load, an instruction of two µops, a store, a call and its
    /// return, a flag-setter and a conditional branch.
    fn every_kind_of_record() -> (Machine, Trace) {
        use tvp_isa::flags::Cond;
        use tvp_isa::inst::build::*;
        use tvp_isa::inst::AddrMode;
        use tvp_isa::reg::x;
        let mut a = tvp_workloads::program::Asm::new();
        a.i(movz(x(0), 0x2000));
        a.i(movz(x(9), 3));
        a.b("loop");
        a.label("leaf");
        a.ret();
        a.label("loop");
        a.i(ldr(x(1), AddrMode::BaseDisp { base: x(0), disp: 0 }));
        a.i(ldr(x(2), AddrMode::PostIndex { base: x(0), disp: 8 }));
        a.i(add(x(1), x(1), 1i64));
        a.i(str(x(1), AddrMode::BaseDisp { base: x(0), disp: 64 }));
        a.bl("leaf");
        a.i(subs(x(9), x(9), 1i64));
        a.b_cond(Cond::Ne, "loop");
        let m = Machine::new(a.assemble().expect("assembles"));
        let trace = m.clone().run(100);
        (m, trace)
    }

    /// The label a report carries: a mismatch's quantity, or its kind.
    fn label(kind: &DivergenceKind) -> &'static str {
        match kind {
            DivergenceKind::Mismatch { what, .. } => what,
            DivergenceKind::Order { .. } => "order",
            DivergenceKind::Pc { .. } => "pc",
            DivergenceKind::Branch { .. } => "branch",
            DivergenceKind::FinalState { .. } => "final state",
        }
    }

    #[test]
    fn every_forged_field_is_caught_with_its_label() {
        fn bump(v: &mut Option<u64>) {
            *v = v.map(|v| v ^ 0x8000_0001);
        }
        type Pick = fn(&TraceUop) -> bool;
        type Forge = fn(&mut TraceUop);
        let cases: [(Pick, Forge, &str); 10] = [
            (|u| u.uop.op.is_load(), |u| bump(&mut u.mem_addr), "load address"),
            (|u| u.uop.op.is_store(), |u| bump(&mut u.mem_addr), "store address"),
            (|u| u.uop.op.is_load(), |u| bump(&mut u.result), "load value"),
            (|u| u.uop.op == Op::Add, |u| bump(&mut u.result), "result value"),
            (|u| u.uop.op == Op::Bl, |u| bump(&mut u.result), "link value"),
            (
                |u| u.flags_out.is_some(),
                |u| u.flags_out = u.flags_out.map(|f| Nzcv::unpack(!f.pack() & 0xF)),
                "flags",
            ),
            (
                |u| matches!(u.uop.op, Op::BCond(_)),
                |u| u.branch = u.branch.map(|b| BranchOutcome { taken: !b.taken, ..b }),
                "branch",
            ),
            (|u| u.first_uop, |u| u.pc += 4, "pc"),
            (|u| !u.first_uop, |u| u.pc += 4, "intra-instruction pc"),
            (|u| u.uop.op == Op::Add, |u| u.uop = intern(Inst { op: Op::Sub, ..*u.uop }), "µop"),
        ];
        let (machine, trace) = every_kind_of_record();
        for (pick, forge, want) in cases {
            let at = trace.uops.iter().position(pick).expect("the loop has such a record");
            let mut oracle = CommitOracle::new(machine.clone());
            for u in &trace.uops[..at] {
                oracle.on_commit(u).expect("prefix is clean");
            }
            let mut forged = trace.uops[at].clone();
            forge(&mut forged);
            let d = oracle.on_commit(&forged).expect_err("a forged record must diverge");
            assert_eq!((label(&d.kind), d.seq), (want, trace.uops[at].seq), "{d}");
        }
    }

    #[test]
    fn commit_after_the_machine_halts_is_an_order_divergence() {
        let (machine, trace) = every_kind_of_record();
        let mut oracle = CommitOracle::new(machine);
        for u in &trace.uops {
            oracle.on_commit(u).expect("trace replays cleanly");
        }
        let extra = trace.uops.last().expect("non-empty trace");
        let d = oracle.on_commit(extra).expect_err("nothing commits past the halt");
        assert_eq!(d.kind, DivergenceKind::Order { expected_seq: trace.uops.len() as u64 });
    }

    #[test]
    fn half_committed_instruction_fails_the_final_check() {
        let (machine, trace) = every_kind_of_record();
        let golden = {
            let mut m = machine.clone();
            let _ = m.run(100);
            m.arch_snapshot()
        };
        let second = trace.uops.iter().rposition(|u| !u.first_uop).expect("a two-µop instruction");
        let mut oracle = CommitOracle::new(machine);
        for u in &trace.uops[..second] {
            oracle.on_commit(u).expect("prefix is clean");
        }
        let d = oracle.final_check(&golden).expect("the stream stopped inside an instruction");
        assert_eq!(d.kind, DivergenceKind::Order { expected_seq: trace.uops[second].seq });
    }

    #[test]
    fn divergence_renders_with_replay_seed() {
        let d = Divergence {
            seq: 17,
            pc: 0x1_0040,
            kind: DivergenceKind::Order { expected_seq: 9 },
            chaos_seed: None,
            history: Vec::new(),
        }
        .with_seed(Some(0xBEEF));
        let text = d.to_string();
        assert!(text.contains("seq 17"), "{text}");
        assert!(text.contains("0xbeef"), "{text}");
    }

    #[test]
    fn final_state_mismatch_is_reported() {
        let (mut oracle, trace, golden) = oracle_for("pixel_encode", 300);
        for u in &trace.uops {
            oracle.on_commit(u).expect("trace replays cleanly");
        }
        let mut tampered = golden.clone();
        tampered.int[5] = tampered.int[5].wrapping_add(1);
        let d = oracle.final_check(&tampered).expect("tampered x5 must mismatch");
        assert!(matches!(d.kind, DivergenceKind::FinalState { .. }), "{d}");
    }
}
