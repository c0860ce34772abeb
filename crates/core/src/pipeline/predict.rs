//! The predictors the core trains, the branch checkpoints that mark
//! their speculative state, and what each in-flight prediction left for
//! its training. Fetch and functional warming predict the same way and
//! train differently: commit in retirement order from the records fetch
//! and rename kept, warming right after each prediction.

use std::collections::VecDeque;

use tvp_isa::op::BranchKind;
use tvp_predictors::history::HistoryMark;
use tvp_predictors::{Btb, IndirectTargetCache, Ras, Tage, TageToken, Vtage, VtagePred};
use tvp_workloads::trace::{BranchOutcome, TraceUop};

use super::queue::Aged;
use crate::config::CoreConfig;

/// Speculative front-end state after one fetched branch, held inline
/// so pushing one allocates nothing. The branch histories live once,
/// in their predictors, and a checkpoint keeps only their positions;
/// the return-address stack and the indirect path are copied whole.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Checkpoint {
    seq: u64,
    tage: HistoryMark,
    vtage: Option<HistoryMark>,
    ras: Ras,
    itc_path: u64,
}

// Positions, not histories: a checkpoint is copied at every fetched
// branch and again at its commit.
const _: () = assert!(std::mem::size_of::<Checkpoint>() <= 330);

/// What fetching one branch left for its training at commit.
#[derive(Clone, Copy, Debug)]
pub(super) struct BranchRecord {
    seq: u64,
    /// A conditional branch's TAGE token.
    pub(super) tage: Option<TageToken>,
    /// The indirect path at the branch's prediction, which an indirect
    /// branch or a return trains the ITC with.
    pub(super) itc_path: u64,
}

/// A value-predictor lookup that entered the ROB with its µop.
#[derive(Clone, Copy, Debug)]
struct ValueRecord {
    seq: u64,
    pred: VtagePred,
}

impl Aged for Checkpoint {
    fn seq(&self) -> u64 {
        self.seq
    }
}

impl Aged for BranchRecord {
    fn seq(&self) -> u64 {
        self.seq
    }
}

impl Aged for ValueRecord {
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// Drops the entries of `queue` numbered `cut` or later, youngest first.
fn cut_from<T: Aged>(queue: &mut VecDeque<T>, cut: u64) {
    while queue.back().is_some_and(|e| e.seq() >= cut) {
        queue.pop_back();
    }
}

/// Takes the oldest entry of `queue`, which must be the committing µop
/// `seq`'s.
fn take_front<T: Aged>(queue: &mut VecDeque<T>, seq: u64) -> T {
    let front = queue.pop_front().expect("a committing µop's record is in flight");
    assert_eq!(front.seq(), seq, "records are taken in retirement order");
    front
}

/// What predicting one branch left for its training.
pub(super) struct Prediction {
    /// A conditional branch's TAGE token.
    pub(super) tage: Option<TageToken>,
    /// An indirect branch's path at its ITC lookup.
    pub(super) itc_path: Option<u64>,
    /// Whether the prediction missed the outcome.
    pub(super) missed: bool,
}

/// The branch predictors, the value predictor (which follows the branch
/// history too), a checkpoint after each branch in flight, and the
/// records their commits train with. Fetch pushes a branch's checkpoint
/// and record, rename a VP lookup's record; commit takes the retiring
/// µop's, and a squash cuts the squashed µops'. The record queues are
/// sized once, for the most µops the ROB and the fetch queue hold.
pub(super) struct Predictors {
    pub(super) tage: Tage,
    pub(super) btb: Btb,
    pub(super) ras: Ras,
    pub(super) itc: IndirectTargetCache,
    pub(super) vtage: Option<Vtage>,
    checkpoints: VecDeque<Checkpoint>,
    /// One per branch in flight, oldest first.
    branches: VecDeque<BranchRecord>,
    /// One per VP lookup in the ROB, oldest first.
    values: VecDeque<ValueRecord>,
    /// The state after the youngest retired branch: what a squash that
    /// finds no checkpoint restores.
    floor: Checkpoint,
}

impl Predictors {
    pub(super) fn new(cfg: &CoreConfig) -> Self {
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
        let btb = Btb::new(8192, 4);
        // A branch is in flight from fetch to commit, a VP lookup from
        // rename to commit.
        let branches = VecDeque::with_capacity(cfg.rob_size + cfg.fetch_queue);
        let values = VecDeque::with_capacity(if vtage.is_some() { cfg.rob_size } else { 0 });
        Predictors {
            tage,
            btb,
            ras,
            itc,
            vtage,
            checkpoints: VecDeque::new(),
            branches,
            values,
            floor,
        }
    }

    /// Predicts the branch at `pc` and moves the speculative state past
    /// its actual `outcome`: the histories take its direction and the
    /// RAS its call or return. The BTB and the indirect path a taken
    /// branch extends are the caller's.
    pub(super) fn predict(
        &mut self,
        pc: u64,
        kind: BranchKind,
        outcome: BranchOutcome,
    ) -> Prediction {
        let (mut tage, mut itc_path) = (None, None);
        let missed = match kind {
            BranchKind::CondDirect => {
                let token = self.tage.predict(pc);
                self.tage.push_history(outcome.taken);
                if let Some(vp) = self.vtage.as_mut() {
                    vp.push_history(outcome.taken);
                }
                tage = Some(token);
                token.taken != outcome.taken
            }
            BranchKind::UncondDirect => false,
            BranchKind::Call => {
                self.ras.push(pc + 4);
                false
            }
            BranchKind::Return => self.ras.pop() != Some(outcome.target),
            BranchKind::Indirect | BranchKind::IndirectCall => {
                itc_path = Some(self.itc.path_checkpoint());
                if kind == BranchKind::IndirectCall {
                    self.ras.push(pc + 4);
                }
                self.itc.predict(pc) != Some(outcome.target)
            }
        };
        Prediction { tage, itc_path, missed }
    }

    /// Looks a VP-eligible µop up in the value predictor, if there is
    /// one. The first µop of an instruction and the rest are told apart.
    pub(super) fn predict_value(&mut self, u: &TraceUop) -> Option<VtagePred> {
        let vp = self.vtage.as_mut().filter(|_| u.vp_eligible())?;
        Some(vp.predict(u.pc | (u64::from(!u.first_uop) * 2)))
    }

    /// Trains the value predictor on a looked-up µop's actual result.
    pub(super) fn train_value(&mut self, pred: &VtagePred, actual: Option<u64>) {
        if let (Some(vp), Some(actual)) = (self.vtage.as_mut(), actual) {
            vp.update(pred, actual);
        }
    }

    /// Keeps the lookup of µop `seq`, which entered the ROB, for its
    /// commit.
    pub(super) fn keep_value(&mut self, seq: u64, pred: VtagePred) {
        self.values.push_back(ValueRecord { seq, pred });
    }

    /// Trains the value predictor on the committing µop `seq`'s actual
    /// result, with the lookup rename kept for it.
    pub(super) fn commit_value(&mut self, seq: u64, actual: Option<u64>) {
        let record = take_front(&mut self.values, seq);
        self.train_value(&record.pred, actual);
    }

    /// The speculative state as it stands, labelled `seq`.
    pub(super) fn mark(&self, seq: u64) -> Checkpoint {
        Checkpoint {
            seq,
            tage: self.tage.history_checkpoint(),
            vtage: self.vtage.as_ref().map(Vtage::history_checkpoint),
            ras: self.ras,
            itc_path: self.itc.path_checkpoint(),
        }
    }

    /// Checkpoints the state after the fetched branch `seq`, and keeps
    /// what its commit trains with: its TAGE token, if it is
    /// conditional, and the indirect path its prediction saw.
    pub(super) fn checkpoint(&mut self, seq: u64, tage: Option<TageToken>, itc_path: u64) {
        let mark = self.mark(seq);
        self.checkpoints.push_back(mark);
        self.branches.push_back(BranchRecord { seq, tage, itc_path });
    }

    /// Takes what fetching the committing branch `seq` kept.
    pub(super) fn take_branch(&mut self, seq: u64) -> BranchRecord {
        take_front(&mut self.branches, seq)
    }

    /// Moves the floor past the committed µop `seq`.
    pub(super) fn retire(&mut self, seq: u64) {
        while self.checkpoints.front().is_some_and(|c| c.seq <= seq) {
            self.floor = self.checkpoints.pop_front().expect("front exists");
        }
    }

    /// Restores the state after the youngest branch older than `cut`,
    /// the first squashed µop, and drops the squashed µops' records.
    pub(super) fn squash(&mut self, cut: u64) {
        cut_from(&mut self.checkpoints, cut);
        cut_from(&mut self.branches, cut);
        cut_from(&mut self.values, cut);
        let ckpt = *self.checkpoints.back().unwrap_or(&self.floor);
        self.tage.restore_history(ckpt.tage);
        if let (Some(vp), Some(h)) = (self.vtage.as_mut(), ckpt.vtage) {
            vp.restore_history(h);
        }
        self.ras = ckpt.ras;
        self.itc.restore_path(ckpt.itc_path);
    }

    /// Functional warming moved the state on without checkpoints: a
    /// squash that finds none must restore the warmed state.
    pub(super) fn rebase_floor(&mut self) {
        self.floor = self.mark(self.floor.seq);
    }
}

#[cfg(test)]
mod tests {
    use tvp_isa::op::BranchKind;
    use tvp_workloads::trace::BranchOutcome;

    use super::*;
    use crate::config::VpMode;
    use crate::Core;

    fn tvp() -> Predictors {
        Predictors::new(&CoreConfig::with_vp(VpMode::Tvp))
    }

    fn seqs<T: Aged>(queue: &VecDeque<T>) -> Vec<u64> {
        queue.iter().map(Aged::seq).collect()
    }

    /// Fetches the conditional branch `seq` as fetch does; returns the
    /// indirect path its prediction saw.
    fn fetch_branch(pred: &mut Predictors, seq: u64) -> u64 {
        let path = pred.itc.path_checkpoint();
        let outcome = BranchOutcome { taken: true, target: 0x40 };
        let prediction = pred.predict(0x1000 + 4 * seq, BranchKind::CondDirect, outcome);
        pred.itc.push_path(outcome.target);
        pred.checkpoint(seq, prediction.tage, path);
        path
    }

    /// Renames the VP-eligible µop `seq` into the ROB as rename does.
    fn rename_lookup(pred: &mut Predictors, seq: u64) {
        let vp = pred.vtage.as_mut().expect("TVP has a value predictor");
        let lookup = vp.predict(0x2000 + 4 * seq);
        pred.keep_value(seq, lookup);
    }

    #[test]
    fn commit_takes_the_record_of_the_retiring_branch_or_lookup() {
        let mut pred = tvp();
        let path3 = fetch_branch(&mut pred, 3);
        rename_lookup(&mut pred, 4);
        rename_lookup(&mut pred, 5);
        let path7 = fetch_branch(&mut pred, 7);
        assert_ne!(path3, path7, "the taken branch 3 moved the path");

        let first = pred.take_branch(3);
        assert_eq!(first.seq, 3);
        assert!(first.tage.is_some(), "a conditional branch keeps its TAGE token");
        assert_eq!(first.itc_path, path3);
        pred.commit_value(4, Some(1));
        assert_eq!(seqs(&pred.values), [5]);
        pred.commit_value(5, Some(1));
        let second = pred.take_branch(7);
        assert_eq!((second.seq, second.itc_path), (7, path7));
        assert!(pred.branches.is_empty() && pred.values.is_empty());
    }

    #[test]
    #[should_panic(expected = "retirement order")]
    fn commit_never_takes_a_younger_record() {
        let mut pred = tvp();
        fetch_branch(&mut pred, 7);
        let _ = pred.take_branch(5);
    }

    #[test]
    fn a_squash_between_two_branches_drops_exactly_the_younger_records() {
        let mut pred = tvp();
        fetch_branch(&mut pred, 2);
        rename_lookup(&mut pred, 3);
        let after_2 = pred.mark(2);
        rename_lookup(&mut pred, 8);
        fetch_branch(&mut pred, 9);
        rename_lookup(&mut pred, 10);
        pred.squash(5);
        assert_eq!(seqs(&pred.checkpoints), [2]);
        assert_eq!(seqs(&pred.branches), [2]);
        assert_eq!(seqs(&pred.values), [3]);
        assert_eq!(pred.mark(2), after_2, "the state after branch 2 is back");
        // A squash at the older branch itself drops it, and µop 3's
        // lookup with it.
        pred.squash(2);
        assert!(pred.checkpoints.is_empty() && pred.branches.is_empty() && pred.values.is_empty());
    }

    #[test]
    fn functional_warming_pushes_no_record_and_a_run_leaves_none() {
        let mut machine =
            tvp_workloads::suite::by_name("mc_playout").expect("suite kernel").machine();
        let (warm, measured) = (machine.run(5_000), machine.run(5_000));
        assert!(warm.uops.iter().any(|u| u.branch.is_some()));
        assert!(warm.uops.iter().any(tvp_workloads::trace::TraceUop::vp_eligible));
        let mut core = Core::new(CoreConfig::with_vp(VpMode::Tvp));
        let capacity = (core.pred.branches.capacity(), core.pred.values.capacity());
        core.functional_warm(&warm);
        let pred = &core.pred;
        assert!(pred.checkpoints.is_empty() && pred.branches.is_empty() && pred.values.is_empty());
        let stats = core.run_segment(&measured);
        assert!(stats.vp.eligible > 0);
        let pred = &core.pred;
        assert!(pred.checkpoints.is_empty() && pred.branches.is_empty() && pred.values.is_empty());
        assert_eq!(
            (pred.branches.capacity(), pred.values.capacity()),
            capacity,
            "the records are sized once"
        );
    }
}
