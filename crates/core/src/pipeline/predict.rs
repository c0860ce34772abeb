//! The predictors the core trains, and the branch checkpoints that mark
//! their speculative state. Fetch and functional warming predict the
//! same way and train differently: commit in retirement order from what
//! fetch recorded, warming right after each prediction.

use std::collections::VecDeque;

use tvp_isa::op::BranchKind;
use tvp_predictors::history::HistoryMark;
use tvp_predictors::{Btb, IndirectTargetCache, Ras, Tage, TageToken, Vtage, VtagePred};
use tvp_workloads::trace::{BranchOutcome, TraceUop};

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
/// history too) and a checkpoint after each branch in flight.
pub(super) struct Predictors {
    pub(super) tage: Tage,
    pub(super) btb: Btb,
    pub(super) ras: Ras,
    pub(super) itc: IndirectTargetCache,
    pub(super) vtage: Option<Vtage>,
    checkpoints: VecDeque<Checkpoint>,
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
        Predictors { tage, btb, ras, itc, vtage, checkpoints: VecDeque::new(), floor }
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

    /// Checkpoints the state after the fetched branch `seq`.
    pub(super) fn checkpoint(&mut self, seq: u64) {
        let mark = self.mark(seq);
        self.checkpoints.push_back(mark);
    }

    /// Moves the floor past the committed µop `seq`.
    pub(super) fn retire(&mut self, seq: u64) {
        while self.checkpoints.front().is_some_and(|c| c.seq <= seq) {
            self.floor = self.checkpoints.pop_front().expect("front exists");
        }
    }

    /// Restores the state after the youngest branch older than `cut`,
    /// the first squashed µop.
    pub(super) fn squash(&mut self, cut: u64) {
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
    }

    /// Functional warming moved the state on without checkpoints: a
    /// squash that finds none must restore the warmed state.
    pub(super) fn rebase_floor(&mut self) {
        self.floor = self.mark(self.floor.seq);
    }
}
