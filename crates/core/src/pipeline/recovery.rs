//! Recoveries armed at execute and applied when they come due: flushes
//! (value mispredictions and memory-ordering violations) and selective
//! replays of a mispredicted wide value's consumers.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum FlushKind {
    ValueMispredict,
    MemOrder,
}

#[derive(Clone, Copy, Debug)]
pub(super) struct PendingFlush {
    pub(super) first_squashed_seq: u64,
    pub(super) kind: FlushKind,
}

#[derive(Clone, Copy, Debug)]
pub(super) struct PendingReplay {
    pub(super) seq: u64,
    pub(super) reg: u16,
}

/// Entries waiting for their cycle, and the earliest such cycle, kept
/// exact through every push and removal so that a quiet cycle costs
/// one compare.
pub(super) struct DueQueue<T> {
    pending: Vec<(u64, T)>,
    /// The earliest due cycle in `pending`; `u64::MAX` when it is empty.
    next_due: u64,
}

impl<T: Copy> DueQueue<T> {
    pub(super) fn new() -> Self {
        DueQueue { pending: Vec::new(), next_due: u64::MAX } // audited(no-alloc-in-hot-path): constructor
    }

    pub(super) fn len(&self) -> usize {
        self.pending.len()
    }

    pub(super) fn next_due(&self) -> u64 {
        self.next_due
    }

    pub(super) fn push(&mut self, at: u64, item: T) {
        self.next_due = self.next_due.min(at);
        self.pending.push((at, item));
    }

    /// The entries due by `cycle`.
    pub(super) fn due(&self, cycle: u64) -> impl Iterator<Item = T> + '_ {
        self.pending.iter().filter(move |&&(at, _)| at <= cycle).map(|&(_, item)| item)
    }

    /// Takes the first-pushed entry due by `cycle`.
    pub(super) fn pop_due(&mut self, cycle: u64) -> Option<T> {
        let i = self.pending.iter().position(|&(at, _)| at <= cycle)?;
        let (_, item) = self.pending.remove(i);
        self.retain(|_| true);
        Some(item)
    }

    /// Keeps only the entries `keep` accepts.
    pub(super) fn retain(&mut self, keep: impl Fn(&T) -> bool) {
        self.pending.retain(|(_, item)| keep(item));
        self.next_due = self.pending.iter().map(|&(at, _)| at).min().unwrap_or(u64::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_next_due_cycle_follows_every_push_and_removal() {
        let mut q = DueQueue::new();
        assert_eq!(q.next_due(), u64::MAX);
        for (at, seq) in [(30, 1), (10, 2), (20, 3)] {
            q.push(at, PendingReplay { seq, reg: 0 });
        }
        assert_eq!(q.next_due(), 10);
        assert_eq!(q.due(19).map(|r| r.seq).collect::<Vec<_>>(), [2]);
        assert_eq!(q.pop_due(20).map(|r| r.seq), Some(2));
        assert_eq!(q.pop_due(20).map(|r| r.seq), Some(3));
        assert_eq!(q.pop_due(20).map(|r| r.seq), None);
        assert_eq!((q.len(), q.next_due()), (1, 30));
        q.push(25, PendingReplay { seq: 4, reg: 0 });
        q.retain(|r| r.seq != 4);
        assert_eq!(q.next_due(), 30);
        q.retain(|_| false);
        assert_eq!((q.len(), q.next_due()), (0, u64::MAX));
    }
}
