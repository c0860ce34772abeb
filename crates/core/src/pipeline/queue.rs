//! The queue behind the ROB, the load queue and the store queue.
//!
//! An entry keeps the position it was pushed at for as long as it
//! lives: a front pop (retirement) advances the base, and a back pop (a
//! squash) invalidates no surviving position. The scheduler's ready set
//! and each ROB entry's load/store-queue slot are such positions.

use std::collections::VecDeque;
use std::ops::{Deref, Index, IndexMut};

/// An entry in program order, named by its sequence number.
pub(super) trait Aged {
    fn seq(&self) -> u64;
}

/// A deque of [`Aged`] entries addressed by position. Reads go to the
/// deque itself; pushes and pops, which move positions, go through here.
pub(super) struct PosQueue<T> {
    items: VecDeque<T>,
    /// Position of the front entry: how many entries were popped there.
    base: u64,
}

impl<T: Aged> PosQueue<T> {
    pub(super) fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue that holds `capacity` entries without growing.
    pub(super) fn with_capacity(capacity: usize) -> Self {
        PosQueue { items: VecDeque::with_capacity(capacity), base: 0 }
    }

    /// Position of the front (oldest) entry.
    pub(super) fn start(&self) -> u64 {
        self.base
    }

    /// One past the back entry's position: the next push's.
    pub(super) fn end(&self) -> u64 {
        self.base + self.items.len() as u64
    }

    /// Appends `item` and returns its position.
    pub(super) fn push_back(&mut self, item: T) -> u64 {
        self.items.push_back(item);
        self.end() - 1
    }

    /// Retires the oldest entry.
    pub(super) fn pop_front(&mut self) -> Option<T> {
        let item = self.items.pop_front()?;
        self.base += 1;
        Some(item)
    }

    /// Squashes the youngest entry; its position is `end()` afterwards.
    pub(super) fn pop_back(&mut self) -> Option<T> {
        self.items.pop_back()
    }

    /// Position of the entry numbered `seq`. The trace numbers µops
    /// consecutively and a flush squashes a contiguous suffix, so in the
    /// ROB the distance from the front's seq is the answer; the
    /// `SkipCursorRollback` sabotage leaves gaps, and the load and store
    /// queues skip the other µops, so a miss falls back to binary search.
    pub(super) fn find(&self, seq: u64) -> Option<u64> {
        let offset = usize::try_from(seq.checked_sub(self.items.front()?.seq())?).ok()?;
        let index = match self.items.get(offset) {
            Some(e) if e.seq() == seq => offset,
            _ => self.items.binary_search_by_key(&seq, T::seq).ok()?,
        };
        Some(self.base + index as u64)
    }
}

impl<T> Deref for PosQueue<T> {
    type Target = VecDeque<T>;

    fn deref(&self) -> &VecDeque<T> {
        &self.items
    }
}

impl<T> Index<u64> for PosQueue<T> {
    type Output = T;

    fn index(&self, pos: u64) -> &T {
        &self.items[(pos - self.base) as usize]
    }
}

impl<T> IndexMut<u64> for PosQueue<T> {
    fn index_mut(&mut self, pos: u64) -> &mut T {
        &mut self.items[(pos - self.base) as usize]
    }
}
