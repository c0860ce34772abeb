//! Return Address Stack.
//!
//! A 32-entry circular RAS (Table 2). Calls push the return address at
//! prediction time, returns pop speculatively; the pipeline checkpoints
//! the whole (small) stack alongside branch history and restores it on
//! a squash, which sidesteps the classic corrupted-RAS problem. The
//! slots live inline, so a checkpoint is a copy, not an allocation.

/// Maximum RAS capacity in entries (Table 2).
pub const RAS_SLOTS: usize = 32;

/// A fixed-capacity circular return address stack.
///
/// # Examples
///
/// ```
/// use tvp_predictors::ras::Ras;
///
/// let mut ras = Ras::new(32);
/// ras.push(0x1004);
/// ras.push(0x2008);
/// assert_eq!(ras.pop(), Some(0x2008));
/// assert_eq!(ras.pop(), Some(0x1004));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ras {
    entries: [u64; RAS_SLOTS],
    capacity: usize,
    top: usize,
    depth: usize,
}

impl Ras {
    /// Creates a RAS with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds [`RAS_SLOTS`].
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS capacity must be non-zero");
        assert!(capacity <= RAS_SLOTS, "RAS capacity {capacity} exceeds {RAS_SLOTS} slots");
        Ras { entries: [0; RAS_SLOTS], capacity, top: 0, depth: 0 }
    }

    /// Pushes a return address (on a predicted call). Overflow wraps,
    /// silently overwriting the oldest entry, as real hardware does.
    pub fn push(&mut self, return_addr: u64) {
        self.top = (self.top + 1) % self.capacity;
        self.entries[self.top] = return_addr;
        self.depth = (self.depth + 1).min(self.capacity);
    }

    /// Pops the predicted return address (on a predicted return), or
    /// `None` if the stack is empty.
    pub fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            return None;
        }
        let addr = self.entries[self.top];
        self.top = (self.top + self.capacity - 1) % self.capacity;
        self.depth -= 1;
        Some(addr)
    }

    /// Current number of live entries.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl tvp_verif::StorageBudget for Ras {
    fn storage_name(&self) -> &'static str {
        "ras"
    }

    fn storage_bits(&self) -> u64 {
        // 48-bit virtual return addresses per slot.
        self.capacity as u64 * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = Ras::new(8);
        for i in 0..5u64 {
            ras.push(i);
        }
        for i in (0..5u64).rev() {
            assert_eq!(ras.pop(), Some(i));
        }
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn overflow_wraps_and_keeps_recent() {
        let mut ras = Ras::new(4);
        for i in 0..6u64 {
            ras.push(i);
        }
        assert_eq!(ras.depth(), 4);
        assert_eq!(ras.pop(), Some(5));
        assert_eq!(ras.pop(), Some(4));
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None, "entries 0 and 1 were overwritten");
    }

    #[test]
    fn clone_checkpoints_state() {
        let mut ras = Ras::new(8);
        ras.push(0xAAAA);
        let ckpt = ras;
        ras.push(0xBBBB);
        let _ = ras.pop();
        let _ = ras.pop();
        let mut restored = ckpt;
        assert_eq!(restored.pop(), Some(0xAAAA));
    }
}
