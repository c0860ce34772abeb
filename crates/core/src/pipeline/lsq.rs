//! The load and store queues, and the store sets that gate loads.
//!
//! Both queues hold the same entry in program order and answer one
//! question at issue: which issued entry of a seq range overlaps a
//! byte range. A load asks the store queue for an older store to
//! forward from; a store asks the load queue for the first younger
//! load that read too early (an ordering violation). Each queue keeps
//! a window around its issued entries, so a question whose range
//! misses the window ends without a scan.

use std::ops::Range;

use tvp_isa::op::Op;
use tvp_workloads::trace::TraceUop;

use super::queue::{Aged, PosQueue};
use crate::storesets::StoreSets;

pub(super) fn overlap(a_addr: u64, a_size: u8, b_addr: u64, b_size: u8) -> bool {
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

/// One load or store in flight.
#[derive(Clone, Copy, Debug)]
struct MemEntry {
    seq: u64,
    pc: u64,
    addr: u64,
    size: u8,
    issued: bool,
    /// For a load: the store its store set says to wait for.
    wait_store: Option<u64>,
}

impl Aged for MemEntry {
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// One queue and the window around its issued entries.
struct MemQueue {
    entries: PosQueue<MemEntry>,
    issued: IssuedWindow,
    capacity: usize,
}

impl MemQueue {
    fn new(capacity: usize) -> Self {
        MemQueue { entries: PosQueue::new(), issued: IssuedWindow::new(), capacity }
    }

    fn issue(&mut self, pos: u64) -> MemEntry {
        let e = &mut self.entries[pos];
        e.issued = true;
        self.issued.add(e.addr, e.size);
        *e
    }

    fn unissue(&mut self, pos: u64) {
        let e = &mut self.entries[pos];
        if e.issued {
            e.issued = false;
            self.issued.remove();
        }
    }

    /// Pops the oldest entry (retirement) or the youngest (a squash).
    fn take(&mut self, youngest: bool) -> Option<MemEntry> {
        let e = if youngest { self.entries.pop_back() } else { self.entries.pop_front() }?;
        if e.issued {
            self.issued.remove();
        }
        Some(e)
    }

    /// The oldest issued entry numbered in `seqs` whose bytes overlap
    /// `size` bytes at `addr`.
    fn first_issued_overlap(&self, seqs: Range<u64>, addr: u64, size: u8) -> Option<&MemEntry> {
        if !self.issued.may_overlap(addr, size) {
            return None;
        }
        let bound = |seq| self.entries.partition_point(|e| e.seq < seq);
        let mut candidates = self.entries.range(bound(seqs.start)..bound(seqs.end));
        candidates.find(|e| e.issued && overlap(e.addr, e.size, addr, size))
    }
}

/// The load queue, the store queue and the store sets (Table 2: 2k SSIT
/// and 2k LFST entries) they consult.
pub(super) struct Lsq {
    loads: MemQueue,
    stores: MemQueue,
    storesets: StoreSets,
}

impl Lsq {
    pub(super) fn new(lq_size: usize, sq_size: usize) -> Self {
        Lsq {
            loads: MemQueue::new(lq_size),
            stores: MemQueue::new(sq_size),
            storesets: StoreSets::new(2048, 2048),
        }
    }

    fn queue(&mut self, op: Op) -> Option<&mut MemQueue> {
        match op {
            Op::Load { .. } => Some(&mut self.loads),
            Op::Store { .. } => Some(&mut self.stores),
            _ => None,
        }
    }

    /// Whether `op` needs a queue slot that is not there.
    pub(super) fn is_full(&mut self, op: Op) -> bool {
        self.queue(op).is_some_and(|q| q.entries.len() >= q.capacity)
    }

    /// Enters a load or store at rename and returns its queue position
    /// (0 for other µops). A load notes the store its store set says to
    /// wait for; a store becomes its set's last fetched store.
    pub(super) fn dispatch(&mut self, u: &TraceUop) -> u64 {
        let (queue, size, wait_store) = match u.uop.op {
            Op::Load { size, .. } => (&mut self.loads, size, self.storesets.load_dependency(u.pc)),
            Op::Store { size } => {
                let _ = self.storesets.store_dispatched(u.pc, u.seq);
                (&mut self.stores, size, None)
            }
            _ => return 0,
        };
        let addr = u.mem_addr.expect("loads and stores have an address");
        queue.entries.push_back(MemEntry {
            seq: u.seq,
            pc: u.pc,
            addr,
            size,
            issued: false,
            wait_store,
        })
    }

    /// Issues the load at `pos` unless its store-set gate holds it for a
    /// store still waiting to issue. Returns the load's address and
    /// whether an older issued store overlaps it and forwards its data.
    pub(super) fn issue_load(&mut self, pos: u64) -> Option<(u64, bool)> {
        let load = self.loads.entries[pos];
        let gate = load.wait_store.and_then(|store| self.stores.entries.find(store));
        if gate.is_some_and(|store| !self.stores.entries[store].issued) {
            return None;
        }
        let forwards =
            self.stores.first_issued_overlap(0..load.seq, load.addr, load.size).is_some();
        self.loads.issue(pos);
        Some((load.addr, forwards))
    }

    /// Issues the store at `pos`. The first younger load that already
    /// issued and overlaps it read stale data: its seq is returned, and
    /// the store sets learn to make it wait next time.
    pub(super) fn issue_store(&mut self, pos: u64) -> Option<u64> {
        let store = self.stores.issue(pos);
        let load =
            self.loads.first_issued_overlap(store.seq + 1..u64::MAX, store.addr, store.size)?;
        self.storesets.violation(load.pc, store.pc);
        Some(load.seq)
    }

    /// Takes a replayed µop's entry at `pos` back to un-issued.
    pub(super) fn unissue(&mut self, op: Op, pos: u64) {
        if let Some(q) = self.queue(op) {
            q.unissue(pos);
        }
    }

    /// Removes the µop's entry: the oldest in its queue when it retires,
    /// the youngest when it is squashed. A store leaving either way
    /// stops being its set's last fetched store.
    pub(super) fn remove(&mut self, op: Op, squashed: bool) {
        let left = self.queue(op).and_then(|q| q.take(squashed));
        if let Some(store) = left.filter(|_| op.is_store()) {
            self.storesets.store_completed(store.pc, store.seq);
        }
    }

    /// Chaos: scribbles over the store sets.
    pub(super) fn inject_fault(&mut self, r: u64) {
        self.storesets.inject_fault(r);
    }

    /// The load queue's seqs, then the store queue's, oldest first.
    pub(super) fn seqs(&self) -> [impl ExactSizeIterator<Item = u64> + '_; 2] {
        [&self.loads, &self.stores].map(|q| q.entries.iter().map(|e| e.seq))
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection;
    use proptest::prelude::*;

    use super::*;

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

    proptest! {
        /// One queue against a `Vec` of `(position, entry)` pairs over
        /// pushes, issues, un-issues, retirements and squashes, with
        /// addresses packed into a few lines so that ranges collide.
        #[test]
        fn mem_queue_matches_a_linear_scan(
            ops in collection::vec((0u8..6, 0u64..64, 0u64..64), 1..300),
        ) {
            let mut q = MemQueue::new(16);
            let mut model: Vec<(u64, MemEntry)> = Vec::new();
            let (mut next_seq, mut retired) = (0u64, 0u64);
            for (op, a, b) in ops {
                let live = model.len() as u64;
                match op {
                    0 | 1 if model.len() < q.capacity => {
                        // Seqs rise with gaps: the queue holds every
                        // other µop of the program.
                        next_seq += 1 + b % 3;
                        let e = MemEntry {
                            seq: next_seq,
                            pc: 4 * a,
                            addr: 0x1000 + a,
                            size: 1 << (b % 4),
                            issued: false,
                            wait_store: None,
                        };
                        // Past the retired entries and the live ones: a
                        // squashed entry's position is reused.
                        let pos = q.entries.push_back(e);
                        prop_assert_eq!(pos, retired + live);
                        model.push((pos, e));
                    }
                    2 if live > 0 => {
                        let (pos, e) = &mut model[(a % live) as usize];
                        if !e.issued {
                            e.issued = true;
                            q.issue(*pos);
                        }
                    }
                    3 if live > 0 => {
                        let (pos, e) = &mut model[(a % live) as usize];
                        e.issued = false;
                        q.unissue(*pos);
                    }
                    4 if live > 0 => {
                        prop_assert_eq!(q.take(false).map(|e| e.seq), Some(model[0].1.seq));
                        model.remove(0);
                        retired += 1;
                    }
                    5 if live > 0 => {
                        prop_assert_eq!(q.take(true).map(|e| e.seq), model.pop().map(|(_, e)| e.seq));
                    }
                    _ => {}
                }
                // Positions stay put across front pops.
                prop_assert_eq!(q.entries.len(), model.len());
                for (pos, e) in &model {
                    prop_assert_eq!(q.entries[*pos].seq, e.seq);
                    prop_assert_eq!(q.entries.find(e.seq), Some(*pos));
                }
                // The window holds every issued entry.
                let issued: Vec<&MemEntry> = model.iter().map(|(_, e)| e).filter(|e| e.issued).collect();
                prop_assert_eq!(q.issued.count, issued.len());
                for e in &issued {
                    prop_assert!(q.issued.may_overlap(e.addr, e.size));
                }
                // Forwarding and violation answers equal a linear scan,
                // asked from anywhere in (and just past) the live seqs.
                let oldest = model.first().map_or(next_seq, |(_, e)| e.seq);
                let (seq, addr, size) = (oldest + b % (3 * live + 2), 0x1000 + a, 1 << (a % 4));
                let scan = |seqs: Range<u64>| {
                    issued
                        .iter()
                        .find(|e| seqs.contains(&e.seq) && overlap(e.addr, e.size, addr, size))
                        .map(|e| e.seq)
                };
                let older = q.first_issued_overlap(0..seq, addr, size).map(|e| e.seq);
                prop_assert_eq!(older, scan(0..seq));
                let younger = q.first_issued_overlap(seq + 1..u64::MAX, addr, size).map(|e| e.seq);
                prop_assert_eq!(younger, scan(seq + 1..u64::MAX));
            }
        }
    }
}
