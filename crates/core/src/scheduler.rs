//! Event-driven wakeup/select bookkeeping for the issue stage.
//!
//! The issue loop used to re-scan the whole ROB every cycle and
//! re-poll every candidate's operand `ready_at` — the polling-wakeup
//! anti-pattern. This module holds the event structures that replace
//! it (see DESIGN.md §12 for the equivalence argument):
//!
//! - a **ready set** of µops believed issuable: one bit per ROB
//!   *position* (the count of ROB front pops plus the index, so a
//!   position never moves while its µop lives), in a ring as long as
//!   the ROB. The select stage scans it from the ROB head, oldest
//!   first, and re-verifies the full issue predicate, so the set only
//!   ever has to be a *superset* of the truly issuable µops;
//! - a **dispatch FIFO** of `(due_cycle, seq)` events that evaluate a
//!   µop for wakeup when its rename→dispatch latency elapses (due
//!   cycles are pushed in rename order with a constant offset, so the
//!   queue is naturally sorted);
//! - a **writeback wheel** of `(cycle, class, preg)` events fired when
//!   a register's value becomes available, waking the register's
//!   **consumer list** (inline-first [`SpillVec`]s, one per physical
//!   register — no per-cycle allocation). The wheel holds at most one
//!   event per register, the one at the register's latest writeback:
//!   the pipeline only lets an event wake anyone when it matches the
//!   register's current `ready_at`, so an older one could wake no one.
//!
//! Every structure is deliberately tolerant of stale events: squashes
//! reuse sequence numbers and replays un-produce registers, so an
//! event proves nothing by itself. The pipeline re-evaluates current
//! truth on every wakeup and every select, which makes duplicate or
//! stale events harmless no-ops instead of correctness hazards.

use std::collections::VecDeque;

use crate::inline_vec::SpillVec;
use crate::rename::RegClass;

/// Inline consumer-list capacity per physical register. Two covers
/// the common fan-out (a value feeding an op and a compare) without
/// heap traffic; wider fan-out spills.
const INLINE_CONSUMERS: usize = 2;

fn class_index(class: RegClass) -> usize {
    match class {
        RegClass::Int => 0,
        RegClass::Fp => 1,
    }
}

/// The ready set: one bit per ROB position, in a ring of a power of
/// two bits at least as long as the ROB, so the live positions
/// `[head, head + len)` never share a bit.
#[derive(Debug)]
struct ReadyRing {
    words: Vec<u64>,
    mask: u64,
    count: usize,
}

impl ReadyRing {
    /// A ring for a ROB of `rob_size` entries.
    #[must_use]
    fn new(rob_size: usize) -> Self {
        let bits = rob_size.max(64).next_power_of_two();
        let words = vec![0; bits / 64]; // audited(no-alloc-in-hot-path): constructor
        ReadyRing { words, mask: bits as u64 - 1, count: 0 }
    }

    fn word_bit(&self, pos: u64) -> (usize, u64) {
        let i = pos & self.mask;
        ((i / 64) as usize, 1 << (i % 64))
    }

    /// Marks position `pos` ready. Idempotent.
    fn insert(&mut self, pos: u64) {
        let (w, bit) = self.word_bit(pos);
        self.count += usize::from(self.words[w] & bit == 0);
        self.words[w] |= bit;
    }

    /// Clears position `pos`. Idempotent.
    fn remove(&mut self, pos: u64) {
        let (w, bit) = self.word_bit(pos);
        self.count -= usize::from(self.words[w] & bit != 0);
        self.words[w] &= !bit;
    }

    /// Whether any position is marked.
    #[must_use]
    fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The first marked position in `from..end`, a span no longer than
    /// the ring.
    #[must_use]
    fn first_in(&self, from: u64, end: u64) -> Option<u64> {
        debug_assert!(end - from <= self.mask + 1, "span {from}..{end} exceeds the ring");
        let mut pos = from;
        while pos < end {
            let i = pos & self.mask;
            let rest = self.words[(i / 64) as usize] >> (i % 64);
            if rest != 0 {
                let hit = pos + u64::from(rest.trailing_zeros());
                return (hit < end).then_some(hit);
            }
            pos += 64 - i % 64;
        }
        None
    }
}

/// Cycles the writeback wheel covers ahead of its cursor, one slot
/// each; a wake further out (a chaos cache delay on a DRAM miss) waits
/// in the far list instead.
const WHEEL_SLOTS: usize = 1024;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;
/// List id of the far list (slot lists are `0..WHEEL_SLOTS`).
const FAR: usize = WHEEL_SLOTS;
const NIL: u32 = u32::MAX;

/// One register's place in the wheel's intrusive lists.
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u32,
    next: u32,
    list: u32,
}

/// Writeback wake events, at most one per physical register, on a
/// wheel of [`WHEEL_SLOTS`] cycles. A slot holds an intrusive
/// doubly-linked list of the registers due at its cycle, and an
/// occupancy bitmap finds the next non-empty slot, so scheduling,
/// rescheduling and delivery allocate nothing.
///
/// Every event before `cursor` has been delivered, and every event in
/// a slot list lies in `[cursor, cursor + WHEEL_SLOTS)`, which maps
/// each slot to one cycle. Time may jump past many cycles between two
/// deliveries (functional warming advances the core's clock without
/// stepping it); the next delivery then hands out every event up to
/// the new cycle, oldest first, as a heap would.
#[derive(Debug)]
struct WakeWheel {
    /// Per register (integer file first): the cycle of its pending
    /// wake, or `u64::MAX`.
    due: Vec<u64>,
    links: Vec<Link>,
    /// List heads: the slots, then the far list.
    heads: Vec<u32>,
    occupied: [u64; WHEEL_WORDS],
    /// A lower bound on the far list's due cycles (`u64::MAX`: empty).
    far_min: u64,
    cursor: u64,
}

impl WakeWheel {
    fn new(regs: usize) -> Self {
        WakeWheel {
            due: vec![u64::MAX; regs], // audited(no-alloc-in-hot-path): constructor
            links: vec![Link { prev: NIL, next: NIL, list: 0 }; regs], // audited(no-alloc-in-hot-path): constructor
            heads: vec![NIL; WHEEL_SLOTS + 1], // audited(no-alloc-in-hot-path): constructor
            occupied: [0; WHEEL_WORDS],
            far_min: u64::MAX,
            cursor: 0,
        }
    }

    fn link(&mut self, r: u32, list: usize) {
        let head = self.heads[list];
        self.links[r as usize] = Link { prev: NIL, next: head, list: list as u32 };
        if head != NIL {
            self.links[head as usize].prev = r;
        }
        self.heads[list] = r;
        if list != FAR {
            self.occupied[list / 64] |= 1 << (list % 64);
        }
    }

    fn unlink(&mut self, r: u32) {
        let Link { prev, next, list } = self.links[r as usize];
        let list = list as usize;
        if prev == NIL {
            self.heads[list] = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if next != NIL {
            self.links[next as usize].prev = prev;
        }
        if list != FAR && self.heads[list] == NIL {
            self.occupied[list / 64] &= !(1 << (list % 64));
        }
        self.due[r as usize] = u64::MAX;
    }

    /// Schedules register `r`'s wake at `at`, replacing any pending one.
    fn schedule(&mut self, at: u64, r: u32) {
        if self.due[r as usize] != u64::MAX {
            self.unlink(r);
        }
        self.due[r as usize] = at;
        if at >= self.cursor && at - self.cursor < WHEEL_SLOTS as u64 {
            self.link(r, (at & WHEEL_MASK) as usize);
        } else {
            self.far_min = self.far_min.min(at);
            self.link(r, FAR);
        }
    }

    /// The first cycle at or after `from` whose slot holds an event
    /// (`from` at or after the cursor; the scan covers one full turn).
    fn next_occupied(&self, from: u64) -> Option<u64> {
        let start = (from & WHEEL_MASK) as usize;
        let mut word = start / 64;
        let mut bits = self.occupied[word] & (!0u64 << (start % 64));
        let mut base = from - (start % 64) as u64;
        for _ in 0..=WHEEL_WORDS {
            if bits != 0 {
                return Some(base + u64::from(bits.trailing_zeros()));
            }
            word = (word + 1) % WHEEL_WORDS;
            base += 64;
            bits = self.occupied[word];
        }
        None
    }

    /// Removes and returns the oldest event due at or before `now`, as
    /// `(cycle, register)`.
    fn pop_due(&mut self, now: u64) -> Option<(u64, u32)> {
        // Bring the cursor to the first slot holding an event, or past
        // `now`.
        while self.cursor <= now && self.heads[(self.cursor & WHEEL_MASK) as usize] == NIL {
            self.cursor = match self.next_occupied(self.cursor) {
                Some(at) if at <= now => at,
                _ => now + 1,
            };
        }
        let wheel_at = if self.cursor <= now { self.cursor } else { u64::MAX };
        if self.far_min <= now.min(wheel_at) {
            // The far list's earliest event may come first: find it.
            let (mut r, mut first) = (self.heads[FAR], NIL);
            while r != NIL {
                if first == NIL || self.due[r as usize] < self.due[first as usize] {
                    first = r;
                }
                r = self.links[r as usize].next;
            }
            let at = if first == NIL { u64::MAX } else { self.due[first as usize] };
            self.far_min = at;
            if at <= now.min(wheel_at) {
                self.unlink(first);
                return Some((at, first));
            }
        }
        if wheel_at == u64::MAX {
            return None;
        }
        let r = self.heads[(wheel_at & WHEEL_MASK) as usize];
        debug_assert_eq!(self.due[r as usize], wheel_at);
        self.unlink(r);
        Some((wheel_at, r))
    }

    /// The earliest cycle an event may be due (`u64::MAX`: none).
    fn next_due(&self) -> u64 {
        self.next_occupied(self.cursor).unwrap_or(u64::MAX).min(self.far_min)
    }
}

/// The issue stage's event state. Owned by the core; all policy
/// (what a wakeup means, when events are stale) lives in the
/// pipeline — this type is pure mechanism.
pub struct Scheduler {
    ready: ReadyRing,
    dispatch: VecDeque<(u64, u64)>,
    wakes: WakeWheel,
    int_regs: usize,
    consumers: [Vec<SpillVec<u64, INLINE_CONSUMERS>>; 2],
}

impl Scheduler {
    /// Builds the scheduler for a ROB of `rob_size` entries and
    /// physical register files of the given sizes (consumer lists and
    /// wake events are per physical register).
    #[must_use]
    pub fn new(rob_size: usize, int_regs: usize, fp_regs: usize) -> Self {
        Scheduler {
            ready: ReadyRing::new(rob_size),
            dispatch: VecDeque::new(),
            wakes: WakeWheel::new(int_regs + fp_regs),
            int_regs,
            consumers: [
                vec![SpillVec::new(); int_regs], // audited(no-alloc-in-hot-path): constructor
                vec![SpillVec::new(); fp_regs],  // audited(no-alloc-in-hot-path): constructor
            ],
        }
    }

    // ---------------------------------------------------------------
    // ready set (select)
    // ---------------------------------------------------------------

    /// Marks ROB position `pos` as an issue candidate. Idempotent.
    pub fn insert_ready(&mut self, pos: u64) {
        self.ready.insert(pos);
    }

    /// Drops ROB position `pos` as a candidate (issued, squashed,
    /// retired, or failed re-verification). Idempotent.
    pub fn remove_ready(&mut self, pos: u64) {
        self.ready.remove(pos);
    }

    /// The oldest candidate position in `from..end` — the select
    /// stage's age-ordered iteration primitive (`end` is the ROB tail).
    #[must_use]
    pub fn first_ready_in(&self, from: u64, end: u64) -> Option<u64> {
        self.ready.first_in(from, end)
    }

    /// Whether any µop is an issue candidate.
    #[must_use]
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    // ---------------------------------------------------------------
    // dispatch FIFO
    // ---------------------------------------------------------------

    /// Enqueues a dispatch-latency event: evaluate `seq` for wakeup at
    /// `due`. Callers push in rename order with a constant latency, so
    /// `due` is non-decreasing and a FIFO stays sorted.
    pub fn push_dispatch(&mut self, due: u64, seq: u64) {
        debug_assert!(self.dispatch.back().is_none_or(|&(d, _)| d <= due));
        self.dispatch.push_back((due, seq));
    }

    /// Pops the next dispatch event due at or before `now`, if any.
    pub fn pop_due_dispatch(&mut self, now: u64) -> Option<u64> {
        if self.dispatch.front().is_some_and(|&(due, _)| due <= now) {
            self.dispatch.pop_front().map(|(_, seq)| seq)
        } else {
            None
        }
    }

    // ---------------------------------------------------------------
    // writeback wake events + consumer lists
    // ---------------------------------------------------------------

    /// Schedules a wake of `(class, p)`'s consumers at cycle `at`
    /// (a register writeback completing in the future), replacing the
    /// register's pending wake, which no longer matches its `ready_at`.
    pub fn schedule_wake(&mut self, at: u64, class: RegClass, p: u16) {
        let r = match class {
            RegClass::Int => usize::from(p),
            RegClass::Fp => self.int_regs + usize::from(p),
        };
        self.wakes.schedule(at, r as u32);
    }

    /// Pops the next wake event due at or before `now`, returning the
    /// cycle it was scheduled for (the pipeline validates the event
    /// against the register's current `ready_at` — a mismatch means
    /// the writeback was superseded and the event is stale).
    pub fn pop_due_wake(&mut self, now: u64) -> Option<(u64, RegClass, u16)> {
        let (at, r) = self.wakes.pop_due(now)?;
        let r = r as usize;
        Some(if r < self.int_regs {
            (at, RegClass::Int, r as u16)
        } else {
            (at, RegClass::Fp, (r - self.int_regs) as u16)
        })
    }

    /// The earliest cycle at which a dispatch or wake event may fire
    /// (`u64::MAX`: none pending). Never later than the true next
    /// event, so a core that skips quiet cycles up to it misses none.
    #[must_use]
    pub fn next_event(&self) -> u64 {
        let dispatch = self.dispatch.front().map_or(u64::MAX, |&(due, _)| due);
        dispatch.min(self.wakes.next_due())
    }

    /// Subscribes `seq` to the next wake of `(class, p)` — called when
    /// a wakeup evaluation finds `p` to be the µop's first not-ready
    /// operand. A µop subscribes to at most one register at a time,
    /// which bounds total list growth to one entry per evaluation.
    pub fn subscribe(&mut self, class: RegClass, p: u16, seq: u64) {
        self.consumers[class_index(class)][usize::from(p)].push(seq);
    }

    /// Moves `(class, p)`'s waiting consumers into `out` (a reusable
    /// scratch buffer) and empties the list.
    pub fn drain_consumers(&mut self, class: RegClass, p: u16, out: &mut Vec<u64>) {
        self.consumers[class_index(class)][usize::from(p)].drain_into(out);
    }

    /// Empties `(class, p)`'s consumer list without waking anyone —
    /// called when `p` is (re)allocated, so subscriptions from a
    /// squashed previous lifetime cannot accumulate.
    pub fn clear_consumers(&mut self, class: RegClass, p: u16) {
        self.consumers[class_index(class)][usize::from(p)].clear();
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("ready", &self.ready.count)
            .field("dispatch", &self.dispatch.len())
            .field("wake_cursor", &self.wakes.cursor)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap};

    use proptest::collection;
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn ready_set_iterates_in_age_order() {
        let mut s = Scheduler::new(16, 4, 4);
        for pos in [9, 3, 7] {
            s.insert_ready(pos);
        }
        s.insert_ready(7); // idempotent
        assert_eq!(s.first_ready_in(0, 16), Some(3));
        assert_eq!(s.first_ready_in(4, 16), Some(7));
        s.remove_ready(7);
        assert_eq!(s.first_ready_in(4, 16), Some(9));
        assert_eq!(s.first_ready_in(10, 16), None);
        assert_eq!(s.first_ready_in(0, 9), Some(3));
        assert_eq!(s.first_ready_in(4, 9), None, "the end bound is exclusive");
        s.remove_ready(3);
        s.remove_ready(9);
        assert!(!s.has_ready());
    }

    #[test]
    fn ready_ring_wraps_with_the_rob() {
        // A 64-position ring: the live window 100..140 straddles the
        // wrap at 128, and scans still run oldest first.
        let mut r = ReadyRing::new(40);
        for pos in [100, 127, 128, 139] {
            r.insert(pos);
        }
        assert_eq!(r.first_in(100, 140), Some(100));
        assert_eq!(r.first_in(101, 140), Some(127));
        assert_eq!(r.first_in(128, 140), Some(128));
        assert_eq!(r.first_in(129, 140), Some(139));
        assert_eq!(r.first_in(129, 139), None);
    }

    #[test]
    fn dispatch_fifo_releases_in_due_order() {
        let mut s = Scheduler::new(8, 1, 1);
        s.push_dispatch(5, 100);
        s.push_dispatch(5, 101);
        s.push_dispatch(8, 102);
        assert_eq!(s.next_event(), 5);
        assert_eq!(s.pop_due_dispatch(4), None);
        assert_eq!(s.pop_due_dispatch(5), Some(100));
        assert_eq!(s.pop_due_dispatch(5), Some(101));
        assert_eq!(s.pop_due_dispatch(5), None);
        assert_eq!(s.next_event(), 8);
        assert_eq!(s.pop_due_dispatch(9), Some(102));
        assert_eq!(s.pop_due_dispatch(9), None);
        assert_eq!(s.next_event(), u64::MAX);
    }

    #[test]
    fn wake_wheel_orders_by_cycle_and_reports_the_scheduled_cycle() {
        let mut s = Scheduler::new(8, 8, 8);
        s.schedule_wake(7, RegClass::Int, 3);
        s.schedule_wake(4, RegClass::Fp, 5);
        s.schedule_wake(4, RegClass::Int, 2);
        assert_eq!(s.next_event(), 4);
        assert_eq!(s.pop_due_wake(3), None);
        let mut at_four = [s.pop_due_wake(4), s.pop_due_wake(4)];
        at_four.sort_by_key(|e| e.map(|(_, c, p)| (class_index(c), p)));
        assert_eq!(at_four, [Some((4, RegClass::Int, 2)), Some((4, RegClass::Fp, 5))]);
        assert_eq!(s.pop_due_wake(6), None);
        assert_eq!(s.next_event(), 7);
        assert_eq!(s.pop_due_wake(7), Some((7, RegClass::Int, 3)));
        assert_eq!(s.next_event(), u64::MAX);
    }

    #[test]
    fn a_rescheduled_register_keeps_only_its_latest_wake() {
        let mut s = Scheduler::new(8, 4, 4);
        s.schedule_wake(10, RegClass::Int, 1);
        s.schedule_wake(12, RegClass::Int, 1);
        assert_eq!(s.pop_due_wake(11), None, "the superseded wake at 10 is gone");
        assert_eq!(s.pop_due_wake(12), Some((12, RegClass::Int, 1)));
        assert_eq!(s.pop_due_wake(u64::MAX - 1), None);
    }

    #[test]
    fn far_and_late_wakes_are_delivered() {
        let mut s = Scheduler::new(8, 4, 4);
        let far = WHEEL_SLOTS as u64 + 500;
        s.schedule_wake(far, RegClass::Fp, 3);
        s.schedule_wake(20, RegClass::Int, 2);
        assert_eq!(s.next_event(), 20);
        // Time jumps past both at once: delivered oldest first.
        assert_eq!(s.pop_due_wake(far + 5_000), Some((20, RegClass::Int, 2)));
        assert_eq!(s.pop_due_wake(far + 5_000), Some((far, RegClass::Fp, 3)));
        assert_eq!(s.pop_due_wake(far + 5_000), None);
    }

    #[test]
    fn consumer_lists_drain_and_clear() {
        let mut s = Scheduler::new(8, 4, 4);
        s.subscribe(RegClass::Int, 2, 10);
        s.subscribe(RegClass::Int, 2, 11);
        s.subscribe(RegClass::Int, 2, 12); // spills past the inline pair
        s.subscribe(RegClass::Fp, 2, 99);
        let mut out = Vec::new();
        s.drain_consumers(RegClass::Int, 2, &mut out);
        assert_eq!(out, [10, 11, 12]);
        out.clear();
        s.drain_consumers(RegClass::Int, 2, &mut out);
        assert!(out.is_empty(), "drained list stays empty");
        s.clear_consumers(RegClass::Fp, 2);
        s.drain_consumers(RegClass::Fp, 2, &mut out);
        assert!(out.is_empty(), "cleared list wakes no one");
    }

    proptest! {
        /// The ready ring against a `BTreeSet` of positions, over a live
        /// window that slides past the ring's wrap many times.
        #[test]
        fn ready_ring_matches_an_ordered_set(
            ops in collection::vec((0u8..4, 0u64..40, 0u64..40), 1..400),
        ) {
            const ROB: u64 = 40;
            let mut ring = ReadyRing::new(ROB as usize);
            let mut model = BTreeSet::new();
            let (mut head, mut len) = (0u64, 0u64);
            for (op, a, b) in ops {
                match op {
                    // Push to the tail, or retire the head (clearing it).
                    0 => len = (len + 1).min(ROB),
                    1 if len > 0 => {
                        ring.remove(head);
                        model.remove(&head);
                        head += 1;
                        len -= 1;
                    }
                    2 if len > 0 => {
                        ring.insert(head + a % len);
                        model.insert(head + a % len);
                    }
                    _ if len > 0 => {
                        ring.remove(head + a % len);
                        model.remove(&(head + a % len));
                    }
                    _ => {}
                }
                let end = head + len;
                let from = head + b % (len + 1);
                prop_assert_eq!(ring.first_in(from, end), model.range(from..end).next().copied());
                prop_assert_eq!(ring.is_empty(), model.is_empty());
            }
        }

        /// The wake wheel against a `BinaryHeap` of every scheduled
        /// event: each cycle, the wheel delivers exactly the heap's due
        /// events that still match the register's latest schedule,
        /// including events past the wheel's horizon and jumps of time
        /// past many events at once.
        #[test]
        fn wake_wheel_matches_a_heap(
            ops in collection::vec((0u8..8, 0u32..12, 1u64..40), 1..300),
        ) {
            let mut wheel = WakeWheel::new(12);
            let mut heap = BinaryHeap::new();
            let mut latest = [u64::MAX; 12];
            let mut now = 0u64;
            for (op, r, d) in ops {
                match op {
                    0..=3 => {
                        let at = now + d;
                        wheel.schedule(at, r);
                        heap.push(Reverse((at, r)));
                        latest[r as usize] = at;
                    }
                    4 => {
                        let at = now + WHEEL_SLOTS as u64 + 10 * d;
                        wheel.schedule(at, r);
                        heap.push(Reverse((at, r)));
                        latest[r as usize] = at;
                    }
                    5 => now += 3 * WHEEL_SLOTS as u64 + d,
                    _ => now += d % 4,
                }
                // The next event the wheel reports is never later than
                // the heap's next live one.
                let live = heap.iter().map(|e| e.0).filter(|&(at, r)| latest[r as usize] == at);
                let live_min = live.map(|(at, _)| at).min().unwrap_or(u64::MAX);
                prop_assert!(wheel.next_due() <= live_min);
                let mut want = Vec::new();
                while heap.peek().is_some_and(|e| e.0 .0 <= now) {
                    let Reverse((at, r)) = heap.pop().expect("peeked");
                    if latest[r as usize] == at && !want.contains(&(at, r)) {
                        want.push((at, r));
                    }
                }
                let mut got = Vec::new();
                while let Some(event) = wheel.pop_due(now) {
                    got.push(event);
                }
                let mut by_cycle = got.clone();
                by_cycle.sort_by_key(|&(at, _)| at);
                prop_assert_eq!(&got, &by_cycle, "delivered oldest first");
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want);
                now += 1;
            }
        }
    }
}
