//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(cycle, sequence number)`: two events scheduled
//! for the same cycle fire in the order they were scheduled. That rule is
//! what makes whole-system simulation bit-reproducible, so the experiment
//! harness and the test suite can assert on exact cycle counts.
//!
//! Storage is a timing wheel in front of a heap. Events due within
//! [`WHEEL`] cycles of `now` sit in per-cycle FIFO slots (`slots[at %
//! WHEEL]`, with a bit per non-empty slot in `occupied`); later events
//! wait in a `(cycle, seq)` min-heap. When `now` advances, heap events
//! that fall inside the new window move to their slots in heap order.
//! That happens before any direct insert for their cycle is possible (a
//! cycle is only directly insertable once it is inside the window), so
//! every slot holds its events in sequence order and the pop order is
//! exactly the `(cycle, seq)` order of a single heap.

use crate::types::Cycle;
use std::collections::{BinaryHeap, VecDeque};

/// Width of the near-future window, in cycles: one bit of `occupied`
/// per slot.
const WHEEL: usize = 64;

#[derive(Debug)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first ordering.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A min-ordered event queue with deterministic same-cycle ordering.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `slots[at % WHEEL]`: the events due at `at`, for `at` in
    /// `now..now + WHEEL`, in schedule order.
    slots: Vec<VecDeque<E>>,
    /// Bit `i` set iff `slots[i]` is non-empty.
    occupied: u64,
    /// Events due at `now + WHEEL` or later.
    far: BinaryHeap<Entry<E>>,
    len: usize,
    next_seq: u64,
    now: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            slots: (0..WHEEL).map(|_| VecDeque::new()).collect(),
            occupied: 0,
            far: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            now: 0,
        }
    }

    /// Current simulated time: the cycle of the most recently popped event.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Schedule `payload` to fire at absolute cycle `at`.
    ///
    /// Scheduling in the past is a simulator bug; panics in that case.
    pub fn schedule_at(&mut self, at: Cycle, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past ({at} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if at - self.now < WHEEL as Cycle {
            let i = at as usize % WHEEL;
            self.slots[i].push_back(payload);
            self.occupied |= 1 << i;
        } else {
            self.far.push(Entry { at, seq, payload });
        }
    }

    /// Schedule `payload` to fire `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: Cycle, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Pop the earliest event, advancing simulated time to it.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.pop_nth_front(0)
    }

    /// Time of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.occupied != 0 {
            Some(self.now + Cycle::from(self.ahead().trailing_zeros()))
        } else {
            self.far.peek().map(|e| e.at)
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of events pending at the earliest cycle (the "front").
    ///
    /// Same-cycle events fire in schedule order by default; when the
    /// front is wider than one event, that FIFO tie-break is the only
    /// nondeterminism in the simulation, so a schedule explorer need
    /// only consider alternative orders of the front.
    pub fn front_len(&self) -> usize {
        let Some(at) = self.peek_time() else { return 0 };
        if self.occupied != 0 {
            self.slots[at as usize % WHEEL].len()
        } else {
            self.far.iter().filter(|e| e.at == at).count()
        }
    }

    /// Clones of the front events in schedule (seq) order.
    pub fn front_snapshot(&self) -> Vec<E>
    where
        E: Clone,
    {
        let Some(at) = self.peek_time() else {
            return Vec::new();
        };
        if self.occupied != 0 {
            return self.slots[at as usize % WHEEL].iter().cloned().collect();
        }
        let mut front: Vec<&Entry<E>> = self.far.iter().filter(|e| e.at == at).collect();
        front.sort_by_key(|e| e.seq);
        front.into_iter().map(|e| e.payload.clone()).collect()
    }

    /// Pop the `n`-th front event (0-based, schedule order), advancing
    /// time to the front cycle. The other front events keep their
    /// original order, so the residual FIFO order among them is
    /// preserved. `n` out of range picks the last front event.
    pub fn pop_nth_front(&mut self, n: usize) -> Option<(Cycle, E)> {
        let at = self.peek_time()?;
        self.advance_to(at);
        let i = at as usize % WHEEL;
        let slot = &mut self.slots[i];
        let payload = slot
            .remove(n.min(slot.len() - 1))
            .expect("front slot is non-empty");
        if slot.is_empty() {
            self.occupied &= !(1 << i);
        }
        self.len -= 1;
        Some((at, payload))
    }

    /// `occupied` rotated so that bit `k` marks the slot of cycle
    /// `now + k`: slots in cycle order.
    fn ahead(&self) -> u64 {
        self.occupied
            .rotate_right((self.now % WHEEL as Cycle) as u32)
    }

    /// Move `now` forward to `at` (the earliest pending cycle) and pull
    /// the heap events the new window covers into their slots. Their
    /// slots are empty: they last held cycles before `at`.
    fn advance_to(&mut self, at: Cycle) {
        debug_assert!(at >= self.now);
        self.now = at;
        let end = at.saturating_add(WHEEL as Cycle);
        while self.far.peek().is_some_and(|e| e.at < end) {
            let e = self.far.pop().expect("peeked entry");
            let i = e.at as usize % WHEEL;
            self.slots[i].push_back(e.payload);
            self.occupied |= 1 << i;
        }
    }

    /// Visit every pending event in deterministic `(cycle, seq)` order
    /// (used for state fingerprinting).
    pub fn for_each_sorted(&self, mut f: impl FnMut(Cycle, &E)) {
        let mut ahead = self.ahead();
        while ahead != 0 {
            let at = self.now + Cycle::from(ahead.trailing_zeros());
            for e in &self.slots[at as usize % WHEEL] {
                f(at, e);
            }
            ahead &= ahead - 1;
        }
        let mut far: Vec<&Entry<E>> = self.far.iter().collect();
        far.sort_by_key(|e| (e.at, e.seq));
        for e in far {
            f(e.at, &e.payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(7, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 7);
        q.schedule_in(3, ());
        assert_eq!(q.pop(), Some((10, ())));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule_at(10, ());
        q.pop();
        q.schedule_at(5, ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(1, 1u32);
        q.schedule_at(4, 4u32);
        assert_eq!(q.pop(), Some((1, 1)));
        q.schedule_at(2, 2u32);
        q.schedule_at(3, 3u32);
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((4, 4)));
    }

    #[test]
    fn front_enumeration_and_nth_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(5, "a");
        q.schedule_at(5, "b");
        q.schedule_at(5, "c");
        q.schedule_at(9, "late");
        assert_eq!(q.front_len(), 3);
        assert_eq!(q.front_snapshot(), vec!["a", "b", "c"]);
        // Pop the middle front event; the rest stay FIFO.
        assert_eq!(q.pop_nth_front(1), Some((5, "b")));
        assert_eq!(q.now(), 5);
        assert_eq!(q.front_snapshot(), vec!["a", "c"]);
        assert_eq!(q.pop(), Some((5, "a")));
        assert_eq!(q.pop(), Some((5, "c")));
        assert_eq!(q.front_len(), 1);
        assert_eq!(q.pop_nth_front(7), Some((9, "late")));
        assert_eq!(q.front_len(), 0);
        assert_eq!(q.pop_nth_front(0), None);
    }

    #[test]
    fn sorted_visit_matches_pop_order() {
        let mut q = EventQueue::new();
        q.schedule_at(4, 40u32);
        q.schedule_at(2, 20u32);
        q.schedule_at(2, 21u32);
        let mut seen = Vec::new();
        q.for_each_sorted(|at, e| seen.push((at, *e)));
        assert_eq!(seen, vec![(2, 20), (2, 21), (4, 40)]);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(1, ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(1));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
