//! Model-based property test for the event queue: every operation is
//! mirrored on a plain `BinaryHeap` ordered by `(cycle, seq)`, and the
//! two must agree on every observation.

use proptest::prelude::*;
use sim_core::event::EventQueue;
use sim_core::types::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference: a min-heap of `(cycle, seq, payload)`.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    next_seq: u64,
    now: Cycle,
}

impl Model {
    fn schedule_at(&mut self, at: Cycle, payload: u32) {
        self.heap.push(Reverse((at, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(Cycle, u32)> {
        let Reverse((at, _, p)) = self.heap.pop()?;
        self.now = at;
        Some((at, p))
    }

    fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }

    fn sorted(&self) -> Vec<(Cycle, u64, u32)> {
        let mut v: Vec<_> = self.heap.iter().map(|Reverse(e)| *e).collect();
        v.sort_unstable();
        v
    }

    fn front(&self) -> Vec<u32> {
        let Some(at) = self.peek_time() else {
            return Vec::new();
        };
        self.sorted()
            .into_iter()
            .filter(|e| e.0 == at)
            .map(|e| e.2)
            .collect()
    }

    fn pop_nth_front(&mut self, n: usize) -> Option<(Cycle, u32)> {
        let at = self.peek_time()?;
        let mut front = Vec::new();
        while self.peek_time() == Some(at) {
            front.push(self.heap.pop().expect("peeked").0);
        }
        front.sort_unstable();
        let chosen = front.remove(n.min(front.len() - 1));
        for e in front {
            self.heap.push(Reverse(e));
        }
        self.now = at;
        Some((at, chosen.2))
    }
}

/// One queue operation: `(kind, a, b)`, decoded in [`apply`].
fn op() -> impl Strategy<Value = (u8, u64, usize)> {
    (0u8..8, 0u64..201, 0usize..8)
}

fn apply(
    q: &mut EventQueue<u32>,
    m: &mut Model,
    next: &mut u32,
    (kind, a, b): (u8, u64, usize),
) -> Result<(), TestCaseError> {
    let mut schedule = |q: &mut EventQueue<u32>, m: &mut Model, delay: Cycle| {
        q.schedule_in(delay, *next);
        m.schedule_at(m.now + delay, *next);
        *next += 1;
    };
    match kind {
        // A delay of 0..=200 cycles: inside and beyond any near window.
        0 | 1 => schedule(q, m, a),
        // A same-cycle burst a few cycles out (a Respond->Recv style
        // pile-up on one cycle).
        2 => {
            for _ in 0..=b {
                schedule(q, m, a % 3);
            }
        }
        // A far-future event: time jumps well past the near window.
        3 => schedule(q, m, 1_000 + a * 37),
        4 => prop_assert_eq!(q.pop(), m.pop()),
        5 => prop_assert_eq!(q.pop_nth_front(b), m.pop_nth_front(b)),
        6 => {
            let front = m.front();
            prop_assert_eq!(q.front_len(), front.len());
            prop_assert_eq!(q.front_snapshot(), front);
        }
        _ => {
            let mut seen = Vec::new();
            q.for_each_sorted(|at, &p| seen.push((at, p)));
            let want: Vec<(Cycle, u32)> = m.sorted().into_iter().map(|e| (e.0, e.2)).collect();
            prop_assert_eq!(seen, want);
        }
    }
    prop_assert_eq!(q.now(), m.now);
    prop_assert_eq!(q.len(), m.heap.len());
    prop_assert_eq!(q.is_empty(), m.heap.is_empty());
    prop_assert_eq!(q.peek_time(), m.peek_time());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_queue_matches_binary_heap_model(ops in prop::collection::vec(op(), 1..400)) {
        let mut q = EventQueue::new();
        let mut m = Model::default();
        let mut next = 0u32;
        for o in ops {
            apply(&mut q, &mut m, &mut next, o)?;
        }
        // Drain: the remaining order must match too.
        while let Some(e) = m.pop() {
            prop_assert_eq!(q.pop(), Some(e));
        }
        prop_assert_eq!(q.pop(), None);
    }
}
