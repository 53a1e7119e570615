//! Transactional FIFO queue (STAMP `lib/queue.c`): intruder's packet and
//! task queues.
//!
//! Linked-list FIFO; header layout: `[head, tail]`, node layout
//! `[value, next]`. Push appends at the tail, pop takes from the head, so
//! uncontended producers and consumers touch different lines.

use crate::alloc::TmAlloc;
use lockiller::flatmem::SetupCtx;
use lockiller::guest::{Abort, TxCtx};
use sim_core::types::Addr;

const HEAD: u64 = 0;
const TAIL: u64 = 1;
const VAL: u64 = 0;
const NEXT: u64 = 1;
const NODE_WORDS: u64 = 2;

/// Handle to a transactional FIFO queue.
#[derive(Clone, Copy, Debug)]
pub struct Queue {
    hdr: Addr,
}

impl Queue {
    pub fn setup(s: &mut SetupCtx) -> Queue {
        let hdr = s.alloc(8);
        s.write(hdr.add(HEAD), 0);
        s.write(hdr.add(TAIL), 0);
        Queue { hdr }
    }

    /// Seed the queue with values during (untimed) setup.
    pub fn setup_push(&self, s: &mut SetupCtx, value: u64) {
        let node = s.alloc(NODE_WORDS);
        s.write(node.add(VAL), value);
        s.write(node.add(NEXT), 0);
        let tail = s.read(self.hdr.add(TAIL));
        if tail == 0 {
            s.write(self.hdr.add(HEAD), node.0);
        } else {
            s.write(Addr(tail).add(NEXT), node.0);
        }
        s.write(self.hdr.add(TAIL), node.0);
    }

    pub async fn push(&self, tx: &mut TxCtx, alloc: &TmAlloc, value: u64) -> Result<(), Abort> {
        let node = alloc.alloc(tx, NODE_WORDS).await?;
        tx.store(node.add(VAL), value).await?;
        tx.store(node.add(NEXT), 0).await?;
        let tail = tx.load(self.hdr.add(TAIL)).await?;
        if tail == 0 {
            tx.store(self.hdr.add(HEAD), node.0).await?;
        } else {
            tx.store(Addr(tail).add(NEXT), node.0).await?;
        }
        tx.store(self.hdr.add(TAIL), node.0).await?;
        Ok(())
    }

    pub async fn pop(&self, tx: &mut TxCtx) -> Result<Option<u64>, Abort> {
        let head = tx.load(self.hdr.add(HEAD)).await?;
        if head == 0 {
            return Ok(None);
        }
        let node = Addr(head);
        let next = tx.load(node.add(NEXT)).await?;
        tx.store(self.hdr.add(HEAD), next).await?;
        if next == 0 {
            tx.store(self.hdr.add(TAIL), 0).await?;
        }
        Ok(Some(tx.load(node.add(VAL)).await?))
    }

    pub async fn is_empty(&self, tx: &mut TxCtx) -> Result<bool, Abort> {
        Ok(tx.load(self.hdr.add(HEAD)).await? == 0)
    }

    pub async fn len(&self, tx: &mut TxCtx) -> Result<u64, Abort> {
        let mut n = 0;
        let mut cur = tx.load(self.hdr.add(HEAD)).await?;
        while cur != 0 {
            n += 1;
            cur = tx.load(Addr(cur).add(NEXT)).await?;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_tx;
    use std::sync::Mutex;

    fn with_queue(
        seed: &'static [u64],
        body: impl AsyncFn(&mut TxCtx, &Queue, &TmAlloc) -> Result<(), Abort>,
    ) {
        let handles: Mutex<Option<(Queue, TmAlloc)>> = Mutex::new(None);
        let handles = &handles;
        run_tx(
            move |s| {
                let alloc = TmAlloc::setup(s, 1, 65536);
                let q = Queue::setup(s);
                for &v in seed {
                    q.setup_push(s, v);
                }
                *handles.lock().unwrap() = Some((q, alloc));
            },
            async |tx| {
                let (q, alloc) = handles.lock().unwrap().unwrap();
                body(tx, &q, &alloc).await
            },
        );
    }

    #[test]
    fn fifo_order() {
        with_queue(&[], async |tx, q, alloc| {
            assert!(q.is_empty(tx).await?);
            for v in [10u64, 20, 30] {
                q.push(tx, alloc, v).await?;
            }
            assert_eq!(q.len(tx).await?, 3);
            assert_eq!(q.pop(tx).await?, Some(10));
            assert_eq!(q.pop(tx).await?, Some(20));
            q.push(tx, alloc, 40).await?;
            assert_eq!(q.pop(tx).await?, Some(30));
            assert_eq!(q.pop(tx).await?, Some(40));
            assert_eq!(q.pop(tx).await?, None);
            assert!(q.is_empty(tx).await?);
            Ok(())
        });
    }

    #[test]
    fn setup_seeding() {
        with_queue(&[1, 2, 3], async |tx, q, _| {
            assert_eq!(q.pop(tx).await?, Some(1));
            assert_eq!(q.pop(tx).await?, Some(2));
            assert_eq!(q.pop(tx).await?, Some(3));
            assert_eq!(q.pop(tx).await?, None);
            Ok(())
        });
    }

    #[test]
    fn drain_and_refill() {
        with_queue(&[5], async |tx, q, alloc| {
            assert_eq!(q.pop(tx).await?, Some(5));
            assert!(q.is_empty(tx).await?);
            q.push(tx, alloc, 6).await?;
            assert_eq!(q.pop(tx).await?, Some(6));
            Ok(())
        });
    }
}
