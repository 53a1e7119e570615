//! Transactional binary max-heap (STAMP `lib/heap.c`): yada's work queue
//! of bad triangles.
//!
//! Fixed-capacity array heap. Layout: `[len, cap, elem0, elem1, ...]`.
//! Every push/pop touches the `len` word, so concurrent users serialize on
//! the header line — exactly the hotspot STAMP's heap exhibits.

use lockiller::flatmem::SetupCtx;
use lockiller::guest::{Abort, TxCtx};
use sim_core::types::Addr;

const LEN: u64 = 0;
const CAP: u64 = 1;
const ELEMS: u64 = 2;

/// Handle to a transactional binary max-heap of u64 values.
#[derive(Clone, Copy, Debug)]
pub struct Heap {
    base: Addr,
}

impl Heap {
    pub fn setup(s: &mut SetupCtx, capacity: u64) -> Heap {
        let base = s.alloc(ELEMS + capacity);
        s.write(base.add(LEN), 0);
        s.write(base.add(CAP), capacity);
        Heap { base }
    }

    /// Seed during untimed setup.
    pub fn setup_push(&self, s: &mut SetupCtx, value: u64) {
        let len = s.read(self.base.add(LEN));
        let cap = s.read(self.base.add(CAP));
        assert!(len < cap, "heap overflow in setup");
        s.write(self.base.add(ELEMS + len), value);
        s.write(self.base.add(LEN), len + 1);
        // Sift up.
        let mut i = len;
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = s.read(self.base.add(ELEMS + parent));
            let cv = s.read(self.base.add(ELEMS + i));
            if cv <= pv {
                break;
            }
            s.write(self.base.add(ELEMS + parent), cv);
            s.write(self.base.add(ELEMS + i), pv);
            i = parent;
        }
    }

    pub async fn push(&self, tx: &mut TxCtx, value: u64) -> Result<(), Abort> {
        let len = tx.load(self.base.add(LEN)).await?;
        let cap = tx.load(self.base.add(CAP)).await?;
        assert!(len < cap, "heap overflow");
        tx.store(self.base.add(ELEMS + len), value).await?;
        tx.store(self.base.add(LEN), len + 1).await?;
        let mut i = len;
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = tx.load(self.base.add(ELEMS + parent)).await?;
            let cv = tx.load(self.base.add(ELEMS + i)).await?;
            if cv <= pv {
                break;
            }
            tx.store(self.base.add(ELEMS + parent), cv).await?;
            tx.store(self.base.add(ELEMS + i), pv).await?;
            i = parent;
        }
        Ok(())
    }

    /// Pop the maximum; `None` when empty.
    pub async fn pop(&self, tx: &mut TxCtx) -> Result<Option<u64>, Abort> {
        let len = tx.load(self.base.add(LEN)).await?;
        if len == 0 {
            return Ok(None);
        }
        let top = tx.load(self.base.add(ELEMS)).await?;
        let last = tx.load(self.base.add(ELEMS + len - 1)).await?;
        tx.store(self.base.add(LEN), len - 1).await?;
        let n = len - 1;
        if n == 0 {
            return Ok(Some(top));
        }
        tx.store(self.base.add(ELEMS), last).await?;
        // Sift down.
        let mut i = 0u64;
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            if l >= n {
                break;
            }
            let mut big = l;
            let mut bv = tx.load(self.base.add(ELEMS + l)).await?;
            if r < n {
                let rv = tx.load(self.base.add(ELEMS + r)).await?;
                if rv > bv {
                    big = r;
                    bv = rv;
                }
            }
            let cv = tx.load(self.base.add(ELEMS + i)).await?;
            if cv >= bv {
                break;
            }
            tx.store(self.base.add(ELEMS + i), bv).await?;
            tx.store(self.base.add(ELEMS + big), cv).await?;
            i = big;
        }
        Ok(Some(top))
    }

    pub async fn len(&self, tx: &mut TxCtx) -> Result<u64, Abort> {
        tx.load(self.base.add(LEN)).await
    }

    pub async fn is_empty(&self, tx: &mut TxCtx) -> Result<bool, Abort> {
        Ok(self.len(tx).await? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_tx;
    use std::sync::Mutex;

    fn with_heap(seed: &'static [u64], body: impl AsyncFn(&mut TxCtx, &Heap) -> Result<(), Abort>) {
        let handles: Mutex<Option<Heap>> = Mutex::new(None);
        let handles = &handles;
        run_tx(
            move |s| {
                let h = Heap::setup(s, 256);
                for &v in seed {
                    h.setup_push(s, v);
                }
                *handles.lock().unwrap() = Some(h);
            },
            async |tx| {
                let h = handles.lock().unwrap().unwrap();
                body(tx, &h).await
            },
        );
    }

    #[test]
    fn pops_in_descending_order() {
        with_heap(&[], async |tx, h| {
            for v in [5u64, 1, 9, 3, 7, 2, 8] {
                h.push(tx, v).await?;
            }
            let mut got = Vec::new();
            while let Some(v) = h.pop(tx).await? {
                got.push(v);
            }
            assert_eq!(got, vec![9, 8, 7, 5, 3, 2, 1]);
            Ok(())
        });
    }

    #[test]
    fn setup_seed_heapifies() {
        with_heap(&[4, 9, 1, 6], async |tx, h| {
            assert_eq!(h.len(tx).await?, 4);
            assert_eq!(h.pop(tx).await?, Some(9));
            assert_eq!(h.pop(tx).await?, Some(6));
            h.push(tx, 100).await?;
            assert_eq!(h.pop(tx).await?, Some(100));
            assert_eq!(h.pop(tx).await?, Some(4));
            assert_eq!(h.pop(tx).await?, Some(1));
            assert_eq!(h.pop(tx).await?, None);
            Ok(())
        });
    }

    #[test]
    fn duplicates_preserved() {
        with_heap(&[], async |tx, h| {
            for v in [3u64, 3, 3, 1] {
                h.push(tx, v).await?;
            }
            assert_eq!(h.pop(tx).await?, Some(3));
            assert_eq!(h.pop(tx).await?, Some(3));
            assert_eq!(h.pop(tx).await?, Some(3));
            assert_eq!(h.pop(tx).await?, Some(1));
            Ok(())
        });
    }
}
