//! Chained transactional hash table (STAMP `lib/hashtable.c`): genome's
//! segment dedup set and vacation-style lookup tables.
//!
//! Fixed bucket array allocated at setup; each bucket is a sorted
//! [`List`]. Concurrent transactions conflict only when they touch the
//! same bucket (or the same chain nodes) — the same conflict profile as
//! the original.

use crate::alloc::TmAlloc;
use crate::list::List;
use lockiller::flatmem::SetupCtx;
use lockiller::guest::{Abort, TxCtx};
use sim_core::fxhash::hash_u64;
use sim_core::types::Addr;

/// Handle to a transactional hash table.
#[derive(Clone, Copy, Debug)]
pub struct HashTable {
    buckets: Addr,
    nbuckets: u64,
}

impl HashTable {
    /// Allocate with `nbuckets` chains (power of two).
    pub fn setup(s: &mut SetupCtx, nbuckets: u64) -> HashTable {
        assert!(nbuckets.is_power_of_two());
        let buckets = s.alloc(nbuckets);
        for b in 0..nbuckets {
            s.write(buckets.add(b), 0);
        }
        HashTable { buckets, nbuckets }
    }

    fn bucket(&self, key: u64) -> List {
        let b = hash_u64(key) & (self.nbuckets - 1);
        List::at(self.buckets.add(b))
    }

    /// Insert during untimed setup.
    pub fn setup_insert(&self, s: &mut SetupCtx, key: u64, data: u64) -> bool {
        // Setup-time chains reuse the list layout via direct writes.
        let b = hash_u64(key) & (self.nbuckets - 1);
        let head = self.buckets.add(b);
        // Walk for duplicate + find insert position (sorted).
        let mut prev: Option<Addr> = None;
        let mut cur = s.read(head);
        while cur != 0 {
            let k = s.read(Addr(cur));
            if k == key {
                return false;
            }
            if k > key {
                break;
            }
            prev = Some(Addr(cur));
            cur = s.read(Addr(cur).add(2));
        }
        let node = s.alloc(3);
        s.write(node, key);
        s.write(node.add(1), data);
        s.write(node.add(2), cur);
        match prev {
            None => s.write(head, node.0),
            Some(p) => s.write(p.add(2), node.0),
        }
        true
    }

    /// Insert; false if the key is already present.
    pub async fn insert(
        &self,
        tx: &mut TxCtx,
        alloc: &TmAlloc,
        key: u64,
        data: u64,
    ) -> Result<bool, Abort> {
        self.bucket(key).insert(tx, alloc, key, data).await
    }

    pub async fn find(&self, tx: &mut TxCtx, key: u64) -> Result<Option<u64>, Abort> {
        self.bucket(key).find(tx, key).await
    }

    pub async fn remove(&self, tx: &mut TxCtx, key: u64) -> Result<Option<u64>, Abort> {
        self.bucket(key).remove(tx, key).await
    }

    pub async fn update(&self, tx: &mut TxCtx, key: u64, data: u64) -> Result<bool, Abort> {
        self.bucket(key).update(tx, key, data).await
    }

    pub async fn contains(&self, tx: &mut TxCtx, key: u64) -> Result<bool, Abort> {
        Ok(self.find(tx, key).await?.is_some())
    }

    /// Total entries (O(buckets + entries); used in validation phases).
    pub async fn len(&self, tx: &mut TxCtx) -> Result<u64, Abort> {
        let mut n = 0;
        for b in 0..self.nbuckets {
            n += List::at(self.buckets.add(b)).len(tx).await?;
        }
        Ok(n)
    }

    /// Untimed whole-table read for validation oracles.
    pub fn snapshot(&self, mem: &lockiller::flatmem::FlatMem) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for b in 0..self.nbuckets {
            let mut cur = mem.read(self.buckets.add(b));
            while cur != 0 {
                out.push((mem.read(Addr(cur)), mem.read(Addr(cur).add(1))));
                cur = mem.read(Addr(cur).add(2));
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_tx;
    use std::sync::Mutex;

    fn with_table(body: impl AsyncFn(&mut TxCtx, &HashTable, &TmAlloc) -> Result<(), Abort>) {
        let handles: Mutex<Option<(HashTable, TmAlloc)>> = Mutex::new(None);
        run_tx(
            |s| {
                let alloc = TmAlloc::setup(s, 1, 1 << 17);
                let t = HashTable::setup(s, 16);
                *handles.lock().unwrap() = Some((t, alloc));
            },
            async |tx| {
                let (t, alloc) = handles.lock().unwrap().unwrap();
                body(tx, &t, &alloc).await
            },
        );
    }

    #[test]
    fn insert_find_remove_across_buckets() {
        with_table(async |tx, t, alloc| {
            for k in 0..100u64 {
                assert!(t.insert(tx, alloc, k * 7, k).await?);
            }
            assert_eq!(t.len(tx).await?, 100);
            for k in 0..100u64 {
                assert_eq!(t.find(tx, k * 7).await?, Some(k), "key {}", k * 7);
            }
            assert_eq!(t.find(tx, 1).await?, None);
            assert_eq!(t.remove(tx, 7).await?, Some(1));
            assert_eq!(t.remove(tx, 7).await?, None);
            assert_eq!(t.len(tx).await?, 99);
            Ok(())
        });
    }

    #[test]
    fn duplicate_insert_rejected() {
        with_table(async |tx, t, alloc| {
            assert!(t.insert(tx, alloc, 42, 1).await?);
            assert!(!t.insert(tx, alloc, 42, 2).await?);
            assert_eq!(t.find(tx, 42).await?, Some(1));
            Ok(())
        });
    }

    #[test]
    fn setup_insert_matches_tx_view() {
        let handles: Mutex<Option<HashTable>> = Mutex::new(None);
        run_tx(
            |s| {
                let t = HashTable::setup(s, 8);
                assert!(t.setup_insert(s, 10, 100));
                assert!(t.setup_insert(s, 18, 180)); // same bucket candidates
                assert!(!t.setup_insert(s, 10, 999));
                *handles.lock().unwrap() = Some(t);
            },
            async |tx| {
                let t = handles.lock().unwrap().unwrap();
                assert_eq!(t.find(tx, 10).await?, Some(100));
                assert_eq!(t.find(tx, 18).await?, Some(180));
                assert_eq!(t.len(tx).await?, 2);
                Ok(())
            },
        );
    }
}
