//! Transactional ordered map.
//!
//! STAMP's vacation and intruder use red-black trees; we implement a
//! **treap** (randomized BST with deterministic per-key priorities derived
//! from a hash of the key). The conflict profile matches the rbtree's:
//! lookups and updates walk a root-biased path of O(log n) nodes, so
//! concurrent transactions conflict near the root exactly as they do on
//! STAMP's rbtree — which is what the paper's contention behaviour depends
//! on. Rotations are local, like rbtree recolor/rotate fixups.
//!
//! Node layout: `[key, value, prio, left, right]`.

use crate::alloc::TmAlloc;
use lockiller::flatmem::SetupCtx;
use lockiller::guest::{Abort, TxCtx};
use sim_core::fxhash::hash_u64;
use sim_core::types::Addr;

const KEY: u64 = 0;
const VAL: u64 = 1;
const PRI: u64 = 2;
const LEFT: u64 = 3;
const RIGHT: u64 = 4;
const NODE_WORDS: u64 = 5;

/// Deterministic heap priority for a key (independent of insertion order,
/// so the tree shape is identical across systems and runs).
fn tree_prio(key: u64) -> u64 {
    hash_u64(key ^ 0x7f4a_7c15_9e37_79b9)
}

/// Handle to a transactional ordered map (unique keys).
#[derive(Clone, Copy, Debug)]
pub struct TMap {
    /// Root pointer cell.
    root: Addr,
}

impl TMap {
    pub fn setup(s: &mut SetupCtx) -> TMap {
        let root = s.alloc(8);
        s.write(root, 0);
        TMap { root }
    }

    /// Seed during untimed setup.
    pub fn setup_insert(&self, s: &mut SetupCtx, key: u64, value: u64) -> bool {
        // Build via the same structural algorithm, operating directly.
        let node = s.alloc(NODE_WORDS);
        s.write(node.add(KEY), key);
        s.write(node.add(VAL), value);
        s.write(node.add(PRI), tree_prio(key));
        s.write(node.add(LEFT), 0);
        s.write(node.add(RIGHT), 0);
        let root = s.read(self.root);
        match Self::setup_insert_rec(s, root, node) {
            Some(new_root) => {
                s.write(self.root, new_root);
                true
            }
            None => false,
        }
    }

    fn setup_insert_rec(s: &mut SetupCtx, cur: u64, node: Addr) -> Option<u64> {
        if cur == 0 {
            return Some(node.0);
        }
        let c = Addr(cur);
        let ck = s.read(c.add(KEY));
        let nk = s.read(node.add(KEY));
        if nk == ck {
            return None;
        }
        let dir = if nk < ck { LEFT } else { RIGHT };
        let child = s.read(c.add(dir));
        let new_child = Self::setup_insert_rec(s, child, node)?;
        s.write(c.add(dir), new_child);
        // Rotate if heap property violated.
        let nc = Addr(new_child);
        if s.read(nc.add(PRI)) > s.read(c.add(PRI)) {
            // Rotate nc above c.
            let (take, give) = if dir == LEFT {
                (RIGHT, LEFT)
            } else {
                (LEFT, RIGHT)
            };
            let moved = s.read(nc.add(take));
            s.write(c.add(give), moved);
            s.write(nc.add(take), cur);
            Some(new_child)
        } else {
            Some(cur)
        }
    }

    pub async fn find(&self, tx: &mut TxCtx, key: u64) -> Result<Option<u64>, Abort> {
        let mut cur = tx.load(self.root).await?;
        while cur != 0 {
            let c = Addr(cur);
            let k = tx.load(c.add(KEY)).await?;
            if k == key {
                return Ok(Some(tx.load(c.add(VAL)).await?));
            }
            cur = tx.load(c.add(if key < k { LEFT } else { RIGHT })).await?;
        }
        Ok(None)
    }

    pub async fn contains(&self, tx: &mut TxCtx, key: u64) -> Result<bool, Abort> {
        Ok(self.find(tx, key).await?.is_some())
    }

    /// Update the value of an existing key; false if absent.
    pub async fn update(&self, tx: &mut TxCtx, key: u64, value: u64) -> Result<bool, Abort> {
        let mut cur = tx.load(self.root).await?;
        while cur != 0 {
            let c = Addr(cur);
            let k = tx.load(c.add(KEY)).await?;
            if k == key {
                tx.store(c.add(VAL), value).await?;
                return Ok(true);
            }
            cur = tx.load(c.add(if key < k { LEFT } else { RIGHT })).await?;
        }
        Ok(false)
    }

    /// Insert; false if the key already exists.
    pub async fn insert(
        &self,
        tx: &mut TxCtx,
        alloc: &TmAlloc,
        key: u64,
        value: u64,
    ) -> Result<bool, Abort> {
        // Descend recording the path (cell that points at each node).
        let mut path: Vec<(Addr, u64)> = Vec::new(); // (node, dir taken)
        let mut cur = tx.load(self.root).await?;
        while cur != 0 {
            let c = Addr(cur);
            let k = tx.load(c.add(KEY)).await?;
            if k == key {
                return Ok(false);
            }
            let dir = if key < k { LEFT } else { RIGHT };
            path.push((c, dir));
            cur = tx.load(c.add(dir)).await?;
        }
        let node = alloc.alloc(tx, NODE_WORDS).await?;
        tx.store(node.add(KEY), key).await?;
        tx.store(node.add(VAL), value).await?;
        let prio = tree_prio(key);
        tx.store(node.add(PRI), prio).await?;
        tx.store(node.add(LEFT), 0).await?;
        tx.store(node.add(RIGHT), 0).await?;
        // Attach.
        match path.last() {
            None => tx.store(self.root, node.0).await?,
            Some((p, dir)) => tx.store(p.add(*dir), node.0).await?,
        }
        // Rotate up while the heap property is violated.
        let child = node;
        while let Some((parent, dir)) = path.pop() {
            let parent_prio = tx.load(parent.add(PRI)).await?;
            if prio <= parent_prio {
                break;
            }
            // Rotate child above parent.
            let (take, give) = if dir == LEFT {
                (RIGHT, LEFT)
            } else {
                (LEFT, RIGHT)
            };
            let moved = tx.load(child.add(take)).await?;
            tx.store(parent.add(dir), moved).await?;
            let _ = give;
            tx.store(child.add(take), parent.0).await?;
            // Reattach child to grandparent.
            match path.last() {
                None => tx.store(self.root, child.0).await?,
                Some((gp, gdir)) => tx.store(gp.add(*gdir), child.0).await?,
            }
        }
        Ok(true)
    }

    /// Remove `key`; returns its value if present. The node is rotated
    /// down to a leaf and unlinked.
    pub async fn remove(&self, tx: &mut TxCtx, key: u64) -> Result<Option<u64>, Abort> {
        // Find the cell pointing at the node.
        let mut cell = self.root;
        let mut cur = tx.load(cell).await?;
        while cur != 0 {
            let c = Addr(cur);
            let k = tx.load(c.add(KEY)).await?;
            if k == key {
                break;
            }
            cell = c.add(if key < k { LEFT } else { RIGHT });
            cur = tx.load(cell).await?;
        }
        if cur == 0 {
            return Ok(None);
        }
        let node = Addr(cur);
        let value = tx.load(node.add(VAL)).await?;
        // Rotate the node down until it has at most one child, then splice.
        loop {
            let l = tx.load(node.add(LEFT)).await?;
            let r = tx.load(node.add(RIGHT)).await?;
            if l == 0 || r == 0 {
                let child = if l != 0 { l } else { r };
                tx.store(cell, child).await?;
                break;
            }
            // Rotate the higher-priority child above the node.
            let (lp, rp) = (
                tx.load(Addr(l).add(PRI)).await?,
                tx.load(Addr(r).add(PRI)).await?,
            );
            if lp > rp {
                // Right-rotate: left child up.
                let lc = Addr(l);
                let moved = tx.load(lc.add(RIGHT)).await?;
                tx.store(node.add(LEFT), moved).await?;
                tx.store(lc.add(RIGHT), node.0).await?;
                tx.store(cell, lc.0).await?;
                cell = lc.add(RIGHT);
            } else {
                // Left-rotate: right child up.
                let rc = Addr(r);
                let moved = tx.load(rc.add(LEFT)).await?;
                tx.store(node.add(RIGHT), moved).await?;
                tx.store(rc.add(LEFT), node.0).await?;
                tx.store(cell, rc.0).await?;
                cell = rc.add(LEFT);
            }
        }
        Ok(Some(value))
    }

    /// Number of entries (walks the whole tree).
    pub async fn len(&self, tx: &mut TxCtx) -> Result<u64, Abort> {
        let mut n = 0;
        let mut stack = vec![tx.load(self.root).await?];
        while let Some(cur) = stack.pop() {
            if cur == 0 {
                continue;
            }
            n += 1;
            let c = Addr(cur);
            stack.push(tx.load(c.add(LEFT)).await?);
            stack.push(tx.load(c.add(RIGHT)).await?);
        }
        Ok(n)
    }

    /// Untimed in-order snapshot for validation oracles.
    pub fn snapshot(&self, mem: &lockiller::flatmem::FlatMem) -> Vec<(u64, u64)> {
        fn walk(mem: &lockiller::flatmem::FlatMem, cur: u64, out: &mut Vec<(u64, u64)>) {
            if cur == 0 {
                return;
            }
            let c = Addr(cur);
            walk(mem, mem.read(c.add(LEFT)), out);
            out.push((mem.read(c.add(KEY)), mem.read(c.add(VAL))));
            walk(mem, mem.read(c.add(RIGHT)), out);
        }
        let mut out = Vec::new();
        walk(mem, mem.read(self.root), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_tx;
    use std::sync::Mutex;

    fn with_map(
        body: impl AsyncFn(&mut TxCtx, &TMap, &TmAlloc) -> Result<(), Abort>,
    ) -> (TMap, lockiller::flatmem::FlatMem) {
        let handles: Mutex<Option<(TMap, TmAlloc)>> = Mutex::new(None);
        let mem = run_tx(
            |s| {
                let alloc = TmAlloc::setup(s, 1, 1 << 18);
                let m = TMap::setup(s);
                *handles.lock().unwrap() = Some((m, alloc));
            },
            async |tx| {
                let (m, alloc) = handles.lock().unwrap().unwrap();
                body(tx, &m, &alloc).await
            },
        );
        (handles.into_inner().unwrap().unwrap().0, mem)
    }

    #[test]
    fn insert_find() {
        with_map(async |tx, m, alloc| {
            for k in [50u64, 20, 80, 10, 30, 70, 90] {
                assert!(m.insert(tx, alloc, k, k * 2).await?);
            }
            assert!(!m.insert(tx, alloc, 50, 0).await?);
            for k in [50u64, 20, 80, 10, 30, 70, 90] {
                assert_eq!(m.find(tx, k).await?, Some(k * 2));
            }
            assert_eq!(m.find(tx, 55).await?, None);
            assert_eq!(m.len(tx).await?, 7);
            Ok(())
        });
    }

    #[test]
    fn snapshot_is_sorted_inorder() {
        let (m, mem) = with_map(async |tx, m, alloc| {
            for k in [9u64, 3, 7, 1, 5, 8, 2, 6, 4] {
                m.insert(tx, alloc, k, k).await?;
            }
            Ok(())
        });
        let snap = m.snapshot(&mem);
        let keys: Vec<u64> = snap.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn remove_rebalances() {
        with_map(async |tx, m, alloc| {
            for k in 0..50u64 {
                m.insert(tx, alloc, k * 3, k).await?;
            }
            assert_eq!(m.remove(tx, 21).await?, Some(7));
            assert_eq!(m.remove(tx, 21).await?, None);
            assert_eq!(m.remove(tx, 0).await?, Some(0));
            assert_eq!(m.len(tx).await?, 48);
            // Remaining keys still reachable.
            for k in 1..50u64 {
                if k == 7 {
                    continue;
                }
                assert_eq!(m.find(tx, k * 3).await?, Some(k), "key {}", k * 3);
            }
            Ok(())
        });
    }

    #[test]
    fn update_value() {
        with_map(async |tx, m, alloc| {
            m.insert(tx, alloc, 5, 1).await?;
            assert!(m.update(tx, 5, 42).await?);
            assert!(!m.update(tx, 6, 0).await?);
            assert_eq!(m.find(tx, 5).await?, Some(42));
            Ok(())
        });
    }

    #[test]
    fn setup_insert_agrees_with_tx_view() {
        let handles: Mutex<Option<TMap>> = Mutex::new(None);
        run_tx(
            |s| {
                let m = TMap::setup(s);
                for k in [4u64, 2, 6, 1, 3, 5, 7] {
                    assert!(m.setup_insert(s, k, k * 10));
                }
                assert!(!m.setup_insert(s, 4, 0));
                *handles.lock().unwrap() = Some(m);
            },
            async |tx| {
                let m = handles.lock().unwrap().unwrap();
                for k in 1..=7u64 {
                    assert_eq!(m.find(tx, k).await?, Some(k * 10));
                }
                assert_eq!(m.len(tx).await?, 7);
                Ok(())
            },
        );
    }

    #[test]
    fn mixed_workout_against_std_btree() {
        use std::collections::BTreeMap;
        let mut rng = sim_core::rng::SimRng::new(99);
        let ops: Vec<(u8, u64)> = (0..300)
            .map(|_| ((rng.below(3)) as u8, rng.below(60)))
            .collect();
        let (m, mem) = with_map(async |tx, m, alloc| {
            for &(op, k) in &ops {
                match op {
                    0 => {
                        m.insert(tx, alloc, k, k + 1000).await?;
                    }
                    1 => {
                        m.remove(tx, k).await?;
                    }
                    _ => {
                        m.find(tx, k).await?;
                    }
                }
            }
            Ok(())
        });
        let mut oracle = BTreeMap::new();
        for &(op, k) in &ops {
            match op {
                0 => {
                    oracle.entry(k).or_insert(k + 1000);
                }
                1 => {
                    oracle.remove(&k);
                }
                _ => {}
            }
        }
        let want: Vec<(u64, u64)> = oracle.into_iter().collect();
        assert_eq!(m.snapshot(&mem), want);
    }
}
