//! Transactional memory allocator with per-thread arenas.
//!
//! Mirrors STAMP's thread-local allocator: each thread bump-allocates from
//! its own arena, so allocation itself causes no inter-thread conflicts.
//! The bump pointer lives in simulated memory: an aborted transaction's
//! allocations are rolled back with everything else. Crossing into a fresh
//! 4 KiB page issues a [`TxCtx::page_touch`], which models the demand-
//! paging faults that abort best-effort HTM transactions in
//! allocation-heavy workloads.

use lockiller::flatmem::{SetupCtx, PAGE_WORDS};
use lockiller::guest::{Abort, TxCtx};
use sim_core::types::Addr;

/// Handle to the arena set; copyable into guest closures.
#[derive(Clone, Copy, Debug)]
pub struct TmAlloc {
    /// Base of the control block: one bump-pointer word per thread
    /// (each on its own cache line to avoid false sharing).
    ctl: Addr,
    /// Base of thread 0's arena.
    arenas: Addr,
    /// Words per thread arena.
    arena_words: u64,
    threads: u64,
}

impl TmAlloc {
    /// Reserve arenas for `threads` threads of `arena_words` words each.
    /// Arena space above the setup-time break is *not* pre-mapped: first
    /// touches fault, as fresh heap pages do.
    pub fn setup(s: &mut SetupCtx, threads: usize, arena_words: u64) -> TmAlloc {
        let threads = threads as u64;
        let ctl = s.alloc(threads * 8);
        let arenas = s.reserve_arena(threads * arena_words);
        for t in 0..threads {
            // Bump pointer starts at the arena base.
            let base = arenas.add(t * arena_words);
            s.write(ctl.add(t * 8), base.0);
        }
        TmAlloc {
            ctl,
            arenas,
            arena_words,
            threads,
        }
    }

    fn bump_addr(&self, tid: usize) -> Addr {
        self.ctl.add(tid as u64 * 8)
    }

    /// Allocate `words` words (line-aligned) from the calling thread's
    /// arena. Fails the enclosing transaction on a demand-paging fault;
    /// panics if the arena is exhausted (a workload sizing bug).
    pub async fn alloc(&self, tx: &mut TxCtx, words: u64) -> Result<Addr, Abort> {
        let tid = tx.tid();
        debug_assert!((tid as u64) < self.threads);
        let bp_addr = self.bump_addr(tid);
        let cur = tx.load(bp_addr).await?;
        let aligned = (cur + 7) & !7;
        let new = aligned + words;
        let arena_base = self.arenas.0 + tid as u64 * self.arena_words;
        assert!(
            new <= arena_base + self.arena_words,
            "thread {tid} arena exhausted ({} words)",
            self.arena_words
        );
        tx.store(bp_addr, new).await?;
        // Demand paging: touch each page the fresh object spans.
        let first_page = aligned / PAGE_WORDS;
        let last_page = (new.max(aligned + 1) - 1) / PAGE_WORDS;
        for p in first_page..=last_page {
            tx.page_touch(p).await?;
        }
        Ok(Addr(aligned))
    }

    /// Allocate and zero-fill (fresh pages are zeroed by the OS; arena
    /// reuse after an aborted transaction may leave stale words, so
    /// structures that rely on zeroed fields use this).
    pub async fn alloc_zeroed(&self, tx: &mut TxCtx, words: u64) -> Result<Addr, Abort> {
        let a = self.alloc(tx, words).await?;
        for i in 0..words {
            tx.store(a.add(i), 0).await?;
        }
        Ok(a)
    }

    /// Words remaining in `tid`'s arena (diagnostics, untimed contexts).
    pub fn arena_words(&self) -> u64 {
        self.arena_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_tx;
    use std::sync::Mutex;

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let handle: Mutex<Option<TmAlloc>> = Mutex::new(None);
        let out: Mutex<Vec<Addr>> = Mutex::new(Vec::new());
        run_tx(
            |s| {
                *handle.lock().unwrap() = Some(TmAlloc::setup(s, 2, 4096));
            },
            async |tx| {
                let a = handle.lock().unwrap().unwrap();
                let mut got = Vec::new();
                for w in [3u64, 8, 1, 16] {
                    got.push(a.alloc(tx, w).await?);
                }
                *out.lock().unwrap() = got;
                Ok(())
            },
        );
        let got = out.into_inner().unwrap();
        assert_eq!(got.len(), 4);
        for w in &got {
            assert_eq!(w.0 % 8, 0, "allocation not line-aligned");
        }
        let mut sorted = got.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "allocations overlap");
        // Ranges must not overlap either: each next base >= prev + size.
        assert!(got[1].0 >= got[0].0 + 3);
    }

    #[test]
    fn zeroed_allocation_is_zero() {
        let handle: Mutex<Option<TmAlloc>> = Mutex::new(None);
        let probe: Mutex<Option<Addr>> = Mutex::new(None);
        let mem = run_tx(
            |s| {
                *handle.lock().unwrap() = Some(TmAlloc::setup(s, 1, 4096));
            },
            async |tx| {
                let a = handle.lock().unwrap().unwrap();
                let p = a.alloc_zeroed(tx, 8).await?;
                tx.store(p.add(7), 9).await?;
                *probe.lock().unwrap() = Some(p);
                Ok(())
            },
        );
        let p = probe.into_inner().unwrap().unwrap();
        for i in 0..7 {
            assert_eq!(mem.read(p.add(i)), 0);
        }
        assert_eq!(mem.read(p.add(7)), 9);
    }
}
