//! Property tests: transactional data structures against std oracles,
//! executed through the real simulator TxCtx path (single core).

use lockiller::flatmem::SetupCtx;
use lockiller::guest::{Abort, GuestCtx, TxCtx};
use lockiller::program::Program;
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use proptest::prelude::*;
use sim_core::config::SystemConfig;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use tmlib::{Heap, List, Queue, TMap, TmAlloc};

/// Run a closure as one transaction on a 1-core simulated system.
fn run_tx(setup: impl FnMut(&mut SetupCtx), body: impl AsyncFn(&mut TxCtx) -> Result<(), Abort>) {
    struct P<S, F> {
        setup_fn: S,
        body: F,
    }
    impl<S, F> Program for P<S, F>
    where
        S: FnMut(&mut SetupCtx),
        F: AsyncFn(&mut TxCtx) -> Result<(), Abort>,
    {
        fn name(&self) -> &str {
            "prop"
        }
        fn setup(&mut self, s: &mut SetupCtx, _t: usize) {
            (self.setup_fn)(s);
        }
        async fn run(&self, ctx: &mut GuestCtx) {
            ctx.critical(async |tx| (self.body)(tx).await).await;
        }
    }
    let mut prog = P {
        setup_fn: setup,
        body,
    };
    let _ = Runner::new(SystemKind::LockillerTm)
        .threads(1)
        .config(SystemConfig::testing(2))
        .run(&mut prog);
}

#[derive(Clone, Debug)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Find(u64),
    Update(u64, u64),
}

fn map_op_strategy() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (0u64..50, any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (0u64..50).prop_map(MapOp::Remove),
        (0u64..50).prop_map(MapOp::Find),
        (0u64..50, any::<u64>()).prop_map(|(k, v)| MapOp::Update(k, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tmap_matches_btreemap(ops in prop::collection::vec(map_op_strategy(), 1..120)) {
        let handles: Mutex<Option<(TMap, TmAlloc)>> = Mutex::new(None);
        let results: Mutex<Vec<Option<u64>>> = Mutex::new(Vec::new());
        let ops2 = ops.clone();
        run_tx(
            |s| {
                let alloc = TmAlloc::setup(s, 1, 1 << 18);
                let m = TMap::setup(s);
                *handles.lock().unwrap() = Some((m, alloc));
            },
            async |tx| {
                let (m, alloc) = handles.lock().unwrap().unwrap();
                let mut out = Vec::new();
                for op in &ops2 {
                    match *op {
                        MapOp::Insert(k, v) => {
                            out.push(Some(m.insert(tx, &alloc, k, v).await? as u64));
                        }
                        MapOp::Remove(k) => out.push(m.remove(tx, k).await?),
                        MapOp::Find(k) => out.push(m.find(tx, k).await?),
                        MapOp::Update(k, v) => {
                            out.push(Some(m.update(tx, k, v).await? as u64));
                        }
                    }
                }
                *results.lock().unwrap() = out;
                Ok(())
            },
        );
        // Oracle.
        let mut oracle = BTreeMap::new();
        let mut want = Vec::new();
        for op in &ops {
            match *op {
                MapOp::Insert(k, v) => {
                    let fresh = !oracle.contains_key(&k);
                    if fresh {
                        oracle.insert(k, v);
                    }
                    want.push(Some(fresh as u64));
                }
                MapOp::Remove(k) => want.push(oracle.remove(&k)),
                MapOp::Find(k) => want.push(oracle.get(&k).copied()),
                MapOp::Update(k, v) => {
                    let hit = oracle.contains_key(&k);
                    if hit {
                        oracle.insert(k, v);
                    }
                    want.push(Some(hit as u64));
                }
            }
        }
        prop_assert_eq!(results.into_inner().unwrap(), want);
    }

    #[test]
    fn queue_matches_vecdeque(ops in prop::collection::vec(any::<Option<u16>>(), 1..100)) {
        let handles: Mutex<Option<(Queue, TmAlloc)>> = Mutex::new(None);
        let results: Mutex<Vec<Option<u64>>> = Mutex::new(Vec::new());
        let ops2 = ops.clone();
        run_tx(
            |s| {
                let alloc = TmAlloc::setup(s, 1, 1 << 16);
                let q = Queue::setup(s);
                *handles.lock().unwrap() = Some((q, alloc));
            },
            async |tx| {
                let (q, alloc) = handles.lock().unwrap().unwrap();
                let mut out = Vec::new();
                for op in &ops2 {
                    match op {
                        Some(v) => {
                            q.push(tx, &alloc, *v as u64).await?;
                        }
                        None => out.push(q.pop(tx).await?),
                    }
                }
                *results.lock().unwrap() = out;
                Ok(())
            },
        );
        let mut oracle: VecDeque<u64> = VecDeque::new();
        let mut want = Vec::new();
        for op in &ops {
            match op {
                Some(v) => oracle.push_back(*v as u64),
                None => want.push(oracle.pop_front()),
            }
        }
        prop_assert_eq!(results.into_inner().unwrap(), want);
    }

    #[test]
    fn heap_pops_sorted(values in prop::collection::vec(any::<u32>(), 1..80)) {
        let handles: Mutex<Option<Heap>> = Mutex::new(None);
        let results: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let vals = values.clone();
        run_tx(
            |s| {
                *handles.lock().unwrap() = Some(Heap::setup(s, 128));
            },
            async |tx| {
                let h = handles.lock().unwrap().unwrap();
                for &v in &vals {
                    h.push(tx, v as u64).await?;
                }
                let mut out = Vec::new();
                while let Some(v) = h.pop(tx).await? {
                    out.push(v);
                }
                *results.lock().unwrap() = out;
                Ok(())
            },
        );
        let mut want: Vec<u64> = values.iter().map(|&v| v as u64).collect();
        want.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(results.into_inner().unwrap(), want);
    }

    #[test]
    fn list_is_a_sorted_set(keys in prop::collection::vec(0u64..64, 1..60)) {
        let handles: Mutex<Option<(List, TmAlloc)>> = Mutex::new(None);
        let results: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
        let keys2 = keys.clone();
        run_tx(
            |s| {
                let alloc = TmAlloc::setup(s, 1, 1 << 16);
                let l = List::setup(s);
                *handles.lock().unwrap() = Some((l, alloc));
            },
            async |tx| {
                let (l, alloc) = handles.lock().unwrap().unwrap();
                for &k in &keys2 {
                    l.insert(tx, &alloc, k, k * 2).await?;
                }
                *results.lock().unwrap() = l.to_vec(tx).await?;
                Ok(())
            },
        );
        let mut want: Vec<u64> = keys.clone();
        want.sort_unstable();
        want.dedup();
        let got = results.into_inner().unwrap();
        prop_assert_eq!(got.iter().map(|(k, _)| *k).collect::<Vec<_>>(), want);
        prop_assert!(got.iter().all(|(k, v)| *v == k * 2));
    }
}
