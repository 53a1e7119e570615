//! Property-based serializability testing of the full stack: random
//! multi-threaded guest programs built from commutative critical sections
//! whose final memory state is computable independent of interleaving.
//! Every Table-II system must produce exactly that state.
//!
//! This is the strongest end-to-end oracle in the suite: any isolation
//! bug anywhere (coherence protocol, recovery/NACK path, HTMLock
//! signatures, switchingMode, value layer) shows up as a wrong counter.

use lockillertm::lockiller::flatmem::{FlatMem, SetupCtx};
use lockillertm::lockiller::guest::GuestCtx;
use lockillertm::lockiller::{Program, Runner, SystemKind};
use lockillertm::sim_core::config::SystemConfig;
use lockillertm::sim_core::types::Addr;
use proptest::prelude::*;

/// One critical section: add `delta` to `cells` (a multiset of cell
/// indices), with `work` compute cycles inside.
#[derive(Clone, Debug)]
struct Crit {
    cells: Vec<u8>,
    delta: u64,
    work: u8,
}

#[derive(Clone, Debug)]
struct RandomProgram {
    ncells: u64,
    /// Per-thread script of critical sections.
    scripts: Vec<Vec<Crit>>,
    base: Addr,
}

impl Program for RandomProgram {
    fn name(&self) -> &str {
        "random-commutative"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        assert_eq!(threads, self.scripts.len());
        self.base = s.alloc(self.ncells * 8);
        for c in 0..self.ncells {
            s.write(self.base.add(c * 8), 0);
        }
    }

    async fn run(&self, ctx: &mut GuestCtx) {
        for crit in &self.scripts[ctx.tid] {
            let base = self.base;
            let ncells = self.ncells;
            ctx.critical(async |tx| {
                for &c in &crit.cells {
                    let a = base.add((c as u64 % ncells) * 8);
                    let v = tx.load(a).await?;
                    tx.compute(crit.work as u64).await?;
                    tx.store(a, v + crit.delta).await?;
                }
                Ok(())
            })
            .await;
            ctx.compute(10).await;
        }
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        // Addition commutes: expected value per cell is the sum of deltas
        // over every script touching it, regardless of interleaving.
        let mut want = vec![0u64; self.ncells as usize];
        for script in &self.scripts {
            for crit in script {
                for &c in &crit.cells {
                    want[(c as u64 % self.ncells) as usize] += crit.delta;
                }
            }
        }
        for (c, &w) in want.iter().enumerate() {
            let got = mem.read(self.base.add(c as u64 * 8));
            if got != w {
                return Err(format!("cell {c}: {got} != {w}"));
            }
        }
        Ok(())
    }
}

fn crit_strategy() -> impl Strategy<Value = Crit> {
    (prop::collection::vec(0u8..6, 1..4), 1u64..10, 0u8..30).prop_map(|(cells, delta, work)| Crit {
        cells,
        delta,
        work,
    })
}

fn program_strategy(threads: usize) -> impl Strategy<Value = RandomProgram> {
    prop::collection::vec(prop::collection::vec(crit_strategy(), 1..12), threads).prop_map(
        |scripts| RandomProgram {
            ncells: 6,
            scripts,
            base: Addr::NULL,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn baseline_serializable(prog in program_strategy(3)) {
        let mut p = prog;
        let _ = Runner::new(SystemKind::Baseline).threads(3).config(SystemConfig::testing(3)).run(&mut p);
    }

    #[test]
    fn rwi_serializable(prog in program_strategy(3)) {
        let mut p = prog;
        let _ = Runner::new(SystemKind::LockillerRwi).threads(3).config(SystemConfig::testing(3)).run(&mut p);
    }

    #[test]
    fn full_lockillertm_serializable(prog in program_strategy(3)) {
        let mut p = prog;
        let _ = Runner::new(SystemKind::LockillerTm).threads(3).config(SystemConfig::testing(3)).run(&mut p);
    }

    #[test]
    fn full_lockillertm_tiny_l1_serializable(prog in program_strategy(3)) {
        // A 8-line L1 forces the overflow/switching machinery into play
        // on these multi-cell transactions.
        let mut cfg = SystemConfig::testing(3);
        cfg.mem.l1 = lockillertm::sim_core::config::CacheGeometry { sets: 4, ways: 2 };
        let mut p = prog;
        let _ = Runner::new(SystemKind::LockillerTm).threads(3).config(cfg).run(&mut p);
    }

    #[test]
    fn losatm_serializable(prog in program_strategy(2)) {
        let mut p = prog;
        let _ = Runner::new(SystemKind::LosaTmSafu).threads(2).config(SystemConfig::testing(2)).run(&mut p);
    }
}
