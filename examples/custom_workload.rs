//! Writing your own guest program against the public API: a concurrent
//! bank with transactional transfers, demonstrating the `Program` trait,
//! the async guest style, and the post-run validation oracle.
//!
//! `Program::run` is an `async fn`: every guest operation is a method on
//! `GuestCtx` (outside critical sections) or `TxCtx` (inside) that you
//! `.await`. The runner polls one such future per simulated thread,
//! in-process and in lockstep with the engine, so the body is plain
//! sequential Rust with no threads or locks of its own. A critical
//! section is an async closure: an abort comes back as `Err` from a
//! `TxCtx` op, `?` unwinds the body, and `critical` re-runs it or falls
//! back to the lock (Listings 1 and 2 of the paper). Keep shared state
//! in simulated memory, and re-derive host locals inside the closure.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use lockillertm::lockiller::flatmem::{FlatMem, SetupCtx};
use lockillertm::lockiller::guest::GuestCtx;
use lockillertm::lockiller::{Program, Runner, SystemKind};
use lockillertm::sim_core::config::SystemConfig;
use lockillertm::sim_core::types::Addr;

/// N accounts; each thread performs random transfers between accounts.
/// Total balance is invariant — the serializability oracle.
struct Bank {
    accounts: u64,
    transfers_per_thread: u64,
    initial_balance: u64,
    base: Addr,
    threads: u64,
}

impl Program for Bank {
    fn name(&self) -> &str {
        "bank"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        self.threads = threads as u64;
        self.base = s.alloc(self.accounts * 8); // one line per account
        for a in 0..self.accounts {
            s.write(self.base.add(a * 8), self.initial_balance);
        }
    }

    async fn run(&self, ctx: &mut GuestCtx) {
        for _ in 0..self.transfers_per_thread {
            let from = ctx.rng.below(self.accounts);
            let mut to = ctx.rng.below(self.accounts);
            if to == from {
                to = (to + 1) % self.accounts;
            }
            let amount = 1 + ctx.rng.below(10);
            let (fa, ta) = (self.base.add(from * 8), self.base.add(to * 8));
            // May run several times: once per speculative attempt, then
            // once more under the lock if every attempt aborts.
            ctx.critical(async |tx| {
                let f = tx.load(fa).await?;
                if f >= amount {
                    tx.store(fa, f - amount).await?;
                    let t = tx.load(ta).await?;
                    tx.store(ta, t + amount).await?;
                }
                tx.compute(15).await?; // fee computation, logging, ...
                Ok(())
            })
            .await;
            ctx.compute(25).await;
        }
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let total: u64 = (0..self.accounts)
            .map(|a| mem.read(self.base.add(a * 8)))
            .sum();
        let want = self.accounts * self.initial_balance;
        if total == want {
            Ok(())
        } else {
            Err(format!("money {total} != {want} — a transfer tore"))
        }
    }
}

fn main() {
    println!("concurrent bank: 8 accounts, 4 threads, random transfers\n");
    for kind in SystemKind::ALL {
        let mut bank = Bank {
            accounts: 8,
            transfers_per_thread: 50,
            initial_balance: 1000,
            base: Addr::NULL,
            threads: 0,
        };
        let stats = Runner::new(kind)
            .threads(4)
            .config(SystemConfig::table1())
            .run(&mut bank)
            .stats; // panics if validation fails
        println!(
            "{:<18} cycles={:>8}  commits={:>4}  aborts={:>4}  balance conserved ✓",
            kind.name(),
            stats.cycles,
            stats.commits + stats.lock_commits,
            stats.total_aborts()
        );
    }
}
