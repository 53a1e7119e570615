//! Diagnostic matrix: run a contended shared-counter program on every
//! Table-II system and several thread counts, printing commit/abort/
//! reject statistics. Doubles as a liveness smoke test (set
//! `LOCKILLER_MAX_CYCLES=...` to turn hangs into diagnosable panics
//! with a full engine state dump).

use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::Program;
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use sim_core::config::SystemConfig;
use sim_core::types::Addr;

struct C {
    addr: Addr,
    n: u64,
    threads: u64,
}

impl Program for C {
    fn name(&self) -> &str {
        "counter"
    }
    fn setup(&mut self, s: &mut SetupCtx, _t: usize) {
        self.addr = s.alloc(8);
    }
    async fn run(&self, ctx: &mut GuestCtx) {
        let addr = self.addr;
        for _ in 0..self.n {
            ctx.critical(async |tx| {
                let v = tx.load(addr).await?;
                tx.compute(20).await?;
                tx.store(addr, v + 1).await?;
                Ok(())
            })
            .await;
            ctx.compute(30).await;
        }
    }
    fn validate(&self, m: &FlatMem) -> Result<(), String> {
        let got = m.read(self.addr);
        let want = self.n * self.threads;
        if got == want {
            Ok(())
        } else {
            Err(format!("got {got}, want {want}"))
        }
    }
}

fn main() {
    for kind in SystemKind::ALL {
        for threads in [1usize, 2, 4] {
            eprintln!(">>> {} t={threads}", kind.name());
            let mut p = C {
                addr: Addr::NULL,
                n: 25,
                threads: threads as u64,
            };
            let s = Runner::new(kind)
                .threads(threads)
                .config(SystemConfig::testing(threads.max(2)))
                .run(&mut p)
                .stats;
            println!(
                "{} t={threads} cycles={} commits={} lock={} aborts={} rejects={} timeouts={}",
                kind.name(),
                s.cycles,
                s.commits,
                s.lock_commits,
                s.total_aborts(),
                s.rejects,
                s.wakeup_timeouts
            );
        }
    }
}
