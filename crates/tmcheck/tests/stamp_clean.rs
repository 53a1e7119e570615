//! Checked-mode integration matrix: every STAMP workload, on the
//! four-system ladder (no recovery → recovery → +HTMLock → +switching),
//! must produce a serializable trace with every protocol invariant
//! intact, and a valid memory image. One test per system so the matrix
//! runs in parallel.

use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::Program;
use lockiller::system::SystemKind;
use sim_core::types::Addr;
use stamp::{Scale, Workload, WorkloadKind};
use tmcheck::harness::{checked_config, run_checked};

fn check_all_workloads(kind: SystemKind) {
    const THREADS: usize = 2;
    for wk in WorkloadKind::ALL {
        let mut prog = Workload::with_scale(wk, THREADS, Scale::Tiny);
        let run = run_checked(kind, THREADS, checked_config(THREADS), 0xC0FFEE, &mut prog);
        assert!(
            run.report.is_clean(),
            "{} on {}: {}",
            wk.name(),
            kind.name(),
            run.report.render()
        );
        assert!(
            run.validation.is_ok(),
            "{} on {}: {:?}",
            wk.name(),
            kind.name(),
            run.validation
        );
        assert!(
            run.report.committed_txns > 0,
            "{} traced no transactions",
            wk.name()
        );
    }
}

#[test]
fn stamp_clean_on_baseline() {
    check_all_workloads(SystemKind::Baseline);
}

#[test]
fn stamp_clean_on_lockiller_rwi() {
    check_all_workloads(SystemKind::LockillerRwi);
}

#[test]
fn stamp_clean_on_lockiller_rwil() {
    check_all_workloads(SystemKind::LockillerRwil);
}

#[test]
fn stamp_clean_on_lockiller_tm() {
    check_all_workloads(SystemKind::LockillerTm);
}

// ---------------- engine-behaviour scenarios under the checkers --------

/// Counter with a compute window inside the critical section — the
/// highest-contention shape the engine tests use.
struct Counter {
    per_thread: u64,
    threads: usize,
    addr: Addr,
}

impl Program for Counter {
    fn name(&self) -> &str {
        "counter"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        self.threads = threads;
        self.addr = s.alloc(8);
    }

    async fn run(&self, ctx: &mut GuestCtx) {
        let addr = self.addr;
        for _ in 0..self.per_thread {
            ctx.critical(async |tx| {
                let v = tx.load(addr).await?;
                tx.compute(25).await?;
                tx.store(addr, v + 1).await?;
                Ok(())
            })
            .await;
            ctx.compute(15).await;
        }
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let got = mem.read(self.addr);
        let want = self.per_thread * self.threads as u64;
        if got == want {
            Ok(())
        } else {
            Err(format!("counter {got} != {want}"))
        }
    }
}

/// High contention on every Table-II system: all nine must stay clean
/// under the checkers (liveness applies only where wake-ups exist).
#[test]
fn contended_counter_clean_on_all_systems() {
    for kind in SystemKind::ALL {
        let mut prog = Counter {
            per_thread: 30,
            threads: 0,
            addr: Addr::NULL,
        };
        let run = run_checked(kind, 4, checked_config(4), 7, &mut prog);
        assert!(
            run.is_clean(),
            "counter on {}: {}",
            kind.name(),
            run.report.render()
        );
    }
}

/// With a zero retry budget every critical section takes the lock path:
/// the occupancy checker sees a pure lock-transaction trace.
#[test]
fn lock_only_execution_clean() {
    use lockiller::runner::Runner;
    use sim_core::config::RejectAction;
    for kind in [
        SystemKind::Cgl,
        SystemKind::Baseline,
        SystemKind::LockillerTm,
    ] {
        let mut cfg = checked_config(4);
        cfg.check.enabled = true;
        let mut prog = Counter {
            per_thread: 15,
            threads: 0,
            addr: Addr::NULL,
        };
        let runner = Runner::new(kind).threads(4).retries(0).config(cfg);
        let mut out = runner.tracing().no_validate().run(&mut prog);
        let trace = out.take_trace_events();
        let (stats, mem) = (out.stats, out.mem);
        let opts = tmcheck::CheckOpts {
            wait_wakeup: kind.policy().reject_action == RejectAction::WaitWakeup,
        };
        let report = tmcheck::check_trace(&trace, opts);
        assert!(report.is_clean(), "{}: {}", kind.name(), report.render());
        assert!(stats.swmr_violation.is_none());
        assert!(prog.validate(&mem).is_ok());
        assert!(report.committed_txns > 0);
    }
}
