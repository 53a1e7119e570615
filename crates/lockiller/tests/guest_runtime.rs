//! Guest-runtime semantics tests: lock subscription (Listing 1), the
//! ttest dispatch (Listing 2), and the exact interplay of the fallback
//! lock with concurrent transactions — checked through observable
//! statistics on crafted programs — plus how the in-process guest
//! executor ends: a panicking guest, and runs cut short with guests
//! still suspended.

use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::Program;
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use lockiller::{EvDesc, RunEnd, Scheduler};
use sim_core::config::SystemConfig;
use sim_core::stats::AbortCause;
use sim_core::types::{Addr, Cycle};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::thread::{self, ThreadId};

/// Thread 0 occupies the fallback path for a long critical section while
/// thread 1 runs many small transactions on unrelated data.
struct LongLockShortTxs {
    shared_a: Addr,
    shared_b: Addr,
}

impl Program for LongLockShortTxs {
    fn name(&self) -> &str {
        "long-lock-short-txs"
    }

    fn setup(&mut self, s: &mut SetupCtx, _threads: usize) {
        self.shared_a = s.alloc(16 * 8);
        self.shared_b = s.alloc(8);
    }

    async fn run(&self, ctx: &mut GuestCtx) {
        if ctx.tid == 0 {
            // Force the fallback path: this critical touches more lines
            // than the (tiny) L1 holds, so every speculative attempt dies
            // of capacity overflow and the runtime takes the lock.
            let a = self.shared_a;
            for _ in 0..6 {
                ctx.critical(async |tx| {
                    for i in 0..16 {
                        let cell = a.add(i * 8);
                        let v = tx.load(cell).await?;
                        tx.store(cell, v + 1).await?;
                    }
                    tx.compute(200).await?;
                    Ok(())
                })
                .await;
            }
        } else {
            let b = self.shared_b;
            for _ in 0..30 {
                ctx.critical(async |tx| {
                    let v = tx.load(b).await?;
                    tx.compute(10).await?;
                    tx.store(b, v + 1).await?;
                    Ok(())
                })
                .await;
                ctx.compute(20).await;
            }
        }
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        for i in 0..16 {
            if mem.read(self.shared_a.add(i * 8)) != 6 {
                return Err(format!("thread 0 lost increments at line {i}"));
            }
        }
        if mem.read(self.shared_b) != 30 {
            return Err(format!(
                "thread 1 lost increments: {}",
                mem.read(self.shared_b)
            ));
        }
        Ok(())
    }
}

/// Baseline with a zero retry budget: thread 0 always holds the fallback
/// lock, and every one of thread 1's transactions dies on subscription
/// (`mutex` aborts) until the lock frees — HTMLock systems sail through.
#[test]
fn disjoint_data_blocked_by_lock_only_on_baseline() {
    let run = |kind: SystemKind| {
        let mut prog = LongLockShortTxs {
            shared_a: Addr::NULL,
            shared_b: Addr::NULL,
        };
        // L1 of 8 lines: thread 0's 16-line criticals always overflow.
        let mut cfg = SystemConfig::testing(2);
        cfg.mem.l1 = sim_core::config::CacheGeometry { sets: 4, ways: 2 };
        Runner::new(kind)
            .threads(2)
            .config(cfg)
            .run(&mut prog)
            .stats
    };
    let base = run(SystemKind::Baseline);
    let rwil = run(SystemKind::LockillerRwil);
    // Baseline: thread 1's transactions die on the subscribed lock even
    // though the data is disjoint.
    assert!(
        base.abort_count(AbortCause::Mutex) > 0,
        "baseline must suffer subscription aborts on disjoint data"
    );
    // HTMLock: no subscription, disjoint data, so the lock transaction
    // coexists with thread 1's HTM transactions.
    assert_eq!(rwil.abort_count(AbortCause::Mutex), 0);
    assert_eq!(
        rwil.abort_count(AbortCause::Lock),
        0,
        "disjoint data: no lock-tx conflicts"
    );
    // HTMLock wastes far less transactional work: thread 1's transactions
    // are no longer collateral damage of thread 0's lock sections. (The
    // wall-clock advantage depends on overlap timing at this tiny scale,
    // so assert on wasted work, the paper's Fig. 9 argument.)
    assert!(
        rwil.total_aborts() < base.total_aborts(),
        "HTMLock must waste fewer transactions ({} vs {})",
        rwil.total_aborts(),
        base.total_aborts()
    );
}

/// A lock transaction touching the same data as HTM transactions aborts
/// or rejects them — `lock`-cause aborts appear only under HTMLock.
#[test]
fn lock_transaction_conflicts_classified() {
    struct SharedAll {
        addr: Addr,
    }
    impl Program for SharedAll {
        fn name(&self) -> &str {
            "shared-all"
        }
        fn setup(&mut self, s: &mut SetupCtx, _t: usize) {
            self.addr = s.alloc(8);
        }
        async fn run(&self, ctx: &mut GuestCtx) {
            let a = self.addr;
            for _ in 0..25 {
                ctx.critical(async |tx| {
                    let v = tx.load(a).await?;
                    tx.compute(40).await?;
                    tx.store(a, v + 1).await?;
                    Ok(())
                })
                .await;
            }
        }
        fn validate(&self, mem: &FlatMem) -> Result<(), String> {
            if mem.read(self.addr) == 100 {
                Ok(())
            } else {
                Err(format!("{} != 100", mem.read(self.addr)))
            }
        }
    }
    let mut prog = SharedAll { addr: Addr::NULL };
    let stats = Runner::new(SystemKind::LockillerRwil)
        .threads(4)
        .config(SystemConfig::testing(4))
        .retries(2)
        .run(&mut prog)
        .stats;
    assert!(
        stats.fallbacks > 0,
        "retries(2) under contention must reach the fallback"
    );
    assert!(
        stats.abort_count(AbortCause::Lock) + stats.rejects > 0,
        "conflicting lock transactions must abort or reject HTM peers"
    );
}

/// The subscription read is what kills baseline transactions: with no
/// lock activity at all (single thread), subscription costs nothing.
#[test]
fn subscription_free_when_lock_idle() {
    struct Solo {
        addr: Addr,
    }
    impl Program for Solo {
        fn name(&self) -> &str {
            "solo"
        }
        fn setup(&mut self, s: &mut SetupCtx, _t: usize) {
            self.addr = s.alloc(8);
        }
        async fn run(&self, ctx: &mut GuestCtx) {
            let a = self.addr;
            for _ in 0..10 {
                ctx.critical(async |tx| {
                    let v = tx.load(a).await?;
                    tx.store(a, v + 1).await?;
                    Ok(())
                })
                .await;
            }
        }
    }
    let mut prog = Solo { addr: Addr::NULL };
    let stats = Runner::new(SystemKind::Baseline)
        .threads(1)
        .config(SystemConfig::testing(2))
        .run(&mut prog)
        .stats;
    assert_eq!(stats.total_aborts(), 0);
    assert_eq!(stats.commits, 10);
    assert_eq!(stats.fallbacks, 0);
}

/// A guest that panics inside a critical-section body takes the run
/// down on the caller's own thread, with the guest's message intact.
#[test]
fn guest_panic_surfaces_from_run_with_its_message() {
    struct Panics {
        addr: Addr,
        body_thread: Cell<Option<ThreadId>>,
    }
    impl Program for Panics {
        fn name(&self) -> &str {
            "panics"
        }
        fn setup(&mut self, s: &mut SetupCtx, _t: usize) {
            self.addr = s.alloc(8);
        }
        async fn run(&self, ctx: &mut GuestCtx) {
            let a = self.addr;
            ctx.critical(async |tx| {
                let v = tx.load(a).await?;
                if tx.tid() == 1 {
                    self.body_thread.set(Some(thread::current().id()));
                    panic!("guest {} gave up at value {v}", tx.tid());
                }
                tx.store(a, v + 1).await?;
                Ok(())
            })
            .await;
        }
    }
    let mut prog = Panics {
        addr: Addr::NULL,
        body_thread: Cell::new(None),
    };
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        Runner::new(SystemKind::LockillerTm)
            .threads(2)
            .config(SystemConfig::testing(2))
            .run(&mut prog)
    }));
    let payload = run.expect_err("the guest's panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(msg.starts_with("guest 1 gave up"), "message lost: {msg:?}");
    assert_eq!(prog.body_thread.get(), Some(thread::current().id()));
}

/// Counts guest bodies that have started and that are still alive: a
/// body's [`LiveGuard`] drops when its future completes *or* is dropped
/// suspended.
#[derive(Default)]
struct Liveness {
    started: Cell<u32>,
    live: Cell<u32>,
}

struct LiveGuard<'a>(&'a Liveness);

impl Liveness {
    fn enter(&self) -> LiveGuard<'_> {
        self.started.set(self.started.get() + 1);
        self.live.set(self.live.get() + 1);
        LiveGuard(self)
    }
}

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.0.live.set(self.0.live.get() - 1);
    }
}

/// Thread 0 writes a shared line and computes inside one long critical
/// section; thread 1 arrives mid-window (when thread 0's priority is far
/// ahead, so a recovery system rejects it) — or, with `spin`, first
/// waits for a flag nobody ever sets.
struct Stuck {
    line: Addr,
    flag: Addr,
    spin: bool,
    liveness: Liveness,
}

impl Stuck {
    fn new(spin: bool) -> Stuck {
        Stuck {
            line: Addr::NULL,
            flag: Addr::NULL,
            spin,
            liveness: Liveness::default(),
        }
    }
}

impl Program for Stuck {
    fn name(&self) -> &str {
        "stuck"
    }
    fn setup(&mut self, s: &mut SetupCtx, _t: usize) {
        self.line = s.alloc(8);
        self.flag = s.alloc(8);
    }
    async fn run(&self, ctx: &mut GuestCtx) {
        let _guard = self.liveness.enter();
        if ctx.tid == 1 {
            while self.spin && ctx.load(self.flag).await == 0 {
                ctx.compute(10).await;
            }
            ctx.compute(300).await;
        }
        let line = self.line;
        ctx.critical(async |tx| {
            tx.store(line, 1).await?;
            tx.compute(600).await
        })
        .await;
    }
}

/// Resolves every tie-break to the FIFO candidate.
struct Fifo;

impl Scheduler for Fifo {
    fn pick(&mut self, _at: Cycle, _options: &[EvDesc], _fp: u64) -> usize {
        0
    }
}

/// A run cut off by its cycle budget drops the suspended guest futures:
/// no panic, and every body's locals are released.
#[test]
fn cycle_limited_run_drops_suspended_guests() {
    let mut prog = Stuck::new(true);
    let out = Runner::new(SystemKind::LockillerTm)
        .threads(2)
        .config(SystemConfig::testing(2))
        .max_cycles(20_000)
        .run_scheduled(&mut prog, &mut Fifo);
    assert!(
        matches!(out.end, RunEnd::CycleLimit { .. }),
        "{:?}",
        out.end
    );
    assert_eq!(prog.liveness.started.get(), 2);
    assert_eq!(prog.liveness.live.get(), 0, "a suspended guest leaked");
}

/// A deadlocked run (wake-ups dropped, no safety-net timeout, so a
/// parked requester waits forever) likewise drops its stuck guests.
#[test]
fn deadlocked_run_drops_suspended_guests() {
    let mut cfg = SystemConfig::testing(2);
    cfg.check.fault.drop_wakeups = true;
    let mut policy = SystemKind::LockillerRwi.policy();
    policy.wakeup_timeout = Cycle::MAX;
    let mut prog = Stuck::new(false);
    let out = Runner::new(SystemKind::LockillerRwi)
        .threads(2)
        .config(cfg)
        .policy(policy)
        .run_scheduled(&mut prog, &mut Fifo);
    assert!(matches!(out.end, RunEnd::Deadlock { .. }), "{:?}", out.end);
    assert_eq!(prog.liveness.started.get(), 2);
    assert_eq!(prog.liveness.live.get(), 0, "a suspended guest leaked");
}
