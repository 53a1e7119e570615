//! One-call simulation driver: configure a Table-II system, run a
//! [`Program`] on it, get a [`RunOutput`] back.
//!
//! [`Runner::run`] is the single entry point: it always returns the
//! statistics, the final memory image, and — when tracing was requested
//! via [`Runner::tracing`] or checked mode — the structured event trace.
//! [`Runner::backend`] selects the guest execution core: the program's
//! native async body (default, works for every [`Program`]) or the
//! bytecode VM ([`crate::Backend::Vm`], for programs that provide a
//! [`crate::GuestExec`] through [`Program::guest_exec`]). Either way
//! every guest is an in-process [`crate::GuestExec`] driven on the
//! caller's thread, so a panicking guest surfaces from [`Runner::run`]
//! with its own message, and an early-ended run just drops its guests.
//!
//! `Runner` is plain data (`Send`), so batch executors like
//! `lockiller_bench::tmlab` can build one per worker thread and fan
//! simulation points out across host cores.

use crate::engine::Engine;
use crate::exec::{Backend, GuestEnv, GuestExec, NativeGuest};
use crate::flatmem::{FlatMem, SetupCtx};
use crate::guest::GuestPolicy;
use crate::program::Program;
use crate::sched::{RunEnd, Scheduler};
use crate::system::SystemKind;
use crate::trace::{Trace, TraceEvent};
use sim_core::config::{PolicyConfig, SystemConfig};
use sim_core::obs::ObsHandle;
use sim_core::prof::ProfReport;
use sim_core::rng::SimRng;
use sim_core::stats::RunStats;
use sim_core::types::Cycle;

/// Everything one simulation produces.
///
/// `stats` is the aggregate counters every caller wants; `mem` is the
/// final simulated memory image (the serializability oracle fed to
/// [`Program::validate`]); `trace` is the structured event trace,
/// present iff tracing was enabled ([`Runner::tracing`] or
/// `cfg.check.enabled`).
#[must_use = "a RunOutput carries the run's statistics, memory image, and trace"]
#[derive(Debug)]
pub struct RunOutput {
    /// Aggregate statistics (cycles, commits, aborts, NoC/LLC counters).
    pub stats: RunStats,
    /// Structured event trace; `Some` iff tracing was enabled.
    pub trace: Option<Trace>,
    /// Final simulated memory image.
    pub mem: FlatMem,
    /// How the run terminated. Always [`RunEnd::Done`] from
    /// [`Runner::run`] (which panics otherwise); [`Runner::run_scheduled`]
    /// reports deadlocks and blown cycle budgets here instead.
    pub end: RunEnd,
    /// Host-side self-profile; `Some` iff [`Runner::profile`] was
    /// requested. Pure host observation — enabling it cannot change
    /// `stats`, `trace`, or `mem` (tests assert byte-identity).
    pub host_prof: Option<ProfReport>,
}

impl RunOutput {
    /// Consume the output keeping only the statistics.
    pub fn into_stats(self) -> RunStats {
        self.stats
    }

    /// The traced events, or an empty slice on an untraced run.
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.trace.as_ref().map_or(&[], Trace::events)
    }

    /// Take ownership of the traced events (empty on an untraced run).
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.trace.as_mut().map(Trace::take).unwrap_or_default()
    }
}

/// Builder for a simulation run.
#[derive(Clone)]
pub struct Runner {
    kind: SystemKind,
    cfg: SystemConfig,
    threads: usize,
    seed: u64,
    validate: bool,
    retries: Option<u32>,
    policy: Option<PolicyConfig>,
    max_cycles: Option<Cycle>,
    tracing: bool,
    obs: Option<ObsHandle>,
    backend: Backend,
    profile: bool,
}

impl Runner {
    pub fn new(kind: SystemKind) -> Runner {
        Runner {
            kind,
            cfg: SystemConfig::table1(),
            threads: 2,
            seed: 0xC0FFEE,
            validate: true,
            retries: None,
            policy: None,
            max_cycles: None,
            tracing: false,
            obs: None,
            backend: Backend::default(),
            profile: false,
        }
    }

    /// Select the guest execution core (see [`crate::exec`]). The
    /// default [`Backend::Threads`] polls any [`Program`]'s native body;
    /// [`Backend::Vm`] requires the program to provide a VM guest via
    /// [`Program::guest_exec`] and panics otherwise.
    pub fn backend(mut self, b: Backend) -> Runner {
        self.backend = b;
        self
    }

    /// Attach an observability sink (span tracing + periodic metric
    /// sampling; see `sim_core::obs`). Sinks are write-only, so attaching
    /// one cannot change the simulated outcome.
    pub fn obs(mut self, obs: ObsHandle) -> Runner {
        self.obs = Some(obs);
        self
    }

    /// Record a structured execution trace (see [`crate::trace`]);
    /// retrieve it from [`RunOutput::trace`].
    pub fn tracing(mut self) -> Runner {
        self.tracing = true;
        self
    }

    /// Enable host-side self-profiling (`tmprof`, see `sim_core::prof`);
    /// retrieve the phase tree from [`RunOutput::host_prof`]. The
    /// profiler only reads the host clock, so the simulated outcome is
    /// byte-identical with or without it.
    pub fn profile(mut self) -> Runner {
        self.profile = true;
        self
    }

    /// Override the HTM retry budget (`TME_MAX_RETRIES`), e.g. for the
    /// retry-budget ablation study.
    pub fn retries(mut self, n: u32) -> Runner {
        self.retries = Some(n);
        self
    }

    /// Replace the whole policy block. The run normally derives its
    /// policy from the [`SystemKind`] (any policy inside
    /// [`Runner::config`] is overwritten); this override is applied *on
    /// top* of the kind's policy, for callers that need to tweak policy
    /// knobs — e.g. the schedule explorer disabling the wake-up safety
    /// net. Prefer starting from `kind.policy()` when building one.
    pub fn policy(mut self, p: PolicyConfig) -> Runner {
        self.policy = Some(p);
        self
    }

    /// Bound the run to `limit` simulated cycles; exceeding it ends the
    /// run with [`RunEnd::CycleLimit`] (only observable through
    /// [`Runner::run_scheduled`] — [`Runner::run`] panics on it).
    pub fn max_cycles(mut self, limit: Cycle) -> Runner {
        self.max_cycles = Some(limit);
        self
    }

    /// Number of simulated worker threads (each pinned to one core).
    pub fn threads(mut self, n: usize) -> Runner {
        self.threads = n;
        self
    }

    /// Replace the hardware configuration (cache sensitivity studies).
    pub fn config(mut self, cfg: SystemConfig) -> Runner {
        self.cfg = cfg;
        self
    }

    pub fn seed(mut self, seed: u64) -> Runner {
        self.seed = seed;
        self
    }

    /// Skip the program's post-run validation (used by tests that check
    /// failure behaviour).
    pub fn no_validate(mut self) -> Runner {
        self.validate = false;
        self
    }

    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// Run `prog` to completion.
    ///
    /// Unless [`Runner::no_validate`] was called, the program's post-run
    /// invariant check runs on the final memory image and a failure
    /// panics (tests rely on that). The returned [`RunOutput`] carries
    /// the statistics, the memory image, and — iff tracing was enabled —
    /// the event trace.
    pub fn run<P: Program>(&self, prog: &mut P) -> RunOutput {
        let out = self.run_inner(prog, None);
        match &out.end {
            RunEnd::Done => {}
            RunEnd::Deadlock { stuck } => {
                panic!("deadlock: no events but threads alive (cores {stuck:?} unfinished)")
            }
            RunEnd::CycleLimit { at } => panic!("cycle budget exhausted at cycle {at}"),
        }
        if self.validate {
            if let Err(e) = prog.validate(&out.mem) {
                panic!(
                    "validation failed: {} on {} ({} threads): {e}",
                    prog.name(),
                    self.kind.name(),
                    self.threads
                );
            }
        }
        out
    }

    /// Run `prog` with `sched` resolving every same-cycle tie-break (see
    /// [`crate::sched`]). Unlike [`Runner::run`], a deadlocked or
    /// budget-limited run returns normally with the outcome in
    /// [`RunOutput::end`] — the schedule explorer treats those as
    /// verification results, not harness failures — and post-run
    /// validation only applies to completed runs.
    pub fn run_scheduled<P: Program>(&self, prog: &mut P, sched: &mut dyn Scheduler) -> RunOutput {
        let out = self.run_inner(prog, Some(sched));
        if self.validate && out.end.is_done() {
            if let Err(e) = prog.validate(&out.mem) {
                panic!(
                    "validation failed: {} on {} ({} threads): {e}",
                    prog.name(),
                    self.kind.name(),
                    self.threads
                );
            }
        }
        out
    }

    fn run_inner<P: Program>(&self, prog: &mut P, sched: Option<&mut dyn Scheduler>) -> RunOutput {
        let mut cfg = self.cfg.clone();
        cfg.policy = self.kind.policy();
        if let Some(p) = &self.policy {
            cfg.policy = p.clone();
        }
        if let Some(r) = self.retries {
            cfg.policy.max_retries = r;
        }
        assert!(
            self.threads >= 1 && self.threads <= cfg.num_cores,
            "thread count {} exceeds {} cores",
            self.threads,
            cfg.num_cores
        );

        // Setup phase: the fallback lock gets its own line, then the
        // program builds its structures. Pages touched here are pre-mapped.
        let mut setup = SetupCtx::new();
        let lock_addr = setup.alloc(8);
        prog.setup(&mut setup, self.threads);
        let (mem, mapped_pages) = setup.into_mem();

        let mut engine = Engine::new(cfg.clone(), mem, self.threads, lock_addr, mapped_pages);
        if let Some(limit) = self.max_cycles {
            engine.set_max_cycles(limit);
        }
        let traced = self.tracing || cfg.check.enabled;
        if traced {
            engine.stream.trace = Trace::enabled();
        }
        if let Some(h) = &self.obs {
            engine.set_obs(h.clone());
        }
        if self.profile {
            engine.enable_prof();
        }

        let gpolicy = GuestPolicy {
            coarse_grained_lock: cfg.policy.coarse_grained_lock,
            htmlock: cfg.policy.htmlock,
            max_retries: cfg.policy.max_retries,
            fallback_on_capacity: cfg.policy.fallback_on_capacity,
        };

        let mut base_rng = SimRng::new(self.seed);
        for tid in 0..self.threads {
            let env = GuestEnv {
                tid,
                threads: self.threads,
                rng: base_rng.fork(tid as u64),
                policy: gpolicy,
                lock_addr,
            };
            let exec: Box<dyn GuestExec + '_> = match self.backend {
                Backend::Threads => Box::new(NativeGuest::new(&*prog, env)),
                Backend::Vm => prog.guest_exec(env).unwrap_or_else(|| {
                    panic!(
                        "program '{}' provides no VM guest (Program::guest_exec \
                         returned None); run it with Backend::Threads",
                        prog.name()
                    )
                }),
            };
            engine.register(tid, exec);
        }
        let end = engine.run_with(sched);

        let trace = traced.then(|| std::mem::take(&mut engine.stream.trace));
        let host_prof = engine.take_prof();
        let (stats, mem) = engine.into_stats();
        RunOutput {
            stats,
            trace,
            mem,
            end,
            host_prof,
        }
    }
}

// `Runner` must stay `Send`: the tmlab batch executor builds one per
// worker thread. This fails to compile if a non-Send field sneaks in.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Runner>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guest::GuestCtx;

    #[test]
    fn builder_defaults() {
        let r = Runner::new(SystemKind::Baseline);
        assert_eq!(r.kind(), SystemKind::Baseline);
        let r = r.threads(4).seed(1);
        assert_eq!(r.threads, 4);
        assert_eq!(r.seed, 1);
    }

    #[test]
    fn trace_is_none_unless_requested() {
        struct Nop;
        impl Program for Nop {
            fn name(&self) -> &str {
                "nop"
            }
            fn setup(&mut self, _s: &mut SetupCtx, _threads: usize) {}
            async fn run(&self, ctx: &mut GuestCtx) {
                let _ = ctx;
            }
        }
        let cfg = SystemConfig::testing(2);
        let plain = Runner::new(SystemKind::Baseline)
            .threads(1)
            .config(cfg.clone())
            .run(&mut Nop);
        assert!(plain.trace.is_none());
        assert!(plain.trace_events().is_empty());
        let traced = Runner::new(SystemKind::Baseline)
            .threads(1)
            .config(cfg)
            .tracing()
            .run(&mut Nop);
        assert!(traced.trace.is_some());
    }
}
