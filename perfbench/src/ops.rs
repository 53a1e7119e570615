//! The benchmark's operations: one simulation point, one schedule-space
//! exploration, one tracing session, or one instrumented probe. Each op
//! calls the repository's public APIs exactly as a user would, one op
//! at a time, and returns what it measured plus a byte-exact record of
//! the modelled machine's output for the determinism checks.

use lockiller::flatmem::SetupCtx;
use lockiller::{Backend, Program, Runner, SystemKind};
use sim_core::config::{RejectAction, SystemConfig};
use sim_core::fxhash::FxHasher;
use sim_core::prof::ProfReport;
use sim_core::stats::RunStats;
use stamp::{Scale, Workload, WorkloadKind};
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tmverify::{Explorer, ProgSpec, SpecProgram};

/// Simulated cores (and guest threads) of every simulation point.
pub const THREADS: usize = 8;

/// The guest program of a simulation point.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Prog {
    Stamp(WorkloadKind),
    /// The flow-reassembly kernel `stamp::vm::IntruderFlow`.
    IntruderFlow,
}

impl Prog {
    fn name(self) -> &'static str {
        match self {
            Prog::Stamp(w) => w.name(),
            Prog::IntruderFlow => "intruder-flow",
        }
    }
}

/// Cache configuration of a simulation point.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    /// Table I: 32 KB L1 / 8 MB LLC.
    Typical,
    /// 8 KB L1 / 1 MB LLC.
    Small,
}

/// One simulation point: system × program × scale × caches × backend.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Point {
    pub system: SystemKind,
    pub prog: Prog,
    pub scale: Scale,
    pub cache: Cache,
    pub backend: Backend,
}

impl Point {
    fn config(&self) -> SystemConfig {
        match self.cache {
            Cache::Typical => SystemConfig::table1(),
            Cache::Small => SystemConfig::small_cache(),
        }
    }

    fn label(&self) -> String {
        let cache = match self.cache {
            Cache::Typical => "typical",
            Cache::Small => "small",
        };
        format!(
            "{}/{}/{}/{cache}",
            self.system.name(),
            self.prog.name(),
            self.scale.name()
        )
    }

    /// The same point on the other guest execution core.
    pub fn twin(&self) -> Point {
        let backend = match self.backend {
            Backend::Threads => Backend::Vm,
            Backend::Vm => Backend::Threads,
        };
        Point { backend, ..*self }
    }
}

/// One of the verify battery's specs, with the battery's verdict.
pub struct Spec {
    pub name: &'static str,
    pub system: SystemKind,
    pub text: &'static str,
    /// Inject the dropped-wake-up protocol bug; the exploration must
    /// then find a violation.
    pub drop_wakeups: bool,
    /// The battery asserts the static table strictly prunes this one.
    pub strict_prune: bool,
}

/// The verify battery's five distinct specs (its quick mode).
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "ring-2c2l-rwi",
        system: SystemKind::LockillerRwi,
        text: "2/c:L0,S1/c:L1,S0",
        drop_wakeups: false,
        strict_prune: false,
    },
    Spec {
        name: "ring-3c3l-rwi",
        system: SystemKind::LockillerRwi,
        text: "3/c:L0,S1/c:L1,S2/c:L2,S0",
        drop_wakeups: false,
        strict_prune: false,
    },
    Spec {
        name: "ring-3c3l-tm",
        system: SystemKind::LockillerTm,
        text: "3/c:L0,S1/c:L1,S2/c:L2,S0",
        drop_wakeups: false,
        strict_prune: false,
    },
    Spec {
        name: "disjoint-3c3l-tm",
        system: SystemKind::LockillerTm,
        text: "3/c:L0,S0/c:L1,S1/c:L2,S2",
        drop_wakeups: false,
        strict_prune: true,
    },
    Spec {
        name: "detector-drop-wakeups",
        system: SystemKind::LockillerRwi,
        text: "2/c:L0,S1/c:L1,S0",
        drop_wakeups: true,
        strict_prune: false,
    },
];

pub enum Op {
    /// Run a point to completion and validate its output.
    Sim(Point),
    /// Run a point plainly, then again in checked mode with the
    /// structured trace and a `tmobs` recorder attached; check the
    /// trace with `tmcheck` and export it with `tmobs`.
    Probe(Point),
    /// `Explorer::explore` over a spec, optionally with the `tmstatic`
    /// independence table installed (its analysis is timed apart).
    Explore {
        spec: &'static Spec,
        backend: Backend,
        table: bool,
    },
    /// One `tmobs::run_trace` session.
    Session(Point),
}

/// What an exploration measured.
pub struct ExploreFacts {
    pub spec: &'static str,
    pub table: bool,
    /// The table can refine some conflict (a vacuous one must not
    /// change the exploration at all).
    pub prunable: bool,
    pub explore_ns: u64,
    pub analyze_ns: u64,
    pub schedules: u64,
    pub redundant: u64,
    pub frontier_peak: usize,
    pub digest: u64,
}

/// What an instrumented probe measured.
pub struct ProbeFacts {
    pub plain_ns: u64,
    pub traced_ns: u64,
    pub check_ns: u64,
    pub export_ns: u64,
    pub spans: u64,
    pub violations: u64,
}

/// The result of one successful op.
pub struct Outcome {
    /// Host time inside the repository's APIs.
    pub wall_ns: u64,
    /// `wall_ns` in reference nanoseconds (see `calib`).
    pub ref_ns: f64,
    /// Byte-exact record of the modelled output (`RunStats` JSON or the
    /// exploration report JSON); repeated runs must reproduce it.
    pub record: String,
    pub stats: Option<RunStats>,
    /// Engine host profiles with the backend they ran on.
    pub profiles: Vec<(Backend, ProfReport)>,
    pub explore: Option<ExploreFacts>,
    pub probe: Option<ProbeFacts>,
}

impl Outcome {
    fn new(wall_ns: u64, record: String) -> Outcome {
        Outcome {
            wall_ns,
            ref_ns: wall_ns as f64,
            record,
            stats: None,
            profiles: Vec::new(),
            explore: None,
            probe: None,
        }
    }

    /// Simulated executions this op performed: each plain simulation
    /// follows one schedule, an exploration follows many.
    pub fn schedules(&self) -> u64 {
        self.explore.as_ref().map_or(1, |e| e.schedules)
    }
}

/// Fx digest of a record, stable across builds and hosts.
pub fn digest(record: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(record.as_bytes());
    h.finish()
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Op {
    pub fn label(&self) -> String {
        match self {
            Op::Sim(p) => format!("sim:{}/{}", p.label(), p.backend.name()),
            Op::Probe(p) => format!("probe:{}/{}", p.label(), p.backend.name()),
            Op::Explore {
                spec,
                backend,
                table,
            } => format!(
                "explore:{}/{}{}",
                spec.name,
                backend.name(),
                if *table { "/tmstatic" } else { "" }
            ),
            Op::Session(p) => format!("session:{}", p.label()),
        }
    }

    /// Ops that differ only in their guest execution core share a key;
    /// their records must be byte-identical.
    pub fn twin_key(&self) -> Option<String> {
        match self {
            Op::Sim(p) | Op::Probe(p) => Some(format!("point:{}", p.label())),
            Op::Explore { spec, table, .. } => Some(format!("spec:{}/{table}", spec.name)),
            Op::Session(_) => None,
        }
    }

    /// Prepare everything the op needs without simulating: build each
    /// program's inputs into a scratch arena, parse specs and compile
    /// their kernels. Returns the host ns spent in STAMP input builds.
    pub fn build(&self) -> u64 {
        match self {
            Op::Sim(p) | Op::Probe(p) | Op::Session(p) => {
                let t = Instant::now();
                let mut s = SetupCtx::new();
                match p.prog {
                    Prog::Stamp(w) => {
                        Workload::with_scale(w, THREADS, p.scale).setup(&mut s, THREADS);
                    }
                    Prog::IntruderFlow => {
                        stamp::vm::IntruderFlow::new(p.scale, THREADS).setup(&mut s, THREADS);
                    }
                }
                std::hint::black_box(s.brk());
                elapsed_ns(t)
            }
            Op::Explore { spec, .. } => {
                let parsed = ProgSpec::parse(spec.text).expect("battery specs parse");
                std::hint::black_box(SpecProgram::compile_all(&parsed));
                0
            }
        }
    }

    /// Execute the op. `profile` attaches the engine's host profiler
    /// (`Runner::profile`, `Explorer.profile`, `TraceConfig.profile`).
    pub fn run(&self, seed: u64, profile: bool) -> Result<Outcome, String> {
        match self {
            Op::Sim(p) => {
                let t = Instant::now();
                let run = simulate(p, seed, profile, false)?;
                let mut o = Outcome::new(elapsed_ns(t), run.stats.to_json());
                o.profiles.extend(run.prof.map(|r| (p.backend, r)));
                o.stats = Some(run.stats);
                Ok(o)
            }
            Op::Probe(p) => probe(p, seed, profile),
            Op::Explore {
                spec,
                backend,
                table,
            } => explore(spec, *backend, *table, profile),
            Op::Session(p) => {
                let Prog::Stamp(workload) = p.prog else {
                    return Err("a session traces a STAMP port".to_string());
                };
                let mut cfg = tmobs::TraceConfig::new(workload, p.system);
                cfg.threads = THREADS;
                cfg.scale = p.scale;
                cfg.seed = seed;
                cfg.hw = p.config();
                cfg.profile = profile;
                let t = Instant::now();
                let art = tmobs::run_trace(&cfg);
                let mut o = Outcome::new(elapsed_ns(t), art.stats.to_json());
                art.validation
                    .map_err(|e| format!("validation failed: {e}"))?;
                o.profiles
                    .extend(art.host_prof.map(|r| (Backend::Threads, r)));
                o.stats = Some(art.stats);
                Ok(o)
            }
        }
    }
}

struct SimRun {
    stats: RunStats,
    prof: Option<ProfReport>,
    trace: Vec<lockiller::TraceEvent>,
    recorder: Option<tmobs::Recorder>,
}

/// Run a point and apply the correctness checks every op shares: the
/// run ends in `RunEnd::Done`, `Program::validate` accepts the memory
/// image, and the live SWMR check saw nothing. With `instrument` the run
/// is in checked mode with the structured trace and a recorder on.
fn simulate(p: &Point, seed: u64, profile: bool, instrument: bool) -> Result<SimRun, String> {
    fn go<P: Program>(
        p: &Point,
        prog: &mut P,
        seed: u64,
        profile: bool,
        instrument: bool,
    ) -> Result<SimRun, String> {
        let mut cfg = p.config();
        cfg.check.enabled = instrument;
        let mut r = Runner::new(p.system)
            .threads(THREADS)
            .config(cfg)
            .seed(seed)
            .backend(p.backend)
            .no_validate();
        if profile {
            r = r.profile();
        }
        let mut rec = None;
        if instrument {
            let (handle, shared) =
                tmobs::Recorder::shared(sim_core::obs::ObsHandle::DEFAULT_SAMPLE_EVERY);
            r = r.tracing().obs(handle);
            rec = Some(shared);
        }
        let mut out = r.run(prog);
        if !out.end.is_done() {
            return Err(format!("run ended in {:?}", out.end));
        }
        prog.validate(&out.mem)
            .map_err(|e| format!("validation failed: {e}"))?;
        if let Some(v) = &out.stats.swmr_violation {
            return Err(format!("SWMR violation: {v}"));
        }
        let trace = out.take_trace_events();
        let recorder = rec.map(|shared| {
            std::mem::take(&mut *shared.lock().expect("recorder lock poisoned by a panic"))
        });
        Ok(SimRun {
            stats: out.stats,
            prof: out.host_prof.take(),
            trace,
            recorder,
        })
    }
    match p.prog {
        Prog::Stamp(w) => go(
            p,
            &mut Workload::with_scale(w, THREADS, p.scale),
            seed,
            profile,
            instrument,
        ),
        Prog::IntruderFlow => go(
            p,
            &mut stamp::vm::IntruderFlow::new(p.scale, THREADS),
            seed,
            profile,
            instrument,
        ),
    }
}

fn probe(p: &Point, seed: u64, profile: bool) -> Result<Outcome, String> {
    let t = Instant::now();
    let plain = simulate(p, seed, profile, false)?;
    let plain_ns = elapsed_ns(t);

    let t = Instant::now();
    let traced = simulate(p, seed, false, true)?;
    let traced_ns = elapsed_ns(t);

    let t = Instant::now();
    let opts = tmcheck::CheckOpts {
        wait_wakeup: p.system.policy().reject_action == RejectAction::WaitWakeup,
    };
    let report = tmcheck::check_trace(&traced.trace, opts);
    let check_ns = elapsed_ns(t);

    let rec = traced.recorder.expect("instrumented runs carry a recorder");
    let t = Instant::now();
    let meta = tmobs::TraceMeta {
        workload: p.prog.name().to_string(),
        system: p.system.name().to_string(),
        threads: THREADS,
        seed,
    };
    std::hint::black_box(tmobs::export_chrome(&rec, &meta, &traced.stats));
    let registry = tmobs::MetricsRegistry::for_config(&p.config());
    std::hint::black_box(tmobs::export_jsonl(&rec, &registry, &traced.stats));
    std::hint::black_box(tmobs::analyze(&rec, THREADS));
    let export_ns = elapsed_ns(t);

    if !report.violations.is_empty() {
        return Err(format!(
            "tmcheck found {} violation(s), first: {:?}",
            report.violations.len(),
            report.violations[0]
        ));
    }
    if traced.stats.cycles != plain.stats.cycles || traced.stats.commits != plain.stats.commits {
        return Err("checked mode changed the simulated outcome".to_string());
    }
    let mut o = Outcome::new(
        plain_ns + traced_ns + check_ns + export_ns,
        plain.stats.to_json(),
    );
    o.profiles.extend(plain.prof.map(|r| (p.backend, r)));
    o.stats = Some(plain.stats);
    o.probe = Some(ProbeFacts {
        plain_ns,
        traced_ns,
        check_ns,
        export_ns,
        spans: rec.spans().len() as u64,
        violations: report.violations.len() as u64,
    });
    Ok(o)
}

fn explore(
    spec: &'static Spec,
    backend: Backend,
    table: bool,
    profile: bool,
) -> Result<Outcome, String> {
    let parsed = ProgSpec::parse(spec.text).map_err(|e| format!("{e:?}"))?;
    let mut ex = Explorer::new(spec.system, parsed);
    ex.no_safety_net = true;
    ex.inject.drop_wakeups = spec.drop_wakeups;
    ex.backend = backend;
    ex.profile = profile;

    let t = Instant::now();
    let mut prunable = false;
    if table {
        let independence = match backend {
            Backend::Vm => {
                tmstatic::VmAnalysis::new(spec.system, ex.config(), &ex.kernels()).independence()
            }
            Backend::Threads => {
                tmstatic::Analysis::new(spec.system, ex.spec.clone(), ex.config()).independence()
            }
        };
        prunable = independence
            .as_ref()
            .is_some_and(lockiller::StaticIndependence::can_refine_any);
        ex.prune = independence;
    }
    let analyze_ns = if table { elapsed_ns(t) } else { 0 };

    let t = Instant::now();
    let rep = ex.explore();
    let explore_ns = elapsed_ns(t);
    // The battery's verdict: a violation exactly when a bug is
    // injected, and a space that drains.
    if rep.is_clean() == spec.drop_wakeups || !rep.complete() {
        return Err(format!(
            "verdict differs from the verify battery (clean {}, complete {}):\n{}",
            rep.is_clean(),
            rep.complete(),
            rep.render()
        ));
    }
    let mut o = Outcome::new(analyze_ns + explore_ns, rep.to_json());
    o.explore = Some(ExploreFacts {
        spec: spec.name,
        table,
        prunable,
        explore_ns,
        analyze_ns,
        schedules: rep.schedules,
        redundant: rep.redundant,
        frontier_peak: rep.frontier_peak,
        digest: rep.digest,
    });
    Ok(o)
}

/// Attempts and failures over a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Execute `f` as one op: a panic or an error counts it failed.
    pub fn attempt(
        &mut self,
        label: &str,
        f: impl FnOnce() -> Result<Outcome, String>,
    ) -> Option<Outcome> {
        self.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            Err(format!("panicked: {msg}"))
        });
        match result {
            Ok(o) => Some(o),
            Err(e) => {
                self.fail(label, &e);
                None
            }
        }
    }

    /// Count an attempted op as failed after the fact (a cross-check
    /// against another op's output failed).
    pub fn fail(&mut self, label: &str, why: &str) {
        self.failed += 1;
        self.failures.push(format!("{label}: {why}"));
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(prog: Prog, backend: Backend) -> Point {
        Point {
            system: SystemKind::LockillerTm,
            prog,
            scale: Scale::Tiny,
            cache: Cache::Typical,
            backend,
        }
    }

    #[test]
    fn an_injected_failing_op_raises_failed_frac() {
        let mut tally = Tally::default();
        let ok = Op::Sim(tiny(Prog::Stamp(WorkloadKind::KmeansLow), Backend::Vm));
        assert!(tally.attempt("ok", || ok.run(1, false)).is_some());
        assert_eq!(tally.failed_frac(), 0.0);
        // A panicking op and an op whose check fails both count.
        assert!(tally
            .attempt("panics", || panic!("injected fault"))
            .is_none());
        assert!(tally
            .attempt("rejected", || Err("injected verdict".to_string()))
            .is_none());
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert!(tally.failures[0].contains("injected fault"));
        // A cross-check failing after the fact counts too.
        tally.fail("ok", "record differs from its twin");
        assert_eq!(tally.failed, 3);
    }

    #[test]
    fn backend_twins_agree_and_probes_are_clean() {
        let mut tally = Tally::default();
        let threads = Op::Probe(tiny(Prog::Stamp(WorkloadKind::KmeansLow), Backend::Threads));
        let vm = Op::Probe(tiny(Prog::Stamp(WorkloadKind::KmeansLow), Backend::Vm));
        let a = tally.attempt("threads", || threads.run(7, true)).unwrap();
        let b = tally.attempt("vm", || vm.run(7, false)).unwrap();
        assert_eq!(threads.twin_key(), vm.twin_key());
        assert_eq!(a.record, b.record);
        assert_eq!(a.probe.as_ref().unwrap().violations, 0);
        assert!(a.probe.as_ref().unwrap().spans > 0);
        assert_eq!(a.profiles.len(), 1, "profiled plain run");
        assert_eq!(tally.failed, 0);
    }
}
