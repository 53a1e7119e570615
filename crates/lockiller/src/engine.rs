//! The discrete-event engine: owns the event queue, the memory subsystem,
//! the value layer, and one controller per simulated core; drives each
//! core's guest in rendezvous lockstep.
//!
//! ## Event kinds
//!
//! - `Recv(core)` — rendezvous point: resume the core's guest for its
//!   next operation (the guest computes in zero simulated time);
//! - `Respond(core, resp)` — deliver a response scheduled earlier (e.g.,
//!   the end of a `Compute`, a commit penalty, an abort penalty);
//! - `Net(msg)` — a NoC message arrives at the memory subsystem;
//! - `Notice(n)` — a memory-subsystem notification (completion, reject,
//!   protocol abort, wake-up, HLA result);
//! - `Retry(core, seq)` / `ParkTimeout(core, seq)` — recovery-mechanism
//!   requester-side actions (RetryLater pause, wake-up safety net).
//!
//! ## Execution-time accounting
//!
//! Cycles are attributed per core to the paper's breakdown categories at
//! every response delivery; speculative cycles accumulate in a pending
//! bucket resolved to `htm` / `aborted` / `switchLock` when the
//! transaction's fate is known (Figs. 9 and 11).

use crate::event::{EngineEvent, EventStream, ParkEnd};
use crate::exec::GuestExec;
use crate::flatmem::{FlatMem, WriteBuffer};
use crate::guest::{GuestOp, GuestResp, TTest};
use crate::sched::{EvClass, EvDesc, RunEnd, Scheduler};
use coherence::memsys::{AccessKind, AccessResult, CoreNotice, MemSystem};
use coherence::msg::{NetMsg, TxMode};
use sim_core::config::{PriorityKind, RejectAction, SystemConfig};
use sim_core::event::EventQueue;
use sim_core::fxhash::{FxHashSet, FxHasher};
use sim_core::obs::{Metric, MetricSpec, ObsEvent, ObsHandle};
use sim_core::prof::{HostProf, ProfPhase, ProfReport};
use sim_core::stats::{AbortCause, Phase, PhaseTracker, RunStats};
use sim_core::types::{Addr, CoreId, Cycle};
use std::hash::{Hash, Hasher};

/// Decay origin for the `prio_decay` seeded bug: large enough that the
/// inverted priorities stay positive and below the lock-priority
/// sentinel for any realistic transaction length.
const PRIO_DECAY_BASE: u64 = 1 << 20;

/// Metric registrations owned by the engine: core-occupancy gauges and
/// the cumulative outcome counters sampled every observability tick.
pub fn obs_metric_specs() -> Vec<MetricSpec> {
    vec![
        MetricSpec::new(
            Metric::TxRunning,
            "cores",
            "cores in a speculative transaction",
        ),
        MetricSpec::new(
            Metric::Parked,
            "cores",
            "cores parked by the recovery mechanism",
        ),
        MetricSpec::new(Metric::LockHeld, "cores", "cores in lock/fallback sections"),
        MetricSpec::new(Metric::Commits, "txns", "cumulative speculative commits"),
        MetricSpec::new(Metric::Aborts, "txns", "cumulative aborts, all causes"),
        MetricSpec::new(
            Metric::Fallbacks,
            "txns",
            "cumulative fallback-path entries",
        ),
        MetricSpec::new(
            Metric::EventsProcessed,
            "events",
            "cumulative discrete events dispatched by the engine",
        ),
        MetricSpec::new(
            Metric::EventQueueDepth,
            "events",
            "instantaneous engine event-queue depth",
        ),
    ]
}

#[derive(Clone, Debug)]
enum Ev {
    Recv(CoreId),
    Respond(CoreId, GuestResp),
    Net(NetMsg),
    Notice(CoreNotice),
    Retry(CoreId, u64),
    ParkTimeout(CoreId, u64),
}

/// Per-core controller state.
struct Ctl<'g> {
    /// The resumable guest driven at this core's `Recv` rendezvous
    /// points; `None` until [`Engine::register`].
    exec: Option<Box<dyn GuestExec + 'g>>,
    /// Response delivered by [`Engine::respond`] but not yet handed to
    /// the guest — consumed by the next `resume` at the rendezvous
    /// point.
    pending_resp: Option<GuestResp>,
    tracker: PhaseTracker,
    phase: Phase,
    /// Cycles currently accumulate into the speculative pending bucket.
    spec: bool,
    last_attr: Cycle,
    /// Inside a speculative attempt (including after an STL switch, until
    /// hlend).
    in_tx: bool,
    is_stl: bool,
    tx_insts: u64,
    tx_refs: u64,
    tx_begin_at: Cycle,
    switch_tried: bool,
    /// Protocol abort arrived while an op had a scheduled response; the
    /// abort is delivered in its place.
    doomed: Option<AbortCause>,
    /// A response event is in flight for this core.
    respond_scheduled: bool,
    /// Memory op awaiting coherence completion / park / retry.
    cur_op: Option<GuestOp>,
    /// Op received while a protocol abort notice was still in flight;
    /// consumed (answered with the abort) when the notice lands.
    deferred_op: Option<GuestOp>,
    parked: Option<u64>,
    /// A wake-up that arrived before its reject (shorter NoC route);
    /// consumed instead of parking when the reject lands.
    wakeup_banked: bool,
    /// Next guest op, pre-received at a scheduler pick point so the
    /// candidate `Recv` event can be described with a precise footprint
    /// (the guest computes in zero simulated time, so its op is fixed
    /// the moment the previous response is delivered — pulling it early
    /// cannot change the simulation).
    staged_op: Option<GuestOp>,
    /// Rolling hash of every response delivered to this guest: a
    /// deterministic guest's position and local state are a pure
    /// function of its response history, so folding this into the state
    /// fingerprint makes engine-state equality imply guest-state
    /// equality (see `state_fingerprint`).
    resp_hash: u64,
    switch_pending: bool,
    tl_pending: bool,
    /// Resolve the pending speculative bucket into this phase at the next
    /// response delivery.
    resolve: Option<Phase>,
    /// Switch to this phase after the next response delivery.
    phase_after: Option<Phase>,
    finished: bool,
}

impl Ctl<'_> {
    fn new() -> Self {
        Ctl {
            exec: None,
            pending_resp: None,
            tracker: PhaseTracker::default(),
            phase: Phase::NonTran,
            spec: false,
            last_attr: 0,
            in_tx: false,
            is_stl: false,
            tx_insts: 0,
            tx_refs: 0,
            tx_begin_at: 0,
            switch_tried: false,
            doomed: None,
            respond_scheduled: false,
            cur_op: None,
            deferred_op: None,
            parked: None,
            wakeup_banked: false,
            staged_op: None,
            resp_hash: 0,
            switch_pending: false,
            tl_pending: false,
            resolve: None,
            phase_after: None,
            finished: false,
        }
    }
}

/// The engine. Construct, [`Engine::register`] each guest executor,
/// then [`Engine::run_with`] to completion and [`Engine::into_stats`].
///
/// The lifetime `'g` bounds the registered [`GuestExec`]s (each guest
/// borrows its program: a native body's future or a VM's kernel).
pub struct Engine<'g> {
    cfg: SystemConfig,
    ms: MemSystem,
    q: EventQueue<Ev>,
    pub mem: FlatMem,
    bufs: Vec<WriteBuffer>,
    ctl: Vec<Ctl<'g>>,
    touched_pages: FxHashSet<u64>,
    barrier_waiting: Vec<CoreId>,
    threads: usize,
    done_count: usize,
    seq: u64,
    stats: RunStats,
    end_time: Cycle,
    /// Every consumer of the engine's protocol events (trace, spans,
    /// latency lifecycles, debug log): fed by [`Engine::emit`] only.
    /// Its folds are write-only, so the simulation is bit-identical
    /// whichever consumers are attached.
    pub(crate) stream: EventStream,
    next_sample: Cycle,
    /// Host-side self-profiler ([`Engine::enable_prof`]): `None` (the
    /// default) is the unprofiled fast path — every scope site is one
    /// `is_some()` branch, mirroring `obs`. The profiler only reads the
    /// host clock and allocation counters; nothing it does feeds back
    /// into the simulation, so cycles, stats, traces, and fingerprints
    /// are byte-identical with it on or off.
    prof: Option<HostProf>,
    /// Programmatic cycle budget ([`Engine::set_max_cycles`]): exceeding
    /// it ends the run with [`RunEnd::CycleLimit`] instead of panicking
    /// (the `LOCKILLER_MAX_CYCLES` env watchdog still panics).
    max_cycles: Option<Cycle>,
    /// True while [`Engine::run_with`] is driven by a [`Scheduler`].
    /// Only the scheduler's pick points read [`Engine::state_fingerprint`],
    /// so the per-response `resp_hash` fold in `respond` is skipped on
    /// plain runs — the `tmprof` stamp phase showed the hash as the
    /// fold's only cost on the VM backend, where responses dominate.
    fingerprinting: bool,
}

impl<'g> Engine<'g> {
    pub fn new(
        cfg: SystemConfig,
        mem: FlatMem,
        threads: usize,
        mutex_addr: Addr,
        mapped_pages: FxHashSet<u64>,
    ) -> Engine<'g> {
        assert!(threads >= 1 && threads <= cfg.num_cores);
        let mut ms = MemSystem::new(cfg.clone());
        ms.set_mutex_line(mutex_addr.line());
        let touched_pages = mapped_pages;
        Engine {
            ms,
            q: EventQueue::new(),
            mem,
            bufs: (0..threads).map(|_| WriteBuffer::default()).collect(),
            ctl: (0..threads).map(|_| Ctl::new()).collect(),
            touched_pages,
            barrier_waiting: Vec::new(),
            threads,
            done_count: 0,
            seq: 0,
            stats: RunStats::new(threads),
            end_time: 0,
            stream: EventStream::new(threads, cfg.check.enabled),
            next_sample: 0,
            prof: None,
            max_cycles: None,
            fingerprinting: false,
            cfg,
        }
    }

    /// Set a cycle budget: a run that exceeds it returns
    /// [`RunEnd::CycleLimit`] (used by the schedule explorer to bound
    /// divergent replays instead of hanging).
    pub fn set_max_cycles(&mut self, limit: Cycle) {
        self.max_cycles = Some(limit);
    }

    /// Attach an observability sink (span tracing + periodic sampling).
    /// Also arms conflict-edge recording in the memory system so the
    /// sink receives forensics events; recording is write-only and never
    /// feeds back into protocol decisions.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.stream.obs = Some(obs);
        self.ms.set_record_conflicts(true);
    }

    /// Start host-side self-profiling: the root `run` scope opens now,
    /// and the hot loop attributes host time / allocations to phase
    /// scopes until [`Engine::take_prof`].
    pub fn enable_prof(&mut self) {
        self.prof = Some(HostProf::start());
    }

    /// Close the profile and return its report (`None` if
    /// [`Engine::enable_prof`] was never called).
    pub fn take_prof(&mut self) -> Option<ProfReport> {
        self.prof.take().map(HostProf::report)
    }

    #[inline]
    fn prof_enter(&mut self, ph: ProfPhase) {
        if let Some(p) = self.prof.as_mut() {
            p.enter(ph);
        }
    }

    #[inline]
    fn prof_exit(&mut self) {
        if let Some(p) = self.prof.as_mut() {
            p.exit();
        }
    }

    /// Dispatch phase for an event kind (per-`Ev`-kind host attribution).
    fn phase_of(ev: &Ev) -> ProfPhase {
        match ev {
            Ev::Recv(_) => ProfPhase::EvRecv,
            Ev::Respond(..) => ProfPhase::EvRespond,
            Ev::Net(_) => ProfPhase::EvNet,
            Ev::Notice(_) => ProfPhase::EvNotice,
            Ev::Retry(..) => ProfPhase::EvRetry,
            Ev::ParkTimeout(..) => ProfPhase::EvParkTimeout,
        }
    }

    // ---------------- observability emission ----------------

    /// The one emission point for protocol events (see [`crate::event`]).
    #[inline(always)]
    fn emit(&mut self, t: Cycle, core: CoreId, ev: EngineEvent) {
        self.stream.emit(t, core, ev, &mut self.stats);
    }

    /// Emit one sample row: engine occupancy gauges and outcome counters,
    /// then the memory system's bank/NoC metrics. Pure observation.
    fn emit_samples(&self, at: Cycle) {
        let Some(o) = &self.stream.obs else { return };
        let (htm, lock, fallback) = self.ms.mode_counts();
        let parked = self.ctl.iter().filter(|c| c.parked.is_some()).count() as u64;
        let mut out: Vec<(Metric, u64)> = vec![
            (Metric::TxRunning, htm),
            (Metric::Parked, parked),
            (Metric::LockHeld, lock + fallback),
            (Metric::Commits, self.stats.commits),
            (Metric::Aborts, self.stats.total_aborts()),
            (Metric::Fallbacks, self.stats.fallbacks),
            (Metric::EventsProcessed, self.stats.events_processed),
            (Metric::EventQueueDepth, self.q.len() as u64),
        ];
        self.ms.obs_sample(&mut out);
        for (metric, value) in out {
            o.emit(ObsEvent::Sample {
                cycle: at,
                metric,
                value,
            });
        }
    }

    /// Attach the resumable guest driven at `core`'s rendezvous points.
    pub fn register(&mut self, core: CoreId, exec: Box<dyn GuestExec + 'g>) {
        self.ctl[core].exec = Some(exec);
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    // ---------------- phase accounting ----------------

    fn attr(&mut self, core: CoreId, upto: Cycle) {
        let c = &mut self.ctl[core];
        debug_assert!(upto >= c.last_attr);
        let d = upto - c.last_attr;
        if d > 0 {
            if c.spec {
                c.tracker.add_pending_spec(d);
            } else {
                c.tracker.add(c.phase, d);
            }
            c.last_attr = upto;
        } else {
            c.last_attr = upto;
        }
    }

    fn set_phase(&mut self, core: CoreId, now: Cycle, phase: Phase) {
        self.attr(core, now);
        self.ctl[core].phase = phase;
    }

    // ---------------- responses ----------------

    fn respond(&mut self, core: CoreId, now: Cycle, resp: GuestResp) {
        self.prof_enter(ProfPhase::Stamp);
        self.attr(core, now);
        if self.fingerprinting {
            // Fold the delivered response into the core's history hash
            // (see `state_fingerprint`). Values only, not cycles: timing
            // differences already show in the queue fingerprint. Hashed
            // structurally (no formatting): this runs on every response.
            // Scheduler-driven runs only — nothing else reads the hash,
            // and it costs a hasher per response on the hot path.
            let mut h = FxHasher::default();
            (self.ctl[core].resp_hash, resp).hash(&mut h);
            self.ctl[core].resp_hash = h.finish();
        }
        if let Some(res) = self.ctl[core].resolve.take() {
            self.ctl[core].tracker.resolve_spec(res);
            self.ctl[core].spec = false;
        }
        if let Some(p) = self.ctl[core].phase_after.take() {
            self.ctl[core].phase = p;
        }
        self.prof_exit();
        // Stash the response for the matching `Recv` rendezvous: the
        // guest only resumes when that event (or a pick-point staging of
        // it) fires.
        self.ctl[core].pending_resp = Some(resp);
        self.q.schedule_at(now, Ev::Recv(core));
    }

    fn schedule_respond(&mut self, core: CoreId, at: Cycle, resp: GuestResp) {
        self.ctl[core].respond_scheduled = true;
        self.q.schedule_at(at, Ev::Respond(core, resp));
    }

    // ---------------- memory-subsystem output plumbing ----------------

    fn drain_ms(&mut self) {
        let (msgs, notices) = self.ms.drain_outputs();
        for (at, m) in msgs {
            self.q.schedule_at(at, Ev::Net(m));
        }
        for (at, n) in notices {
            self.q.schedule_at(at, Ev::Notice(n));
        }
        for (at, p) in self.ms.take_proto_events() {
            let (core, ev) = EngineEvent::from_proto(p);
            self.emit(at, core, ev);
        }
    }

    // ---------------- main loop ----------------

    /// Run until every guest thread has exited, the event queue drains
    /// with live threads (deadlock), or the cycle budget runs out. When
    /// a [`Scheduler`] is supplied it resolves every same-cycle FIFO
    /// tie-break (the simulation's only nondeterminism; see
    /// [`crate::sched`]).
    ///
    /// On a non-[`RunEnd::Done`] outcome unfinished guests stay
    /// suspended; dropping the engine drops them.
    pub fn run_with(&mut self, mut sched: Option<&mut dyn Scheduler>) -> RunEnd {
        let env_max: Cycle = std::env::var("LOCKILLER_MAX_CYCLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(Cycle::MAX);
        self.fingerprinting = sched.is_some();
        for c in 0..self.threads {
            self.q.schedule_at(0, Ev::Recv(c));
        }
        while self.done_count < self.threads {
            self.prof_enter(ProfPhase::Dequeue);
            let popped = match sched.as_deref_mut() {
                Some(s) => self.pick_next(s),
                None => self.q.pop(),
            };
            self.prof_exit();
            let Some((t, ev)) = popped else {
                self.end_time = self.q.now().max(self.end_time);
                let stuck: Vec<usize> = (0..self.threads)
                    .filter(|&c| !self.ctl[c].finished)
                    .collect();
                return RunEnd::Deadlock { stuck };
            };
            // Simulator self-metrics: dispatched-event count and queue
            // high-water (the popped event itself counts toward depth).
            self.stats.events_processed += 1;
            let depth = self.q.len() as u64 + 1;
            if depth > self.stats.event_queue_peak {
                self.stats.event_queue_peak = depth;
            }
            if let Some(p) = self.prof.as_mut() {
                p.note_event(depth);
            }
            if let Some(every) = self.stream.obs.as_ref().map(ObsHandle::sample_every) {
                if t >= self.next_sample {
                    self.prof_enter(ProfPhase::ObsSample);
                    while t >= self.next_sample {
                        let at = self.next_sample;
                        self.emit_samples(at);
                        self.next_sample += every;
                    }
                    self.prof_exit();
                }
            }
            if t > env_max {
                self.dump_state(t);
                panic!("watchdog: simulation exceeded {env_max} cycles");
            }
            if self.max_cycles.is_some_and(|limit| t > limit) {
                self.end_time = self.q.now().max(self.end_time);
                return RunEnd::CycleLimit { at: t };
            }
            // Live SWMR surface for checked mode: check the lines the
            // previous event changed and record the first violation, so
            // the checker can report it with the rest of the run's
            // evidence.
            if self.cfg.check.enabled && self.stats.swmr_violation.is_none() {
                if let Err(e) = self.ms.check_swmr_changed() {
                    self.stats.swmr_violation = Some(format!("at cycle {t}: {e}"));
                }
            }
            self.prof_enter(Self::phase_of(&ev));
            self.dispatch(t, ev);
            self.prof_exit();
        }
        self.end_time = self.q.now().max(self.end_time);
        if let Some(o) = &self.stream.obs {
            self.emit_samples(self.end_time);
            o.finish(self.end_time);
        }
        RunEnd::Done
    }

    /// Dispatch one popped event (the body of the hot loop, split out so
    /// the profiler brackets exactly one event regardless of which arm's
    /// early return fires).
    #[inline]
    fn dispatch(&mut self, t: Cycle, ev: Ev) {
        match ev {
            Ev::Recv(c) => {
                let op = if let Some(op) = self.ctl[c].staged_op.take() {
                    op
                } else {
                    self.recv_op(t, c)
                };
                self.handle_op(t, c, op);
            }
            Ev::Respond(c, resp) => {
                self.ctl[c].respond_scheduled = false;
                if self.ctl[c].in_tx && !matches!(resp, GuestResp::Aborted(_)) {
                    if let Some(cause) = self.ctl[c].doomed.take() {
                        self.deliver_abort(t, c, cause);
                        return;
                    }
                }
                self.respond(c, t, resp);
            }
            Ev::Net(m) => {
                self.prof_enter(ProfPhase::Coherence);
                self.ms.handle_msg(t, m);
                self.drain_ms();
                self.prof_exit();
            }
            Ev::Notice(n) => self.handle_notice(t, n),
            // A stale sequence tag means the park already ended.
            Ev::Retry(c, seq) if self.ctl[c].parked == Some(seq) => {
                self.unpark(t, c, ParkEnd::Retried);
            }
            Ev::ParkTimeout(c, seq) if self.ctl[c].parked == Some(seq) => {
                self.unpark(t, c, ParkEnd::Timeout);
            }
            Ev::Retry(..) | Ev::ParkTimeout(..) => {}
        }
    }

    /// Resume `core`'s guest with its pending response (a synthetic
    /// `Done` kick on the very first rendezvous — see
    /// [`crate::exec::GuestExec`]) and take its next op. The guest
    /// computes in zero simulated time, on the engine's own thread.
    fn recv_op(&mut self, _t: Cycle, c: CoreId) -> GuestOp {
        self.prof_enter(ProfPhase::GuestResume);
        let ctl = &mut self.ctl[c];
        let resp = ctl.pending_resp.take().unwrap_or(GuestResp::Done);
        let op = ctl.exec.as_mut().expect("core not registered").resume(resp);
        self.prof_exit();
        op
    }

    // ---------------- scheduler seam ----------------

    /// Pop the next event, letting `s` resolve same-cycle ties. Recv
    /// candidates get their guest op pre-received ("staged") so the
    /// descriptor carries the op's precise footprint; the op content
    /// cannot depend on the tie-break (guests run in zero simulated
    /// time), so staging never changes the simulation.
    fn pick_next(&mut self, s: &mut dyn Scheduler) -> Option<(Cycle, Ev)> {
        match self.q.front_len() {
            0 => None,
            1 => {
                let (t, ev) = self.q.pop()?;
                if let Ev::Recv(c) = ev {
                    self.stage_op(c);
                }
                let d = self.describe(&ev);
                s.observe(t, &d);
                Some((t, ev))
            }
            _ => {
                let front = self.q.front_snapshot();
                for ev in &front {
                    if let Ev::Recv(c) = ev {
                        self.stage_op(*c);
                    }
                }
                let descs: Vec<EvDesc> = front.iter().map(|e| self.describe(e)).collect();
                let at = self.q.peek_time().expect("front is non-empty");
                self.prof_enter(ProfPhase::SchedPick);
                let fp = self.state_fingerprint();
                let idx = s.pick(at, &descs, fp).min(descs.len() - 1);
                self.prof_exit();
                let (t, ev) = self.q.pop_nth_front(idx).expect("front is non-empty");
                s.observe(t, &descs[idx]);
                Some((t, ev))
            }
        }
    }

    /// Pre-receive `core`'s next op into the staging slot (idempotent).
    /// A staged `Recv` candidate has already had its response delivered
    /// (its `Respond` dispatched earlier), so resuming the guest here is
    /// the same rendezvous the event itself would perform.
    fn stage_op(&mut self, core: CoreId) {
        if self.ctl[core].staged_op.is_some() {
            return;
        }
        let op = self.recv_op(0, core);
        self.ctl[core].staged_op = Some(op);
    }

    /// Describe an event's footprint for the dependence relation. The
    /// mapping errs conservative: anything that can touch state shared
    /// beyond one core + one LLC bank is marked `global`.
    fn describe(&self, ev: &Ev) -> EvDesc {
        let bank_of = |line: sim_core::types::LineAddr| (line.0 as usize) % self.cfg.num_banks();
        let mut d = match ev {
            Ev::Recv(c) => {
                let mut d = EvDesc {
                    class: EvClass::Recv,
                    cores: 1 << c,
                    line: None,
                    bank: None,
                    global: false,
                    sync: false,
                    id: 0,
                };
                match self.ctl[*c].staged_op {
                    Some(GuestOp::Load(a) | GuestOp::Store(a, _) | GuestOp::Cas(a, ..)) => {
                        d.line = Some(a.line());
                        d.bank = Some(bank_of(a.line()));
                    }
                    Some(GuestOp::Compute(_) | GuestOp::TTest | GuestOp::TxBegin)
                    | Some(GuestOp::SpinBegin | GuestOp::SpinEnd) => {}
                    // Commit/abort/lock transitions fan wake-ups and HLA
                    // traffic out to arbitrary cores — global, but the
                    // shared state is pure sync machinery, so a static
                    // analysis may refine it (see `EvDesc::sync`).
                    Some(
                        GuestOp::TxCommit
                        | GuestOp::TxAbortUser
                        | GuestOp::HlBegin
                        | GuestOp::HlEnd
                        | GuestOp::FallbackBegin
                        | GuestOp::FallbackEnd,
                    ) => {
                        d.global = true;
                        d.sync = true;
                    }
                    // Barrier and page faults touch engine-global state
                    // beyond sync machinery. None (unstaged) only happens
                    // on the unscheduled path.
                    _ => d.global = true,
                }
                d
            }
            Ev::Respond(c, _) => EvDesc {
                class: EvClass::Respond,
                cores: 1 << c,
                line: None,
                bank: None,
                global: false,
                sync: false,
                id: 0,
            },
            Ev::Net(m) => self.describe_net(m),
            Ev::Notice(n) => {
                let (core, global) = match n {
                    CoreNotice::AccessDone { core }
                    | CoreNotice::AccessRejected { core, .. }
                    | CoreNotice::TxAborted { core, .. }
                    | CoreNotice::Wakeup { core } => (*core, false),
                    // HlaResult triggers enter_lock / finish_hla, which
                    // release or acquire globally shared lock state.
                    CoreNotice::HlaResult { core, .. } => (*core, true),
                };
                EvDesc {
                    class: EvClass::Notice,
                    cores: 1 << core,
                    line: None,
                    bank: None,
                    global,
                    // The only global notice is HlaResult: lock-mode sync
                    // machinery, refinable against proven-pure cores.
                    sync: global,
                    id: 0,
                }
            }
            Ev::Retry(c, _) | Ev::ParkTimeout(c, _) => {
                // A firing retry reissues the parked access.
                let line = match self.ctl[*c].cur_op {
                    Some(GuestOp::Load(a) | GuestOp::Store(a, _) | GuestOp::Cas(a, ..)) => {
                        Some(a.line())
                    }
                    _ => None,
                };
                EvDesc {
                    class: if matches!(ev, Ev::Retry(..)) {
                        EvClass::Retry
                    } else {
                        EvClass::ParkTimeout
                    },
                    cores: 1 << c,
                    line,
                    bank: line.map(bank_of),
                    global: false,
                    sync: false,
                    id: 0,
                }
            }
        };
        d.id = self.event_id(ev);
        d
    }

    fn describe_net(&self, m: &NetMsg) -> EvDesc {
        let bank_of = |line: sim_core::types::LineAddr| (line.0 as usize) % self.cfg.num_banks();
        let mut d = EvDesc {
            class: EvClass::Net,
            cores: 0,
            line: None,
            bank: None,
            global: false,
            sync: false,
            id: 0,
        };
        match m {
            NetMsg::Req(req) => {
                d.cores = 1 << req.core;
                d.line = Some(req.line);
            }
            NetMsg::PutM { core, line }
            | NetMsg::PutClean { core, line }
            | NetMsg::SpecWb { core, line }
            | NetMsg::Unblock { core, line } => {
                d.cores = 1 << core;
                d.line = Some(*line);
            }
            // Overflow signatures are consulted by every HTM request.
            NetMsg::SigAdd { line, .. } => {
                d.line = Some(*line);
                d.global = true;
            }
            NetMsg::FwdGetS { to, req } | NetMsg::Inv { to, req, .. } => {
                d.cores = (1 << to) | (1 << req.core);
                d.line = Some(req.line);
            }
            NetMsg::ProbeRsp { from, req, .. } => {
                d.cores = (1 << from) | (1 << req.core);
                d.line = Some(req.line);
            }
            NetMsg::Grant { to, line, .. }
            | NetMsg::RspReject { to, line, .. }
            | NetMsg::DirectData { to, line, .. } => {
                d.cores = 1 << to;
                d.line = Some(*line);
            }
            NetMsg::Wakeup { to } => d.cores = 1 << to,
            // HLA arbiter traffic serializes at one global point — sync
            // machinery only, so refinable against proven-pure cores.
            NetMsg::HlaReq { core, .. } | NetMsg::HlaRel { core } => {
                d.cores = 1 << core;
                d.global = true;
                d.sync = true;
            }
            NetMsg::HlaRsp { to, .. } => {
                d.cores = 1 << to;
                d.global = true;
                d.sync = true;
            }
        }
        d.bank = d.line.map(bank_of);
        d
    }

    /// Stable identity hash for an event: used by the explorer to match
    /// "the same" event across replays of one decision prefix. Park/
    /// retry sequence tags are volatile (they depend on unrelated
    /// scheduling) and are normalized to whether they match the core's
    /// current park.
    fn event_id(&self, ev: &Ev) -> u64 {
        let mut h = FxHasher::default();
        match ev {
            Ev::Recv(c) => ("recv", c, self.ctl[*c].staged_op).hash(&mut h),
            Ev::Respond(c, resp) => ("respond", c, resp).hash(&mut h),
            Ev::Net(m) => ("net", m).hash(&mut h),
            Ev::Notice(n) => ("notice", n).hash(&mut h),
            Ev::Retry(c, seq) => ("retry", c, self.ctl[*c].parked == Some(*seq)).hash(&mut h),
            Ev::ParkTimeout(c, seq) => ("park", c, self.ctl[*c].parked == Some(*seq)).hash(&mut h),
        }
        h.finish()
    }

    /// FxHash fingerprint of the architectural state: per-core controller
    /// state (volatile accounting excluded), write buffers, flat memory,
    /// the pending event queue (volatile sequence tags normalized), and
    /// the memory subsystem. Guest-thread state is covered by each
    /// core's response-history hash (`resp_hash`): a deterministic
    /// guest's position is a pure function of the responses it has seen.
    ///
    /// Used by the schedule explorer to merge states reached by
    /// different interleavings; a collision-free fingerprint match
    /// implies identical continuations.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        for (i, c) in self.ctl.iter().enumerate() {
            (i, c.in_tx, c.is_stl, c.tx_insts, c.tx_refs).hash(&mut h);
            (
                c.switch_tried,
                c.respond_scheduled,
                c.parked.is_some(),
                c.wakeup_banked,
                c.switch_pending,
                c.tl_pending,
                c.finished,
                c.resp_hash,
            )
                .hash(&mut h);
            (c.doomed, c.cur_op, c.deferred_op, c.staged_op).hash(&mut h);
        }
        for (i, b) in self.bufs.iter().enumerate() {
            (i, b.len()).hash(&mut h);
            b.for_each_sorted(|a, v| (a.0, v).hash(&mut h));
        }
        self.mem.digest().hash(&mut h);
        self.barrier_waiting.hash(&mut h);
        self.done_count.hash(&mut h);
        // Pages are monotone; XOR keeps the fold order-independent.
        let mut pages = 0u64;
        for p in &self.touched_pages {
            let mut ph = FxHasher::default();
            p.hash(&mut ph);
            pages ^= ph.finish();
        }
        pages.hash(&mut h);
        self.q.for_each_sorted(|at, ev| {
            at.hash(&mut h);
            self.event_id(ev).hash(&mut h);
        });
        self.ms.fingerprint(&mut h);
        h.finish()
    }

    /// Consume the engine, producing run statistics.
    pub fn into_stats(mut self) -> (RunStats, FlatMem) {
        self.stats.cycles = self.end_time;
        for c in 0..self.threads {
            let tracker = std::mem::take(&mut self.ctl[c].tracker);
            self.stats.merge_core(c, &tracker);
        }
        self.stats.rejects = self.ms.stats.rejects;
        self.stats.sig_rejects = self.ms.stats.sig_rejects;
        self.stats.wakeups = self.ms.stats.wakeups_sent;
        let noc = self.ms.noc_stats();
        self.stats.messages = noc.messages;
        self.stats.hops = noc.hops;
        self.stats.flit_hops = noc.flit_hops;
        self.stats.noc_queue_cycles = noc.queue_cycles;
        self.stats.noc_link_busy = noc.link_busy.clone();
        let banks = self.ms.bank_stats();
        self.stats.bank_hits = banks.hits;
        self.stats.bank_misses = banks.misses;
        self.stats.bank_queued = banks.queued;
        self.stats.bank_queue_peak = banks.queue_peak;
        self.stats.threads = self.threads;
        (self.stats, self.mem)
    }

    /// Diagnostic dump used by the cycle watchdog.
    fn dump_state(&self, t: Cycle) {
        eprintln!("=== engine state at cycle {t} ===");
        for (c, ctl) in self.ctl.iter().enumerate() {
            eprintln!(
                "core {c}: finished={} in_tx={} stl={} parked={:?} cur_op={:?} deferred={:?} doomed={:?} resp_sched={} tl_pend={} sw_pend={} ms_mode={:?} ms_pending={}",
                ctl.finished,
                ctl.in_tx,
                ctl.is_stl,
                ctl.parked,
                ctl.cur_op,
                ctl.deferred_op,
                ctl.doomed,
                ctl.respond_scheduled,
                ctl.tl_pending,
                ctl.switch_pending,
                self.ms.core_mode(c),
                self.ms.has_pending(c),
            );
        }
        eprintln!(
            "stats: commits={} aborts={:?} rejects={} sig_rejects={} wakeups={} timeouts={} fallbacks={} switches={}/{}",
            self.stats.commits,
            self.stats.aborts,
            self.ms.stats.rejects,
            self.ms.stats.sig_rejects,
            self.ms.stats.wakeups_sent,
            self.stats.wakeup_timeouts,
            self.stats.fallbacks,
            self.stats.switches_granted,
            self.stats.switches_denied,
        );
    }

    // ---------------- op handling ----------------

    fn update_prio(&mut self, core: CoreId) {
        let p = match self.cfg.policy.priority {
            PriorityKind::InstsBased => self.ctl[core].tx_insts,
            PriorityKind::ProgressionBased => self.ctl[core].tx_refs,
            PriorityKind::RequesterWins | PriorityKind::Fcfs => 0,
        };
        // Seeded bug for checker validation: priorities decay as the
        // transaction makes progress instead of accumulating, violating
        // the monotonicity the recovery argument depends on.
        let p = if self.cfg.check.fault.prio_decay {
            PRIO_DECAY_BASE.saturating_sub(p)
        } else {
            p
        };
        self.ms.set_prio(core, p);
    }

    fn handle_op(&mut self, t: Cycle, core: CoreId, op: GuestOp) {
        // A protocol abort that arrived between ops is delivered on the
        // next transactional interaction. If the memory subsystem has
        // already aborted us but its notice has not landed yet, defer the
        // op and answer it with the abort when the notice arrives.
        if self.ctl[core].in_tx {
            if let Some(cause) = self.ctl[core].doomed.take() {
                self.deliver_abort(t, core, cause);
                return;
            }
            if self.ms.core_mode(core) == TxMode::None {
                self.ctl[core].deferred_op = Some(op);
                return;
            }
        }
        match op {
            GuestOp::Compute(n) => {
                if self.ctl[core].in_tx {
                    self.ctl[core].tx_insts += n;
                    self.update_prio(core);
                }
                self.schedule_respond(core, t + n, GuestResp::Done);
            }
            GuestOp::Load(_) | GuestOp::Store(..) | GuestOp::Cas(..) => {
                self.start_access(t, core, op, false);
            }
            GuestOp::TxBegin => {
                self.emit(t, core, EngineEvent::TxBegin);
                self.ms.begin_htm(core, 0);
                let c = &mut self.ctl[core];
                c.in_tx = true;
                c.is_stl = false;
                c.switch_tried = false;
                c.tx_insts = 0;
                c.tx_refs = 0;
                c.tx_begin_at = t;
                self.update_prio(core);
                self.attr(core, t);
                self.ctl[core].spec = true;
                self.schedule_respond(core, t + 2, GuestResp::Done);
            }
            GuestOp::TTest => {
                let v = match self.ms.core_mode(core) {
                    TxMode::LockStl => TTest::STL,
                    TxMode::LockTl => TTest::TL,
                    _ => TTest::HTM,
                };
                self.schedule_respond(core, t + 1, GuestResp::Value(v));
            }
            GuestOp::TxCommit => {
                debug_assert!(!self.ctl[core].is_stl, "STL commits via hlend");
                let (rs, ws) = self.ms.tx_set_sizes(core);
                self.stats.rs_lines_sum += rs;
                self.stats.ws_lines_sum += ws;
                self.stats.tx_cycles_sum += t - self.ctl[core].tx_begin_at;
                self.ms.commit_htm(t, core);
                self.drain_ms();
                let buf = &mut self.bufs[core];
                buf.commit(&mut self.mem);
                self.emit(t, core, EngineEvent::Commit);
                self.ctl[core].in_tx = false;
                self.ctl[core].resolve = Some(Phase::Htm);
                self.ctl[core].phase_after = Some(Phase::NonTran);
                self.schedule_respond(core, t + self.cfg.commit_penalty, GuestResp::Done);
            }
            GuestOp::TxAbortUser => {
                // _xabort: lock observed taken at subscription time.
                self.do_abort(t, core, AbortCause::Mutex);
            }
            GuestOp::HlBegin => {
                if self.cfg.policy.switching_mode {
                    // TL entry also needs the LLC's authorization when
                    // switchingMode may have an STL holder (§III-C).
                    // The lifecycle opens now so arbitration wait counts
                    // toward the lock-commit latency; the hold interval
                    // opens at the grant.
                    self.ctl[core].tl_pending = true;
                    self.request_hla(t, core, false);
                } else {
                    self.enter_tl(t, core, false);
                }
            }
            GuestOp::HlEnd => {
                let stl = self.ctl[core].is_stl;
                self.emit(t, core, EngineEvent::HlEnd { stl });
                if stl {
                    let (rs, ws) = self.ms.tx_set_sizes(core);
                    self.stats.rs_lines_sum += rs;
                    self.stats.ws_lines_sum += ws;
                    self.stats.tx_cycles_sum += t - self.ctl[core].tx_begin_at;
                }
                self.ms.exit_lock(t, core);
                self.drain_ms();
                let c = &mut self.ctl[core];
                if stl {
                    c.in_tx = false;
                    c.is_stl = false;
                    c.resolve = Some(Phase::SwitchLock);
                }
                c.phase_after = Some(Phase::NonTran);
                self.schedule_respond(core, t + 2, GuestResp::Done);
            }
            GuestOp::SpinBegin => {
                self.set_phase(core, t, Phase::WaitLock);
                self.schedule_respond(core, t, GuestResp::Done);
            }
            GuestOp::SpinEnd => {
                self.set_phase(core, t, Phase::NonTran);
                self.schedule_respond(core, t, GuestResp::Done);
            }
            GuestOp::FallbackBegin => {
                self.ms.set_fallback(core, true);
                self.emit(t, core, EngineEvent::Fallback);
                self.set_phase(core, t, Phase::Lock);
                self.schedule_respond(core, t, GuestResp::Done);
            }
            GuestOp::FallbackEnd => {
                self.ms.set_fallback(core, false);
                self.emit(t, core, EngineEvent::FallbackEnd);
                self.set_phase(core, t, Phase::NonTran);
                self.schedule_respond(core, t, GuestResp::Done);
            }
            GuestOp::PageTouch(p) => {
                if self.touched_pages.contains(&p) {
                    self.schedule_respond(core, t, GuestResp::Done);
                } else {
                    // Demand-paging fault: maps the page either way; inside
                    // an HTM transaction it aborts (best-effort HTM does
                    // not survive exceptions, and switchingMode explicitly
                    // does not cover faults — §III-C).
                    self.touched_pages.insert(p);
                    if self.ms.core_mode(core) == TxMode::Htm {
                        self.do_abort(t, core, AbortCause::Fault);
                    } else {
                        self.schedule_respond(core, t + self.cfg.fault_service, GuestResp::Done);
                    }
                }
            }
            GuestOp::Barrier => {
                self.set_phase(core, t, Phase::NonTran);
                self.barrier_waiting.push(core);
                let live = self.threads - self.done_count;
                if self.barrier_waiting.len() == live {
                    let waiters = std::mem::take(&mut self.barrier_waiting);
                    for w in waiters {
                        self.schedule_respond(w, t + 1, GuestResp::Done);
                    }
                }
            }
            GuestOp::Exit => {
                self.attr(core, t);
                self.ctl[core].finished = true;
                self.done_count += 1;
                self.end_time = self.end_time.max(t);
                // Anyone blocked on a barrier with us gone would hang; a
                // well-formed workload exits only after its last barrier.
                let live = self.threads - self.done_count;
                if live > 0
                    && !self.barrier_waiting.is_empty()
                    && self.barrier_waiting.len() == live
                {
                    let waiters = std::mem::take(&mut self.barrier_waiting);
                    for w in waiters {
                        self.schedule_respond(w, t + 1, GuestResp::Done);
                    }
                }
            }
        }
    }

    // ---------------- memory accesses ----------------

    fn start_access(&mut self, t: Cycle, core: CoreId, op: GuestOp, reissue: bool) {
        let (addr, kind) = match op {
            GuestOp::Load(a) => (a, AccessKind::Load),
            GuestOp::Store(a, _) | GuestOp::Cas(a, ..) => (a, AccessKind::Store),
            _ => unreachable!(),
        };
        if !reissue && self.ctl[core].in_tx {
            self.ctl[core].tx_insts += 1;
            self.ctl[core].tx_refs += 1;
            self.update_prio(core);
        }
        self.ctl[core].cur_op = Some(op);
        // Every arm drains the memory system first, so the drain hoists
        // above the match (and into the coherence profiling scope).
        self.prof_enter(ProfPhase::Coherence);
        let res = self.ms.access(t, core, addr.line(), kind);
        self.drain_ms();
        self.prof_exit();
        match res {
            AccessResult::Done { at } => self.complete_access(at, core),
            AccessResult::Pending => {}
            AccessResult::Overflow { .. } => self.handle_overflow(t, core),
        }
    }

    /// Ask the LLC's HLA arbiter for a TL entry or an STL switch; the
    /// answer arrives as [`CoreNotice::HlaResult`].
    fn request_hla(&mut self, t: Cycle, core: CoreId, stl: bool) {
        self.emit(t, core, EngineEvent::HlaRequest { stl });
        self.ms.hla_request(t, core, stl);
        self.drain_ms();
    }

    /// Enter a TL lock transaction (`hlbegin`), on an HLA grant if
    /// `granted`.
    fn enter_tl(&mut self, t: Cycle, core: CoreId, granted: bool) {
        self.ms.enter_lock(core, false);
        if granted {
            // Record the grant so hlend releases the arbiter.
            self.ms.finish_hla(t, core, true);
            self.drain_ms();
        }
        self.emit(t, core, EngineEvent::HlBegin { granted });
        self.set_phase(core, t, Phase::Lock);
        self.schedule_respond(core, t + 2, GuestResp::Done);
    }

    /// Capacity overflow in HTM mode: proactive switch (Fig. 6) or abort.
    fn handle_overflow(&mut self, t: Cycle, core: CoreId) {
        let can_switch = self.cfg.policy.switching_mode
            && self.cfg.policy.htmlock
            && !self.ctl[core].switch_tried
            && self.ctl[core].in_tx;
        if can_switch {
            self.ctl[core].switch_tried = true;
            self.ctl[core].switch_pending = true;
            self.request_hla(t, core, true);
        } else {
            self.do_abort(t, core, AbortCause::Of);
        }
    }

    /// Value semantics at access completion time.
    fn complete_access(&mut self, t: Cycle, core: CoreId) {
        self.ctl[core].wakeup_banked = false;
        let op = self.ctl[core].cur_op.take().expect("completion without op");
        // Buffer speculative values based on the ENGINE's view of the
        // transaction, not the memory subsystem's: a protocol abort may
        // already have flipped the memsys mode to None while its notice
        // is still queued behind this completion — writing flat memory
        // then would leak a dying transaction's store (the abort notice
        // converts the response to Aborted and discards the buffer).
        let htm = self.ctl[core].in_tx && !self.ctl[core].is_stl;
        let read = |e: &Self, a: Addr| {
            if htm {
                e.bufs[core].read(&e.mem, a)
            } else {
                e.mem.read(a)
            }
        };
        // `(address, value read, value written)`.
        let (a, loaded, stored) = match op {
            GuestOp::Load(a) => (a, Some(read(self, a)), None),
            GuestOp::Store(a, v) => (a, None, Some(v)),
            GuestOp::Cas(a, expected, new) => {
                let cur = read(self, a);
                (a, Some(cur), (cur == expected).then_some(new))
            }
            other => unreachable!("complete_access on {other:?}"),
        };
        // Access events are emitted at the instant the value resolves:
        // stream order therefore matches flat-memory / write-buffer
        // visibility order exactly, which is what the serializability
        // checker keys its edges on.
        let line = a.line();
        if loaded.is_some() {
            let prio = self.ms.prio_of(core);
            self.emit(t, core, EngineEvent::Read { line, prio });
        }
        if let Some(v) = stored {
            if htm {
                self.bufs[core].write(a, v);
            } else {
                self.mem.write(a, v);
            }
            let buffered = htm;
            self.emit(t, core, EngineEvent::Write { line, buffered });
        }
        let resp = loaded.map_or(GuestResp::Done, GuestResp::Value);
        self.schedule_respond(core, t, resp);
    }

    fn reissue(&mut self, t: Cycle, core: CoreId) {
        let op = self.ctl[core].cur_op.take().expect("reissue without op");
        self.start_access(t, core, op, true);
    }

    // ---------------- aborts ----------------

    /// Engine-initiated abort (explicit xabort, fault, overflow, failed
    /// switch, self-abort on reject).
    fn do_abort(&mut self, t: Cycle, core: CoreId, cause: AbortCause) {
        self.ms.abort_locally(t, core);
        self.drain_ms();
        self.stats.record_abort(cause);
        self.deliver_abort(t, core, cause);
    }

    /// Common abort delivery (memory-subsystem side already cleaned up).
    fn deliver_abort(&mut self, t: Cycle, core: CoreId, cause: AbortCause) {
        self.bufs[core].discard();
        self.attr(core, t);
        let parked = self.ctl[core].parked.is_some();
        self.emit(t, core, EngineEvent::Abort { cause, parked });
        let c = &mut self.ctl[core];
        c.tracker.resolve_spec(Phase::Aborted);
        c.spec = false;
        c.in_tx = false;
        c.is_stl = false;
        debug_assert!(!c.switch_pending, "abort cannot race an applyingHLA switch");
        c.cur_op = None;
        c.deferred_op = None;
        c.parked = None;
        c.wakeup_banked = false;
        c.doomed = None;
        c.phase = Phase::Rollback;
        c.phase_after = Some(Phase::NonTran);
        self.ms.cancel_pending(core);
        self.schedule_respond(core, t + self.cfg.abort_penalty, GuestResp::Aborted(cause));
    }

    // ---------------- notices ----------------

    fn handle_notice(&mut self, t: Cycle, n: CoreNotice) {
        match n {
            CoreNotice::AccessDone { core } => {
                if self.ctl[core].cur_op.is_some() && self.ctl[core].parked.is_none() {
                    self.complete_access(t, core);
                }
            }
            CoreNotice::AccessRejected { core, by_sig } => {
                self.emit(t, core, EngineEvent::Rejected { by_sig });
                self.handle_reject(t, core, by_sig);
            }
            CoreNotice::TxAborted { core, cause } => {
                // Protocol-side abort (probe loss / back-invalidation).
                self.stats.record_abort(cause);
                if self.ctl[core].respond_scheduled {
                    // Mid-compute or similar: convert the scheduled
                    // response into an abort when it fires.
                    self.bufs[core].discard();
                    self.ctl[core].doomed = Some(cause);
                } else if self.ctl[core].cur_op.is_some() || self.ctl[core].deferred_op.is_some() {
                    // Blocked in the coherence layer, parked, or an op was
                    // deferred waiting for exactly this notice.
                    self.deliver_abort(t, core, cause);
                } else {
                    // Between ops: deliver on the next one.
                    self.bufs[core].discard();
                    self.ctl[core].doomed = Some(cause);
                }
            }
            CoreNotice::Wakeup { core } => {
                if self.ctl[core].parked.is_some() {
                    self.ctl[core].wakeup_banked = false;
                    self.unpark(t, core, ParkEnd::Woken);
                } else if self.ctl[core].cur_op.is_some() {
                    // The reject this wake-up answers is still in flight
                    // (wake-ups travel core-to-core and can overtake the
                    // directory's reject response). Bank it.
                    self.ctl[core].wakeup_banked = true;
                }
            }
            CoreNotice::HlaResult { core, granted } => {
                if self.ctl[core].tl_pending {
                    assert!(
                        granted,
                        "TL authorization is granted or queued, never denied"
                    );
                    self.ctl[core].tl_pending = false;
                    self.enter_tl(t, core, true);
                } else if self.ctl[core].switch_pending {
                    self.ctl[core].switch_pending = false;
                    if granted {
                        // Successful proactive switch: speculative state
                        // becomes permanent, priority becomes lock-level,
                        // and the blocked access retries in STL mode.
                        self.ms.enter_lock(core, true);
                        self.bufs[core].commit(&mut self.mem);
                        self.ms.finish_hla(t, core, true);
                        self.drain_ms();
                        self.ctl[core].is_stl = true;
                        self.emit(t, core, EngineEvent::SwitchGranted);
                        self.reissue(t, core);
                    } else {
                        self.ms.finish_hla(t, core, false);
                        self.drain_ms();
                        self.emit(t, core, EngineEvent::SwitchDenied);
                        self.do_abort(t, core, AbortCause::Of);
                    }
                }
            }
        }
    }

    fn handle_reject(&mut self, t: Cycle, core: CoreId, by_sig: bool) {
        let action = self.cfg.policy.reject_action;
        match action {
            RejectAction::SelfAbort if self.ctl[core].in_tx && !by_sig => {
                self.do_abort(t, core, AbortCause::Mc);
                return;
            }
            RejectAction::RetryLater => {}
            // WaitWakeup (and non-tx/sig rejects under SelfAbort, which
            // cannot abort anything useful): park until the rejecter's
            // commit/abort/hlend wakes us — unless the wake-up already
            // arrived, in which case retry now.
            _ if self.ctl[core].wakeup_banked => {
                self.ctl[core].wakeup_banked = false;
                self.emit(t, core, EngineEvent::WakeBanked);
                self.reissue(t, core);
                return;
            }
            _ => {}
        }
        let seq = self.next_seq();
        self.ctl[core].parked = Some(seq);
        self.emit(t, core, EngineEvent::Park);
        if action == RejectAction::RetryLater {
            self.q
                .schedule_at(t + self.cfg.policy.retry_pause, Ev::Retry(core, seq));
        } else if self.cfg.policy.wakeup_timeout != Cycle::MAX {
            // wakeup_timeout == Cycle::MAX disables the safety net
            // entirely (schedule-explorer mode: a lost wake-up must
            // surface as a deadlock, not a silent timeout recovery).
            self.q.schedule_at(
                t + self.cfg.policy.wakeup_timeout,
                Ev::ParkTimeout(core, seq),
            );
        }
    }

    /// End `core`'s park and reissue its request.
    fn unpark(&mut self, t: Cycle, core: CoreId, how: ParkEnd) {
        self.ctl[core].parked = None;
        self.emit(t, core, EngineEvent::Unpark(how));
        self.reissue(t, core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatmem::SetupCtx;
    use crate::trace::Trace;

    /// A guest replaying a fixed op list, then exiting.
    struct Script(std::vec::IntoIter<GuestOp>);

    impl GuestExec for Script {
        fn resume(&mut self, _resp: GuestResp) -> GuestOp {
            self.0.next().unwrap_or(GuestOp::Exit)
        }
    }

    /// Run `txns` single-store transactions on one core with `trace`
    /// installed; returns the stats and the trace.
    fn run_script(txns: u64, trace: Trace) -> (RunStats, Trace) {
        let mut setup = SetupCtx::new();
        let lock = setup.alloc(8);
        let data = setup.alloc(8);
        let (mem, pages) = setup.into_mem();
        let mut e = Engine::new(SystemConfig::testing(2), mem, 1, lock, pages);
        e.stream.trace = trace;
        let ops: Vec<GuestOp> = (0..txns)
            .flat_map(|i| [GuestOp::TxBegin, GuestOp::Store(data, i), GuestOp::TxCommit])
            .collect();
        e.register(0, Box::new(Script(ops.into_iter())));
        assert!(e.run_with(None).is_done());
        let trace = std::mem::take(&mut e.stream.trace);
        let (stats, _) = e.into_stats();
        (stats, trace)
    }

    #[test]
    fn trace_dropped_counts_exactly_the_events_over_capacity() {
        let (full_stats, full) = run_script(5, Trace::enabled());
        assert_eq!(full_stats.trace_dropped, 0);
        assert_eq!(full.events().len(), 10, "TxBegin + Commit per transaction");
        let (stats, capped) = run_script(5, Trace::with_capacity(3));
        assert_eq!(capped.events(), &full.events()[..3], "prefix retained");
        assert_eq!(capped.dropped(), 7);
        assert_eq!(stats.trace_dropped, 7);
    }
}
