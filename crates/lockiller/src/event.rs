//! The engine's event stream: one typed [`EngineEvent`] per protocol
//! point, emitted once by the engine and folded here into every
//! consumer.
//!
//! The engine never talks to a consumer directly. At each protocol
//! point — HTM attempt begin/commit/abort, TL/STL lock-transaction
//! entry and `hlend`, the switchingMode HLA request and its grant or
//! denial, the reject → park → wake-up/retry/timeout ladder, and each
//! resolved access — it calls [`EventStream::emit`] once. The folds
//! below derive everything else from that one call:
//!
//! - **accounting** — the per-core [`TxnLifecycle`] stamps behind
//!   `RunStats.latency`, plus the outcome counters (`commits`,
//!   `fallbacks`, `switches_granted`, …). Always on.
//! - **trace storage** — [`EngineEvent::trace_kind`] maps an event to
//!   its [`TraceKind`] (checked-mode-only kinds gated there) and the
//!   bounded [`Trace`] stores it; drops are counted into
//!   `RunStats.trace_dropped` as they happen.
//! - **spans** — with an observability sink attached, [`obs_spans`]
//!   maps an event to the span begins/ends and conflict edges the sink
//!   records.
//! - **debug log** — `LOCKILLER_TRACE` prints every event to stderr,
//!   one line each.
//!
//! Every fold is write-only: nothing here feeds back into the
//! simulation, so cycles and state fingerprints are independent of
//! which consumers are attached.

use crate::trace::{Trace, TraceKind};
use coherence::memsys::ProtoEvent;
use sim_core::latency::{TxnClass, TxnLifecycle};
use sim_core::obs::{ConflictEdge, ObsEvent, ObsHandle, SpanEnd, SpanKind, Track};
use sim_core::stats::{AbortCause, RunStats};
use sim_core::types::{CoreId, Cycle, LineAddr};

/// How a recovery park ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParkEnd {
    /// A wake-up message arrived.
    Woken,
    /// The RetryLater pause elapsed.
    Retried,
    /// The wake-up safety-net timeout fired (should never happen).
    Timeout,
}

/// One engine protocol point, stamped by [`EventStream::emit`] with the
/// cycle and the acting core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineEvent {
    /// `xbegin` — a speculative attempt starts.
    TxBegin,
    /// `xend` — speculative commit.
    Commit,
    /// Abort delivered to the guest; `parked` when it cut a park short.
    Abort { cause: AbortCause, parked: bool },
    /// LLC authorization (HLA) requested: a TL entry under switchingMode
    /// (`stl == false`) or a proactive switch on overflow (`stl == true`).
    HlaRequest { stl: bool },
    /// TL lock transaction entered (`hlbegin`); `granted` when the entry
    /// waited for an HLA grant.
    HlBegin { granted: bool },
    /// TL (`stl == false`) or STL lock transaction finished (`hlend`).
    HlEnd { stl: bool },
    /// Proactive switch authorized: the transaction continues as STL.
    SwitchGranted,
    /// Proactive switch denied (another lock transaction active).
    SwitchDenied,
    /// The retry loop gave up and took the fallback path.
    Fallback,
    /// Fallback critical section finished (lock released).
    FallbackEnd,
    /// This core's request was rejected by the recovery mechanism
    /// (`by_sig` = by the LLC overflow signatures).
    Rejected { by_sig: bool },
    /// The rejected request parked (RetryLater pause or wait-for-wakeup).
    Park,
    /// The park ended; the request reissues.
    Unpark(ParkEnd),
    /// A wake-up overtook its reject: the request reissues without
    /// parking.
    WakeBanked,
    /// A load resolved its value; `prio` is the recovery priority the
    /// core held at that instant.
    Read { line: LineAddr, prio: u64 },
    /// A store resolved; `buffered` for HTM writes (visible at commit).
    Write { line: LineAddr, buffered: bool },
    /// This core NACKed `to`'s request for `line` (checked mode only).
    NackSent { to: CoreId, line: LineAddr },
    /// This core sent a wake-up to `to` (checked mode only).
    WakeSent { to: CoreId },
    /// A conflict edge resolved by the protocol (only while an
    /// observability sink is attached).
    Conflict(ConflictEdge),
}

impl EngineEvent {
    /// Translate a memory-system observation into `(acting core, event)`.
    pub fn from_proto(ev: ProtoEvent) -> (CoreId, EngineEvent) {
        match ev {
            ProtoEvent::NackSent { from, to, line } => (from, EngineEvent::NackSent { to, line }),
            ProtoEvent::WakeSent { from, to } => (from, EngineEvent::WakeSent { to }),
            ProtoEvent::Conflict(edge) => (edge.attacker, EngineEvent::Conflict(edge)),
        }
    }

    /// The record the structured trace stores for this event, if any.
    /// Access-level, protocol-level, fallback-end, banked-wake-up, and
    /// timeout records are stored in checked mode only; access records
    /// carry `txn`, the acting core's atomic-section id.
    #[inline]
    pub fn trace_kind(self, checked: bool, txn: u64) -> Option<TraceKind> {
        use EngineEvent as E;
        let kind = match self {
            E::TxBegin => TraceKind::TxBegin,
            E::Commit => TraceKind::Commit,
            E::Abort { cause, .. } => TraceKind::Abort(cause),
            E::HlBegin { .. } => TraceKind::HlBegin,
            E::HlEnd { .. } => TraceKind::HlEnd,
            E::SwitchGranted => TraceKind::SwitchGranted,
            E::SwitchDenied => TraceKind::SwitchDenied,
            E::Fallback => TraceKind::Fallback,
            E::Rejected { by_sig } => TraceKind::Rejected { by_sig },
            E::Unpark(ParkEnd::Woken) => TraceKind::Woken,
            E::HlaRequest { .. } | E::Park | E::Unpark(ParkEnd::Retried) | E::Conflict(_) => {
                return None
            }
            _ if !checked => return None,
            E::FallbackEnd => TraceKind::FallbackEnd,
            E::WakeBanked => TraceKind::Woken,
            E::Unpark(ParkEnd::Timeout) => TraceKind::WakeTimeout,
            E::Read { line, prio } => TraceKind::Read { line, txn, prio },
            E::Write { line, buffered } => TraceKind::Write {
                line,
                txn,
                buffered,
            },
            E::NackSent { to, line } => TraceKind::NackSent { to, line },
            E::WakeSent { to } => TraceKind::WakeSent { to },
        };
        Some(kind)
    }
}

/// The consumers of the engine's events (see the module docs).
pub struct EventStream {
    /// Structured trace storage (disabled unless tracing was requested).
    pub trace: Trace,
    /// Observability sink; `None` is the uninstrumented fast path.
    pub obs: Option<ObsHandle>,
    /// Per-core lifecycle trackers. Deliberately outside the engine's
    /// fingerprinted controller state: lifecycle stamps are volatile
    /// accounting and must not perturb tmverify's state dedup.
    life: Vec<TxnLifecycle>,
    /// Per-core atomic-section id stamped on access records (0 = outside
    /// any). Every speculative attempt, TL/STL lock transaction, and
    /// fallback critical section gets a fresh id; retries of the same
    /// static transaction get new ids.
    txn: Vec<u64>,
    txn_counter: u64,
    checked: bool,
    /// `LOCKILLER_TRACE`, read once: the printer formats eagerly.
    print: bool,
}

impl EventStream {
    pub fn new(threads: usize, checked: bool) -> EventStream {
        EventStream {
            trace: Trace::default(),
            obs: None,
            life: vec![TxnLifecycle::default(); threads],
            txn: vec![0; threads],
            txn_counter: 0,
            checked,
            print: std::env::var_os("LOCKILLER_TRACE").is_some(),
        }
    }

    /// Fold one event into every consumer. Inlined so each call site's
    /// constant event variant folds the matches below down to its own
    /// arm.
    #[inline(always)]
    pub fn emit(&mut self, t: Cycle, core: CoreId, ev: EngineEvent, stats: &mut RunStats) {
        self.account(t, core, ev, stats);
        if self.trace.is_enabled() {
            if let Some(kind) = ev.trace_kind(self.checked, self.txn[core]) {
                if !self.trace.record(t, core, kind) {
                    stats.trace_dropped += 1;
                }
            }
        }
        if let Some(o) = &self.obs {
            obs_spans(o, t, core, ev);
        }
        if self.print {
            eprintln!("[{t}] c{core} {ev:?}");
        }
    }

    /// Atomic-section ids, latency lifecycles, and outcome counters.
    #[inline]
    fn account(&mut self, t: Cycle, core: CoreId, ev: EngineEvent, stats: &mut RunStats) {
        use EngineEvent as E;
        match ev {
            E::TxBegin | E::HlBegin { .. } | E::Fallback => {
                self.txn_counter += 1;
                self.txn[core] = self.txn_counter;
            }
            E::Commit | E::Abort { .. } | E::HlEnd { .. } | E::FallbackEnd => self.txn[core] = 0,
            _ => {}
        }
        let lat = &mut stats.latency;
        match ev {
            E::TxBegin => {
                stats.tx_starts += 1;
                self.life[core].begin_attempt(t);
            }
            E::HlaRequest { stl: false } => self.life[core].begin_attempt(t),
            E::Commit => {
                stats.commits += 1;
                self.life[core].commit(t, TxnClass::HtmCommit, lat);
            }
            E::Abort { cause, .. } => self.life[core].on_abort(t, cause, lat),
            E::HlBegin { .. } | E::Fallback => {
                stats.fallbacks += 1;
                self.life[core].begin_hold(t);
            }
            E::HlEnd { stl: true } => {
                stats.commits += 1;
                stats.stl_commits += 1;
                self.life[core].commit(t, TxnClass::StlCommit, lat);
            }
            E::HlEnd { stl: false } | E::FallbackEnd => {
                stats.lock_commits += 1;
                self.life[core].commit(t, TxnClass::LockCommit, lat);
            }
            E::SwitchGranted => {
                stats.switches_granted += 1;
                self.life[core].begin_hold(t);
            }
            E::SwitchDenied => stats.switches_denied += 1,
            E::Park => self.life[core].park(t),
            E::Unpark(how) => {
                if how == ParkEnd::Timeout {
                    stats.wakeup_timeouts += 1;
                }
                self.life[core].unpark(t, lat);
            }
            _ => {}
        }
    }
}

/// The span (and conflict-edge) view of one event. Spans of the HLA
/// arbitration live on the shared LLC track; every other span on the
/// acting core's track.
fn obs_spans(o: &ObsHandle, cycle: Cycle, core: CoreId, ev: EngineEvent) {
    use EngineEvent as E;
    use SpanKind::{Fallback, HlaArb, Park, StlLock, TlLock, Txn};
    let track = |kind| {
        if kind == HlaArb {
            Track::Llc
        } else {
            Track::Core(core)
        }
    };
    let begin = |kind| {
        o.emit(ObsEvent::SpanBegin {
            cycle,
            track: track(kind),
            kind,
            core,
        });
    };
    let end = |kind, end| {
        o.emit(ObsEvent::SpanEnd {
            cycle,
            track: track(kind),
            kind,
            core,
            end,
        });
    };
    match ev {
        E::TxBegin => begin(Txn),
        E::Commit => end(Txn, SpanEnd::Commit),
        E::Abort { cause, parked } => {
            if parked {
                end(Park, SpanEnd::End);
            }
            end(Txn, SpanEnd::Abort(cause));
        }
        E::HlaRequest { .. } => begin(HlaArb),
        E::HlBegin { granted } => {
            if granted {
                end(HlaArb, SpanEnd::Granted);
            }
            begin(TlLock);
        }
        E::HlEnd { stl: true } => end(StlLock, SpanEnd::Commit),
        E::HlEnd { stl: false } => end(TlLock, SpanEnd::End),
        E::SwitchGranted => {
            end(HlaArb, SpanEnd::Granted);
            end(Txn, SpanEnd::Switched);
            begin(StlLock);
        }
        E::SwitchDenied => end(HlaArb, SpanEnd::Denied),
        E::Fallback => begin(Fallback),
        E::FallbackEnd => end(Fallback, SpanEnd::End),
        E::Park => begin(Park),
        E::Unpark(how) => end(
            Park,
            match how {
                ParkEnd::Woken => SpanEnd::Woken,
                ParkEnd::Retried => SpanEnd::Retried,
                ParkEnd::Timeout => SpanEnd::Timeout,
            },
        ),
        E::Conflict(edge) => o.emit(ObsEvent::Conflict { cycle, edge }),
        E::Rejected { .. }
        | E::WakeBanked
        | E::Read { .. }
        | E::Write { .. }
        | E::NackSent { .. }
        | E::WakeSent { .. } => {}
    }
}
