//! Trace-driven verification of the simulated TM systems: a
//! direct-serialization-graph (DSG) serializability checker and a set of
//! protocol-invariant checkers, both replaying the engine's checked-mode
//! event trace (see `lockiller::trace`).
//!
//! The checkers are deliberately independent of the engine's own
//! bookkeeping: they reconstruct transaction atomicity, lock-section
//! occupancy, priority evolution, and NACK/wake-up liveness purely from
//! the recorded events, so a bug in the engine or the coherence protocol
//! shows up as a reported violation with a concrete witness rather than
//! as a silently wrong figure.

pub mod dsg;
pub mod harness;
pub mod invariants;
pub mod space;

use sim_core::stats::RunStats;
use std::fmt;

/// Which checker flagged a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// The direct-serialization graph over committed transactions has a
    /// cycle: no serial order explains the observed reads and writes.
    Serializability,
    /// Single-writer/multiple-readers broken: two cores held conflicting
    /// coherence states for the same line.
    Swmr,
    /// Two lock transactions (TL/STL/fallback) were active at once.
    LockOccupancy,
    /// A core's recovery priority decreased within one transaction
    /// attempt (priorities must be monotone until the attempt ends).
    Priority,
    /// A rejected request was never woken (lost wake-up, safety-net
    /// timeout, or a NACK with no matching wake-up).
    Liveness,
    /// The event queue drained with guest threads still alive: some core
    /// waits forever for an event that can never arrive. Only reachable
    /// with the wake-up safety net disabled (the timeout would otherwise
    /// mask the hang); reported per schedule by the `tmverify` explorer.
    Deadlock,
    /// The HLA arbiter handed out two concurrent TL/STL grants: two
    /// cores were inside arbiter-granted lock transactions at once.
    GrantExclusivity,
    /// The run outgrew its trace storage bound, so the trace checkers saw
    /// only a prefix: their verdict does not cover the whole run.
    TraceTruncated,
}

impl CheckKind {
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::Serializability => "serializability",
            CheckKind::Swmr => "swmr",
            CheckKind::LockOccupancy => "lock-occupancy",
            CheckKind::Priority => "priority",
            CheckKind::Liveness => "liveness",
            CheckKind::Deadlock => "deadlock",
            CheckKind::GrantExclusivity => "grant-exclusivity",
            CheckKind::TraceTruncated => "trace-truncated",
        }
    }
}

/// One detected violation, with a human-readable witness.
#[derive(Clone, Debug)]
pub struct Violation {
    pub check: CheckKind,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check.name(), self.message)
    }
}

/// Options controlling which invariants apply to a given system.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckOpts {
    /// The system parks rejected requests until a wake-up
    /// (`RejectAction::WaitWakeup`); enables the liveness checkers.
    pub wait_wakeup: bool,
}

/// The combined result of all trace checkers for one run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Committed transactions found in the trace (atomic sections with at
    /// least one access; non-transactional accesses are not counted).
    pub committed_txns: usize,
    /// Total trace events analyzed.
    pub events: usize,
    pub violations: Vec<Violation>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// True if some violation came from `check`.
    pub fn has(&self, check: CheckKind) -> bool {
        self.violations.iter().any(|v| v.check == check)
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} events, {} committed txns: ",
            self.events, self.committed_txns
        );
        if self.is_clean() {
            out.push_str("clean\n");
        } else {
            out.push_str(&format!("{} violation(s)\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!("  {v}\n"));
            }
        }
        out
    }
}

/// Judge a finished checked run: every trace checker over `events`, then
/// the verdicts the run's statistics carry (the live SWMR check's first
/// violation, and events dropped past the trace storage bound). A
/// truncated trace is only a prefix, on which end-of-trace checks
/// (liveness "never woken") report false positives, so the trace
/// checkers are skipped and the run fails as `trace-truncated`.
pub fn check_run(
    events: &[lockiller::trace::TraceEvent],
    stats: &RunStats,
    opts: CheckOpts,
) -> Report {
    let mut report = if stats.trace_dropped == 0 {
        check_trace(events, opts)
    } else {
        Report {
            events: events.len(),
            ..Report::default()
        }
    };
    if let Some(msg) = &stats.swmr_violation {
        report.violations.push(Violation {
            check: CheckKind::Swmr,
            message: msg.clone(),
        });
    }
    if stats.trace_dropped > 0 {
        report.violations.push(Violation {
            check: CheckKind::TraceTruncated,
            message: format!(
                "{} trace events dropped past the storage bound; the trace checkers were skipped",
                stats.trace_dropped
            ),
        });
    }
    report
}

/// Run every trace checker over `events`.
pub fn check_trace(events: &[lockiller::trace::TraceEvent], opts: CheckOpts) -> Report {
    let mut report = Report {
        events: events.len(),
        ..Report::default()
    };
    let d = dsg::check_serializability(events);
    report.committed_txns = d.committed_txns;
    if let Some(w) = d.cycle {
        report.violations.push(Violation {
            check: CheckKind::Serializability,
            message: w.describe(),
        });
    }
    report
        .violations
        .extend(invariants::check_invariants(events, opts));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockiller::trace::{TraceEvent, TraceKind};

    #[test]
    fn truncated_run_reports_only_its_own_verdicts() {
        // A park with no wake-up yet: "never woken" on a whole trace,
        // but on a prefix the wake-up may lie in the dropped part.
        let prefix = [TraceEvent {
            cycle: 1,
            core: 0,
            kind: TraceKind::Rejected { by_sig: false },
        }];
        let opts = CheckOpts { wait_wakeup: true };
        let whole = check_run(&prefix, &RunStats::default(), opts);
        assert!(whole.has(CheckKind::Liveness), "{}", whole.render());

        let stats = RunStats {
            trace_dropped: 4,
            swmr_violation: Some("SWMR violated on L0x1".into()),
            ..RunStats::default()
        };
        let cut = check_run(&prefix, &stats, opts);
        let kinds: Vec<CheckKind> = cut.violations.iter().map(|v| v.check).collect();
        assert_eq!(kinds, [CheckKind::Swmr, CheckKind::TraceTruncated]);
        assert_eq!(cut.events, 1);
        assert!(cut.violations[1]
            .message
            .starts_with("4 trace events dropped"));
    }
}
