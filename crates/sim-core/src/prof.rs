//! `tmprof` — host-side, scope-based self-profiling of the simulator.
//!
//! [`HostProf`] measures where *host* wall-clock time goes inside the
//! engine's hot loop: hierarchical phase scopes (event dequeue,
//! per-event-kind dispatch, coherence handling, guest resume, scheduler
//! tie-breaks, response stamping, observability sampling) accumulate
//! into a phase tree keyed by the full scope path. Per phase it records
//! host nanoseconds (total and self), entry counts, and — when the
//! `alloc-count` feature is on and the binary registers the
//! `tmprof-alloc` counting allocator (`tmtrace --features alloc-count`)
//! — heap allocations and bytes.
//!
//! ## Zero cost when disabled, zero influence when enabled
//!
//! The engine stores an `Option<HostProf>`; every scope site is one
//! `is_some()` branch on the disabled path (the same pattern as
//! [`crate::obs::ObsSink`]). When enabled the profiler only *reads* the
//! host clock and the thread-local allocation counters — it never feeds
//! anything back into the simulation, so simulated cycles, statistics,
//! state fingerprints, and tmverify digests are byte-identical with
//! profiling on or off. Tests assert exactly that.
//!
//! The consuming side (flamegraph / Chrome-trace / JSON exporters)
//! lives in `tmobs::tmprof`; this module owns only what the emitting
//! engine needs, like [`crate::obs`].

use std::time::Instant;

/// One phase scope the engine can enter. The set is closed and small:
/// the profile is a fixed tree, not a sampling stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfPhase {
    /// Whole run (the implicit root).
    Run,
    /// Event-queue pop / front selection.
    Dequeue,
    /// Scheduler tie-break (`Scheduler::pick` on a wide front).
    SchedPick,
    /// Guest `resume`: handing a response to the guest execution core
    /// and receiving its next op (both backends).
    GuestResume,
    /// Dispatch of a `Recv` rendezvous event.
    EvRecv,
    /// Dispatch of a scheduled `Respond` delivery.
    EvRespond,
    /// Dispatch of a NoC message arrival.
    EvNet,
    /// Dispatch of a memory-subsystem notice.
    EvNotice,
    /// Dispatch of a recovery retry.
    EvRetry,
    /// Dispatch of a park-timeout safety net.
    EvParkTimeout,
    /// Coherence / L1 / bank / directory handling (`MemSystem` calls
    /// plus draining its outputs).
    Coherence,
    /// Response stamping: phase attribution, response-history hashing,
    /// latency lifecycle resolution.
    Stamp,
    /// Observability sampling and span emission ticks.
    ObsSample,
}

impl ProfPhase {
    /// Stable name used in every exporter (no `;` — it is the
    /// collapsed-stack path separator).
    pub fn name(self) -> &'static str {
        match self {
            ProfPhase::Run => "run",
            ProfPhase::Dequeue => "dequeue",
            ProfPhase::SchedPick => "sched_pick",
            ProfPhase::GuestResume => "guest_resume",
            ProfPhase::EvRecv => "ev_recv",
            ProfPhase::EvRespond => "ev_respond",
            ProfPhase::EvNet => "ev_net",
            ProfPhase::EvNotice => "ev_notice",
            ProfPhase::EvRetry => "ev_retry",
            ProfPhase::EvParkTimeout => "ev_park_timeout",
            ProfPhase::Coherence => "coherence",
            ProfPhase::Stamp => "stamp",
            ProfPhase::ObsSample => "obs_sample",
        }
    }
}

/// Cumulative `(allocations, bytes)` on this thread — live counters from
/// the `tmprof-alloc` allocator when the `alloc-count` feature is on and
/// the binary registered it, `(0, 0)` otherwise.
#[inline]
fn alloc_counters() -> (u64, u64) {
    #[cfg(feature = "alloc-count")]
    {
        tmprof_alloc::thread_counters()
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        (0, 0)
    }
}

#[derive(Debug)]
struct Node {
    phase: ProfPhase,
    parent: usize,
    /// Children in first-entry order; linear scan — the tree is tiny.
    children: Vec<usize>,
    total_ns: u64,
    self_ns: u64,
    calls: u64,
    allocs: u64,
    alloc_bytes: u64,
}

#[derive(Debug)]
struct Frame {
    node: usize,
    start: Instant,
    /// Host-ns spent in already-closed children of this frame.
    child_ns: u64,
    start_allocs: u64,
    start_bytes: u64,
    child_allocs: u64,
    child_bytes: u64,
}

/// Scope-based hierarchical host profiler. Construct with
/// [`HostProf::start`], bracket phases with [`HostProf::enter`] /
/// [`HostProf::exit`] (strictly nested), then [`HostProf::report`].
#[derive(Debug)]
pub struct HostProf {
    nodes: Vec<Node>,
    stack: Vec<Frame>,
    /// Dispatched-event count and event-queue depth accumulator
    /// ([`HostProf::note_event`]) for mean-depth reporting.
    events: u64,
    q_depth_sum: u64,
}

impl HostProf {
    /// Open the root `run` scope.
    pub fn start() -> HostProf {
        let (a, b) = alloc_counters();
        HostProf {
            nodes: vec![Node {
                phase: ProfPhase::Run,
                parent: usize::MAX,
                children: Vec::new(),
                total_ns: 0,
                self_ns: 0,
                calls: 1,
                allocs: 0,
                alloc_bytes: 0,
            }],
            stack: vec![Frame {
                node: 0,
                start: Instant::now(),
                child_ns: 0,
                start_allocs: a,
                start_bytes: b,
                child_allocs: 0,
                child_bytes: 0,
            }],
            events: 0,
            q_depth_sum: 0,
        }
    }

    /// Enter `phase` as a child of the current scope.
    #[inline]
    pub fn enter(&mut self, phase: ProfPhase) {
        let parent = self.stack.last().expect("profile already finished").node;
        let node = match self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].phase == phase)
        {
            Some(&c) => c,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(Node {
                    phase,
                    parent,
                    children: Vec::new(),
                    total_ns: 0,
                    self_ns: 0,
                    calls: 0,
                    allocs: 0,
                    alloc_bytes: 0,
                });
                self.nodes[parent].children.push(idx);
                idx
            }
        };
        self.nodes[node].calls += 1;
        let (a, b) = alloc_counters();
        self.stack.push(Frame {
            node,
            start: Instant::now(),
            child_ns: 0,
            start_allocs: a,
            start_bytes: b,
            child_allocs: 0,
            child_bytes: 0,
        });
    }

    /// Close the current scope, attributing its elapsed time (minus
    /// already-attributed child time) as self time.
    #[inline]
    pub fn exit(&mut self) {
        let f = self.stack.pop().expect("exit without matching enter");
        assert!(!self.stack.is_empty(), "cannot exit the root scope");
        let elapsed = f.start.elapsed().as_nanos() as u64;
        let (a, b) = alloc_counters();
        let allocs = (a - f.start_allocs).saturating_sub(f.child_allocs);
        let bytes = (b - f.start_bytes).saturating_sub(f.child_bytes);
        let node = &mut self.nodes[f.node];
        node.total_ns += elapsed;
        node.self_ns += elapsed.saturating_sub(f.child_ns);
        node.allocs += allocs;
        node.alloc_bytes += bytes;
        let parent = self.stack.last_mut().expect("checked non-empty");
        parent.child_ns += elapsed;
        parent.child_allocs += a - f.start_allocs;
        parent.child_bytes += b - f.start_bytes;
    }

    /// Record one dispatched event with the instantaneous queue depth
    /// (for events-per-second and mean-depth reporting).
    #[inline]
    pub fn note_event(&mut self, queue_depth: u64) {
        self.events += 1;
        self.q_depth_sum += queue_depth;
    }

    /// Close every open scope (innermost first) and the root, producing
    /// the report. Call exactly once, after the run.
    pub fn report(mut self) -> ProfReport {
        while self.stack.len() > 1 {
            self.exit();
        }
        let f = self.stack.pop().expect("root frame");
        let elapsed = f.start.elapsed().as_nanos() as u64;
        let (a, b) = alloc_counters();
        let root = &mut self.nodes[0];
        root.total_ns = elapsed;
        root.self_ns = elapsed.saturating_sub(f.child_ns);
        root.allocs = (a - f.start_allocs).saturating_sub(f.child_allocs);
        root.alloc_bytes = (b - f.start_bytes).saturating_sub(f.child_bytes);

        // Flatten depth-first so every node appears after its parent and
        // the collapsed-stack export is one pass.
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut order = vec![0usize];
        while let Some(i) = order.pop() {
            let n = &self.nodes[i];
            let path = if n.parent == usize::MAX {
                n.phase.name().to_string()
            } else {
                let parent_path = &out[out
                    .iter()
                    .position(|p: &ProfNode| p.id == n.parent)
                    .expect("parent flattened first")]
                .path;
                format!("{parent_path};{}", n.phase.name())
            };
            out.push(ProfNode {
                id: i,
                path,
                name: n.phase.name(),
                total_ns: n.total_ns,
                self_ns: n.self_ns,
                calls: n.calls,
                allocs: n.allocs,
                alloc_bytes: n.alloc_bytes,
            });
            // Reverse keeps first-entry order after the stack pop.
            for &c in n.children.iter().rev() {
                order.push(c);
            }
        }
        ProfReport {
            nodes: out,
            total_ns: elapsed,
            events: self.events,
            q_depth_sum: self.q_depth_sum,
        }
    }
}

/// One phase in the finished profile, identified by its full
/// `;`-separated scope path (`run;ev_recv;guest_resume`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfNode {
    /// Internal node id (stable within one report; `path` is the key).
    pub id: usize,
    /// Full scope path from the root, `;`-separated.
    pub path: String,
    /// Leaf phase name (last path segment).
    pub name: &'static str,
    /// Host nanoseconds inside this scope, children included.
    pub total_ns: u64,
    /// Host nanoseconds inside this scope, children excluded. Self
    /// times over the whole tree sum exactly to the root total.
    pub self_ns: u64,
    /// Times the scope was entered.
    pub calls: u64,
    /// Heap allocations attributed to this scope (self, not children);
    /// 0 unless the `alloc-count` allocator is registered.
    pub allocs: u64,
    /// Heap bytes attributed to this scope (self, not children).
    pub alloc_bytes: u64,
}

/// A finished host profile: the phase tree in depth-first order (parent
/// before children) plus whole-run event counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfReport {
    pub nodes: Vec<ProfNode>,
    /// Host nanoseconds of the whole profiled region (== root total).
    pub total_ns: u64,
    /// Events dispatched while profiling ([`HostProf::note_event`]).
    pub events: u64,
    /// Sum of instantaneous queue depths over those events.
    pub q_depth_sum: u64,
}

impl ProfReport {
    /// Mean event-queue depth over the dispatched events (0 if none).
    pub fn q_depth_mean(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.q_depth_sum as f64 / self.events as f64
        }
    }

    /// Per-node share of total host time attributed as self time, in
    /// report (depth-first) order. Shares sum to 1.0 when any time was
    /// recorded (self times partition the root total exactly).
    pub fn self_shares(&self) -> Vec<(&str, f64)> {
        let total = self.total_ns.max(1) as f64;
        self.nodes
            .iter()
            .map(|n| (n.path.as_str(), n.self_ns as f64 / total))
            .collect()
    }

    /// Look a node up by its full path.
    pub fn node(&self, path: &str) -> Option<&ProfNode> {
        self.nodes.iter().find(|n| n.path == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_scopes_partition_total() {
        let mut p = HostProf::start();
        p.enter(ProfPhase::EvRecv);
        p.enter(ProfPhase::GuestResume);
        spin(50_000);
        p.exit();
        spin(20_000);
        p.exit();
        p.enter(ProfPhase::EvNet);
        p.enter(ProfPhase::Coherence);
        spin(30_000);
        p.exit();
        p.exit();
        let r = p.report();
        // Self times partition the root total exactly.
        let self_sum: u64 = r.nodes.iter().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, r.total_ns);
        // Parent totals cover child totals.
        let recv = r.node("run;ev_recv").unwrap();
        let resume = r.node("run;ev_recv;guest_resume").unwrap();
        assert!(recv.total_ns >= resume.total_ns);
        assert!(resume.self_ns >= 50_000);
        assert_eq!(resume.calls, 1);
        // Depth-first order: parent before child.
        let pi = r
            .nodes
            .iter()
            .position(|n| n.path == "run;ev_recv")
            .unwrap();
        let ci = r
            .nodes
            .iter()
            .position(|n| n.path == "run;ev_recv;guest_resume")
            .unwrap();
        assert!(pi < ci);
        // Shares sum to 1.
        let s: f64 = r.self_shares().iter().map(|(_, v)| v).sum();
        assert!((s - 1.0).abs() < 1e-9, "shares sum to {s}");
    }

    #[test]
    fn repeated_entries_accumulate_calls() {
        let mut p = HostProf::start();
        for _ in 0..10 {
            p.enter(ProfPhase::EvRespond);
            p.enter(ProfPhase::Stamp);
            p.exit();
            p.exit();
        }
        p.note_event(3);
        p.note_event(5);
        let r = p.report();
        assert_eq!(r.node("run;ev_respond").unwrap().calls, 10);
        assert_eq!(r.node("run;ev_respond;stamp").unwrap().calls, 10);
        assert_eq!(r.events, 2);
        assert!((r.q_depth_mean() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn report_closes_open_scopes() {
        let mut p = HostProf::start();
        p.enter(ProfPhase::EvNotice);
        p.enter(ProfPhase::Coherence);
        let r = p.report();
        assert!(r.node("run;ev_notice;coherence").is_some());
        let self_sum: u64 = r.nodes.iter().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, r.total_ns);
    }

    #[test]
    fn phase_names_have_no_separator() {
        for p in [
            ProfPhase::Run,
            ProfPhase::Dequeue,
            ProfPhase::SchedPick,
            ProfPhase::GuestResume,
            ProfPhase::EvRecv,
            ProfPhase::EvRespond,
            ProfPhase::EvNet,
            ProfPhase::EvNotice,
            ProfPhase::EvRetry,
            ProfPhase::EvParkTimeout,
            ProfPhase::Coherence,
            ProfPhase::Stamp,
            ProfPhase::ObsSample,
        ] {
            assert!(!p.name().contains(';'));
            assert!(!p.name().is_empty());
        }
    }
}
