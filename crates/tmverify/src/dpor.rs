//! The systematic explorer: sleep-set DPOR over the engine's tie-break
//! decision tree, with fingerprint-based state deduplication.
//!
//! # State-space model
//!
//! A simulation is deterministic except for same-cycle FIFO tie-breaks
//! in the event queue (see `lockiller::sched`). The explorer's search
//! tree therefore has one node per *multi-candidate front* and one edge
//! per candidate; a root-to-leaf path is a decision vector that replays
//! bit-for-bit. Exploration is breadth-ish: a FIFO frontier of work
//! items (forced decision prefix + the sleep set in force at the branch
//! point), each executed as a pure function — the engine, guests and
//! scheduler are rebuilt per run — so batches can run on host threads
//! while all bookkeeping happens sequentially in frontier order, making
//! every count and the report digest independent of `--jobs`.
//!
//! # Reduction soundness
//!
//! Two reductions prune the tree, both keyed on the conflict relation
//! [`lockiller::EvDesc::conflicts`] (events are dependent unless their
//! core/line/bank footprints are provably disjoint):
//!
//! - **Sleep sets** (Godefroid): after exploring candidate `a` at a
//!   node, sibling subtrees need not re-explore schedules that merely
//!   commute `a` with independent events; `a` is put to sleep in the
//!   siblings and a sleeping event wakes only when a dependent event
//!   fires. A node whose every candidate sleeps is fully covered
//!   elsewhere and generates no children. This explores at least one
//!   interleaving per Mazurkiewicz trace — sound for all properties we
//!   check on a per-schedule basis.
//! - **State deduplication**: each choice point is fingerprinted
//!   ([`lockiller::engine::Engine::state_fingerprint`] — controllers,
//!   write buffers, memory digest, pending queue with volatile sequence
//!   tags normalized, and the full memory system; guest positions are
//!   covered by each core's response-history hash, since a
//!   deterministic guest is a pure function of the responses it has
//!   seen). Reaching a fingerprint already explored with an equal-or-
//!   smaller sleep set proves the whole subtree is covered, so no
//!   children are generated there. Dedup is exact for *state*
//!   properties (deadlock-freedom, grant exclusivity); for *history*
//!   properties (the serializability check runs over the whole trace)
//!   it can merge prefixes with different histories, so runs where a
//!   history distinction matters can disable it (`--no-state-dedup`).
//!
//! Coverage is exact when the report says so ([`ExploreReport::complete`]):
//! no budget exhaustion, no depth clipping, no cycle-limited runs.

use crate::progs::{ProgSpec, SpecProgram};
use crate::shrink;
use lockiller::{
    Backend, EvDesc, RunEnd, RunOutput, Runner, Scheduler, StaticIndependence, SystemKind,
};
use sim_core::config::{CheckCfg, FaultInject, RejectAction, SystemConfig, SystemConfigBuilder};
use sim_core::fxhash::{FxHashMap, FxHasher};
use sim_core::types::Cycle;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use tmcheck::space::{self, SpaceReport};
use tmcheck::{check_run, CheckOpts, Violation};
use tmobs::Witness;

/// CLI names of the fault-injection knobs, in `FaultInject` field order.
pub const INJECT_NAMES: [&str; 5] = [
    "ignore-conflicts",
    "drop-nack",
    "drop-wakeups",
    "double-grant",
    "prio-decay",
];

/// Set the injection knob named `name`; false if the name is unknown.
pub fn inject_by_name(fault: &mut FaultInject, name: &str) -> bool {
    match name {
        "ignore-conflicts" => fault.ignore_conflicts = true,
        "drop-nack" => fault.drop_nack = true,
        "drop-wakeups" => fault.drop_wakeups = true,
        "double-grant" => fault.double_grant = true,
        "prio-decay" => fault.prio_decay = true,
        _ => return false,
    }
    true
}

/// CLI names of the active injection knobs.
pub fn inject_names(fault: &FaultInject) -> Vec<String> {
    let flags = [
        fault.ignore_conflicts,
        fault.drop_nack,
        fault.drop_wakeups,
        fault.double_grant,
        fault.prio_decay,
    ];
    INJECT_NAMES
        .iter()
        .zip(flags)
        .filter(|&(_, on)| on)
        .map(|(n, _)| (*n).to_string())
        .collect()
}

/// Check that a program of `threads` simulated threads fits the
/// geometry [`Explorer::config`] builds (the `SystemConfig::testing`
/// preset, one core per thread). CLIs reject a spec with this message
/// instead of panicking inside the config builder.
pub fn check_threads(threads: usize) -> Result<(), String> {
    let max = SystemConfig::TESTING_MAX_CORES;
    if (1..=max).contains(&threads) {
        Ok(())
    } else {
        Err(format!(
            "{threads} simulated threads: the exploration geometry supports 1 to {max}"
        ))
    }
}

/// Explorer configuration + entry point.
#[derive(Clone)]
pub struct Explorer {
    pub system: SystemKind,
    pub spec: ProgSpec,
    pub inject: FaultInject,
    /// Disable the wake-up safety net so lost wake-ups surface as
    /// deadlocks instead of being papered over by the timeout.
    pub no_safety_net: bool,
    /// Shrink the private L1 to 2 lines (1 set x 2 ways) so tiny
    /// transactions can overflow and exercise switchingMode/fallback.
    pub tiny_l1: bool,
    /// HTM retry-budget override (small values reach the fallback path
    /// in fewer schedules).
    pub retries: Option<u32>,
    /// Branch only at the first `depth_bound` choice points; beyond it
    /// the run follows FIFO order (coverage becomes incomplete).
    pub depth_bound: usize,
    /// Stop after merging this many schedules (exit code 2).
    pub max_schedules: u64,
    /// Per-run simulated-cycle bound; runs cut by it are counted in
    /// [`ExploreReport::cycle_limited`] and make coverage incomplete.
    pub max_cycles: Cycle,
    /// Host threads executing runs in parallel. Results are
    /// bit-identical for every value.
    pub jobs: usize,
    /// Enable fingerprint-based state deduplication (see module docs
    /// for the history-property caveat).
    pub state_dedup: bool,
    /// Oracle-probe budget for ddmin witness shrinking.
    pub shrink_budget: usize,
    /// Statically-proven independence facts refining the dynamic
    /// conflict relation (from the `tmstatic` crate). `None` keeps the
    /// exploration bit-identical to the unpruned baseline. Ignored when
    /// fault injection is active — injected faults break the analysis
    /// premises (see [`StaticIndependence`] docs).
    pub prune: Option<StaticIndependence>,
    /// Guest execution core for every explored run. Both backends are
    /// bit-identical (same decisions, fingerprints, and report digest —
    /// asserted by the differential tests): [`Backend::Vm`] runs the
    /// compiled kernels, [`Backend::Threads`] the spec's native body.
    pub backend: Backend,
    /// Enable host-side self-profiling (`tmprof`) on every explored run.
    /// The profiler only reads the host clock, so exploration results —
    /// including the report digest — are byte-identical either way
    /// (asserted by tests); the per-run profiles themselves are
    /// discarded by the explorer, which only wants the guarantee.
    pub profile: bool,
}

impl Explorer {
    pub fn new(system: SystemKind, spec: ProgSpec) -> Explorer {
        Explorer {
            system,
            spec,
            inject: FaultInject::default(),
            no_safety_net: false,
            tiny_l1: false,
            retries: Some(2),
            depth_bound: 200,
            max_schedules: 20_000,
            max_cycles: 300_000,
            jobs: 1,
            state_dedup: true,
            shrink_budget: 200,
            prune: None,
            backend: Backend::Threads,
            profile: false,
        }
    }

    /// The prune table in force: the configured table, unless fault
    /// injection invalidates its soundness premises.
    fn active_prune(&self) -> Option<&StaticIndependence> {
        if self.inject.any() {
            None
        } else {
            self.prune.as_ref()
        }
    }

    /// The simulator configuration explored (shared by every run). Public
    /// so static analyses (the `tmstatic` crate) reason about exactly the
    /// geometry the explorer simulates.
    pub fn config(&self) -> SystemConfig {
        let cores = self.spec.num_threads().max(2);
        let mut b = SystemConfigBuilder::from_config(SystemConfig::testing(cores));
        if self.tiny_l1 {
            b = b.l1_capacity(128, 2);
        }
        b.check(CheckCfg {
            enabled: true,
            fault: self.inject,
        })
        .build()
        .expect("explorer config is valid")
    }

    /// The per-thread guest kernels the vm backend executes, compiled
    /// under the standard runner arena layout. Public for the same
    /// reason as [`Explorer::config`]: bytecode-level static analyses
    /// must see exactly the code and addresses the exploration runs.
    pub fn kernels(&self) -> Vec<guestvm::Kernel> {
        SpecProgram::compile_all(&self.spec)
    }

    /// A runner for one schedule (pure: no state shared across runs).
    fn runner(&self) -> Runner {
        let mut policy = self.system.policy();
        if self.no_safety_net {
            policy.wakeup_timeout = Cycle::MAX;
        }
        let mut r = Runner::new(self.system)
            .threads(self.spec.num_threads())
            .config(self.config())
            .policy(policy)
            .max_cycles(self.max_cycles)
            .backend(self.backend)
            .seed(0);
        if let Some(n) = self.retries {
            r = r.retries(n);
        }
        if self.profile {
            r = r.profile();
        }
        r
    }

    fn check_opts(&self) -> CheckOpts {
        CheckOpts {
            wait_wakeup: self.system.policy().reject_action == RejectAction::WaitWakeup,
        }
    }

    /// Execute one work item (pure function of `self` + `item`).
    fn execute(&self, item: &WorkItem) -> RunRecord {
        let mut sched =
            RecordingScheduler::new(item, self.depth_bound, self.active_prune().cloned());
        let mut prog = SpecProgram::new(self.spec.clone());
        let out = self.runner().run_scheduled(&mut prog, &mut sched);
        RunRecord {
            decisions: sched.decisions,
            choices: sched.choices,
            violations: self.judge(&out),
            trace_len: out.trace_events().len(),
            cycle_limited: matches!(out.end, RunEnd::CycleLimit { .. }),
            end: out.end,
            redundant: sched.redundant_from.is_some(),
            depth_clipped: sched.depth_clipped,
        }
    }

    /// Re-run one decision vector (no recording, no reduction) and
    /// return its violations; used by the shrinker and `replay`.
    pub fn replay(&self, decisions: &[usize]) -> Vec<Violation> {
        let mut sched = ReplayScheduler {
            forced: decisions.to_vec(),
            depth: 0,
        };
        let mut prog = SpecProgram::new(self.spec.clone());
        let out = self.runner().run_scheduled(&mut prog, &mut sched);
        self.judge(&out)
    }

    /// One run's violations: a deadlock, then (unless the cycle budget
    /// cut the run) `tmcheck::check_run` (the trace checkers, the run's
    /// own SWMR and trace-truncation verdicts) and grant exclusivity.
    fn judge(&self, out: &RunOutput) -> Vec<Violation> {
        let events = out.trace_events();
        let mut violations = Vec::new();
        if let RunEnd::Deadlock { stuck } = &out.end {
            violations.push(space::deadlock_violation(stuck));
        }
        if !matches!(out.end, RunEnd::CycleLimit { .. }) {
            // A budget-cut trace is a prefix, so end-of-trace checks
            // (liveness "never woken") would report false positives;
            // Done and Deadlock traces are final.
            violations.extend(check_run(events, &out.stats, self.check_opts()).violations);
            if let Some(v) = space::check_grant_exclusivity(events) {
                violations.push(v);
            }
        }
        violations
    }

    /// Explore the schedule space and aggregate the verdict.
    pub fn explore(&self) -> ExploreReport {
        let mut frontier: VecDeque<WorkItem> = VecDeque::new();
        frontier.push_back(WorkItem {
            forced: Vec::new(),
            entry_sleep: Vec::new(),
        });
        // fp -> sleep sets (as sorted id vectors) already explored there.
        let mut seen: FxHashMap<u64, Vec<Vec<u64>>> = FxHashMap::default();
        let mut rep = ExploreReport::default();
        let prune = self.active_prune();
        rep.static_prune = prune.is_some();
        let dependent = |a: &EvDesc, b: &EvDesc| match prune {
            Some(t) => t.conflicts(a, b),
            None => a.conflicts(b),
        };
        let mut digest = FxHasher::default();
        let mut first_violation: Option<(u64, Violation, Vec<usize>)> = None;
        let jobs = self.jobs.max(1);

        'outer: while !frontier.is_empty() {
            let batch: Vec<WorkItem> = {
                let n = frontier.len().min(jobs);
                frontier.drain(..n).collect()
            };
            let records: Vec<RunRecord> = if batch.len() == 1 {
                vec![self.execute(&batch[0])]
            } else {
                std::thread::scope(|s| {
                    let handles: Vec<_> = batch
                        .iter()
                        .map(|item| s.spawn(|| self.execute(item)))
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            };
            // Everything below is sequential in frontier order, so the
            // merge is independent of batch boundaries (i.e. of --jobs).
            for rec in records {
                if rep.schedules >= self.max_schedules {
                    rep.budget_exhausted = true;
                    break 'outer;
                }
                let idx = rep.schedules;
                rep.schedules += 1;
                rec.decisions.hash(&mut digest);
                std::mem::discriminant(&rec.end).hash(&mut digest);
                rec.trace_len.hash(&mut digest);
                rec.violations.len().hash(&mut digest);
                rep.max_depth = rep.max_depth.max(rec.decisions.len());
                if rec.redundant {
                    rep.redundant += 1;
                }
                if rec.depth_clipped {
                    rep.depth_clipped += 1;
                }
                if rec.cycle_limited {
                    rep.cycle_limited += 1;
                }
                if rec.violations.is_empty() {
                    rep.space.record_clean(idx);
                } else {
                    rep.space.record(idx, &rec.violations);
                    if first_violation.is_none() {
                        first_violation =
                            Some((idx, rec.violations[0].clone(), rec.decisions.clone()));
                    }
                }
                // Child generation (sleep-set siblings + state dedup).
                for ch in &rec.choices {
                    if self.state_dedup {
                        let mut ids: Vec<u64> = ch.sleep_before.iter().map(|d| d.id).collect();
                        ids.sort_unstable();
                        ids.dedup();
                        let sets = seen.entry(ch.fp).or_default();
                        if sets.iter().any(|s| is_subset(s, &ids)) {
                            // Covered: a previous visit to this state had
                            // an equal-or-smaller sleep set, so both this
                            // node's siblings and every deeper choice of
                            // this run are explored elsewhere.
                            rep.pruned_dedup += 1;
                            break;
                        }
                        sets.push(ids);
                    }
                    let mut explored: Vec<EvDesc> = vec![ch.options[ch.chosen].clone()];
                    for (i, opt) in ch.options.iter().enumerate() {
                        if i == ch.chosen {
                            continue;
                        }
                        if ch.sleep_before.iter().any(|s| s.id == opt.id) {
                            rep.pruned_sleep += 1;
                            continue;
                        }
                        let entry_sleep: Vec<EvDesc> = ch
                            .sleep_before
                            .iter()
                            .chain(explored.iter())
                            .filter(|u| !dependent(u, opt))
                            .cloned()
                            .collect();
                        let mut forced = rec.decisions[..ch.depth].to_vec();
                        forced.push(i);
                        frontier.push_back(WorkItem {
                            forced,
                            entry_sleep,
                        });
                        explored.push(opt.clone());
                    }
                }
                rep.frontier_peak = rep.frontier_peak.max(frontier.len());
            }
        }

        if let Some((idx, viol, decisions)) = first_violation {
            let kind = viol.check;
            let shrunk = shrink::ddmin(&decisions, self.shrink_budget, |cand| {
                self.replay(cand).iter().any(|v| v.check == kind)
            });
            rep.witness = Some(self.witness(&viol, &shrunk));
            let _ = idx;
        }
        rep.digest = digest.finish();
        rep
    }

    /// Package a (shrunk) violating decision vector as a witness.
    pub fn witness(&self, violation: &Violation, decisions: &[usize]) -> Witness {
        Witness {
            version: tmobs::WITNESS_VERSION,
            title: format!(
                "{} on {} ({})",
                violation.check.name(),
                self.system.name(),
                self.spec.render()
            ),
            system: self.system.name().to_string(),
            cores: self.spec.num_threads(),
            lines: self.spec.lines,
            prog: self.spec.render(),
            inject: inject_names(&self.inject),
            no_safety_net: self.no_safety_net,
            tiny_l1: self.tiny_l1,
            retries: self.retries,
            decisions: decisions.to_vec(),
            violation_kind: violation.check.name().to_string(),
            violation_message: violation.message.clone(),
        }
    }

    /// Rebuild an explorer from a witness (for `tmverify replay`).
    pub fn from_witness(w: &Witness) -> Result<Explorer, String> {
        let system = SystemKind::from_name(&w.system)
            .ok_or_else(|| format!("witness: unknown system {:?}", w.system))?;
        let spec = ProgSpec::parse(&w.prog)?;
        if spec.num_threads() != w.cores {
            return Err(format!(
                "witness: cores {} does not match prog threads {}",
                w.cores,
                spec.num_threads()
            ));
        }
        let mut ex = Explorer::new(system, spec);
        for name in &w.inject {
            if !inject_by_name(&mut ex.inject, name) {
                return Err(format!("witness: unknown injection {name:?}"));
            }
        }
        ex.no_safety_net = w.no_safety_net;
        ex.tiny_l1 = w.tiny_l1;
        ex.retries = w.retries;
        Ok(ex)
    }
}

/// `a` subset-of `b`, both sorted+deduped.
fn is_subset(a: &[u64], b: &[u64]) -> bool {
    let mut it = b.iter();
    'outer: for x in a {
        for y in it.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// One frontier entry: replay `forced`, then explore freely with
/// `entry_sleep` active from the branch point on.
struct WorkItem {
    forced: Vec<usize>,
    entry_sleep: Vec<EvDesc>,
}

/// A recorded free-choice point.
struct Choice {
    /// Index among the run's multi-candidate fronts.
    depth: usize,
    /// State fingerprint at the front (before dispatch).
    fp: u64,
    options: Vec<EvDesc>,
    chosen: usize,
    /// Live sleep set just before dispatch.
    sleep_before: Vec<EvDesc>,
}

/// Everything one executed schedule contributes to the merge.
struct RunRecord {
    decisions: Vec<usize>,
    choices: Vec<Choice>,
    #[allow(dead_code)]
    end: RunEnd,
    violations: Vec<Violation>,
    trace_len: usize,
    redundant: bool,
    depth_clipped: bool,
    cycle_limited: bool,
}

/// Replays a forced prefix, then picks the first non-sleeping candidate
/// at every later front, recording choice points for child generation.
struct RecordingScheduler {
    forced: Vec<usize>,
    entry_sleep: Vec<EvDesc>,
    depth_bound: usize,
    depth: usize,
    sleep: Vec<EvDesc>,
    sleep_active: bool,
    decisions: Vec<usize>,
    choices: Vec<Choice>,
    /// First depth where every candidate slept: the rest of this run is
    /// covered by other schedules, so no further choices are recorded.
    redundant_from: Option<usize>,
    depth_clipped: bool,
    /// Static refinement of the wake-up relation: a sleeping event stays
    /// asleep past dispatches proven independent of it.
    prune: Option<StaticIndependence>,
}

impl RecordingScheduler {
    fn new(
        item: &WorkItem,
        depth_bound: usize,
        prune: Option<StaticIndependence>,
    ) -> RecordingScheduler {
        RecordingScheduler {
            forced: item.forced.clone(),
            entry_sleep: item.entry_sleep.clone(),
            depth_bound,
            prune,
            depth: 0,
            sleep: if item.forced.is_empty() {
                item.entry_sleep.clone()
            } else {
                Vec::new()
            },
            sleep_active: item.forced.is_empty(),
            decisions: Vec::new(),
            choices: Vec::new(),
            redundant_from: None,
            depth_clipped: false,
        }
    }

    fn asleep(&self, d: &EvDesc) -> bool {
        self.sleep.iter().any(|s| s.id == d.id)
    }
}

impl Scheduler for RecordingScheduler {
    fn pick(&mut self, _at: Cycle, options: &[EvDesc], fp: u64) -> usize {
        let d = self.depth;
        self.depth += 1;
        let idx = if d < self.forced.len() {
            if d + 1 == self.forced.len() {
                // The branch point: the item's sleep set takes effect in
                // the state this (last forced) decision leads to.
                self.sleep = self.entry_sleep.clone();
                self.sleep_active = true;
            }
            self.forced[d].min(options.len() - 1)
        } else if d >= self.depth_bound {
            self.depth_clipped = true;
            0
        } else if let Some(i) = (0..options.len()).find(|&i| !self.asleep(&options[i])) {
            if self.redundant_from.is_none() {
                self.choices.push(Choice {
                    depth: d,
                    fp,
                    options: options.to_vec(),
                    chosen: i,
                    sleep_before: self.sleep.clone(),
                });
            }
            i
        } else {
            // Every candidate sleeps: this continuation is covered by
            // sibling subtrees; finish the run (results discarded for
            // child generation) on the default candidate.
            if self.redundant_from.is_none() {
                self.redundant_from = Some(d);
            }
            0
        };
        self.decisions.push(idx);
        idx
    }

    fn observe(&mut self, _at: Cycle, ev: &EvDesc) {
        if self.sleep_active && !self.sleep.is_empty() {
            match &self.prune {
                Some(p) => self.sleep.retain(|t| !p.conflicts(t, ev)),
                None => self.sleep.retain(|t| !t.conflicts(ev)),
            }
        }
    }
}

/// Pure replay: forced decisions, FIFO (0) beyond the vector's end.
struct ReplayScheduler {
    forced: Vec<usize>,
    depth: usize,
}

impl Scheduler for ReplayScheduler {
    fn pick(&mut self, _at: Cycle, options: &[EvDesc], _fp: u64) -> usize {
        let i = self
            .forced
            .get(self.depth)
            .copied()
            .unwrap_or(0)
            .min(options.len() - 1);
        self.depth += 1;
        i
    }
}

/// Aggregate result of one exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Schedules executed and merged.
    pub schedules: u64,
    /// Runs that hit a fully-sleeping front (covered elsewhere).
    pub redundant: u64,
    /// Sibling branches skipped because the candidate slept.
    pub pruned_sleep: u64,
    /// Choice points skipped via state-fingerprint deduplication.
    pub pruned_dedup: u64,
    /// Runs cut by the per-run cycle budget (coverage incomplete).
    pub cycle_limited: u64,
    /// Runs that hit the depth bound (coverage incomplete).
    pub depth_clipped: u64,
    /// Deepest decision vector seen.
    pub max_depth: usize,
    /// Peak frontier length (memory high-water mark).
    pub frontier_peak: usize,
    /// The schedule budget ran out before the frontier drained.
    pub budget_exhausted: bool,
    /// A static independence table was in force during exploration.
    pub static_prune: bool,
    /// Per-schedule property verdicts.
    pub space: SpaceReport,
    /// Shrunk witness for the first violation found, if any.
    pub witness: Option<Witness>,
    /// Order-sensitive digest of every merged run; equal digests mean
    /// bit-identical explorations (asserted across `--jobs` in tests).
    pub digest: u64,
}

impl ExploreReport {
    pub fn is_clean(&self) -> bool {
        self.space.is_clean()
    }

    /// True when the whole bounded space was covered: every schedule ran
    /// to a final state and the frontier drained within budget.
    pub fn complete(&self) -> bool {
        !self.budget_exhausted && self.depth_clipped == 0 && self.cycle_limited == 0
    }

    /// CLI exit code: 0 clean+complete, 1 violation, 2 budget exhausted.
    pub fn exit_code(&self) -> i32 {
        if !self.is_clean() {
            1
        } else if !self.complete() {
            2
        } else {
            0
        }
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = self.space.render();
        out.push_str(&format!(
            "  explored {} schedule(s) ({} redundant), pruned {} sleeping branch(es), \
             {} deduped state(s)\n",
            self.schedules, self.redundant, self.pruned_sleep, self.pruned_dedup
        ));
        out.push_str(&format!(
            "  max depth {}, frontier peak {}, digest {:016x}\n",
            self.max_depth, self.frontier_peak, self.digest
        ));
        if self.complete() {
            out.push_str("  coverage: complete (bounded space fully explored)\n");
        } else {
            out.push_str(&format!(
                "  coverage: INCOMPLETE (budget_exhausted={}, depth_clipped={}, \
                 cycle_limited={})\n",
                self.budget_exhausted, self.depth_clipped, self.cycle_limited
            ));
        }
        out
    }

    /// Machine-readable stats (the `BENCH_verify.json` rows).
    pub fn to_json(&self) -> String {
        let per_kind: Vec<String> = self
            .space
            .per_kind
            .iter()
            .map(|(k, n)| format!("\"{}\": {n}", k.name()))
            .collect();
        format!(
            "{{\"schedules\": {}, \"redundant\": {}, \"pruned_sleep\": {}, \
             \"pruned_dedup\": {}, \"cycle_limited\": {}, \"depth_clipped\": {}, \
             \"max_depth\": {}, \"frontier_peak\": {}, \"budget_exhausted\": {}, \
             \"static_prune\": {}, \"complete\": {}, \"violating\": {}, \
             \"violations\": {{{}}}, \"digest\": \"{:016x}\"}}",
            self.schedules,
            self.redundant,
            self.pruned_sleep,
            self.pruned_dedup,
            self.cycle_limited,
            self.depth_clipped,
            self.max_depth,
            self.frontier_peak,
            self.budget_exhausted,
            self.static_prune,
            self.complete(),
            self.space.violating,
            per_kind.join(", "),
            self.digest
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_check() {
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[4], &[1, 2, 3]));
        assert!(!is_subset(&[1, 2], &[1]));
        assert!(!is_subset(&[0], &[]));
    }

    #[test]
    fn inject_name_mapping_roundtrip() {
        for name in INJECT_NAMES {
            let mut f = FaultInject::default();
            assert!(inject_by_name(&mut f, name), "{name}");
            assert_eq!(inject_names(&f), vec![name.to_string()]);
        }
        let mut f = FaultInject::default();
        assert!(!inject_by_name(&mut f, "nope"));
        assert!(!f.any());
    }

    #[test]
    fn report_json_parses() {
        let mut rep = ExploreReport {
            schedules: 3,
            ..ExploreReport::default()
        };
        rep.space.record(1, &[space::deadlock_violation(&[0])]);
        let doc = sim_core::json::parse(&rep.to_json()).expect("report json parses");
        assert_eq!(
            doc.get("schedules").and_then(sim_core::json::Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            doc.get("violations")
                .and_then(|v| v.get("deadlock"))
                .and_then(sim_core::json::Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn exit_codes() {
        let mut rep = ExploreReport::default();
        assert_eq!(rep.exit_code(), 0);
        rep.budget_exhausted = true;
        assert_eq!(rep.exit_code(), 2);
        rep.space.record(0, &[space::deadlock_violation(&[1])]);
        assert_eq!(rep.exit_code(), 1);
    }
}
