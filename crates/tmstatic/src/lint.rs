//! Spec-mode lint rules over an [`Analysis`], with machine-readable
//! diagnostics. Line facts come from the compiled kernels' lattice
//! ([`VmAnalysis`](crate::VmAnalysis)), with spec line `l` on
//! [`SpecProgram::data_line`]`(l)`; positions come from the spec.
//!
//! The JSON schema emitted by [`Diag::to_json`] is **stable** — CI
//! baselines and downstream tooling depend on it (see the golden-file
//! tests). One object per diagnostic:
//!
//! ```json
//! {"rule": "mixed-access-race", "severity": "error", "thread": 1,
//!  "segment": 0, "op": 0, "lines": [1],
//!  "message": "plain load of line 1 races with a critical write on thread 0"}
//! ```
//!
//! `thread`/`segment`/`op` are indices into the spec (`null` for
//! program-level diagnostics); `lines` are *spec* line indices.

use crate::analysis::Analysis;
use crate::vmabs::{overfull_l1_set, AbsLines};
use std::collections::BTreeSet;
use tmverify::progs::{Op, SpecProgram};

/// Diagnostic severity, ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Hygiene note; never affects the exit code.
    Note,
    /// A hazard worth knowing about (guaranteed overflow, hand-off
    /// cycle, no-op compute).
    Warn,
    /// A statically-certain race class (`tmlint` exits 1).
    Error,
}

impl Severity {
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// Stable rule identifier (kebab-case).
    pub rule: &'static str,
    pub severity: Severity,
    /// Offending thread index, if attributable.
    pub thread: Option<usize>,
    /// Offending segment index within the thread.
    pub segment: Option<usize>,
    /// Offending op index within the segment.
    pub op: Option<usize>,
    /// Spec lines involved, sorted ascending.
    pub lines: Vec<u64>,
    pub message: String,
}

impl Diag {
    /// The stable JSON form (one object, no trailing newline).
    pub fn to_json(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |n| n.to_string());
        let lines: Vec<String> = self.lines.iter().map(u64::to_string).collect();
        format!(
            "{{\"rule\": \"{}\", \"severity\": \"{}\", \"thread\": {}, \
             \"segment\": {}, \"op\": {}, \"lines\": [{}], \"message\": \"{}\"}}",
            self.rule,
            self.severity.name(),
            opt(self.thread),
            opt(self.segment),
            opt(self.op),
            lines.join(", "),
            self.message.replace('\\', "\\\\").replace('"', "\\\""),
        )
    }

    /// Human-readable one-liner.
    pub fn render(&self) -> String {
        let mut at = String::new();
        if let Some(t) = self.thread {
            at.push_str(&format!(" thread {t}"));
            if let Some(s) = self.segment {
                at.push_str(&format!(" segment {s}"));
                if let Some(o) = self.op {
                    at.push_str(&format!(" op {o}"));
                }
            }
        }
        format!(
            "{}[{}]{}: {}",
            self.severity.name(),
            self.rule,
            at,
            self.message
        )
    }
}

/// Run every rule; diagnostics are ordered by rule, then position, so
/// the output is deterministic.
pub fn lint(a: &Analysis) -> Vec<Diag> {
    let mut out = Vec::new();
    mixed_access_race(a, &mut out);
    capacity_overflow(a, &mut out);
    handoff_cycle(a, &mut out);
    dead_store(a, &mut out);
    unused_line(a, &mut out);
    noop_compute(a, &mut out);
    out
}

/// (a) Mixed-access race: a plain segment touches a line some critical
/// segment on another thread writes — the HyTM fast/slow-path hazard.
fn mixed_access_race(a: &Analysis, out: &mut Vec<Diag>) {
    for (t, segs) in a.spec.threads.iter().enumerate() {
        for (s, seg) in segs.iter().enumerate().filter(|(_, seg)| !seg.critical) {
            for (k, op) in seg.ops.iter().enumerate() {
                let (l, verb) = match *op {
                    Op::Load(l) => (l, "load"),
                    Op::Store(l) => (l, "store"),
                    Op::Compute(_) => continue,
                };
                let line = SpecProgram::data_line(l);
                let writer = (0..a.vm.threads.len())
                    .find(|&u| u != t && a.vm.threads[u].abs.crit_writes.contains(line));
                if let Some(u) = writer {
                    out.push(Diag {
                        rule: "mixed-access-race",
                        severity: Severity::Error,
                        thread: Some(t),
                        segment: Some(s),
                        op: Some(k),
                        lines: vec![l],
                        message: format!(
                            "plain {verb} of line {l} races with a critical write on thread {u}"
                        ),
                    });
                }
            }
        }
    }
}

/// (b) Capacity-overflow prediction: a critical segment's static
/// footprint cannot fit the speculative buffer, guaranteeing overflow
/// (and, on switchingMode systems, signature spills).
fn capacity_overflow(a: &Analysis, out: &mut Vec<Diag>) {
    if !a.vm.system.uses_htm() {
        return;
    }
    let ways = a.vm.cfg.speculative_ways();
    let budget = a.vm.cfg.signature_line_budget();
    for (t, f) in a.vm.threads.iter().enumerate() {
        // Critical region `j` of the kernel is the thread's `j`-th
        // critical segment.
        let crit_segs = a.spec.threads[t]
            .iter()
            .enumerate()
            .filter(|(_, seg)| seg.critical);
        for ((s, _), region) in crit_segs.zip(&f.abs.regions) {
            let Some(phys) = region.speculative_lines(a.vm.subscribes()) else {
                continue;
            };
            let Some((set, n)) = overfull_l1_set(&a.vm.cfg, &phys) else {
                continue;
            };
            let sig = if phys.len() > budget {
                format!(" and exceeds the {budget}-line signature budget")
            } else {
                String::new()
            };
            out.push(Diag {
                rule: "capacity-overflow",
                severity: Severity::Warn,
                thread: Some(t),
                segment: Some(s),
                op: None,
                lines: a.spec_lines(&AbsLines::Lines(phys)).into_iter().collect(),
                message: format!(
                    "critical segment maps {n} lines to L1 set {set} \
                     (associativity {ways}): speculative overflow is guaranteed{sig}"
                ),
            });
        }
    }
}

/// (c) Hand-off cycle: a cycle in the cross-thread line-dependency
/// graph over critical segments (thread `t` depends on `u` when `t`
/// touches a line `u` writes critically) — the deadlock/livelock shape
/// of the `2/c:L0,S1/c:L1,S0` kernel.
fn handoff_cycle(a: &Analysis, out: &mut Vec<Diag>) {
    let threads = &a.vm.threads;
    let n = threads.len();
    let crit_writes: Vec<BTreeSet<u64>> = threads
        .iter()
        .map(|f| a.spec_lines(&f.abs.crit_writes))
        .collect();
    let crit_touched: Vec<BTreeSet<u64>> = threads
        .iter()
        .map(|f| &a.spec_lines(&f.abs.crit_reads) | &a.spec_lines(&f.abs.crit_writes))
        .collect();
    // Transitive closure of the (tiny) thread graph: `t` reaches `u`
    // along one or more edges. A multi-node strongly connected
    // component is a hand-off cycle.
    let mut reach: Vec<Vec<bool>> = (0..n)
        .map(|t| {
            (0..n)
                .map(|u| t != u && !crit_writes[u].is_disjoint(&crit_touched[t]))
                .collect()
        })
        .collect();
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                reach[i][j] |= reach[i][k] && reach[k][j];
            }
        }
    }
    let mut placed = vec![false; n];
    for start in 0..n {
        if placed[start] {
            continue;
        }
        let members: Vec<usize> = (start..n)
            .filter(|&v| v == start || (reach[start][v] && reach[v][start]))
            .collect();
        for &v in &members {
            placed[v] = true;
        }
        if members.len() < 2 {
            continue;
        }
        let mut lines: BTreeSet<u64> = BTreeSet::new();
        for &t in &members {
            for &u in &members {
                if t != u {
                    lines.extend(crit_writes[u].intersection(&crit_touched[t]));
                }
            }
        }
        let names: Vec<String> = members.iter().map(usize::to_string).collect();
        out.push(Diag {
            rule: "handoff-cycle",
            severity: Severity::Warn,
            thread: Some(members[0]),
            segment: None,
            op: None,
            lines: lines.into_iter().collect(),
            message: format!(
                "critical segments of threads {} form a line hand-off cycle",
                names.join(", ")
            ),
        });
    }
}

/// (d) Dead store: a line stored by some thread but never loaded by
/// anyone — the value can never be observed.
fn dead_store(a: &Analysis, out: &mut Vec<Diag>) {
    let loaded = |l: u64| {
        let line = SpecProgram::data_line(l);
        a.vm.threads
            .iter()
            .any(|f| f.abs.crit_reads.contains(line) || f.abs.plain_reads.contains(line))
    };
    for (t, segs) in a.spec.threads.iter().enumerate() {
        for (s, seg) in segs.iter().enumerate() {
            for (k, op) in seg.ops.iter().enumerate() {
                let Op::Store(l) = *op else { continue };
                if loaded(l) {
                    continue;
                }
                out.push(Diag {
                    rule: "dead-store",
                    severity: Severity::Note,
                    thread: Some(t),
                    segment: Some(s),
                    op: Some(k),
                    lines: vec![l],
                    message: format!("store to line {l} is never loaded by any thread"),
                });
            }
        }
    }
}

/// (d) Unused line: declared in the arena but never referenced.
fn unused_line(a: &Analysis, out: &mut Vec<Diag>) {
    let touched: BTreeSet<u64> =
        a.vm.threads
            .iter()
            .flat_map(|f| a.spec_lines(&f.abs.touched()))
            .collect();
    for l in 0..a.spec.lines {
        if !touched.contains(&l) {
            out.push(Diag {
                rule: "unused-line",
                severity: Severity::Note,
                thread: None,
                segment: None,
                op: None,
                lines: vec![l],
                message: format!("declared line {l} is never accessed"),
            });
        }
    }
}

/// `C0` compute segments do nothing; almost always a spec typo.
fn noop_compute(a: &Analysis, out: &mut Vec<Diag>) {
    for (t, segs) in a.spec.threads.iter().enumerate() {
        for (s, seg) in segs.iter().enumerate() {
            for (k, op) in seg.ops.iter().enumerate() {
                if *op == Op::Compute(0) {
                    out.push(Diag {
                        rule: "noop-compute",
                        severity: Severity::Warn,
                        thread: Some(t),
                        segment: Some(s),
                        op: Some(k),
                        lines: Vec::new(),
                        message: "C0 computes zero instructions (no-op)".to_string(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockiller::SystemKind;
    use tmverify::progs::ProgSpec;

    fn diags(system: SystemKind, spec: &str, tiny_l1: bool) -> Vec<Diag> {
        let spec = ProgSpec::parse(spec).expect("test specs are valid");
        let mut ex = tmverify::Explorer::new(system, spec.clone());
        ex.tiny_l1 = tiny_l1;
        lint(&Analysis::new(system, spec, ex.config()))
    }

    fn rules(d: &[Diag]) -> Vec<&'static str> {
        d.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn mixed_access_race_flagged_on_demo_spec() {
        let d = diags(SystemKind::LockillerRwi, "2/c:L0,S1/p:L1", false);
        assert!(rules(&d).contains(&"mixed-access-race"), "{d:?}");
        let race = d.iter().find(|d| d.rule == "mixed-access-race").unwrap();
        assert_eq!(race.severity, Severity::Error);
        assert_eq!(
            (race.thread, race.segment, race.op),
            (Some(1), Some(0), Some(0))
        );
        assert_eq!(race.lines, vec![1]);
    }

    #[test]
    fn capacity_overflow_flagged_under_tiny_l1_only() {
        let spec = "6/c:L0,L1,L2,S0/c:L3,L4,L5,S3";
        let tiny = diags(SystemKind::LockillerTm, spec, true);
        assert_eq!(
            tiny.iter()
                .filter(|d| d.rule == "capacity-overflow")
                .count(),
            2,
            "{tiny:?}"
        );
        let full = diags(SystemKind::LockillerTm, spec, false);
        assert!(!rules(&full).contains(&"capacity-overflow"), "{full:?}");
    }

    #[test]
    fn handoff_cycle_flagged_on_the_ring() {
        let d = diags(SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0", false);
        let cyc = d.iter().find(|d| d.rule == "handoff-cycle").expect("cycle");
        assert_eq!(cyc.lines, vec![0, 1]);
        // Disjoint critical sections have no cycle.
        let d = diags(SystemKind::LockillerRwi, "2/c:L0,S0/c:L1,S1", false);
        assert!(!rules(&d).contains(&"handoff-cycle"), "{d:?}");
    }

    #[test]
    fn hazard_rules_are_quiet_on_race_free_kernels() {
        // The corpus ring kernels: no plain segments, no overflow under
        // the default geometry — only the (true-positive) hand-off
        // cycle may fire, never the other two hazard classes.
        for (system, spec) in [
            (SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0"),
            (SystemKind::LockillerRwi, "3/c:L0,S1/c:L1,S2/c:L2,S0"),
            (SystemKind::LockillerTm, "3/c:L0,S1/c:L1,S2/c:L2,S0"),
        ] {
            let d = diags(system, spec, false);
            assert!(!rules(&d).contains(&"mixed-access-race"), "{spec}: {d:?}");
            assert!(!rules(&d).contains(&"capacity-overflow"), "{spec}: {d:?}");
        }
        // And a genuinely hazard-free disjoint kernel is fully quiet.
        let d = diags(SystemKind::LockillerTm, "2/c:L0,S0,L0/c:L1,S1,L1", false);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn hygiene_rules() {
        let d = diags(SystemKind::LockillerRwi, "3/c:S0,C0/c:L0", false);
        assert!(rules(&d).contains(&"noop-compute"), "{d:?}");
        assert!(rules(&d).contains(&"unused-line"), "{d:?}");
        assert!(!rules(&d).contains(&"dead-store"), "store to L0 is read");
        let d = diags(SystemKind::LockillerRwi, "2/c:S0/c:L1", false);
        assert!(rules(&d).contains(&"dead-store"), "{d:?}");
    }

    #[test]
    fn diag_json_shape_is_stable() {
        let d = Diag {
            rule: "mixed-access-race",
            severity: Severity::Error,
            thread: Some(1),
            segment: Some(0),
            op: Some(2),
            lines: vec![1, 3],
            message: "a \"quoted\" message".to_string(),
        };
        assert_eq!(
            d.to_json(),
            "{\"rule\": \"mixed-access-race\", \"severity\": \"error\", \
             \"thread\": 1, \"segment\": 0, \"op\": 2, \"lines\": [1, 3], \
             \"message\": \"a \\\"quoted\\\" message\"}"
        );
        let parsed = sim_core::json::parse(&d.to_json()).expect("valid json");
        assert_eq!(
            parsed.get("rule").and_then(sim_core::json::Json::as_str),
            Some("mixed-access-race")
        );
    }
}
