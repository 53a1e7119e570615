//! Kernel-mode lint rules over a [`VmAnalysis`] — the kernel-position
//! front end; [`lint`](crate::lint) is the spec-position one over the
//! same lattice.
//!
//! Reuses the [`Diag`] type and its **stable** JSON schema, with the
//! position fields reinterpreted for kernels: `thread` is the simulated
//! thread (kernel index), `segment` is the critical-region ordinal
//! within that kernel (`null` for plain code), `op` is the offending
//! **instruction pc**, and `lines` are *physical* cache-line numbers
//! (the spec-level lints report spec line indices; kernels have no
//! spec to index into).
//!
//! Every rule reports **proven facts only**: where the abstract
//! footprint widened to Top the lint stays silent rather than guessing
//! — the conservative direction for diagnostics (no false alarms). The
//! pruning side inverts the polarity: [`VmAnalysis::independence`]
//! degrades Top to *no table* (no missed conflicts). Between the two,
//! widening can cost precision but never soundness.

use crate::lint::{Diag, Severity};
use crate::vmabs::{overfull_l1_set, AbsLines, LoopBound, VmAnalysis};
use sim_core::types::LineAddr;
use std::collections::BTreeSet;

/// Run every kernel rule; deterministic order (rule, thread, pc).
pub fn lint_kernels(a: &VmAnalysis) -> Vec<Diag> {
    let mut out = Vec::new();
    mixed_access_race(a, &mut out);
    capacity_overflow(a, &mut out);
    rollback_unsafe_store(a, &mut out);
    unreachable_instruction(a, &mut out);
    unbounded_loop(a, &mut out);
    dead_store(a, &mut out);
    out
}

/// Ordinal of the critical region beginning at `begin` within thread
/// `t`'s kernel (regions are sorted by begin pc).
fn region_ordinal(a: &VmAnalysis, t: usize, begin: usize) -> Option<usize> {
    a.threads[t]
        .abs
        .regions
        .iter()
        .position(|r| r.begin == begin)
}

fn line_nums(s: &BTreeSet<LineAddr>) -> Vec<u64> {
    s.iter().map(|l| l.0).collect()
}

/// (a) Mixed-access race: a plain access in one kernel provably
/// overlaps a line another kernel provably writes inside a critical
/// region — the HyTM fast/slow-path hazard, now visible through
/// computed addresses.
fn mixed_access_race(a: &VmAnalysis, out: &mut Vec<Diag>) {
    for (t, f) in a.threads.iter().enumerate() {
        for op in f.abs.ops.iter().filter(|o| o.crit.is_none()) {
            let Some(op_lines) = op.lines.lines() else {
                continue; // widened: nothing proven
            };
            for (u, g) in a.threads.iter().enumerate() {
                if u == t {
                    continue;
                }
                let Some(w) = g.abs.crit_writes.lines() else {
                    continue;
                };
                let hit: BTreeSet<LineAddr> = op_lines.intersection(w).copied().collect();
                if hit.is_empty() {
                    continue;
                }
                let verb = if op.is_write { "store" } else { "load" };
                let shown = hit.first().unwrap().0;
                out.push(Diag {
                    rule: "mixed-access-race",
                    severity: Severity::Error,
                    thread: Some(t),
                    segment: None,
                    op: Some(op.pc),
                    lines: line_nums(&hit),
                    message: format!(
                        "plain {verb} at pc {} of phys line {shown} races with a \
                         critical write on thread {u}",
                        op.pc
                    ),
                });
                break; // one diagnostic per op, like the spec lint
            }
        }
    }
}

/// (b) Capacity overflow: a critical region's proven footprint maps
/// more lines to one L1 set than the speculative ways — overflow is
/// guaranteed on every HTM attempt.
fn capacity_overflow(a: &VmAnalysis, out: &mut Vec<Diag>) {
    if !a.system.uses_htm() {
        return;
    }
    let ways = a.cfg.speculative_ways();
    for (t, f) in a.threads.iter().enumerate() {
        for (s, region) in f.abs.regions.iter().enumerate() {
            let Some(phys) = region.speculative_lines(a.subscribes()) else {
                continue; // widened region: overflow unprovable
            };
            let Some((set, n)) = overfull_l1_set(&a.cfg, &phys) else {
                continue;
            };
            out.push(Diag {
                rule: "capacity-overflow",
                severity: Severity::Warn,
                thread: Some(t),
                segment: Some(s),
                op: Some(region.begin),
                lines: line_nums(&phys),
                message: format!(
                    "critical region maps {n} lines to L1 set {set} \
                     (associativity {ways}): speculative overflow is guaranteed"
                ),
            });
        }
    }
}

/// (c) Rollback-unsafe store: a store pc reachable both inside and
/// outside a critical region. An abort restores the `CritBegin`
/// register snapshot and re-executes from there, so the plain-context
/// incarnation of the store can be resurrected with rolled-back
/// operands. `Kernel::validate` rejects this shape; the lint diagnoses
/// hand-built kernels that bypass it.
fn rollback_unsafe_store(a: &VmAnalysis, out: &mut Vec<Diag>) {
    for (t, f) in a.threads.iter().enumerate() {
        for pc in f.abs.rollback_unsafe() {
            let lines: Vec<u64> = f
                .abs
                .ops
                .iter()
                .filter(|o| o.pc == pc)
                .filter_map(|o| o.lines.lines())
                .flat_map(line_nums)
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            out.push(Diag {
                rule: "rollback-unsafe-store",
                severity: Severity::Error,
                thread: Some(t),
                segment: None,
                op: Some(pc),
                lines,
                message: format!(
                    "store at pc {pc} is reachable both inside and outside a \
                     critical region: an abort rollback can resurrect it with \
                     stale registers"
                ),
            });
        }
    }
}

/// (d) Unreachable instruction: never visited by the abstract fixpoint
/// (which over-approximates reachability, so this is a proof).
fn unreachable_instruction(a: &VmAnalysis, out: &mut Vec<Diag>) {
    for (t, f) in a.threads.iter().enumerate() {
        for (pc, &r) in f.abs.reachable.iter().enumerate() {
            if !r {
                out.push(Diag {
                    rule: "unreachable-instruction",
                    severity: Severity::Warn,
                    thread: Some(t),
                    segment: None,
                    op: Some(pc),
                    lines: vec![],
                    message: format!("instruction at pc {pc} can never execute"),
                });
            }
        }
    }
}

/// (e) Unbounded loop: provably no feasible exit. Inside a critical
/// region this is an error — the transaction can never commit and the
/// fallback path spins under the lock forever.
fn unbounded_loop(a: &VmAnalysis, out: &mut Vec<Diag>) {
    for (t, f) in a.threads.iter().enumerate() {
        for l in &f.abs.loops {
            if l.bound != LoopBound::Unbounded {
                continue;
            }
            let (rule, severity, place): (&'static str, _, _) = if l.in_crit {
                (
                    "unbounded-loop-in-crit",
                    Severity::Error,
                    " inside a critical region",
                )
            } else {
                ("unbounded-loop", Severity::Warn, "")
            };
            out.push(Diag {
                rule,
                severity,
                thread: Some(t),
                segment: None,
                op: Some(l.from),
                lines: vec![],
                message: format!(
                    "loop at pc {} -> {} has no feasible exit{place}",
                    l.from, l.head
                ),
            });
        }
    }
}

/// (f) Dead store: a proven store target no kernel can ever read.
/// Requires *every* read footprint in the program to be precise —
/// one widened reader and nothing is provably dead.
fn dead_store(a: &VmAnalysis, out: &mut Vec<Diag>) {
    let mut read: BTreeSet<LineAddr> = BTreeSet::new();
    for f in &a.threads {
        for s in [&f.abs.crit_reads, &f.abs.plain_reads] {
            match s {
                AbsLines::Lines(ls) => read.extend(ls.iter().copied()),
                AbsLines::Top => return,
            }
        }
    }
    for (t, f) in a.threads.iter().enumerate() {
        for op in f.abs.ops.iter().filter(|o| o.is_write && !o.is_read) {
            let Some(lines) = op.lines.lines() else {
                continue;
            };
            if lines.iter().any(|l| read.contains(l)) {
                continue;
            }
            let Some(dead) = lines.first() else {
                continue;
            };
            out.push(Diag {
                rule: "dead-store",
                severity: Severity::Note,
                thread: Some(t),
                segment: op.crit.and_then(|b| region_ordinal(a, t, b)),
                op: Some(op.pc),
                lines: line_nums(lines),
                message: format!("store to phys line {} that no thread reads", dead.0),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestvm::spec::SpecProgram;
    use guestvm::{Instr, Kernel, KernelBuilder, ProgSpec};
    use lockiller::SystemKind;
    use sim_core::config::SystemConfig;

    fn lint_spec(spec: &str, system: SystemKind) -> Vec<Diag> {
        let spec = ProgSpec::parse(spec).unwrap();
        let kernels = SpecProgram::compile_all(&spec);
        let a = VmAnalysis::new(system, SystemConfig::testing(2), &kernels);
        lint_kernels(&a)
    }

    #[test]
    fn mixed_race_matches_spec_level_lint() {
        // The CI demo kernel: thread 1 plain-reads what thread 0
        // critically writes.
        let diags = lint_spec("2/c:L0,S1/p:L1", SystemKind::LockillerTm);
        let race: Vec<&Diag> = diags
            .iter()
            .filter(|d| d.rule == "mixed-access-race")
            .collect();
        assert_eq!(race.len(), 1);
        assert_eq!(race[0].thread, Some(1));
        assert_eq!(race[0].lines, vec![SpecProgram::data_line(1).0]);
        assert_eq!(race[0].severity, Severity::Error);
    }

    #[test]
    fn disjoint_program_is_clean() {
        let diags = lint_spec("2/c:L0,S0/c:L1,S1", SystemKind::LockillerTm);
        assert!(
            diags.iter().all(|d| d.severity < Severity::Error),
            "unexpected errors: {diags:?}"
        );
    }

    #[test]
    fn rollback_unsafe_and_unbounded_loops_report() {
        // Hand-built kernel bypassing validate(): a store reachable in
        // both contexts plus a spin loop inside the critical region.
        let k = Kernel {
            name: "evil".into(),
            nregs: 2,
            instrs: vec![
                Instr::Imm(0, 64),
                Instr::Load(1, 0, 0),
                Instr::Br(guestvm::Cond::Eq, 1, 0, 5),
                Instr::CritBegin,
                Instr::Jmp(6),
                Instr::Store(0, 0, 1),
                Instr::Store(0, 0, 1),
                Instr::Jmp(6), // spin: never reaches CritEnd
                Instr::CritEnd,
                Instr::Halt,
            ],
        };
        assert!(k.validate().is_err());
        let a = VmAnalysis::new(SystemKind::LockillerTm, SystemConfig::testing(2), &[k]);
        let diags = lint_kernels(&a);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"rollback-unsafe-store"), "{rules:?}");
        assert!(rules.contains(&"unbounded-loop-in-crit"), "{rules:?}");
        assert!(rules.contains(&"unreachable-instruction"), "{rules:?}");
        let rb = diags
            .iter()
            .find(|d| d.rule == "rollback-unsafe-store")
            .unwrap();
        assert_eq!(rb.op, Some(6));
    }

    #[test]
    fn dead_store_goes_silent_when_any_reader_widens() {
        // Thread 0 stores line 30 nobody reads -> dead-store...
        let mut b = KernelBuilder::new("w", 2);
        b.imm(0, 240).imm(1, 1).store(0, 0, 1).halt();
        let a = VmAnalysis::new(
            SystemKind::LockillerTm,
            SystemConfig::testing(2),
            &[b.build()],
        );
        assert!(lint_kernels(&a).iter().any(|d| d.rule == "dead-store"));
        // ...but a Top reader elsewhere withdraws the proof.
        let mut b = KernelBuilder::new("w", 2);
        b.imm(0, 240).imm(1, 1).store(0, 0, 1).halt();
        let mut top = KernelBuilder::new("r", 2);
        top.imm(0, 64).load(1, 0, 0).load(1, 1, 0).halt();
        let a = VmAnalysis::new(
            SystemKind::LockillerTm,
            SystemConfig::testing(2),
            &[b.build(), top.build()],
        );
        assert!(lint_kernels(&a).iter().all(|d| d.rule != "dead-store"));
    }

    #[test]
    fn json_schema_round_trips_through_existing_renderer() {
        let diags = lint_spec("2/c:L0,S1/p:L1", SystemKind::LockillerTm);
        let j = diags
            .iter()
            .find(|d| d.rule == "mixed-access-race")
            .unwrap()
            .to_json();
        assert!(j.starts_with("{\"rule\": \"mixed-access-race\""), "{j}");
        assert!(j.contains("\"severity\": \"error\""), "{j}");
    }
}
