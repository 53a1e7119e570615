//! The op lists. Why each workload exists is recorded in
//! `BENCHMARK.json` and `WORKLOADS.md`.

use crate::ops::{Cache, Op, Point, Prog, SPECS};
use lockiller::{Backend, SystemKind};
use stamp::{Scale, WorkloadKind};

fn full(system: SystemKind, prog: Prog, cache: Cache, backend: Backend) -> Point {
    Point {
        system,
        prog,
        scale: Scale::Full,
        cache,
        backend,
    }
}

/// The op list of workload `name`, or `None` for an unknown name.
pub fn ops(name: &str) -> Option<Vec<Op>> {
    match name {
        "vm-engine" => {
            let mut ops = Vec::new();
            for system in [SystemKind::LockillerTm, SystemKind::Baseline] {
                for prog in [
                    Prog::Stamp(WorkloadKind::KmeansLow),
                    Prog::Stamp(WorkloadKind::KmeansHigh),
                    Prog::IntruderFlow,
                ] {
                    ops.push(Op::Sim(full(system, prog, Cache::Typical, Backend::Vm)));
                }
            }
            Some(ops)
        }
        "thread-guests" => {
            let mut ops: Vec<Op> = [
                WorkloadKind::Ssca2,
                WorkloadKind::Intruder,
                WorkloadKind::VacationLow,
                WorkloadKind::VacationHigh,
                WorkloadKind::Genome,
                WorkloadKind::Yada,
            ]
            .into_iter()
            .map(|w| {
                Op::Sim(full(
                    SystemKind::LockillerTm,
                    Prog::Stamp(w),
                    Cache::Typical,
                    Backend::Threads,
                ))
            })
            .collect();
            // The only point that reaches switchingMode and the LLC
            // overflow signatures.
            ops.push(Op::Sim(full(
                SystemKind::LockillerTm,
                Prog::Stamp(WorkloadKind::VacationHigh),
                Cache::Small,
                Backend::Threads,
            )));
            Some(ops)
        }
        "verify-tools" => {
            let mut ops = Vec::new();
            for spec in &SPECS {
                for backend in [Backend::Threads, Backend::Vm] {
                    for table in [false, true] {
                        ops.push(Op::Explore {
                            spec,
                            backend,
                            table,
                        });
                    }
                }
            }
            ops.push(Op::Session(Point {
                system: SystemKind::LockillerTm,
                prog: Prog::Stamp(WorkloadKind::Intruder),
                scale: Scale::Small,
                cache: Cache::Typical,
                backend: Backend::Threads,
            }));
            Some(ops)
        }
        _ => None,
    }
}

/// The instrumented probe every workload runs outside its timed passes
/// (and inside each pass of the traced run), so every layer is live on
/// every workload: a Tiny kmeans point on both guest execution cores
/// (checked mode, `tmcheck`, `tmobs` exports, the backend-twin check)
/// and the battery spec the `tmstatic` table strictly prunes, explored
/// on the VM backend with and without the table.
pub fn probe() -> Vec<Op> {
    let kmeans = |backend| Point {
        system: SystemKind::LockillerTm,
        prog: Prog::Stamp(WorkloadKind::KmeansLow),
        scale: Scale::Tiny,
        cache: Cache::Typical,
        backend,
    };
    let disjoint = &SPECS[3];
    vec![
        Op::Probe(kmeans(Backend::Threads)),
        Op::Probe(kmeans(Backend::Vm)),
        Op::Explore {
            spec: disjoint,
            backend: Backend::Vm,
            table: false,
        },
        Op::Explore {
            spec: disjoint,
            backend: Backend::Vm,
            table: true,
        },
    ]
}
