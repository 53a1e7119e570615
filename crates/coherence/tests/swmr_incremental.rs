//! The incremental SWMR check against the full scan, on the engine.
//!
//! Checked mode checks single-writer/multiple-reader before every event
//! with `MemSystem::check_swmr_changed`, which looks up only the lines
//! the previous event gave an L1 copy or E/M state. Built with this
//! crate's `proptest` feature (which this suite requires), every such
//! call also runs the full `MemSystem::check_swmr` scan and asserts the
//! two verdicts agree, so each run below holds the incremental check to
//! the reference after every event it dispatches.
//!
//! Inputs: random `ProgSpec` kernels on all nine systems, under random
//! same-cycle tie-breaks, half of them on a 2-line L1 so fills evict and
//! transactions overflow into switchingMode and the fallback path. Each
//! random case runs without faults (SWMR must hold), under
//! `fault.drop_nack` (the protocol hands out a second exclusive copy, so
//! many runs violate SWMR) and under a mix of fault knobs; the
//! library assertion holds the incremental verdict to the full scan in
//! all three. For a fixed set of `drop_nack` cases, the first violation
//! each run reports (cycle and message) is also pinned to what the
//! engine reported when it ran the full scan before every event.

use guestvm::{ProgSpec, SpecProgram};
use lockiller::{EvDesc, Runner, Scheduler, SystemKind};
use proptest::prelude::*;
use sim_core::config::{CheckCfg, FaultInject, SystemConfig, SystemConfigBuilder};
use sim_core::stats::RunStats;
use sim_core::types::Cycle;

/// Resolves every same-cycle tie-break from a seeded generator.
struct RandomTies(proptest::Rng);

impl Scheduler for RandomTies {
    fn pick(&mut self, _at: Cycle, options: &[EvDesc], _fp: u64) -> usize {
        self.0.below(options.len() as u64) as usize
    }
}

/// One checked run of `spec` on `system` (ties broken by `sched_seed`).
fn checked_run(
    system: SystemKind,
    spec: &ProgSpec,
    tiny_l1: bool,
    fault: FaultInject,
    sched_seed: u64,
) -> RunStats {
    let threads = spec.num_threads();
    let mut b = SystemConfigBuilder::from_config(SystemConfig::testing(threads.max(2)));
    if tiny_l1 {
        b = b.l1_capacity(128, 2);
    }
    let cfg = b
        .check(CheckCfg {
            enabled: true,
            fault,
        })
        .build()
        .expect("test config is valid");
    let mut prog = SpecProgram::new(spec.clone());
    let mut sched = RandomTies(proptest::Rng::new(sched_seed));
    Runner::new(system)
        .threads(threads)
        .config(cfg)
        .retries(2)
        .max_cycles(300_000)
        .seed(0)
        .run_scheduled(&mut prog, &mut sched)
        .stats
}

/// Case `seed`: a random 2–4-thread spec over up to 4 lines.
fn random_case(seed: u64) -> (SystemKind, ProgSpec, bool) {
    let mut rng = proptest::Rng::new(seed);
    let threads = 2 + rng.below(3) as usize;
    let spec = ProgSpec::random(&mut rng, threads, 4);
    let system = SystemKind::ALL[rng.below(SystemKind::ALL.len() as u64) as usize];
    (system, spec, rng.below(2) == 1)
}

/// `drop_nack` alone: the knob that breaks SWMR.
const DROP_NACK: FaultInject = FaultInject {
    ignore_conflicts: false,
    drop_nack: true,
    drop_wakeups: false,
    double_grant: false,
    prio_decay: false,
};

/// Every fault knob but `ignore_conflicts`, which on some of these specs
/// stops the run at `L1::commit_tx`'s debug assertion (a speculatively
/// written line that is no longer Modified at commit).
const FAULT_MIX: FaultInject = FaultInject {
    ignore_conflicts: false,
    drop_nack: true,
    drop_wakeups: true,
    double_grant: true,
    prio_decay: true,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_swmr_agrees_with_full_scan(seed in any::<u64>()) {
        let (system, spec, tiny_l1) = random_case(seed);
        let stats = checked_run(system, &spec, tiny_l1, FaultInject::default(), seed);
        prop_assert!(
            stats.swmr_violation.is_none(),
            "{} {} tiny_l1={tiny_l1}: {:?}",
            system.name(),
            spec.render(),
            stats.swmr_violation
        );
        // Faulty runs may violate SWMR; the library assertion checks
        // that both checks agree after every event either way.
        for fault in [DROP_NACK, FAULT_MIX] {
            checked_run(system, &spec, tiny_l1, fault, seed);
        }
    }
}

/// The conflict ring on every system, both L1 sizes, four tie-break
/// seeds each.
#[test]
fn incremental_swmr_agrees_on_every_system() {
    let ring = ProgSpec::conflict_ring(3, 3);
    for system in SystemKind::ALL {
        for tiny_l1 in [false, true] {
            for sched_seed in 0..4 {
                let stats = checked_run(system, &ring, tiny_l1, FaultInject::default(), sched_seed);
                assert!(stats.swmr_violation.is_none(), "{}", system.name());
            }
        }
    }
}

/// First SWMR violation per `drop_nack` case that has one, as the engine
/// reported it when it ran the full scan before every event:
/// `case<TAB>violation`.
const DROP_NACK_GOLDEN: &str = include_str!("golden/swmr_drop_nack.txt");

#[test]
fn drop_nack_first_violation_matches_full_scan() {
    let fault = DROP_NACK;
    let mut cases: Vec<(String, SystemKind, ProgSpec, bool, u64)> = Vec::new();
    for threads in 2..=4 {
        for system in SystemKind::ALL {
            let tiny_l1 = threads == 3;
            let name = format!("ring{threads} {} tiny_l1={tiny_l1}", system.name());
            cases.push((
                name,
                system,
                ProgSpec::conflict_ring(threads, 3),
                tiny_l1,
                7,
            ));
        }
    }
    for seed in 0..64 {
        let (system, spec, tiny_l1) = random_case(seed);
        let name = format!(
            "random#{seed} {} {} tiny_l1={tiny_l1}",
            system.name(),
            spec.render()
        );
        cases.push((name, system, spec, tiny_l1, seed));
    }
    let mut got = String::new();
    for (name, system, spec, tiny_l1, sched_seed) in &cases {
        let stats = checked_run(*system, spec, *tiny_l1, fault, *sched_seed);
        if let Some(v) = &stats.swmr_violation {
            got.push_str(&format!("{name}\t{v}\n"));
        }
    }
    assert_eq!(got, DROP_NACK_GOLDEN, "actual table:\n{got}");
}
