//! Property-based tests of the coherence substrate: random request
//! streams must preserve SWMR and directory/L1 agreement, arbitration
//! must be a total order, and signatures must never produce false
//! negatives.

use coherence::memsys::{AccessKind, AccessResult, MemSystem};
use coherence::msg::{arbitrate, ReqInfo, ReqKind, ReqMode, TxMode, Winner};
use coherence::Signature;
use proptest::prelude::*;
use sim_core::config::{PolicyConfig, PriorityKind, RejectAction, SystemConfig};
use sim_core::event::EventQueue;
use sim_core::types::LineAddr;

/// Drive random non-transactional accesses from several cores and check
/// the SWMR invariant after every quiescent point.
fn random_access_run(ops: &[(u8, u8, u8)], recovery: bool) {
    let mut cfg = SystemConfig::testing(4);
    if recovery {
        cfg.policy = PolicyConfig {
            recovery: true,
            priority: PriorityKind::InstsBased,
            reject_action: RejectAction::WaitWakeup,
            ..PolicyConfig::default()
        };
    }
    let mut ms = MemSystem::new(cfg);
    let mut q = EventQueue::new();
    let mut blocked = [false; 4];
    for &(core, line, write) in ops {
        let core = (core % 4) as usize;
        if blocked[core] {
            continue; // single outstanding request per core
        }
        let line = LineAddr(16 + (line % 8) as u64);
        let kind = if write % 2 == 0 {
            AccessKind::Load
        } else {
            AccessKind::Store
        };
        let t = q.now();
        match ms.access(t, core, line, kind) {
            AccessResult::Done { .. } => {}
            AccessResult::Pending => blocked[core] = true,
            AccessResult::Overflow { .. } => unreachable!("non-tx access cannot overflow"),
        }
        // Pump to quiescence.
        let (msgs, notices) = ms.drain_outputs();
        for (at, m) in msgs {
            q.schedule_at(at, m);
        }
        for (_, n) in notices {
            if let coherence::memsys::CoreNotice::AccessDone { core } = n {
                blocked[core] = false;
            }
        }
        while let Some((at, m)) = q.pop() {
            ms.handle_msg(at, m);
            let (msgs, notices) = ms.drain_outputs();
            for (at2, m2) in msgs {
                q.schedule_at(at2, m2);
            }
            for (_, n) in notices {
                if let coherence::memsys::CoreNotice::AccessDone { core } = n {
                    blocked[core] = false;
                }
            }
        }
        ms.check_swmr().expect("SWMR violated");
    }
}

/// Mixed transactional stream interpreter: each op byte-tuple drives one
/// of begin/commit/abort/load/store per core, pumping to quiescence and
/// checking SWMR plus transaction-bit hygiene after every step.
fn random_tx_run(ops: &[(u8, u8, u8, u8)]) {
    let mut cfg = SystemConfig::testing(4);
    cfg.policy = PolicyConfig {
        recovery: true,
        priority: PriorityKind::InstsBased,
        reject_action: RejectAction::WaitWakeup,
        ..PolicyConfig::default()
    };
    let mut ms = MemSystem::new(cfg);
    let mut q = EventQueue::new();
    // Engine-side mirror: per-core (in_tx, blocked, parked, prio counter).
    let mut in_tx = [false; 4];
    let mut blocked = [false; 4];
    let mut prio = [0u64; 4];

    let pump = |ms: &mut MemSystem,
                q: &mut EventQueue<coherence::msg::NetMsg>,
                in_tx: &mut [bool; 4],
                blocked: &mut [bool; 4]| {
        loop {
            let (msgs, notices) = ms.drain_outputs();
            for (at, m) in msgs {
                q.schedule_at(at, m);
            }
            // Collected: the reject arm below calls back into `ms`.
            let notices: Vec<_> = notices.collect();
            for (_, n) in notices {
                match n {
                    coherence::memsys::CoreNotice::AccessDone { core } => blocked[core] = false,
                    coherence::memsys::CoreNotice::AccessRejected { core, .. } => {
                        // Park-free model: drop the request entirely.
                        blocked[core] = false;
                        ms.cancel_pending(core);
                    }
                    coherence::memsys::CoreNotice::TxAborted { core, .. } => {
                        in_tx[core] = false;
                        blocked[core] = false;
                    }
                    coherence::memsys::CoreNotice::Wakeup { .. }
                    | coherence::memsys::CoreNotice::HlaResult { .. } => {}
                }
            }
            match q.pop() {
                Some((at, m)) => ms.handle_msg(at, m),
                None => break,
            }
        }
    };

    for &(sel, core, line, val) in ops {
        let core = (core % 4) as usize;
        if blocked[core] {
            continue;
        }
        let t = q.now();
        match sel % 5 {
            0 => {
                if !in_tx[core] && ms.core_mode(core) == TxMode::None {
                    ms.begin_htm(core, 0);
                    in_tx[core] = true;
                    prio[core] = 0;
                }
            }
            1 => {
                if in_tx[core] && ms.core_mode(core) == TxMode::Htm {
                    ms.commit_htm(t, core);
                    in_tx[core] = false;
                }
            }
            2 => {
                if in_tx[core] && ms.core_mode(core) == TxMode::Htm {
                    ms.abort_locally(t, core);
                    in_tx[core] = false;
                }
            }
            _ => {
                let l = LineAddr(32 + (line % 10) as u64);
                let kind = if val % 2 == 0 {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                };
                prio[core] += 1;
                ms.set_prio(core, prio[core]);
                match ms.access(t, core, l, kind) {
                    AccessResult::Done { .. } => {}
                    AccessResult::Pending => blocked[core] = true,
                    AccessResult::Overflow { .. } => {
                        // Capacity abort, as the engine would do.
                        ms.abort_locally(t, core);
                        in_tx[core] = false;
                    }
                }
            }
        }
        pump(&mut ms, &mut q, &mut in_tx, &mut blocked);
        ms.check_swmr().expect("SWMR violated");
        for (c, &tx) in in_tx.iter().enumerate() {
            if !tx && ms.core_mode(c) == TxMode::None {
                assert_eq!(ms.tx_footprint(c), 0, "core {c}: tx bits leaked outside tx");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn swmr_holds_under_random_nontx_traffic(ops in prop::collection::vec(any::<(u8, u8, u8)>(), 1..120)) {
        random_access_run(&ops, false);
    }

    #[test]
    fn swmr_and_bit_hygiene_under_random_tx_streams(ops in prop::collection::vec(any::<(u8, u8, u8, u8)>(), 1..150)) {
        random_tx_run(&ops);
    }

    #[test]
    fn swmr_holds_with_recovery_policy(ops in prop::collection::vec(any::<(u8, u8, u8)>(), 1..120)) {
        random_access_run(&ops, true);
    }

    #[test]
    fn arbitration_total_order(pa in any::<u64>(), pb in any::<u64>(), ca in 0usize..32, cb in 0usize..32) {
        prop_assume!(ca != cb);
        let policy = PolicyConfig { recovery: true, ..PolicyConfig::default() };
        let mk = |core, prio| ReqInfo {
            core,
            kind: ReqKind::GetM,
            line: LineAddr(1),
            prio,
            mode: ReqMode::Htm,
            attempt: 0,
        };
        let ab = arbitrate(&policy, &mk(ca, pa), TxMode::Htm, pb, cb);
        let ba = arbitrate(&policy, &mk(cb, pb), TxMode::Htm, pa, ca);
        // Exactly one direction wins: no mutual-win (lost update) and no
        // mutual-reject (deadlock).
        prop_assert_ne!(ab, ba);
        // And the winner is consistent with the (prio, -core) total order.
        let a_beats_b = (pa, std::cmp::Reverse(ca)) > (pb, std::cmp::Reverse(cb));
        prop_assert_eq!(ab == Winner::Requester, a_beats_b);
    }

    #[test]
    fn signature_no_false_negatives(lines in prop::collection::vec(any::<u64>(), 1..256)) {
        let mut sig = Signature::new(512, 3);
        for &l in &lines {
            sig.add(LineAddr(l));
        }
        for &l in &lines {
            prop_assert!(sig.test(LineAddr(l)));
        }
    }

    #[test]
    fn signature_clear_resets_everything(lines in prop::collection::vec(any::<u64>(), 1..64)) {
        let mut sig = Signature::new(512, 2);
        for &l in &lines {
            sig.add(LineAddr(l));
        }
        sig.clear();
        prop_assert!(sig.is_empty());
        // After clear, only re-added lines test positive.
        sig.add(LineAddr(12345));
        prop_assert!(sig.test(LineAddr(12345)));
    }
}
