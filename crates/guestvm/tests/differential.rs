//! The backend differential harness: every program here runs once as
//! its native async body and once on the bytecode VM, and
//! the two runs must be **byte-identical** — same `RunStats` (including
//! every latency histogram), same structured event trace, same final
//! memory image, same termination.
//!
//! This is the acceptance gate for the `GuestExec` redesign: the VM
//! re-implements the whole guest-side retry protocol, and these tests
//! are what pins it to the hand-written runtime. The corpus spans the
//! litmus kernels, the `ProgSpec` exploration corpus (including random
//! specs), every system family, and the tmverify explorer (decision
//! digests over whole schedule spaces).

use guestvm::spec::{ProgSpec, SpecProgram};
use lockiller::{Backend, Runner, SystemKind};
use sim_core::config::SystemConfig;
use tmverify::Explorer;

/// The systems exercised: one per code-path family (CGL spin lock,
/// baseline subscription + fallback, HTMLock lock transactions,
/// recovery variants, switchingMode).
const SYSTEMS: [SystemKind; 5] = [
    SystemKind::Cgl,
    SystemKind::Baseline,
    SystemKind::LockillerRwil,
    SystemKind::LockillerRwi,
    SystemKind::LockillerTm,
];

/// Run `spec` on `kind` under both backends and assert byte-identity.
fn assert_spec_identical(kind: SystemKind, spec: &ProgSpec, retries: Option<u32>) {
    let threads = spec.num_threads();
    let mut runner = Runner::new(kind)
        .threads(threads)
        .config(SystemConfig::testing(threads.max(2)))
        .tracing();
    if let Some(r) = retries {
        runner = runner.retries(r);
    }
    let mut pt = SpecProgram::new(spec.clone());
    let a = runner.clone().backend(Backend::Threads).run(&mut pt);
    let mut pv = SpecProgram::new(spec.clone());
    let b = runner.backend(Backend::Vm).run(&mut pv);

    let label = format!("{} on {}", spec.render(), kind.name());
    assert_eq!(a.stats, b.stats, "RunStats diverge: {label}");
    assert_eq!(
        a.mem.digest(),
        b.mem.digest(),
        "memory images diverge: {label}"
    );
    assert_eq!(
        a.trace_events(),
        b.trace_events(),
        "event traces diverge: {label}"
    );
}

#[test]
fn litmus_specs_bit_identical_across_backends() {
    // Hand-picked kernels covering plain ops, disjoint and conflicting
    // critical sections, compute backoff, and mixed segments.
    let litmus = [
        "1/p:C3",
        "2/p:L0,S1,C2",
        "2/c:L0,S1/c:L1,S0",
        "4/c:L0,S1;p:L2/c:S0,C5",
        "2/c:S0,S1/c:S1,S0/c:S0,C2",
        "8/c:L7,S0/p:S3;c:L3,L4,S4",
        "3/p:S0;c:L1,S2;p:L2/c:L0,S0;c:S1",
    ];
    for s in litmus {
        let spec = ProgSpec::parse(s).expect(s);
        for kind in SYSTEMS {
            assert_spec_identical(kind, &spec, None);
        }
    }
}

#[test]
fn conflict_rings_bit_identical_across_backends() {
    // Contended rings at several widths force the retry/fallback paths
    // (tiny retry budgets reach the lock path quickly).
    for threads in [2usize, 3, 4] {
        let spec = ProgSpec::conflict_ring(threads, 2);
        for kind in SYSTEMS {
            for retries in [Some(1), Some(2), None] {
                assert_spec_identical(kind, &spec, retries);
            }
        }
    }
}

#[test]
fn random_spec_corpus_bit_identical_across_backends() {
    let mut rng = proptest::Rng::new(0xd1ff);
    for i in 0..20 {
        let threads = 2 + (i % 3);
        let spec = ProgSpec::random(&mut rng, threads, 6);
        let kind = SYSTEMS[i % SYSTEMS.len()];
        assert_spec_identical(kind, &spec, Some(2));
    }
}

#[test]
fn explorer_digest_identical_across_backends() {
    // Whole schedule spaces: the explorer's order-sensitive digest
    // hashes every merged run's decision vector, termination, trace
    // length, and violation count — equal digests mean the VM backend
    // reproduced every explored schedule bit-for-bit, including the
    // state fingerprints steering DPOR.
    for (system, spec) in [
        (SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0"),
        (SystemKind::Baseline, "2/c:S0,C1/c:S0"),
        (SystemKind::Cgl, "2/c:S0/p:L0;c:S0"),
    ] {
        let spec = ProgSpec::parse(spec).expect(spec);
        let mut ex = Explorer::new(system, spec);
        ex.max_schedules = 2_000;
        let rep_threads = ex.explore();
        ex.backend = Backend::Vm;
        let rep_vm = ex.explore();
        assert_eq!(
            rep_threads.digest,
            rep_vm.digest,
            "exploration digests diverge on {}",
            system.name()
        );
        assert_eq!(rep_threads.schedules, rep_vm.schedules);
        assert_eq!(rep_threads.pruned_dedup, rep_vm.pruned_dedup);
        assert_eq!(rep_threads.space.is_clean(), rep_vm.space.is_clean());
    }
}

#[test]
fn stamp_points_bit_identical_across_backends() {
    // One real STAMP ladder point per VM-ported workload. kmeans runs
    // the compiled mirror of its hand-written body; intruder-flow runs
    // the same kernel through `run_on_ctx` (threads) and the VM.
    use lockiller::Program;
    use stamp::Scale;

    fn assert_prog_identical<P: Program>(
        kind: SystemKind,
        threads: usize,
        mut mk: impl FnMut() -> P,
    ) {
        let runner = Runner::new(kind)
            .threads(threads)
            .config(SystemConfig::testing(threads))
            .tracing();
        let mut pt = mk();
        let a = runner.clone().backend(Backend::Threads).run(&mut pt);
        let mut pv = mk();
        let b = runner.backend(Backend::Vm).run(&mut pv);
        assert_eq!(a.stats, b.stats, "RunStats diverge: {}", pt.name());
        assert_eq!(
            a.mem.digest(),
            b.mem.digest(),
            "memory diverges: {}",
            pt.name()
        );
        assert_eq!(
            a.trace_events(),
            b.trace_events(),
            "traces diverge: {}",
            pt.name()
        );
    }

    assert_prog_identical(SystemKind::LockillerRwil, 4, || {
        stamp::kmeans::Kmeans::new(Scale::Small, 4, true)
    });
    assert_prog_identical(SystemKind::Baseline, 4, || {
        stamp::vm::IntruderFlow::new(Scale::Small, 4)
    });
}

#[test]
fn vm_snapshot_restore_replays_identically() {
    // Snapshot a VM guest mid-run, keep driving it, restore, and check
    // the op stream repeats. Uses the raw GuestExec interface with a
    // scripted response sequence (no engine).
    use lockiller::{GuestEnv, GuestResp};
    use sim_core::rng::SimRng;

    let spec = ProgSpec::parse("2/c:L0,S1/c:L1,S0").unwrap();
    let mut prog = SpecProgram::new(spec);
    let mut s = lockiller::SetupCtx::new();
    let lock_addr = s.alloc(8);
    lockiller::Program::setup(&mut prog, &mut s, 2);
    let env = GuestEnv {
        tid: 0,
        threads: 2,
        rng: SimRng::new(1),
        policy: lockiller::guest::GuestPolicy {
            coarse_grained_lock: false,
            htmlock: false,
            max_retries: 2,
            fallback_on_capacity: true,
        },
        lock_addr,
    };
    let mut vm = lockiller::Program::guest_exec(&prog, env).expect("SpecProgram compiles");

    // Drive three ops: kick -> TxBegin, Done -> subscription load,
    // lock free -> first body op.
    let o1 = vm.resume(GuestResp::Done);
    let snap = vm.snapshot().expect("VM supports snapshots");
    let o2 = vm.resume(GuestResp::Done);
    let o3 = vm.resume(GuestResp::Value(0));
    assert!(vm.restore(&snap), "restore accepts own snapshot");
    let o2b = vm.resume(GuestResp::Done);
    let o3b = vm.resume(GuestResp::Value(0));
    assert_eq!(o2, o2b, "op stream after restore diverges");
    assert_eq!(o3, o3b, "op stream after restore diverges");
    let _ = o1;
}

/// Attaching the `tmprof` host profiler must be invisible to the
/// differential harness: on either backend a profiled run is
/// byte-identical to an unprofiled one, and the two profiled backends
/// still agree with each other — the profiler reads the host clock and
/// nothing else.
#[test]
fn profiler_is_invisible_to_the_differential_harness() {
    let spec = ProgSpec::parse("4/c:L0,S1;p:L2/c:S0,C5").expect("spec");
    let threads = spec.num_threads();
    for kind in SYSTEMS {
        let run = |backend: Backend, profile: bool| {
            let mut r = Runner::new(kind)
                .threads(threads)
                .config(SystemConfig::testing(threads.max(2)))
                .tracing()
                .backend(backend);
            if profile {
                r = r.profile();
            }
            let mut p = SpecProgram::new(spec.clone());
            r.run(&mut p)
        };
        for backend in [Backend::Threads, Backend::Vm] {
            let plain = run(backend, false);
            let profiled = run(backend, true);
            let label = format!("{} on {:?}", kind.name(), backend);
            assert!(profiled.host_prof.is_some(), "no report: {label}");
            assert_eq!(plain.stats, profiled.stats, "stats diverge: {label}");
            assert_eq!(
                plain.mem.digest(),
                profiled.mem.digest(),
                "memory images diverge: {label}"
            );
            assert_eq!(
                plain.trace_events(),
                profiled.trace_events(),
                "event traces diverge: {label}"
            );
        }
        let at = run(Backend::Threads, true);
        let bv = run(Backend::Vm, true);
        assert_eq!(
            at.stats,
            bv.stats,
            "profiled backends diverge: {}",
            kind.name()
        );
        assert_eq!(at.trace_events(), bv.trace_events());
    }
}
