//! Soundness property for the bytecode abstract interpreter: every
//! dynamically observed line access and every recorded conflict edge
//! must be inside the abstract footprint [`VmAnalysis`] computed from
//! the kernels alone — on **both** execution backends, which the
//! `guestvm` contract requires to be op-identical.
//!
//! Covered corpora: the injected-bug witness specs, the conflict-ring
//! kernels on every system, the overflowing kernel under the tiny L1
//! (Bloom-signature edges) and random specs — all compiled to bytecode
//! —, the STAMP VM workloads (kmeans both contention modes,
//! IntruderFlow with its data-dependent loops — the Top-degradation
//! stress case), and batches of deterministically generated random
//! kernels exercising computed addresses and counted loops that no
//! `ProgSpec` can express.
//!
//! The spec cases double as the layout cross-check: if
//! `SpecProgram::LOCK_LINE`/`data_line` ever drifted from the runner's
//! real arena layout, dynamic accesses would land on physical lines the
//! compiled kernels never address and the footprint check would fail.

use guestvm::{run_on_ctx, BinOp, Cond, GuestVm, Kernel, KernelBuilder};
use lockiller::{
    Backend, GuestCtx, GuestEnv, GuestExec, Program, Runner, SetupCtx, SystemKind, TraceKind,
};
use sim_core::config::{CheckCfg, SystemConfig, SystemConfigBuilder};
use std::sync::Arc;
use tmobs::Recorder;
use tmstatic::VmAnalysis;
use tmverify::progs::{ProgSpec, SpecProgram};
use tmverify::Explorer;

/// Checked-mode geometry matching `Explorer::config` for `threads`.
fn checked_cfg(threads: usize, tiny_l1: bool) -> SystemConfig {
    let mut b = SystemConfigBuilder::from_config(SystemConfig::testing(threads.max(2)));
    if tiny_l1 {
        b = b.l1_capacity(128, 2);
    }
    b.check(CheckCfg {
        enabled: true,
        fault: Default::default(),
    })
    .build()
    .expect("test config is valid")
}

/// Run `prog` with tracing + conflict recording on `backend`; assert
/// every traced access and conflict edge lands inside the abstract
/// footprint of `kernels`.
fn assert_vm_sound<P: Program>(
    system: SystemKind,
    cfg: SystemConfig,
    kernels: &[Kernel],
    prog: &mut P,
    backend: Backend,
    label: &str,
) -> usize {
    let threads = kernels.len();
    let analysis = VmAnalysis::new(system, cfg.clone(), kernels);
    let (handle, rec) = Recorder::shared(500);
    let out = Runner::new(system)
        .threads(threads)
        .config(cfg)
        .backend(backend)
        .retries(2)
        .seed(0)
        .tracing()
        .obs(handle)
        .run(prog);
    assert!(
        out.end.is_done(),
        "{label}: run must complete for the recording to be total"
    );

    // Touched-line soundness: every traced data access by core c must
    // be a member of the abstract phys-line set of c.
    let mut accesses = 0usize;
    for ev in out.trace_events() {
        let (line, wrote) = match ev.kind {
            TraceKind::Read { line, .. } => (line, false),
            TraceKind::Write { line, .. } => (line, true),
            _ => continue,
        };
        let core = ev.core;
        if core >= threads {
            continue;
        }
        accesses += 1;
        assert!(
            analysis.phys_lines(core).contains(line),
            "{label} [{}]: core {core} {} line L{} outside the abstract footprint",
            backend.name(),
            if wrote { "wrote" } else { "read" },
            line.0,
        );
    }
    assert!(accesses > 0, "{label}: the run must actually touch memory");

    // Conflict-edge soundness: the static may-conflict relation must
    // predict every recorded edge.
    let rec = std::mem::take(&mut *rec.lock().unwrap());
    let mut edges = 0usize;
    for ev in rec.conflicts() {
        let e = &ev.edge;
        edges += 1;
        assert!(
            analysis.may_conflict(e.attacker, e.victim, e.line),
            "{label} [{}]: dynamic conflict not statically predicted: \
             attacker {} victim {} line L{} ({:?} at cycle {})",
            backend.name(),
            e.attacker,
            e.victim,
            e.line.0,
            e.resolution,
            ev.cycle,
        );
    }
    edges
}

#[test]
fn corpus_specs_compiled_to_bytecode_are_sound_on_both_backends() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../tmverify/tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 3, "corpus must cover the injected bugs");
    let mut edges = 0;
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable witness");
        let w = tmobs::Witness::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let system = SystemKind::from_name(&w.system).expect("witness system exists");
        let spec = ProgSpec::parse(&w.prog).expect("witness prog parses");
        let kernels = SpecProgram::compile_all(&spec);
        let mut ex = Explorer::new(system, spec.clone());
        ex.tiny_l1 = w.tiny_l1;
        for backend in [Backend::Threads, Backend::Vm] {
            edges += assert_vm_sound(
                system,
                ex.config(),
                &kernels,
                &mut SpecProgram::new(spec.clone()),
                backend,
                &w.prog,
            );
        }
    }
    assert!(edges > 0, "the corpus kernels must actually conflict");
}

/// [`assert_vm_sound`] for `spec`'s compiled kernels under the
/// explorer's geometry, on both backends.
fn assert_spec_sound(system: SystemKind, spec: &ProgSpec, tiny_l1: bool, label: &str) -> usize {
    let mut ex = Explorer::new(system, spec.clone());
    ex.tiny_l1 = tiny_l1;
    let kernels = ex.kernels();
    [Backend::Threads, Backend::Vm]
        .into_iter()
        .map(|backend| {
            assert_vm_sound(
                system,
                ex.config(),
                &kernels,
                &mut SpecProgram::new(spec.clone()),
                backend,
                label,
            )
        })
        .sum()
}

#[test]
fn ring_kernels_are_sound_across_systems() {
    let mut edges = 0;
    for system in [
        SystemKind::Cgl,
        SystemKind::Baseline,
        SystemKind::LockillerRwi,
        SystemKind::LockillerRwil,
        SystemKind::LockillerTm,
    ] {
        for (threads, lines) in [(2, 2), (3, 2), (3, 3)] {
            let spec = ProgSpec::conflict_ring(threads, lines);
            let label = format!("{} ring {threads}x{lines}", system.name());
            edges += assert_spec_sound(system, &spec, false, &label);
        }
    }
    assert!(edges > 0);
}

#[test]
fn overflowing_kernel_with_signatures_is_sound() {
    // Tiny L1 forces both transactions to overflow and switch to STL
    // mode on LockillerTm: conflict edges can come from Bloom-signature
    // matches (including false positives on disjoint line sets), which
    // the static relation must cover.
    let spec = ProgSpec::parse("6/c:L0,L1,L2,S0/c:L3,L4,L5,S3").unwrap();
    assert_spec_sound(SystemKind::LockillerTm, &spec, true, "overflow kernel");
    assert_spec_sound(
        SystemKind::LockillerRwi,
        &spec,
        true,
        "overflow kernel (subscribing)",
    );
}

#[test]
fn random_specs_are_sound() {
    let mut edges = 0;
    for seed in 0..8u64 {
        let mut rng = proptest::Rng::new(0x50DA + seed);
        let spec = ProgSpec::random(&mut rng, 2 + (seed as usize % 2), 3);
        for system in [SystemKind::LockillerRwi, SystemKind::LockillerTm] {
            let label = format!("random #{seed} {}", spec.render());
            edges += assert_spec_sound(system, &spec, false, &label);
        }
    }
    assert!(edges > 0, "random batch must exercise some conflicts");
}

#[test]
fn stamp_kernels_are_sound_on_both_backends() {
    use stamp::kmeans::Kmeans;
    use stamp::vm::IntruderFlow;
    use stamp::Scale;

    let threads = 2;
    for system in [SystemKind::LockillerTm, SystemKind::LockillerRwi] {
        for high in [true, false] {
            // Construction is deterministic, so a second instance
            // yields byte-identical kernels to the one being run.
            let kernels = Kmeans::new(Scale::Tiny, threads, high).compile_standalone();
            for backend in [Backend::Threads, Backend::Vm] {
                assert_vm_sound(
                    system,
                    checked_cfg(threads, false),
                    &kernels,
                    &mut Kmeans::new(Scale::Tiny, threads, high),
                    backend,
                    &format!("kmeans hc={high}"),
                );
            }
        }
        // IntruderFlow pops a shared queue via CAS and walks
        // data-dependent indices: its footprint widens to Top, which
        // must still be sound (Top contains every traced line).
        let kernels = IntruderFlow::new(Scale::Tiny, threads).compile_standalone();
        let a = VmAnalysis::new(system, checked_cfg(threads, false), &kernels);
        assert!(
            a.threads.iter().any(|t| t.abs.touched().is_top()),
            "IntruderFlow must exercise the Top degradation path"
        );
        assert!(a.independence().is_none());
        for backend in [Backend::Threads, Backend::Vm] {
            assert_vm_sound(
                system,
                checked_cfg(threads, false),
                &kernels,
                &mut IntruderFlow::new(Scale::Tiny, threads),
                backend,
                "intruder-flow",
            );
        }
    }
}

/// Test-local program running one arbitrary kernel per thread on either
/// backend (`run_on_ctx` host interpretation vs the resumable VM).
struct KernelProg {
    kernels: Vec<Arc<Kernel>>,
}

impl Program for KernelProg {
    fn name(&self) -> &str {
        "random-kernels"
    }

    fn setup(&mut self, s: &mut SetupCtx, _threads: usize) {
        // Back the fixed window the generated kernels address: 16 data
        // lines right after the runner's lock allocation, zeroed.
        let base = s.alloc(16 * 8);
        for w in 0..16 * 8 {
            s.write(base.add(w), 0);
        }
    }

    async fn run(&self, ctx: &mut GuestCtx) {
        run_on_ctx(&self.kernels[ctx.tid], ctx).await;
    }

    fn guest_exec(&self, env: GuestEnv) -> Option<Box<dyn GuestExec + '_>> {
        Some(GuestVm::boxed(Arc::clone(&self.kernels[env.tid]), &env))
    }
}

/// Deterministic random kernel touching words inside the 16-line window
/// starting at word 16 (`data_line(0)`..`data_line(15)`), using the
/// address-arithmetic and loop shapes `ProgSpec` cannot express.
fn random_kernel(rng: &mut proptest::Rng, tid: usize) -> Kernel {
    let word = |l: u64, off: u64| 16 + l * 8 + off;
    let mut b = KernelBuilder::new(format!("rand[{tid}]"), 6);
    // A counted strided loop: for i in 0..n { touch [base + i*stride] }.
    let n = 2 + rng.below(4); // 2..=5 iterations
    let stride = [4, 8, 16][rng.below(3) as usize];
    let base = word(rng.below(4), 0);
    let (head, done) = (b.label(), b.label());
    b.imm(0, 0).imm(1, n).imm(4, 0xbeef ^ tid as u64);
    b.bind(head);
    b.br(Cond::Ge, 0, 1, done);
    b.bini(BinOp::Mul, 2, 0, stride);
    b.bini(BinOp::Add, 2, 2, base);
    if rng.below(2) == 0 {
        b.load(3, 2, 0);
    } else {
        b.store(2, 0, 4);
    }
    b.bini(BinOp::Add, 0, 0, 1);
    b.jmp(head);
    b.bind(done);
    // A critical section over a shared hot line (every thread stores
    // line 8, guaranteeing cross-thread conflicts) plus 0-1 more.
    b.crit_begin();
    b.imm(2, word(8, 0)).store(2, 0, 4);
    for _ in 0..rng.below(2) {
        let l = 9 + rng.below(3);
        b.imm(2, word(l, rng.below(8)));
        if rng.below(2) == 0 {
            b.load(3, 2, 0);
        } else {
            b.store(2, 0, 4);
        }
    }
    b.crit_end();
    // A plain tail access, sometimes via CAS.
    b.imm(2, word(12 + rng.below(4), 0));
    if rng.below(3) == 0 {
        b.imm(4, 0).imm(5, 1 + tid as u64);
        b.cas(3, 2, 4, 5);
    } else {
        b.load(3, 2, 0);
    }
    b.halt();
    let k = b.build();
    k.validate().expect("generated kernels are well-formed");
    k
}

#[test]
fn random_kernels_are_sound_on_both_backends() {
    let mut edges = 0;
    for seed in 0..6u64 {
        let mut rng = proptest::Rng::new(0xab5_0000 + seed);
        let threads = 2 + (seed as usize % 2);
        let kernels: Vec<Kernel> = (0..threads).map(|t| random_kernel(&mut rng, t)).collect();
        for system in [SystemKind::LockillerTm, SystemKind::LockillerRwi] {
            for backend in [Backend::Threads, Backend::Vm] {
                edges += assert_vm_sound(
                    system,
                    checked_cfg(threads, false),
                    &kernels,
                    &mut KernelProg {
                        kernels: kernels.iter().cloned().map(Arc::new).collect(),
                    },
                    backend,
                    &format!("random seed={seed}"),
                );
            }
        }
    }
    assert!(edges > 0, "random kernels must produce some conflicts");
}
