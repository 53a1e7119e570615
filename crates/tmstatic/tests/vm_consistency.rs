//! Precision of the analysis on compiled specs: for every `ProgSpec`,
//! the abstract footprints the bytecode interpreter computes over
//! `SpecProgram::compile_all` must be *exactly* the spec's syntactic
//! line sets pushed through the arena layout (`data_line`), per thread
//! and per critical region, with no widening. The compiler is a
//! straight-line translator with constant addresses, so nothing may be
//! lost (unsound) or invented (imprecise); every verdict the spec front
//! end reports rests on these sets. A divergence names the spec,
//! thread, and set so the offending translation is immediately
//! identifiable.

use lockiller::SystemKind;
use sim_core::types::LineAddr;
use std::collections::BTreeSet;
use tmstatic::vmabs::AbsLines;
use tmstatic::VmAnalysis;
use tmverify::progs::{Op, ProgSpec, Segment, SpecProgram};
use tmverify::Explorer;

/// Physical reads and writes of `segs`, read syntactically off the spec.
fn syntactic<'a>(segs: impl Iterator<Item = &'a Segment>) -> [BTreeSet<LineAddr>; 2] {
    let mut out = [BTreeSet::new(), BTreeSet::new()];
    for op in segs.flat_map(|seg| &seg.ops) {
        match *op {
            Op::Load(l) => out[0].insert(SpecProgram::data_line(l)),
            Op::Store(l) => out[1].insert(SpecProgram::data_line(l)),
            Op::Compute(_) => continue,
        };
    }
    out
}

fn precise<'a>(set: &'a AbsLines, what: &str) -> &'a BTreeSet<LineAddr> {
    set.lines()
        .unwrap_or_else(|| panic!("{what} widened on a straight-line kernel"))
}

/// Assert the compiled kernels' footprints equal the spec's line sets,
/// under exactly the geometry (and fault injection) `ex` explores.
fn assert_precise(ex: &Explorer) {
    let spec = &ex.spec;
    let a = VmAnalysis::new(ex.system, ex.config(), &ex.kernels());
    let label = format!("{} on {}", spec.render(), ex.system.name());
    assert_eq!(a.threads.len(), spec.num_threads(), "{label}: thread count");
    for (t, (segs, f)) in spec.threads.iter().zip(&a.threads).enumerate() {
        let [crit_reads, crit_writes] = syntactic(segs.iter().filter(|s| s.critical));
        let [plain_reads, plain_writes] = syntactic(segs.iter().filter(|s| !s.critical));
        for (name, spec_set, vm_set) in [
            ("crit_reads", &crit_reads, &f.abs.crit_reads),
            ("crit_writes", &crit_writes, &f.abs.crit_writes),
            ("plain_reads", &plain_reads, &f.abs.plain_reads),
            ("plain_writes", &plain_writes, &f.abs.plain_writes),
        ] {
            let what = format!("{label}: thread {t} {name}");
            assert_eq!(spec_set, precise(vm_set, &what), "{what} diverges");
        }
        assert_eq!(
            f.has_critical,
            segs.iter().any(|s| s.critical),
            "{label}: thread {t} has_critical"
        );
        assert!(!f.overflow_unknown, "{label}: thread {t} overflow unknown");
        // Per-region footprints against the corresponding critical
        // segments, in program order.
        let crit_segs: Vec<_> = segs.iter().filter(|s| s.critical).collect();
        assert_eq!(
            crit_segs.len(),
            f.abs.regions.len(),
            "{label}: thread {t} critical-region count"
        );
        for (j, (seg, region)) in crit_segs.iter().zip(&f.abs.regions).enumerate() {
            let [reads, writes] = syntactic(std::iter::once(*seg));
            let what = format!("{label}: thread {t} region {j}");
            assert_eq!(&reads, precise(&region.reads, &what), "{what} reads");
            assert_eq!(&writes, precise(&region.writes, &what), "{what} writes");
        }
    }
}

fn assert_spec_precise(system: SystemKind, spec: &ProgSpec, tiny_l1: bool) {
    let mut ex = Explorer::new(system, spec.clone());
    ex.tiny_l1 = tiny_l1;
    assert_precise(&ex);
}

const SYSTEMS: [SystemKind; 5] = [
    SystemKind::Cgl,
    SystemKind::Baseline,
    SystemKind::LockillerRwi,
    SystemKind::LockillerRwil,
    SystemKind::LockillerTm,
];

#[test]
fn corpus_witness_specs_agree() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../tmverify/tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 3);
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable witness");
        let w = tmobs::Witness::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let ex = Explorer::from_witness(&w).expect("witness reconstructs");
        assert_precise(&ex);
    }
}

#[test]
fn characteristic_specs_agree_across_all_systems() {
    for system in SYSTEMS {
        for prog in [
            "2/c:L0,S1/p:L1",            // mixed-access demo
            "2/c:L0,S1/c:L1,S0",         // hand-off ring
            "3/c:L0,S0/c:L1,S1/c:L2,S2", // disjoint (prunable)
            "2/p:C5,L0/p:S0,C2",         // plain-only
        ] {
            let spec = ProgSpec::parse(prog).expect("test spec parses");
            assert_spec_precise(system, &spec, false);
        }
    }
}

#[test]
fn overflow_spec_agrees_under_tiny_l1() {
    let spec = ProgSpec::parse("6/c:L0,L1,L2,S0/c:L3,L4,L5,S3").unwrap();
    for system in [SystemKind::LockillerTm, SystemKind::LockillerRwi] {
        assert_spec_precise(system, &spec, true);
        assert_spec_precise(system, &spec, false);
    }
}

#[test]
fn verify_battery_specs_agree() {
    // The specs `experiments verify` explores with a pruning table,
    // each under its own system and injection.
    for (system, prog, drop_wakeups) in [
        (SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0", false),
        (SystemKind::LockillerRwi, "3/c:L0,S1/c:L1,S2/c:L2,S0", false),
        (SystemKind::LockillerTm, "3/c:L0,S1/c:L1,S2/c:L2,S0", false),
        (SystemKind::LockillerTm, "3/c:L0,S0/c:L1,S1/c:L2,S2", false),
        (SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0", true),
    ] {
        let mut ex = Explorer::new(system, ProgSpec::parse(prog).expect("battery spec parses"));
        ex.inject.drop_wakeups = drop_wakeups;
        assert_precise(&ex);
    }
}

#[test]
fn random_specs_agree() {
    for seed in 0..64u64 {
        let mut rng = proptest::Rng::new(0xC0 + seed);
        let spec = ProgSpec::random(&mut rng, 2 + (seed as usize % 3), 4);
        for system in SYSTEMS {
            for tiny_l1 in [false, true] {
                assert_spec_precise(system, &spec, tiny_l1);
            }
        }
    }
}
