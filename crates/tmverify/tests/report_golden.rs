//! Golden exploration reports: the full `ExploreReport::to_json` of the
//! verify battery's five specs on both guest backends, with and without
//! the `tmstatic` independence table, plus sixteen seeded random specs.
//!
//! Every count in a report (schedules, redundant runs, sleep- and
//! dedup-pruned branches, frontier peak) and its order-sensitive digest
//! follow from which scheduler pick points the explorer treats as the
//! same state and the same event. The state fingerprint and event
//! identity hashes are host-side machinery; a change to how they are
//! computed must leave every line of `tests/golden/explore_reports.txt`
//! byte-identical. A deliberate change to the explored space re-blesses
//! the file from the table this test prints on a mismatch.

use lockiller::{Backend, SystemKind};
use tmverify::progs::ProgSpec;
use tmverify::Explorer;

/// The verify battery's five distinct specs: (name, system, spec, drop
/// wake-ups injected).
const BATTERY: [(&str, SystemKind, &str, bool); 5] = [
    (
        "ring-2c2l-rwi",
        SystemKind::LockillerRwi,
        "2/c:L0,S1/c:L1,S0",
        false,
    ),
    (
        "ring-3c3l-rwi",
        SystemKind::LockillerRwi,
        "3/c:L0,S1/c:L1,S2/c:L2,S0",
        false,
    ),
    (
        "ring-3c3l-tm",
        SystemKind::LockillerTm,
        "3/c:L0,S1/c:L1,S2/c:L2,S0",
        false,
    ),
    (
        "disjoint-3c3l-tm",
        SystemKind::LockillerTm,
        "3/c:L0,S0/c:L1,S1/c:L2,S2",
        false,
    ),
    (
        "detector-drop-wakeups",
        SystemKind::LockillerRwi,
        "2/c:L0,S1/c:L1,S0",
        true,
    ),
];

const RANDOM_SPECS: u64 = 16;

fn backend_name(b: Backend) -> &'static str {
    match b {
        Backend::Threads => "threads",
        Backend::Vm => "vm",
    }
}

/// One report line: `case<TAB>json`.
fn report_line(case: &str, ex: &Explorer, table: bool) -> String {
    let mut ex = ex.clone();
    if table {
        ex.prune = tmstatic::VmAnalysis::new(ex.system, ex.config(), &ex.kernels()).independence();
    }
    format!("{case} table={table}\t{}\n", ex.explore().to_json())
}

fn actual_reports() -> String {
    let mut out = String::new();
    for (name, system, prog, drop_wakeups) in BATTERY {
        for backend in [Backend::Threads, Backend::Vm] {
            let mut ex = Explorer::new(system, ProgSpec::parse(prog).expect("battery specs parse"));
            ex.no_safety_net = true;
            ex.inject.drop_wakeups = drop_wakeups;
            ex.backend = backend;
            for table in [false, true] {
                let case = format!("{name} {}", backend_name(backend));
                out.push_str(&report_line(&case, &ex, table));
            }
        }
    }
    // Random kernels over every system; odd seeds on a tiny L1 so the
    // overflow paths (signatures, the HLA arbiter, switchingMode) show
    // up in the fingerprinted state too.
    for seed in 0..RANDOM_SPECS {
        let mut rng = proptest::Rng::new(0x5eed_0000 + seed);
        let threads = 2 + (seed % 2) as usize;
        let spec = ProgSpec::random(&mut rng, threads, 3);
        let system = SystemKind::ALL[seed as usize % SystemKind::ALL.len()];
        let mut ex = Explorer::new(system, spec.clone());
        ex.no_safety_net = true;
        ex.max_schedules = 300;
        ex.tiny_l1 = seed % 2 == 1;
        ex.backend = if seed % 4 < 2 {
            Backend::Threads
        } else {
            Backend::Vm
        };
        let case = format!(
            "random#{seed} {} {} tiny_l1={} {}",
            system.name(),
            spec.render(),
            ex.tiny_l1,
            backend_name(ex.backend)
        );
        out.push_str(&report_line(&case, &ex, false));
    }
    out
}

#[test]
fn explore_reports_match_golden() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/explore_reports.txt");
    let want = std::fs::read_to_string(&path).unwrap_or_default();
    let got = actual_reports();
    let moved: Vec<String> = got
        .lines()
        .zip(want.lines().chain(std::iter::repeat("<missing>")))
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        moved.is_empty() && got.lines().count() == want.lines().count(),
        "{} of {} exploration reports moved ({}):\n{}\nactual file:\n{got}",
        moved.len(),
        got.lines().count(),
        path.display(),
        moved.join("\n")
    );
}
