//! Golden digests of everything a simulation reports about itself.
//!
//! Each grid point runs one workload on one system and one guest
//! backend, in checked mode (so the trace carries access- and
//! protocol-level events) with a `tmobs::Recorder` attached. Five
//! digests are taken per point: the `RunStats` JSON, the stored trace
//! events, and the recorder's spans, conflict edges, and sample rows.
//! The expected values are pinned: any change to what the engine
//! reports — a missing span, a reordered trace event, a latency sample
//! stamped one cycle late — fails here, naming the point and the
//! channel that moved.
//!
//! The grid is the three Tiny-scale STAMP points that run on both
//! backends (kmeans, intruder-flow, and the contended kmeans+) on one
//! system per engine code-path family, plus intruder-flow under
//! RetryLater parks and an overflowing kernel with and without
//! switchingMode. The STAMP points never overflow a speculative L1, so
//! the kernel is what reaches HLA grant and denial and STL lock
//! transactions. The seven STAMP ports that exist only as native Rust
//! guest bodies (ssca2, intruder, vacation, vacation+, genome, yada and
//! labyrinth) are pinned on Baseline and LockillerTM.

use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::{Backend, Program, RunOutput, Runner, SystemKind};
use sim_core::config::{CacheGeometry, CheckCfg, SystemConfig};
use sim_core::fxhash::FxHasher;
use sim_core::types::Addr;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use tmobs::Recorder;

const THREADS: usize = 4;
const SEED: u64 = 0x5EED;
const SAMPLE_EVERY: u64 = 500;

/// One system per engine code-path family: CGL spin lock, baseline
/// subscription + fallback, HTMLock lock transactions, recovery with
/// wake-up, and switchingMode.
const FAMILIES: [SystemKind; 5] = [
    SystemKind::Cgl,
    SystemKind::Baseline,
    SystemKind::LockillerRwil,
    SystemKind::LockillerRwi,
    SystemKind::LockillerTm,
];

/// Every thread walks `lines` private lines that all map to one L1 set,
/// then bumps a shared counter, inside one critical section per round.
struct Overflow {
    lines: u64,
    rounds: u64,
    counter: Addr,
    base: Addr,
}

impl Program for Overflow {
    fn name(&self) -> &str {
        "overflow"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        self.counter = s.alloc(8);
        self.base = s.alloc(self.lines * 16 * threads as u64);
    }

    async fn run(&self, ctx: &mut GuestCtx) {
        // Two-line stride: every line lands in the same set of the
        // two-set L1. Each thread walks its own lines, then bumps the
        // shared counter.
        let mine = self.base.add(ctx.tid as u64 * self.lines * 16);
        for _ in 0..self.rounds {
            ctx.critical(async |tx| {
                for i in 0..self.lines {
                    let a = mine.add(i * 16);
                    let w = tx.load(a).await?;
                    tx.store(a, w + 1).await?;
                }
                let v = tx.load(self.counter).await?;
                tx.store(self.counter, v + 1).await?;
                Ok(())
            })
            .await;
            ctx.compute(25).await;
        }
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let got = mem.read(self.counter);
        let want = self.rounds * THREADS as u64;
        if got == want {
            Ok(())
        } else {
            Err(format!("counter = {got}, want {want}"))
        }
    }
}

/// STAMP ports without a `guestvm` kernel.
const NATIVE_ONLY: [&str; 7] = [
    "ssca2",
    "intruder",
    "vacation",
    "vacation+",
    "genome",
    "yada",
    "labyrinth",
];

const CHANNELS: [&str; 5] = ["stats", "trace", "spans", "conflicts", "samples"];

/// [`CHANNELS`] digests per grid point, in grid order.
#[rustfmt::skip]
const EXPECTED: [(&str, &str, &str, [u64; 5]); 48] = [
    ("kmeans", "CGL", "threads", [0x95ddc9ce72cc1947, 0xea955fdc3c2b5c35, 0x433ff5a83ed72581, 0x0000000000000000, 0x12865a506d88d3cc]),
    ("kmeans", "CGL", "vm", [0x95ddc9ce72cc1947, 0xea955fdc3c2b5c35, 0x433ff5a83ed72581, 0x0000000000000000, 0x12865a506d88d3cc]),
    ("kmeans", "Baseline", "threads", [0x26a3054907e3da31, 0xafcd73eb765a06f5, 0xe1d210ba9100e7f7, 0xee7894a1d4e05593, 0x44dc1b6bd844d8fc]),
    ("kmeans", "Baseline", "vm", [0x26a3054907e3da31, 0xafcd73eb765a06f5, 0xe1d210ba9100e7f7, 0xee7894a1d4e05593, 0x44dc1b6bd844d8fc]),
    ("kmeans", "LockillerTM-RWIL", "threads", [0x73b631a46e08c7e8, 0xdb6696f92de5a881, 0x3fd7ed458b8d8d30, 0xa740a808e7c5a810, 0x13323e2620fa0a6f]),
    ("kmeans", "LockillerTM-RWIL", "vm", [0x73b631a46e08c7e8, 0xdb6696f92de5a881, 0x3fd7ed458b8d8d30, 0xa740a808e7c5a810, 0x13323e2620fa0a6f]),
    ("kmeans", "LockillerTM-RWI", "threads", [0x7dab9a4545944fbb, 0x81ac019d11107ad6, 0x67be129eea95aaf3, 0xe65c14043d012ab9, 0x848b5a6f2d7deb84]),
    ("kmeans", "LockillerTM-RWI", "vm", [0x7dab9a4545944fbb, 0x81ac019d11107ad6, 0x67be129eea95aaf3, 0xe65c14043d012ab9, 0x848b5a6f2d7deb84]),
    ("kmeans", "LockillerTM", "threads", [0x73b631a46e08c7e8, 0xdb6696f92de5a881, 0x3fd7ed458b8d8d30, 0xa740a808e7c5a810, 0x13323e2620fa0a6f]),
    ("kmeans", "LockillerTM", "vm", [0x73b631a46e08c7e8, 0xdb6696f92de5a881, 0x3fd7ed458b8d8d30, 0xa740a808e7c5a810, 0x13323e2620fa0a6f]),
    ("intruder-flow", "CGL", "threads", [0x0a8d48326750e3d4, 0x349fc7f578558cec, 0x9703ed1f426c3c62, 0x0000000000000000, 0x3c50a0eb284b448d]),
    ("intruder-flow", "CGL", "vm", [0x0a8d48326750e3d4, 0x349fc7f578558cec, 0x9703ed1f426c3c62, 0x0000000000000000, 0x3c50a0eb284b448d]),
    ("intruder-flow", "Baseline", "threads", [0xfc78e48d1413d2f3, 0x9be9531f83c89724, 0xcf58ac6e34b7ff43, 0xf2821e588333dce2, 0xa25534b47cdfeb3b]),
    ("intruder-flow", "Baseline", "vm", [0xfc78e48d1413d2f3, 0x9be9531f83c89724, 0xcf58ac6e34b7ff43, 0xf2821e588333dce2, 0xa25534b47cdfeb3b]),
    ("intruder-flow", "LockillerTM-RWIL", "threads", [0x536ef179f19e7a29, 0x96e0a7ef097182ea, 0x027a594c2ba2feb2, 0xa26efc91f33497dd, 0xcfeb9e63810f90f2]),
    ("intruder-flow", "LockillerTM-RWIL", "vm", [0x536ef179f19e7a29, 0x96e0a7ef097182ea, 0x027a594c2ba2feb2, 0xa26efc91f33497dd, 0xcfeb9e63810f90f2]),
    ("intruder-flow", "LockillerTM-RWI", "threads", [0x7f30f6a7e0f6b269, 0x843fc6cc39d132b5, 0x81478ae7005f02ba, 0x56dca9e1bab7aea7, 0xac32b4906d45407a]),
    ("intruder-flow", "LockillerTM-RWI", "vm", [0x7f30f6a7e0f6b269, 0x843fc6cc39d132b5, 0x81478ae7005f02ba, 0x56dca9e1bab7aea7, 0xac32b4906d45407a]),
    ("intruder-flow", "LockillerTM", "threads", [0x713cef9cf3f85975, 0x5db82e99f7238813, 0x613ed94902e9e6d5, 0xa26efc91f33497dd, 0x2d353ea7f9e3b532]),
    ("intruder-flow", "LockillerTM", "vm", [0x713cef9cf3f85975, 0x5db82e99f7238813, 0x613ed94902e9e6d5, 0xa26efc91f33497dd, 0x2d353ea7f9e3b532]),
    ("kmeans+", "CGL", "threads", [0xdd833b7f8e2003ef, 0x88f30dcd68549a9e, 0x89c9c8741d45da40, 0x0000000000000000, 0x881d8d716bace710]),
    ("kmeans+", "CGL", "vm", [0xdd833b7f8e2003ef, 0x88f30dcd68549a9e, 0x89c9c8741d45da40, 0x0000000000000000, 0x881d8d716bace710]),
    ("kmeans+", "Baseline", "threads", [0x49afdec2e2ad4c8a, 0x5fbb5b4574a8ca9f, 0x6da8981f026d60ba, 0xc941825bb4f1a9e7, 0x8976e8fcc7e3079b]),
    ("kmeans+", "Baseline", "vm", [0x49afdec2e2ad4c8a, 0x5fbb5b4574a8ca9f, 0x6da8981f026d60ba, 0xc941825bb4f1a9e7, 0x8976e8fcc7e3079b]),
    ("kmeans+", "LockillerTM-RWIL", "threads", [0x6d89576da25e5dab, 0xb3e1027a81f12882, 0x71851c59e3faa364, 0xc8cb6a9b24837c9c, 0x897feb7592f4110a]),
    ("kmeans+", "LockillerTM-RWIL", "vm", [0x6d89576da25e5dab, 0xb3e1027a81f12882, 0x71851c59e3faa364, 0xc8cb6a9b24837c9c, 0x897feb7592f4110a]),
    ("kmeans+", "LockillerTM-RWI", "threads", [0xb7450dfcad6b5f74, 0x7ad79128bfeb6b80, 0xef572be6481d8e46, 0xcf4ad3c5d9f028b4, 0x718fba4d31a20bee]),
    ("kmeans+", "LockillerTM-RWI", "vm", [0xb7450dfcad6b5f74, 0x7ad79128bfeb6b80, 0xef572be6481d8e46, 0xcf4ad3c5d9f028b4, 0x718fba4d31a20bee]),
    ("kmeans+", "LockillerTM", "threads", [0x6d89576da25e5dab, 0xb3e1027a81f12882, 0x71851c59e3faa364, 0xc8cb6a9b24837c9c, 0x897feb7592f4110a]),
    ("kmeans+", "LockillerTM", "vm", [0x6d89576da25e5dab, 0xb3e1027a81f12882, 0x71851c59e3faa364, 0xc8cb6a9b24837c9c, 0x897feb7592f4110a]),
    ("intruder-flow", "LockillerTM-RRI", "threads", [0x3af05609fa029fe7, 0x63371a95b73ee5ab, 0xebcdb733c8d4bad9, 0x28e21b32b5ad40ce, 0x8438e0bf0d2814db]),
    ("intruder-flow", "LockillerTM-RRI", "vm", [0x3af05609fa029fe7, 0x63371a95b73ee5ab, 0xebcdb733c8d4bad9, 0x28e21b32b5ad40ce, 0x8438e0bf0d2814db]),
    ("overflow", "LockillerTM-RWIL", "threads", [0x29d8b31e3832fe22, 0x562c187e4924725b, 0x19af5ace0a1fdbaf, 0x0000000000000000, 0xd8084374eee8efcd]),
    ("overflow", "LockillerTM", "threads", [0x9dadf5330956fe66, 0xcee16301ba97302a, 0xa2529ee00d5cd307, 0x0000000000000000, 0xd67c12f6f492e9da]),
    ("ssca2", "Baseline", "threads", [0xd8aadaa3ffcdbf87, 0xa1c61ff8d6b06448, 0x2c2a247d9f8a3826, 0xea07ea0b882c20e8, 0x8c3604f101bacecb]),
    ("ssca2", "LockillerTM", "threads", [0x2f5db518b69a0ce7, 0xdde307eabcb61208, 0xcc3d721ee58726c7, 0xa3b654b199a76aa5, 0x894c6ddd5097b31a]),
    ("intruder", "Baseline", "threads", [0xd4d685ac68027e50, 0x760535904620f7fb, 0x4a6770556a0776db, 0xa4935032523ef891, 0x798448e0826923e7]),
    ("intruder", "LockillerTM", "threads", [0x0b967c3b37cc39f1, 0x82141c7238f1cee2, 0xeb518288d5f1225e, 0x4134f1bb0cd6ef09, 0x4b96a10529ab8b11]),
    ("vacation", "Baseline", "threads", [0x7e4a7b9c6913659b, 0x0a0f531250fa323b, 0x6abc81110b69385b, 0x4e1118e72c79e113, 0x637b3430d04c0388]),
    ("vacation", "LockillerTM", "threads", [0x61d7ec8fc7f77654, 0xc730a2e66b8a3ea2, 0x9b34a46d59c54ab6, 0x604971cb33963eb2, 0x4d90a47f1c85f435]),
    ("vacation+", "Baseline", "threads", [0x2bff2e717e9891f4, 0x3a2be045fababe81, 0xaead0872feccd953, 0x2238db54e0a1e0dc, 0xf8476afe77766119]),
    ("vacation+", "LockillerTM", "threads", [0x118bd86a826cb4ec, 0x7bf6e0b4f0c09e46, 0x4f9029b18b8b72ba, 0x499b580291dae218, 0x8cd66ea5ada8fa8e]),
    ("genome", "Baseline", "threads", [0x0a384fa6e3324d64, 0x83cd552f3dc01234, 0x9a8980eaf98b0f82, 0xbb63783eba51215b, 0x46964c7c52376207]),
    ("genome", "LockillerTM", "threads", [0x92aba68dba21b21e, 0xa27d476c3fc3e281, 0xc6e1eaaa4aa6ec4f, 0x0af5a466883a378a, 0x3e90b1cd6e8db231]),
    ("yada", "Baseline", "threads", [0x4bcedab5fc2549ec, 0x846cf2ae7e6a8f4a, 0x1d1db59d7ff0de26, 0x30873296b998d20a, 0x94b1e1610342e5e8]),
    ("yada", "LockillerTM", "threads", [0x8e6cd2d7966263e5, 0x2c4846588cc5fedd, 0x2b5a20be8042b316, 0x29da4e4da099c9d9, 0x546e689ab54615d0]),
    ("labyrinth", "Baseline", "threads", [0xaafe879b42cf4cec, 0x9412594748bb1d65, 0x37dd7084ea44af0c, 0xe220444ac82dc432, 0x4d6a5dca1873c160]),
    ("labyrinth", "LockillerTM", "threads", [0xad1b2c0690d50872, 0xa46f707cae2887b2, 0x3280a4c65725221a, 0xfaf33e17dc86010f, 0x6bd998b6de33b8a3]),
];

fn digest_all<T: Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    let mut h = FxHasher::default();
    for it in items {
        format!("{it:?}").hash(&mut h);
    }
    h.finish()
}

fn run_point(workload: &str, kind: SystemKind, backend: Backend) -> [u64; 5] {
    let mut cfg = SystemConfig::testing(THREADS);
    cfg.check = CheckCfg::on();
    if workload == "overflow" {
        cfg.mem.l1 = CacheGeometry { sets: 2, ways: 2 };
    }
    let (handle, rec) = Recorder::shared(SAMPLE_EVERY);
    let runner = Runner::new(kind)
        .threads(THREADS)
        .seed(SEED)
        .config(cfg)
        .backend(backend)
        .obs(handle);
    let tiny = stamp::Scale::Tiny;
    let mut out: RunOutput = match workload {
        "kmeans" => runner.run(&mut stamp::kmeans::Kmeans::new(tiny, THREADS, false)),
        "kmeans+" => runner.run(&mut stamp::kmeans::Kmeans::new(tiny, THREADS, true)),
        "intruder-flow" => runner.run(&mut stamp::vm::IntruderFlow::new(tiny, THREADS)),
        "overflow" => runner.run(&mut Overflow {
            lines: 4,
            rounds: 4,
            counter: Addr::NULL,
            base: Addr::NULL,
        }),
        other => {
            let kind = stamp::WorkloadKind::from_name(other)
                .unwrap_or_else(|| unreachable!("unknown workload {other}"));
            runner.run(&mut stamp::Workload::with_scale(kind, THREADS, tiny))
        }
    };
    let events = out.take_trace_events();
    let rec = rec.lock().expect("recorder poisoned");
    assert!(rec.is_finished(), "recorder never saw the end of the run");
    [
        digest_all([out.stats.to_json()]),
        digest_all(&events),
        digest_all(rec.spans()),
        digest_all(rec.conflicts()),
        digest_all(rec.samples()),
    ]
}

fn grid() -> Vec<(&'static str, SystemKind, Backend)> {
    let mut points = Vec::new();
    for workload in ["kmeans", "intruder-flow", "kmeans+"] {
        for kind in FAMILIES {
            for backend in [Backend::Threads, Backend::Vm] {
                points.push((workload, kind, backend));
            }
        }
    }
    // RetryLater parks (ended by the pause, not a wake-up).
    for backend in [Backend::Threads, Backend::Vm] {
        points.push(("intruder-flow", SystemKind::LockillerRri, backend));
    }
    // Capacity overflow: TL fallback vs switchingMode grant/denial.
    for kind in [SystemKind::LockillerRwil, SystemKind::LockillerTm] {
        points.push(("overflow", kind, Backend::Threads));
    }
    // STAMP ports with a native guest body only.
    for workload in NATIVE_ONLY {
        for kind in [SystemKind::Baseline, SystemKind::LockillerTm] {
            points.push((workload, kind, Backend::Threads));
        }
    }
    points
}

#[test]
fn engine_outputs_match_golden_digests() {
    let actual: Vec<_> = grid()
        .into_iter()
        .map(|(w, kind, backend)| {
            let b = match backend {
                Backend::Threads => "threads",
                Backend::Vm => "vm",
            };
            (w, kind.name(), b, run_point(w, kind, backend))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(w, s, b, d)| {
            format!(
                "    (\"{w}\", \"{s}\", \"{b}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2], d[3], d[4]
            )
        })
        .collect();
    assert_eq!(
        actual.len(),
        EXPECTED.len(),
        "grid size changed; actual table:\n{table}"
    );
    let mut moved = Vec::new();
    for ((w, s, b, got), (ew, es, eb, want)) in actual.iter().zip(EXPECTED.iter()) {
        assert_eq!((*w, *s, *b), (*ew, *es, *eb), "grid order changed");
        for (i, ch) in CHANNELS.iter().enumerate() {
            if got[i] != want[i] {
                moved.push(format!("{w} on {s} [{b}]: {ch}"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "digests moved:\n  {}\nactual table:\n{table}",
        moved.join("\n  ")
    );
}
