//! Rust ports of the STAMP benchmark applications the paper evaluates
//! (§IV-A: the unmodified suite minus bayes, with kmeans and vacation in
//! both low- and high-contention configurations).
//!
//! Each port reproduces the original's *transaction structure* — the same
//! shared data structures, critical-section granularity, read/write-set
//! growth, and contention class — on top of the `tmlib` transactional
//! data structures and simulated memory. Inputs are scaled down so one
//! simulation finishes in seconds; scaling is uniform across evaluated
//! systems, so system-vs-system ratios are preserved.
//!
//! All workload arithmetic is integer (fixed-point where the original
//! used floats), so the final memory image is independent of thread
//! interleaving and serves as a serializability oracle via
//! [`lockiller::Program::validate`].

pub mod genome;
pub mod intruder;
pub mod kmeans;
pub mod labyrinth;
pub mod ssca2;
pub mod vacation;
pub mod vm;
pub mod yada;

use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::Program;

/// The nine workload configurations of the paper's evaluation
/// (kmeans+ / vacation+ are the high-contention variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    Genome,
    Intruder,
    KmeansHigh,
    KmeansLow,
    Labyrinth,
    Ssca2,
    VacationHigh,
    VacationLow,
    Yada,
}

impl WorkloadKind {
    /// All workloads, in the paper's figure order.
    pub const ALL: [WorkloadKind; 9] = [
        WorkloadKind::Genome,
        WorkloadKind::Intruder,
        WorkloadKind::KmeansHigh,
        WorkloadKind::KmeansLow,
        WorkloadKind::Labyrinth,
        WorkloadKind::Ssca2,
        WorkloadKind::VacationHigh,
        WorkloadKind::VacationLow,
        WorkloadKind::Yada,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Genome => "genome",
            WorkloadKind::Intruder => "intruder",
            WorkloadKind::KmeansHigh => "kmeans+",
            WorkloadKind::KmeansLow => "kmeans",
            WorkloadKind::Labyrinth => "labyrinth",
            WorkloadKind::Ssca2 => "ssca2",
            WorkloadKind::VacationHigh => "vacation+",
            WorkloadKind::VacationLow => "vacation",
            WorkloadKind::Yada => "yada",
        }
    }

    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL
            .iter()
            .copied()
            .find(|w| w.name().eq_ignore_ascii_case(name))
    }
}

/// Input scale: `Tiny` for unit/integration tests, `Small` for quick
/// sweeps, `Full` for the experiment harness (the EXPERIMENTS.md runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Small,
    Full,
}

impl Scale {
    /// Stable lowercase tag, used in run-cache keys and reports.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }
}

/// One instantiated workload of any kind, implementing [`Program`] by
/// dispatching to the port it wraps.
pub struct Workload {
    inner: Port,
    kind: WorkloadKind,
}

/// The STAMP port behind a [`Workload`].
enum Port {
    Genome(genome::Genome),
    Intruder(intruder::Intruder),
    Kmeans(kmeans::Kmeans),
    Labyrinth(labyrinth::Labyrinth),
    Ssca2(ssca2::Ssca2),
    Vacation(vacation::Vacation),
    Yada(yada::Yada),
}

/// Evaluate `$body` with `$p` bound to the port inside `$port`.
macro_rules! with_port {
    ($port:expr, $p:ident => $body:expr) => {
        match $port {
            Port::Genome($p) => $body,
            Port::Intruder($p) => $body,
            Port::Kmeans($p) => $body,
            Port::Labyrinth($p) => $body,
            Port::Ssca2($p) => $body,
            Port::Vacation($p) => $body,
            Port::Yada($p) => $body,
        }
    };
}

impl Workload {
    /// Instantiate `kind` at experiment scale, sized for `threads`
    /// simulated threads (per-thread work is kept constant so thread
    /// sweeps measure scaling, as STAMP does).
    pub fn new(kind: WorkloadKind, threads: usize) -> Workload {
        Workload::with_scale(kind, threads, Scale::Full)
    }

    /// Instantiate at a reduced scale (tests / CI).
    pub fn scaled(kind: WorkloadKind, threads: usize) -> Workload {
        Workload::with_scale(kind, threads, Scale::Small)
    }

    pub fn with_scale(kind: WorkloadKind, threads: usize, scale: Scale) -> Workload {
        let inner = match kind {
            WorkloadKind::Genome => Port::Genome(genome::Genome::new(scale, threads)),
            WorkloadKind::Intruder => Port::Intruder(intruder::Intruder::new(scale, threads)),
            WorkloadKind::KmeansHigh => Port::Kmeans(kmeans::Kmeans::new(scale, threads, true)),
            WorkloadKind::KmeansLow => Port::Kmeans(kmeans::Kmeans::new(scale, threads, false)),
            WorkloadKind::Labyrinth => Port::Labyrinth(labyrinth::Labyrinth::new(scale, threads)),
            WorkloadKind::Ssca2 => Port::Ssca2(ssca2::Ssca2::new(scale, threads)),
            WorkloadKind::VacationHigh => {
                Port::Vacation(vacation::Vacation::new(scale, threads, true))
            }
            WorkloadKind::VacationLow => {
                Port::Vacation(vacation::Vacation::new(scale, threads, false))
            }
            WorkloadKind::Yada => Port::Yada(yada::Yada::new(scale, threads)),
        };
        Workload { inner, kind }
    }

    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }
}

impl Program for Workload {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        with_port!(&mut self.inner, p => p.setup(s, threads));
    }

    async fn run(&self, ctx: &mut GuestCtx) {
        with_port!(&self.inner, p => p.run(ctx).await);
    }

    fn guest_exec(&self, env: lockiller::GuestEnv) -> Option<Box<dyn lockiller::GuestExec + '_>> {
        with_port!(&self.inner, p => p.guest_exec(env))
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        with_port!(&self.inner, p => p.validate(mem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for k in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_name(k.name()), Some(k));
        }
        assert_eq!(
            WorkloadKind::from_name("kmeans+"),
            Some(WorkloadKind::KmeansHigh)
        );
        assert_eq!(WorkloadKind::from_name("bogus"), None);
    }

    #[test]
    fn nine_workloads() {
        assert_eq!(WorkloadKind::ALL.len(), 9);
    }
}

#[cfg(test)]
mod param_tests {
    use super::*;
    use lockiller::runner::Runner;
    use lockiller::system::SystemKind;
    use sim_core::config::SystemConfig;

    #[test]
    fn custom_params_run_and_validate() {
        // Exercise the with_params constructors with non-preset values.
        let mut g = genome::Genome::with_params(
            genome::GenomeParams {
                gene_len: 64,
                seg_len: 10,
                oversample: 2,
            },
            2,
        );
        let _ = Runner::new(SystemKind::Baseline)
            .threads(2)
            .config(SystemConfig::testing(2))
            .run(&mut g);

        let mut k = kmeans::Kmeans::with_params(
            kmeans::KmeansParams {
                points_per_thread: 10,
                dims: 3,
                clusters: 4,
                rounds: 2,
            },
            2,
        );
        let _ = Runner::new(SystemKind::LockillerTm)
            .threads(2)
            .config(SystemConfig::testing(2))
            .run(&mut k);

        let mut v = vacation::Vacation::with_params(
            vacation::VacationParams {
                relation_size: 12,
                tasks_per_thread: 5,
                queries_per_task: 3,
                range_pct: 50,
            },
            2,
            true,
        );
        let _ = Runner::new(SystemKind::LockillerRwil)
            .threads(2)
            .config(SystemConfig::testing(2))
            .run(&mut v);

        let mut l = labyrinth::Labyrinth::with_params(
            labyrinth::LabyrinthParams {
                dim: 10,
                requests_per_thread: 2,
            },
            2,
        );
        let _ = Runner::new(SystemKind::Cgl)
            .threads(2)
            .config(SystemConfig::testing(2))
            .run(&mut l);

        let mut y = yada::Yada::with_params(
            yada::YadaParams {
                initial_elems: 30,
                initial_bad: 5,
                max_generation: 1,
            },
            2,
        );
        let _ = Runner::new(SystemKind::LockillerTm)
            .threads(2)
            .config(SystemConfig::testing(2))
            .run(&mut y);

        let mut s2 = ssca2::Ssca2::with_params(
            ssca2::Ssca2Params {
                nodes: 20,
                edges_per_thread: 15,
            },
            2,
        );
        let _ = Runner::new(SystemKind::LosaTmSafu)
            .threads(2)
            .config(SystemConfig::testing(2))
            .run(&mut s2);

        let mut i = intruder::Intruder::with_params(
            intruder::IntruderParams {
                flows_per_thread: 5,
                max_frags: 3,
            },
            2,
        );
        let _ = Runner::new(SystemKind::LockillerRri)
            .threads(2)
            .config(SystemConfig::testing(2))
            .run(&mut i);
    }

    #[test]
    #[should_panic(expected = "seg_len")]
    fn genome_rejects_oversized_segments() {
        let _ = genome::Genome::with_params(
            genome::GenomeParams {
                gene_len: 100,
                seg_len: 31,
                oversample: 1,
            },
            1,
        );
    }
}

#[cfg(test)]
mod setup_tests {
    //! Setup-phase smoke tests: every workload must build its inputs at
    //! every scale and thread count without tripping sizing asserts
    //! (no simulation — host-side setup only).
    use super::*;
    use lockiller::flatmem::SetupCtx;

    #[test]
    fn all_workloads_set_up_at_all_scales_and_threads() {
        for kind in WorkloadKind::ALL {
            for scale in [Scale::Tiny, Scale::Small, Scale::Full] {
                for threads in [1usize, 2, 8, 32] {
                    let mut w = Workload::with_scale(kind, threads, scale);
                    let mut s = SetupCtx::new();
                    w.setup(&mut s, threads);
                    assert!(s.brk() > 8, "{} produced no data", kind.name());
                }
            }
        }
    }
}
