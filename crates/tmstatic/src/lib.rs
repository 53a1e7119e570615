//! Static conflict/independence analysis over `tmverify` guest kernels.
//!
//! There is one analysis lattice, [`VmAnalysis`]: an abstract
//! interpreter ([`vmabs`]) derives every thread's line footprint from
//! guest bytecode, then capacity, abort/park, fallback-contagion,
//! lock-footprint and purity layers run over it. It has two front ends:
//!
//! - **Spec positions** ([`Analysis`]): a
//!   [`ProgSpec`](tmverify::progs::ProgSpec) compiled by
//!   `SpecProgram::compile_all` (the kernels `tmverify` executes) and
//!   run through the lattice. [`lint`] reports the hazard classes that
//!   are statically decidable over the DSL — the HyTM fast/slow-path
//!   *mixed-access race* (a plain access to a line some other thread
//!   writes transactionally), guaranteed *capacity overflow* (a
//!   critical segment whose static footprint cannot fit the speculative
//!   buffer), *hand-off cycles* in the cross-thread line-dependency
//!   graph, and dead-store/unused-line hygiene — at spec positions.
//! - **Kernel positions** ([`lint_kernels`]): the same lattice over any
//!   kernels (STAMP VM workloads included), reported at instruction
//!   pcs and physical lines.
//!
//! The `tmlint` binary exposes both on the command line with a stable
//! JSON schema and a CI baseline mode.
//!
//! **DPOR pruning** ([`VmAnalysis::independence`]) builds a
//! [`StaticIndependence`](lockiller::StaticIndependence) table refining
//! the dynamic conflict relation used by `tmverify`'s sleep-set DPOR, so
//! statically-independent step pairs never generate backtrack points.
//! The table is only constructed when its soundness premises are proven
//! for the whole program (no possible capacity overflow, no possible LLC
//! eviction); see the analysis lattice in `DESIGN.md` §16.
//!
//! The analysis is deliberately an *over-approximation*: every conflict
//! the simulator can dynamically observe must be statically predicted
//! ([`VmAnalysis::may_conflict`]); the soundness property tests assert
//! exactly that against recorded [`ConflictEdge`](sim_core::obs::ConflictEdge)s.

pub mod analysis;
pub mod lint;
pub mod vmabs;
pub mod vmlint;

pub use analysis::Analysis;
pub use lint::{lint, Diag, Severity};
pub use vmabs::{analyze, analyze_cached, KernelAbs, LoopBound, VmAnalysis};
pub use vmlint::lint_kernels;
