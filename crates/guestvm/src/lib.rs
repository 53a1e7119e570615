//! # guestvm — the bytecode guest execution core
//!
//! Guest programs for the LockillerTM engine run as native async Rust
//! bodies polled in-process. This crate adds a compiled alternative
//! behind the same [`lockiller::GuestExec`] seam, whose state is a
//! handful of registers (so it can be snapshotted and restored) and
//! whose retry protocol is an independent implementation to check the
//! native one against:
//!
//! - [`ir`] — a compact register-machine bytecode ([`ir::Kernel`])
//!   guest kernels compile into, with static validation and a
//!   label-resolving [`ir::KernelBuilder`];
//! - [`interp`] — the shared fetch/execute core, plus
//!   [`interp::run_on_ctx`] running a kernel over a plain
//!   [`lockiller::GuestCtx`] (the native backend for kernel programs);
//! - [`vm`] — [`vm::GuestVm`], the resumable state machine
//!   implementing the whole elided-lock retry protocol
//!   (`GuestCtx::critical`, Listings 1–2 of the paper) as explicit
//!   states, with O(registers) [`lockiller::GuestExec::snapshot`] /
//!   `restore` for backtracking explorers;
//! - [`spec`] — the `ProgSpec` corpus DSL (shared with `tmverify` /
//!   `tmstatic`), whose [`spec::SpecProgram`] runs hand-written on the
//!   native backend and compiled on the VM backend.
//!
//! The design contract is **bit-identity**: for the same program,
//! seed, schedule, and system, both backends produce byte-equal run
//! statistics, traces, memory images, and state fingerprints. The
//! differential tests in this crate and the CI `guestvm-smoke` job
//! enforce it.

pub mod interp;
pub mod ir;
pub mod spec;
pub mod vm;

pub use interp::{run_on_ctx, Fetch, Frame, OpAt};
pub use ir::{BinOp, Cond, Instr, Kernel, KernelBuilder, KernelError, Label, Reg};
pub use spec::{Op, ParseError, ProgSpec, Segment, SpecProgram};
pub use vm::GuestVm;
