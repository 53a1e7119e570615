//! The workload interface: a `Program` is a multi-threaded guest
//! application (e.g., one STAMP benchmark with fixed inputs).
//!
//! The thread body, [`Program::run`], is an `async fn`: every guest
//! operation is awaited, and the runner polls one future per simulated
//! thread in-process (see [`crate::exec`]). Implementors write
//! `async fn run(&self, ctx: &mut GuestCtx)` and critical sections as
//! `ctx.critical(async |tx| { .. }).await`.

use crate::exec::{GuestEnv, GuestExec};
use crate::flatmem::{FlatMem, SetupCtx};
use crate::guest::GuestCtx;
use std::future::Future;

/// A guest workload.
///
/// Lifecycle: [`Program::setup`] builds the shared data structures in
/// simulated memory (un-timed, before the region of interest), then
/// [`Program::run`] executes on every simulated thread concurrently, and
/// finally [`Program::validate`] checks the resulting memory image —
/// the serializability oracle used by the integration tests.
pub trait Program {
    fn name(&self) -> &str;

    /// Build inputs and shared structures; record their addresses in
    /// `self` for the thread bodies to use.
    fn setup(&mut self, s: &mut SetupCtx, threads: usize);

    /// Thread body; `ctx.tid` identifies the simulated thread.
    fn run(&self, ctx: &mut GuestCtx) -> impl Future<Output = ()>;

    /// Construct a bytecode-VM guest for one simulated thread (the VM
    /// backend, [`crate::Backend::Vm`]). Returning `None` (the default)
    /// means the program runs only as its native body; programs whose
    /// kernels compile to `guestvm` bytecode return a VM here and become
    /// runnable on either backend with bit-identical results. Called
    /// after [`Program::setup`], once per thread.
    fn guest_exec(&self, env: GuestEnv) -> Option<Box<dyn GuestExec + '_>> {
        let _ = env;
        None
    }

    /// Post-run invariant check on the final memory image.
    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let _ = mem;
        Ok(())
    }
}
