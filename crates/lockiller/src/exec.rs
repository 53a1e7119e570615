//! The guest execution seam: how the engine drives a simulated thread.
//!
//! A [`GuestExec`] is a *resumable* guest: the engine hands it the
//! response to its previous operation and gets the next operation back,
//! synchronously, on the engine's own thread. The engine calls
//! [`GuestExec::resume`] at exactly the rendezvous points of the guest
//! protocol, so event order, state fingerprints and every `RunStats`
//! digest depend only on the op stream, never on the backend.
//!
//! Two backends implement the trait:
//!
//! - `NativeGuest` — the program's native Rust body
//!   ([`crate::Program::run`], an async fn), polled in-process. It is a
//!   coroutine, not a runtime: one boxed future, a one-slot op/response
//!   cell, and a poll with [`Waker::noop`] per `resume`. No task queue,
//!   no wakers, no threads. Any `Program` works here.
//! - `guestvm::GuestVm` (separate crate) — a bytecode VM whose retry
//!   protocol is an explicit state machine, with cheap snapshot/restore.
//!   Programs opt in by returning a VM from
//!   [`crate::Program::guest_exec`].
//!
//! [`Backend`] selects between them on [`crate::Runner`]. Because the
//! two implement the retry protocol independently (async Rust in
//! [`crate::guest`], a state machine in `guestvm`), agreement between
//! them on the same kernel is a differential oracle.

use crate::guest::{GuestCtx, GuestOp, GuestResp, OpSlot};
use crate::program::Program;
use sim_core::rng::SimRng;
use sim_core::types::Addr;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Which guest execution core a [`crate::Runner`] drives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The program's native Rust body, polled in-process
    /// (`NativeGuest`): every [`crate::Program`] works. (The name
    /// predates the in-process poll; reports and baselines key on it.)
    #[default]
    Threads,
    /// Bytecode VM: requires the program to provide a [`GuestExec`] via
    /// [`crate::Program::guest_exec`]. Bit-identical to
    /// [`Backend::Threads`] on the same kernel.
    Vm,
}

impl Backend {
    /// Stable lowercase name (used in `BENCH_engine.json` and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Vm => "vm",
        }
    }

    /// Parse a CLI/JSON backend name.
    pub fn from_name(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "threads" | "thread" | "rendezvous" => Some(Backend::Threads),
            "vm" | "guestvm" => Some(Backend::Vm),
            _ => None,
        }
    }
}

/// Everything a guest needs to construct its execution state for one
/// simulated thread; handed to [`crate::Program::guest_exec`] by the
/// runner (the single guest-construction entry point).
#[derive(Clone, Debug)]
pub struct GuestEnv {
    /// Simulated thread id (== core id).
    pub tid: usize,
    /// Total simulated threads in the run.
    pub threads: usize,
    /// Per-thread deterministic RNG (forked from the run seed; the
    /// native backend hands it to `GuestCtx.rng`).
    pub rng: SimRng,
    /// Guest-side runtime policy (retry budget, fallback kind, CGL).
    pub policy: crate::guest::GuestPolicy,
    /// Address of the global fallback/CGL lock word.
    pub lock_addr: Addr,
}

/// Opaque saved guest state for backends that support cheap
/// checkpointing (see [`GuestExec::snapshot`]).
pub struct GuestSnapshot(pub Box<dyn std::any::Any + Send>);

/// A resumable guest: the engine's view of one simulated thread.
///
/// ## Contract
///
/// The engine calls [`GuestExec::resume`] exactly once per `Recv`
/// rendezvous point. The **first** call carries a synthetic
/// [`GuestResp::Done`] kick (there is no previous operation to answer);
/// every later call carries the response to the operation returned by
/// the previous call. After the guest returns [`GuestOp::Exit`] the
/// engine never calls `resume` again.
///
/// Guests execute in zero simulated time: all host-side work inside
/// `resume` happens "between cycles" and must be deterministic — the
/// returned op may depend only on the response history and the guest's
/// own state.
///
/// Dropping a `GuestExec` releases it: an abandoned run (deadlock /
/// cycle budget) simply drops the boxes, suspended futures included.
pub trait GuestExec {
    /// Deliver `resp` and return the guest's next operation.
    fn resume(&mut self, resp: GuestResp) -> GuestOp;

    /// Capture the guest's complete execution state, if the backend
    /// supports cheap checkpointing (the VM does; a native guest cannot —
    /// a suspended future is not clonable).
    fn snapshot(&self) -> Option<GuestSnapshot> {
        None
    }

    /// Restore state captured by [`GuestExec::snapshot`] on the same
    /// guest. Returns `false` (state unchanged) if the snapshot is not
    /// one of this guest's or the backend has no checkpoint support.
    fn restore(&mut self, snap: &GuestSnapshot) -> bool {
        let _ = snap;
        false
    }
}

/// The native backend: a [`Program::run`] future driven as a
/// coroutine. Each [`GuestExec::resume`] stores the response in the
/// guest's slot, polls the future once, and returns the op the future
/// suspended on; a finished future is [`GuestOp::Exit`].
pub(crate) struct NativeGuest<'g> {
    slot: Rc<OpSlot>,
    body: Pin<Box<dyn Future<Output = ()> + 'g>>,
}

impl<'g> NativeGuest<'g> {
    /// Run `prog`'s body for the simulated thread described by `env`.
    pub(crate) fn new<P: Program>(prog: &'g P, env: GuestEnv) -> NativeGuest<'g> {
        let mut ctx = GuestCtx::new(env);
        let slot = Rc::clone(&ctx.tx.slot);
        let body = Box::pin(async move { prog.run(&mut ctx).await });
        NativeGuest { slot, body }
    }
}

impl GuestExec for NativeGuest<'_> {
    fn resume(&mut self, resp: GuestResp) -> GuestOp {
        self.slot.resp.set(Some(resp));
        match self
            .body
            .as_mut()
            .poll(&mut Context::from_waker(Waker::noop()))
        {
            Poll::Ready(()) => GuestOp::Exit,
            Poll::Pending => self
                .slot
                .op
                .take()
                .expect("guest future suspended without issuing an op"),
        }
    }
}
