//! Guest-program API and the transactional runtime (Listings 1 and 2 of
//! the paper).
//!
//! A guest program is ordinary async Rust. Every operation on a
//! [`GuestCtx`] or [`TxCtx`] is an `async fn` that suspends exactly
//! once: it leaves its [`GuestOp`] in the guest's one-slot cell, yields,
//! and on the next poll takes the engine's [`GuestResp`] from the same
//! cell. The runner's `NativeGuest` executor polls the program's future
//! once per engine rendezvous, on the engine's own thread, so the body
//! runs as a coroutine in zero simulated time. (The VM backend replays the
//! exact same protocol as a bytecode state machine — `guestvm` mirrors
//! [`GuestCtx::critical`] op for op.) [`GuestCtx::critical`] implements
//! `lock_acquire_elided`/`lock_release_elided` as a straight-line retry
//! loop:
//!
//! - **CGL**: plain spin-lock critical section, no speculation;
//! - **Baseline**: `xbegin`, subscribe to the fallback lock (a
//!   transactional load of the lock word — acquiring the lock then aborts
//!   every subscriber), `_xabort` if the lock is held, bounded retries,
//!   then a fallback critical section under the lock;
//! - **HTMLock systems**: the subscription is removed (the paper's grey
//!   modification to Listing 1); the fallback executes `hlbegin`/`hlend`
//!   as a TL lock transaction running concurrently with HTM transactions;
//! - **switchingMode**: the engine may switch a running transaction to STL
//!   transparently; `lock_release_elided` dispatches on `_ttest`
//!   (Listing 2) and skips the lock release for STL finishes.
//!
//! Transaction bodies are async closures receiving a [`TxCtx`] whose
//! memory operations return `Result<_, Abort>`: an abort unwinds the
//! body via `?` and the retry loop re-executes it, exactly like hardware
//! rolling back to the xbegin.

use crate::exec::GuestEnv;
use sim_core::rng::SimRng;
use sim_core::stats::AbortCause;
use sim_core::types::Addr;
use std::cell::Cell;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::Poll;

/// `_ttest` return values (Listing 2 dispatch), namespaced so new modes
/// can be added without colliding with downstream constants.
pub struct TTest;

impl TTest {
    /// `_ttest` return value in STL mode (agreed constant, §III-C).
    pub const STL: u64 = 0x0FFF_FFFF;
    /// `_ttest` return value in TL mode.
    pub const TL: u64 = 0x1FFF_FFFF;
    /// `_ttest` return value inside a plain HTM transaction (nesting
    /// depth 1).
    pub const HTM: u64 = 1;
}

/// Operations a guest sends to the engine.
///
/// Non-exhaustive: the VM backend may grow ops without breaking
/// downstream crates; match with a wildcard arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GuestOp {
    /// `n` non-memory instructions.
    Compute(u64),
    Load(Addr),
    Store(Addr, u64),
    /// Compare-and-swap; responds with the previous value.
    Cas(Addr, u64, u64),
    /// `xbegin`.
    TxBegin,
    /// `xend` (the engine dispatches to `hlend` semantics when the
    /// transaction switched to STL — see `lock_release_elided`).
    TxCommit,
    /// `_xabort` — explicit abort (lock observed taken at subscription).
    TxAbortUser,
    /// `_ttest`.
    TTest,
    /// `hlbegin` — enter TL mode (caller holds the software lock).
    HlBegin,
    /// `hlend` — leave TL/STL mode.
    HlEnd,
    /// Phase annotations for the execution-time breakdown.
    SpinBegin,
    SpinEnd,
    FallbackBegin,
    FallbackEnd,
    /// First-touch notification from the allocator (demand paging).
    PageTouch(u64),
    Barrier,
    Exit,
}

/// Engine responses.
///
/// Non-exhaustive for the same reason as [`GuestOp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GuestResp {
    Done,
    Value(u64),
    /// The transaction aborted; control must unwind to the retry loop.
    Aborted(AbortCause),
}

/// Abort token propagated by `?` through transaction bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort {
    pub cause: AbortCause,
}

/// Policy knobs the guest-side runtime needs (copied from the system's
/// `PolicyConfig` at spawn).
#[derive(Clone, Copy, Debug)]
pub struct GuestPolicy {
    pub coarse_grained_lock: bool,
    pub htmlock: bool,
    pub max_retries: u32,
    pub fallback_on_capacity: bool,
}

/// The one-slot cell a suspended guest and its [`crate::exec::NativeGuest`]
/// exchange the pending op and its response through.
#[derive(Debug, Default)]
pub(crate) struct OpSlot {
    pub(crate) op: Cell<Option<GuestOp>>,
    pub(crate) resp: Cell<Option<GuestResp>>,
}

/// A guest thread's handle on the engine plus the runtime state.
pub struct GuestCtx {
    pub tid: usize,
    pub threads: usize,
    pub rng: SimRng,
    policy: GuestPolicy,
    lock_addr: Addr,
    /// The view handed to critical-section bodies; its slot carries
    /// every op of this guest.
    pub(crate) tx: TxCtx,
}

impl GuestCtx {
    pub(crate) fn new(env: GuestEnv) -> GuestCtx {
        GuestCtx {
            tid: env.tid,
            threads: env.threads,
            rng: env.rng,
            policy: env.policy,
            lock_addr: env.lock_addr,
            tx: TxCtx {
                tid: env.tid,
                slot: Rc::default(),
            },
        }
    }

    async fn op(&self, o: GuestOp) -> GuestResp {
        self.tx.op(o).await
    }

    async fn op_infallible(&self, o: GuestOp) -> GuestResp {
        match self.op(o).await {
            GuestResp::Aborted(c) => panic!("unexpected abort ({c:?}) outside a transaction"),
            r => r,
        }
    }

    // ---------------- non-transactional primitives ----------------

    pub async fn load(&self, a: Addr) -> u64 {
        value(self.op_infallible(GuestOp::Load(a)).await)
    }

    pub async fn store(&self, a: Addr, v: u64) {
        self.op_infallible(GuestOp::Store(a, v)).await;
    }

    pub async fn cas(&self, a: Addr, expected: u64, new: u64) -> u64 {
        value(self.op_infallible(GuestOp::Cas(a, expected, new)).await)
    }

    pub async fn compute(&self, n: u64) {
        self.op_infallible(GuestOp::Compute(n)).await;
    }

    pub async fn page_touch(&self, page: u64) -> Result<(), Abort> {
        self.tx.try_op(GuestOp::PageTouch(page)).await.map(drop)
    }

    pub async fn barrier(&self) {
        self.op_infallible(GuestOp::Barrier).await;
    }

    // ---------------- spin lock (test-and-test-and-set) ----------------

    async fn spin_acquire(&self) {
        self.op_infallible(GuestOp::SpinBegin).await;
        loop {
            if self.load(self.lock_addr).await == 0 && self.cas(self.lock_addr, 0, 1).await == 0 {
                break;
            }
            self.compute(16).await;
        }
        self.op_infallible(GuestOp::SpinEnd).await;
    }

    async fn spin_until_free(&self) {
        self.op_infallible(GuestOp::SpinBegin).await;
        while self.load(self.lock_addr).await != 0 {
            self.compute(16).await;
        }
        self.op_infallible(GuestOp::SpinEnd).await;
    }

    async fn release_lock(&self) {
        self.store(self.lock_addr, 0).await;
    }

    // ---------------- the elided-lock critical section ----------------

    /// Execute `f` as a critical section under the active system's
    /// concurrency control. Shared state touched by `f` must live in
    /// simulated memory (so aborts roll it back); host-side locals must be
    /// re-initialized inside the closure. Sections cannot nest: `f` sees
    /// only a [`TxCtx`], never this `GuestCtx`.
    pub async fn critical<T>(
        &mut self,
        mut f: impl AsyncFnMut(&mut TxCtx) -> Result<T, Abort>,
    ) -> T {
        if self.policy.coarse_grained_lock {
            self.spin_acquire().await;
            return self
                .locked(GuestOp::FallbackBegin, &mut f, GuestOp::FallbackEnd)
                .await;
        }

        // lock_acquire_elided (Listing 1).
        let mut retries = self.policy.max_retries;
        while retries > 0 {
            match self.try_htm(&mut f).await {
                Ok(v) => return v,
                Err(HtmFail::LockTaken) => {
                    // Subscribed lock observed held: wait until free, then
                    // burn one retry (Listing 1 decrements per iteration).
                    self.spin_until_free().await;
                    retries -= 1;
                }
                Err(HtmFail::Abort(cause)) => {
                    let hopeless = matches!(cause, AbortCause::Of | AbortCause::Fault);
                    if hopeless && self.policy.fallback_on_capacity {
                        retries = 0;
                    } else {
                        retries -= 1;
                    }
                }
            }
        }

        // Fallback path: lock_acquire + (hlbegin | plain critical section).
        self.spin_acquire().await;
        if self.policy.htmlock {
            self.locked(GuestOp::HlBegin, &mut f, GuestOp::HlEnd).await
        } else {
            self.locked(GuestOp::FallbackBegin, &mut f, GuestOp::FallbackEnd)
                .await
        }
    }

    /// Run the body on a non-speculative path (the caller holds the
    /// lock), bracketed by `begin`/`end`, then release the lock. Aborts
    /// cannot occur here.
    async fn locked<T>(
        &mut self,
        begin: GuestOp,
        f: &mut impl AsyncFnMut(&mut TxCtx) -> Result<T, Abort>,
        end: GuestOp,
    ) -> T {
        self.op_infallible(begin).await;
        let v = match f(&mut self.tx).await {
            Ok(v) => v,
            Err(a) => panic!("abort on the non-speculative path: {a:?}"),
        };
        self.op_infallible(end).await;
        self.release_lock().await;
        v
    }

    /// One speculative attempt: xbegin, optional lock subscription, body,
    /// then `lock_release_elided` (Listing 2) with its ttest dispatch.
    async fn try_htm<T>(
        &mut self,
        f: &mut impl AsyncFnMut(&mut TxCtx) -> Result<T, Abort>,
    ) -> Result<T, HtmFail> {
        if let GuestResp::Aborted(c) = self.op(GuestOp::TxBegin).await {
            return Err(HtmFail::Abort(c));
        }

        let body = async {
            if !self.policy.htmlock {
                // Baseline subscription: the fallback lock joins the read
                // set; abort explicitly if it is already held.
                if self.tx.load(self.lock_addr).await? != 0 {
                    match self.op(GuestOp::TxAbortUser).await {
                        GuestResp::Aborted(_) => {
                            return Err(Abort {
                                cause: AbortCause::Mutex,
                            })
                        }
                        r => panic!("xabort must abort, got {r:?}"),
                    }
                }
            }
            f(&mut self.tx).await
        }
        .await;

        match body {
            Err(a) => {
                if a.cause == AbortCause::Mutex && !self.policy.htmlock {
                    Err(HtmFail::LockTaken)
                } else {
                    Err(HtmFail::Abort(a.cause))
                }
            }
            Ok(v) => {
                // lock_release_elided (Listing 2): dispatch on _ttest.
                match self.op(GuestOp::TTest).await {
                    GuestResp::Aborted(c) => Err(HtmFail::Abort(c)),
                    GuestResp::Value(TTest::STL) => {
                        // Switched transaction: hlend, no lock to release.
                        self.op_infallible(GuestOp::HlEnd).await;
                        Ok(v)
                    }
                    GuestResp::Value(_) => match self.op(GuestOp::TxCommit).await {
                        GuestResp::Aborted(c) => Err(HtmFail::Abort(c)),
                        _ => Ok(v),
                    },
                    r => panic!("bad ttest response: {r:?}"),
                }
            }
        }
    }
}

/// Why a speculative attempt failed.
enum HtmFail {
    LockTaken,
    Abort(AbortCause),
}

/// Memory operations inside a critical section. On the speculative path
/// these can fail with [`Abort`]; on lock/CGL paths they never do, so the
/// same body code serves every system.
pub struct TxCtx {
    tid: usize,
    pub(crate) slot: Rc<OpSlot>,
}

impl TxCtx {
    /// Issue `o` and suspend until the engine answers it. (The first
    /// poll always suspends, discarding the executor's start-up kick.)
    async fn op(&self, o: GuestOp) -> GuestResp {
        self.slot.op.set(Some(o));
        let mut suspended = false;
        poll_fn(|_| match self.slot.resp.take() {
            Some(r) if suspended => Poll::Ready(r),
            _ => {
                suspended = true;
                Poll::Pending
            }
        })
        .await
    }

    async fn try_op(&self, o: GuestOp) -> Result<GuestResp, Abort> {
        match self.op(o).await {
            GuestResp::Aborted(cause) => Err(Abort { cause }),
            r => Ok(r),
        }
    }

    pub async fn load(&mut self, a: Addr) -> Result<u64, Abort> {
        self.try_op(GuestOp::Load(a)).await.map(value)
    }

    pub async fn store(&mut self, a: Addr, v: u64) -> Result<(), Abort> {
        self.try_op(GuestOp::Store(a, v)).await.map(drop)
    }

    pub async fn compute(&mut self, n: u64) -> Result<(), Abort> {
        self.try_op(GuestOp::Compute(n)).await.map(drop)
    }

    pub async fn page_touch(&mut self, page: u64) -> Result<(), Abort> {
        self.try_op(GuestOp::PageTouch(page)).await.map(drop)
    }

    /// Thread id of the owning guest (handy for per-thread structures).
    pub fn tid(&self) -> usize {
        self.tid
    }
}

/// The value carried by a load or CAS response.
fn value(r: GuestResp) -> u64 {
    match r {
        GuestResp::Value(v) => v,
        r => panic!("bad response to a load/cas: {r:?}"),
    }
}
