//! VM-native STAMP ports: programs whose thread bodies are `guestvm`
//! kernels, runnable on **either** execution backend from one bytecode
//! image — [`lockiller::Backend::Threads`] interprets the kernel against
//! a `GuestCtx` ([`guestvm::run_on_ctx`]), [`lockiller::Backend::Vm`]
//! steps it as an in-process resumable state machine. Both paths issue
//! the same `GuestOp` stream, so results are bit-identical by
//! construction *and* asserted by the differential harness.
//!
//! [`IntruderFlow`] here is the flow-reassembly skeleton of STAMP
//! `intruder` (the full port in [`crate::intruder`] leans on host-side
//! `tmlib` containers that have no bytecode equivalent): threads pop
//! fragments off a shared work queue, accumulate them into per-flow
//! entries, and run a detection pass over each completed flow — the same
//! three-transaction pipeline, contention profile (every pop hits one
//! queue-head line), and data-dependent detection cost as the original.

use crate::Scale;
use guestvm::{BinOp, Cond, Kernel, KernelBuilder};
use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::Program;
use lockiller::{GuestEnv, GuestExec};
use sim_core::rng::SimRng;
use sim_core::types::Addr;
use std::sync::Arc;

/// Fragment encoding: `flow << 40 | seq << 32 | payload` (payload is 32
/// bits, the sequence number 8 — enough for [`IntruderFlowParams`]).
const PAYLOAD_BITS: u64 = 32;
const SEQ_BITS: u64 = 8;

/// Words per per-flow reassembly entry (power of two so the kernel can
/// index with a shift): got-count, needed-count, payload accumulator.
const ENTRY_STRIDE: u64 = 4;
const E_GOT: u64 = 0;
const E_NEED: u64 = 1;
const E_ACC: u64 = 2;

/// Input parameters (mirrors [`crate::intruder::IntruderParams`]).
#[derive(Clone, Copy, Debug)]
pub struct IntruderFlowParams {
    pub flows_per_thread: usize,
    pub max_frags: usize,
}

impl IntruderFlowParams {
    pub fn for_scale(scale: Scale) -> IntruderFlowParams {
        let (flows_per_thread, max_frags) = match scale {
            Scale::Tiny => (4, 3),
            Scale::Small => (10, 4),
            Scale::Full => (24, 4),
        };
        IntruderFlowParams {
            flows_per_thread,
            max_frags,
        }
    }
}

/// Flow reassembly + detection over a shared fragment queue, compiled
/// once to a [`Kernel`] every simulated thread runs.
pub struct IntruderFlow {
    threads: usize,
    params: IntruderFlowParams,
    /// Expected per-flow payload sum (the detection "verdict").
    expected: Vec<u64>,
    need: Vec<u64>,
    nfrags: u64,
    head: Addr,
    frags: Addr,
    entries: Addr,
    verdicts: Addr,
    kernel: Option<Arc<Kernel>>,
}

impl IntruderFlow {
    pub fn new(scale: Scale, threads: usize) -> IntruderFlow {
        IntruderFlow::with_params(IntruderFlowParams::for_scale(scale), threads)
    }

    pub fn with_params(p: IntruderFlowParams, threads: usize) -> IntruderFlow {
        assert!(p.flows_per_thread >= 1);
        assert!(
            (2..(1 << SEQ_BITS)).contains(&p.max_frags),
            "max_frags {} out of range",
            p.max_frags
        );
        IntruderFlow {
            threads,
            params: p,
            expected: Vec::new(),
            need: Vec::new(),
            nfrags: 0,
            head: Addr::NULL,
            frags: Addr::NULL,
            entries: Addr::NULL,
            verdicts: Addr::NULL,
            kernel: None,
        }
    }

    fn flows(&self) -> usize {
        self.params.flows_per_thread * self.threads
    }

    /// Compile the per-thread kernels under the standard
    /// [`lockiller::Runner`] memory layout without running a simulation:
    /// the runner allocates the fallback lock's 8-word block first, then
    /// this program's [`Program::setup`] places the queue head, fragment
    /// array, reassembly entries, and verdicts. Every thread runs the
    /// same shared body, so the vector holds `threads` copies of one
    /// kernel image — static analyses (`tmstatic::vmabs`) dedupe them by
    /// [`Kernel::content_hash`]. Consumes the program; the runner path
    /// compiles through [`Program::setup`] instead.
    pub fn compile_standalone(mut self) -> Vec<Kernel> {
        let mut s = SetupCtx::new();
        let _lock = s.alloc(8);
        let threads = self.threads;
        self.setup(&mut s, threads);
        let k = self.kernel.expect("setup populates the kernel");
        (0..threads).map(|_| (*k).clone()).collect()
    }

    /// The shared thread body. One loop iteration = the original's
    /// packet step: TX1 pops a fragment off the queue, TX2 folds it into
    /// the flow's entry, and — when the flow completes — a
    /// payload-dependent detection compute and TX3 publishing the
    /// verdict. All registers holding base addresses are set before the
    /// first `CritBegin`, so abort rollback (which restores the
    /// `CritBegin` snapshot) cannot lose them.
    fn compile(&self) -> Kernel {
        const R_ZERO: u8 = 0;
        const R_HEAD: u8 = 1;
        const R_NFRAGS: u8 = 2;
        const R_FRAGS: u8 = 3;
        const R_ENTRIES: u8 = 4;
        const R_VERD: u8 = 5;
        const R_IDX: u8 = 6;
        const R_IDX1: u8 = 7;
        const R_FA: u8 = 8;
        const R_FRAG: u8 = 9;
        const R_FLAG: u8 = 10;
        const R_FLOW: u8 = 11;
        const R_PAY: u8 = 12;
        const R_EA: u8 = 13;
        const R_GOT: u8 = 14;
        const R_ACC: u8 = 15;
        const R_NEED: u8 = 16;
        const R_TMP: u8 = 17;

        let mut b = KernelBuilder::new("intruder-flow", 18);
        b.imm(R_ZERO, 0)
            .imm(R_HEAD, self.head.0)
            .imm(R_NFRAGS, self.nfrags)
            .imm(R_FRAGS, self.frags.0)
            .imm(R_ENTRIES, self.entries.0)
            .imm(R_VERD, self.verdicts.0);
        let l_loop = b.label();
        let l_done = b.label();
        b.bind(l_loop);
        // TX1: pop. The empty-queue path still commits (reading the head
        // is enough to decide), flagging the exit via a register.
        b.crit_begin();
        b.load(R_IDX, R_HEAD, 0);
        b.imm(R_FLAG, 0);
        let l_join = b.label();
        b.br(Cond::Ge, R_IDX, R_NFRAGS, l_join);
        b.bini(BinOp::Add, R_IDX1, R_IDX, 1);
        b.store(R_HEAD, 0, R_IDX1);
        b.bin(BinOp::Add, R_FA, R_FRAGS, R_IDX);
        b.load(R_FRAG, R_FA, 0);
        b.imm(R_FLAG, 1);
        b.bind(l_join);
        b.crit_end();
        b.br(Cond::Eq, R_FLAG, R_ZERO, l_done);
        // Decode (pure, zero simulated time — like host arithmetic
        // between two GuestCtx calls).
        b.bini(BinOp::Shr, R_FLOW, R_FRAG, PAYLOAD_BITS + SEQ_BITS);
        b.bini(BinOp::And, R_PAY, R_FRAG, (1 << PAYLOAD_BITS) - 1);
        b.bini(
            BinOp::Shl,
            R_EA,
            R_FLOW,
            ENTRY_STRIDE.trailing_zeros() as u64,
        );
        b.bin(BinOp::Add, R_EA, R_EA, R_ENTRIES);
        // TX2: fold the fragment into its flow entry.
        b.crit_begin();
        b.load(R_GOT, R_EA, E_GOT);
        b.bini(BinOp::Add, R_GOT, R_GOT, 1);
        b.store(R_EA, E_GOT, R_GOT);
        b.load(R_ACC, R_EA, E_ACC);
        b.bin(BinOp::Add, R_ACC, R_ACC, R_PAY);
        b.store(R_EA, E_ACC, R_ACC);
        b.load(R_NEED, R_EA, E_NEED);
        b.crit_end();
        b.br(Cond::Ne, R_GOT, R_NEED, l_loop);
        // Detection: cost depends on the reassembled payload, as in the
        // original's signature scan.
        b.bini(BinOp::Rem, R_TMP, R_ACC, 64);
        b.bini(BinOp::Add, R_TMP, R_TMP, 60);
        b.compute_r(R_TMP);
        // TX3: publish the verdict.
        b.bin(BinOp::Add, R_TMP, R_VERD, R_FLOW);
        b.crit_begin();
        b.store(R_TMP, 0, R_ACC);
        b.crit_end();
        b.jmp(l_loop);
        b.bind(l_done);
        b.halt();
        b.build()
    }
}

impl Program for IntruderFlow {
    fn name(&self) -> &str {
        "intruder-flow"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        assert_eq!(threads, self.threads);
        let mut rng = SimRng::new(0x666c_6f77_7673);
        let flows = self.flows();
        self.need = (0..flows)
            .map(|_| rng.range(2, self.params.max_frags as u64 + 1))
            .collect();
        self.expected = vec![0; flows];
        let mut frags: Vec<u64> = Vec::new();
        for (f, &need) in self.need.iter().enumerate() {
            for seq in 0..need {
                let payload = rng.range(1, 1 << PAYLOAD_BITS);
                self.expected[f] += payload;
                frags.push(
                    ((f as u64) << (PAYLOAD_BITS + SEQ_BITS)) | (seq << PAYLOAD_BITS) | payload,
                );
            }
        }
        // Deterministic shuffle: fragments of different flows interleave
        // on the queue, as the original's packet stream does.
        for i in (1..frags.len()).rev() {
            let j = rng.range(0, i as u64 + 1) as usize;
            frags.swap(i, j);
        }
        self.nfrags = frags.len() as u64;

        self.head = s.alloc(8); // own line: every pop hits it
        s.write(self.head, 0);
        self.frags = s.alloc(self.nfrags);
        for (i, &w) in frags.iter().enumerate() {
            s.write(self.frags.add(i as u64), w);
        }
        self.entries = s.alloc(flows as u64 * ENTRY_STRIDE);
        for (f, &need) in self.need.iter().enumerate() {
            let e = self.entries.add(f as u64 * ENTRY_STRIDE);
            s.write(e.add(E_GOT), 0);
            s.write(e.add(E_NEED), need);
            s.write(e.add(E_ACC), 0);
        }
        self.verdicts = s.alloc(flows as u64);
        for f in 0..flows {
            s.write(self.verdicts.add(f as u64), 0);
        }
        self.kernel = Some(Arc::new(self.compile()));
    }

    async fn run(&self, ctx: &mut GuestCtx) {
        guestvm::run_on_ctx(self.kernel.as_ref().expect("setup first"), ctx).await;
    }

    fn guest_exec(&self, env: GuestEnv) -> Option<Box<dyn GuestExec + '_>> {
        Some(guestvm::GuestVm::boxed(
            self.kernel.clone().expect("setup first"),
            &env,
        ))
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let got_head = mem.read(self.head);
        if got_head != self.nfrags {
            return Err(format!(
                "queue head {got_head}, expected {} (fragments lost or double-popped)",
                self.nfrags
            ));
        }
        for f in 0..self.flows() {
            let e = self.entries.add(f as u64 * ENTRY_STRIDE);
            let got = mem.read(e.add(E_GOT));
            if got != self.need[f] {
                return Err(format!(
                    "flow {f}: reassembled {got} fragments, expected {}",
                    self.need[f]
                ));
            }
            let verdict = mem.read(self.verdicts.add(f as u64));
            if verdict != self.expected[f] {
                return Err(format!(
                    "flow {f}: verdict {verdict}, expected {}",
                    self.expected[f]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockiller::runner::Runner;
    use lockiller::system::SystemKind;
    use lockiller::Backend;
    use sim_core::config::SystemConfig;

    #[test]
    fn intruder_flow_correct_on_both_backends() {
        for kind in [
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LockillerTm,
        ] {
            for backend in [Backend::Threads, Backend::Vm] {
                let mut w = IntruderFlow::new(Scale::Tiny, 2);
                let stats = Runner::new(kind)
                    .threads(2)
                    .config(SystemConfig::testing(2))
                    .backend(backend)
                    .run(&mut w)
                    .stats;
                assert!(stats.cycles > 0);
            }
        }
    }

    #[test]
    fn backends_bit_identical_on_intruder_flow() {
        let run = |backend| {
            let mut w = IntruderFlow::new(Scale::Tiny, 3);
            Runner::new(SystemKind::LockillerRwi)
                .threads(3)
                .config(SystemConfig::testing(3))
                .tracing()
                .backend(backend)
                .run(&mut w)
        };
        let a = run(Backend::Threads);
        let b = run(Backend::Vm);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.mem.digest(), b.mem.digest());
        assert_eq!(a.trace_events(), b.trace_events());
    }

    #[test]
    fn kmeans_guest_exec_bit_identical_to_thread_body() {
        // The compiled kernel must mirror the hand-written Kmeans::run
        // op-for-op: identical stats, trace, and memory image.
        let run = |backend| {
            let mut w = crate::kmeans::Kmeans::new(Scale::Tiny, 2, true);
            Runner::new(SystemKind::LockillerTm)
                .threads(2)
                .config(SystemConfig::testing(2))
                .tracing()
                .backend(backend)
                .run(&mut w)
        };
        let a = run(Backend::Threads);
        let b = run(Backend::Vm);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.mem.digest(), b.mem.digest());
        assert_eq!(a.trace_events(), b.trace_events());
    }
}
