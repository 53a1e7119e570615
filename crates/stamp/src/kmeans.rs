//! kmeans — partition-based clustering (STAMP `kmeans`).
//!
//! Each thread assigns its chunk of points to the nearest center, then a
//! small transaction folds the point into that cluster's accumulator
//! (count + per-dimension sums). Iterations are separated by barriers;
//! centers are recomputed from the accumulators between rounds.
//!
//! The paper's two configurations differ in contention: `kmeans+` (high)
//! uses few clusters so the per-cluster accumulator lines are hammered;
//! `kmeans` (low) uses many. Coordinates are integers, so accumulator
//! sums are order-independent and the final memory image is an exact
//! serializability oracle.

use crate::Scale;
use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::Program;
use sim_core::rng::SimRng;
use sim_core::types::Addr;

/// Input parameters (STAMP's `-n` clusters / point-set size / rounds).
#[derive(Clone, Copy, Debug)]
pub struct KmeansParams {
    pub points_per_thread: usize,
    pub dims: usize,
    pub clusters: usize,
    pub rounds: usize,
}

impl KmeansParams {
    pub fn for_scale(scale: Scale, threads: usize, high_contention: bool) -> KmeansParams {
        let (points_per_thread, dims) = match scale {
            Scale::Tiny => (8, 2),
            Scale::Small => (24, 4),
            Scale::Full => (64, 4),
        };
        let clusters = if high_contention { 3 } else { 24 };
        let clusters = clusters.min(points_per_thread * threads / 2).max(2);
        let rounds = match scale {
            Scale::Tiny => 1,
            Scale::Small => 2,
            Scale::Full => 3,
        };
        KmeansParams {
            points_per_thread,
            dims,
            clusters,
            rounds,
        }
    }
}

pub struct Kmeans {
    threads: usize,
    npoints: usize,
    dims: usize,
    clusters: usize,
    rounds: usize,
    points: Vec<Vec<i64>>,
    /// Point coordinates in simulated memory (read-only during a round).
    points_base: Addr,
    /// Current centers: clusters x dims.
    centers: Addr,
    /// Accumulators: per cluster [count, sum0, sum1, ...] padded to lines.
    accum: Addr,
    accum_stride: u64,
}

impl Kmeans {
    pub fn new(scale: Scale, threads: usize, high_contention: bool) -> Kmeans {
        // STAMP: high contention = fewer clusters (more accumulator
        // collisions); low contention = many clusters. Initial centers
        // are the first `clusters` points, so clamp to the point count.
        Kmeans::with_params(
            KmeansParams::for_scale(scale, threads, high_contention),
            threads,
        )
    }

    pub fn with_params(p: KmeansParams, threads: usize) -> Kmeans {
        assert!(p.clusters >= 2 && p.clusters <= p.points_per_thread * threads);
        Kmeans {
            threads,
            npoints: p.points_per_thread * threads,
            dims: p.dims,
            clusters: p.clusters,
            rounds: p.rounds,
            points: Vec::new(),
            points_base: Addr::NULL,
            centers: Addr::NULL,
            accum: Addr::NULL,
            accum_stride: 0,
        }
    }

    fn point_addr(&self, i: usize) -> Addr {
        self.points_base.add((i * self.dims) as u64)
    }

    fn center_addr(&self, c: usize, d: usize) -> Addr {
        self.centers.add((c * self.dims + d) as u64)
    }

    fn accum_addr(&self, c: usize) -> Addr {
        self.accum.add(c as u64 * self.accum_stride)
    }

    /// Compile every thread's kernel under the standard
    /// [`lockiller::Runner`] memory layout without running a simulation:
    /// the runner allocates the fallback lock's 8-word block first, then
    /// this program's [`Program::setup`] places points, centers, and
    /// accumulators. Addresses are baked in as constants, so the result
    /// is byte-identical to what `--backend vm` executes — which is what
    /// lets `tmstatic::vmabs` and `tmlint kernel` analyze the physical
    /// footprint offline. Consumes the program.
    pub fn compile_standalone(mut self) -> Vec<guestvm::Kernel> {
        let mut s = SetupCtx::new();
        let _lock = s.alloc(8);
        let threads = self.threads;
        self.setup(&mut s, threads);
        (0..threads).map(|t| self.compile(t)).collect()
    }

    /// Compile thread `tid`'s body to `guestvm` bytecode: a fully
    /// unrolled, op-for-op mirror of [`Kmeans::run`] (addresses are
    /// constants per thread, so every point/cluster iteration becomes
    /// straight-line code with one branch per best-center update and one
    /// per `n > 0` recompute guard). The emitted `GuestOp` stream is
    /// bit-identical to the hand-written body: same loads in the same
    /// order, same `compute(4)` per cluster, same critical-section shape.
    ///
    /// All values in flight are non-negative and far below `i64::MAX`,
    /// so the VM's wrapping-`u64` arithmetic reproduces the hand-written
    /// `i64` math exactly: `(x - cv)^2` survives the round-trip through
    /// two's-complement, and unsigned `<`, `/` agree with signed.
    fn compile(&self, tid: usize) -> guestvm::Kernel {
        use guestvm::{BinOp, Cond, KernelBuilder};
        let dims = self.dims;
        // r0 scratch address; r1..=r{dims} the current point's coords;
        // then best-distance, best-accumulator address, distance, two
        // scratch values, a zero, and a second address register.
        let r_addr: u8 = 0;
        let coord = |d: usize| (1 + d) as u8;
        let rb = (1 + dims) as u8;
        let (r_bd, r_acc, r_dist, r_a, r_b, r_zero, r_caddr) =
            (rb, rb + 1, rb + 2, rb + 3, rb + 4, rb + 5, rb + 6);
        let mut b = KernelBuilder::new(format!("kmeans[{tid}]"), dims + 8);
        let per = self.npoints / self.threads;
        let (lo, hi) = (tid * per, tid * per + per);
        for _round in 0..self.rounds {
            for i in lo..hi {
                for d in 0..dims {
                    b.imm(r_addr, self.point_addr(i).add(d as u64).0)
                        .load(coord(d), r_addr, 0);
                }
                b.imm(r_bd, i64::MAX as u64);
                b.imm(r_acc, self.accum_addr(0).0);
                for c in 0..self.clusters {
                    b.imm(r_dist, 0);
                    for d in 0..dims {
                        b.imm(r_addr, self.center_addr(c, d).0).load(r_b, r_addr, 0);
                        b.bin(BinOp::Sub, r_a, coord(d), r_b);
                        b.bin(BinOp::Mul, r_a, r_a, r_a);
                        b.bin(BinOp::Add, r_dist, r_dist, r_a);
                    }
                    b.compute(4);
                    let skip = b.label();
                    b.br(Cond::Ge, r_dist, r_bd, skip);
                    b.mov(r_bd, r_dist);
                    b.imm(r_acc, self.accum_addr(c).0);
                    b.bind(skip);
                }
                b.crit_begin();
                b.load(r_a, r_acc, 0);
                b.bini(BinOp::Add, r_a, r_a, 1);
                b.store(r_acc, 0, r_a);
                for d in 0..dims {
                    b.load(r_a, r_acc, 1 + d as u64);
                    b.bin(BinOp::Add, r_a, r_a, coord(d));
                    b.store(r_acc, 1 + d as u64, r_a);
                }
                b.crit_end();
            }
            b.barrier();
            let mut c = tid;
            while c < self.clusters {
                b.imm(r_addr, self.accum_addr(c).0);
                b.load(r_b, r_addr, 0); // n
                b.imm(r_zero, 0);
                let skip = b.label();
                b.br(Cond::Eq, r_b, r_zero, skip);
                for d in 0..dims {
                    b.load(r_a, r_addr, 1 + d as u64);
                    b.bin(BinOp::Div, r_a, r_a, r_b);
                    b.imm(r_caddr, self.center_addr(c, d).0);
                    b.store(r_caddr, 0, r_a);
                }
                b.bind(skip);
                b.imm(r_zero, 0);
                for w in 0..(1 + dims as u64) {
                    b.store(r_addr, w, r_zero);
                }
                c += self.threads;
            }
            b.barrier();
        }
        b.halt();
        b.build()
    }
}

impl Program for Kmeans {
    fn name(&self) -> &str {
        "kmeans"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        assert_eq!(threads, self.threads);
        let mut rng = SimRng::new(0x6b6d_6561_6e73);
        self.points = (0..self.npoints)
            .map(|_| (0..self.dims).map(|_| rng.range(0, 1000) as i64).collect())
            .collect();
        self.points_base = s.alloc((self.npoints * self.dims) as u64);
        for (i, p) in self.points.iter().enumerate() {
            for (d, &v) in p.iter().enumerate() {
                s.write(self.point_addr(i).add(d as u64), v as u64);
            }
        }
        self.centers = s.alloc((self.clusters * self.dims) as u64);
        for c in 0..self.clusters {
            // Initial centers: the first `clusters` points.
            for d in 0..self.dims {
                s.write(self.center_addr(c, d), self.points[c][d] as u64);
            }
        }
        // One accumulator per cluster, line-padded so clusters do not
        // false-share (STAMP pads likewise).
        self.accum_stride = ((1 + self.dims as u64) + 7) & !7;
        self.accum = s.alloc(self.clusters as u64 * self.accum_stride);
        for c in 0..self.clusters {
            for w in 0..(1 + self.dims as u64) {
                s.write(self.accum_addr(c).add(w), 0);
            }
        }
    }

    async fn run(&self, ctx: &mut GuestCtx) {
        let per = self.npoints / self.threads;
        let lo = ctx.tid * per;
        let hi = lo + per;
        for _round in 0..self.rounds {
            for i in lo..hi {
                // Assignment: read the point and every center (stable
                // within a round, so non-transactional — as in STAMP).
                let mut coords = Vec::with_capacity(self.dims);
                for d in 0..self.dims {
                    coords.push(ctx.load(self.point_addr(i).add(d as u64)).await as i64);
                }
                let mut best = 0usize;
                let mut best_d = i64::MAX;
                for c in 0..self.clusters {
                    let mut dist = 0i64;
                    for (d, &x) in coords.iter().enumerate() {
                        let cv = ctx.load(self.center_addr(c, d)).await as i64;
                        let diff = x - cv;
                        dist += diff * diff;
                    }
                    ctx.compute(4).await;
                    if dist < best_d {
                        best_d = dist;
                        best = c;
                    }
                }
                // The transaction: fold the point into the accumulator.
                let acc = self.accum_addr(best);
                let dims = self.dims;
                ctx.critical(async |tx| {
                    let n = tx.load(acc).await?;
                    tx.store(acc, n + 1).await?;
                    for (d, &x) in coords.iter().enumerate().take(dims) {
                        let cell = acc.add(1 + d as u64);
                        let sum = tx.load(cell).await? as i64;
                        tx.store(cell, (sum + x) as u64).await?;
                    }
                    Ok(())
                })
                .await;
            }
            ctx.barrier().await;
            // Center recomputation: thread t owns clusters t, t+T, ...
            let mut c = ctx.tid;
            while c < self.clusters {
                let acc = self.accum_addr(c);
                let n = ctx.load(acc).await as i64;
                if n > 0 {
                    for d in 0..self.dims {
                        let sum = ctx.load(acc.add(1 + d as u64)).await as i64;
                        ctx.store(self.center_addr(c, d), (sum / n) as u64).await;
                    }
                }
                // Reset accumulator for the next round.
                for w in 0..(1 + self.dims as u64) {
                    ctx.store(acc.add(w), 0).await;
                }
                c += self.threads;
            }
            ctx.barrier().await;
        }
    }

    fn guest_exec(&self, env: lockiller::GuestEnv) -> Option<Box<dyn lockiller::GuestExec + '_>> {
        Some(guestvm::GuestVm::boxed(
            std::sync::Arc::new(self.compile(env.tid)),
            &env,
        ))
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        // After the final round the accumulators were reset; recompute the
        // expected centers by running the same algorithm sequentially.
        let mut centers: Vec<Vec<i64>> =
            (0..self.clusters).map(|c| self.points[c].clone()).collect();
        for _ in 0..self.rounds {
            let mut acc = vec![vec![0i64; self.dims + 1]; self.clusters];
            for p in &self.points {
                let mut best = 0;
                let mut best_d = i64::MAX;
                for (c, center) in centers.iter().enumerate() {
                    let dist: i64 = p.iter().zip(center).map(|(a, b)| (a - b) * (a - b)).sum();
                    if dist < best_d {
                        best_d = dist;
                        best = c;
                    }
                }
                acc[best][0] += 1;
                for d in 0..self.dims {
                    acc[best][d + 1] += p[d];
                }
            }
            for (c, a) in acc.iter().enumerate() {
                if a[0] > 0 {
                    for d in 0..self.dims {
                        centers[c][d] = a[d + 1] / a[0];
                    }
                }
            }
        }
        for (c, center) in centers.iter().enumerate() {
            for (d, &want) in center.iter().enumerate() {
                let got = mem.read(self.center_addr(c, d)) as i64;
                if got != want {
                    return Err(format!("center[{c}][{d}] = {got}, expected {want}"));
                }
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
    use sim_core::config::SystemConfig;

    #[test]
    fn kmeans_high_correct_on_cgl_and_htm() {
        for kind in [
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LockillerTm,
        ] {
            let mut w = Kmeans::new(Scale::Tiny, 2, true);
            let stats = Runner::new(kind)
                .threads(2)
                .config(SystemConfig::testing(2))
                .run(&mut w)
                .stats;
            assert!(stats.cycles > 0);
        }
    }

    #[test]
    fn kmeans_low_has_less_contention_than_high() {
        let run = |high| {
            let mut w = Kmeans::new(Scale::Small, 4, high);
            Runner::new(SystemKind::Baseline)
                .threads(4)
                .config(SystemConfig::testing(4))
                .run(&mut w)
                .into_stats()
        };
        let hi = run(true);
        let lo = run(false);
        assert!(
            hi.total_aborts() >= lo.total_aborts(),
            "kmeans+ should conflict at least as much as kmeans ({} vs {})",
            hi.total_aborts(),
            lo.total_aborts()
        );
    }
}
