//! yada — "yet another Delaunay application": mesh refinement (STAMP
//! `yada`).
//!
//! The original refines a Delaunay triangulation: pop a bad triangle from
//! a shared heap, grow its cavity (an irregular region of neighbouring
//! triangles), retriangulate it — allocating new triangles — and push any
//! new bad ones. We reproduce that *transaction profile* on a simplified
//! mesh structure (documented substitution in DESIGN.md): a pool of
//! elements with adjacency links and a quality flag; a refinement
//! transaction pops a bad element, walks its cavity (large, irregular
//! read set), allocates replacement elements from the transactional heap
//! (fresh pages fault inside the transaction — yada's signature abort
//! cause), rewires adjacency (large write set), and pushes a decaying
//! number of new bad elements.
//!
//! Validation: no bad elements remain; element counts balance; adjacency
//! stays symmetric.

use crate::Scale;
use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::Program;
use sim_core::rng::SimRng;
use sim_core::types::Addr;
use tmlib::{Heap, TmAlloc};

/// Element layout: [bad_flag, generation, n0, n1, n2] (three neighbour
/// slots; 0 = boundary).
const E_BAD: u64 = 0;
const E_GEN: u64 = 1;
const E_NBR: u64 = 2;
const NBRS: u64 = 3;
const ELEM_WORDS: u64 = E_NBR + NBRS;

/// Input parameters (mesh size / initial bad-element fraction / depth).
#[derive(Clone, Copy, Debug)]
pub struct YadaParams {
    pub initial_elems: usize,
    pub initial_bad: usize,
    /// Refinement generations: each bad element spawns two children until
    /// this cap (work decays geometrically, like the original's quality
    /// threshold).
    pub max_generation: u64,
}

impl YadaParams {
    pub fn for_scale(scale: Scale) -> YadaParams {
        let (initial_elems, initial_bad, max_generation) = match scale {
            Scale::Tiny => (24, 4, 1),
            Scale::Small => (64, 10, 2),
            Scale::Full => (160, 24, 2),
        };
        YadaParams {
            initial_elems,
            initial_bad,
            max_generation,
        }
    }
}

pub struct Yada {
    threads: usize,
    initial_elems: usize,
    initial_bad: usize,
    max_generation: u64,
    heap: Option<Heap>,
    alloc: Option<TmAlloc>,
    /// Count of refinements performed (for validation/statistics).
    refinements: Addr,
    /// Initial element pool (setup-allocated).
    elems: Vec<Addr>,
}

impl Yada {
    pub fn new(scale: Scale, threads: usize) -> Yada {
        Yada::with_params(YadaParams::for_scale(scale), threads)
    }

    pub fn with_params(p: YadaParams, threads: usize) -> Yada {
        assert!(p.initial_bad <= p.initial_elems);
        Yada {
            threads,
            initial_elems: p.initial_elems,
            initial_bad: p.initial_bad,
            max_generation: p.max_generation,
            heap: None,
            alloc: None,
            refinements: Addr::NULL,
            elems: Vec::new(),
        }
    }
}

impl Program for Yada {
    fn name(&self) -> &str {
        "yada"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        assert_eq!(threads, self.threads);
        let mut rng = SimRng::new(0x7961_6461);
        // Build a ring-with-chords mesh: element i neighbours i-1 and i+1
        // plus one random chord; symmetric links.
        self.elems = (0..self.initial_elems)
            .map(|_| s.alloc(ELEM_WORDS))
            .collect();
        let n = self.initial_elems;
        for i in 0..n {
            let e = self.elems[i];
            s.write(e.add(E_BAD), 0);
            s.write(e.add(E_GEN), 0);
            let prev = self.elems[(i + n - 1) % n];
            let next = self.elems[(i + 1) % n];
            s.write(e.add(E_NBR), prev.0);
            s.write(e.add(E_NBR + 1), next.0);
            s.write(e.add(E_NBR + 2), 0);
        }
        // Mark the initial bad elements and push them onto the work heap.
        let heap = Heap::setup(s, (self.initial_elems * 8) as u64);
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for &i in order.iter().take(self.initial_bad) {
            s.write(self.elems[i].add(E_BAD), 1);
            heap.setup_push(s, self.elems[i].0);
        }
        self.heap = Some(heap);
        self.alloc = Some(TmAlloc::setup(s, threads, 512 * 1024));
        self.refinements = s.alloc(8);
        s.write(self.refinements, 0);
    }

    async fn run(&self, ctx: &mut GuestCtx) {
        let heap = self.heap.unwrap();
        let alloc = self.alloc.unwrap();
        let max_gen = self.max_generation;
        let refinements = self.refinements;
        loop {
            let work = ctx.critical(async |tx| heap.pop(tx).await).await;
            let Some(elem) = work else { break };
            let elem = Addr(elem);
            // Refinement transaction: cavity walk + retriangulation.
            ctx.critical(async |tx| {
                // The element may have been fixed by a neighbouring
                // refinement already (yada re-checks after popping).
                if tx.load(elem.add(E_BAD)).await? == 0 {
                    return Ok(());
                }
                // Cavity: BFS over the adjacency up to depth 2 — an
                // irregular read set of ~10-20 elements.
                let mut cavity = vec![elem];
                let mut frontier = vec![elem];
                for _depth in 0..2 {
                    let mut next = Vec::new();
                    for &e in &frontier {
                        for k in 0..NBRS {
                            let nb = tx.load(e.add(E_NBR + k)).await?;
                            if nb != 0 && !cavity.contains(&Addr(nb)) {
                                cavity.push(Addr(nb));
                                next.push(Addr(nb));
                            }
                        }
                    }
                    frontier = next;
                }
                tx.compute(40).await?; // circumcircle tests etc.

                // Retriangulate: allocate replacements (faults live here),
                // splice them in place of the popped element.
                let gen = tx.load(elem.add(E_GEN)).await?;
                let n_new = 2u64;
                let mut fresh = Vec::new();
                for _ in 0..n_new {
                    let ne = alloc.alloc_zeroed(tx, ELEM_WORDS).await?;
                    tx.store(ne.add(E_GEN), gen + 1).await?;
                    fresh.push(ne);
                }
                // Wire the fresh pair to each other and into the cavity.
                tx.store(fresh[0].add(E_NBR), fresh[1].0).await?;
                tx.store(fresh[1].add(E_NBR), fresh[0].0).await?;
                // Replace `elem` in its neighbours' link slots with the
                // fresh elements (alternating), and clear elem's badness.
                let mut alt = 0usize;
                for k in 0..NBRS {
                    let nb = tx.load(elem.add(E_NBR + k)).await?;
                    if nb == 0 {
                        continue;
                    }
                    let nb = Addr(nb);
                    for j in 0..NBRS {
                        if tx.load(nb.add(E_NBR + j)).await? == elem.0 {
                            tx.store(nb.add(E_NBR + j), fresh[alt % 2].0).await?;
                            let back = fresh[alt % 2];
                            // Give the fresh element a back-link slot.
                            for m in 0..NBRS {
                                if tx.load(back.add(E_NBR + m)).await? == 0 {
                                    tx.store(back.add(E_NBR + m), nb.0).await?;
                                    break;
                                }
                            }
                            alt += 1;
                        }
                    }
                }
                tx.store(elem.add(E_BAD), 0).await?;
                // Unlink elem entirely.
                for k in 0..NBRS {
                    tx.store(elem.add(E_NBR + k), 0).await?;
                }
                // New work: fresh elements below the generation cap are
                // bad and go back on the heap (decaying workload).
                if gen < max_gen {
                    for &ne in &fresh {
                        tx.store(ne.add(E_BAD), 1).await?;
                        heap.push(tx, ne.0).await?;
                    }
                }
                let r = tx.load(refinements).await?;
                tx.store(refinements, r + 1).await?;
                Ok(())
            })
            .await;
            ctx.compute(30).await;
        }
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        // The heap must be drained and no initial element still bad.
        let refts = mem.read(self.refinements);
        if refts == 0 {
            return Err("no refinement performed".into());
        }
        for (i, &e) in self.elems.iter().enumerate() {
            if mem.read(e.add(E_BAD)) != 0 {
                return Err(format!("initial element {i} still bad"));
            }
        }
        // Work conservation: every refinement of generation <= max spawns
        // 2 children; total refinements = sum over the spawn tree. With
        // max_generation g and b initial bad elements, refinements must
        // be exactly b * (2^(g+1) - 1).
        let want = self.initial_bad as u64 * ((1 << (self.max_generation + 1)) - 1);
        if refts != want {
            return Err(format!("refinements {refts}, expected {want}"));
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
    use sim_core::stats::AbortCause;

    #[test]
    fn yada_refines_completely() {
        for kind in [
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LockillerTm,
        ] {
            let mut w = Yada::new(Scale::Tiny, 2);
            let _ = Runner::new(kind)
                .threads(2)
                .config(SystemConfig::testing(2))
                .run(&mut w);
        }
    }

    #[test]
    fn yada_faults_inside_transactions() {
        let mut w = Yada::new(Scale::Small, 2);
        let stats = Runner::new(SystemKind::Baseline)
            .threads(2)
            .config(SystemConfig::testing(2))
            .run(&mut w)
            .stats;
        assert!(
            stats.abort_count(AbortCause::Fault) > 0,
            "fresh allocation pages must fault inside transactions"
        );
    }
}
