//! The spec front end of the analysis: a [`ProgSpec`] compiled to the
//! kernels `tmverify` executes and run through the one lattice,
//! [`VmAnalysis`].
//!
//! Everything is computed from three inputs — the [`SystemKind`] (which
//! concurrency-control policy runs the critical sections), the
//! [`ProgSpec`] (compiled by [`SpecProgram::compile_all`], the same
//! kernels `Explorer::kernels()` returns), and the [`SystemConfig`]
//! (cache geometry, from which capacity and bank placement follow). The
//! spec itself is kept so the spec-mode lints can report spec positions.
//!
//! # Physical layout
//!
//! Compiled kernels address the fixed `Runner` arena layout re-exported
//! by [`SpecProgram::LOCK_LINE`]/[`SpecProgram::data_line`]: the fallback
//! lock lives on `LineAddr(1)` and spec line `i` on `LineAddr(2 + i)`.

use crate::vmabs::{AbsLines, VmAnalysis};
use lockiller::StaticIndependence;
use lockiller::SystemKind;
use sim_core::config::SystemConfig;
use std::collections::BTreeSet;
use tmverify::progs::{ProgSpec, SpecProgram};

/// Whole-program static analysis over one `(system, spec, config)`.
pub struct Analysis {
    pub spec: ProgSpec,
    /// The lattice over the spec's compiled kernels, one per thread.
    pub vm: VmAnalysis,
}

impl Analysis {
    pub fn new(system: SystemKind, spec: ProgSpec, cfg: SystemConfig) -> Analysis {
        let vm = VmAnalysis::new(system, cfg, &SpecProgram::compile_all(&spec));
        Analysis { spec, vm }
    }

    /// The DPOR pruning table of the compiled kernels
    /// ([`VmAnalysis::independence`]).
    pub fn independence(&self) -> Option<StaticIndependence> {
        self.vm.independence()
    }

    /// The spec lines whose physical line ([`SpecProgram::data_line`])
    /// is in `set`.
    pub fn spec_lines(&self, set: &AbsLines) -> BTreeSet<u64> {
        (0..self.spec.lines)
            .filter(|&l| set.contains(SpecProgram::data_line(l)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::types::LineAddr;

    fn analyze(system: SystemKind, spec: &str) -> Analysis {
        let spec = ProgSpec::parse(spec).expect("test specs are valid");
        let cfg = tmverify::Explorer::new(system, spec.clone()).config();
        Analysis::new(system, spec, cfg)
    }

    fn analyze_tiny(system: SystemKind, spec: &str) -> Analysis {
        let spec = ProgSpec::parse(spec).expect("test specs are valid");
        let mut ex = tmverify::Explorer::new(system, spec.clone());
        ex.tiny_l1 = true;
        Analysis::new(system, spec, ex.config())
    }

    #[test]
    fn disjoint_htmlock_threads_are_pure_with_disjoint_banks() {
        let a = analyze(SystemKind::LockillerTm, "3/c:L0,S0/c:L1,S1/c:L2,S2");
        assert!(a.vm.threads.iter().all(|t| t.pure && !t.lock_read));
        let table = a.independence().expect("premises hold");
        assert_eq!(table.pure, 0b111);
        // Lines 0,1,2 -> LineAddr 2,3,4 -> banks 2,0,1 (3 banks).
        assert_eq!(table.bank_foot[0] & table.bank_foot[1], 0);
        assert_eq!(table.bank_foot[0] & table.bank_foot[2], 0);
        assert_eq!(table.bank_foot[1] & table.bank_foot[2], 0);
    }

    #[test]
    fn conflict_ring_has_no_pure_cores() {
        let a = analyze(SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0");
        assert!(a
            .vm
            .threads
            .iter()
            .all(|t| t.tx_abort && t.parks && !t.pure));
        // Subscribing system with reachable aborts: everyone can take
        // the fallback lock.
        assert!(a.vm.threads.iter().all(|t| t.lock_read && t.lock_write));
        let table = a.independence().expect("no overflow, no eviction");
        assert_eq!(table.pure, 0, "nothing to refine on the ring");
    }

    #[test]
    fn subscription_without_aborts_reads_lock_only() {
        // Disjoint threads on a subscribing (non-HTMLock) system: the
        // subscription load is reachable, the fallback write is not.
        let a = analyze(SystemKind::LockillerRwi, "2/c:L0,S0/c:L1,S1");
        assert!(a.vm.threads.iter().all(|t| t.lock_read && !t.lock_write));
        assert!(a.vm.threads.iter().all(|t| t.pure));
        let table = a.independence().expect("premises hold");
        // Both footprints contain the lock line's bank, so critical
        // threads can never be refined against each other.
        assert_ne!(table.bank_foot[0] & table.bank_foot[1], 0);
    }

    #[test]
    fn overflow_blocks_the_table_and_is_attributed() {
        let spec = "6/c:L0,L1,L2,S0/c:L3,L4,L5,S3";
        let a = analyze_tiny(SystemKind::LockillerTm, spec);
        assert!(a.vm.threads.iter().all(|t| t.overflow));
        assert!(a.independence().is_none(), "overflow voids the premises");
        // The same kernel under the full-size L1 does not overflow.
        let a = analyze(SystemKind::LockillerTm, spec);
        assert!(a.vm.threads.iter().all(|t| !t.overflow));
    }

    #[test]
    fn may_conflict_covers_lock_data_and_signatures() {
        let a = analyze(SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0");
        // Data: both write each other's read lines.
        assert!(a.vm.may_conflict(0, 1, SpecProgram::data_line(0)));
        assert!(a.vm.may_conflict(0, 1, SpecProgram::data_line(1)));
        // Lock: both can fall back.
        assert!(a.vm.may_conflict(0, 1, SpecProgram::LOCK_LINE));
        // Out-of-arena lines are never predicted.
        assert!(!a.vm.may_conflict(0, 1, LineAddr(0)));
        assert!(!a.vm.may_conflict(0, 1, LineAddr(99)));

        // Disjoint kernels predict no data conflicts...
        let d = analyze(SystemKind::LockillerTm, "2/c:L0,S0/c:L1,S1");
        assert!(!d.vm.may_conflict(0, 1, SpecProgram::data_line(0)));
        assert!(!d.vm.may_conflict(0, 1, SpecProgram::LOCK_LINE));

        // ...unless signatures can false-positive: an overflowing
        // switchingMode thread may conflict on any line the peer touches.
        let s = analyze_tiny(SystemKind::LockillerTm, "6/c:L0,L1,L2,S0/c:L3,L4,L5,S3");
        assert!(s.vm.may_conflict(0, 1, SpecProgram::data_line(4)));
        assert!(s.vm.may_conflict(1, 0, SpecProgram::data_line(0)));
    }

    #[test]
    fn cgl_critical_threads_are_impure_lock_writers() {
        let a = analyze(SystemKind::Cgl, "2/c:L0,S0/p:L1");
        let t = &a.vm.threads;
        assert!(t[0].has_critical && t[0].lock_write && !t[0].pure);
        assert!(!t[1].lock_read && t[1].pure);
        assert!(!t[0].overflow, "CGL never runs HTM");
    }

    #[test]
    fn llc_eviction_check_counts_sets() {
        // The testing LLC is far larger than any small kernel arena.
        let a = analyze(SystemKind::LockillerRwi, "8/c:L0,S7/c:L3,S4");
        assert_eq!(a.vm.llc_eviction_possible(), Some(false));
    }

    #[test]
    fn spec_lines_invert_the_arena_layout() {
        let a = analyze(SystemKind::LockillerTm, "8/c:L0,S7/p:L3,S4");
        let f = &a.vm.threads;
        assert_eq!(a.spec_lines(&f[0].abs.crit_reads), [0].into());
        assert_eq!(a.spec_lines(&f[0].abs.crit_writes), [7].into());
        assert_eq!(a.spec_lines(&f[1].abs.touched()), [3, 4].into());
        assert_eq!(a.spec_lines(&AbsLines::Top).len(), 8);
    }
}
