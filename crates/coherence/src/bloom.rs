//! Bloom-filter signatures for the HTMLock overflow sets (`OfRdSig` and
//! `OfWrSig` in Fig. 5 of the paper), in the style of LogTM-SE.
//!
//! A signature never yields a false negative (a line that was added always
//! tests positive until the signature is cleared), so overflowed
//! lock-transaction state is always protected; false positives only cause
//! spurious rejects, which cost performance, never correctness — exactly
//! the trade-off the hardware design makes.

use sim_core::fxhash::hash_u64;
use sim_core::types::LineAddr;

/// A fixed-size Bloom filter over cache-line addresses.
#[derive(Clone, Debug, Hash)]
pub struct Signature {
    bits: Vec<u64>,
    nbits: usize,
    hashes: usize,
    inserted: u64,
}

impl Signature {
    /// `nbits` must be a power of two; `hashes` >= 1.
    pub fn new(nbits: usize, hashes: usize) -> Signature {
        assert!(
            nbits.is_power_of_two() && nbits >= 64,
            "signature bits must be a power of two >= 64"
        );
        assert!(hashes >= 1);
        Signature {
            bits: vec![0; nbits / 64],
            nbits,
            hashes,
            inserted: 0,
        }
    }

    fn positions(&self, line: LineAddr) -> impl Iterator<Item = usize> + '_ {
        let mask = self.nbits - 1;
        let h1 = hash_u64(line.0);
        let h2 = hash_u64(line.0.rotate_left(32) ^ 0x5bd1_e995) | 1;
        (0..self.hashes).map(move |i| (h1.wrapping_add(h2.wrapping_mul(i as u64)) as usize) & mask)
    }

    pub fn add(&mut self, line: LineAddr) {
        // Collect first: positions() borrows self immutably.
        let pos: Vec<usize> = self.positions(line).collect();
        for p in pos {
            self.bits[p / 64] |= 1u64 << (p % 64);
        }
        self.inserted += 1;
    }

    pub fn test(&self, line: LineAddr) -> bool {
        self.positions(line)
            .all(|p| self.bits[p / 64] & (1u64 << (p % 64)) != 0)
    }

    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.inserted = 0;
    }

    /// True if nothing has been inserted since the last clear. Lets the
    /// LLC skip signature checks entirely when no lock transaction has
    /// overflowed — the common case.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// Number of insertions since the last clear.
    pub fn population(&self) -> u64 {
        self.inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut s = Signature::new(1024, 3);
        let lines: Vec<LineAddr> = (0..200).map(|i| LineAddr(i * 37 + 5)).collect();
        for &l in &lines {
            s.add(l);
        }
        for &l in &lines {
            assert!(s.test(l), "false negative for {l:?}");
        }
    }

    #[test]
    fn empty_tests_negative() {
        let s = Signature::new(1024, 3);
        assert!(s.is_empty());
        for i in 0..100 {
            assert!(!s.test(LineAddr(i)));
        }
    }

    #[test]
    fn clear_resets() {
        let mut s = Signature::new(1024, 3);
        s.add(LineAddr(42));
        assert!(s.test(LineAddr(42)));
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert!(!s.test(LineAddr(42)));
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let mut s = Signature::new(1024, 3);
        for i in 0..64 {
            s.add(LineAddr(i));
        }
        // Test 10_000 lines not inserted; expect far fewer than 20% FPs
        // (theory: ~(1 - e^{-3*64/1024})^3 ≈ 0.5%).
        let fps = (1000..11_000).filter(|&i| s.test(LineAddr(i))).count();
        assert!(fps < 2000, "false positive rate too high: {fps}/10000");
    }

    #[test]
    fn saturated_signature_still_correct() {
        let mut s = Signature::new(64, 2);
        for i in 0..1000 {
            s.add(LineAddr(i));
        }
        // Fully saturated: everything positive (degenerate but safe).
        for i in 0..1000 {
            assert!(s.test(LineAddr(i)));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_sizes() {
        let _ = Signature::new(1000, 3);
    }
}
