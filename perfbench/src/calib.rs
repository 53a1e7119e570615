//! Host-speed calibration.
//!
//! The host this benchmark was tuned on shares its cores: identical
//! simulations ran 85 ms in some 10-second stretches and 145 ms in
//! others, and every simulation — Full, Small or Tiny scale — slowed
//! together. Run-to-run spreads of raw wall time reached 25%. A short
//! fixed kernel shaped like the engine's hot loop (a binary-heap event
//! queue, a hash-map directory of small vectors, dynamic dispatch) slows
//! with it, and shares no code with the simulator, so a change to the
//! simulator moves the simulator's time and not the kernel's. The
//! end-to-end timings are therefore reported in reference seconds: the
//! wall time multiplied by [`REFERENCE_S`] over the kernel time measured
//! on either side of it. Raw wall times are printed beside them.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// The kernel's median time on the reference host (an Intel Xeon at
/// 2.1 GHz, two virtual CPUs, process pinned to one).
pub const REFERENCE_S: f64 = 0.0135;

trait Handler {
    fn handle(&mut self, key: u64, dir: &mut HashMap<u64, Vec<u64>>) -> u64;
}

struct Insert(u64);
struct Probe(u64);

impl Handler for Insert {
    fn handle(&mut self, key: u64, dir: &mut HashMap<u64, Vec<u64>>) -> u64 {
        let sharers = dir.entry(key & 0xffff).or_default();
        sharers.push(key);
        if sharers.len() > 4 {
            sharers.remove(0);
        }
        self.0 = self.0.wrapping_add(sharers[0]);
        self.0
    }
}

impl Handler for Probe {
    fn handle(&mut self, key: u64, dir: &mut HashMap<u64, Vec<u64>>) -> u64 {
        self.0 ^= dir.get(&(key & 0xffff)).map_or(key, |v| v.iter().sum());
        self.0
    }
}

/// Run the kernel once; its wall time in seconds.
pub fn sample() -> f64 {
    let t = Instant::now();
    let mut queue = BinaryHeap::new();
    let mut dir: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut handlers: Vec<Box<dyn Handler>> = vec![Box::new(Insert(1)), Box::new(Probe(2))];
    for i in 0..64u64 {
        queue.push(Reverse((i, i)));
    }
    let mut x: u64 = 12345;
    let mut acc = 0u64;
    for _ in 0..100_000 {
        let Reverse((time, key)) = queue.pop().expect("the queue never drains");
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        acc = acc.wrapping_add(handlers[(x >> 63) as usize].handle(key ^ (x >> 20), &mut dir));
        queue.push(Reverse((time + 1 + (x >> 58), x >> 11)));
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The factor that turns a wall time measured between calibration
/// samples `before` and `after` into reference seconds.
pub fn factor(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_S / (before + after)
}
