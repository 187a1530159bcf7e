//! The drift correction for host time.
//!
//! The shared machines this benchmark runs on change speed by up to ±10%
//! over seconds to minutes: other tenants load the caches and memory, not
//! our CPU. The run-queue wait stays near 0, so the change is in how fast
//! the code runs, not in how long it waits. A fixed host kernel timed
//! right before and after every unit slows and speeds up with it. The
//! ratio of unit time to the kernel's time held within ±0.5% over a
//! minute in which raw unit times moved ±5%.
//!
//! The kernel is this file's own code. Nothing in the repository's crates
//! runs inside it, so a change to the simulator moves unit times and not
//! the kernel.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference machine, a 2-core Intel Xeon KVM
/// guest. Host seconds are reported at the reference machine's speed:
/// unit time / kernel time x this constant.
pub const REFERENCE_S: f64 = 0.006;

/// Host seconds one run of the kernel takes now.
fn seconds() -> f64 {
    let start = Instant::now();
    kernel();
    start.elapsed().as_secs_f64()
}

/// Calibration runs interleaved with timed steps.
pub struct Drift {
    before: f64,
}

impl Drift {
    /// Times the kernel once, ahead of the first step.
    pub fn start() -> Drift {
        Drift { before: seconds() }
    }

    /// Call after every step: times the kernel again and returns the
    /// factor that converts the step's host seconds to reference seconds,
    /// from the mean of the kernel runs on either side of the step.
    pub fn factor(&mut self) -> f64 {
        let after = seconds();
        let k = REFERENCE_S / ((self.before + after) / 2.0);
        self.before = after;
        k
    }
}

/// A mix shaped like the simulator's host work: bulk copies, hash and
/// ordered-map traffic, and data-dependent branches.
fn kernel() {
    let mut src = vec![1u8; 1 << 20];
    let mut dst = vec![0u8; 1 << 20];
    for i in 0..8 {
        dst.copy_from_slice(black_box(&src));
        src[i] ^= dst[i + 1];
    }
    let mut x: u64 = 1;
    let mut step = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x
    };
    let mut map = HashMap::new();
    for i in 0..20_000u64 {
        map.insert(step() >> 40, i);
    }
    let mut acc = 0u64;
    for i in 0..200_000u64 {
        let k = step();
        if let Some(v) = map.get(&(k >> 40)) {
            acc = acc.wrapping_add(*v);
        }
        if k & 1 == 0 {
            acc ^= i;
        }
    }
    let mut tree = BTreeMap::new();
    for i in 0..20_000u64 {
        tree.insert(i.wrapping_mul(2_654_435_761) % 100_003, i);
    }
    black_box((acc, tree.len(), dst[7]));
}
