//! One deterministic hasher for integer keys.
//!
//! Frame numbers, vpns, flow ids, pids and block numbers are chosen by the
//! simulator, not by an adversary, so std's keyed SipHash buys no
//! protection here and costs a full SipHash round per lookup on the hottest
//! paths (TLB index, NIC queues, SVA frame metadata and interrupt contexts,
//! the kernel's process and pipe tables, the buffer cache). [`IntHasher`]
//! is a multiply-and-rotate hash in the style of rustc's `FxHasher`: one
//! multiply per integer written, and the rotate moves the well-mixed high
//! product bits into the low bits a `HashMap` indexes buckets with. It has
//! no per-process seed; nothing may depend on iteration order anyway.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-and-rotate hasher for integer keys (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.write_u64(u64::from(n as u32));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by integers, hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` of integers, hashed with [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;
