//! Deterministic ChaCha20-based random number generation.
//!
//! The paper (§4.7) gives the Virtual Ghost VM a trusted random-number
//! instruction so applications need not trust `/dev/random` served by a
//! hostile OS (an Iago attack vector). In the simulation the "hardware
//! entropy source" is a seed supplied at machine construction; everything
//! downstream is the real ChaCha20 block function (RFC 8439), so statistical
//! behaviour is realistic while runs stay reproducible.

/// ChaCha20 quarter round.
#[inline]
fn quarter(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Runs the ChaCha20 block function over `key`, `counter`, `nonce`.
pub fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[4 * i],
            nonce[4 * i + 1],
            nonce[4 * i + 2],
            nonce[4 * i + 3],
        ]);
    }
    let initial = state;
    for _ in 0..10 {
        quarter(&mut state, 0, 4, 8, 12);
        quarter(&mut state, 1, 5, 9, 13);
        quarter(&mut state, 2, 6, 10, 14);
        quarter(&mut state, 3, 7, 11, 15);
        quarter(&mut state, 0, 5, 10, 15);
        quarter(&mut state, 1, 6, 11, 12);
        quarter(&mut state, 2, 7, 8, 13);
        quarter(&mut state, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let w = state[i].wrapping_add(initial[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// A deterministic random generator backed by the ChaCha20 block function.
///
/// # Examples
///
/// ```
/// use vg_crypto::rng::ChaChaRng;
///
/// let mut a = ChaChaRng::from_seed(7);
/// let mut b = ChaChaRng::from_seed(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct ChaChaRng {
    key: [u8; 32],
    /// 64-bit block counter: the low word is ChaCha20's counter and the
    /// high word carries into the first nonce word (RFC 8439's 64-bit
    /// counter variant), so the keystream does not repeat within 2⁶⁴
    /// blocks.
    counter: u64,
    buf: [u8; 64],
    pos: usize,
}

impl ChaChaRng {
    /// Creates a generator from a 64-bit seed (expanded into the key).
    pub fn from_seed(seed: u64) -> Self {
        let mut key = [0u8; 32];
        for (i, chunk) in key.chunks_mut(8).enumerate() {
            chunk.copy_from_slice(
                &(seed.wrapping_add(i as u64).wrapping_mul(0x9e3779b97f4a7c15)).to_le_bytes(),
            );
        }
        ChaChaRng {
            key,
            counter: 0,
            buf: [0; 64],
            pos: 64,
        }
    }

    /// A generator about to produce block `counter` of `seed`'s keystream.
    #[cfg(test)]
    fn at_block(seed: u64, counter: u64) -> Self {
        ChaChaRng {
            counter,
            ..ChaChaRng::from_seed(seed)
        }
    }

    fn refill(&mut self) {
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&((self.counter >> 32) as u32).to_le_bytes());
        self.buf = chacha20_block(&self.key, self.counter as u32, &nonce);
        self.counter += 1;
        self.pos = 0;
    }

    /// Next random byte.
    pub fn next_u8(&mut self) -> u8 {
        if self.pos >= 64 {
            self.refill();
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        b
    }

    /// Next random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut bytes = [0u8; 8];
        self.fill(&mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// Uniform value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Fills `out` with random bytes.
    pub fn fill(&mut self, mut out: &mut [u8]) {
        while !out.is_empty() {
            if self.pos >= 64 {
                self.refill();
            }
            let n = out.len().min(64 - self.pos);
            let (head, rest) = out.split_at_mut(n);
            head.copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            out = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 8439 §2.3.2 test vector.
    #[test]
    fn rfc8439_block_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha20_block(&key, 1, &nonce);
        assert_eq!(
            &block[..16],
            &[
                0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
                0x71, 0xc4
            ]
        );
        assert_eq!(
            &block[48..],
            &[
                0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50,
                0x3c, 0x4e
            ]
        );
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = ChaChaRng::from_seed(1);
        let mut b = ChaChaRng::from_seed(1);
        let mut c = ChaChaRng::from_seed(2);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn next_below_in_range() {
        let mut rng = ChaChaRng::from_seed(3);
        for bound in [1u64, 2, 7, 1000] {
            for _ in 0..100 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn fill_spans_block_boundary() {
        let mut rng = ChaChaRng::from_seed(4);
        let mut buf = [0u8; 130];
        rng.fill(&mut buf);
        // Not all zeros, and not all the same byte.
        assert!(buf.iter().any(|&b| b != buf[0]));
    }

    #[test]
    fn fill_matches_byte_at_a_time_output() {
        let mut bulk = ChaChaRng::from_seed(6);
        let mut bytewise = ChaChaRng::from_seed(6);
        for len in [0usize, 1, 7, 8, 63, 64, 65, 130, 3] {
            let mut buf = vec![0u8; len];
            bulk.fill(&mut buf);
            let expect: Vec<u8> = (0..len).map(|_| bytewise.next_u8()).collect();
            assert_eq!(buf, expect, "len {len}");
        }
        assert_eq!(bulk.next_u64(), bytewise.next_u64());
    }

    #[test]
    fn keystream_does_not_repeat_after_2_pow_32_blocks() {
        let mut rng = ChaChaRng::at_block(9, u32::MAX as u64);
        let mut last = [0u8; 64];
        rng.fill(&mut last);
        let mut next = [0u8; 64];
        rng.fill(&mut next);
        // Block 2³² is counter 0 with the carry in the first nonce word,
        // not a repeat of block 0.
        let key = ChaChaRng::from_seed(9).key;
        assert_eq!(last, chacha20_block(&key, u32::MAX, &[0u8; 12]));
        assert_eq!(
            next,
            chacha20_block(&key, 0, &[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        );
        let mut first = [0u8; 64];
        ChaChaRng::from_seed(9).fill(&mut first);
        assert_ne!(next, first);
    }

    #[test]
    fn bytes_distribution_sanity() {
        let mut rng = ChaChaRng::from_seed(5);
        let mut counts = [0u32; 256];
        for _ in 0..25600 {
            counts[rng.next_u8() as usize] += 1;
        }
        // Expect each byte value roughly 100 times; allow generous slack.
        assert!(counts.iter().all(|&c| c > 40 && c < 200), "{counts:?}");
    }
}
