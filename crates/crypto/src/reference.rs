//! Textbook scalar reference implementations, retained as the executable
//! specification for the optimized data plane.
//!
//! These are the pre-overhaul byte-at-a-time algorithms: per-byte S-box
//! rounds with bit-serial GF(2^8) multiplication, CTR re-expanding the key
//! schedule per invocation, SHA-256 with the straight-from-the-spec 64-word
//! schedule, and HMAC hashing both pad blocks per MAC; and
//! square-and-multiply modular exponentiation with a full `mul` + `rem` per
//! step, plus the Miller–Rabin test built on it. They are deliberately slow and obviously correct;
//! `tests/differential.rs` proves the optimized [`crate::aes`] /
//! [`crate::sha256`] / [`crate::hmac`] / [`crate::bignum`] paths
//! bit-identical to them on arbitrary inputs, and `vg-bench` times the
//! symmetric ones as the baseline of its `crypto_data_plane` rows
//! (BENCH_crypto.json). [`BigUint::modpow`] and
//! [`BigUint::is_probable_prime`] also fall back to [`modpow`] and
//! [`is_probable_prime`] for moduli their Montgomery contexts do not cover
//! (even, or wider than 8 limbs).

use crate::bignum::BigUint;

/// AES S-box (same table the optimized path derives its T-tables from).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

fn xtime(b: u8) -> u8 {
    (b << 1) ^ if b & 0x80 != 0 { 0x1b } else { 0 }
}

/// Bit-serial multiplication in GF(2^8) with the AES polynomial.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut w = [[0u8; 4]; 44];
    for i in 0..4 {
        w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
    }
    let mut rcon = 1u8;
    for i in 4..44 {
        let mut t = w[i - 1];
        if i % 4 == 0 {
            t.rotate_left(1);
            for b in &mut t {
                *b = SBOX[*b as usize];
            }
            t[0] ^= rcon;
            rcon = xtime(rcon);
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ t[j];
        }
    }
    let mut round_keys = [[0u8; 16]; 11];
    for r in 0..11 {
        for c in 0..4 {
            round_keys[r][4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
        }
    }
    round_keys
}

// State is column-major: s[4*c + r] is row r, column c (matches FIPS 197's
// byte ordering of the input block).
fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        s[i] ^= rk[i];
    }
}

fn sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn shift_rows(s: &mut [u8; 16]) {
    for r in 1..4 {
        let row = [s[r], s[4 + r], s[8 + r], s[12 + r]];
        for c in 0..4 {
            s[4 * c + r] = row[(c + r) % 4];
        }
    }
}

fn mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
        s[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
        s[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
        s[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
    }
}

/// Scalar AES-128 block encryption (expands the key schedule per call).
pub fn encrypt_block(key: &[u8; 16], block: [u8; 16]) -> [u8; 16] {
    let round_keys = expand_key(key);
    let mut s = block;
    add_round_key(&mut s, &round_keys[0]);
    for rk in &round_keys[1..10] {
        sub_bytes(&mut s);
        shift_rows(&mut s);
        mix_columns(&mut s);
        add_round_key(&mut s, rk);
    }
    sub_bytes(&mut s);
    shift_rows(&mut s);
    add_round_key(&mut s, &round_keys[10]);
    s
}

/// Scalar CTR: one key expansion per call, one block encryption per 16
/// bytes, counter from 0 — the pre-overhaul `ctr_xor`.
pub fn ctr_xor(key: &[u8; 16], nonce: u64, data: &mut [u8]) {
    for (counter, chunk) in data.chunks_mut(16).enumerate() {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&nonce.to_be_bytes());
        block[8..].copy_from_slice(&(counter as u64).to_be_bytes());
        let ks = encrypt_block(key, block);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

fn sha_compress(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Scalar one-shot SHA-256 (materializes the padded message, loop-rolled
/// 64-word schedule).
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());
    let mut state: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    for block in msg.chunks_exact(64) {
        sha_compress(&mut state, block);
    }
    let mut out = [0u8; 32];
    for (i, w) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// Scalar HMAC-SHA256: both pad blocks hashed per MAC (no midstate reuse).
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..32].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Vec::with_capacity(64 + data.len());
    let mut outer = Vec::with_capacity(64 + 32);
    for b in &k {
        inner.push(b ^ 0x36);
    }
    inner.extend_from_slice(data);
    for b in &k {
        outer.push(b ^ 0x5c);
    }
    outer.extend_from_slice(&sha256(&inner));
    sha256(&outer)
}

/// Scalar sealed-box seal: returns `(nonce, ciphertext, tag)` with the same
/// nonce derivation and MAC layout as [`crate::aes::SealedBox::seal`].
pub fn seal(
    enc_key: &[u8; 16],
    mac_key: &[u8; 32],
    context: u64,
    plaintext: &[u8],
) -> (u64, Vec<u8>, [u8; 32]) {
    let nonce = context ^ 0x5653_4143_4845_u64;
    let mut ct = plaintext.to_vec();
    ctr_xor(enc_key, nonce, &mut ct);
    let tag = seal_tag(mac_key, context, nonce, &ct);
    (nonce, ct, tag)
}

/// Scalar sealed-box open: verifies the tag, then decrypts.
pub fn open(
    enc_key: &[u8; 16],
    mac_key: &[u8; 32],
    context: u64,
    nonce: u64,
    ciphertext: &[u8],
    tag: &[u8; 32],
) -> Option<Vec<u8>> {
    if &seal_tag(mac_key, context, nonce, ciphertext) != tag {
        return None;
    }
    let mut pt = ciphertext.to_vec();
    ctr_xor(enc_key, nonce, &mut pt);
    Some(pt)
}

fn seal_tag(mac_key: &[u8; 32], context: u64, nonce: u64, ct: &[u8]) -> [u8; 32] {
    let mut msg = Vec::with_capacity(16 + ct.len());
    msg.extend_from_slice(&context.to_be_bytes());
    msg.extend_from_slice(&nonce.to_be_bytes());
    msg.extend_from_slice(ct);
    hmac_sha256(mac_key, &msg)
}

/// `base^exp mod m` by right-to-left square-and-multiply, one schoolbook
/// `mul` and one Knuth-D `rem` per step.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    assert!(!m.is_zero(), "modpow with zero modulus");
    if m.is_one() {
        return BigUint::zero();
    }
    let mut base = base.rem(m);
    let mut result = BigUint::one();
    for i in 0..exp.bit_len() {
        if exp.bit(i) {
            result = result.mul(&base).rem(m);
        }
        base = base.mul(&base).rem(m);
    }
    result
}

/// Miller–Rabin with `rounds` random bases drawn from `rng`, after trial
/// division by the primes below 40; every step is a [`modpow`] or a
/// `mul().rem()`. [`BigUint::is_probable_prime`] must return the same
/// verdict after the same number of draws.
pub fn is_probable_prime(n: &BigUint, rounds: u32, rng: &mut impl FnMut() -> u64) -> bool {
    const SMALL_PRIMES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    let limbs = n.limbs().len();
    if limbs == 1 {
        let v = n.limbs()[0];
        if v < 2 {
            return false;
        }
        if SMALL_PRIMES.contains(&v) {
            return true;
        }
    }
    if n.is_zero() || !n.is_odd() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let pb = BigUint::from(p);
        if n.rem(&pb).is_zero() {
            return n == &pb;
        }
    }
    // Write n-1 = d * 2^s with d odd.
    let n_minus_1 = n.sub(&BigUint::one());
    let s = (0..n_minus_1.bit_len())
        .take_while(|&i| !n_minus_1.bit(i))
        .count();
    let d = n_minus_1.shr(s);
    'witness: for _ in 0..rounds {
        // Random base in [2, n-2].
        let mut draws: Vec<u64> = (0..limbs).map(|_| rng()).collect();
        draws[limbs - 1] &= u64::MAX >> 1;
        let mut a = BigUint::from_limbs(draws);
        a = a.rem(&n_minus_1);
        if a < BigUint::from(2u64) {
            a = a.add(&BigUint::from(2u64));
        }
        let mut x = modpow(&a, &d, n);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = x.mul(&x).rem(n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}
