//! AES-128 (FIPS 197) with CTR mode and an encrypt-then-MAC sealed box.
//!
//! The Virtual Ghost VM uses [`SealedBox`] when the OS asks to swap out a
//! ghost page: the page is encrypted under the VM's AES key and authenticated
//! (together with its virtual page number, to prevent the OS substituting one
//! swapped page for another) under the VM's MAC key. Applications use
//! [`Aes128`]/[`Aes128Ctr`]/[`ctr_xor`] directly for their own file
//! encryption, mirroring the paper's point that applications choose their own
//! algorithms.
//!
//! ## Data-plane layout
//!
//! CTR keystream comes from one private function, `xor_keystream`, which
//! both [`Aes128::ctr_xor`] and [`Aes128Ctr::xor`] call. It picks one of two
//! paths, fixed once per key by [`Aes128::new`]:
//!
//! * **Hardware.** On x86-64 CPUs that report the AES instructions
//!   (`is_x86_feature_detected!("aes")`), AESENC/AESENCLAST encrypt eight
//!   counter blocks per iteration. This is the only `unsafe` code in the
//!   crate, confined to the private `aesni` module.
//! * **Portable.** Everywhere else, the word-sliced (T-table) round
//!   function encrypts one counter block at a time.
//!
//! The T-table round function also serves [`Aes128::encrypt_block`] on
//! every CPU: four const 256-entry `u32` tables fold SubBytes, ShiftRows,
//! and MixColumns into one lookup + xor per state byte. The tables are
//! built by `const fn` at compile time from the S-box. Nothing decrypts a
//! block: CTR mode runs the cipher forward in both directions. Outputs of
//! both paths stay bit-identical to the textbook scalar implementation
//! retained in [`crate::reference`] (proven by differential proptests in
//! `tests/differential.rs`; unit tests below compare the hardware keystream
//! with the T-table one directly).

use crate::hmac::{HmacKey, HmacSha256};

/// AES S-box.
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

const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Multiplication in GF(2^8) with the AES polynomial (compile-time capable).
const fn gmul(a: u8, b: u8) -> u8 {
    let mut a = a;
    let mut b = b;
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// `TE0[x]` is the MixColumns image of `SubBytes(x)` placed in byte 0 of a
/// column: the (2,1,1,3) column of the MixColumns matrix scaled by `S[x]`.
/// `TE1..TE3` are byte rotations for the other three positions, which also
/// absorbs ShiftRows into the table index selection.
const fn build_te0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        t[i] = u32::from_be_bytes([gmul(s, 2), s, s, gmul(s, 3)]);
        i += 1;
    }
    t
}

const fn rotr_table(src: &[u32; 256], r: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = src[i].rotate_right(r);
        i += 1;
    }
    t
}

const TE0: [u32; 256] = build_te0();
const TE1: [u32; 256] = rotr_table(&TE0, 8);
const TE2: [u32; 256] = rotr_table(&TE0, 16);
const TE3: [u32; 256] = rotr_table(&TE0, 24);

/// An expanded AES-128 key schedule, computed once at construction. On a
/// CPU with AES instructions it also holds the round keys in the byte order
/// those instructions take, and CTR keystream runs on them.
///
/// `Debug` prints no key material.
///
/// # Examples
///
/// ```
/// use vg_crypto::aes::Aes128;
///
/// // FIPS 197 Appendix C.1.
/// let aes = Aes128::new(&core::array::from_fn(|i| i as u8));
/// let ct = aes.encrypt_block(core::array::from_fn(|i| (i * 0x11) as u8));
/// assert_eq!(
///     ct,
///     [
///         0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
///         0xc5, 0x5a,
///     ]
/// );
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// Encryption round keys, as big-endian column words: `ek[4r + c]` is
    /// column `c` of round `r`.
    ek: [u32; 44],
    /// FIPS byte-order round keys for the hardware keystream; `Some` exactly
    /// when the CPU reports the AES instructions.
    hw: Option<aesni::HwKeys>,
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expands a 16-byte key into the round-key schedule, and into the
    /// hardware schedule if the CPU has AES instructions.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut ek = [0u32; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            ek[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let mut rcon: u32 = 0x0100_0000;
        for i in 4..44 {
            let mut t = ek[i - 1];
            if i % 4 == 0 {
                t = sub_word(t.rotate_left(8)) ^ rcon;
                rcon = u32::from_be_bytes([xtime(rcon.to_be_bytes()[0]), 0, 0, 0]);
            }
            ek[i] = ek[i - 4] ^ t;
        }
        let hw = aesni::HwKeys::new(&ek);
        Aes128 { ek, hw }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let k = &self.ek;
        let mut s0 = load_be(&block, 0) ^ k[0];
        let mut s1 = load_be(&block, 4) ^ k[1];
        let mut s2 = load_be(&block, 8) ^ k[2];
        let mut s3 = load_be(&block, 12) ^ k[3];
        for r in 1..10 {
            let t0 = te(s0, s1, s2, s3) ^ k[4 * r];
            let t1 = te(s1, s2, s3, s0) ^ k[4 * r + 1];
            let t2 = te(s2, s3, s0, s1) ^ k[4 * r + 2];
            let t3 = te(s3, s0, s1, s2) ^ k[4 * r + 3];
            (s0, s1, s2, s3) = (t0, t1, t2, t3);
        }
        let mut out = [0u8; 16];
        store_be(&mut out, 0, final_enc(s0, s1, s2, s3) ^ k[40]);
        store_be(&mut out, 4, final_enc(s1, s2, s3, s0) ^ k[41]);
        store_be(&mut out, 8, final_enc(s2, s3, s0, s1) ^ k[42]);
        store_be(&mut out, 12, final_enc(s3, s0, s1, s2) ^ k[43]);
        out
    }

    /// XORs `data` in place with the CTR keystream for `nonce`, counter
    /// starting at 0 — one pass over an already-expanded schedule.
    ///
    /// Equivalent to the free function [`ctr_xor`] minus the per-call key
    /// expansion; loop-heavy callers (page sealing, SSH chunk transfer)
    /// should hoist the [`Aes128`] and call this.
    pub fn ctr_xor(&self, nonce: u64, data: &mut [u8]) {
        self.xor_keystream(nonce, 0, data);
    }

    /// XORs `data` with the keystream blocks `E(nonce ‖ counter)`,
    /// `E(nonce ‖ counter + 1)`, … and returns the counter of the first
    /// block not used (a trailing partial block uses up its counter). The
    /// counter wraps at 2^64 without carrying into the nonce. This is the
    /// one place that picks the hardware or the portable keystream.
    fn xor_keystream(&self, nonce: u64, counter: u64, data: &mut [u8]) -> u64 {
        match &self.hw {
            Some(hw) => hw.xor_keystream(nonce, counter, data),
            None => self.xor_keystream_portable(nonce, counter, data),
        }
    }

    /// The T-table keystream, one block at a time: the path for CPUs without
    /// AES instructions, and the oracle the hardware path is tested against.
    fn xor_keystream_portable(&self, nonce: u64, mut counter: u64, data: &mut [u8]) -> u64 {
        for chunk in data.chunks_mut(16) {
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&nonce.to_be_bytes());
            block[8..].copy_from_slice(&counter.to_be_bytes());
            for (b, k) in chunk.iter_mut().zip(self.encrypt_block(block)) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
        counter
    }
}

/// The AES-NI keystream: the only `unsafe` code in this crate. A
/// [`HwKeys`](aesni::HwKeys) can only be built on a CPU that reports the
/// AES instructions, so holding one is what makes the safe
/// `xor_keystream` sound.
#[cfg(target_arch = "x86_64")]
mod aesni {
    use core::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_set_epi64x,
        _mm_setzero_si128, _mm_storeu_si128, _mm_xor_si128,
    };

    /// Counter blocks encrypted per iteration. One AESENC takes several
    /// cycles to finish but the unit accepts one or two per cycle, so eight
    /// independent blocks keep it busy.
    const LANES: usize = 8;

    /// AES-128 round keys in FIPS byte order, one 16-byte array per round.
    #[derive(Clone)]
    pub(super) struct HwKeys([[u8; 16]; 11]);

    impl HwKeys {
        /// Converts an expanded key's big-endian column words, or returns
        /// `None` if the CPU has no AES instructions.
        pub(super) fn new(ek: &[u32; 44]) -> Option<Self> {
            if !std::is_x86_feature_detected!("aes") {
                return None;
            }
            let mut rk = [[0u8; 16]; 11];
            for (round, words) in rk.iter_mut().zip(ek.chunks_exact(4)) {
                for (bytes, w) in round.chunks_exact_mut(4).zip(words) {
                    bytes.copy_from_slice(&w.to_be_bytes());
                }
            }
            Some(HwKeys(rk))
        }

        /// Same contract as `Aes128::xor_keystream`.
        pub(super) fn xor_keystream(&self, nonce: u64, counter: u64, data: &mut [u8]) -> u64 {
            // SAFETY: `new` returns a `HwKeys` only after the CPU reported
            // the AES instructions, the one requirement of `xor_keystream`.
            unsafe { xor_keystream(&self.0, nonce, counter, data) }
        }
    }

    /// # Safety
    ///
    /// The CPU must support the AES instructions.
    #[target_feature(enable = "aes")]
    unsafe fn xor_keystream(
        rk: &[[u8; 16]; 11],
        nonce: u64,
        mut counter: u64,
        data: &mut [u8],
    ) -> u64 {
        // SAFETY (every load and store below): each pointer comes from a
        // 16-byte array or a 16-byte `chunks_exact_mut` slice, and the
        // unaligned `loadu`/`storeu` forms have no alignment requirement.
        let mut keys = [_mm_setzero_si128(); 11];
        for (k, bytes) in keys.iter_mut().zip(rk) {
            *k = _mm_loadu_si128(bytes.as_ptr().cast());
        }
        let mut ks = [0u8; 16 * LANES];
        for chunk in data.chunks_mut(16 * LANES) {
            let mut blocks: [__m128i; LANES] = [_mm_setzero_si128(); LANES];
            for (i, b) in blocks.iter_mut().enumerate() {
                // The block is `nonce ‖ counter`, both big-endian; lane 0
                // holds bytes 0..8 little-endian, hence the byte swaps.
                let c = counter.wrapping_add(i as u64).swap_bytes() as i64;
                *b = _mm_xor_si128(_mm_set_epi64x(c, nonce.swap_bytes() as i64), keys[0]);
            }
            for k in &keys[1..10] {
                for b in &mut blocks {
                    *b = _mm_aesenc_si128(*b, *k);
                }
            }
            for (b, out) in blocks.iter().zip(ks.chunks_exact_mut(16)) {
                _mm_storeu_si128(out.as_mut_ptr().cast(), _mm_aesenclast_si128(*b, keys[10]));
            }
            for (d, k) in chunk.iter_mut().zip(&ks) {
                *d ^= k;
            }
            counter = counter.wrapping_add(chunk.len().div_ceil(16) as u64);
        }
        counter
    }
}

/// Other architectures have no hardware keystream: `HwKeys` is uninhabited,
/// so `Aes128::hw` is always `None`.
#[cfg(not(target_arch = "x86_64"))]
mod aesni {
    #[derive(Clone)]
    pub(super) enum HwKeys {}

    impl HwKeys {
        pub(super) fn new(_ek: &[u32; 44]) -> Option<Self> {
            None
        }

        pub(super) fn xor_keystream(&self, _nonce: u64, _counter: u64, _data: &mut [u8]) -> u64 {
            match *self {}
        }
    }
}

#[inline(always)]
fn load_be(b: &[u8; 16], i: usize) -> u32 {
    u32::from_be_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]])
}

#[inline(always)]
fn store_be(b: &mut [u8; 16], i: usize, w: u32) {
    b[i..i + 4].copy_from_slice(&w.to_be_bytes());
}

#[inline(always)]
fn sub_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[a as usize],
        SBOX[b as usize],
        SBOX[c as usize],
        SBOX[d as usize],
    ])
}

/// One encryption-round column: ShiftRows selects which state word feeds
/// each byte position, the tables do SubBytes + MixColumns.
#[inline(always)]
fn te(a: u32, b: u32, c: u32, d: u32) -> u32 {
    TE0[(a >> 24) as usize]
        ^ TE1[((b >> 16) & 0xff) as usize]
        ^ TE2[((c >> 8) & 0xff) as usize]
        ^ TE3[(d & 0xff) as usize]
}

/// Final encryption round: SubBytes + ShiftRows only (no MixColumns).
#[inline(always)]
fn final_enc(a: u32, b: u32, c: u32, d: u32) -> u32 {
    u32::from_be_bytes([
        SBOX[(a >> 24) as usize],
        SBOX[((b >> 16) & 0xff) as usize],
        SBOX[((c >> 8) & 0xff) as usize],
        SBOX[(d & 0xff) as usize],
    ])
}

/// A streaming AES-CTR keystream: expands the key schedule once and keeps
/// the (counter, intra-block offset) position across calls, so xoring a
/// message in arbitrary chunks produces exactly the same bytes as one
/// [`ctr_xor`] pass over the concatenation.
///
/// # Examples
///
/// ```
/// use vg_crypto::aes::{ctr_xor, Aes128, Aes128Ctr};
///
/// let aes = Aes128::new(&[7u8; 16]);
/// let mut streamed = *b"split across three calls";
/// let mut ctr = Aes128Ctr::new(&aes, 99);
/// ctr.xor(&mut streamed[..5]);
/// ctr.xor(&mut streamed[5..6]);
/// ctr.xor(&mut streamed[6..]);
///
/// let mut oneshot = *b"split across three calls";
/// ctr_xor(&[7u8; 16], 99, &mut oneshot);
/// assert_eq!(streamed, oneshot);
/// ```
///
/// `Debug` prints no key material.
#[derive(Clone)]
pub struct Aes128Ctr {
    aes: Aes128,
    nonce: u64,
    counter: u64,
    ks: [u8; 16],
    ks_off: usize,
}

impl std::fmt::Debug for Aes128Ctr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes128Ctr").finish_non_exhaustive()
    }
}

impl Aes128Ctr {
    /// Starts a keystream for `nonce` with the block counter at 0 (the
    /// [`ctr_xor`] convention).
    pub fn new(aes: &Aes128, nonce: u64) -> Self {
        Self::with_counter(aes, nonce, 0)
    }

    /// Starts a keystream with an explicit initial block counter. The
    /// counter occupies the low 64 bits of the counter block (the high half
    /// is `nonce`), so this can express standard test vectors such as SP
    /// 800-38A's `f0f1…feff` initial counter block. The counter wraps at
    /// 2^64 rather than carrying into the nonce.
    pub fn with_counter(aes: &Aes128, nonce: u64, counter: u64) -> Self {
        Aes128Ctr {
            aes: aes.clone(),
            nonce,
            counter,
            ks: [0u8; 16],
            ks_off: 16,
        }
    }

    /// XORs the next `data.len()` keystream bytes into `data`, advancing the
    /// stream position.
    pub fn xor(&mut self, data: &mut [u8]) {
        // Drain keystream left over from a previous partial block.
        let take = data.len().min(16 - self.ks_off);
        let (head, data) = data.split_at_mut(take);
        for (b, k) in head.iter_mut().zip(&self.ks[self.ks_off..]) {
            *b ^= k;
        }
        self.ks_off += take;
        let (whole, tail) = data.split_at_mut(data.len() & !15);
        self.counter = self.aes.xor_keystream(self.nonce, self.counter, whole);
        if !tail.is_empty() {
            // Keep the rest of the tail's keystream block for the next call.
            self.ks = [0; 16];
            self.counter = self
                .aes
                .xor_keystream(self.nonce, self.counter, &mut self.ks);
            for (b, k) in tail.iter_mut().zip(&self.ks) {
                *b ^= k;
            }
            self.ks_off = tail.len();
        }
    }
}

/// XORs `data` in place with the AES-CTR keystream for (`key`, `nonce`).
///
/// CTR mode is an involution, so the same call encrypts and decrypts. The
/// 8-byte nonce occupies the top half of the counter block; the block counter
/// occupies the bottom half.
///
/// This is a compatibility wrapper that expands the key schedule on every
/// call. Callers in loops should build an [`Aes128`] once and use
/// [`Aes128::ctr_xor`] or [`Aes128Ctr`].
pub fn ctr_xor(key: &[u8; 16], nonce: u64, data: &mut [u8]) {
    Aes128::new(key).ctr_xor(nonce, data);
}

/// An encrypted and authenticated blob: AES-CTR then HMAC-SHA256 over
/// (context ‖ nonce ‖ ciphertext).
///
/// `context` binds the box to its use site — for ghost page swapping the VM
/// passes the virtual page number, so the OS cannot replay a page swapped
/// from one address into another (paper §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBox {
    nonce: u64,
    ciphertext: Vec<u8>,
    tag: [u8; 32],
}

/// Error returned by [`SealedBox::open`] when authentication fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSealedBoxError;

impl std::fmt::Display for OpenSealedBoxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sealed box authentication failed")
    }
}

impl std::error::Error for OpenSealedBoxError {}

impl SealedBox {
    /// Seals `plaintext` under the given keys, bound to `context`.
    ///
    /// The nonce is derived from the context; callers that seal the same
    /// context twice with different contents (e.g. re-swapping a dirty page)
    /// still get integrity because the MAC covers the fresh ciphertext.
    ///
    /// Convenience form that expands both keys per call; hot paths hold an
    /// [`Aes128`] + [`HmacKey`] and use [`SealedBox::seal_with`].
    pub fn seal(enc_key: &[u8; 16], mac_key: &[u8; 32], context: u64, plaintext: &[u8]) -> Self {
        Self::seal_with(
            &Aes128::new(enc_key),
            &HmacKey::new(mac_key),
            context,
            plaintext,
        )
    }

    /// Seals `plaintext` using pre-expanded cipher and MAC key material:
    /// one keystream pass, one MAC pass, no per-call key setup.
    pub fn seal_with(cipher: &Aes128, mac_key: &HmacKey, context: u64, plaintext: &[u8]) -> Self {
        let mut stream = Self::sealer(cipher, mac_key, context);
        stream.write(plaintext);
        stream.finish()
    }

    /// Starts a streaming seal bound to `context`: feed plaintext in chunks
    /// with [`SealStream::write`], then [`SealStream::finish`]. Produces a
    /// box byte-identical to [`SealedBox::seal_with`] over the concatenated
    /// chunks, without ever materializing the full plaintext.
    pub fn sealer(cipher: &Aes128, mac_key: &HmacKey, context: u64) -> SealStream {
        let nonce = context ^ 0x5653_4143_4845_u64; // context-derived, deterministic
        let mut mac = mac_key.hasher();
        mac.update(&context.to_be_bytes());
        mac.update(&nonce.to_be_bytes());
        SealStream {
            ctr: Aes128Ctr::new(cipher, nonce),
            mac,
            nonce,
            ciphertext: Vec::new(),
        }
    }

    /// Opens the box, verifying the MAC and the binding `context`.
    ///
    /// # Errors
    ///
    /// Returns [`OpenSealedBoxError`] if the ciphertext, tag, or context have
    /// been tampered with — this is how Virtual Ghost detects the OS
    /// corrupting a swapped ghost page.
    pub fn open(
        &self,
        enc_key: &[u8; 16],
        mac_key: &[u8; 32],
        context: u64,
    ) -> Result<Vec<u8>, OpenSealedBoxError> {
        self.open_with(&Aes128::new(enc_key), &HmacKey::new(mac_key), context)
    }

    /// Opens the box using pre-expanded key material: one MAC pass to verify
    /// (before any plaintext is produced), then one keystream pass.
    ///
    /// # Errors
    ///
    /// Returns [`OpenSealedBoxError`] on any tampering, exactly like
    /// [`SealedBox::open`].
    pub fn open_with(
        &self,
        cipher: &Aes128,
        mac_key: &HmacKey,
        context: u64,
    ) -> Result<Vec<u8>, OpenSealedBoxError> {
        let expect = Self::tag_with(mac_key, context, self.nonce, &self.ciphertext);
        let mut diff = 0u8;
        for (a, b) in expect.iter().zip(&self.tag) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(OpenSealedBoxError);
        }
        let mut pt = self.ciphertext.clone();
        cipher.ctr_xor(self.nonce, &mut pt);
        Ok(pt)
    }

    /// Ciphertext length in bytes.
    pub fn len(&self) -> usize {
        self.ciphertext.len()
    }

    /// Whether the sealed payload is empty.
    pub fn is_empty(&self) -> bool {
        self.ciphertext.is_empty()
    }

    /// The context-derived nonce.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// The raw ciphertext.
    pub fn ciphertext(&self) -> &[u8] {
        &self.ciphertext
    }

    /// The 32-byte authentication tag.
    pub fn tag(&self) -> &[u8; 32] {
        &self.tag
    }

    /// Mutable access to the raw ciphertext — used by attack simulations that
    /// model the OS flipping bits in swapped-out pages.
    pub fn ciphertext_mut(&mut self) -> &mut Vec<u8> {
        &mut self.ciphertext
    }

    fn tag_with(mac_key: &HmacKey, context: u64, nonce: u64, ct: &[u8]) -> [u8; 32] {
        let mut mac = mac_key.hasher();
        mac.update(&context.to_be_bytes());
        mac.update(&nonce.to_be_bytes());
        mac.update(ct);
        mac.finalize()
    }
}

/// In-progress streaming seal created by [`SealedBox::sealer`]: the CTR
/// keystream and the MAC run incrementally as chunks arrive, so sealing is
/// single-pass no matter how the plaintext is delivered.
#[derive(Debug)]
pub struct SealStream {
    ctr: Aes128Ctr,
    mac: HmacSha256,
    nonce: u64,
    ciphertext: Vec<u8>,
}

impl SealStream {
    /// Encrypts and MACs the next plaintext chunk.
    pub fn write(&mut self, chunk: &[u8]) {
        let start = self.ciphertext.len();
        self.ciphertext.extend_from_slice(chunk);
        let ct = &mut self.ciphertext[start..];
        self.ctr.xor(ct);
        self.mac.update(ct);
    }

    /// Finishes the MAC and returns the sealed box.
    pub fn finish(self) -> SealedBox {
        SealedBox {
            nonce: self.nonce,
            ciphertext: self.ciphertext,
            tag: self.mac.finalize(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 197 Appendix B vector.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(pt), expect);
    }

    // FIPS 197 Appendix C.1 vector.
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(pt), expect);
    }

    #[test]
    fn ctr_roundtrip_odd_length() {
        let key = [0xabu8; 16];
        let mut data: Vec<u8> = (0..37u8).collect();
        let orig = data.clone();
        ctr_xor(&key, 99, &mut data);
        assert_ne!(data, orig);
        ctr_xor(&key, 99, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn ctr_distinct_nonces_differ() {
        let key = [1u8; 16];
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        ctr_xor(&key, 1, &mut a);
        ctr_xor(&key, 2, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn ctr_stream_matches_oneshot_across_splits() {
        let key = [0x5au8; 16];
        let aes = Aes128::new(&key);
        let data: Vec<u8> = (0..257u16).map(|i| i as u8).collect();
        let mut oneshot = data.clone();
        ctr_xor(&key, 7, &mut oneshot);
        // Splits inside, at and across the hardware path's 128-byte batch;
        // the second start counter wraps inside the first batch.
        for start in [0, u64::MAX - 3] {
            let mut expect = data.clone();
            aes.xor_keystream_portable(7, start, &mut expect);
            if start == 0 {
                assert_eq!(expect, oneshot);
            }
            for split in [
                0, 1, 15, 16, 17, 40, 63, 64, 65, 100, 127, 128, 129, 200, 256, 257,
            ] {
                let mut buf = data.clone();
                let mut ctr = Aes128Ctr::with_counter(&aes, 7, start);
                ctr.xor(&mut buf[..split]);
                ctr.xor(&mut buf[split..]);
                assert_eq!(buf, expect, "start {start}, split at {split}");
            }
        }
    }

    /// Runs the hardware and the T-table keystream over the same input and
    /// checks they agree, output and returned counter. Does nothing on a CPU
    /// without AES instructions; the dispatch guard below pins when that is.
    fn assert_paths_agree(aes: &Aes128, start: u64, len: usize) {
        let Some(hw) = &aes.hw else { return };
        let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        let nonce = 0x0123_4567_89ab_cdef;
        let mut fast = data.clone();
        let mut slow = data;
        let fast_next = hw.xor_keystream(nonce, start, &mut fast);
        let slow_next = aes.xor_keystream_portable(nonce, start, &mut slow);
        assert_eq!(fast, slow, "start {start}, len {len}");
        assert_eq!(fast_next, slow_next, "start {start}, len {len}");
        assert_eq!(slow_next, start.wrapping_add(len.div_ceil(16) as u64));
    }

    #[test]
    fn hardware_keystream_matches_portable_for_every_length() {
        let aes = Aes128::new(&[0x3cu8; 16]);
        // 0..=300 covers 127/128/129, the edges of one 8-block batch.
        for len in 0..=300 {
            assert_paths_agree(&aes, 0, len);
        }
    }

    #[test]
    fn hardware_keystream_matches_portable_across_counter_wrap() {
        let aes = Aes128::new(&[0xc3u8; 16]);
        for start in u64::MAX - 9..=u64::MAX {
            for len in [1, 16, 100, 128, 129, 160, 300] {
                assert_paths_agree(&aes, start, len);
            }
        }
    }

    #[test]
    fn hardware_keystream_selected_when_cpu_has_aes() {
        #[cfg(target_arch = "x86_64")]
        let cpu_has_aes = std::is_x86_feature_detected!("aes");
        #[cfg(not(target_arch = "x86_64"))]
        let cpu_has_aes = false;
        assert_eq!(Aes128::new(&[0; 16]).hw.is_some(), cpu_has_aes);
    }

    #[test]
    fn debug_prints_no_round_key() {
        // FIPS 197 Appendix A.1 key: round key 0 is the key itself.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.ek[0], 0x2b7e_1516);
        let shown = [
            format!("{aes:?}"),
            format!("{:?}", Aes128Ctr::new(&aes, 1)),
            format!("{:?}", SealedBox::sealer(&aes, &HmacKey::new(&[9; 32]), 1)),
        ];
        for s in &shown {
            for w in &aes.ek {
                assert!(!s.contains(&format!("{w:x}")), "{s} shows {w:#x}");
                assert!(!s.contains(&w.to_string()), "{s} shows {w}");
            }
        }
    }

    #[test]
    fn sealed_box_roundtrip() {
        let sealed = SealedBox::seal(&[3; 16], &[4; 32], 7, b"page data here");
        assert_eq!(
            sealed.open(&[3; 16], &[4; 32], 7).unwrap(),
            b"page data here"
        );
    }

    #[test]
    fn seal_with_matches_seal_and_streams() {
        let cipher = Aes128::new(&[3; 16]);
        let mac = HmacKey::new(&[4; 32]);
        let oneshot = SealedBox::seal(&[3; 16], &[4; 32], 7, b"page data here");
        assert_eq!(
            SealedBox::seal_with(&cipher, &mac, 7, b"page data here"),
            oneshot
        );
        let mut s = SealedBox::sealer(&cipher, &mac, 7);
        s.write(b"page ");
        s.write(b"data");
        s.write(b" here");
        let streamed = s.finish();
        assert_eq!(streamed, oneshot);
        assert_eq!(
            streamed.open_with(&cipher, &mac, 7).unwrap(),
            b"page data here"
        );
    }

    #[test]
    fn sealed_box_detects_tamper() {
        let mut sealed = SealedBox::seal(&[3; 16], &[4; 32], 7, b"page data here");
        sealed.ciphertext_mut()[0] ^= 1;
        assert_eq!(sealed.open(&[3; 16], &[4; 32], 7), Err(OpenSealedBoxError));
    }

    #[test]
    fn sealed_box_detects_context_replay() {
        // A page swapped out from vpn 7 must not be accepted for vpn 8.
        let sealed = SealedBox::seal(&[3; 16], &[4; 32], 7, b"page data here");
        assert!(sealed.open(&[3; 16], &[4; 32], 8).is_err());
    }

    #[test]
    fn sealed_box_wrong_keys_rejected() {
        let sealed = SealedBox::seal(&[3; 16], &[4; 32], 7, b"x");
        assert!(sealed.open(&[3; 16], &[5; 32], 7).is_err());
    }

    #[test]
    fn empty_box() {
        let sealed = SealedBox::seal(&[0; 16], &[0; 32], 0, b"");
        assert!(sealed.is_empty());
        assert_eq!(sealed.len(), 0);
        assert_eq!(sealed.open(&[0; 16], &[0; 32], 0).unwrap(), b"");
    }
}
