//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! Used by the Virtual Ghost VM to authenticate swapped-out ghost pages
//! (encrypt-then-MAC) and by applications to detect OS tampering with files.
//!
//! Hot callers (the swap path seals every ghost page; SecureStorage MACs
//! every file) should derive an [`HmacKey`] once per key: it stores the
//! SHA-256 compression states *after* the ipad and opad blocks, so each MAC
//! costs two finalizations instead of four full key-block hashes. The
//! textbook derivation is retained in [`crate::reference`] and proven
//! equivalent by differential proptests.

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// A precomputed HMAC-SHA256 key: the inner (ipad) and outer (opad)
/// compression midstates, computed once.
///
/// # Examples
///
/// ```
/// use vg_crypto::hmac::{HmacKey, HmacSha256};
///
/// let key = HmacKey::new(b"key");
/// assert_eq!(key.mac(b"msg"), HmacSha256::mac(b"key", b"msg"));
/// ```
///
/// `Debug` prints no key material: either midstate lets anyone forge tags.
#[derive(Clone)]
pub struct HmacKey {
    inner0: Sha256,
    outer0: Sha256,
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

impl HmacKey {
    /// Derives the midstates for `key` (any length; hashed if longer than
    /// the block size, per the RFC).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ikey = [0u8; BLOCK];
        let mut okey = [0u8; BLOCK];
        for i in 0..BLOCK {
            ikey[i] = k[i] ^ 0x36;
            okey[i] = k[i] ^ 0x5c;
        }
        // Each update is exactly one block, so both hashers sit on a
        // compressed midstate with an empty buffer — cloning them later
        // resumes mid-stream at zero cost.
        let mut inner0 = Sha256::new();
        inner0.update(&ikey);
        let mut outer0 = Sha256::new();
        outer0.update(&okey);
        HmacKey { inner0, outer0 }
    }

    /// Starts a streaming MAC from the precomputed midstates.
    pub fn hasher(&self) -> HmacSha256 {
        HmacSha256 {
            inner: self.inner0.clone(),
            outer0: self.outer0.clone(),
        }
    }

    /// One-shot MAC of `data` under this key.
    pub fn mac(&self, data: &[u8]) -> [u8; 32] {
        let mut h = self.hasher();
        h.update(data);
        h.finalize()
    }

    /// Constant-time-ish verification of `tag` over `data` under this key.
    pub fn verify(&self, data: &[u8], tag: &[u8]) -> bool {
        verify_tag(&self.mac(data), tag)
    }
}

/// Streaming HMAC-SHA256.
///
/// # Examples
///
/// ```
/// use vg_crypto::hmac::HmacSha256;
///
/// let tag = HmacSha256::mac(b"key", b"the quick brown fox");
/// assert!(HmacSha256::verify(b"key", b"the quick brown fox", &tag));
/// assert!(!HmacSha256::verify(b"key", b"tampered", &tag));
/// ```
///
/// `Debug` prints no key material (it holds the key's opad midstate).
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer0: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates a MAC context keyed with `key` (any length; hashed if longer
    /// than the block size, per the RFC).
    ///
    /// Callers MAC-ing repeatedly under one key should hold an [`HmacKey`]
    /// and use [`HmacKey::hasher`] instead, which skips the two key-block
    /// compressions this performs.
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).hasher()
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the 32-byte tag, consuming the context.
    pub fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer0;
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; 32] {
        let mut h = HmacSha256::new(key);
        h.update(data);
        h.finalize()
    }

    /// Constant-time-ish verification of `tag` over `data` under `key`.
    ///
    /// The comparison accumulates a difference mask over all bytes rather than
    /// short-circuiting; timing side channels are out of the paper's threat
    /// model but there is no reason to be sloppy.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        verify_tag(&Self::mac(key, data), tag)
    }
}

fn verify_tag(expect: &[u8; 32], tag: &[u8]) -> bool {
    if tag.len() != expect.len() {
        return false;
    }
    let mut diff = 0u8;
    for (a, b) in expect.iter().zip(tag) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hex;

    // RFC 4231 test vectors. The full case 1–7 table (including truncation)
    // lives in tests/vectors.rs; these cover the basic shapes in-module.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&HmacSha256::mac(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&HmacSha256::mac(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&HmacSha256::mac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&HmacSha256::mac(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut h = HmacSha256::new(b"key");
        h.update(b"part one ");
        h.update(b"part two");
        assert_eq!(h.finalize(), HmacSha256::mac(b"key", b"part one part two"));
    }

    #[test]
    fn precomputed_key_matches_fresh_derivation() {
        let key = HmacKey::new(b"swap-mac-key");
        for msg in [&b""[..], b"x", &[0u8; 200]] {
            assert_eq!(key.mac(msg), HmacSha256::mac(b"swap-mac-key", msg));
            assert!(key.verify(msg, &key.mac(msg)));
        }
        // Reuse: one HmacKey, many hashers, including >64-byte keys.
        let long = HmacKey::new(&[0x77u8; 131]);
        let mut h = long.hasher();
        h.update(b"ab");
        h.update(b"cd");
        assert_eq!(h.finalize(), HmacSha256::mac(&[0x77u8; 131], b"abcd"));
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let tag = HmacSha256::mac(b"k", b"m");
        assert!(!HmacSha256::verify(b"k", b"m", &tag[..16]));
        assert!(HmacSha256::verify(b"k", b"m", &tag));
        assert!(!HmacKey::new(b"k").verify(b"m", &tag[..16]));
    }
}
