//! RSA key generation, encryption, and signatures over [`crate::bignum`].
//!
//! Virtual Ghost's chain of trust (paper §4.4) is:
//!
//! > TPM storage key ⇒ Virtual Ghost private key ⇒ application private key ⇒
//! > additional application keys.
//!
//! The VM's public/private pair encrypts the application key section embedded
//! in executables and signs installed binaries. This module provides those
//! operations. Padding is a deterministic hash-based scheme (simplified
//! OAEP/PSS): adequate for the simulation, not for production use — the
//! simulator's default key size (configurable) is deliberately small so test
//! suites run quickly, and this is documented in DESIGN.md.

use crate::bignum::BigUint;
use crate::sha256::Sha256;

/// Default modulus size for simulator keys, in bits.
pub const DEFAULT_KEY_BITS: usize = 512;

/// An RSA public key (n, e).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// An RSA key pair.
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
}

/// Errors from RSA operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsaError {
    /// The message is too long for the modulus.
    MessageTooLong,
    /// Decryption failed structural checks (padding marker mismatch).
    BadPadding,
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::MessageTooLong => write!(f, "message too long for RSA modulus"),
            RsaError::BadPadding => write!(f, "invalid RSA padding"),
        }
    }
}

impl std::error::Error for RsaError {}

impl RsaPublicKey {
    /// Modulus size in bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Maximum plaintext bytes one [`encrypt`](Self::encrypt) call accepts.
    pub fn max_plaintext_len(&self) -> usize {
        self.modulus_len().saturating_sub(OVERHEAD)
    }

    /// Encrypts `msg`, padding with a hash-derived mask.
    ///
    /// # Errors
    ///
    /// [`RsaError::MessageTooLong`] if `msg` exceeds
    /// [`max_plaintext_len`](Self::max_plaintext_len).
    pub fn encrypt(&self, msg: &[u8], seed: u64) -> Result<Vec<u8>, RsaError> {
        let k = self.modulus_len();
        if msg.len() + OVERHEAD > k {
            return Err(RsaError::MessageTooLong);
        }
        let em = pad(msg, k, seed);
        let m = BigUint::from_be_bytes(&em);
        let c = m.modpow(&self.e, &self.n);
        Ok(c.to_be_bytes_padded(k))
    }

    /// Verifies `sig` over `msg` (hash-then-exponentiate).
    pub fn verify(&self, msg: &[u8], sig: &[u8]) -> bool {
        let s = BigUint::from_be_bytes(sig);
        if s >= self.n {
            return false;
        }
        let em = s.modpow(&self.e, &self.n);
        let expect = BigUint::from_be_bytes(&Sha256::digest(msg)).rem(&self.n);
        em == expect
    }

    /// The modulus, for tests and diagnostics.
    pub fn n(&self) -> &BigUint {
        &self.n
    }
}

// Padded message layout: 0x00 ‖ 0x02 ‖ seed(8) ‖ mask-check(4) ‖ len(2) ‖ msg ‖ filler.
const OVERHEAD: usize = 2 + 8 + 4 + 2;

fn mask_bytes(seed: u64, len: usize) -> Vec<u8> {
    // MGF1-style expansion of the seed with SHA-256.
    let mut out = Vec::with_capacity(len + 32);
    let mut ctr = 0u32;
    while out.len() < len {
        let mut h = Sha256::new();
        h.update(&seed.to_be_bytes());
        h.update(&ctr.to_be_bytes());
        out.extend_from_slice(&h.finalize());
        ctr += 1;
    }
    out.truncate(len);
    out
}

fn pad(msg: &[u8], k: usize, seed: u64) -> Vec<u8> {
    let mut em = vec![0u8; k];
    em[1] = 0x02;
    em[2..10].copy_from_slice(&seed.to_be_bytes());
    let check = &Sha256::digest(&seed.to_be_bytes())[..4];
    em[10..14].copy_from_slice(check);
    em[14..16].copy_from_slice(&(msg.len() as u16).to_be_bytes());
    em[16..16 + msg.len()].copy_from_slice(msg);
    // Mask the data portion so equal plaintexts with different seeds differ.
    let mask = mask_bytes(seed, k - 14);
    for (b, m) in em[14..].iter_mut().zip(mask) {
        *b ^= m;
    }
    em
}

fn unpad(em: &[u8]) -> Result<Vec<u8>, RsaError> {
    if em.len() < OVERHEAD || em[0] != 0 || em[1] != 0x02 {
        return Err(RsaError::BadPadding);
    }
    let seed = u64::from_be_bytes(em[2..10].try_into().unwrap());
    let check = &Sha256::digest(&seed.to_be_bytes())[..4];
    if &em[10..14] != check {
        return Err(RsaError::BadPadding);
    }
    let mask = mask_bytes(seed, em.len() - 14);
    let mut data: Vec<u8> = em[14..].iter().zip(mask).map(|(b, m)| b ^ m).collect();
    let len = u16::from_be_bytes([data[0], data[1]]) as usize;
    if len + 2 > data.len() {
        return Err(RsaError::BadPadding);
    }
    data.drain(..2);
    data.truncate(len);
    Ok(data)
}

impl RsaKeyPair {
    /// Generates a key pair with a modulus of about `bits` bits, drawing
    /// primes from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 64`.
    pub fn generate(bits: usize, rng: &mut impl FnMut() -> u64) -> Self {
        assert!(bits >= 64, "key too small");
        let e = BigUint::from(65537u64);
        loop {
            let p = BigUint::gen_prime(bits / 2, rng);
            let q = BigUint::gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
            if let Some(d) = e.modinv(&phi) {
                return RsaKeyPair {
                    public: RsaPublicKey { n, e },
                    d,
                };
            }
        }
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Decrypts a ciphertext produced by [`RsaPublicKey::encrypt`].
    ///
    /// # Errors
    ///
    /// [`RsaError::BadPadding`] if the ciphertext was corrupted or produced
    /// under a different key, or is not a canonical ciphertext: longer than
    /// the modulus, or a value `≥ n` (as [`RsaPublicKey::verify`] refuses a
    /// signature `≥ n`).
    pub fn decrypt(&self, ct: &[u8]) -> Result<Vec<u8>, RsaError> {
        if ct.len() > self.public.modulus_len() {
            return Err(RsaError::BadPadding);
        }
        let c = BigUint::from_be_bytes(ct);
        if c >= self.public.n {
            return Err(RsaError::BadPadding);
        }
        let m = c.modpow(&self.d, &self.public.n);
        let em = m.to_be_bytes_padded(self.public.modulus_len());
        unpad(&em)
    }

    /// Signs `msg` (hash-then-exponentiate).
    pub fn sign(&self, msg: &[u8]) -> Vec<u8> {
        let h = BigUint::from_be_bytes(&Sha256::digest(msg)).rem(&self.public.n);
        h.modpow(&self.d, &self.public.n)
            .to_be_bytes_padded(self.public.modulus_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_rng() -> impl FnMut() -> u64 {
        let mut s = 0xdead_beef_cafe_f00du64;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut rng = test_rng();
        let kp = RsaKeyPair::generate(256, &mut rng);
        let ct = kp.public().encrypt(b"app key!", 77).unwrap();
        assert_eq!(kp.decrypt(&ct).unwrap(), b"app key!");
    }

    #[test]
    fn different_seeds_randomize_ciphertext() {
        let mut rng = test_rng();
        let kp = RsaKeyPair::generate(256, &mut rng);
        let c1 = kp.public().encrypt(b"same", 1).unwrap();
        let c2 = kp.public().encrypt(b"same", 2).unwrap();
        assert_ne!(c1, c2);
        assert_eq!(kp.decrypt(&c1).unwrap(), kp.decrypt(&c2).unwrap());
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let mut rng = test_rng();
        let kp = RsaKeyPair::generate(256, &mut rng);
        let mut ct = kp.public().encrypt(b"secret", 9).unwrap();
        ct[3] ^= 0x40;
        assert!(kp.decrypt(&ct).is_err());
    }

    #[test]
    fn ciphertext_longer_than_modulus_rejected() {
        let mut rng = test_rng();
        let kp = RsaKeyPair::generate(256, &mut rng);
        let ct = kp.public().encrypt(b"app key!", 77).unwrap();
        // Same value with a leading zero byte: it would decrypt if accepted.
        let mut long = vec![0u8];
        long.extend_from_slice(&ct);
        assert_eq!(kp.decrypt(&long), Err(RsaError::BadPadding));
        assert_eq!(kp.decrypt(&ct).unwrap(), b"app key!");
    }

    #[test]
    fn ciphertext_not_below_modulus_rejected() {
        let mut rng = test_rng();
        let kp = RsaKeyPair::generate(256, &mut rng);
        let ct = kp.public().encrypt(b"app key!", 77).unwrap();
        // c + n is the same residue mod n: canonical-only decryption refuses it.
        let n = kp.public().n();
        let k = kp.public().modulus_len();
        let shifted = BigUint::from_be_bytes(&ct).add(n);
        assert_eq!(
            kp.decrypt(&shifted.to_be_bytes_padded(k)),
            Err(RsaError::BadPadding)
        );
        assert_eq!(
            kp.decrypt(&n.to_be_bytes_padded(k)),
            Err(RsaError::BadPadding)
        );
    }

    #[test]
    fn message_too_long_rejected() {
        let mut rng = test_rng();
        let kp = RsaKeyPair::generate(256, &mut rng);
        let max = kp.public().max_plaintext_len();
        assert!(kp.public().encrypt(&vec![0u8; max + 1], 0).is_err());
        assert!(kp.public().encrypt(&vec![7u8; max], 0).is_ok());
    }

    #[test]
    fn sign_verify() {
        let mut rng = test_rng();
        let kp = RsaKeyPair::generate(256, &mut rng);
        let sig = kp.sign(b"kernel module translation");
        assert!(kp.public().verify(b"kernel module translation", &sig));
        assert!(!kp.public().verify(b"tampered module", &sig));
        let mut bad = sig.clone();
        bad[0] ^= 1;
        assert!(!kp.public().verify(b"kernel module translation", &bad));
    }

    #[test]
    fn signature_from_other_key_rejected() {
        let mut rng = test_rng();
        let a = RsaKeyPair::generate(256, &mut rng);
        let b = RsaKeyPair::generate(256, &mut rng);
        let sig = a.sign(b"msg");
        assert!(!b.public().verify(b"msg", &sig));
    }
}
