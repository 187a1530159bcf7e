//! A simulated Trusted Platform Module.
//!
//! The paper assumes "a Trusted Platform Module (TPM) coprocessor is
//! available; the storage key held in the TPM is used to encrypt and decrypt
//! the private key used by Virtual Ghost" (§4.4). The real prototype left the
//! TPM unimplemented; this reproduction models the full chain:
//!
//! 1. The TPM holds a non-exportable **storage key** (AES-128 + MAC key).
//! 2. At install time, the Virtual Ghost private key is **sealed** to the TPM.
//! 3. At boot, the Virtual Ghost VM asks the TPM to **unseal** it; the OS
//!    only ever sees the sealed blob on disk.
//!
//! Sealing is encrypt-then-MAC (see [`crate::aes::SealedBox`]), bound to a
//! caller-supplied context tag so blobs sealed for one purpose cannot be
//! replayed for another.

use crate::aes::{Aes128, OpenSealedBoxError, SealedBox};
use crate::hmac::HmacKey;
use crate::rng::ChaChaRng;

/// A simulated TPM coprocessor.
///
/// # Examples
///
/// ```
/// use vg_crypto::tpm::Tpm;
///
/// let tpm = Tpm::new(1234);
/// let blob = tpm.seal(Tpm::VG_PRIVATE_KEY_CONTEXT, b"vg private key bytes");
/// let back = tpm.unseal(Tpm::VG_PRIVATE_KEY_CONTEXT, &blob).unwrap();
/// assert_eq!(back, b"vg private key bytes");
/// ```
///
/// `Debug` prints no key material.
#[derive(Clone)]
pub struct Tpm {
    storage_cipher: Aes128,
    storage_mac: HmacKey,
    monotonic: u64,
}

impl std::fmt::Debug for Tpm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tpm").finish_non_exhaustive()
    }
}

impl Tpm {
    /// Context tag for the Virtual Ghost private-key blob.
    pub const VG_PRIVATE_KEY_CONTEXT: u64 = 0x5647_5052_4956;

    /// Manufactures a TPM whose storage key is derived from `endorsement_seed`
    /// (the stand-in for per-device fused entropy).
    pub fn new(endorsement_seed: u64) -> Self {
        let mut rng = ChaChaRng::from_seed(endorsement_seed ^ 0x54504d21);
        let mut enc = [0u8; 16];
        let mut mac = [0u8; 32];
        rng.fill(&mut enc);
        rng.fill(&mut mac);
        Tpm {
            storage_cipher: Aes128::new(&enc),
            storage_mac: HmacKey::new(&mac),
            monotonic: 0,
        }
    }

    /// Seals `data` under the storage key, bound to `context`.
    pub fn seal(&self, context: u64, data: &[u8]) -> SealedBox {
        SealedBox::seal_with(&self.storage_cipher, &self.storage_mac, context, data)
    }

    /// Unseals a blob previously produced by [`seal`](Self::seal) on this TPM
    /// with the same `context`.
    ///
    /// # Errors
    ///
    /// Fails if the blob was tampered with, sealed by another TPM, or sealed
    /// under a different context.
    pub fn unseal(&self, context: u64, blob: &SealedBox) -> Result<Vec<u8>, OpenSealedBoxError> {
        blob.open_with(&self.storage_cipher, &self.storage_mac, context)
    }

    /// Increments and returns the monotonic counter (used by replay-defense
    /// extensions; see the paper's future-work discussion of replayed files).
    pub fn increment_counter(&mut self) -> u64 {
        self.monotonic += 1;
        self.monotonic
    }

    /// Current monotonic counter value.
    pub fn counter(&self) -> u64 {
        self.monotonic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_roundtrip() {
        let tpm = Tpm::new(7);
        let blob = tpm.seal(1, b"secret");
        assert_eq!(tpm.unseal(1, &blob).unwrap(), b"secret");
    }

    #[test]
    fn unseal_wrong_context_fails() {
        let tpm = Tpm::new(7);
        let blob = tpm.seal(1, b"secret");
        assert!(tpm.unseal(2, &blob).is_err());
    }

    #[test]
    fn unseal_other_tpm_fails() {
        let a = Tpm::new(7);
        let b = Tpm::new(8);
        let blob = a.seal(1, b"secret");
        assert!(b.unseal(1, &blob).is_err());
    }

    #[test]
    fn tampered_blob_fails() {
        let tpm = Tpm::new(7);
        let mut blob = tpm.seal(1, b"secret");
        blob.ciphertext_mut()[0] ^= 0xff;
        assert!(tpm.unseal(1, &blob).is_err());
    }

    #[test]
    fn monotonic_counter_increases() {
        let mut tpm = Tpm::new(7);
        assert_eq!(tpm.counter(), 0);
        assert_eq!(tpm.increment_counter(), 1);
        assert_eq!(tpm.increment_counter(), 2);
        assert_eq!(tpm.counter(), 2);
    }

    #[test]
    fn same_seed_same_storage_key() {
        let a = Tpm::new(42);
        let b = Tpm::new(42);
        let blob = a.seal(5, b"x");
        assert_eq!(b.unseal(5, &blob).unwrap(), b"x");
    }
}
