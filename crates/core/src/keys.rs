//! Key management and the chain of trust (paper §3.3, §4.4, §4.5).
//!
//! ```text
//! TPM storage key ⇒ Virtual Ghost private key ⇒ application private key
//!                                              ⇒ additional application keys
//! ```
//!
//! * The Virtual Ghost private key is sealed to the TPM; only this VM can
//!   recover it.
//! * An application's binary carries a **key section**: its AES application
//!   key encrypted with the Virtual Ghost *public* key, installed by a
//!   trusted administrator. The whole binary (identity + code digest + key
//!   section) is signed with the VG key.
//! * At `exec`, the VM verifies the signature and the code digest; on any
//!   mismatch it **refuses to prepare the application for execution**
//!   (guarantee 4 in §3.4). On success the decrypted key lands in SVA
//!   memory, retrievable only by the owning process via `sva.getKey`.

use crate::{ProcId, SvaError, SvaVm};
use std::collections::HashMap;
use vg_crypto::aes::SealedBox;
use vg_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use vg_crypto::sha256::Sha256;
use vg_crypto::Tpm;
use vg_machine::{Domain, Machine};

/// Key-management failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyError {
    /// Binary signature did not verify — the OS substituted or tampered
    /// with the executable or its key section.
    BadSignature,
    /// The code presented at exec does not match the signed digest.
    CodeMismatch,
    /// No application key loaded for this process.
    NoKey,
    /// Key section failed to decrypt.
    SectionCorrupt,
    /// The TPM/key service failed the operation (transient hardware fault;
    /// the injection layer's `TpmFail` class surfaces here).
    TpmFailure,
}

impl std::fmt::Display for KeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            KeyError::BadSignature => "application binary signature invalid",
            KeyError::CodeMismatch => "application code does not match signed digest",
            KeyError::NoKey => "no application key for process",
            KeyError::SectionCorrupt => "application key section corrupt",
            KeyError::TpmFailure => "TPM operation failed",
        };
        f.write_str(s)
    }
}

impl std::error::Error for KeyError {}

/// A signed application binary with its embedded encrypted key section.
#[derive(Debug, Clone, PartialEq)]
pub struct AppBinary {
    /// Application name.
    pub name: String,
    /// SHA-256 digest of the application code.
    pub code_digest: [u8; 32],
    /// The application AES key, RSA-encrypted to the Virtual Ghost public
    /// key.
    pub key_section: Vec<u8>,
    /// VG signature over (name ‖ digest ‖ key section).
    pub signature: Vec<u8>,
}

impl AppBinary {
    fn signed_payload(name: &str, code_digest: &[u8; 32], key_section: &[u8]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(name.len() + 32 + key_section.len() + 1);
        payload.extend_from_slice(name.as_bytes());
        payload.push(0);
        payload.extend_from_slice(code_digest);
        payload.extend_from_slice(key_section);
        payload
    }
}

/// The VM's key store.
#[derive(Debug)]
pub struct KeyStore {
    vg_keys: RsaKeyPair,
    /// The private key sealed to the TPM — what actually persists across
    /// boots in the paper's design; kept to prove the unseal path works.
    pub sealed_private: SealedBox,
    app_keys: HashMap<ProcId, [u8; 16]>,
    install_counter: u64,
    /// Trusted monotonic version counters, keyed by (application key,
    /// slot). Implements the paper's future-work item on defeating file
    /// replay attacks (§10): the OS cannot roll these back.
    version_counters: HashMap<([u8; 16], u64), u64>,
}

impl KeyStore {
    /// Creates the store, sealing the private key material to `tpm`.
    pub fn new(vg_keys: RsaKeyPair, tpm: &Tpm) -> Self {
        // Seal a fingerprint of the private key (stand-in for the key blob
        // itself; the RsaKeyPair stays in SVA memory).
        let fingerprint = Sha256::digest(&vg_keys.public().n().to_be_bytes());
        let sealed_private = tpm.seal(Tpm::VG_PRIVATE_KEY_CONTEXT, &fingerprint);
        KeyStore {
            vg_keys,
            sealed_private,
            app_keys: HashMap::new(),
            install_counter: 0,
            version_counters: HashMap::new(),
        }
    }

    /// The Virtual Ghost key pair (private to `vg-core`).
    pub(crate) fn vg_keys(&self) -> &RsaKeyPair {
        &self.vg_keys
    }

    /// The Virtual Ghost public key (what a distributor encrypts key
    /// sections to).
    pub fn vg_public(&self) -> &RsaPublicKey {
        self.vg_keys.public()
    }
}

impl SvaVm {
    /// Trusted-install path (§4.4: "a software distributor can place unique
    /// keys in each copy of the software"): produces a signed [`AppBinary`]
    /// embedding `app_key` encrypted to the VG public key.
    pub fn sva_install_app(
        &mut self,
        name: &str,
        code_digest: [u8; 32],
        app_key: [u8; 16],
    ) -> AppBinary {
        self.keys.install_counter += 1;
        let seed = self.keys.install_counter;
        let key_section = self
            .keys
            .vg_keys()
            .public()
            .encrypt(&app_key, seed)
            .expect("16-byte key fits any supported modulus");
        let payload = AppBinary::signed_payload(name, &code_digest, &key_section);
        let signature = self.keys.vg_keys().sign(&payload);
        AppBinary {
            name: name.to_string(),
            code_digest,
            key_section,
            signature,
        }
    }

    /// Exec-time verification and key loading. `presented_code_digest` is
    /// the digest of the code the OS actually provided for execution.
    ///
    /// # Errors
    ///
    /// * [`KeyError::BadSignature`] — signature over the binary fails.
    /// * [`KeyError::CodeMismatch`] — the OS is trying to launch different
    ///   code under this identity/key ("If the system software attempts to
    ///   load different application code with the application's key, Virtual
    ///   Ghost refuses to prepare the native code for execution", §4.5).
    /// * [`KeyError::SectionCorrupt`] — key section does not decrypt.
    pub fn sva_load_app_key(
        &mut self,
        machine: &mut Machine,
        proc: ProcId,
        binary: &AppBinary,
        presented_code_digest: [u8; 32],
    ) -> Result<(), SvaError> {
        machine.prof_push(Domain::Crypto, "key_unwrap");
        machine.charge(machine.costs.sha_per_block * 8 + machine.costs.aes_per_block * 4);
        machine.prof_pop();
        if machine.fault_check(vg_machine::FaultClass::TpmFail) {
            return Err(SvaError::Key(KeyError::TpmFailure));
        }
        let payload =
            AppBinary::signed_payload(&binary.name, &binary.code_digest, &binary.key_section);
        if !self
            .keys
            .vg_keys()
            .public()
            .verify(&payload, &binary.signature)
        {
            return Err(KeyError::BadSignature.into());
        }
        if binary.code_digest != presented_code_digest {
            return Err(KeyError::CodeMismatch.into());
        }
        let key_bytes = self
            .keys
            .vg_keys()
            .decrypt(&binary.key_section)
            .map_err(|_| SvaError::Key(KeyError::SectionCorrupt))?;
        let key: [u8; 16] = key_bytes
            .try_into()
            .map_err(|_| SvaError::Key(KeyError::SectionCorrupt))?;
        self.keys.app_keys.insert(proc, key);
        Ok(())
    }

    /// `sva.getKey`: the application retrieves its key (to copy into ghost
    /// memory). Only the owning process can ask — the kernel never sees the
    /// key because the call is handled entirely inside the VM.
    ///
    /// # Errors
    ///
    /// [`KeyError::NoKey`] if the process has no loaded key.
    pub fn sva_get_key(&self, proc: ProcId) -> Result<[u8; 16], SvaError> {
        self.keys
            .app_keys
            .get(&proc)
            .copied()
            .ok_or(SvaError::Key(KeyError::NoKey))
    }

    /// Drops per-process key material (process exit). Version counters are
    /// keyed by application key, not process, so they survive restarts.
    pub fn sva_drop_key(&mut self, proc: ProcId) {
        self.keys.app_keys.remove(&proc);
    }

    /// `sva.version.bump(slot)`: increments and returns the calling
    /// application's trusted version counter for `slot`. The counter lives
    /// in SVA memory and is keyed by the application key, so every instance
    /// of the same installed application shares it and the OS can neither
    /// read it back out of band nor roll it back — the anti-replay
    /// primitive the paper's future work calls for (§10).
    ///
    /// # Errors
    ///
    /// [`KeyError::NoKey`] if the process has no loaded application key.
    pub fn sva_version_bump(
        &mut self,
        machine: &mut Machine,
        proc: ProcId,
        slot: u64,
    ) -> Result<u64, SvaError> {
        machine.prof_push(Domain::Sva, "sva.version.bump");
        machine.charge(160);
        machine.prof_pop();
        let key = *self
            .keys
            .app_keys
            .get(&proc)
            .ok_or(SvaError::Key(KeyError::NoKey))?;
        let c = self.keys.version_counters.entry((key, slot)).or_insert(0);
        *c += 1;
        Ok(*c)
    }

    /// `sva.version.read(slot)`: current value of the application's trusted
    /// version counter for `slot` (0 if never bumped).
    ///
    /// # Errors
    ///
    /// [`KeyError::NoKey`] if the process has no loaded application key.
    pub fn sva_version_read(&self, proc: ProcId, slot: u64) -> Result<u64, SvaError> {
        let key = *self
            .keys
            .app_keys
            .get(&proc)
            .ok_or(SvaError::Key(KeyError::NoKey))?;
        Ok(self
            .keys
            .version_counters
            .get(&(key, slot))
            .copied()
            .unwrap_or(0))
    }

    /// Proves the TPM unseal path: re-derives the sealed fingerprint and
    /// compares. Returns `false` if the sealed blob was tampered with or the
    /// wrong TPM is presented.
    pub fn verify_key_chain(&self, tpm: &Tpm) -> bool {
        match tpm.unseal(Tpm::VG_PRIVATE_KEY_CONTEXT, &self.keys.sealed_private) {
            Ok(fp) => fp == Sha256::digest(&self.keys.vg_keys().public().n().to_be_bytes()),
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protections;

    const P: ProcId = ProcId(3);

    fn setup() -> (SvaVm, Machine, Tpm) {
        let tpm = Tpm::new(11);
        let vm = SvaVm::boot(Protections::virtual_ghost(), &tpm, 2);
        (vm, Machine::new(Default::default()), tpm)
    }

    #[test]
    fn install_load_getkey_roundtrip() {
        let (mut vm, mut machine, _tpm) = setup();
        let digest = Sha256::digest(b"ssh-agent code v1");
        let app_key = [0x42u8; 16];
        let binary = vm.sva_install_app("ssh-agent", digest, app_key);
        vm.sva_load_app_key(&mut machine, P, &binary, digest)
            .unwrap();
        assert_eq!(vm.sva_get_key(P).unwrap(), app_key);
    }

    #[test]
    fn tampered_key_section_rejected() {
        let (mut vm, mut machine, _tpm) = setup();
        let digest = Sha256::digest(b"code");
        let mut binary = vm.sva_install_app("app", digest, [7; 16]);
        binary.key_section[0] ^= 1;
        assert_eq!(
            vm.sva_load_app_key(&mut machine, P, &binary, digest),
            Err(SvaError::Key(KeyError::BadSignature))
        );
    }

    #[test]
    fn wrong_code_rejected() {
        // The OS swaps in a malicious program file but keeps the key
        // section: §2.2.3's "load a malicious program file" attack.
        let (mut vm, mut machine, _tpm) = setup();
        let digest = Sha256::digest(b"real code");
        let binary = vm.sva_install_app("app", digest, [7; 16]);
        let evil_digest = Sha256::digest(b"evil code");
        assert_eq!(
            vm.sva_load_app_key(&mut machine, P, &binary, evil_digest),
            Err(SvaError::Key(KeyError::CodeMismatch))
        );
        assert_eq!(vm.sva_get_key(P), Err(SvaError::Key(KeyError::NoKey)));
    }

    #[test]
    fn forged_signature_rejected() {
        let (mut vm, mut machine, _tpm) = setup();
        let digest = Sha256::digest(b"code");
        let mut binary = vm.sva_install_app("app", digest, [7; 16]);
        binary.signature[4] ^= 0x80;
        assert_eq!(
            vm.sva_load_app_key(&mut machine, P, &binary, digest),
            Err(SvaError::Key(KeyError::BadSignature))
        );
    }

    #[test]
    fn keys_are_per_process_and_droppable() {
        let (mut vm, mut machine, _tpm) = setup();
        let digest = Sha256::digest(b"code");
        let b1 = vm.sva_install_app("a", digest, [1; 16]);
        let b2 = vm.sva_install_app("b", digest, [2; 16]);
        vm.sva_load_app_key(&mut machine, ProcId(1), &b1, digest)
            .unwrap();
        vm.sva_load_app_key(&mut machine, ProcId(2), &b2, digest)
            .unwrap();
        assert_eq!(vm.sva_get_key(ProcId(1)).unwrap(), [1; 16]);
        assert_eq!(vm.sva_get_key(ProcId(2)).unwrap(), [2; 16]);
        vm.sva_drop_key(ProcId(1));
        assert_eq!(
            vm.sva_get_key(ProcId(1)),
            Err(SvaError::Key(KeyError::NoKey))
        );
    }

    #[test]
    fn key_chain_verifies_with_right_tpm_only() {
        let (vm, _machine, tpm) = setup();
        assert!(vm.verify_key_chain(&tpm));
        let wrong_tpm = Tpm::new(999);
        assert!(!vm.verify_key_chain(&wrong_tpm));
    }

    #[test]
    fn same_app_two_installs_differ_in_ciphertext() {
        // Unique key sections per copy (per-install seed), §4.4.
        let (mut vm, _machine, _tpm) = setup();
        let digest = Sha256::digest(b"code");
        let b1 = vm.sva_install_app("app", digest, [7; 16]);
        let b2 = vm.sva_install_app("app", digest, [7; 16]);
        assert_ne!(b1.key_section, b2.key_section);
    }
}
