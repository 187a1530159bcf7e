//! Golden pins for the chain of trust's key material (paper §4.4).
//!
//! Every boot generates the VG key pair from the boot seed, and every
//! install encrypts and signs an application key section with it. The
//! cycle-level pins cannot see the keys themselves, so these do: any change
//! to the order of RNG draws, to the primality test or to the modular
//! arithmetic moves one of the values below. They were captured from the
//! textbook square-and-multiply implementation (`vg_crypto::reference`).

use vg_core::{Protections, SvaVm};
use vg_crypto::rsa::{RsaKeyPair, DEFAULT_KEY_BITS};
use vg_crypto::{ChaChaRng, Sha256, Tpm};

/// The boot `System::boot_with_cpus` performs: TPM seed, boot seed and key
/// size are the kernel's.
fn system_boot_vm() -> SvaVm {
    SvaVm::boot_with_key_bits(Protections::virtual_ghost(), &Tpm::new(0x7a31), 0x1337, 256)
}

const BOOT_MODULUS: &str = "bcb1ac71c8b9f5bc632831539413284aed818ac42900e0b799b6a4ebf532eb5b";

const DEFAULT_BITS_MODULUS: &str = "5cd3406345b3a2f24e3765a080f65d3696467f2b50c1631dc79cde90c1962e76\
                                    d8df73e73682c6b3f912f7b6beca3fa40e881d6014ddb67e4923bf182c470345";

/// Runs the keygen `SvaVm::boot_with_key_bits` runs for `seed`, counting
/// the RNG draws it consumes.
fn keygen_counting_draws(seed: u64, bits: usize) -> (RsaKeyPair, u32) {
    let mut rng = ChaChaRng::from_seed(seed ^ 0x4b_4559);
    let mut draws = 0;
    let kp = RsaKeyPair::generate(bits, &mut || {
        draws += 1;
        rng.next_u64()
    });
    (kp, draws)
}

/// `System::install_app`'s binary for `name`: key and code digest derived
/// from the name.
fn install(vm: &mut SvaVm, name: &str) -> (String, String) {
    let mut app_key = [0u8; 16];
    app_key.copy_from_slice(&Sha256::digest(format!("app-key:{name}").as_bytes())[..16]);
    let digest = Sha256::digest(format!("app-code:{name}").as_bytes());
    let binary = vm.sva_install_app(name, digest, app_key);
    (hex(&binary.key_section), hex(&binary.signature))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn system_boot_modulus_is_pinned() {
    assert_eq!(system_boot_vm().keys.vg_public().n().to_hex(), BOOT_MODULUS);
}

#[test]
fn system_boot_keygen_draws_258_values() {
    let (kp, draws) = keygen_counting_draws(0x1337, 256);
    assert_eq!(draws, 258);
    assert_eq!(kp.public().n().to_hex(), BOOT_MODULUS);
}

#[test]
fn default_key_bits_pair_is_pinned() {
    let (kp, draws) = keygen_counting_draws(7, DEFAULT_KEY_BITS);
    assert_eq!(draws, 1264);
    assert_eq!(kp.public().n().to_hex(), DEFAULT_BITS_MODULUS);
    let mut vm = SvaVm::boot(Protections::virtual_ghost(), &Tpm::new(0x7a31), 7);
    assert_eq!(vm.keys.vg_public(), kp.public());
    let (key_section, signature) = install(&mut vm, "sshd");
    assert_eq!(
        key_section,
        "3a36a8f43d292e274d4c3457571f4aff22d782b40b6952c516c118907bafa9c6\
         bcabe293293005aafe2d19f53b4b960c0dc6f281acf15c88968c7cbaa611b22c"
    );
    assert_eq!(
        signature,
        "41e2b8ccc5861cf700ef99553c7147ebcb568554765f9117c6a7e4ff77339fc1\
         910cbb85727915dfb5aef9e5ecdf7a80cf5121030953581c13434b2d0f83bf9a"
    );
}

#[test]
fn install_app_key_section_and_signature_are_pinned() {
    let mut vm = system_boot_vm();
    let (key_section, signature) = install(&mut vm, "sshd");
    assert_eq!(
        key_section,
        "1858e026406cffef9005dd43fa50f64b78e95bd85e6916b46ef21eb3b4a44b89"
    );
    assert_eq!(
        signature,
        "a331bc03d376ea1ed23c4894fc53b81d5f9f0860eabe192c74f3dd573609f26b"
    );
}
