//! The chain of trust, end to end (paper §3.3–§4.5):
//! TPM storage key ⇒ Virtual Ghost private key ⇒ application key ⇒ derived
//! keys — and the exec-time gate that keeps the OS from borrowing an
//! application's identity for different code.

use vg_core::{KeyError, ProcId, SvaError};
use vg_crypto::Sha256;
use vg_kernel::{Mode, System};

#[test]
fn app_key_flows_only_to_the_real_binary() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app_with_key("holder", true, [0x11; 16], || {
        Box::new(|env| match env.get_app_key() {
            Ok(k) if k == [0x11; 16] => 0,
            _ => 1,
        })
    });
    let pid = sys.spawn("holder");
    assert_eq!(sys.run_until_exit(pid), 0);
    // After exit, the VM no longer serves the key for that process id.
    assert_eq!(
        sys.vm.sva_get_key(ProcId(pid)),
        Err(SvaError::Key(KeyError::NoKey))
    );
}

#[test]
fn substituted_code_cannot_exec_under_a_signed_identity() {
    // The OS swaps the program body behind an installed identity. The spec
    // table still holds the *original* signed binary, but the digest the OS
    // "presents" (derived from the replacement code) no longer matches —
    // exec is refused and the failure is observable.
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("genuine", true, || Box::new(|_env| 0));
    // Corrupt the stored digest to model the OS presenting different code.
    sys.binaries.get_mut("genuine").expect("installed").digest =
        Sha256::digest(b"totally different code");
    let pid = sys.create_proc_pub("genuine");
    let r = sys.exec_load_pub(pid, "genuine");
    assert!(matches!(r, Err(SvaError::Key(KeyError::CodeMismatch))));
}

#[test]
fn cross_binary_key_sections_are_not_interchangeable() {
    // Pasting app B's key section into app A's binary breaks the signature.
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app_with_key("a", true, [0xAA; 16], || Box::new(|_env| 0));
    sys.install_app_with_key("b", true, [0xBB; 16], || Box::new(|_env| 0));
    let b_section = sys.binaries["b"].binary.key_section.clone();
    let a_digest = sys.binaries["a"].digest;
    let mut franken = sys.binaries["a"].binary.clone();
    franken.key_section = b_section;
    let r = sys
        .vm
        .sva_load_app_key(&mut sys.machine, ProcId(42), &franken, a_digest);
    assert_eq!(r, Err(SvaError::Key(KeyError::BadSignature)));
}

#[test]
fn two_installs_of_one_app_share_key_but_not_ciphertext() {
    // §4.4: unique key sections per distributed copy; same key inside.
    let mut sys = System::boot(Mode::VirtualGhost);
    let digest = Sha256::digest(b"app");
    let b1 = sys.vm.sva_install_app("copy", digest, [7; 16]);
    let b2 = sys.vm.sva_install_app("copy", digest, [7; 16]);
    assert_ne!(
        b1.key_section, b2.key_section,
        "ciphertexts differ per copy"
    );
    sys.vm
        .sva_load_app_key(&mut sys.machine, ProcId(1), &b1, digest)
        .unwrap();
    sys.vm
        .sva_load_app_key(&mut sys.machine, ProcId(2), &b2, digest)
        .unwrap();
    assert_eq!(
        sys.vm.sva_get_key(ProcId(1)).unwrap(),
        sys.vm.sva_get_key(ProcId(2)).unwrap()
    );
}

#[test]
fn version_counters_survive_process_restarts_not_key_changes() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app_with_key("counting", true, [0x33; 16], || {
        Box::new(|env| {
            let v = env.sva_version_bump(1).expect("counter");
            v as i32
        })
    });
    let p1 = sys.spawn("counting");
    assert_eq!(sys.run_until_exit(p1), 1);
    let p2 = sys.spawn("counting");
    assert_eq!(
        sys.run_until_exit(p2),
        2,
        "counter persists across instances"
    );

    // A different app (different key) has independent counters.
    sys.install_app_with_key("other", true, [0x44; 16], || {
        Box::new(|env| env.sva_version_bump(1).expect("counter") as i32)
    });
    let p3 = sys.spawn("other");
    assert_eq!(sys.run_until_exit(p3), 1);
}

#[test]
fn kernel_never_observes_the_application_key() {
    // Sweep kernel-reachable state for the raw key bytes after a ghosting
    // app used them: system log, kernel heap, disk, and all non-ghost
    // physical frames.
    let key = [0xC7u8; 16];
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app_with_key("secretive", true, key, || {
        Box::new(|env| {
            let k = env.get_app_key().expect("key");
            // Stash it only in ghost memory.
            let g = env.allocgm(1).expect("ghost");
            env.write_mem(g, &k);
            env.getpid();
            0
        })
    });
    let pid = sys.spawn("secretive");
    assert_eq!(sys.run_until_exit(pid), 0);
    assert!(!sys.kernel_heap.windows(16).any(|w| w == key));
    for block in 0..64 {
        let data = sys.machine.disk.peek(block);
        assert!(
            !data.windows(16).any(|w| w == key),
            "key leaked to disk block {block}"
        );
    }
}

#[test]
fn system_boot_keys_match_the_pinned_sva_boot() {
    // `crates/core/tests/boot_keys.rs` pins the keys of this exact SVA boot;
    // the kernel's boot and `install_app` must produce the same bytes.
    let mut sys = System::boot(Mode::VirtualGhost);
    let mut vm = vg_core::SvaVm::boot_with_key_bits(
        vg_core::Protections::virtual_ghost(),
        &vg_crypto::Tpm::new(0x7a31),
        0x1337,
        256,
    );
    assert_eq!(sys.vm.keys.vg_public(), vm.keys.vg_public());
    sys.install_app("sshd", true, || Box::new(|_env| 0));
    let mut app_key = [0u8; 16];
    app_key.copy_from_slice(&Sha256::digest(b"app-key:sshd")[..16]);
    let expect = vm.sva_install_app("sshd", Sha256::digest(b"app-code:sshd"), app_key);
    assert_eq!(sys.binaries["sshd"].binary, expect);
}
