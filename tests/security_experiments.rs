//! The paper's Section 7 security experiments, end to end.
//!
//! A malicious kernel module (Kong-style rootkit) replaces the `read`
//! system-call handler and attacks `ssh-agent` while it reads from a file
//! descriptor. The paper's result matrix, reproduced here test by test:
//!
//! | attack                      | native FreeBSD | Virtual Ghost |
//! |-----------------------------|----------------|---------------|
//! | 1: direct memory read       | secret stolen  | defeated      |
//! | 2: signal-handler injection | secret stolen  | defeated      |
//! | IC hijack (§2.2.4)          | secret stolen  | defeated      |
//! | Iago mmap (§2.2.5)          | corrupts       | defeated      |
//!
//! In every Virtual Ghost case the victim continues executing unaffected
//! (exit code 0 = its secret was still intact when it exited).
//!
//! The `ssh-agent` rows run through `vg_bench::run_attack`, the runner that
//! `paper-tables security` prints, and take its one verdict, `stolen`: the
//! whole `AGENT_SECRET` in the kernel log or `/stolen`. The tests here add
//! what the table does not show: audit lines, flight-recorder sequences and
//! CFI counters.

use vg_apps::ssh::{install_ssh_agent, AGENT_SECRET};
use vg_bench::run_attack;
use vg_kernel::{Mode, System};

#[test]
fn attack1_direct_read_succeeds_natively() {
    let run = run_attack(Mode::Native, vg_attacks::direct_read_module());
    assert!(
        run.stolen,
        "paper: attack 1 steals the secret on the baseline system"
    );
    assert_eq!(
        run.code, 0,
        "the theft is silent — the victim never notices"
    );
}

#[test]
fn attack1_direct_read_defeated_under_vg() {
    let run = run_attack(Mode::VirtualGhost, vg_attacks::direct_read_module());
    assert!(
        !run.stolen,
        "paper: the masked load reads kernel garbage instead"
    );
    assert_eq!(run.code, 0, "ssh-agent continues execution unaffected");
}

#[test]
fn attack2_signal_injection_succeeds_natively() {
    let run = run_attack(Mode::Native, vg_attacks::signal_inject_module());
    assert!(
        run.stolen,
        "paper: injected handler exfiltrates the secret natively"
    );
    assert_eq!(run.code, 0);
}

#[test]
fn attack2_signal_injection_defeated_under_vg() {
    let run = run_attack(Mode::VirtualGhost, vg_attacks::signal_inject_module());
    assert!(
        !run.stolen,
        "paper: sva.ipush.function refuses the unregistered target"
    );
    assert_eq!(run.code, 0, "ssh-agent continues execution unaffected");
}

#[test]
fn attack2_leaves_audit_trail_under_vg() {
    let run = run_attack(Mode::VirtualGhost, vg_attacks::signal_inject_module());
    let sys = &run.sys;
    assert!(
        sys.log
            .iter()
            .any(|l| l.contains("blocked signal dispatch")),
        "the refused dispatch is observable: {:?}",
        sys.log
    );
}

#[test]
fn attack2_flight_recorder_captures_denied_dispatch_sequence() {
    // The always-on security flight recorder must hold the exact sequence
    // of denied operations: every blocked dispatch is an IcPermitDenied for
    // the victim process at the injected handler's address, in the same
    // order as the audit log.
    let run = run_attack(Mode::VirtualGhost, vg_attacks::signal_inject_module());
    let (sys, pid) = (&run.sys, run.pid);

    // Ground truth from the kernel log: "vg: blocked signal dispatch to
    // 0x... for pid N: ...".
    let logged_addrs: Vec<u64> = sys
        .log
        .iter()
        .filter(|l| l.contains("blocked signal dispatch"))
        .map(|l| {
            let hex = l
                .split("to 0x")
                .nth(1)
                .and_then(|r| r.split(' ').next())
                .expect("log line carries the handler address");
            u64::from_str_radix(hex, 16).expect("hex address")
        })
        .collect();
    assert!(!logged_addrs.is_empty(), "the attack fired at least once");

    let denials: Vec<_> = sys.machine.trace.flight.denials().collect();
    assert_eq!(
        denials.len(),
        logged_addrs.len(),
        "one flight-recorder entry per blocked dispatch"
    );
    for (op, addr) in denials.iter().zip(&logged_addrs) {
        assert_eq!(op.kind, vg_machine::DenialKind::IcPermitDenied);
        assert_eq!(op.proc_id, pid, "denial attributed to the victim");
        assert_eq!(op.addr, *addr, "denial records the injected handler");
    }
}

#[test]
fn ic_hijack_succeeds_natively() {
    let run = run_attack(Mode::Native, vg_attacks::ic_hijack_module());
    assert!(
        run.stolen,
        "rewriting the saved PC redirects the victim into exploit code"
    );
}

#[test]
fn ic_hijack_defeated_under_vg() {
    let run = run_attack(Mode::VirtualGhost, vg_attacks::ic_hijack_module());
    assert!(
        !run.stolen,
        "the Interrupt Context lives in SVA memory: kern.write_ic_rip fails"
    );
    assert_eq!(run.code, 0);
}

#[test]
fn fptr_hijack_succeeds_natively() {
    let run = run_attack(Mode::Native, vg_attacks::fptr_hijack_module());
    assert!(
        run.stolen,
        "corrupted function pointer reaches injected kernel-context code"
    );
}

#[test]
fn fptr_hijack_defeated_by_cfi_under_vg() {
    let run = run_attack(Mode::VirtualGhost, vg_attacks::fptr_hijack_module());
    assert!(
        !run.stolen,
        "CFI check rejects the unlabeled, out-of-kernel target"
    );
    assert_eq!(
        run.code, 0,
        "the victim survives; only the kernel thread was terminated"
    );
}

#[test]
fn fptr_hijack_terminates_kernel_thread_under_vg() {
    let run = run_attack(Mode::VirtualGhost, vg_attacks::fptr_hijack_module());
    let sys = &run.sys;
    assert!(
        sys.machine.counters.cfi_violations > 0,
        "CFI violation recorded"
    );
    assert!(
        sys.log.iter().any(|l| l.contains("kernel module fault")),
        "thread termination logged: {:?}",
        sys.log
    );
}

#[test]
fn fptr_hijack_flight_recorder_captures_cfi_violations() {
    let run = run_attack(Mode::VirtualGhost, vg_attacks::fptr_hijack_module());
    let (sys, pid) = (&run.sys, run.pid);

    let denials: Vec<_> = sys.machine.trace.flight.denials().collect();
    assert_eq!(
        denials.len() as u64,
        sys.machine.counters.cfi_violations,
        "one flight-recorder entry per counted CFI violation"
    );
    assert!(!denials.is_empty(), "the hijack fired at least once");
    for op in &denials {
        assert_eq!(op.kind, vg_machine::DenialKind::CfiViolation);
        assert_eq!(
            op.proc_id, pid,
            "violation attributed to the victim's syscall"
        );
        assert_ne!(op.addr, 0, "the corrupted target address is recorded");
    }
}

#[test]
fn iago_mmap_defeated_by_return_masking() {
    // The hooked mmap returns a pointer into the victim's own ghost memory,
    // hoping the victim scribbles over its secrets (§2.2.5). The ghosting
    // app's instrumented mmap wrapper masks the return value (§5).
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("victim", true, || {
        Box::new(|env| {
            let ghost = env.allocgm(1).expect("ghost page");
            env.write_mem(ghost, b"iago-target-secret");
            env.sys.set_module_config(5, ghost as i64); // attacker recon
                                                        // Victim now mmaps a buffer — the hostile kernel returns the
                                                        // ghost address; the wrapper's mask displaces it.
            let buf = env.mmap_anon(4096);
            assert_ne!(buf, ghost, "mask must displace the evil pointer");
            // Writing through the returned pointer must not touch the ghost
            // page. (The displaced pointer is unmapped → the write faults;
            // we only check the secret afterwards.)
            (env.read_mem(ghost, 18) != b"iago-target-secret") as i32
        })
    });
    sys.install_module(vg_attacks::iago_mmap_module())
        .expect("loads");
    let pid = sys.spawn("victim");
    assert_eq!(
        sys.run_until_exit(pid),
        0,
        "secret survives the Iago attempt"
    );
}

#[test]
fn uninstrumented_rootkit_cannot_load_under_vg() {
    // The classic binary rootkit: skip the Virtual Ghost compiler entirely.
    // "Traditional exploits, such as those that inject binary code, are not
    // even expressible" (§1).
    let mut sys = System::boot(Mode::VirtualGhost);
    let err = sys.install_raw_module(vg_attacks::direct_read_module());
    assert!(
        err.is_err(),
        "unsigned/uninstrumented module must be refused"
    );
}

#[test]
fn legitimate_signals_still_work_under_vg_with_rootkit_present() {
    // The permit list blocks *unregistered* targets only: the agent's own
    // handler (registered through sva.permitFunction) keeps working even
    // while the hostile module is loaded.
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_module(vg_attacks::signal_inject_module())
        .expect("loads");
    let fired = std::rc::Rc::new(std::cell::Cell::new(false));
    let f2 = fired.clone();
    sys.install_app("victim", true, move || {
        let f = f2.clone();
        Box::new(move |env| {
            let f = f.clone();
            env.signal(vg_kernel::SIGUSR1, move |_env, _sig| f.set(true));
            let me = env.getpid() as u64;
            env.kill(me, vg_kernel::SIGUSR1);
            0
        })
    });
    let pid = sys.spawn("victim");
    assert_eq!(sys.run_until_exit(pid), 0);
    assert!(fired.get(), "registered handler delivered normally");
}

#[test]
fn secret_stays_out_of_swap_and_disk_under_vg() {
    // Beyond the paper's two attacks: nothing the agent did should have
    // landed plaintext on the platter.
    let mut sys = System::boot(Mode::VirtualGhost);
    install_ssh_agent(&mut sys, true, 2);
    let pid = sys.spawn("ssh-agent");
    assert_eq!(sys.run_until_exit(pid), 0);
    for block in 0..sys.machine.disk.num_blocks() as u64 {
        let data = sys.machine.disk.peek(block);
        assert!(
            !data.windows(AGENT_SECRET.len()).any(|w| w == AGENT_SECRET),
            "secret found on disk block {block}"
        );
    }
}

#[test]
fn dma_exposure_defeated_under_vg() {
    // §2.2.1 third vector: "direct an I/O device to use DMA to copy data to
    // or from memory that the system software cannot read directly."
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_module(vg_attacks::dma_expose_module())
        .expect("loads");
    sys.install_app("victim", true, || {
        Box::new(|env| {
            let ghost = env.allocgm(1).expect("ghost page");
            env.write_mem(ghost, b"dma-target");
            // Tell the "attacker" which frame backs the page (the OS knows:
            // it donated the frame).
            let vpn = ghost / 4096;
            let pfn = env
                .sys
                .vm
                .ghost
                .frame_at(vg_core::ProcId(env.pid), vpn)
                .expect("frame");
            env.sys.set_module_config(7, pfn.0 as i64);
            // Trigger the hooked read.
            let fd = env.open("/f", vg_kernel::syscall::O_CREAT);
            let buf = env.mmap_anon(4096);
            env.read(fd, buf, 4);
            env.close(fd);
            // Neither the API route nor the raw port route exposed the frame.
            (env.sys.machine.iommu.is_mapped(pfn)) as i32
        })
    });
    let pid = sys.spawn("victim");
    assert_eq!(
        sys.run_until_exit(pid),
        0,
        "ghost frame never became DMA-visible"
    );
}

#[test]
fn dma_exposure_succeeds_natively() {
    let mut sys = System::boot(Mode::Native);
    sys.install_raw_module(vg_attacks::dma_expose_module())
        .expect("loads");
    sys.install_app("victim", false, || {
        Box::new(|env| {
            // Natively the secret lives in a regular user frame; pick it.
            let buf = env.mmap_anon(4096);
            env.write_mem(buf, b"dma-target");
            let pa = env.sys.user_resolve_pub(env.pid, buf).expect("mapped");
            env.sys.set_module_config(7, pa.pfn().0 as i64);
            let fd = env.open("/f", vg_kernel::syscall::O_CREAT);
            env.read(fd, buf + 2048, 4);
            env.close(fd);
            let pfn = pa.pfn();
            (!env.sys.machine.iommu.is_mapped(pfn)) as i32
        })
    });
    let pid = sys.spawn("victim");
    assert_eq!(
        sys.run_until_exit(pid),
        0,
        "native kernel exposes the frame to DMA"
    );
}
