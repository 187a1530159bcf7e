//! Per-fault-class regression tests (mirroring the rootkit tests'
//! flight-recorder style): each class is armed with a pinpoint trigger and
//! the exact degradation contract is asserted — retry-and-recover for
//! transient device errors, `EIO`/`ENOMEM` error returns for persistent
//! ones, and a fault-kill (exit 137 + `DenialKind::FaultKill` record,
//! never a panic, never a plaintext exposure) for unrecoverable ones.

use vg_kernel::fs::{FsWork, InodeKind, VgFs};
use vg_kernel::syscall::{EIO, O_APPEND, O_CREAT, O_TRUNC, SYS_BRK, SYS_PIPE};
use vg_kernel::system::DmaDisk;
use vg_kernel::{Mode, System, UserEnv};
use vg_machine::{DenialKind, FaultClass, FaultPlan, Outcome, Trigger};

/// Arms `sys` with a single-spec plan.
fn arm(sys: &mut System, class: FaultClass, trigger: Trigger) {
    sys.machine
        .faults
        .arm(FaultPlan::new(0xfa117).with(class, trigger));
}

#[test]
fn device_io_transient_retries_and_recovers() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("writer", false, || {
        Box::new(|env| {
            let buf = env.mmap_anon(4096);
            env.write_mem(buf, &[9u8; 512]);
            let fd = env.open("/f", O_CREAT);
            env.write(fd, buf, 512);
            env.close(fd);
            // fsync pushes dirty blocks through the DMA driver; the first
            // device transfer fails once and must be retried transparently.
            (env.fsync() <= 0) as i32
        })
    });
    arm(&mut sys, FaultClass::DeviceIo, Trigger::Nth(1));
    let pid = sys.spawn("writer");
    assert_eq!(sys.run_until_exit(pid), 0, "fsync succeeded after retry");
    let m = &sys.machine.faults;
    assert_eq!(m.injected(FaultClass::DeviceIo), 1);
    assert_eq!(m.count(FaultClass::DeviceIo, Outcome::Retried), 1);
    assert_eq!(m.count(FaultClass::DeviceIo, Outcome::Recovered), 1);
    assert_eq!(m.count(FaultClass::DeviceIo, Outcome::ProcKilled), 0);
    assert_eq!(sys.machine.trace.flight.len(), 0, "no denial recorded");
}

#[test]
fn device_io_persistent_surfaces_as_eio() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("writer", false, || {
        Box::new(|env| {
            let buf = env.mmap_anon(4096);
            env.write_mem(buf, &[9u8; 512]);
            let fd = env.open("/f", O_CREAT);
            env.write(fd, buf, 512);
            env.close(fd);
            // The device stays dead: all bounded retries are consumed and
            // the syscall reports EIO instead of panicking the kernel.
            (env.fsync() != -5) as i32
        })
    });
    // Probability 1.0: every device transfer attempt fails.
    arm(
        &mut sys,
        FaultClass::DeviceIo,
        Trigger::Probability(u32::MAX),
    );
    let pid = sys.spawn("writer");
    assert_eq!(sys.run_until_exit(pid), 0, "fsync returned EIO");
    let m = &sys.machine.faults;
    assert!(
        m.injected(FaultClass::DeviceIo) >= 4,
        "all retries consumed"
    );
    assert_eq!(m.count(FaultClass::DeviceIo, Outcome::Recovered), 0);
}

/// A system whose `/f` holds 100 bytes and whose device is dead. The
/// buffer cache is cold except for the blocks a lookup of `/f` reads, so
/// path resolution still succeeds, but `/f`'s inode (in the second
/// inode-table block, behind 40 padding files) must come from the disk.
fn dead_disk_cold_inode() -> System {
    let mut sys = System::boot(Mode::VirtualGhost);
    {
        let (fs, machine, vm) = (&mut sys.fs, &mut sys.machine, &mut sys.vm);
        let mut dev = DmaDisk { machine, vm };
        let mut w = FsWork::default();
        for i in 0..40 {
            fs.create(&mut dev, &format!("/pad{i}"), InodeKind::File, &mut w)
                .unwrap();
        }
        let ino = fs.create(&mut dev, "/f", InodeKind::File, &mut w).unwrap();
        assert!(ino.0 >= 32, "inode {ino:?} sits in the second table block");
        fs.write(&mut dev, ino, 0, &[7; 100], &mut w).unwrap();
        fs.sync(&mut dev).unwrap();
        // Remount with the boot geometry: an empty cache.
        *fs = VgFs::mount(&mut dev, 4096);
        fs.lookup(&mut dev, "/f", &mut w).unwrap();
    }
    arm(
        &mut sys,
        FaultClass::DeviceIo,
        Trigger::Probability(u32::MAX),
    );
    sys
}

/// Runs `check` as an app on `sys`; it returns 0 when all is well.
fn run_app(sys: &mut System, check: fn(&mut UserEnv) -> i32) -> i32 {
    sys.install_app("app", false, move || Box::new(check));
    let pid = sys.spawn("app");
    sys.run_until_exit(pid)
}

/// Opens `/f` with `flags` on a dead device and expects `EIO` with no
/// descriptor allocated: the next successful open gets the same fd a
/// plain open got before.
fn open_fails_with_eio(env: &mut UserEnv, flags: u64) -> i32 {
    let lowest = env.open("/f", 0);
    env.close(lowest);
    let r = env.open("/f", flags);
    let next = env.open("/f", 0);
    (lowest < 0) as i32 | ((r != EIO) as i32) << 1 | ((next != lowest) as i32) << 2
}

#[test]
fn device_io_o_append_size_read_fails_with_eio() {
    // Offset 0 would make the next append overwrite the head of the file.
    let mut sys = dead_disk_cold_inode();
    let code = run_app(&mut sys, |env| open_fails_with_eio(env, O_APPEND));
    assert_eq!(
        code, 0,
        "O_APPEND open on a dead device returned EIO, no fd"
    );
}

#[test]
fn device_io_o_trunc_failure_fails_with_eio() {
    // The file was not truncated, so no descriptor may be handed out.
    let mut sys = dead_disk_cold_inode();
    let code = run_app(&mut sys, |env| open_fails_with_eio(env, O_TRUNC));
    assert_eq!(code, 0, "O_TRUNC open on a dead device returned EIO, no fd");
}

#[test]
fn device_io_seek_end_fails_with_eio() {
    let mut sys = dead_disk_cold_inode();
    let code = run_app(&mut sys, |env| {
        let fd = env.open("/f", 0);
        let end = env.lseek(fd, 0, 2); // SEEK_END needs the size
        let set = env.lseek(fd, 5, 0); // SEEK_SET does not
        (fd < 0) as i32 | ((end != EIO) as i32) << 1 | ((set != 5) as i32) << 2
    });
    assert_eq!(code, 0, "SEEK_END on a dead device returned EIO");
}

#[test]
fn swap_corrupt_kills_process_never_panics_never_exposes() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("ghosty", true, || {
        Box::new(|env| {
            let va = env.allocgm(1).expect("ghost page");
            env.write_mem(va, b"corrupt-me-secret");
            let pid = env.pid;
            env.sys.kernel_swap_out_ghost(pid, 1);
            // Touching the page swaps it back in; the armed SwapCorrupt
            // trigger flips a stored-ciphertext bit first, so the VM's
            // integrity check refuses the page and the kernel kills us.
            let _ = env.read_mem(va, 17);
            0 // overridden to 137 by the fault kill
        })
    });
    arm(&mut sys, FaultClass::SwapCorrupt, Trigger::Nth(1));
    let pid = sys.spawn("ghosty");
    assert_eq!(sys.run_until_exit(pid), 137, "fault-killed exit code");
    let denials: Vec<_> = sys.machine.trace.flight.denials().collect();
    // Exact sequence: the VM's integrity refusal, then the kernel's kill.
    assert_eq!(denials.len(), 2, "{denials:?}");
    assert_eq!(denials[0].kind, DenialKind::SwapIntegrity);
    assert_eq!(denials[1].kind, DenialKind::FaultKill);
    assert_eq!(denials[1].detail, "unrecoverable ghost swap-in failure");
    let m = &sys.machine.faults;
    assert_eq!(m.injected(FaultClass::SwapCorrupt), 1);
    assert_eq!(m.count(FaultClass::SwapCorrupt, Outcome::ProcKilled), 1);
    // The secret never reappears in physical memory.
    for f in 0..sys.machine.phys.total_frames() as u64 {
        let pfn = vg_machine::Pfn(f);
        if sys.machine.phys.is_allocated(pfn) {
            let data = sys.machine.phys.read_frame(pfn);
            assert!(
                !data.windows(17).any(|w| w == b"corrupt-me-secret"),
                "plaintext exposed in frame {f}"
            );
        }
    }
}

#[test]
fn swap_truncate_kills_process_with_flight_record() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("ghosty", true, || {
        Box::new(|env| {
            let va = env.allocgm(1).expect("ghost page");
            env.write_mem(va, b"truncated away");
            let pid = env.pid;
            env.sys.kernel_swap_out_ghost(pid, 1);
            let _ = env.read_mem(va, 8);
            0
        })
    });
    arm(&mut sys, FaultClass::SwapTruncate, Trigger::Nth(1));
    let pid = sys.spawn("ghosty");
    assert_eq!(sys.run_until_exit(pid), 137);
    let last = sys.machine.trace.flight.denials().last().expect("recorded");
    assert_eq!(last.kind, DenialKind::FaultKill);
    // The injection is attributed to the truncate class; the kill itself is
    // classified by what the VM reported (an integrity failure).
    assert_eq!(sys.machine.faults.injected(FaultClass::SwapTruncate), 1);
    assert_eq!(
        sys.machine
            .faults
            .count(FaultClass::SwapCorrupt, Outcome::ProcKilled),
        1
    );
}

#[test]
fn tpm_failure_degrades_spawn_to_exit_127() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("ghosty", true, || Box::new(|_env| 0));
    // The key-load TPM op fails at exec: the process cannot get its key,
    // so spawn installs a stub that exits 127 instead of panicking.
    arm(&mut sys, FaultClass::TpmFail, Trigger::Nth(1));
    let pid = sys.spawn("ghosty");
    assert_eq!(sys.run_until_exit(pid), 127);
    assert!(
        sys.log.iter().any(|l| l.contains("refused at spawn")),
        "{:?}",
        sys.log
    );
    assert_eq!(sys.machine.faults.injected(FaultClass::TpmFail), 1);
}

#[test]
fn frame_exhaustion_surfaces_as_enomem_from_brk() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("grower", false, || {
        Box::new(|env| {
            // First brk hits the injected exhaustion and must see ENOMEM;
            // the retry succeeds (the trigger is one-shot).
            let first = env.syscall(SYS_BRK, [0x3000_0000, 0, 0, 0, 0, 0]);
            if first != -12 {
                return 1;
            }
            let second = env.syscall(SYS_BRK, [0x3000_0000, 0, 0, 0, 0, 0]);
            (second < 0) as i32
        })
    });
    arm(&mut sys, FaultClass::FrameExhaust, Trigger::Nth(1));
    let pid = sys.spawn("grower");
    assert_eq!(sys.run_until_exit(pid), 0);
    assert_eq!(sys.machine.faults.injected(FaultClass::FrameExhaust), 1);
}

#[test]
fn kernel_alloc_failure_surfaces_as_enomem_from_pipe() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("piper", false, || {
        Box::new(|env| {
            if env.syscall(SYS_PIPE, [0; 6]) != -12 {
                return 1;
            }
            let (r, w) = env.pipe();
            (r < 0 || w < 0) as i32
        })
    });
    arm(&mut sys, FaultClass::KernelAlloc, Trigger::Nth(1));
    let pid = sys.spawn("piper");
    assert_eq!(sys.run_until_exit(pid), 0);
    assert_eq!(sys.machine.faults.injected(FaultClass::KernelAlloc), 1);
}

#[test]
fn spurious_irq_perturbs_only_trap_counters() {
    let run = |armed: bool| {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("idle", false, || {
            Box::new(|env| {
                for _ in 0..5 {
                    env.getpid();
                }
                0
            })
        });
        if armed {
            arm(&mut sys, FaultClass::SpuriousIrq, Trigger::Nth(1));
        }
        let pid = sys.spawn("idle");
        assert_eq!(sys.run_until_exit(pid), 0);
        sys
    };
    let base = run(false);
    let hit = run(true);
    assert_eq!(hit.machine.faults.injected(FaultClass::SpuriousIrq), 1);
    assert!(
        hit.machine.counters.traps > base.machine.counters.traps,
        "the spurious interrupt took a trap"
    );
    assert_eq!(
        hit.machine.counters.syscalls, base.machine.counters.syscalls,
        "no syscall was fabricated"
    );
}

#[test]
fn irq_storm_charges_a_burst_of_traps() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("idle", false, || Box::new(|env| (env.getpid() <= 0) as i32));
    arm(&mut sys, FaultClass::IrqStorm, Trigger::Nth(1));
    let before_arm_traps = sys.machine.counters.traps;
    let pid = sys.spawn("idle");
    assert_eq!(sys.run_until_exit(pid), 0);
    assert_eq!(sys.machine.faults.injected(FaultClass::IrqStorm), 1);
    assert!(
        sys.machine.counters.traps >= before_arm_traps + 32,
        "storm delivered 32 interrupts"
    );
}

#[test]
fn bit_flip_in_regular_frames_never_panics_the_kernel() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("toucher", false, || {
        Box::new(|env| {
            let buf = env.mmap_anon(4096 * 4);
            for i in 0..4u64 {
                env.write_mem(buf + i * 4096, &[0xaa; 64]);
            }
            for _ in 0..8 {
                env.getpid(); // trap boundaries where flips arrive
            }
            let _ = env.read_mem(buf, 64);
            0
        })
    });
    arm(
        &mut sys,
        FaultClass::BitFlip,
        Trigger::Probability(u32::MAX),
    );
    let pid = sys.spawn("toucher");
    assert_eq!(sys.run_until_exit(pid), 0, "no panic, no kill");
    assert!(sys.machine.faults.injected(FaultClass::BitFlip) > 0);
}

#[test]
fn disk_transient_swap_out_retries_then_gives_up_cleanly() {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("ghosty", true, || {
        Box::new(|env| {
            let va = env.allocgm(2).expect("ghost pages");
            env.write_mem(va, b"stay resident");
            let pid = env.pid;
            // Swap device is persistently failing: eviction gives up and
            // the pages stay resident — reads still work.
            let evicted = env.sys.kernel_swap_out_ghost(pid, 2);
            if evicted != 0 {
                return 1;
            }
            (env.read_mem(va, 13) != b"stay resident") as i32
        })
    });
    arm(
        &mut sys,
        FaultClass::DiskTransient,
        Trigger::Probability(u32::MAX),
    );
    let pid = sys.spawn("ghosty");
    assert_eq!(sys.run_until_exit(pid), 0);
    let m = &sys.machine.faults;
    assert!(m.injected(FaultClass::DiskTransient) >= 4);
    assert!(m.count(FaultClass::DiskTransient, Outcome::Retried) >= 3);
    assert_eq!(m.count(FaultClass::DiskTransient, Outcome::Recovered), 0);
}
