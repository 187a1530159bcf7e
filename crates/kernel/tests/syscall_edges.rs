//! System-call edge cases: bad descriptors, bad arguments, and boundary
//! conditions must return errors, never panic the kernel.

use vg_kernel::syscall::{EISDIR, O_APPEND, O_CREAT, O_TRUNC, SYS_READ};
use vg_kernel::{Mode, System, UserEnv};

fn run(body: impl Fn(&mut UserEnv) -> i32 + 'static) -> i32 {
    let body = std::rc::Rc::new(body);
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("edge", false, move || {
        let body = body.clone();
        Box::new(move |env| body(env))
    });
    let pid = sys.spawn("edge");
    sys.run_until_exit(pid)
}

#[test]
fn operations_on_bad_fds_fail_cleanly() {
    let code = run(|env| {
        let buf = env.mmap_anon(4096);
        if env.read(99, buf, 10) != -1 {
            return 1;
        }
        if env.write(99, buf, 10) != -1 {
            return 2;
        }
        if env.close(99) != -1 {
            return 3;
        }
        if env.lseek(99, 0, 0) != -1 {
            return 4;
        }
        if env.dup(99) != -1 {
            return 5;
        }
        // A closed fd behaves like a bad fd.
        let fd = env.open("/x", O_CREAT);
        env.close(fd);
        if env.read(fd, buf, 1) != -1 {
            return 6;
        }
        0
    });
    assert_eq!(code, 0);
}

#[test]
fn unknown_syscall_returns_error_and_logs() {
    let mut sys = System::boot(Mode::Native);
    sys.install_app("u", false, || {
        Box::new(|env| (env.syscall(9999, [0; 6]) != -1) as i32)
    });
    let pid = sys.spawn("u");
    assert_eq!(sys.run_until_exit(pid), 0);
    assert!(sys.log.iter().any(|l| l.contains("unknown syscall 9999")));
}

#[test]
fn open_without_create_fails_on_missing_file() {
    let code = run(|env| {
        if env.open("/does-not-exist", 0) != -1 {
            return 1;
        }
        if env.unlink("/does-not-exist") != -1 {
            return 2;
        }
        if env.stat("/does-not-exist") != -1 {
            return 3;
        }
        0
    });
    assert_eq!(code, 0);
}

#[test]
fn lseek_modes_and_bounds() {
    let code = run(|env| {
        let fd = env.open("/seek", O_CREAT);
        let buf = env.mmap_anon(4096);
        env.write_mem(buf, b"0123456789");
        env.write(fd, buf, 10);
        // SEEK_SET / SEEK_CUR / SEEK_END.
        if env.lseek(fd, 2, 0) != 2 {
            return 1;
        }
        if env.lseek(fd, 3, 1) != 5 {
            return 2;
        }
        if env.lseek(fd, -1, 2) != 9 {
            return 3;
        }
        // Negative resulting offset is refused.
        if env.lseek(fd, -100, 0) != -1 {
            return 4;
        }
        // Reading past EOF returns 0.
        env.lseek(fd, 100, 0);
        if env.read(fd, buf, 4) != 0 {
            return 5;
        }
        env.close(fd);
        0
    });
    assert_eq!(code, 0);
}

/// `O_APPEND` and `SEEK_END` take the file's size from the one stat whose
/// work goes uncharged (ROADMAP item 1). With the inode cached, `lseek`
/// costs the same for either whence, and `open(O_APPEND)` exactly what a
/// plain `open` costs. Charging that stat must re-pin this on purpose.
#[test]
fn file_size_stat_goes_uncharged() {
    let costs = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let out = costs.clone();
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_app("sized", false, move || {
        let out = out.clone();
        Box::new(move |env| {
            let buf = env.mmap_anon(4096);
            let fd = env.open("/sized", O_CREAT);
            env.write(fd, buf, 100);
            let ops: [&dyn Fn(&mut UserEnv) -> i64; 4] = [
                &|env| {
                    let f = env.open("/sized", 0);
                    env.close(f)
                },
                &|env| {
                    let f = env.open("/sized", O_APPEND);
                    env.close(f)
                },
                &move |env| env.lseek(fd, 0, 0),
                &move |env| env.lseek(fd, 0, 2),
            ];
            // The first round warms the caches and the TLB; the second
            // is measured.
            for _ in 0..2 {
                out.borrow_mut().clear();
                for op in ops {
                    let start = env.sys.machine.clock.cycles();
                    op(env);
                    out.borrow_mut()
                        .push(env.sys.machine.clock.cycles() - start);
                }
            }
            0
        })
    });
    let pid = sys.spawn("sized");
    assert_eq!(sys.run_until_exit(pid), 0);
    let c = costs.borrow();
    assert_eq!(c[1], c[0], "open(O_APPEND) + close vs open + close");
    assert_eq!(c[3], c[2], "lseek(SEEK_END) vs lseek(SEEK_SET)");
}

#[test]
fn read_into_unmapped_buffer_fails() {
    let code = run(|env| {
        let fd = env.open("/f", O_CREAT);
        let buf = env.mmap_anon(4096);
        env.write_mem(buf, b"abc");
        env.write(fd, buf, 3);
        env.lseek(fd, 0, 0);
        // A wild destination pointer (no region) must fail the copyout.
        let r = env.read(fd, 0x6000_0000, 3);
        env.close(fd);
        (r != -1) as i32
    });
    assert_eq!(code, 0);
}

#[test]
fn zero_length_io_is_harmless() {
    let code = run(|env| {
        let fd = env.open("/z", O_CREAT);
        let buf = env.mmap_anon(4096);
        if env.write(fd, buf, 0) != 0 {
            return 1;
        }
        if env.read(fd, buf, 0) != 0 {
            return 2;
        }
        env.close(fd);
        0
    });
    assert_eq!(code, 0);
}

#[test]
fn munmap_of_unknown_region_fails() {
    let code = run(|env| {
        if env.munmap(0x5555_0000) != -1 {
            return 1;
        }
        // Double munmap.
        let va = env.mmap_anon(4096);
        env.write_mem(va, b"x");
        if env.munmap(va) != 0 {
            return 2;
        }
        (env.munmap(va) != -1) as i32
    });
    assert_eq!(code, 0);
}

#[test]
fn wait_with_no_children_fails() {
    let code = run(|env| (env.wait() != -1) as i32);
    assert_eq!(code, 0);
}

#[test]
fn kill_to_nonexistent_pid_is_ignored() {
    let code = run(|env| {
        env.kill(4242, vg_kernel::SIGUSR1);
        0
    });
    assert_eq!(code, 0);
}

#[test]
fn signal_without_handler_is_default_ignored() {
    let code = run(|env| {
        let me = env.getpid() as u64;
        // No disposition registered: delivery is a no-op in this kernel.
        env.kill(me, vg_kernel::SIGUSR1);
        env.getpid();
        0
    });
    assert_eq!(code, 0);
}

#[test]
fn hooked_syscall_falls_back_after_module_fault() {
    // A module whose hook immediately faults (indirect call to garbage →
    // CFI violation under VG) must not take down the system: the syscall
    // fails, later syscalls work.
    let mut m = vg_ir::Module::new("crashy");
    let mut b = vg_ir::FunctionBuilder::new("hook_read", 3);
    b.call_indirect(0x1234.into(), &[]);
    m.push_function(b.ret(Some(0.into())));
    let hook_idx = m.find("hook_read").unwrap();
    let mut init = vg_ir::FunctionBuilder::new("init", 0);
    let addr = init.ext("kern.own_fn_addr", &[(hook_idx as i64).into()]);
    init.ext(
        "kern.hook_syscall",
        &[(SYS_READ as i64).into(), addr.into()],
    );
    m.push_function(init.ret(None));

    let mut sys = System::boot(Mode::VirtualGhost);
    sys.install_module(m).expect("loads");
    sys.install_app("resilient", false, || {
        Box::new(|env| {
            let fd = env.open("/r", O_CREAT);
            let buf = env.mmap_anon(4096);
            // The hooked read faults on its CFI check and returns -1…
            if env.read(fd, buf, 4) != -1 {
                return 1;
            }
            // …but the system and process live on; unhooked syscalls fine.
            let ok = env.getpid() > 0;
            env.close(fd);
            (!ok) as i32
        })
    });
    let pid = sys.spawn("resilient");
    assert_eq!(sys.run_until_exit(pid), 0);
    assert!(sys.machine.counters.cfi_violations > 0);
}

#[test]
fn mmap_file_pages_fault_in_correct_contents() {
    let mut sys = System::boot(Mode::VirtualGhost);
    // 3 pages of recognizable data.
    let mut data = vec![0u8; 3 * 4096];
    for (i, b) in data.iter_mut().enumerate() {
        *b = (i / 4096 + 1) as u8;
    }
    sys.write_file("/mapped", &data);
    sys.install_app("mapper", false, || {
        Box::new(|env| {
            let fd = env.open("/mapped", 0);
            let va = env.mmap_file(3 * 4096, fd, 0);
            // Touch pages out of order — each fault pulls the right block.
            if env.read_mem(va + 2 * 4096, 4) != [3, 3, 3, 3] {
                return 1;
            }
            if env.read_mem(va, 4) != [1, 1, 1, 1] {
                return 2;
            }
            if env.read_mem(va + 4096 + 100, 4) != [2, 2, 2, 2] {
                return 3;
            }
            // Faults happened (3 pages).
            if env.sys.machine.counters.page_faults < 3 {
                return 4;
            }
            env.munmap(va);
            env.close(fd);
            0
        })
    });
    let pid = sys.spawn("mapper");
    assert_eq!(sys.run_until_exit(pid), 0);
}

#[test]
fn mmap_file_with_offset_reads_from_offset() {
    let mut sys = System::boot(Mode::Native);
    let mut data = vec![0u8; 2 * 4096];
    data[4096] = 0xCC;
    sys.write_file("/off", &data);
    sys.install_app("m", false, || {
        Box::new(|env| {
            let fd = env.open("/off", 0);
            let va = env.mmap_file(4096, fd, 4096);
            let got = env.read_mem(va, 1);
            env.close(fd);
            (got != [0xCC]) as i32
        })
    });
    let pid = sys.spawn("m");
    assert_eq!(sys.run_until_exit(pid), 0);
}

#[test]
fn mmap_past_eof_reads_zeros() {
    let mut sys = System::boot(Mode::Native);
    sys.write_file("/short", b"tiny");
    sys.install_app("m", false, || {
        Box::new(|env| {
            let fd = env.open("/short", 0);
            let va = env.mmap_file(8192, fd, 0);
            // Page 0 starts with the file bytes, rest zeros…
            if env.read_mem(va, 4) != b"tiny" {
                return 1;
            }
            if env.read_mem(va + 4, 4) != [0, 0, 0, 0] {
                return 2;
            }
            // …and the page past EOF is all zeros.
            (env.read_mem(va + 4096, 8) != [0; 8]) as i32
        })
    });
    let pid = sys.spawn("m");
    assert_eq!(sys.run_until_exit(pid), 0);
}

/// Regression: a user process could `open` a directory and then `write`
/// over its records or `O_TRUNC` it, wiping every name in it (a write of 64
/// zero bytes to `/` made `/victim` unreachable). `write`, `writev` and
/// `open(O_TRUNC)` on a directory now fail with `EISDIR`, and the directory
/// keeps its records.
#[test]
fn writes_and_truncation_of_a_directory_fail_with_eisdir() {
    let code = run(|env| {
        let victim = env.open("/victim", O_CREAT);
        env.close(victim);
        env.mkdir("/d");
        let buf = env.mmap_anon(4096);
        env.write_mem(buf, &[0u8; 64]);
        let root = env.open("/", 0);
        if root < 0 {
            return 1;
        }
        if env.write(root, buf, 64) != EISDIR {
            return 2;
        }
        if env.writev(root, buf + 2048, &[(buf, 64)]) != EISDIR {
            return 3;
        }
        if env.open("/", O_TRUNC) != EISDIR || env.open("/d", O_TRUNC) != EISDIR {
            return 4;
        }
        // The records survive, and a regular file still truncates.
        let v = env.open("/victim", O_TRUNC);
        if v < 0 || env.stat("/d") < 0 {
            return 5;
        }
        if env.write(v, buf, 64) != 64 {
            return 6;
        }
        0
    });
    assert_eq!(code, 0);
}
