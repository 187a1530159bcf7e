//! # vg-kernel
//!
//! A FreeBSD-like kernel ported to the SVA-OS / Virtual Ghost interface of
//! `vg-core`, plus the [`System`] harness that runs it on a `vg-machine`.
//!
//! The kernel is the paper's *untrusted* component. It owns processes,
//! scheduling, the [`fs`] filesystem, [`net`]working, and loadable
//! [`module`]s — but it manipulates hardware only through the SVA-OS
//! operations: page-table updates via `sva_map_page`/`sva_unmap_page`,
//! interrupted state via the interrupt-context API, DMA via the checked
//! IOMMU calls. Boot the same kernel in [`system::Mode::Native`] and it is
//! the baseline FreeBSD analog (all checks off, kernel-visible interrupt
//! contexts, raw module loading); boot it in
//! [`system::Mode::VirtualGhost`] and every paper defense is live.
//!
//! Applications (see [`program::UserEnv`]) run as simulated processes over
//! real page tables; `vg-apps` builds the OpenSSH/thttpd/Postmark workloads
//! on this interface.
//!
//! ## Example
//!
//! ```
//! use vg_kernel::{Mode, System};
//!
//! let mut sys = System::boot(Mode::VirtualGhost);
//! sys.install_app("hello", /*ghost heap*/ true, || {
//!     Box::new(|env| {
//!         let secret = env.allocgm(1).expect("ghost page");
//!         env.write_mem(secret, b"kernel-invisible");
//!         (env.read_mem(secret, 16) != b"kernel-invisible") as i32
//!     })
//! });
//! let pid = sys.spawn("hello");
//! assert_eq!(sys.run_until_exit(pid), 0);
//! ```

pub mod costs;
mod dmap;
pub mod fs;
pub mod mem;
pub mod module;
pub mod net;
pub mod program;
pub mod swapper;
pub mod syscall;
pub mod system;

pub use fs::{FsError, Ino, InodeKind, VgFs};
pub use net::NetMode;
pub use program::{AppMain, SigHandlerFn, UserEnv};
pub use system::{ChildKind, Fd, Mode, Pid, Proc, ProcState, SchedRun, System, SIGUSR1};

impl System {
    /// Boots a full Virtual Ghost system (convenience).
    pub fn boot_virtual_ghost() -> Self {
        System::boot(Mode::VirtualGhost)
    }

    /// Boots the native baseline system (convenience).
    pub fn boot_native() -> Self {
        System::boot(Mode::Native)
    }

    /// Installs and spawns a tiny demonstration program that stores `secret`
    /// in ghost memory, reads it back, and exits 0 on success. Used by the
    /// crate-level quickstart.
    pub fn spawn_ghost_echo(&mut self, secret: &[u8]) -> Pid {
        let secret = secret.to_vec();
        self.install_app("ghost-echo", true, move || {
            let secret = secret.clone();
            Box::new(move |env| {
                let Ok(va) = env.allocgm(1) else {
                    return 2;
                };
                env.write_mem(va, &secret);
                let back = env.read_mem(va, secret.len());
                if back == secret {
                    0
                } else {
                    1
                }
            })
        });
        self.spawn("ghost-echo")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A read that fault-kills its process part-way (no frame for the
    /// second page) still returns `len` bytes: what it read, then zeros.
    #[test]
    fn fault_killed_read_mem_returns_len_zero_padded_bytes() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use vg_machine::{FaultClass, FaultPlan, Trigger, PAGE_SIZE};
        let got = Rc::new(RefCell::new(Vec::new()));
        let slot = got.clone();
        let mut sys = System::boot_virtual_ghost();
        sys.install_app("reader", false, move || {
            let slot = slot.clone();
            Box::new(move |env| {
                let buf = env.mmap_anon(2 * PAGE_SIZE as usize);
                env.write_mem(buf, &[7u8; PAGE_SIZE as usize]);
                env.sys
                    .machine
                    .faults
                    .arm(FaultPlan::new(1).with(FaultClass::FrameExhaust, Trigger::Nth(1)));
                *slot.borrow_mut() = env.read_mem(buf + PAGE_SIZE - 96, 200);
                assert!(env.sys.is_fault_killed(env.pid));
                0
            })
        });
        let pid = sys.spawn("reader");
        sys.run_until_exit(pid);
        let mut want = vec![7u8; 96];
        want.resize(200, 0);
        assert_eq!(*got.borrow(), want);
    }

    #[test]
    fn boot_and_run_ghost_echo_under_vg() {
        let mut sys = System::boot_virtual_ghost();
        let pid = sys.spawn_ghost_echo(b"top secret");
        assert_eq!(sys.run_until_exit(pid), 0);
        assert_eq!(sys.exit_status(pid), Some(0));
    }

    #[test]
    fn native_boot_runs_plain_programs() {
        let mut sys = System::boot_native();
        sys.install_app("hello", false, || {
            Box::new(|env| {
                let fd = env.open("/hello.txt", crate::syscall::O_CREAT);
                assert!(fd >= 0);
                let buf = env.mmap_anon(4096);
                env.write_mem(buf, b"hi there");
                assert_eq!(env.write(fd, buf, 8), 8);
                env.lseek(fd, 0, 0);
                let out = env.mmap_anon(4096);
                assert_eq!(env.read(fd, out, 8), 8);
                assert_eq!(env.read_mem(out, 8), b"hi there");
                env.close(fd);
                0
            })
        });
        let pid = sys.spawn("hello");
        assert_eq!(sys.run_until_exit(pid), 0);
    }

    #[test]
    fn clock_advances_more_under_vg_for_same_workload() {
        let run = |mode: Mode| {
            let mut sys = System::boot(mode);
            sys.install_app("w", false, || {
                Box::new(|env| {
                    for i in 0..20 {
                        let path = format!("/f{i}");
                        let fd = env.open(&path, crate::syscall::O_CREAT);
                        env.close(fd);
                        env.unlink(&path);
                    }
                    0
                })
            });
            let pid = sys.spawn("w");
            let t0 = sys.machine.clock.cycles();
            sys.run_until_exit(pid);
            sys.machine.clock.cycles() - t0
        };
        let native = run(Mode::Native);
        let vg = run(Mode::VirtualGhost);
        let ratio = vg as f64 / native as f64;
        assert!(ratio > 2.0, "VG/native ratio {ratio}");
    }
}

#[cfg(test)]
mod ipc_tests {
    use super::*;

    #[test]
    fn pipe_between_parent_and_child() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("piper", false, || {
            Box::new(|env| {
                let (r, w) = env.pipe();
                assert!(r >= 0 && w >= 0 && r != w);
                let buf = env.mmap_anon(4096);
                env.write_mem(buf, b"from parent");
                // Child inherits both ends, reads the message, echoes a
                // transformed reply through a second pipe.
                let (r2, w2) = env.pipe();
                let child = env.fork(ChildKind::Run(Box::new(move |env| {
                    let b = env.mmap_anon(4096);
                    let n = env.read(r, b, 64);
                    if n != 11 {
                        return 1;
                    }
                    let mut msg = env.read_mem(b, n as usize);
                    msg.make_ascii_uppercase();
                    env.write_mem(b, &msg);
                    env.write(w2, b, msg.len());
                    0
                })));
                assert!(child > 0);
                env.write(w, buf, 11);
                let status = env.wait();
                if status & 0xff != 0 {
                    return 2;
                }
                let n = env.read(r2, buf, 64);
                if n != 11 {
                    return 3;
                }
                (env.read_mem(buf, 11) != b"FROM PARENT") as i32
            })
        });
        let pid = sys.spawn("piper");
        assert_eq!(sys.run_until_exit(pid), 0);
        assert!(
            sys.pipes.is_empty(),
            "pipes reclaimed after both ends closed"
        );
    }

    #[test]
    fn pipe_eof_and_epipe_semantics() {
        let mut sys = System::boot(Mode::Native);
        sys.install_app("eof", false, || {
            Box::new(|env| {
                let (r, w) = env.pipe();
                let buf = env.mmap_anon(4096);
                // Empty with a live writer: EAGAIN.
                if env.read(r, buf, 8) != crate::syscall::EAGAIN {
                    return 1;
                }
                env.close(w);
                // Empty with no writers: EOF (0).
                if env.read(r, buf, 8) != 0 {
                    return 2;
                }
                // Writing with no readers: EPIPE (-1).
                let (r2, w2) = env.pipe();
                env.close(r2);
                env.write_mem(buf, b"x");
                if env.write(w2, buf, 1) != -1 {
                    return 3;
                }
                0
            })
        });
        let pid = sys.spawn("eof");
        assert_eq!(sys.run_until_exit(pid), 0);
    }

    #[test]
    fn dup_shares_pipe_end() {
        let mut sys = System::boot(Mode::Native);
        sys.install_app("dup", false, || {
            Box::new(|env| {
                let (r, w) = env.pipe();
                let w2 = env.dup(w);
                env.close(w);
                // The duplicate keeps the pipe writable.
                let buf = env.mmap_anon(4096);
                env.write_mem(buf, b"hi");
                if env.write(w2, buf, 2) != 2 {
                    return 1;
                }
                env.close(w2);
                if env.read(r, buf, 8) != 2 {
                    return 2;
                }
                // All writers gone now: EOF.
                (env.read(r, buf, 8) != 0) as i32
            })
        });
        let pid = sys.spawn("dup");
        assert_eq!(sys.run_until_exit(pid), 0);
    }

    #[test]
    fn readdir_lists_created_files() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("ls", false, || {
            Box::new(|env| {
                env.mkdir("/docs");
                for name in ["alpha", "beta", "gamma"] {
                    let fd = env.open(&format!("/docs/{name}"), crate::syscall::O_CREAT);
                    env.close(fd);
                }
                let mut names = env.readdir("/docs");
                names.sort();
                (names != ["alpha", "beta", "gamma"]) as i32
            })
        });
        let pid = sys.spawn("ls");
        assert_eq!(sys.run_until_exit(pid), 0);
    }
}

#[cfg(test)]
mod thread_tests {
    use super::*;

    #[test]
    fn threads_share_ghost_memory() {
        // §4.6.2: ghost memory behaves as shared memory among a process's
        // threads — and remains invisible to the kernel throughout.
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("threads", true, || {
            Box::new(|env| {
                let ghost = env.allocgm(1).expect("ghost page");
                env.write_mem(ghost, b"written by main thread");
                let seen = env.spawn_thread(|env| {
                    // The second thread reads and updates the same page.
                    if env.read_mem(ghost, 22) != b"written by main thread" {
                        return 1;
                    }
                    env.write_mem(ghost, b"updated by child thrd!");
                    0
                });
                if seen != 0 {
                    return 1;
                }
                (env.read_mem(ghost, 22) != b"updated by child thrd!") as i32
            })
        });
        let pid = sys.spawn("threads");
        assert_eq!(sys.run_until_exit(pid), 0);
    }

    #[test]
    fn thread_creation_charges_and_counts() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("t", false, || {
            Box::new(|env| {
                let before = env.sys.machine.counters.syscalls;
                env.spawn_thread(|_env| 0);
                (env.sys.machine.counters.syscalls <= before) as i32
            })
        });
        let pid = sys.spawn("t");
        assert_eq!(sys.run_until_exit(pid), 0);
    }

    #[test]
    fn threads_can_make_syscalls() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("tsys", false, || {
            Box::new(|env| {
                env.spawn_thread(|env| {
                    let fd = env.open("/from-thread", crate::syscall::O_CREAT);
                    let buf = env.mmap_anon(4096);
                    env.write_mem(buf, b"thread io");
                    env.write(fd, buf, 9);
                    env.close(fd);
                    0
                })
            })
        });
        let pid = sys.spawn("tsys");
        assert_eq!(sys.run_until_exit(pid), 0);
        assert_eq!(sys.read_file("/from-thread").unwrap(), b"thread io");
    }
}

#[cfg(test)]
mod brk_tests {
    use super::*;
    use crate::mem::HEAP_BASE;
    use vg_machine::PAGE_SIZE;

    #[test]
    fn brk_shrink_unmaps_and_frees_heap_pages() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("shrink", false, || {
            Box::new(|env| {
                env.brk(HEAP_BASE + 3 * PAGE_SIZE);
                env.write_mem(HEAP_BASE, b"one");
                env.write_mem(HEAP_BASE + PAGE_SIZE, b"two");
                env.write_mem(HEAP_BASE + 2 * PAGE_SIZE, b"three");
                let touched = env.sys.machine.phys.free_frames();
                if env.brk(HEAP_BASE) != HEAP_BASE as i64 {
                    return 1;
                }
                // The three materialized heap frames went back to the pool…
                if env.sys.machine.phys.free_frames() != touched + 3 {
                    return 2;
                }
                // …and the heap is gone from the address space.
                let pid = env.pid;
                if env.sys.peek_user(pid, HEAP_BASE, 1).is_some() {
                    return 3;
                }
                0
            })
        });
        let pid = sys.spawn("shrink");
        assert_eq!(sys.run_until_exit(pid), 0);
    }

    #[test]
    fn brk_regrow_after_shrink_is_zero_filled() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("regrow", false, || {
            Box::new(|env| {
                env.brk(HEAP_BASE + PAGE_SIZE);
                env.write_mem(HEAP_BASE, b"stale secret");
                env.brk(HEAP_BASE);
                env.brk(HEAP_BASE + PAGE_SIZE);
                // The regrown page demand-faults a fresh zeroed frame, not
                // the page with the old contents.
                (env.read_mem(HEAP_BASE, 12) != vec![0u8; 12]) as i32
            })
        });
        let pid = sys.spawn("regrow");
        assert_eq!(sys.run_until_exit(pid), 0);
    }
}

#[cfg(test)]
mod rusage_tests {
    use super::*;

    #[test]
    fn cpu_time_attributed_to_the_right_process() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("light", false, || {
            Box::new(|env| (env.getpid() <= 0) as i32)
        });
        sys.install_app("heavy", false, || {
            Box::new(|env| {
                let buf = env.mmap_anon(4096);
                env.write_mem(buf, &[1u8; 4096]);
                for i in 0..30 {
                    let p = format!("/busy{i}");
                    let fd = env.open(&p, crate::syscall::O_CREAT);
                    env.write(fd, buf, 4096);
                    env.close(fd);
                    env.unlink(&p);
                }
                0
            })
        });
        let light = sys.spawn("light");
        sys.run_until_exit(light);
        let heavy = sys.spawn("heavy");
        sys.run_until_exit(heavy);
        let lc = sys.proc_cycles(light);
        let hc = sys.proc_cycles(heavy);
        assert!(lc > 0, "light process accrued time");
        assert!(
            hc > lc * 10,
            "heavy fs work dominates: light {lc}, heavy {hc}"
        );
    }
}

#[cfg(test)]
mod walk_tests {
    //! Every caller of the user-span walker over the span shapes that move
    //! its page arithmetic. Each must return the right bytes and result and
    //! charge exactly its own cost: `copy_cost` for the kernel copies,
    //! `len / 8 + 1` for the user's own accesses, nothing for `peek_user`,
    //! plus, for a span that runs into unmapped memory, the one failed page
    //! fault that ends the walk.
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use vg_machine::{FaultClass, PAGE_SIZE};

    const P: u64 = PAGE_SIZE;

    /// `(shape, offset into a two-page mapping, length, bytes before the
    /// walk stops)`. `mmap` leaves an unmapped guard page after the
    /// mapping, so the last shape runs 100 bytes and then fails.
    const SHAPES: [(&str, u64, usize, usize); 4] = [
        ("mid-page start", 100, 200, 200),
        ("page crossing", P - 100, 300, 300),
        ("end at a page end", 2 * P - 256, 256, 256),
        ("crossing into unmapped", 2 * P - 100, 300, 100),
    ];

    fn pattern(i: u64) -> u8 {
        (i.wrapping_mul(31) + 7) as u8
    }

    /// The payload of a panic `catch_unwind` caught.
    fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
        *e.downcast::<String>().expect("formatted panic")
    }

    #[test]
    fn walker_callers_over_four_span_shapes() {
        let mut sys = System::boot_virtual_ghost();
        sys.install_app("walk", false, || {
            Box::new(|env| {
                let pid = env.pid;
                let base = env.mmap_anon(2 * P as usize);
                let fill: Vec<u8> = (0..2 * P).map(pattern).collect();
                env.write_mem(base, &fill);
                let costs = &env.sys.machine.costs;
                let (mask_memcpy, per_byte) = (costs.mask_memcpy, costs.copy_per_byte);
                let clock = |env: &UserEnv| env.sys.machine.clock.cycles();

                // What one failed fault costs: `peek_user` charges nothing else.
                let t = clock(env);
                assert_eq!(env.sys.peek_user(pid, base + 2 * P, 1), None);
                let fault = clock(env) - t;
                assert!(fault > 0);

                for (shape, off, len, reach) in SHAPES {
                    let va = base + off;
                    let whole = reach == len;
                    let extra = if whole { 0 } else { fault };
                    let span = off as usize..off as usize + reach;
                    let src: Vec<u8> = (0..len as u64).map(|i| !pattern(i)).collect();
                    let mut after_write = fill.clone();
                    after_write[span.clone()].copy_from_slice(&src[..reach]);
                    let copy = mask_memcpy + len as u64 * per_byte;
                    let user = len as u64 / 8 + 1;

                    // copyin_into appends what it walked; false on failure.
                    let mut out = vec![0xee];
                    let t = clock(env);
                    assert_eq!(
                        env.sys.copyin_into(pid, va, len, &mut out),
                        whole,
                        "{shape}"
                    );
                    assert_eq!(clock(env) - t, copy + extra, "{shape}: copyin cycles");
                    assert_eq!(out[1..], fill[span.clone()], "{shape}: copyin bytes");

                    // copyout writes what it walked; false on failure.
                    let t = clock(env);
                    assert_eq!(env.sys.copyout(pid, va, &src), whole, "{shape}");
                    assert_eq!(clock(env) - t, copy + extra, "{shape}: copyout cycles");
                    let got = env.sys.peek_user(pid, base, 2 * P as usize);
                    assert_eq!(got.as_ref(), Some(&after_write), "{shape}: copyout bytes");
                    env.write_mem(base, &fill);

                    // peek_user: the bytes, or None.
                    let t = clock(env);
                    let got = env.sys.peek_user(pid, va, len);
                    assert_eq!(clock(env) - t, extra, "{shape}: peek cycles");
                    assert_eq!(got, whole.then(|| fill[span.clone()].to_vec()), "{shape}");

                    // The user's own accesses: the bytes, or a segfault at
                    // the first byte the walk could not reach.
                    let stop = va + reach as u64;
                    let mut out = vec![0xee];
                    let t = clock(env);
                    let r = catch_unwind(AssertUnwindSafe(|| env.read_mem_into(va, len, &mut out)));
                    assert_eq!(clock(env) - t, user + extra, "{shape}: read_mem cycles");
                    assert_eq!(out[1..], fill[span.clone()], "{shape}: read_mem bytes");
                    let t = clock(env);
                    let w = catch_unwind(AssertUnwindSafe(|| env.write_mem(va, &src)));
                    assert_eq!(clock(env) - t, user + extra, "{shape}: write_mem cycles");
                    let got = env.sys.peek_user(pid, base, 2 * P as usize);
                    assert_eq!(got.as_ref(), Some(&after_write), "{shape}: write_mem bytes");
                    env.write_mem(base, &fill);
                    if whole {
                        assert!(r.is_ok() && w.is_ok(), "{shape}");
                    } else {
                        let r = panic_text(r.unwrap_err());
                        assert_eq!(r, format!("segfault: read of {stop:#x} by pid {pid}"));
                        let w = panic_text(w.unwrap_err());
                        assert_eq!(w, format!("segfault: write to {stop:#x} by pid {pid}"));
                    }
                }

                // A fault-killed process's accesses degrade instead: the
                // read zero-fills what it could not reach, the write stops.
                let (_, off, len, reach) = SHAPES[3];
                let va = base + off;
                env.sys
                    .fault_kill(pid, FaultClass::FrameExhaust, va, "test kill");
                let mut want = fill[off as usize..off as usize + reach].to_vec();
                want.resize(len, 0);
                assert_eq!(env.read_mem(va, len), want);
                env.write_mem(va, &vec![1u8; len]);
                let got = env.sys.peek_user(pid, va, reach);
                assert_eq!(got, Some(vec![1u8; reach]));
                0
            })
        });
        let pid = sys.spawn("walk");
        sys.run_until_exit(pid);
        assert!(sys.is_fault_killed(pid), "the body ran to its end");
    }

    /// A kernel walk of a ghost address that skipped `sandbox_mask` (the
    /// copy a kernel bug or a hostile kernel would make) reaches the
    /// ghost frame only through the direct map. Under Virtual Ghost the
    /// door refuses it with one recorded denial and no bytes; natively
    /// the secret comes back.
    #[test]
    fn unmasked_kernel_walk_of_ghost_memory_is_refused() {
        for (mut sys, leaks) in [
            (System::boot_virtual_ghost(), false),
            (System::boot_native(), true),
        ] {
            sys.install_app("ghosting", true, move || {
                Box::new(move |env| {
                    let ghost = env.allocgm(1).expect("ghost page");
                    env.write_mem(ghost + 8, b"ghost secret");
                    let pid = env.pid;
                    let frame = env.sys.user_resolve_pub(pid, ghost).expect("mapped").pfn();
                    let flight = &env.sys.machine.trace.flight;
                    let before = flight.total();
                    let mut out = Vec::new();
                    let walked = env.sys.walk_user::<dmap::Kernel>(
                        pid,
                        ghost + 8,
                        12,
                        vg_machine::AccessKind::Read,
                        |phys, pfn, off, range| {
                            out.extend_from_slice(phys.bytes(pfn, off, range.len()))
                        },
                    );
                    let flight = &env.sys.machine.trace.flight;
                    if leaks {
                        assert_eq!(walked, Ok(()));
                        assert_eq!(out, b"ghost secret");
                        assert_eq!(flight.total(), before);
                    } else {
                        assert_eq!(walked, Err(0));
                        assert!(out.is_empty());
                        assert_eq!(flight.total(), before + 1);
                        let d = flight.denials().last().expect("a denial");
                        assert_eq!(
                            (d.kind, d.addr),
                            (vg_machine::DenialKind::DirectMap, frame.0)
                        );
                    }
                    0
                })
            });
            let pid = sys.spawn("ghosting");
            assert_eq!(sys.run_until_exit(pid), 0);
        }
    }
}
