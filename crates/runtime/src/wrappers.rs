//! The system-call wrapper library (paper §6, the 667-line wrapper).
//!
//! Under Virtual Ghost the instrumented kernel *cannot* dereference ghost
//! pointers — `copyin`/`copyout` mask them out of the ghost partition — so
//! a ghosting application must stage I/O through traditional memory. These
//! wrappers do that transparently: data headed to `write`/`send` is copied
//! ghost → staging first; data from `read`/`recv` lands in staging and is
//! copied into ghost memory after.
//!
//! For non-ghost pointers the wrappers pass straight through with no copy —
//! the paper's point that "applications can pass non-ghost memory to system
//! calls without the performance overheads of data copying" (§1), and the
//! optimization applied to stdout/stderr buffers in §6.
//!
//! The wrappers never trust a returned count beyond what they asked for. A
//! hostile kernel that claims a `read` or `recv` moved more bytes than
//! requested is making an Iago return (§2.2.5): copying that many staging
//! bytes would write OS-chosen data past the end of the ghost buffer. Such a
//! call fails with `-1` and writes nothing into ghost memory, and no wrapper
//! counts more progress than it requested. The check is host-side only and
//! charges no cycles, so honest runs are unchanged.

use vg_kernel::UserEnv;
use vg_machine::layout::Region;
use vg_machine::VAddr;

/// Size of the traditional staging buffer.
pub const STAGING_LEN: usize = 64 * 1024;

/// Whether a kernel-returned count `n` claims more than the `asked` bytes:
/// an Iago return the wrappers refuse.
fn overclaims(n: i64, asked: usize) -> bool {
    n > asked as i64
}

/// Wrapper-library state: one staging buffer in traditional memory.
#[derive(Debug)]
pub struct Wrappers {
    staging: u64,
}

impl Wrappers {
    /// Initializes the wrapper library: maps the staging buffer.
    pub fn new(env: &mut UserEnv) -> Self {
        // The staging buffer must be traditional memory even in a ghosting
        // process: plain anonymous mmap.
        let staging = env.mmap_anon(STAGING_LEN);
        Wrappers { staging }
    }

    /// The staging buffer address (tests use this).
    pub fn staging(&self) -> u64 {
        self.staging
    }

    fn is_ghost(va: u64) -> bool {
        Region::of(VAddr(va)) == Region::Ghost
    }

    /// `write(fd, buf, len)` with ghost staging.
    pub fn write(&self, env: &mut UserEnv, fd: i64, buf: u64, len: usize) -> i64 {
        if !Self::is_ghost(buf) {
            return env.write(fd, buf, len);
        }
        let mut done = 0usize;
        while done < len {
            let take = (len - done).min(STAGING_LEN);
            // Ghost → staging copy runs as application code (full access).
            env.copy_mem(self.staging, buf + done as u64, take);
            let n = env.write(fd, self.staging, take);
            if overclaims(n, take) {
                return -1;
            }
            if n <= 0 {
                return if done > 0 { done as i64 } else { n };
            }
            done += n as usize;
            if (n as usize) < take {
                break;
            }
        }
        done as i64
    }

    /// `read(fd, buf, len)` with ghost staging.
    pub fn read(&self, env: &mut UserEnv, fd: i64, buf: u64, len: usize) -> i64 {
        if !Self::is_ghost(buf) {
            return env.read(fd, buf, len);
        }
        let mut done = 0usize;
        while done < len {
            let take = (len - done).min(STAGING_LEN);
            let n = env.read(fd, self.staging, take);
            if overclaims(n, take) {
                return -1;
            }
            if n <= 0 {
                return if done > 0 { done as i64 } else { n };
            }
            env.copy_mem(buf + done as u64, self.staging, n as usize);
            done += n as usize;
            if (n as usize) < take {
                break;
            }
        }
        done as i64
    }

    /// `send` with ghost staging: at most [`STAGING_LEN`] bytes per call.
    pub fn send(&self, env: &mut UserEnv, fd: i64, buf: u64, len: usize) -> i64 {
        if !Self::is_ghost(buf) {
            return env.send(fd, buf, len);
        }
        let take = len.min(STAGING_LEN);
        env.copy_mem(self.staging, buf, take);
        let n = env.send(fd, self.staging, take);
        if overclaims(n, take) {
            return -1;
        }
        n
    }

    /// `recv` with ghost staging.
    pub fn recv(&self, env: &mut UserEnv, fd: i64, buf: u64, len: usize) -> i64 {
        if !Self::is_ghost(buf) {
            return env.recv(fd, buf, len);
        }
        let take = len.min(STAGING_LEN);
        let n = env.recv(fd, self.staging, take);
        if overclaims(n, take) {
            return -1;
        }
        if n > 0 {
            env.copy_mem(buf, self.staging, n as usize);
        }
        n
    }

    /// Convenience: writes a whole Rust-side byte slice to `fd` via the
    /// staging buffer (models data the app just computed).
    pub fn write_bytes(&self, env: &mut UserEnv, fd: i64, data: &[u8]) -> i64 {
        let mut done = 0;
        while done < data.len() {
            let take = (data.len() - done).min(STAGING_LEN);
            env.write_mem(self.staging, &data[done..done + take]);
            let n = env.write(fd, self.staging, take);
            if overclaims(n, take) {
                return -1;
            }
            if n <= 0 {
                return done as i64;
            }
            done += n as usize;
        }
        done as i64
    }

    /// Convenience: reads up to `len` bytes from `fd` into a Rust-side
    /// buffer via staging.
    pub fn read_bytes(&self, env: &mut UserEnv, fd: i64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let take = (len - out.len()).min(STAGING_LEN);
            let n = env.read(fd, self.staging, take);
            if n <= 0 || overclaims(n, take) {
                break;
            }
            out.extend(env.read_mem(self.staging, n as usize));
            if (n as usize) < take {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_kernel::{syscall::O_CREAT, Mode, System};

    #[test]
    fn ghost_write_fails_without_wrapper_under_vg() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("t", true, || {
            Box::new(|env| {
                let ghost = env.allocgm(1).expect("ghost page");
                env.write_mem(ghost, b"secret!!");
                let fd = env.open("/direct", O_CREAT);
                // Raw syscall with a ghost pointer: the instrumented kernel
                // masks it; the write fails (or writes junk), never leaking.
                let n = env.write(fd, ghost, 8);
                env.close(fd);
                (n <= 0) as i32
            })
        });
        let pid = sys.spawn("t");
        assert_eq!(
            sys.run_until_exit(pid),
            1,
            "raw ghost write must fail under VG"
        );
        let f = sys.read_file("/direct").unwrap_or_default();
        assert!(!f.windows(8).any(|w| w == b"secret!!"), "no leak to disk");
    }

    #[test]
    fn wrapper_stages_ghost_data_correctly() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("t", true, || {
            Box::new(|env| {
                let w = Wrappers::new(env);
                let ghost = env.allocgm(1).expect("ghost page");
                env.write_mem(ghost, b"ghost payload");
                let fd = env.open("/wrapped", O_CREAT);
                assert_eq!(w.write(env, fd, ghost, 13), 13);
                env.lseek(fd, 0, 0);
                let back = env.allocgm(1).expect("ghost page");
                assert_eq!(w.read(env, fd, back, 13), 13);
                assert_eq!(env.read_mem(back, 13), b"ghost payload");
                env.close(fd);
                0
            })
        });
        let pid = sys.spawn("t");
        assert_eq!(sys.run_until_exit(pid), 0);
        let f = sys.read_file("/wrapped").unwrap();
        assert_eq!(&f, b"ghost payload");
    }

    #[test]
    fn non_ghost_buffers_pass_through_without_copy_overhead() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("t", false, || {
            Box::new(|env| {
                let w = Wrappers::new(env);
                let buf = env.mmap_anon(4096);
                env.write_mem(buf, b"plain");
                let fd = env.open("/plain", O_CREAT);
                assert_eq!(w.write(env, fd, buf, 5), 5);
                env.close(fd);
                0
            })
        });
        let pid = sys.spawn("t");
        assert_eq!(sys.run_until_exit(pid), 0);
        assert_eq!(sys.read_file("/plain").unwrap(), b"plain");
    }

    /// Regression: a ghost `send` longer than the staging buffer stages
    /// only what it sends. It used to copy all `len` bytes into staging,
    /// running past its end into the next mapping (or, as here, the guard
    /// page before it: a segfault).
    #[test]
    fn long_ghost_send_stays_inside_staging() {
        const CANARY: &[u8] = b"mapping after the staging buffer";
        const LEN: usize = STAGING_LEN + 100;
        let mut sys = System::boot(Mode::VirtualGhost);
        let flow = sys.wire_connect(7200).expect("flow");
        sys.install_app("t", true, || {
            Box::new(|env| {
                let w = Wrappers::new(env);
                let canary = env.mmap_anon(4096);
                assert!(canary > w.staging(), "the canary maps after staging");
                env.write_mem(canary, CANARY);
                let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
                let ghost = env.allocgm((LEN as u64).div_ceil(4096)).expect("ghost");
                env.write_mem(ghost, &data);
                let l = env.socket();
                env.bind(l, 7200);
                env.listen(l);
                let c = env.accept(l);
                assert_eq!(w.send(env, c, ghost, LEN), STAGING_LEN as i64);
                assert_eq!(env.read_mem(canary, CANARY.len()), CANARY);
                0
            })
        });
        let pid = sys.spawn("t");
        assert_eq!(sys.run_until_exit(pid), 0);
        let sent = sys.wire_recv(flow);
        let want: Vec<u8> = (0..STAGING_LEN).map(|i| (i % 251) as u8).collect();
        assert_eq!(sent, want, "exactly the first STAGING_LEN bytes go out");
    }

    #[test]
    fn large_transfers_chunk_through_staging() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.install_app("t", true, || {
            Box::new(|env| {
                let w = Wrappers::new(env);
                let len = STAGING_LEN * 2 + 100;
                let pages = (len as u64).div_ceil(4096);
                let ghost = env.allocgm(pages).expect("ghost pages");
                let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                env.write_mem(ghost, &data);
                let fd = env.open("/big", O_CREAT);
                assert_eq!(w.write(env, fd, ghost, len), len as i64);
                env.close(fd);
                0
            })
        });
        let pid = sys.spawn("t");
        assert_eq!(sys.run_until_exit(pid), 0);
        let f = sys.read_file("/big").unwrap();
        assert_eq!(f.len(), STAGING_LEN * 2 + 100);
        assert_eq!(f[STAGING_LEN], (STAGING_LEN % 251) as u8);
    }
}
