//! System-call numbers and the dispatcher.
//!
//! Numbers follow FreeBSD where it has them. The dispatcher first consults
//! the module hook table — loadable kernel modules may replace handlers
//! (how the paper's rootkit hooks `read`) — then falls through to the
//! built-in implementation. Hooked handlers run through the interpreter
//! over the kernel memory bus, so their instrumentation (or lack of it)
//! is exactly what decides what they can touch.

use crate::costs;
use crate::fs::{FsError, FsWork, Ino, InodeKind};
use crate::mem::RegionKind;
use crate::program::User;
use crate::system::{Fd, Pid, System};
use vg_machine::mmu::AccessKind;
use vg_machine::{FaultClass, Pfn};

/// `ENOMEM` as a syscall return: the kernel could not find memory (frame
/// pool dry, kernel allocation failed). Never a panic.
pub const ENOMEM: i64 = -12;
/// `EIO` as a syscall return: the device stayed broken through the
/// driver's bounded retries.
pub const EIO: i64 = -5;
/// `EISDIR` as a syscall return: `write`, `writev` or `open(O_TRUNC)`
/// named a directory, whose records only the kernel may change.
pub const EISDIR: i64 = -21;

/// The errno a failed filesystem call returns at the syscall boundary.
fn errno(e: FsError) -> i64 {
    match e {
        FsError::Io => EIO,
        FsError::IsDir => EISDIR,
        _ => -1,
    }
}

/// Would-block: no data (or pending connection) available right now. The
/// simulated kernel is run-to-completion and can never sleep, so would-block
/// conditions surface immediately on blocking and non-blocking fds alike.
/// Distinct from `0` (EOF: peer closed) and `-1` (error: bad fd/state).
pub const EAGAIN: i64 = -2;

/// `exit`.
pub const SYS_EXIT: u32 = 1;
/// `fork`.
pub const SYS_FORK: u32 = 2;
/// `read`.
pub const SYS_READ: u32 = 3;
/// `write`.
pub const SYS_WRITE: u32 = 4;
/// `open`.
pub const SYS_OPEN: u32 = 5;
/// `close`.
pub const SYS_CLOSE: u32 = 6;
/// `wait4`.
pub const SYS_WAIT4: u32 = 7;
/// `unlink`.
pub const SYS_UNLINK: u32 = 10;
/// `dup`.
pub const SYS_DUP: u32 = 41;
/// `pipe`.
pub const SYS_PIPE: u32 = 42;
/// `getpid`.
pub const SYS_GETPID: u32 = 20;
/// `accept`.
pub const SYS_ACCEPT: u32 = 30;
/// `kill`.
pub const SYS_KILL: u32 = 37;
/// `sigaction` (simplified `signal`).
pub const SYS_SIGACTION: u32 = 48;
/// `exec`.
pub const SYS_EXEC: u32 = 59;
/// `munmap`.
pub const SYS_MUNMAP: u32 = 73;
/// `fcntl` (non-blocking flag control).
pub const SYS_FCNTL: u32 = 92;
/// `select`.
pub const SYS_SELECT: u32 = 93;
/// `fsync`.
pub const SYS_FSYNC: u32 = 95;
/// `socket`.
pub const SYS_SOCKET: u32 = 97;
/// `connect` (to an off-machine peer).
pub const SYS_CONNECT: u32 = 98;
/// `sigreturn`.
pub const SYS_SIGRETURN: u32 = 103;
/// `bind`.
pub const SYS_BIND: u32 = 104;
/// `listen`.
pub const SYS_LISTEN: u32 = 106;
/// `send` (on a connected socket).
pub const SYS_SEND: u32 = 113;
/// `recv` (on a connected socket).
pub const SYS_RECV: u32 = 114;
/// `readv` (vectored gather read on a connected socket).
pub const SYS_READV: u32 = 120;
/// `writev` (vectored batch write on a connected socket).
pub const SYS_WRITEV: u32 = 121;
/// `poll` (readiness over an explicit fd list).
pub const SYS_POLL: u32 = 209;
/// `mkdir`.
pub const SYS_MKDIR: u32 = 136;
/// `stat`.
pub const SYS_STAT: u32 = 188;
/// `lseek`.
pub const SYS_LSEEK: u32 = 199;
/// `brk` (via `break`).
pub const SYS_BRK: u32 = 17;
/// `getdents` (directory listing).
pub const SYS_GETDENTS: u32 = 272;
/// `mmap`.
pub const SYS_MMAP: u32 = 477;

/// Stable human-readable name for a syscall number, used as the trace span
/// name and the metrics-histogram key for per-syscall latency.
pub fn syscall_name(num: u32) -> &'static str {
    match num {
        SYS_EXIT => "sys.exit",
        SYS_FORK => "sys.fork",
        SYS_READ => "sys.read",
        SYS_WRITE => "sys.write",
        SYS_OPEN => "sys.open",
        SYS_CLOSE => "sys.close",
        SYS_WAIT4 => "sys.wait4",
        SYS_UNLINK => "sys.unlink",
        SYS_DUP => "sys.dup",
        SYS_PIPE => "sys.pipe",
        SYS_GETPID => "sys.getpid",
        SYS_ACCEPT => "sys.accept",
        SYS_KILL => "sys.kill",
        SYS_SIGACTION => "sys.sigaction",
        SYS_EXEC => "sys.exec",
        SYS_MUNMAP => "sys.munmap",
        SYS_SELECT => "sys.select",
        SYS_FSYNC => "sys.fsync",
        SYS_SOCKET => "sys.socket",
        SYS_CONNECT => "sys.connect",
        SYS_SIGRETURN => "sys.sigreturn",
        SYS_BIND => "sys.bind",
        SYS_LISTEN => "sys.listen",
        SYS_SEND => "sys.send",
        SYS_RECV => "sys.recv",
        SYS_READV => "sys.readv",
        SYS_WRITEV => "sys.writev",
        SYS_POLL => "sys.poll",
        SYS_FCNTL => "sys.fcntl",
        SYS_MKDIR => "sys.mkdir",
        SYS_STAT => "sys.stat",
        SYS_LSEEK => "sys.lseek",
        SYS_BRK => "sys.brk",
        SYS_GETDENTS => "sys.getdents",
        SYS_MMAP => "sys.mmap",
        _ => "sys.unknown",
    }
}

/// Open flag: create the file if absent.
pub const O_CREAT: u64 = 0x1;
/// Open flag: truncate to zero length.
pub const O_TRUNC: u64 = 0x2;
/// Open flag: position writes at end of file.
pub const O_APPEND: u64 = 0x4;

impl System {
    /// Dispatches one system call (already inside the trap window).
    pub(crate) fn dispatch_syscall(&mut self, pid: Pid, num: u32, args: [u64; 6]) -> i64 {
        // Module hooks take precedence (rootkit attack surface).
        if let Some(&handler) = self.hooks.get(&num) {
            return self.run_module_hook(pid, handler, &args);
        }
        self.builtin_syscall(pid, num, args)
    }

    pub(crate) fn builtin_syscall(&mut self, pid: Pid, num: u32, args: [u64; 6]) -> i64 {
        match num {
            SYS_GETPID => {
                costs::NULL_SYSCALL.charge(&mut self.machine);
                pid as i64
            }
            SYS_OPEN => self.sys_open(pid, args[1]),
            SYS_CLOSE => self.sys_close(pid, args[0]),
            SYS_READ => self.sys_read(pid, args[0], args[1], args[2] as usize),
            SYS_WRITE => self.sys_write(pid, args[0], args[1], args[2] as usize),
            SYS_UNLINK => self.sys_unlink(),
            SYS_DUP => self.sys_dup(pid, args[0]),
            SYS_PIPE => self.sys_pipe(pid),
            SYS_GETDENTS => self.sys_getdents(pid, args[1], args[2] as usize),
            SYS_STAT => self.sys_stat(),
            SYS_LSEEK => self.sys_lseek(pid, args[0], args[1] as i64, args[2]),
            SYS_MKDIR => self.sys_mkdir(),
            SYS_FSYNC => self.sys_fsync(),
            SYS_MMAP => self.sys_mmap(pid, args[0] as usize, args[1] as i64, args[2]),
            SYS_MUNMAP => self.sys_munmap(pid, args[0]),
            SYS_BRK => self.sys_brk(pid, args[0]),
            SYS_SELECT => self.sys_select(pid, args[0] as usize),
            SYS_KILL => {
                costs::KILL.charge(&mut self.machine);
                self.post_signal(args[0], args[1] as i32);
                0
            }
            SYS_SIGACTION => {
                costs::SIG_INSTALL.charge(&mut self.machine);
                let (sig, handler) = (args[0] as i32, args[1]);
                let Some(proc) = self.procs.get_mut(&pid) else {
                    return -1;
                };
                proc.sig_disposition.insert(sig, handler);
                0
            }
            SYS_FORK => {
                let child = self
                    .pending_child
                    .take()
                    .unwrap_or(crate::system::ChildKind::Exit(0));
                self.sys_fork(pid, child)
            }
            SYS_EXEC => self.sys_exec(pid),
            SYS_WAIT4 => self.sys_wait(pid),
            SYS_SOCKET => self.sys_socket(pid),
            SYS_CONNECT => self.sys_connect(pid, args[0] as u16),
            SYS_BIND => self.sys_bind(pid, args[0], args[1] as u16),
            SYS_LISTEN => self.sys_listen(pid, args[0]),
            SYS_ACCEPT => self.sys_accept(pid, args[0]),
            SYS_SEND => self.sys_send(pid, args[0], args[1], args[2] as usize),
            SYS_RECV => self.sys_recv(pid, args[0], args[1], args[2] as usize),
            SYS_READV => self.sys_readv(pid, args[0], args[1], args[2] as usize),
            SYS_WRITEV => self.sys_writev(pid, args[0], args[1], args[2] as usize),
            SYS_POLL => self.sys_poll(pid, args[0], args[1] as usize),
            SYS_FCNTL => self.sys_fcntl(pid, args[0], args[1]),
            _ => {
                self.log.push(format!("unknown syscall {num}"));
                -1
            }
        }
    }

    fn take_path(&mut self) -> Option<String> {
        // Path strings travel in a staging area; the kernel "copies them in"
        // (charged like copyinstr).
        let p = self.syscall_path.take()?;
        crate::mem::copy_cost(&mut self.machine, p.len() as u64 + 1);
        Some(p)
    }

    pub(crate) fn alloc_fd(&mut self, pid: Pid, fd: Fd) -> i64 {
        let Some(proc) = self.procs.get_mut(&pid) else {
            return -1;
        };
        for (i, slot) in proc.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(fd);
                return i as i64;
            }
        }
        proc.fds.push(Some(fd));
        (proc.fds.len() - 1) as i64
    }

    fn fd_of(&self, pid: Pid, fd: u64) -> Option<Fd> {
        self.procs.get(&pid)?.fds.get(fd as usize)?.clone()
    }

    // ---- file syscalls -----------------------------------------------------

    fn sys_open(&mut self, pid: Pid, flags: u64) -> i64 {
        costs::OPEN.charge(&mut self.machine);
        let Some(path) = self.take_path() else {
            return -1;
        };
        let result = self.with_fs(|fs, dev, w| {
            let result = match fs.lookup(dev, &path, w) {
                Ok(ino) if flags & O_TRUNC != 0 => fs.truncate_file(dev, ino, w).map(|()| ino),
                Ok(ino) => Ok(ino),
                Err(FsError::NotFound) if flags & O_CREAT != 0 => {
                    fs.create(dev, &path, InodeKind::File, w)
                }
                Err(e) => Err(e),
            };
            // Creation's fixed cost lands before the door charges the work.
            if flags & O_CREAT != 0 {
                costs::CREATE_EXTRA.charge(dev.machine);
            }
            result
        });
        match result {
            Ok(ino) => {
                let off = if flags & O_APPEND != 0 {
                    self.file_size(ino)
                } else {
                    Some(0)
                };
                match off {
                    Some(off) => self.alloc_fd(pid, Fd::File { ino, off }),
                    None => EIO,
                }
            }
            Err(e) => errno(e),
        }
    }

    /// Size of file `ino` for an `O_APPEND` or `SEEK_END` offset: `None`
    /// when the device failed, 0 for a freed inode (an unlinked file).
    fn file_size(&mut self, ino: Ino) -> Option<u64> {
        self.with_fs(|fs, dev, _| {
            // The one filesystem call whose work goes uncharged: its stat
            // fills a throwaway record, not the door's (ROADMAP item 1).
            match fs.stat(dev, ino, &mut FsWork::default()) {
                Ok((size, _)) => Some(size),
                Err(FsError::Io) => None,
                Err(_) => Some(0),
            }
        })
    }

    /// Moves file fd `fd`'s offset `n` bytes forward.
    fn advance_off(&mut self, pid: Pid, fd: u64, n: u64) {
        if let Some(Some(Fd::File { off, .. })) = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.fds.get_mut(fd as usize))
        {
            *off += n;
        }
    }

    fn sys_close(&mut self, pid: Pid, fd: u64) -> i64 {
        costs::CLOSE.charge(&mut self.machine);
        let Some(proc) = self.procs.get_mut(&pid) else {
            return -1;
        };
        match proc.fds.get_mut(fd as usize) {
            Some(slot @ Some(_)) => {
                let closed = slot.take();
                match closed {
                    Some(Fd::Sock { id }) => self.release_socket(id),
                    Some(ref f @ Fd::PipeR { id }) | Some(ref f @ Fd::PipeW { id }) => {
                        let f = f.clone();
                        self.release_pipe_end(&f, id);
                    }
                    _ => {}
                }
                0
            }
            _ => -1,
        }
    }

    fn sys_dup(&mut self, pid: Pid, fd: u64) -> i64 {
        crate::mem::kwork(&mut self.machine, 60, 4);
        if self.machine.fault_check(FaultClass::KernelAlloc) {
            return ENOMEM;
        }
        let Some(entry) = self.fd_of(pid, fd) else {
            return -1;
        };
        match &entry {
            Fd::Sock { id } => {
                if let Some(s) = self.sockets.get_mut(id) {
                    s.refs += 1;
                }
            }
            Fd::PipeR { id } => {
                if let Some(p) = self.pipes.get_mut(id) {
                    p.readers += 1;
                }
            }
            Fd::PipeW { id } => {
                if let Some(p) = self.pipes.get_mut(id) {
                    p.writers += 1;
                }
            }
            Fd::File { .. } => {}
        }
        self.alloc_fd(pid, entry)
    }

    fn sys_pipe(&mut self, pid: Pid) -> i64 {
        crate::mem::kwork(&mut self.machine, 300, 16);
        if self.machine.fault_check(FaultClass::KernelAlloc) {
            return ENOMEM;
        }
        let id = self.next_pipe;
        self.next_pipe += 1;
        self.pipes.insert(
            id,
            crate::system::Pipe {
                readers: 1,
                writers: 1,
                ..Default::default()
            },
        );
        let r = self.alloc_fd(pid, Fd::PipeR { id });
        let w = self.alloc_fd(pid, Fd::PipeW { id });
        // Packed return: read fd in the high half, write fd in the low.
        (r << 32) | w
    }

    fn sys_getdents(&mut self, pid: Pid, buf: u64, len: usize) -> i64 {
        crate::mem::kwork(&mut self.machine, 500, 26);
        let Some(path) = self.take_path() else {
            return -1;
        };
        let entries = match self.with_fs(|fs, dev, w| fs.readdir(dev, &path, w)) {
            Ok(e) => e,
            Err(e) => return errno(e),
        };
        // NUL-separated names, truncated to the caller's buffer.
        let mut blob = Vec::new();
        let count = entries.len();
        for (name, _) in entries {
            blob.extend_from_slice(name.as_bytes());
            blob.push(0);
        }
        blob.truncate(len);
        if !blob.is_empty() && !self.copyout(pid, buf, &blob) {
            return -1;
        }
        count as i64
    }

    pub(crate) fn release_pipe_end(&mut self, fd: &Fd, id: u64) {
        let remove = if let Some(p) = self.pipes.get_mut(&id) {
            match fd {
                Fd::PipeR { .. } => p.readers = p.readers.saturating_sub(1),
                Fd::PipeW { .. } => p.writers = p.writers.saturating_sub(1),
                _ => {}
            }
            p.readers == 0 && p.writers == 0
        } else {
            false
        };
        if remove {
            self.pipes.remove(&id);
        }
    }

    /// Built-in `read` — kept callable so module hooks can forward to it
    /// (the paper's malicious module calls the original handler to stay
    /// stealthy).
    pub(crate) fn sys_read(&mut self, pid: Pid, fd: u64, buf: u64, len: usize) -> i64 {
        costs::RW_BASE.charge(&mut self.machine);
        match self.fd_of(pid, fd) {
            Some(Fd::File { ino, off }) => {
                // No file holds more than MAX_FILE_BYTES, so the cap never
                // shortens a read; it keeps a hostile `len` from aborting
                // the host on an impossible allocation.
                let mut data = vec![0u8; len.min(crate::fs::MAX_FILE_BYTES as usize)];
                let r = self.with_fs(|fs, dev, w| fs.read(dev, ino, off, &mut data, w));
                let n = match r {
                    Ok(n) => n,
                    Err(FsError::Io) => return EIO,
                    Err(_) => 0,
                };
                data.truncate(n);
                if !self.copyout(pid, buf, &data) {
                    return -1;
                }
                self.advance_off(pid, fd, n as u64);
                n as i64
            }
            Some(Fd::Sock { id }) => self.sock_recv(pid, id, buf, len),
            Some(Fd::PipeR { id }) => self.pipe_read(pid, id, buf, len),
            Some(Fd::PipeW { .. }) => -1,
            None => -1,
        }
    }

    /// Reads up to `len` buffered bytes of pipe `id` into user memory:
    /// 0 at EOF (no writers left), [`EAGAIN`] when empty but still open.
    pub(crate) fn pipe_read(&mut self, pid: Pid, id: u64, buf: u64, len: usize) -> i64 {
        let Some(p) = self.pipes.get_mut(&id) else {
            return -1;
        };
        let n = len.min(p.buf.len());
        if n == 0 {
            return if p.writers == 0 { 0 } else { EAGAIN };
        }
        let mut data = std::mem::take(&mut p.buf);
        let ok = self.copyout_stream(pid, buf, &mut data, n);
        if let Some(p) = self.pipes.get_mut(&id) {
            p.buf = data;
        }
        if ok {
            n as i64
        } else {
            -1
        }
    }

    pub(crate) fn sys_write(&mut self, pid: Pid, fd: u64, buf: u64, len: usize) -> i64 {
        costs::RW_BASE.charge(&mut self.machine);
        let Some(data) = self.copyin(pid, buf, len) else {
            return -1;
        };
        match self.fd_of(pid, fd) {
            Some(Fd::File { ino, off }) => {
                match self.with_fs(|fs, dev, w| fs.write_file(dev, ino, off, &data, w)) {
                    Ok(n) => {
                        self.advance_off(pid, fd, n as u64);
                        n as i64
                    }
                    Err(e) => errno(e),
                }
            }
            Some(Fd::Sock { id }) => self.sock_write(id, &data),
            Some(Fd::PipeW { id }) => {
                let Some(p) = self.pipes.get_mut(&id) else {
                    return -1;
                };
                if p.readers == 0 {
                    return -1; // EPIPE
                }
                p.buf.extend(data.iter());
                data.len() as i64
            }
            Some(Fd::PipeR { .. }) => -1,
            None => -1,
        }
    }

    fn sys_unlink(&mut self) -> i64 {
        costs::UNLINK.charge(&mut self.machine);
        let Some(path) = self.take_path() else {
            return -1;
        };
        match self.with_fs(|fs, dev, w| fs.unlink(dev, &path, w)) {
            Ok(_) => 0,
            Err(e) => errno(e),
        }
    }

    fn sys_stat(&mut self) -> i64 {
        crate::mem::kwork(&mut self.machine, 420, 22);
        let Some(path) = self.take_path() else {
            return -1;
        };
        let r = self.with_fs(|fs, dev, w| {
            fs.lookup(dev, &path, w)
                .and_then(|ino| fs.stat(dev, ino, w))
        });
        match r {
            Ok((size, _)) => size as i64,
            Err(e) => errno(e),
        }
    }

    fn sys_lseek(&mut self, pid: Pid, fd: u64, offset: i64, whence: u64) -> i64 {
        crate::mem::kwork(&mut self.machine, 40, 4);
        let size = match self.fd_of(pid, fd) {
            Some(Fd::File { ino, .. }) => self.file_size(ino),
            _ => return -1,
        };
        let Some(proc) = self.procs.get_mut(&pid) else {
            return -1;
        };
        if let Some(Some(Fd::File { off, .. })) = proc.fds.get_mut(fd as usize) {
            let new = match whence {
                0 => offset,               // SEEK_SET
                1 => *off as i64 + offset, // SEEK_CUR
                _ => match size {
                    Some(size) => size as i64 + offset, // SEEK_END
                    None => return EIO,
                },
            };
            if new < 0 {
                return -1;
            }
            *off = new as u64;
            new
        } else {
            -1
        }
    }

    fn sys_mkdir(&mut self) -> i64 {
        costs::CREATE_EXTRA.charge(&mut self.machine);
        let Some(path) = self.take_path() else {
            return -1;
        };
        match self.with_fs(|fs, dev, w| fs.create(dev, &path, InodeKind::Dir, w)) {
            Ok(_) => 0,
            Err(e) => errno(e),
        }
    }

    fn sys_fsync(&mut self) -> i64 {
        costs::FSYNC.charge(&mut self.machine);
        match self.with_fs(|fs, dev, _| fs.sync(dev)) {
            Ok(n) => n as i64,
            Err(_) => EIO,
        }
    }

    // ---- memory syscalls -----------------------------------------------------

    fn sys_mmap(&mut self, pid: Pid, len: usize, fd: i64, offset: u64) -> i64 {
        costs::MMAP.charge(&mut self.machine);
        if self.machine.fault_check(FaultClass::FrameExhaust) {
            return ENOMEM;
        }
        let kind = if fd >= 0 {
            match self.fd_of(pid, fd as u64) {
                Some(Fd::File { ino, .. }) => RegionKind::File { ino, offset },
                _ => return -1,
            }
        } else {
            RegionKind::Anon
        };
        let Some(proc) = self.procs.get_mut(&pid) else {
            return -1;
        };
        proc.aspace.reserve_mmap(len as u64, kind) as i64
    }

    fn sys_munmap(&mut self, pid: Pid, va: u64) -> i64 {
        costs::MUNMAP.charge(&mut self.machine);
        let Some(region) = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.aspace.remove_region(va))
        else {
            return -1;
        };
        let proc = self.procs.get_mut(&pid).expect("proc exists");
        let torn = proc
            .aspace
            .take_pages(region.start..region.start + region.len);
        let root = proc.root;
        self.unmap_and_free(root, torn);
        0
    }

    /// Unmaps each torn-down `(va, frame)` page from `root` and frees its
    /// frame: the teardown `munmap` and a shrinking `brk` share.
    fn unmap_and_free(&mut self, root: Pfn, torn: Vec<(u64, Pfn)>) {
        for (va, frame) in torn {
            let _ = self
                .vm
                .sva_unmap_page(&mut self.machine, root, vg_machine::VAddr(va));
            let _ = self.dmap().free(frame);
        }
    }

    fn sys_brk(&mut self, pid: Pid, new_brk: u64) -> i64 {
        costs::BRK.charge(&mut self.machine);
        if self.machine.fault_check(FaultClass::FrameExhaust) {
            return ENOMEM;
        }
        let Some(proc) = self.procs.get_mut(&pid) else {
            return -1;
        };
        let root = proc.root;
        let (brk, torn) = proc.aspace.set_brk(new_brk);
        self.unmap_and_free(root, torn);
        brk as i64
    }

    fn sys_select(&mut self, pid: Pid, nfds: usize) -> i64 {
        costs::SELECT_BASE.charge(&mut self.machine);
        self.pump();
        // Slots past the fd table are empty and cost nothing, so a hostile
        // `nfds` stops at the table instead of spinning the host.
        let nfds = nfds.min(self.procs.get(&pid).map_or(0, |p| p.fds.len()));
        let mut ready = 0;
        for i in 0..nfds {
            // Charge only fds actually polled: empty slots in the 0..nfds
            // range cost nothing (the kernel skips a closed fd with a null
            // filedesc check, not a full poll traversal).
            if self.fd_of(pid, i as u64).is_none() {
                continue;
            }
            costs::SELECT_PER_FD.charge(&mut self.machine);
            match self.fd_of(pid, i as u64) {
                Some(Fd::File { .. }) => ready += 1,
                Some(Fd::Sock { id })
                    if self.sockets.get(&id).is_some_and(|s| s.readable(&self.net)) =>
                {
                    ready += 1;
                }
                Some(Fd::PipeR { id })
                    if self
                        .pipes
                        .get(&id)
                        .is_some_and(|p| !p.buf.is_empty() || p.writers == 0) =>
                {
                    ready += 1;
                }
                Some(Fd::PipeW { id }) if self.pipes.get(&id).is_some_and(|p| p.readers > 0) => {
                    ready += 1;
                }
                _ => {}
            }
        }
        ready
    }

    // ---- module hook execution -------------------------------------------

    pub(crate) fn run_module_hook(
        &mut self,
        pid: Pid,
        handler: vg_ir::CodeAddr,
        args: &[u64],
    ) -> i64 {
        let registry = self.vm.code.clone();
        let cur_module = registry.resolve(handler).map(|e| e.module);
        let mut interp = vg_ir::Interp::new(&registry);
        let argv: Vec<i64> = args.iter().map(|&a| a as i64).collect();
        let result = {
            let mut ctx = crate::module::KernelCtx {
                sys: self,
                cur_pid: pid,
                cur_module,
            };
            interp.run(handler, &argv, &mut ctx)
        };
        let stats = interp.stats;
        self.machine.prof_leaf("module_hook");
        crate::mem::charge_interp(&mut self.machine, &stats);
        self.machine.prof_pop();
        match result {
            Ok(v) => v,
            Err(e) => {
                // A faulting kernel thread is terminated (paper: CFI
                // violations terminate the kernel thread); the syscall
                // fails but the system survives.
                if let vg_ir::InterpFault::CfiViolation { target } = e {
                    self.machine.counters.cfi_violations += 1;
                    self.machine.record_denial(
                        vg_machine::DenialKind::CfiViolation,
                        target,
                        "indirect transfer to unlabeled target in kernel module",
                    );
                    self.machine
                        .trace_emit(vg_machine::TraceEvent::CfiViolation { addr: target });
                }
                self.log
                    .push(format!("kernel module fault in syscall hook: {e}"));
                -1
            }
        }
    }

    /// Resolves a user VA to its physical address (harness/test helper).
    pub fn user_resolve_pub(&mut self, pid: Pid, va: u64) -> Option<vg_machine::PAddr> {
        self.user_resolve(pid, va, AccessKind::Read)
    }

    /// Reads `len` bytes of user memory at `va` — used by tests asserting
    /// on simulated user state. `None` if any page will not resolve.
    pub fn peek_user(&mut self, pid: Pid, va: u64, len: usize) -> Option<Vec<u8>> {
        let mut out = vec![0u8; len];
        self.walk_user::<User>(pid, va, len, AccessKind::Read, |phys, pfn, off, range| {
            phys.read_bytes(pfn, off, &mut out[range]);
        })
        .ok()?;
        Some(out)
    }
}
