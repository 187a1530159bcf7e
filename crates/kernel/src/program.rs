//! The application execution environment.
//!
//! Programs are Rust closures of type [`AppMain`]; all their effects flow
//! through [`UserEnv`], which models what a process can actually do:
//! execute system calls (each one takes the full trap path and is charged
//! under the active cost model), touch its own virtual memory (demand-paged
//! through the real page tables), and execute the SVA-OS application
//! instructions (`allocgm`, `freegm`, `sva.getKey`, the trusted RNG,
//! `sva.permitFunction`) which — crucially — do **not** trap into the
//! kernel (paper Figure 1: Virtual Ghost calls do not cross the protection
//! boundary).

use crate::syscall::*;
use crate::system::{ChildKind, Pid, System};
use std::rc::Rc;
use vg_core::{ProcId, SvaError};
use vg_machine::layout::PAGE_SIZE;
use vg_machine::mmu::AccessKind;
use vg_machine::VAddr;

/// A program body.
pub type AppMain = Box<dyn FnMut(&mut UserEnv) -> i32>;

/// Syscall number reported for thread creation (thr_new on FreeBSD).
fn vg_kernel_thread_syscall() -> u32 {
    455
}

fn vg_kernel_charge_thread_create(sys: &mut System) {
    // Thread creation is a light fork: no address-space copy.
    crate::costs::PathCost {
        name: "thread_create",
        acc: 6_000,
        br: 300,
        fixed: 3_000,
    }
    .charge(&mut sys.machine);
}

/// A registered signal-handler body.
pub type SigHandlerFn = Rc<dyn Fn(&mut UserEnv, i32)>;

/// The world as seen by one process.
pub struct UserEnv<'a> {
    /// The system (kernel + machine + VM).
    pub sys: &'a mut System,
    /// This process.
    pub pid: Pid,
    /// The poll or iovec table the wrappers encode before they trap,
    /// reused across calls.
    table: Vec<u8>,
    /// The revents [`poll`](Self::poll) decoded last.
    revents: Vec<u64>,
}

impl<'a> UserEnv<'a> {
    /// The environment of process `pid` on `sys`.
    pub(crate) fn new(sys: &'a mut System, pid: Pid) -> Self {
        UserEnv {
            sys,
            pid,
            table: Vec::new(),
            revents: Vec::new(),
        }
    }
}

impl UserEnv<'_> {
    /// Raw system call.
    pub fn syscall(&mut self, num: u32, args: [u64; 6]) -> i64 {
        self.sys.do_syscall(self.pid, num, args)
    }

    fn path_syscall(&mut self, num: u32, path: &str, args: [u64; 6]) -> i64 {
        self.sys.syscall_path = Some(path.to_string());
        self.syscall(num, args)
    }

    // ---- files ---------------------------------------------------------------

    /// `open(path, flags)`; returns fd or -1.
    pub fn open(&mut self, path: &str, flags: u64) -> i64 {
        self.path_syscall(SYS_OPEN, path, [0, flags, 0, 0, 0, 0])
    }

    /// `close(fd)`.
    pub fn close(&mut self, fd: i64) -> i64 {
        self.syscall(SYS_CLOSE, [fd as u64, 0, 0, 0, 0, 0])
    }

    /// `read(fd, buf_va, len)`.
    pub fn read(&mut self, fd: i64, buf: u64, len: usize) -> i64 {
        self.syscall(SYS_READ, [fd as u64, buf, len as u64, 0, 0, 0])
    }

    /// `write(fd, buf_va, len)`.
    pub fn write(&mut self, fd: i64, buf: u64, len: usize) -> i64 {
        self.syscall(SYS_WRITE, [fd as u64, buf, len as u64, 0, 0, 0])
    }

    /// `unlink(path)`.
    pub fn unlink(&mut self, path: &str) -> i64 {
        self.path_syscall(SYS_UNLINK, path, [0; 6])
    }

    /// `stat(path)`; returns file size or -1.
    pub fn stat(&mut self, path: &str) -> i64 {
        self.path_syscall(SYS_STAT, path, [0; 6])
    }

    /// `lseek(fd, offset, whence)`.
    pub fn lseek(&mut self, fd: i64, offset: i64, whence: u64) -> i64 {
        self.syscall(SYS_LSEEK, [fd as u64, offset as u64, whence, 0, 0, 0])
    }

    /// `mkdir(path)`.
    pub fn mkdir(&mut self, path: &str) -> i64 {
        self.path_syscall(SYS_MKDIR, path, [0; 6])
    }

    /// `fsync()` (whole-cache flush in this kernel).
    pub fn fsync(&mut self) -> i64 {
        self.syscall(SYS_FSYNC, [0; 6])
    }

    /// `pipe()`: returns `(read_fd, write_fd)`.
    pub fn pipe(&mut self) -> (i64, i64) {
        let packed = self.syscall(SYS_PIPE, [0; 6]);
        (packed >> 32, packed & 0xffff_ffff)
    }

    /// `dup(fd)`.
    pub fn dup(&mut self, fd: i64) -> i64 {
        self.syscall(SYS_DUP, [fd as u64, 0, 0, 0, 0, 0])
    }

    /// `getdents(path)`: returns the entry names of a directory.
    pub fn readdir(&mut self, path: &str) -> Vec<String> {
        let buf = self.mmap_anon(8192);
        let n = self.path_syscall(SYS_GETDENTS, path, [0, buf, 8192, 0, 0, 0]);
        if n <= 0 {
            self.munmap(buf);
            return Vec::new();
        }
        let raw = self.read_mem(buf, 8192);
        self.munmap(buf);
        raw.split(|&b| b == 0)
            .filter(|s| !s.is_empty())
            .take(n as usize)
            .map(|s| String::from_utf8_lossy(s).into_owned())
            .collect()
    }

    // ---- memory ----------------------------------------------------------------

    /// `mmap(len)` anonymous; returns the mapped address.
    ///
    /// For ghosting applications the libc wrapper applies the compiler's
    /// mmap-return mask (paper §5): even a hostile kernel that returns a
    /// pointer into ghost memory cannot trick the app into writing there.
    pub fn mmap_anon(&mut self, len: usize) -> u64 {
        let ret = self.syscall(SYS_MMAP, [len as u64, (-1i64) as u64, 0, 0, 0, 0]) as u64;
        if self.sys.procs[&self.pid].ghosting {
            vg_machine::mask_kernel_pointer(VAddr(ret)).0
        } else {
            ret
        }
    }

    /// `mmap(len, fd, offset)` file-backed.
    pub fn mmap_file(&mut self, len: usize, fd: i64, offset: u64) -> u64 {
        let ret = self.syscall(SYS_MMAP, [len as u64, fd as u64, offset, 0, 0, 0]) as u64;
        if self.sys.procs[&self.pid].ghosting {
            vg_machine::mask_kernel_pointer(VAddr(ret)).0
        } else {
            ret
        }
    }

    /// `munmap(va)`.
    pub fn munmap(&mut self, va: u64) -> i64 {
        self.syscall(SYS_MUNMAP, [va, 0, 0, 0, 0, 0])
    }

    /// `brk(addr)`.
    pub fn brk(&mut self, addr: u64) -> i64 {
        self.syscall(SYS_BRK, [addr, 0, 0, 0, 0, 0])
    }

    /// Writes application data at `va` (ordinary user-mode stores; pages
    /// fault in on demand). For a fault-killed process the store silently
    /// vanishes — the process is already doomed and its remaining body
    /// runs only so the kernel can collect it at the next exit boundary.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not mappable — the simulation's SIGSEGV.
    pub fn write_mem(&mut self, va: u64, data: &[u8]) {
        // Userspace stores cost ~1 cycle per 8 bytes (cache-friendly copy).
        self.sys.machine.charge(data.len() as u64 / 8 + 1);
        let mut done = 0;
        while done < data.len() {
            let cur = va + done as u64;
            let Some(pa) = self.sys.user_resolve(self.pid, cur, AccessKind::Write) else {
                if self.sys.is_fault_killed(self.pid) {
                    return;
                }
                panic!("segfault: write to {cur:#x} by pid {}", self.pid);
            };
            let in_page = (PAGE_SIZE - pa.frame_offset()) as usize;
            let take = in_page.min(data.len() - done);
            self.sys.machine.phys.write_bytes(
                pa.pfn(),
                pa.frame_offset(),
                &data[done..done + take],
            );
            done += take;
        }
    }

    /// Reads application data at `va`. A fault-killed process reads zeros
    /// for pages that can no longer be resolved (see [`Self::write_mem`]).
    ///
    /// # Panics
    ///
    /// Panics if `va` is not mappable — the simulation's SIGSEGV.
    pub fn read_mem(&mut self, va: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.read_mem_into(va, len, &mut out);
        out
    }

    /// [`Self::read_mem`] onto the end of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not mappable — the simulation's SIGSEGV.
    pub fn read_mem_into(&mut self, va: u64, len: usize, out: &mut Vec<u8>) {
        self.sys.machine.charge(len as u64 / 8 + 1);
        out.reserve(len);
        let mut done = 0;
        while done < len {
            let cur = va + done as u64;
            let Some(pa) = self.sys.user_resolve(self.pid, cur, AccessKind::Read) else {
                if self.sys.is_fault_killed(self.pid) {
                    out.resize(out.len() + len - done, 0);
                    return;
                }
                panic!("segfault: read of {cur:#x} by pid {}", self.pid);
            };
            let in_page = (PAGE_SIZE - pa.frame_offset()) as usize;
            let take = in_page.min(len - done);
            out.extend_from_slice(
                self.sys
                    .machine
                    .phys
                    .bytes(pa.pfn(), pa.frame_offset(), take),
            );
            done += take;
        }
    }

    // ---- SVA application instructions (no kernel trap) -------------------------

    /// `allocgm(num_pages)`: allocates ghost memory at the process's ghost
    /// cursor. The OS's only involvement is donating frames.
    ///
    /// # Errors
    ///
    /// Propagates [`SvaError`] (e.g. out of frames).
    pub fn allocgm(&mut self, num_pages: u64) -> Result<u64, SvaError> {
        let va = self.sys.procs[&self.pid].ghost_cursor;
        let root = self.sys.procs[&self.pid].root;
        // The OS donates frames (it must have unmapped them; fresh ones are).
        let mut frames = Vec::with_capacity(num_pages as usize);
        for _ in 0..num_pages {
            match self.sys.machine.alloc_frame_checked() {
                Some(f) => frames.push(f),
                None => {
                    for f in frames {
                        self.sys.machine.phys.free_frame(f);
                    }
                    return Err(SvaError::OutOfFrames);
                }
            }
        }
        self.sys.switch_to(self.pid);
        self.sys.vm.sva_allocgm(
            &mut self.sys.machine,
            ProcId(self.pid),
            root,
            VAddr(va),
            &frames,
        )?;
        self.sys
            .procs
            .get_mut(&self.pid)
            .expect("proc")
            .ghost_cursor = va + num_pages * PAGE_SIZE;
        Ok(va)
    }

    /// `freegm(va, num_pages)`.
    ///
    /// # Errors
    ///
    /// Propagates [`SvaError::NotGhostMapped`] for bad ranges.
    pub fn freegm(&mut self, va: u64, num_pages: u64) -> Result<(), SvaError> {
        let root = self.sys.procs[&self.pid].root;
        let frames = self.sys.vm.sva_freegm(
            &mut self.sys.machine,
            ProcId(self.pid),
            root,
            VAddr(va),
            num_pages,
        )?;
        for f in frames {
            self.sys.machine.phys.free_frame(f);
        }
        Ok(())
    }

    /// `sva.getKey`: retrieves the application's key from the VM.
    ///
    /// # Errors
    ///
    /// [`SvaError::Key`] if no key was loaded at exec.
    pub fn get_app_key(&mut self) -> Result<[u8; 16], SvaError> {
        self.sys
            .machine
            .prof_push(vg_machine::Domain::Sva, "sva.getKey");
        self.sys.machine.charge(200);
        self.sys.machine.prof_pop();
        self.sys.machine.trace_emit(vg_machine::TraceEvent::GetKey);
        self.sys.vm.sva_get_key(ProcId(self.pid))
    }

    /// The trusted random-number instruction.
    pub fn sva_random(&mut self) -> u64 {
        let (vm, machine) = (&mut self.sys.vm, &mut self.sys.machine);
        vm.sva_random(machine)
    }

    /// Bumps and returns the application's trusted version counter for
    /// `slot` (anti-replay; see `vg-core`).
    ///
    /// # Errors
    ///
    /// Propagates [`SvaError::Key`] if no application key is loaded.
    pub fn sva_version_bump(&mut self, slot: u64) -> Result<u64, SvaError> {
        let (vm, machine) = (&mut self.sys.vm, &mut self.sys.machine);
        vm.sva_version_bump(machine, ProcId(self.pid), slot)
    }

    /// Reads the application's trusted version counter for `slot`.
    ///
    /// # Errors
    ///
    /// Propagates [`SvaError::Key`] if no application key is loaded.
    pub fn sva_version_read(&mut self, slot: u64) -> Result<u64, SvaError> {
        self.sys.vm.sva_version_read(ProcId(self.pid), slot)
    }

    // ---- signals ----------------------------------------------------------------

    /// The libc `signal()` wrapper: allocates a handler address for `body`,
    /// registers it with Virtual Ghost (`sva.permitFunction`) and then with
    /// the kernel (`sigaction`). Returns the handler address.
    pub fn signal(&mut self, sig: i32, body: impl Fn(&mut UserEnv, i32) + 'static) -> u64 {
        let Some(proc) = self.sys.procs.get_mut(&self.pid) else {
            return 0;
        };
        let addr = proc.next_handler_addr;
        proc.next_handler_addr += 0x10;
        proc.handlers.insert(addr, Rc::new(body));
        // Wrapper registers with the VM first (paper §4.6.1)…
        self.sys.vm.sva_permit_function(ProcId(self.pid), addr);
        // …then tells the kernel.
        self.syscall(SYS_SIGACTION, [sig as u64, addr, 0, 0, 0, 0]);
        addr
    }

    /// `kill(pid, sig)`.
    pub fn kill(&mut self, pid: Pid, sig: i32) -> i64 {
        self.syscall(SYS_KILL, [pid, sig as u64, 0, 0, 0, 0])
    }

    // ---- processes -----------------------------------------------------------------

    /// `getpid()`.
    pub fn getpid(&mut self) -> i64 {
        self.syscall(SYS_GETPID, [0; 6])
    }

    /// `select(nfds)`: polls fds `0..nfds`; returns ready count.
    pub fn select(&mut self, nfds: usize) -> i64 {
        self.syscall(SYS_SELECT, [nfds as u64, 0, 0, 0, 0, 0])
    }

    /// `fork()` with the child's behaviour. Returns the child pid.
    pub fn fork(&mut self, child: ChildKind) -> i64 {
        self.sys.pending_child = Some(child);
        self.syscall(SYS_FORK, [0; 6])
    }

    /// Creates a second thread in this process and runs it to completion
    /// (this kernel's synchronous scheduling). The thread shares the
    /// process's address space — including ghost memory: "any ghost memory
    /// belonging to the current thread will also belong to the new thread;
    /// this transparently makes it appear that ghost memory is mapped as
    /// shared memory among all threads … within an application" (§4.6.2).
    /// Returns the thread's exit value.
    pub fn spawn_thread(&mut self, body: impl FnOnce(&mut UserEnv) -> i32) -> i32 {
        let parent_thread = vg_core::ThreadId(self.pid);
        let new_thread = self.sys.next_thread_id();
        // The thread's initial state is cloned from the creator via
        // sva.newstate; enter a synthetic trap window for the clone.
        self.sys.switch_to(self.pid);
        self.sys.vm.trap_enter(
            &mut self.sys.machine,
            parent_thread,
            vg_machine::cpu::TrapKind::Syscall(vg_kernel_thread_syscall()),
        );
        self.sys.machine.counters.syscalls += 1;
        vg_kernel_charge_thread_create(self.sys);
        self.sys
            .vm
            .sva_newstate(&mut self.sys.machine, new_thread, parent_thread)
            .expect("creator is in a trap window");
        self.sys
            .vm
            .trap_return(&mut self.sys.machine, parent_thread)
            .expect("balanced");
        // Resume the new thread and run its body (same pid ⇒ same address
        // space and ghost mappings).
        self.sys
            .vm
            .trap_return(&mut self.sys.machine, new_thread)
            .expect("clone present");
        let r = body(self);
        self.sys.vm.ic.remove_thread(new_thread);
        r
    }

    /// `wait4()`: runs/reaps one child; returns `(pid << 8) | status`, or
    /// -1 with no children.
    pub fn wait(&mut self) -> i64 {
        self.syscall(SYS_WAIT4, [0; 6])
    }

    /// `execv(name)`: replaces the process image and runs it to completion,
    /// returning its exit status (run-to-completion model).
    pub fn execv(&mut self, name: &str) -> i32 {
        let ret = self.path_syscall(SYS_EXEC, name, [0; 6]);
        if ret < 0 {
            return -1;
        }
        let Some(mut program) = self
            .sys
            .procs
            .get_mut(&self.pid)
            .and_then(|p| p.program.take())
        else {
            // exec reported success but left no program body (can only
            // happen if the process was torn down mid-syscall by a fault);
            // degrade to a failed exec instead of panicking.
            return -1;
        };
        program(self)
    }

    // ---- sockets --------------------------------------------------------------------

    /// `socket()`.
    pub fn socket(&mut self) -> i64 {
        self.syscall(SYS_SOCKET, [0; 6])
    }

    /// `bind(fd, port)`.
    pub fn bind(&mut self, fd: i64, port: u16) -> i64 {
        self.syscall(SYS_BIND, [fd as u64, port as u64, 0, 0, 0, 0])
    }

    /// `listen(fd)`.
    pub fn listen(&mut self, fd: i64) -> i64 {
        self.syscall(SYS_LISTEN, [fd as u64, 0, 0, 0, 0, 0])
    }

    /// `accept(fd)`: returns connected fd, -2 if none pending.
    pub fn accept(&mut self, fd: i64) -> i64 {
        self.syscall(SYS_ACCEPT, [fd as u64, 0, 0, 0, 0, 0])
    }

    /// `send(fd, buf_va, len)`.
    pub fn send(&mut self, fd: i64, buf: u64, len: usize) -> i64 {
        self.syscall(SYS_SEND, [fd as u64, buf, len as u64, 0, 0, 0])
    }

    /// `recv(fd, buf_va, len)`.
    pub fn recv(&mut self, fd: i64, buf: u64, len: usize) -> i64 {
        self.syscall(SYS_RECV, [fd as u64, buf, len as u64, 0, 0, 0])
    }

    /// `fcntl(fd, O_NONBLOCK)`: marks a socket non-blocking (reads/accepts
    /// return [`EAGAIN`] instead of blocking).
    pub fn set_nonblocking(&mut self, fd: i64, on: bool) -> i64 {
        self.syscall(SYS_FCNTL, [fd as u64, u64::from(on), 0, 0, 0, 0])
    }

    /// `poll(fds)`: builds the pollfd table at `scratch_va` (16 bytes per
    /// entry), traps once, and returns the ready count and one revents
    /// word per fd — bit 0 readable, bit 1 hang-up. The table and the
    /// revents live in buffers this environment reuses, so the returned
    /// slice is valid until the next call.
    pub fn poll(&mut self, scratch_va: u64, fds: &[i64]) -> (i64, &[u64]) {
        let mut table = std::mem::take(&mut self.table);
        table.clear();
        for &fd in fds {
            table.extend_from_slice(&(fd as u64).to_le_bytes());
            table.extend_from_slice(&0u64.to_le_bytes());
        }
        self.write_mem(scratch_va, &table);
        let r = self.syscall(SYS_POLL, [scratch_va, fds.len() as u64, 0, 0, 0, 0]);
        table.clear();
        self.read_mem_into(scratch_va, fds.len() * 16, &mut table);
        self.revents.clear();
        self.revents.extend(
            table
                .chunks_exact(16)
                .map(|e| u64::from_le_bytes(e[8..].try_into().expect("8 bytes"))),
        );
        self.table = table;
        (r, &self.revents)
    }

    /// Writes an iovec table (`(base, len)` entries, 16 bytes each) at
    /// `iov_va` for [`readv`](Self::readv) / [`writev`](Self::writev).
    fn write_iovs(&mut self, iov_va: u64, iovs: &[(u64, usize)]) {
        let mut table = std::mem::take(&mut self.table);
        table.clear();
        for &(base, len) in iovs {
            table.extend_from_slice(&base.to_le_bytes());
            table.extend_from_slice(&(len as u64).to_le_bytes());
        }
        self.write_mem(iov_va, &table);
        self.table = table;
    }

    /// `readv(fd, iovs)`: gather-read into the iovecs in one trap. The iov
    /// table is staged at `iov_va`. Same EOF/[`EAGAIN`] contract as `recv`.
    pub fn readv(&mut self, fd: i64, iov_va: u64, iovs: &[(u64, usize)]) -> i64 {
        self.write_iovs(iov_va, iovs);
        self.syscall(SYS_READV, [fd as u64, iov_va, iovs.len() as u64, 0, 0, 0])
    }

    /// `writev(fd, iovs)`: transmit all iovecs in one trap (one descriptor
    /// batch under the ring data plane). The iov table is staged at `iov_va`.
    pub fn writev(&mut self, fd: i64, iov_va: u64, iovs: &[(u64, usize)]) -> i64 {
        self.write_iovs(iov_va, iovs);
        self.syscall(SYS_WRITEV, [fd as u64, iov_va, iovs.len() as u64, 0, 0, 0])
    }
}

impl System {
    /// Handles the `exec` syscall inside the dispatcher (separated here to
    /// live near its wrapper).
    pub(crate) fn sys_exec(&mut self, pid: Pid) -> i64 {
        let Some(name) = self.syscall_path.take() else {
            return -1;
        };
        crate::mem::copy_cost(&mut self.machine, name.len() as u64 + 1);
        match self.exec_load(pid, &name) {
            Ok(()) => 0,
            Err(e) => {
                self.log.push(format!("exec of {name} refused: {e}"));
                -1
            }
        }
    }
}
