//! Loadable kernel modules and the execution contexts for module/user code.
//!
//! Modules arrive as IR source; [`System::install_module`] runs them through
//! the pipeline the active mode requires — under Virtual Ghost that is the
//! instrumenting compiler plus signed-translation loading; natively the raw
//! module is accepted as long as it is structurally well formed. After
//! loading, the module's `init` function runs in kernel context, where it
//! can hook system calls (`kern.hook_syscall`) exactly like the paper's
//! rootkit replaces the `read` handler.
//!
//! [`KernelCtx`] is the environment hooked handlers run in: kernel-privilege
//! memory plus the kernel API surface a real module would link against.
//! [`UserCtx`] is the environment injected code dispatched into a *process*
//! runs in: user-privilege memory (which includes ghost pages — the MMU
//! allows the owning process everything) plus the syscall surface.

use crate::fs::InodeKind;
use crate::mem::{KernelMem, UserMem};
use crate::system::{Pid, System};
use vg_core::SvaError;
use vg_ir::inst::Width;
use vg_ir::interp::{ExternHost, HostError, MemBus, MemFault};
use vg_ir::{CodeAddr, Module, Translation};

impl System {
    /// Installs a kernel module. Under Virtual Ghost the module is compiled
    /// (instrumented + signed) first — the only way code becomes loadable;
    /// natively the raw module loads directly. Then the module's `init`
    /// function (if present) runs in kernel context.
    ///
    /// # Errors
    ///
    /// Propagates loader rejections ([`SvaError::UntrustedCode`]) and
    /// compile failures.
    pub fn install_module(
        &mut self,
        module: Module,
    ) -> Result<vg_ir::registry::ModuleHandle, SvaError> {
        crate::costs::MODULE_LOAD.charge(&mut self.machine);
        let translation = if self.vm.protections.enforced {
            self.vm
                .compiler
                .compile(module)
                .map_err(|_| SvaError::UntrustedCode)?
        } else {
            Translation {
                module,
                signature: Vec::new(),
            }
        };
        let handle = self.vm.load_kernel_module(translation)?;
        if let Some(init) = self.vm.code.addr_of(handle, "init") {
            let _ = self.run_module_hook(0, init, &[]);
        }
        Ok(handle)
    }

    /// Attempts to load a *raw* (uninstrumented, unsigned) module — the
    /// classic binary rootkit. Succeeds natively; refused under Virtual
    /// Ghost.
    ///
    /// # Errors
    ///
    /// [`SvaError::UntrustedCode`] under Virtual Ghost, or in any mode for
    /// a structurally malformed module.
    pub fn install_raw_module(
        &mut self,
        module: Module,
    ) -> Result<vg_ir::registry::ModuleHandle, SvaError> {
        crate::costs::MODULE_LOAD.charge(&mut self.machine);
        let handle = self.vm.load_kernel_module(Translation {
            module,
            signature: Vec::new(),
        })?;
        if let Some(init) = self.vm.code.addr_of(handle, "init") {
            let _ = self.run_module_hook(0, init, &[]);
        }
        Ok(handle)
    }

    /// Sets an attacker/module configuration cell (the unprivileged-user
    /// "sysctl" channel the paper's module exposes).
    pub fn set_module_config(&mut self, idx: usize, value: i64) {
        if idx < self.module_config.len() {
            self.module_config[idx] = value;
        }
    }
}

/// Kernel-context execution environment for module code.
pub struct KernelCtx<'a> {
    /// The system.
    pub sys: &'a mut System,
    /// The process on whose behalf the current syscall executes (0 at module
    /// init time).
    pub cur_pid: Pid,
    /// The module whose code is executing (for self-referential APIs).
    pub cur_module: Option<vg_ir::registry::ModuleHandle>,
}

impl MemBus for KernelCtx<'_> {
    fn load(&mut self, addr: u64, width: Width) -> Result<u64, MemFault> {
        KernelMem {
            machine: &mut self.sys.machine,
            vm: &self.sys.vm,
            kernel_heap: &mut self.sys.kernel_heap,
        }
        .load(addr, width)
    }

    fn store(&mut self, addr: u64, width: Width, value: u64) -> Result<(), MemFault> {
        KernelMem {
            machine: &mut self.sys.machine,
            vm: &self.sys.vm,
            kernel_heap: &mut self.sys.kernel_heap,
        }
        .store(addr, width, value)
    }
}

/// The kernel API surface a module links against: one match arm per extern
/// name, resolved on every call.
impl ExternHost for KernelCtx<'_> {
    fn call_extern(&mut self, name: &str, args: &[i64]) -> Result<i64, HostError> {
        let a = |i: usize| args.get(i).copied().unwrap_or(0);
        match name {
            // ---- introspection ------------------------------------------------
            "kern.cur_pid" => Ok(self.cur_pid as i64),
            "kern.own_module" => Ok(self.cur_module.map(|m| m.0 as i64).unwrap_or(-1)),
            "kern.own_fn_addr" => {
                let Some(module) = self.cur_module else {
                    return Ok(-1);
                };
                Ok(self
                    .sys
                    .vm
                    .code
                    .addr_of_index(module, a(0) as u32)
                    .map(|addr| addr.0 as i64)
                    .unwrap_or(-1))
            }
            "kern.config" => Ok(self
                .sys
                .module_config
                .get(a(0) as usize)
                .copied()
                .unwrap_or(0)),
            "kern.set_config" => {
                let idx = a(0) as usize;
                if idx < self.sys.module_config.len() {
                    self.sys.module_config[idx] = a(1);
                }
                Ok(0)
            }
            // ---- logging (attack 1 exfiltration sink) -------------------------
            "kern.log_val" => {
                self.sys.log.push(format!("module: {:#x}", a(0)));
                Ok(0)
            }
            "kern.log_bytes" => {
                // Print a *kernel-heap* buffer to the system log. The module
                // must have copied the data there itself with its own
                // (instrumented) loads and stores — the host refuses other
                // addresses, so this API cannot be used to bypass the
                // sandboxing instrumentation.
                let (addr, len) = (a(0) as u64, (a(1) as u64).min(256));
                let Some(bytes) = self.sys.kernel_heap_slice(addr, len) else {
                    return Ok(-1);
                };
                self.sys.log.push(format!(
                    "module leak @{addr:#x}: {}",
                    String::from_utf8_lossy(&bytes)
                ));
                Ok(0)
            }
            // ---- hooking ------------------------------------------------------
            "kern.hook_syscall" => {
                self.sys.hooks.insert(a(0) as u32, CodeAddr(a(1) as u64));
                Ok(0)
            }
            "kern.orig_syscall" => {
                // Forward to the built-in handler (stealth passthrough).
                let num = a(0) as u32;
                let sargs = [a(1) as u64, a(2) as u64, a(3) as u64, 0, 0, 0];
                Ok(self.sys.builtin_syscall(self.cur_pid, num, sargs))
            }
            // ---- process manipulation (kernel APIs a module can call) ---------
            "kern.mmap_user" => {
                // Map anonymous memory into a victim process.
                let (pid, len) = (a(0) as u64, a(1) as u64);
                if !self.sys.procs.contains_key(&pid) {
                    return Ok(-1);
                }
                let proc = self.sys.procs.get_mut(&pid).expect("checked");
                Ok(proc.aspace.reserve_mmap(len, crate::mem::RegionKind::Anon) as i64)
            }
            "kern.inject_code" => {
                // "Copy exploit code into the buffer": register module
                // function #arg2 at user address arg1 of the current module.
                let (va, module_idx, func) = (a(0) as u64, a(1) as usize, a(2) as u32);
                let handle = vg_ir::registry::ModuleHandle(module_idx);
                match self.sys.vm.inject_code_at(CodeAddr(va), handle, func) {
                    Ok(()) => Ok(0),
                    Err(_) => Ok(-1),
                }
            }
            "kern.set_sighandler" => {
                let (pid, sig, addr) = (a(0) as u64, a(1) as i32, a(2) as u64);
                match self.sys.procs.get_mut(&pid) {
                    Some(p) => {
                        p.sig_disposition.insert(sig, addr);
                        Ok(0)
                    }
                    None => Ok(-1),
                }
            }
            "kern.send_signal" => {
                self.sys.post_signal(a(0) as u64, a(1) as i32);
                Ok(0)
            }
            // ---- interrupted-state attack surface ------------------------------
            "kern.read_ic_rip" => {
                // Under Virtual Ghost the IC lives in SVA memory: no access.
                match self.sys.vm.native_ic_mut(vg_core::ThreadId(a(0) as u64)) {
                    Some(ic) => Ok(ic.frame.rip as i64),
                    None => Ok(-1),
                }
            }
            "kern.write_ic_rip" => {
                match self.sys.vm.native_ic_mut(vg_core::ThreadId(a(0) as u64)) {
                    Some(ic) => {
                        ic.frame.rip = a(1) as u64;
                        Ok(0)
                    }
                    None => Ok(-1),
                }
            }
            // ---- file exfiltration sink ----------------------------------------
            "kern.exfil_file" => {
                // Append a *kernel-heap* buffer to /stolen — models the
                // module writing captured data to a file it opened. Same
                // kernel-heap-only rule as `kern.log_bytes`.
                let (addr, len) = (a(0) as u64, (a(1) as u64).min(4096));
                let Some(bytes) = self.sys.kernel_heap_slice(addr, len) else {
                    return Ok(-1);
                };
                self.sys.append_file("/stolen", &bytes);
                Ok(bytes.len() as i64)
            }
            // ---- raw hardware pokes --------------------------------------------
            "kern.port_write" => {
                match self
                    .sys
                    .vm
                    .sva_port_write(&mut self.sys.machine, a(0) as u16, a(1) as u64)
                {
                    Ok(()) => Ok(0),
                    Err(_) => Ok(-1),
                }
            }
            "kern.iommu_map" => {
                match self
                    .sys
                    .vm
                    .sva_iommu_map(&mut self.sys.machine, vg_machine::Pfn(a(0) as u64))
                {
                    Ok(()) => Ok(0),
                    Err(_) => Ok(-1),
                }
            }
            _ => Err(HostError::Unknown),
        }
    }
}

/// User-context execution environment for code dispatched into a process
/// (signal handlers, injected exploit payloads).
pub struct UserCtx<'a> {
    /// The system.
    pub sys: &'a mut System,
    /// The process the code runs as.
    pub pid: Pid,
}

impl MemBus for UserCtx<'_> {
    fn load(&mut self, addr: u64, width: Width) -> Result<u64, MemFault> {
        UserMem {
            machine: &mut self.sys.machine,
        }
        .load(addr, width)
    }

    fn store(&mut self, addr: u64, width: Width, value: u64) -> Result<(), MemFault> {
        UserMem {
            machine: &mut self.sys.machine,
        }
        .store(addr, width, value)
    }
}

/// The user-context API surface (syscall-like entry points available to code
/// dispatched into a process), matched by extern name like [`KernelCtx`]'s.
impl ExternHost for UserCtx<'_> {
    fn call_extern(&mut self, name: &str, args: &[i64]) -> Result<i64, HostError> {
        let a = |i: usize| args.get(i).copied().unwrap_or(0);
        match name {
            // The exploit's exfiltration: copy process-readable memory
            // (which, running *as* the process, includes ghost memory) out
            // via a write() system call to a file.
            "user.exfil" => {
                let (addr, len) = (a(0) as u64, (a(1) as u64).min(4096));
                let mut bytes = Vec::with_capacity(len as usize);
                for i in 0..len {
                    match self.load(addr + i, Width::W1) {
                        Ok(b) => bytes.push(b as u8),
                        Err(_) => break,
                    }
                }
                let n = bytes.len();
                self.sys.append_file("/stolen", &bytes);
                Ok(n as i64)
            }
            "user.getpid" => Ok(self.pid as i64),
            // Attacker-baked reconnaissance (set through the same config
            // channel the module uses).
            "user.secret_addr" => Ok(self.sys.module_config.first().copied().unwrap_or(0)),
            "user.secret_len" => Ok(self.sys.module_config.get(1).copied().unwrap_or(0)),
            _ => Err(HostError::Unknown),
        }
    }
}

impl System {
    /// Returns a copy of `len` bytes of the kernel data segment at `addr`,
    /// or `None` if the range is outside the segment.
    pub(crate) fn kernel_heap_slice(&self, addr: u64, len: u64) -> Option<Vec<u8>> {
        let base = vg_machine::layout::KERNEL_BASE;
        let off = addr.checked_sub(base)? as usize;
        let end = off.checked_add(len as usize)?;
        self.kernel_heap.get(off..end).map(|s| s.to_vec())
    }

    /// Appends bytes to a file, creating it if needed (kernel-internal
    /// helper used by exfiltration sinks and tests).
    pub fn append_file(&mut self, path: &str, data: &[u8]) {
        self.with_fs(|fs, dev, w| {
            let ino = match fs.lookup(dev, path, w) {
                Ok(i) => i,
                Err(_) => match fs.create(dev, path, InodeKind::File, w) {
                    Ok(i) => i,
                    Err(_) => return,
                },
            };
            let size = fs.stat(dev, ino, w).map(|(s, _)| s).unwrap_or(0);
            let _ = fs.write(dev, ino, size, data, w);
        });
    }

    /// Reads a whole file (harness/test helper).
    pub fn read_file(&mut self, path: &str) -> Option<Vec<u8>> {
        self.with_fs(|fs, dev, w| {
            let ino = fs.lookup(dev, path, w).ok()?;
            let (size, _) = fs.stat(dev, ino, w).ok()?;
            let mut buf = vec![0u8; size as usize];
            fs.read(dev, ino, 0, &mut buf, w).ok()?;
            Some(buf)
        })
    }

    /// Writes (creating/truncating) a whole file (harness/test helper).
    pub fn write_file(&mut self, path: &str, data: &[u8]) {
        self.with_fs(|fs, dev, w| {
            let ino = match fs.lookup(dev, path, w) {
                Ok(i) => {
                    let _ = fs.truncate(dev, i, w);
                    i
                }
                Err(_) => match fs.create(dev, path, InodeKind::File, w) {
                    Ok(i) => i,
                    Err(_) => return,
                },
            };
            let _ = fs.write(dev, ino, 0, data, w);
        });
    }
}
