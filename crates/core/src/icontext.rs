//! Interrupt Context management and secure signal dispatch.
//!
//! The *Interrupt Context* (IC) is the program state saved when a thread
//! traps into the kernel. Virtual Ghost (paper §4.6):
//!
//! * saves the IC **within SVA VM internal memory** (using the x86-64 IST to
//!   redirect the hardware save area), instead of the kernel stack;
//! * **zeros registers** (except system-call argument registers) before the
//!   OS runs, so interrupted state cannot be read off the CPU;
//! * permits only *controlled* IC mutations: setting a system-call return
//!   value, `sva.ipush.function` (which refuses targets the application did
//!   not register via `sva.permitFunction`), `sva.icontext.save`/`load` for
//!   signal dispatch, `sva.newstate` for thread creation, and
//!   `sva.reinit.icontext` for `exec`.
//!
//! In native mode the IC is kernel-visible and kernel-writable
//! ([`SvaVm::native_ic_mut`]) — which is precisely the state the paper's
//! second rootkit attack modifies.

use crate::{ProcId, SvaError, SvaVm, ThreadId};
use vg_machine::cpu::{Privilege, Reg, TrapFrame, TrapKind};
use vg_machine::{DenialKind, Domain, IntMap, IntSet, Machine, TraceEvent, VAddr};

/// Trace span name and payload for a trap kind.
fn trap_trace_parts(kind: TrapKind) -> (&'static str, u64) {
    match kind {
        TrapKind::Syscall(n) => ("syscall", n as u64),
        TrapKind::PageFault(va, _) => ("pagefault", va.0),
        TrapKind::Timer => ("timer", 0),
        TrapKind::Device(d) => ("device", d as u64),
        TrapKind::Software(v) => ("software", v as u64),
    }
}

/// A saved Interrupt Context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterruptContext {
    /// The underlying machine trap frame.
    pub frame: TrapFrame,
}

/// Interrupt-context operation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcError {
    /// No interrupt context exists for the thread.
    NoContext,
    /// `sva.ipush.function` target was not registered via
    /// `sva.permitFunction`.
    PermitDenied {
        /// The rejected handler address.
        addr: u64,
    },
    /// No saved context to load (unbalanced `sva.icontext.load`).
    NothingSaved,
}

impl std::fmt::Display for IcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IcError::NoContext => write!(f, "no interrupt context for thread"),
            IcError::PermitDenied { addr } => {
                write!(
                    f,
                    "function {addr:#x} not registered with sva.permitFunction"
                )
            }
            IcError::NothingSaved => write!(f, "no saved interrupt context"),
        }
    }
}

impl std::error::Error for IcError {}

/// Storage for interrupt contexts and signal-handler permits.
#[derive(Debug, Default)]
pub struct IcStore {
    stacks: IntMap<ThreadId, Vec<InterruptContext>>,
    saved: IntMap<ThreadId, Vec<InterruptContext>>,
    permits: IntMap<ProcId, IntSet<u64>>,
}

impl IcStore {
    /// Depth of the trap stack for a thread (0 = running in user mode).
    pub fn depth(&self, thread: ThreadId) -> usize {
        self.stacks.get(&thread).map_or(0, |s| s.len())
    }

    /// Drops all state for a thread (thread exit).
    pub fn remove_thread(&mut self, thread: ThreadId) {
        self.stacks.remove(&thread);
        self.saved.remove(&thread);
    }

    /// Drops permit registrations for a process (process exit / exec).
    pub fn clear_permits(&mut self, proc: ProcId) {
        self.permits.remove(&proc);
    }
}

/// System-call argument registers preserved across the trap-entry scrub
/// (x86-64 SysV syscall convention: number in RAX, args in RDI RSI RDX
/// R10 R8 R9).
const SYSCALL_REGS: [Reg; 7] = [
    Reg::Rax,
    Reg::Rdi,
    Reg::Rsi,
    Reg::Rdx,
    Reg::R10,
    Reg::R8,
    Reg::R9,
];

impl SvaVm {
    /// Trap entry: the hardware (via the IST) hands interrupted state to the
    /// SVA VM, which stores it and — under Virtual Ghost — scrubs the
    /// registers the OS does not need.
    pub fn trap_enter(&mut self, machine: &mut Machine, thread: ThreadId, kind: TrapKind) {
        let (trap_name, detail) = trap_trace_parts(kind);
        machine.trace_begin("trap", trap_name, detail);
        machine.trace_emit(TraceEvent::TrapEnter {
            kind: trap_name,
            detail,
        });
        machine.counters.traps += 1;
        machine.prof_push(Domain::Trap, trap_name);
        machine.charge(machine.costs.trap_entry + machine.costs.ic_save);
        machine.prof_pop();
        let frame = machine.cpu.take_trap(kind);
        self.ic
            .stacks
            .entry(thread)
            .or_default()
            .push(InterruptContext { frame });
        if self.protections.enforced {
            match kind {
                TrapKind::Syscall(_) => machine.cpu.scrub_registers(&SYSCALL_REGS),
                _ => machine.cpu.scrub_registers(&[]),
            }
        }
    }

    /// Trap return: pops the thread's top IC and resumes the CPU from it.
    ///
    /// # Errors
    ///
    /// [`IcError::NoContext`] if the thread has no pending trap.
    pub fn trap_return(&mut self, machine: &mut Machine, thread: ThreadId) -> Result<(), SvaError> {
        machine.prof_push(Domain::Trap, "trap_return");
        machine.charge(machine.costs.trap_exit + machine.costs.ic_restore);
        machine.prof_pop();
        let ic = self
            .ic
            .stacks
            .get_mut(&thread)
            .and_then(|s| s.pop())
            .ok_or(SvaError::Ic(IcError::NoContext))?;
        machine.cpu.resume(&ic.frame);
        let (trap_name, _) = trap_trace_parts(ic.frame.kind);
        machine.trace_emit(TraceEvent::TrapExit);
        machine.trace_end("trap", trap_name);
        Ok(())
    }

    /// Controlled mutation: sets the system-call return value (RAX) in the
    /// thread's top IC. This is the one register the OS must legitimately
    /// write.
    ///
    /// # Errors
    ///
    /// [`IcError::NoContext`] if the thread has no pending trap.
    pub fn ic_set_return_value(&mut self, thread: ThreadId, value: u64) -> Result<(), SvaError> {
        let ic = self.ic_top_mut(thread)?;
        ic.frame.gprs[Reg::Rax as usize] = value;
        Ok(())
    }

    /// Reads the system-call number and argument registers from the top IC
    /// (the OS is allowed to see these; everything else was scrubbed).
    ///
    /// # Errors
    ///
    /// [`IcError::NoContext`] if the thread has no pending trap.
    pub fn ic_syscall_args(&self, thread: ThreadId) -> Result<[u64; 7], SvaError> {
        let ic = self
            .ic
            .stacks
            .get(&thread)
            .and_then(|s| s.last())
            .ok_or(SvaError::Ic(IcError::NoContext))?;
        Ok(SYSCALL_REGS.map(|r| ic.frame.gprs[r as usize]))
    }

    /// Native-mode escape hatch: direct mutable access to the top IC —
    /// `None` under Virtual Ghost. This models the IC living on the kernel
    /// stack in the baseline system, where a hostile kernel may read or
    /// rewrite interrupted registers and the saved PC at will.
    pub fn native_ic_mut(&mut self, thread: ThreadId) -> Option<&mut InterruptContext> {
        if self.protections.enforced {
            return None;
        }
        self.ic.stacks.get_mut(&thread).and_then(|s| s.last_mut())
    }

    /// `sva.permitFunction`: the application registers `addr` as a valid
    /// signal-handler entry point (called via the libc wrapper for
    /// `signal`/`sigaction`, §4.6.1).
    pub fn sva_permit_function(&mut self, proc: ProcId, addr: u64) {
        self.ic.permits.entry(proc).or_default().insert(addr);
    }

    /// `sva.icontext.save`: pushes a copy of the thread's current IC onto
    /// the per-thread saved stack inside SVA memory (run before signal
    /// dispatch).
    ///
    /// # Errors
    ///
    /// [`IcError::NoContext`] if the thread has no pending trap.
    pub fn sva_icontext_save(
        &mut self,
        machine: &mut Machine,
        thread: ThreadId,
    ) -> Result<(), SvaError> {
        let t0 = machine.clock.cycles();
        machine.prof_push(Domain::Sva, "sva.icontext.save");
        machine.charge(machine.costs.ic_save / 8 + 20);
        machine.prof_pop();
        let top = self
            .ic
            .stacks
            .get(&thread)
            .and_then(|s| s.last())
            .cloned()
            .ok_or(SvaError::Ic(IcError::NoContext))?;
        self.ic.saved.entry(thread).or_default().push(top);
        machine.trace_complete("sva", "sva.icontext.save", t0);
        Ok(())
    }

    /// `sva.icontext.load`: restores the most recently saved IC into the
    /// thread's top slot (run on `sigreturn`).
    ///
    /// # Errors
    ///
    /// [`IcError::NothingSaved`] on unbalanced load, [`IcError::NoContext`]
    /// if the thread has no pending trap.
    pub fn sva_icontext_load(
        &mut self,
        machine: &mut Machine,
        thread: ThreadId,
    ) -> Result<(), SvaError> {
        let t0 = machine.clock.cycles();
        machine.prof_push(Domain::Sva, "sva.icontext.load");
        machine.charge(machine.costs.ic_restore / 8 + 20);
        machine.prof_pop();
        let saved = self
            .ic
            .saved
            .get_mut(&thread)
            .and_then(|s| s.pop())
            .ok_or(SvaError::Ic(IcError::NothingSaved))?;
        *self.ic_top_mut(thread)? = saved;
        machine.trace_complete("sva", "sva.icontext.load", t0);
        Ok(())
    }

    /// `sva.ipush.function`: rewrites the thread's top IC so that resuming
    /// the thread invokes `handler(arg)` in user mode. Under Virtual Ghost
    /// the handler must have been registered via
    /// [`sva_permit_function`](Self::sva_permit_function); the paper's
    /// second rootkit attack fails exactly here.
    ///
    /// # Errors
    ///
    /// [`IcError::PermitDenied`] for unregistered targets (protected mode),
    /// [`IcError::NoContext`] if the thread has no pending trap.
    pub fn sva_ipush_function(
        &mut self,
        machine: &mut Machine,
        thread: ThreadId,
        proc: ProcId,
        handler: u64,
        arg: u64,
    ) -> Result<(), SvaError> {
        let t0 = machine.clock.cycles();
        machine.prof_push(Domain::Sva, "sva.ipush.function");
        machine.charge(machine.costs.ic_save / 2 + 60);
        machine.prof_pop();
        if self.protections.enforced {
            let permitted = self
                .ic
                .permits
                .get(&proc)
                .is_some_and(|set| set.contains(&handler));
            if !permitted {
                machine.record_denial(
                    DenialKind::IcPermitDenied,
                    handler,
                    "sva.ipush.function: handler not registered via sva.permitFunction",
                );
                machine.trace_emit(TraceEvent::IcDenied { addr: handler });
                return Err(SvaError::Ic(IcError::PermitDenied { addr: handler }));
            }
        }
        let ic = self.ic_top_mut(thread)?;
        ic.frame.rip = handler;
        ic.frame.gprs[Reg::Rdi as usize] = arg;
        ic.frame.privilege = Privilege::User;
        machine.trace_complete("sva", "sva.ipush.function", t0);
        Ok(())
    }

    /// `sva.newstate`: creates the initial IC for a new thread as a clone of
    /// `from_thread`'s current IC (fork-style). The kernel then sets the
    /// child's return value (0 from `fork`) through
    /// [`ic_set_return_value`](Self::ic_set_return_value).
    ///
    /// # Errors
    ///
    /// [`IcError::NoContext`] if the parent has no pending trap.
    pub fn sva_newstate(
        &mut self,
        machine: &mut Machine,
        new_thread: ThreadId,
        from_thread: ThreadId,
    ) -> Result<(), SvaError> {
        let t0 = machine.clock.cycles();
        machine.prof_push(Domain::Sva, "sva.newstate");
        machine.charge(machine.costs.ic_save + 100);
        machine.prof_pop();
        let top = self
            .ic
            .stacks
            .get(&from_thread)
            .and_then(|s| s.last())
            .cloned()
            .ok_or(SvaError::Ic(IcError::NoContext))?;
        self.ic.stacks.insert(new_thread, vec![top]);
        machine.trace_complete("sva", "sva.newstate", t0);
        Ok(())
    }

    /// `sva.newstate` for kernel threads: like
    /// [`sva_newstate`](Self::sva_newstate) but the OS specifies the kernel
    /// function the new thread starts in. "In order to maintain kernel
    /// control-flow integrity, Virtual Ghost verifies that the specified
    /// function is the entry point of a kernel function" (§4.6.2): under
    /// protection the entry must resolve in the code registry, lie in kernel
    /// text, and carry a CFI label.
    ///
    /// # Errors
    ///
    /// [`IcError::PermitDenied`] for invalid entries,
    /// [`IcError::NoContext`] if the parent has no pending trap.
    pub fn sva_newstate_kernel(
        &mut self,
        machine: &mut Machine,
        new_thread: ThreadId,
        from_thread: ThreadId,
        kernel_entry: u64,
    ) -> Result<(), SvaError> {
        if self.protections.enforced {
            let valid = kernel_entry >= vg_ir::registry::KERNEL_TEXT_BASE
                && self
                    .code
                    .resolve(vg_ir::CodeAddr(kernel_entry))
                    .is_some_and(|e| e.label.is_some());
            if !valid {
                machine.record_denial(
                    DenialKind::IcPermitDenied,
                    kernel_entry,
                    "sva.newstate: kernel-thread entry is not a labeled kernel function",
                );
                machine.trace_emit(TraceEvent::IcDenied { addr: kernel_entry });
                return Err(SvaError::Ic(IcError::PermitDenied { addr: kernel_entry }));
            }
        }
        self.sva_newstate(machine, new_thread, from_thread)?;
        if let Some(ic) = self
            .ic
            .stacks
            .get_mut(&new_thread)
            .and_then(|s| s.last_mut())
        {
            ic.frame.rip = kernel_entry;
            ic.frame.privilege = Privilege::Kernel;
        }
        Ok(())
    }

    /// `sva.reinit.icontext`: resets the thread's top IC for `exec` — new
    /// entry point, new stack, user privilege. Ghost memory of the previous
    /// image and its permits must be torn down by the caller (the kernel's
    /// exec path does both, see `vg-kernel`).
    ///
    /// # Errors
    ///
    /// [`IcError::NoContext`] if the thread has no pending trap.
    pub fn sva_reinit_icontext(
        &mut self,
        machine: &mut Machine,
        thread: ThreadId,
        proc: ProcId,
        entry: VAddr,
        stack: VAddr,
    ) -> Result<(), SvaError> {
        let t0 = machine.clock.cycles();
        machine.prof_push(Domain::Sva, "sva.reinit.icontext");
        machine.charge(machine.costs.ic_save + 100);
        machine.prof_pop();
        self.ic.clear_permits(proc);
        let ic = self.ic_top_mut(thread)?;
        ic.frame = TrapFrame {
            gprs: [0; vg_machine::cpu::NUM_GPRS],
            rip: entry.0,
            rflags: 0,
            privilege: Privilege::User,
            kind: ic.frame.kind,
        };
        ic.frame.gprs[Reg::Rsp as usize] = stack.0;
        machine.trace_complete("sva", "sva.reinit.icontext", t0);
        Ok(())
    }

    fn ic_top_mut(&mut self, thread: ThreadId) -> Result<&mut InterruptContext, SvaError> {
        self.ic
            .stacks
            .get_mut(&thread)
            .and_then(|s| s.last_mut())
            .ok_or(SvaError::Ic(IcError::NoContext))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protections;
    use vg_crypto::Tpm;

    const T: ThreadId = ThreadId(1);
    const P: ProcId = ProcId(1);

    fn setup(p: Protections) -> (SvaVm, Machine) {
        let tpm = Tpm::new(1);
        (SvaVm::boot(p, &tpm, 3), Machine::new(Default::default()))
    }

    fn enter_user_and_trap(vm: &mut SvaVm, machine: &mut Machine) {
        machine.cpu.enter_user(VAddr(0x1000), VAddr(0x7000));
        machine.cpu.set_reg(Reg::Rax, 3); // syscall number
        machine.cpu.set_reg(Reg::Rdi, 77); // arg
        machine.cpu.set_reg(Reg::R15, 0xdeadbeef); // bystander register
        vm.trap_enter(machine, T, TrapKind::Syscall(3));
    }

    #[test]
    fn vg_scrubs_non_argument_registers() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        enter_user_and_trap(&mut vm, &mut machine);
        assert_eq!(machine.cpu.reg(Reg::Rdi), 77, "syscall args preserved");
        assert_eq!(machine.cpu.reg(Reg::R15), 0, "other registers scrubbed");
        assert_eq!(vm.ic.depth(T), 1);
    }

    #[test]
    fn native_leaves_registers_visible() {
        let (mut vm, mut machine) = setup(Protections::native());
        enter_user_and_trap(&mut vm, &mut machine);
        assert_eq!(machine.cpu.reg(Reg::R15), 0xdeadbeef);
    }

    #[test]
    fn trap_return_restores_state_with_return_value() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        enter_user_and_trap(&mut vm, &mut machine);
        vm.ic_set_return_value(T, 42).unwrap();
        vm.trap_return(&mut machine, T).unwrap();
        assert_eq!(machine.cpu.reg(Reg::Rax), 42);
        assert_eq!(
            machine.cpu.reg(Reg::R15),
            0xdeadbeef,
            "app registers restored"
        );
        assert_eq!(machine.cpu.rip, 0x1000);
        assert_eq!(machine.cpu.privilege(), Privilege::User);
        assert_eq!(vm.ic.depth(T), 0);
    }

    #[test]
    fn ic_invisible_under_vg_visible_native() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        enter_user_and_trap(&mut vm, &mut machine);
        assert!(vm.native_ic_mut(T).is_none(), "VG: IC lives in SVA memory");

        let (mut vm, mut machine) = setup(Protections::native());
        enter_user_and_trap(&mut vm, &mut machine);
        let ic = vm.native_ic_mut(T).expect("native: IC on kernel stack");
        // A hostile native kernel can redirect the PC arbitrarily.
        ic.frame.rip = 0x6666;
        vm.trap_return(&mut machine, T).unwrap();
        assert_eq!(machine.cpu.rip, 0x6666);
    }

    #[test]
    fn ipush_requires_permit_under_vg() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        enter_user_and_trap(&mut vm, &mut machine);
        let err = vm
            .sva_ipush_function(&mut machine, T, P, 0x5555, 9)
            .unwrap_err();
        assert_eq!(err, SvaError::Ic(IcError::PermitDenied { addr: 0x5555 }));

        vm.sva_permit_function(P, 0x5555);
        vm.sva_ipush_function(&mut machine, T, P, 0x5555, 9)
            .unwrap();
        vm.trap_return(&mut machine, T).unwrap();
        assert_eq!(machine.cpu.rip, 0x5555);
        assert_eq!(machine.cpu.reg(Reg::Rdi), 9);
    }

    #[test]
    fn ipush_unchecked_in_native_mode() {
        let (mut vm, mut machine) = setup(Protections::native());
        enter_user_and_trap(&mut vm, &mut machine);
        // No permit registered, still succeeds: the attack surface.
        vm.sva_ipush_function(&mut machine, T, P, 0x5555, 9)
            .unwrap();
    }

    #[test]
    fn signal_save_load_roundtrip() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        enter_user_and_trap(&mut vm, &mut machine);
        vm.sva_permit_function(P, 0x5555);
        vm.sva_icontext_save(&mut machine, T).unwrap();
        vm.sva_ipush_function(&mut machine, T, P, 0x5555, 9)
            .unwrap();
        // …handler runs, calls sigreturn…
        vm.sva_icontext_load(&mut machine, T).unwrap();
        vm.trap_return(&mut machine, T).unwrap();
        assert_eq!(machine.cpu.rip, 0x1000, "original PC restored");
        // Unbalanced load fails.
        enter_user_and_trap(&mut vm, &mut machine);
        assert_eq!(
            vm.sva_icontext_load(&mut machine, T),
            Err(SvaError::Ic(IcError::NothingSaved))
        );
    }

    #[test]
    fn newstate_clones_parent_ic() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        enter_user_and_trap(&mut vm, &mut machine);
        let child = ThreadId(2);
        vm.sva_newstate(&mut machine, child, T).unwrap();
        vm.ic_set_return_value(child, 0).unwrap();
        vm.ic_set_return_value(T, 99).unwrap();
        vm.trap_return(&mut machine, child).unwrap();
        assert_eq!(machine.cpu.reg(Reg::Rax), 0, "child sees fork()==0");
        assert_eq!(machine.cpu.rip, 0x1000, "child resumes at the same PC");
    }

    #[test]
    fn reinit_resets_for_exec_and_clears_permits() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        enter_user_and_trap(&mut vm, &mut machine);
        vm.sva_permit_function(P, 0x5555);
        vm.sva_reinit_icontext(&mut machine, T, P, VAddr(0x2000), VAddr(0x8000))
            .unwrap();
        // Old permits gone: the new image must re-register handlers.
        let err = vm
            .sva_ipush_function(&mut machine, T, P, 0x5555, 0)
            .unwrap_err();
        assert!(matches!(err, SvaError::Ic(IcError::PermitDenied { .. })));
        vm.trap_return(&mut machine, T).unwrap();
        assert_eq!(machine.cpu.rip, 0x2000);
        assert_eq!(machine.cpu.reg(Reg::Rsp), 0x8000);
        assert_eq!(
            machine.cpu.reg(Reg::Rdi),
            0,
            "registers cleared for new image"
        );
    }

    #[test]
    fn syscall_args_readable() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        enter_user_and_trap(&mut vm, &mut machine);
        let args = vm.ic_syscall_args(T).unwrap();
        assert_eq!(args[0], 3); // rax
        assert_eq!(args[1], 77); // rdi
    }
}

#[cfg(test)]
mod kernel_thread_tests {
    use super::*;
    use crate::Protections;
    use vg_crypto::Tpm;
    use vg_ir::registry::CodeSpace;

    fn vm_with_kernel_fn(p: Protections) -> (SvaVm, Machine, u64) {
        let tpm = Tpm::new(2);
        let mut vm = SvaVm::boot_with_key_bits(p, &tpm, 4, 128);
        let machine = Machine::new(Default::default());
        let mut m = vg_ir::Module::new("kthread");
        m.push_function(vg_ir::FunctionBuilder::new("worker", 0).ret(Some(0.into())));
        let t = vm.compiler.compile(m).unwrap();
        let h = vm.load_kernel_module(t).unwrap();
        let entry = vm.code.addr_of(h, "worker").unwrap().0;
        (vm, machine, entry)
    }

    fn trap(vm: &mut SvaVm, machine: &mut Machine) {
        machine.cpu.enter_user(VAddr(0x1000), VAddr(0x8000));
        vm.trap_enter(machine, ThreadId(1), TrapKind::Syscall(1));
    }

    #[test]
    fn kernel_thread_creation_accepts_labeled_kernel_entry() {
        let (mut vm, mut machine, entry) = vm_with_kernel_fn(Protections::virtual_ghost());
        trap(&mut vm, &mut machine);
        vm.sva_newstate_kernel(&mut machine, ThreadId(9), ThreadId(1), entry)
            .unwrap();
        vm.trap_return(&mut machine, ThreadId(9)).unwrap();
        assert_eq!(machine.cpu.rip, entry);
        assert_eq!(machine.cpu.privilege(), Privilege::Kernel);
    }

    #[test]
    fn kernel_thread_creation_rejects_arbitrary_entries_under_vg() {
        let (mut vm, mut machine, _entry) = vm_with_kernel_fn(Protections::virtual_ghost());
        trap(&mut vm, &mut machine);
        // A user-space address is not a kernel function entry…
        let err = vm
            .sva_newstate_kernel(&mut machine, ThreadId(9), ThreadId(1), 0x40_0000)
            .unwrap_err();
        assert!(matches!(err, SvaError::Ic(IcError::PermitDenied { .. })));
        // …nor is a random kernel address with no registered function.
        let err = vm
            .sva_newstate_kernel(
                &mut machine,
                ThreadId(9),
                ThreadId(1),
                vg_ir::registry::KERNEL_TEXT_BASE + 0x0dea_d000,
            )
            .unwrap_err();
        assert!(matches!(err, SvaError::Ic(IcError::PermitDenied { .. })));
    }

    #[test]
    fn kernel_thread_creation_unchecked_natively() {
        let (mut vm, mut machine, _entry) = vm_with_kernel_fn(Protections::native());
        trap(&mut vm, &mut machine);
        // Native kernels can start threads anywhere — the attack surface.
        vm.sva_newstate_kernel(&mut machine, ThreadId(9), ThreadId(1), 0x40_0000)
            .unwrap();
    }

    #[test]
    fn unlabeled_kernel_code_rejected_as_thread_entry() {
        // Load an *uninstrumented* module into a native VM's registry, then
        // check a VG VM would refuse such an entry (labels required).
        let tpm = Tpm::new(3);
        let mut vm = SvaVm::boot_with_key_bits(Protections::virtual_ghost(), &tpm, 5, 128);
        let mut machine = Machine::new(Default::default());
        let mut m = vg_ir::Module::new("raw");
        m.push_function(vg_ir::FunctionBuilder::new("f", 0).ret(None));
        // Register without compiling (simulating stale unlabeled code).
        let h = vm.code.register_module(m, CodeSpace::Kernel);
        let entry = vm.code.addr_of(h, "f").unwrap().0;
        trap(&mut vm, &mut machine);
        let err = vm
            .sva_newstate_kernel(&mut machine, ThreadId(9), ThreadId(1), entry)
            .unwrap_err();
        assert!(matches!(err, SvaError::Ic(IcError::PermitDenied { .. })));
    }
}
