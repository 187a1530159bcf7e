//! # vg-attacks
//!
//! The hostile kernel modules from the paper's security evaluation (§7),
//! expressed as `vg-ir` module sources, plus additional attack vectors from
//! the §2.2 taxonomy. Each builder returns an IR [`Module`]; the *pipeline*
//! the module goes through — raw loading on a native system, the
//! instrumenting compiler under Virtual Ghost — is what decides its power.
//!
//! Based on the paper's Kong-style rootkit: the module "replaces the
//! function that handles the read() system call and executes the attack as
//! the victim process reads data from a file descriptor". Configuration
//! (victim address, lengths) arrives through the `kern.config` cells — the
//! paper's "can be configured by a non-privileged user".
//!
//! * [`direct_read_module`] — attack 1: load the secret straight out of the
//!   victim's memory and print it to the system log.
//! * [`signal_inject_module`] — attack 2: mmap a buffer into the victim,
//!   "copy exploit code" into it, point a signal handler at it, raise the
//!   signal; the exploit (running *as* the victim) exfiltrates the secret
//!   to a file via `write`.
//! * [`ic_hijack_module`] — interrupted-program-state attack (§2.2.4):
//!   rewrite the saved PC so the victim resumes in exploit code.
//! * [`iago_mmap_module`] — Iago attack (§2.2.5): a hooked `mmap` returns a
//!   pointer into the victim's own ghost memory.
//! * [`iago_read_module`] — Iago attack (§2.2.5): a hooked `read` claims to
//!   have transferred more bytes than it was asked for.
//!
//! Config cell layout (set by the attack harness through
//! `System::set_module_config`):
//!
//! | cell | meaning |
//! |------|---------|
//! | 0    | victim secret address |
//! | 1    | secret length |
//! | 5    | address `iago_mmap_module` should return |
//! | 8    | byte count `iago_read_module` should claim |

use vg_ir::inst::Width;
use vg_ir::{BinOp, FunctionBuilder, Module};
use vg_kernel::syscall::{SYS_MMAP, SYS_READ};
use vg_kernel::SIGUSR1;
use vg_machine::layout::KERNEL_BASE;

/// Kernel-heap scratch buffer the modules copy stolen bytes into before
/// calling the logging/exfiltration APIs (which accept only kernel-heap
/// pointers).
pub const MODULE_SCRATCH: u64 = KERNEL_BASE + 0x8000;

/// Emits a loop copying the secret (address/length from config cells 0/1)
/// into [`MODULE_SCRATCH`] using the module's own loads and stores — the
/// instructions the Virtual Ghost compiler instruments. Returns the length
/// register.
fn emit_copy_secret_to_scratch(b: &mut FunctionBuilder) -> vg_ir::VReg {
    let addr = b.ext("kern.config", &[0.into()]);
    let len = b.ext("kern.config", &[1.into()]);
    let i = b.mov(0.into());
    let loop_blk = b.new_block();
    let body_blk = b.new_block();
    let done_blk = b.new_block();
    b.jmp(loop_blk);
    b.switch_to(loop_blk);
    let cond = b.bin(BinOp::Lts, i.into(), len.into());
    b.br(cond.into(), body_blk, done_blk);
    b.switch_to(body_blk);
    let src = b.bin(BinOp::Add, addr.into(), i.into());
    let byte = b.load(src.into(), Width::W1);
    let dst = b.bin(BinOp::Add, (MODULE_SCRATCH as i64).into(), i.into());
    b.store(byte.into(), dst.into(), Width::W1);
    let i2 = b.bin(BinOp::Add, i.into(), 1.into());
    b.mov_to(i, i2.into());
    b.jmp(loop_blk);
    b.switch_to(done_blk);
    len
}

fn emit_orig_read(b: &mut FunctionBuilder) -> vg_ir::VReg {
    let (fd, buf, n) = (b.param(0), b.param(1), b.param(2));
    b.ext(
        "kern.orig_syscall",
        &[(SYS_READ as i64).into(), fd.into(), buf.into(), n.into()],
    )
}

fn push_init_hooking(module: &mut Module, hook_name: &str, syscall: u32) {
    let hook_idx = module.find(hook_name).expect("hook exists");
    let mut b = FunctionBuilder::new("init", 0);
    let addr = b.ext("kern.own_fn_addr", &[(hook_idx as i64).into()]);
    b.ext("kern.hook_syscall", &[(syscall as i64).into(), addr.into()]);
    module.push_function(b.ret(None));
}

/// Attack 1: read the victim's secret directly and print it to the system
/// log (paper §7, first attack).
pub fn direct_read_module() -> Module {
    let mut m = Module::new("rootkit-direct-read");
    let mut b = FunctionBuilder::new("hook_read", 3);
    let len = emit_copy_secret_to_scratch(&mut b);
    b.ext(
        "kern.log_bytes",
        &[(MODULE_SCRATCH as i64).into(), len.into()],
    );
    let ret = emit_orig_read(&mut b);
    m.push_function(b.ret(Some(ret.into())));
    push_init_hooking(&mut m, "hook_read", SYS_READ);
    m
}

/// Attack 2: signal-handler code injection (paper §7, second attack).
///
/// The module contains both the `read` hook (which stages the attack) and
/// the `exploit` function (the "exploit code" copied into the victim's
/// mmap'ed buffer). The exploit, executing as the victim, copies the secret
/// out and writes it to a file.
pub fn signal_inject_module() -> Module {
    let mut m = Module::new("rootkit-signal-inject");
    // exploit(sig): runs in *user* context as the victim.
    let mut e = FunctionBuilder::new("exploit", 1);
    let addr = e.ext("user.secret_addr", &[]);
    let len = e.ext("user.secret_len", &[]);
    e.ext("user.exfil", &[addr.into(), len.into()]);
    let exploit_idx = m.push_function(e.ret(Some(0.into())));

    let mut b = FunctionBuilder::new("hook_read", 3);
    let pid = b.ext("kern.cur_pid", &[]);
    // 1. mmap a buffer in the victim, 2. "copy exploit code" into it,
    // 3. point the victim's signal handler at the buffer, 4. raise.
    let buf = b.ext("kern.mmap_user", &[pid.into(), 4096.into()]);
    let own = b.ext("kern.own_module", &[]);
    b.ext(
        "kern.inject_code",
        &[buf.into(), own.into(), (exploit_idx as i64).into()],
    );
    b.ext(
        "kern.set_sighandler",
        &[pid.into(), (SIGUSR1 as i64).into(), buf.into()],
    );
    b.ext("kern.send_signal", &[pid.into(), (SIGUSR1 as i64).into()]);
    let ret = emit_orig_read(&mut b);
    m.push_function(b.ret(Some(ret.into())));
    push_init_hooking(&mut m, "hook_read", SYS_READ);
    m
}

/// Interrupted-program-state attack (§2.2.4): rewrite the victim thread's
/// saved PC so that returning from the syscall resumes in injected code.
pub fn ic_hijack_module() -> Module {
    let mut m = Module::new("rootkit-ic-hijack");
    let mut e = FunctionBuilder::new("exploit", 1);
    let addr = e.ext("user.secret_addr", &[]);
    let len = e.ext("user.secret_len", &[]);
    e.ext("user.exfil", &[addr.into(), len.into()]);
    let exploit_idx = m.push_function(e.ret(Some(0.into())));

    let mut b = FunctionBuilder::new("hook_read", 3);
    let pid = b.ext("kern.cur_pid", &[]);
    let buf = b.ext("kern.mmap_user", &[pid.into(), 4096.into()]);
    let own = b.ext("kern.own_module", &[]);
    b.ext(
        "kern.inject_code",
        &[buf.into(), own.into(), (exploit_idx as i64).into()],
    );
    // The thread id equals the pid in this kernel.
    b.ext("kern.write_ic_rip", &[pid.into(), buf.into()]);
    let ret = emit_orig_read(&mut b);
    m.push_function(b.ret(Some(ret.into())));
    push_init_hooking(&mut m, "hook_read", SYS_READ);
    m
}

/// Control-flow-hijack attack (§4.5): the module models a kernel whose
/// function pointer was corrupted (e.g. by a buffer overflow) to point at
/// injected code. `hook_read` stages the injection, stores the "corrupted
/// pointer" in config cell 6 via the harness, and then performs an
/// **indirect call** through it — the exact control transfer CFI guards.
///
/// * Native: the indirect call lands in the injected `exploit_k` function,
///   which runs *in kernel context*, copies the secret with uninstrumented
///   loads, and logs it.
/// * Virtual Ghost: the compiled module's `CfiCheck` rejects the
///   out-of-kernel, unlabeled target and the kernel thread is terminated —
///   "the CFI instrumentation would detect that and terminate the execution
///   of the kernel thread."
pub fn fptr_hijack_module() -> Module {
    let mut m = Module::new("rootkit-fptr-hijack");
    // exploit_k: runs in KERNEL context when reached.
    let mut e = FunctionBuilder::new("exploit_k", 0);
    let len = emit_copy_secret_to_scratch(&mut e);
    e.ext(
        "kern.log_bytes",
        &[(MODULE_SCRATCH as i64).into(), len.into()],
    );
    let exploit_idx = m.push_function(e.ret(Some(0.into())));

    // Two-phase hook (injected code only becomes reachable after the
    // translation round that registered it): the first intercepted read
    // stages the injection and saves the "corrupted function pointer" in
    // config cell 6; subsequent reads fire the indirect call through it.
    let mut b = FunctionBuilder::new("hook_read", 3);
    let stage_blk = b.new_block();
    let fire_blk = b.new_block();
    let done_blk = b.new_block();
    let fptr = b.ext("kern.config", &[6.into()]);
    let staged = b.bin(BinOp::Ne, fptr.into(), 0.into());
    b.br(staged.into(), fire_blk, stage_blk);
    b.switch_to(stage_blk);
    let pid = b.ext("kern.cur_pid", &[]);
    let buf = b.ext("kern.mmap_user", &[pid.into(), 4096.into()]);
    let own = b.ext("kern.own_module", &[]);
    b.ext(
        "kern.inject_code",
        &[buf.into(), own.into(), (exploit_idx as i64).into()],
    );
    b.ext("kern.set_config", &[6.into(), buf.into()]);
    b.jmp(done_blk);
    b.switch_to(fire_blk);
    // The corrupted function pointer is dereferenced here. (The Virtual
    // Ghost compiler inserts a CfiCheck immediately before this call.)
    b.call_indirect(fptr.into(), &[]);
    b.jmp(done_blk);
    b.switch_to(done_blk);
    let ret = emit_orig_read(&mut b);
    b.terminate(vg_ir::inst::Terminator::Ret(Some(ret.into())));
    m.push_function(b.finish());
    push_init_hooking(&mut m, "hook_read", SYS_READ);
    m
}

/// DMA / I/O-port attack (§2.2.1, third vector): the module tries to expose
/// the frame backing the victim's secret to device DMA — first through the
/// kernel's IOMMU-mapping API, then by programming the IOMMU's
/// configuration port directly. Config cell 7 carries the target frame
/// number (the OS knows which frame it donated). Returns 0 from the hook if
/// *either* route succeeded.
pub fn dma_expose_module() -> Module {
    let mut m = Module::new("rootkit-dma-expose");
    let mut b = FunctionBuilder::new("hook_read", 3);
    let pfn = b.ext("kern.config", &[7.into()]);
    let via_api = b.ext("kern.iommu_map", &[pfn.into()]);
    // 0xE0 is the IOMMU configuration port (vg_core::io::IOMMU_CONFIG_PORT).
    let via_port = b.ext("kern.port_write", &[0xE0.into(), pfn.into()]);
    let both_failed = b.bin(BinOp::And, via_api.into(), via_port.into());
    b.ext("kern.log_val", &[both_failed.into()]);
    let ret = emit_orig_read(&mut b);
    m.push_function(b.ret(Some(ret.into())));
    push_init_hooking(&mut m, "hook_read", SYS_READ);
    m
}

/// Iago attack through `mmap` (§2.2.5 / §4.7): the hooked `mmap` returns
/// the address in config cell 5 — pointed into the victim's ghost memory —
/// hoping the application will write to it and corrupt its own secrets.
pub fn iago_mmap_module() -> Module {
    let mut m = Module::new("rootkit-iago-mmap");
    let mut b = FunctionBuilder::new("hook_mmap", 3);
    let evil = b.ext("kern.config", &[5.into()]);
    m.push_function(b.ret(Some(evil.into())));
    push_init_hooking(&mut m, "hook_mmap", SYS_MMAP);
    m
}

/// Iago attack through `read` (§2.2.5): the hooked `read` performs the
/// real read, then returns the count in config cell 8 instead of the true
/// one — more than the caller asked for — hoping the trusted runtime copies
/// that many OS-chosen staging bytes into ghost memory past the end of the
/// caller's buffer.
pub fn iago_read_module() -> Module {
    let mut m = Module::new("rootkit-iago-read");
    let mut b = FunctionBuilder::new("hook_read", 3);
    emit_orig_read(&mut b);
    let claimed = b.ext("kern.config", &[8.into()]);
    m.push_function(b.ret(Some(claimed.into())));
    push_init_hooking(&mut m, "hook_read", SYS_READ);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_ir::inst::Inst;
    use vg_ir::verify::verify_module;

    #[test]
    fn modules_are_well_formed() {
        for m in [
            direct_read_module(),
            signal_inject_module(),
            ic_hijack_module(),
            iago_mmap_module(),
            iago_read_module(),
        ] {
            verify_module(&m).expect("attack module verifies");
            assert!(m.find("init").is_some());
        }
    }

    #[test]
    fn direct_read_uses_real_loads() {
        // The attack's memory accesses must be IR loads/stores (so the
        // sandboxing pass sees them), not host calls.
        let m = direct_read_module();
        let f = &m.functions[m.find("hook_read").unwrap() as usize];
        assert!(f.insts().any(|i| matches!(i, Inst::Load { .. })));
        assert!(f.insts().any(|i| matches!(i, Inst::Store { .. })));
    }

    #[test]
    fn compiled_attack_is_masked() {
        // After the VG compiler runs, every load/store in the attack is
        // preceded by pointer masking.
        let mut s = 0xabcdu64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let compiler = vg_ir::VgCompiler::new(vg_crypto::RsaKeyPair::generate(256, &mut rng));
        let t = compiler.compile(direct_read_module()).unwrap();
        let f = &t.module.functions[t.module.find("hook_read").unwrap() as usize];
        let masks = f
            .insts()
            .filter(|i| matches!(i, Inst::MaskGhost { .. }))
            .count();
        assert!(masks >= 2, "load + store masked");
        assert!(t.module.fully_labeled());
    }

    #[test]
    fn fptr_hijack_module_is_well_formed() {
        vg_ir::verify::verify_module(&fptr_hijack_module()).expect("verifies");
        let f = &fptr_hijack_module();
        let hook = &f.functions[f.find("hook_read").unwrap() as usize];
        assert!(hook.insts().any(|i| matches!(i, Inst::CallIndirect { .. })));
    }

    #[test]
    fn direct_read_steals_on_native_kernel() {
        use vg_kernel::{Mode, System};
        let mut sys = System::boot(Mode::Native);
        // Victim: secret in *traditional* heap (native apps have no ghost).
        sys.install_app("victim", false, || {
            Box::new(|env| {
                let heap = env.mmap_anon(4096);
                env.write_mem(heap, b"SECRET-KEY-MATERIAL");
                env.sys.set_module_config(0, heap as i64);
                env.sys.set_module_config(1, 19);
                // Victim reads from a file → the hooked read runs.
                let fd = env.open("/data", vg_kernel::syscall::O_CREAT);
                env.read(fd, heap + 1024, 16);
                env.close(fd);
                0
            })
        });
        sys.install_raw_module(direct_read_module())
            .expect("native accepts raw modules");
        let pid = sys.spawn("victim");
        sys.run_until_exit(pid);
        let log = sys.log.join("\n");
        assert!(
            log.contains("SECRET-KEY-MATERIAL"),
            "attack 1 succeeds natively: {log}"
        );
    }

    #[test]
    fn direct_read_defeated_under_virtual_ghost() {
        use vg_kernel::{Mode, System};
        let mut sys = System::boot(Mode::VirtualGhost);
        // Victim: secret in ghost memory.
        sys.install_app("victim", true, || {
            Box::new(|env| {
                let ghost = env.allocgm(1).expect("ghost page");
                env.write_mem(ghost, b"SECRET-KEY-MATERIAL");
                env.sys.set_module_config(0, ghost as i64);
                env.sys.set_module_config(1, 19);
                let fd = env.open("/data", vg_kernel::syscall::O_CREAT);
                let buf = env.mmap_anon(4096);
                env.read(fd, buf, 16);
                env.close(fd);
                // Victim continues unaffected and can still read its secret.
                (env.read_mem(ghost, 19) != b"SECRET-KEY-MATERIAL") as i32
            })
        });
        // The rootkit must go through the VG compiler to load at all.
        sys.install_module(direct_read_module())
            .expect("instrumented module loads");
        let pid = sys.spawn("victim");
        assert_eq!(sys.run_until_exit(pid), 0, "victim unaffected");
        let log = sys.log.join("\n");
        assert!(
            !log.contains("SECRET-KEY-MATERIAL"),
            "attack 1 defeated: {log}"
        );
    }
}
