//! The IR executor.
//!
//! Stands in for running translated native code. Memory accesses go through
//! a caller-supplied [`MemBus`] (the kernel wires this to the simulated
//! machine with kernel privileges); host calls go through an
//! [`ExternHost`] (kernel APIs and SVA-OS operations).
//!
//! The executor is a tree-walker over [`Inst`] values: one host call frame
//! per IR call, bounded by the call-depth limit (128 frames by default),
//! with each frame's registers on the heap. Every non-terminator
//! instruction costs one unit of fuel and one [`InterpStats::insts`]; the
//! kernel turns the stats into simulated cycles.
//!
//! Security-relevant semantics:
//!
//! * `Inst::MaskGhost` performs the paper's
//!   bit-39 OR — an instrumented module *can still execute* a load of a
//!   ghost address, but the address it actually dereferences has been
//!   displaced into kernel space.
//! * `Inst::CfiCheck` faults unless the
//!   target resolves to a function carrying the expected label **and** lies
//!   in kernel space. An uninstrumented interpreter run (native kernel)
//!   executes indirect calls straight through the registry — including to
//!   injected, unlabeled code.
//! * Indirect calls and CFI checks resolve their target in the registry at
//!   the moment they execute, so code injected with
//!   [`CodeRegistry::register_at`] is seen by the very next lookup.

use crate::inst::{BinOp, Function, Inst, Operand, Terminator, Width};
use crate::registry::{CodeAddr, CodeRegistry, ModuleHandle};
use vg_machine::layout::{mask_kernel_pointer, SVA_INTERNAL_BASE, SVA_INTERNAL_END};
use vg_machine::VAddr;

/// A memory access fault raised by a [`MemBus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting address.
    pub addr: u64,
    /// Whether the access was a write.
    pub write: bool,
}

/// Memory seen by executing code.
pub trait MemBus {
    /// Loads `width` bytes at `addr` (zero-extended).
    ///
    /// # Errors
    ///
    /// [`MemFault`] if the address is not accessible.
    fn load(&mut self, addr: u64, width: Width) -> Result<u64, MemFault>;

    /// Stores the low `width` bytes of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemFault`] if the address is not writable.
    fn store(&mut self, addr: u64, width: Width, value: u64) -> Result<(), MemFault>;

    /// Copies `len` bytes from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// [`MemFault`] on the first inaccessible byte.
    fn memcpy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), MemFault> {
        for i in 0..len {
            let b = self.load(src + i, Width::W1)?;
            self.store(dst + i, Width::W1, b)?;
        }
        Ok(())
    }
}

/// Host services available to executing code.
pub trait ExternHost {
    /// Invokes host function `name` with `args`.
    ///
    /// # Errors
    ///
    /// [`HostError::Unknown`] for an unrecognized name, or
    /// [`HostError::Failed`] if the host operation itself failed fatally
    /// (host operations that fail *benignly* should return an error code as
    /// their `i64` result instead, like a real kernel API).
    fn call_extern(&mut self, name: &str, args: &[i64]) -> Result<i64, HostError>;
}

/// Failure of a host call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// No such host function.
    Unknown,
    /// The host operation failed fatally.
    Failed(String),
}

/// A combined execution environment: memory plus host services.
///
/// The interpreter takes a single `&mut dyn EnvBus` so that one object (e.g.
/// the kernel context in `vg-kernel`) can serve loads/stores *and* host
/// calls that themselves touch the same state. For the common testing case
/// of independent memory and host objects, wrap them in [`Pair`].
pub trait EnvBus: MemBus + ExternHost {}

impl<T: MemBus + ExternHost + ?Sized> EnvBus for T {}

/// Adapter combining separate [`MemBus`] and [`ExternHost`] objects into one
/// [`EnvBus`]. Generic over both sides, defaulting to trait objects.
pub struct Pair<'m, 'h, M: ?Sized = dyn MemBus, H: ?Sized = dyn ExternHost> {
    /// Memory side.
    pub mem: &'m mut M,
    /// Host side.
    pub host: &'h mut H,
}

impl<M: MemBus + ?Sized, H: ?Sized> MemBus for Pair<'_, '_, M, H> {
    fn load(&mut self, addr: u64, width: Width) -> Result<u64, MemFault> {
        self.mem.load(addr, width)
    }

    fn store(&mut self, addr: u64, width: Width, value: u64) -> Result<(), MemFault> {
        self.mem.store(addr, width, value)
    }

    fn memcpy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), MemFault> {
        self.mem.memcpy(dst, src, len)
    }
}

impl<M: ?Sized, H: ExternHost + ?Sized> ExternHost for Pair<'_, '_, M, H> {
    fn call_extern(&mut self, name: &str, args: &[i64]) -> Result<i64, HostError> {
        self.host.call_extern(name, args)
    }
}

/// Why execution faulted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpFault {
    /// A memory access faulted.
    Mem(MemFault),
    /// A CFI check failed — the paper's "terminate the execution of the
    /// kernel thread".
    CfiViolation {
        /// The rejected branch target.
        target: u64,
    },
    /// An indirect call hit an address with no code registered.
    BadIndirect {
        /// The unresolvable address.
        target: u64,
    },
    /// Unknown host function.
    UnknownExtern {
        /// The name that failed to resolve.
        name: String,
    },
    /// A host operation failed fatally.
    HostFailed {
        /// Host-provided description.
        reason: String,
    },
    /// The fuel budget was exhausted (runaway loop guard).
    OutOfFuel,
    /// Call stack exceeded the depth limit.
    StackOverflow,
}

impl std::fmt::Display for InterpFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpFault::Mem(m) => {
                write!(
                    f,
                    "memory fault at {:#x} ({})",
                    m.addr,
                    if m.write { "write" } else { "read" }
                )
            }
            InterpFault::CfiViolation { target } => write!(f, "CFI violation: target {target:#x}"),
            InterpFault::BadIndirect { target } => {
                write!(f, "indirect call to non-code {target:#x}")
            }
            InterpFault::UnknownExtern { name } => write!(f, "unknown extern `{name}`"),
            InterpFault::HostFailed { reason } => write!(f, "host call failed: {reason}"),
            InterpFault::OutOfFuel => write!(f, "out of fuel"),
            InterpFault::StackOverflow => write!(f, "call stack overflow"),
        }
    }
}

impl std::error::Error for InterpFault {}

/// Execution statistics — the kernel converts these into cycle charges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Instructions executed.
    pub insts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Mask/guard instructions executed (sandboxing overhead sites).
    pub masks: u64,
    /// CFI checks executed.
    pub cfi_checks: u64,
    /// Returns executed (CFI return-check sites under instrumentation).
    pub returns: u64,
    /// Host calls made.
    pub extern_calls: u64,
    /// Bytes moved by `memcpy`.
    pub memcpy_bytes: u64,
}

/// The interpreter.
#[derive(Debug)]
pub struct Interp<'a> {
    registry: &'a CodeRegistry,
    /// Statistics accumulated across `run` calls.
    pub stats: InterpStats,
    fuel: u64,
    max_depth: usize,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter over `registry` with a default fuel budget.
    pub fn new(registry: &'a CodeRegistry) -> Self {
        Interp {
            registry,
            stats: InterpStats::default(),
            fuel: 10_000_000,
            max_depth: 128,
        }
    }

    /// Overrides the fuel budget (instructions executed before
    /// [`InterpFault::OutOfFuel`]).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Overrides the call-depth limit (frames beyond which
    /// [`InterpFault::StackOverflow`] is raised). The entry function runs at
    /// depth 0 and is never refused; a limit of `n` allows `n` nested calls.
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Fuel left in the budget (one unit is spent per non-terminator
    /// instruction).
    pub fn fuel_remaining(&self) -> u64 {
        self.fuel
    }

    /// Runs the function registered at `entry`.
    ///
    /// # Errors
    ///
    /// Any [`InterpFault`] raised during execution.
    pub fn run<E: MemBus + ExternHost>(
        &mut self,
        entry: CodeAddr,
        args: &[i64],
        env: &mut E,
    ) -> Result<i64, InterpFault> {
        let entry_fn = self
            .registry
            .resolve(entry)
            .ok_or(InterpFault::BadIndirect { target: entry.0 })?;
        let (module, func) = (entry_fn.module, entry_fn.func);
        self.run_function(module, func, args, env)
    }

    /// Runs function `func` of `module` directly (used for direct kernel
    /// entry points that are not indirect-call targets).
    ///
    /// # Errors
    ///
    /// Any [`InterpFault`] raised during execution.
    pub fn run_function<E: MemBus + ExternHost>(
        &mut self,
        module: ModuleHandle,
        func: u32,
        args: &[i64],
        env: &mut E,
    ) -> Result<i64, InterpFault> {
        self.exec(module, func, args, env, 0)
    }

    fn exec(
        &mut self,
        module: ModuleHandle,
        func: u32,
        args: &[i64],
        env: &mut dyn EnvBus,
        depth: usize,
    ) -> Result<i64, InterpFault> {
        if depth > self.max_depth {
            return Err(InterpFault::StackOverflow);
        }
        let f: &Function = &self.registry.module(module).functions[func as usize];
        let instrumented = f.cfi_label.is_some();
        let mut regs = vec![0i64; f.max_reg() as usize + 1];
        for (i, a) in args.iter().enumerate().take(f.params as usize) {
            regs[i] = *a;
        }
        let mut block = 0usize;
        loop {
            let blk = &f.blocks[block];
            for inst in &blk.insts {
                if self.fuel == 0 {
                    return Err(InterpFault::OutOfFuel);
                }
                self.fuel -= 1;
                self.stats.insts += 1;
                self.step(inst, &mut regs, module, env, depth)?;
            }
            match &blk.term {
                Terminator::Jmp(t) => block = t.0 as usize,
                Terminator::Br {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    block = if eval(cond, &regs) != 0 {
                        then_blk.0
                    } else {
                        else_blk.0
                    } as usize;
                }
                Terminator::Ret(v) => {
                    if instrumented {
                        // The CFI pass also checks labels at return sites;
                        // in this executor returns are structurally safe, so
                        // the check always passes — but it costs.
                        self.stats.cfi_checks += 1;
                    }
                    self.stats.returns += 1;
                    return Ok(v.as_ref().map(|v| eval(v, &regs)).unwrap_or(0));
                }
            }
        }
    }

    fn step(
        &mut self,
        inst: &Inst,
        regs: &mut [i64],
        module: ModuleHandle,
        env: &mut dyn EnvBus,
        depth: usize,
    ) -> Result<(), InterpFault> {
        match inst {
            Inst::Bin { op, dst, lhs, rhs } => {
                let a = eval(lhs, regs);
                let b = eval(rhs, regs);
                regs[dst.0 as usize] = binop(*op, a, b);
            }
            Inst::Mov { dst, src } => {
                regs[dst.0 as usize] = eval(src, regs);
            }
            Inst::Load { dst, addr, width } => {
                self.stats.loads += 1;
                let a = eval(addr, regs) as u64;
                let v = env.load(a, *width).map_err(InterpFault::Mem)?;
                regs[dst.0 as usize] = v as i64;
            }
            Inst::Store { src, addr, width } => {
                self.stats.stores += 1;
                let a = eval(addr, regs) as u64;
                let v = eval(src, regs) as u64;
                env.store(a, *width, v).map_err(InterpFault::Mem)?;
            }
            Inst::Memcpy { dst, src, len } => {
                let d = eval(dst, regs) as u64;
                let s = eval(src, regs) as u64;
                let n = eval(len, regs) as u64;
                self.stats.memcpy_bytes += n;
                env.memcpy(d, s, n).map_err(InterpFault::Mem)?;
            }
            Inst::Call { dst, callee, args } => {
                let argv: Vec<i64> = args.iter().map(|a| eval(a, regs)).collect();
                let r = self.exec(module, *callee, &argv, env, depth + 1)?;
                if let Some(d) = dst {
                    regs[d.0 as usize] = r;
                }
            }
            Inst::CallIndirect { dst, target, args } => {
                let t = eval(target, regs) as u64;
                let entry = self
                    .registry
                    .resolve(CodeAddr(t))
                    .ok_or(InterpFault::BadIndirect { target: t })?
                    .clone();
                let argv: Vec<i64> = args.iter().map(|a| eval(a, regs)).collect();
                let r = self.exec(entry.module, entry.func, &argv, env, depth + 1)?;
                if let Some(d) = dst {
                    regs[d.0 as usize] = r;
                }
            }
            Inst::Extern { dst, name, args } => {
                self.stats.extern_calls += 1;
                let argv: Vec<i64> = args.iter().map(|a| eval(a, regs)).collect();
                let r = match env.call_extern(name, &argv) {
                    Ok(r) => r,
                    Err(HostError::Unknown) => {
                        return Err(InterpFault::UnknownExtern { name: name.clone() })
                    }
                    Err(HostError::Failed(reason)) => {
                        return Err(InterpFault::HostFailed { reason })
                    }
                };
                if let Some(d) = dst {
                    regs[d.0 as usize] = r;
                }
            }
            Inst::MaskGhost { dst, src } => {
                self.stats.masks += 1;
                let a = eval(src, regs) as u64;
                regs[dst.0 as usize] = mask_kernel_pointer(VAddr(a)).0 as i64;
            }
            Inst::ZeroSva { dst, src } => {
                self.stats.masks += 1;
                let a = eval(src, regs) as u64;
                regs[dst.0 as usize] = if (SVA_INTERNAL_BASE..SVA_INTERNAL_END).contains(&a) {
                    0
                } else {
                    a as i64
                };
            }
            Inst::CfiCheck {
                target,
                expected_label,
            } => {
                self.stats.cfi_checks += 1;
                let t = eval(target, regs) as u64;
                // No masking happens here: any target below kernel text is
                // rejected outright, then the label at the landing site must
                // match (see DESIGN.md §4).
                if t < crate::registry::KERNEL_TEXT_BASE {
                    return Err(InterpFault::CfiViolation { target: t });
                }
                match self.registry.resolve(CodeAddr(t)) {
                    Some(e) if e.label == Some(*expected_label) => {}
                    _ => return Err(InterpFault::CfiViolation { target: t }),
                }
            }
        }
        Ok(())
    }
}

fn eval(op: &Operand, regs: &[i64]) -> i64 {
    match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => *v,
    }
}

fn binop(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        // Shift counts are taken mod 64 (x86-64 semantics; see the
        // `BinOp::Shl`/`Shr` docs). The explicit mask makes the intent
        // visible — truncating to u32 first and letting `wrapping_shl` mask
        // produces the same bits, but reads like an accident.
        BinOp::Shl => a.wrapping_shl((b as u32) & 63),
        BinOp::Shr => ((a as u64).wrapping_shr((b as u32) & 63)) as i64,
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Ltu => ((a as u64) < (b as u64)) as i64,
        BinOp::Lts => (a < b) as i64,
    }
}

/// A flat test memory: a `Vec<u8>` addressed from zero. Useful for unit
/// tests of modules that do not touch the machine.
#[derive(Debug)]
pub struct FlatMem {
    /// Backing bytes.
    pub bytes: Vec<u8>,
}

impl FlatMem {
    /// A zeroed memory of `size` bytes.
    pub fn new(size: usize) -> Self {
        FlatMem {
            bytes: vec![0; size],
        }
    }
}

impl MemBus for FlatMem {
    fn load(&mut self, addr: u64, width: Width) -> Result<u64, MemFault> {
        let n = width.bytes() as usize;
        let a = addr as usize;
        if a + n > self.bytes.len() {
            return Err(MemFault { addr, write: false });
        }
        let mut le = [0u8; 8];
        le[..n].copy_from_slice(&self.bytes[a..a + n]);
        Ok(u64::from_le_bytes(le))
    }

    fn store(&mut self, addr: u64, width: Width, value: u64) -> Result<(), MemFault> {
        let n = width.bytes() as usize;
        let a = addr as usize;
        if a + n > self.bytes.len() {
            return Err(MemFault { addr, write: true });
        }
        self.bytes[a..a + n].copy_from_slice(&value.to_le_bytes()[..n]);
        Ok(())
    }

    fn memcpy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), MemFault> {
        let blen = self.bytes.len() as u64;
        let fits = src.checked_add(len).is_some_and(|e| e <= blen)
            && dst.checked_add(len).is_some_and(|e| e <= blen);
        let overlaps = len != 0 && src < dst.wrapping_add(len) && dst < src.wrapping_add(len);
        if fits && !overlaps {
            self.bytes
                .copy_within(src as usize..(src + len) as usize, dst as usize);
            return Ok(());
        }
        // Out-of-bounds or overlapping: the default interleaved byte copy
        // gets both the partial-write prefix and the propagation semantics
        // right, and it faults on exactly the right byte.
        for i in 0..len {
            let b = self.load(src + i, Width::W1)?;
            self.store(dst + i, Width::W1, b)?;
        }
        Ok(())
    }
}

/// A host that knows no functions — for pure-compute tests.
#[derive(Debug, Default)]
pub struct NullHost;

impl ExternHost for NullHost {
    fn call_extern(&mut self, _name: &str, _args: &[i64]) -> Result<i64, HostError> {
        Err(HostError::Unknown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Module, Terminator};
    use crate::registry::CodeSpace;

    fn run_one(m: Module, name: &str, args: &[i64]) -> Result<i64, InterpFault> {
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(m, CodeSpace::Kernel);
        let addr = reg.addr_of(h, name).unwrap();
        let mut interp = Interp::new(&reg);
        let mut mem = FlatMem::new(4096);
        let mut host = NullHost;
        interp.run(
            addr,
            args,
            &mut Pair {
                mem: &mut mem,
                host: &mut host,
            },
        )
    }

    #[test]
    fn arithmetic_and_return() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("f", 2);
        let s = b.bin(BinOp::Add, b.param(0).into(), b.param(1).into());
        let p = b.bin(BinOp::Mul, s.into(), 3.into());
        m.push_function(b.ret(Some(p.into())));
        assert_eq!(run_one(m, "f", &[2, 3]).unwrap(), 15);
    }

    #[test]
    fn branching_loop() {
        // sum 0..n
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("sum", 1);
        let body = b.new_block();
        let done = b.new_block();
        let i = b.mov(0.into());
        let acc = b.mov(0.into());
        b.jmp(body);
        b.switch_to(body);
        let cond = b.bin(BinOp::Lts, i.into(), b.param(0).into());
        let next = b.new_block();
        b.br(cond.into(), next, done);
        b.switch_to(next);
        let acc2 = b.bin(BinOp::Add, acc.into(), i.into());
        let i2 = b.bin(BinOp::Add, i.into(), 1.into());
        // Write back into the loop-carried registers (non-SSA, allowed).
        b.mov_to(acc, acc2.into());
        b.mov_to(i, i2.into());
        b.jmp(body);
        b.switch_to(done);
        b.terminate(Terminator::Ret(Some(acc.into())));
        m.push_function(b.finish());
        assert_eq!(run_one(m, "sum", &[5]).unwrap(), 10);
    }

    #[test]
    fn memory_roundtrip_and_fault() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("f", 1);
        b.store(0x1234.into(), 100.into(), Width::W4);
        let v = b.load(100.into(), Width::W4);
        m.push_function(b.ret(Some(v.into())));
        assert_eq!(run_one(m.clone(), "f", &[0]).unwrap(), 0x1234);

        let mut m2 = Module::new("t2");
        let mut b2 = FunctionBuilder::new("g", 0);
        let v = b2.load(1_000_000.into(), Width::W8);
        m2.push_function(b2.ret(Some(v.into())));
        assert!(matches!(run_one(m2, "g", &[]), Err(InterpFault::Mem(_))));
    }

    #[test]
    fn direct_call_between_functions() {
        let mut m = Module::new("t");
        let mut callee = FunctionBuilder::new("inc", 1);
        let r = callee.bin(BinOp::Add, callee.param(0).into(), 1.into());
        m.push_function(callee.ret(Some(r.into())));
        let mut caller = FunctionBuilder::new("main", 0);
        let r = caller.call(0, &[41.into()]);
        m.push_function(caller.ret(Some(r.into())));
        assert_eq!(run_one(m, "main", &[]).unwrap(), 42);
    }

    #[test]
    fn indirect_call_via_registry() {
        let mut m = Module::new("t");
        m.push_function(FunctionBuilder::new("target", 0).ret(Some(7.into())));
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(m, CodeSpace::Kernel);
        let taddr = reg.addr_of(h, "target").unwrap();

        let mut m2 = Module::new("caller");
        let mut b = FunctionBuilder::new("main", 1);
        let r = b.call_indirect(b.param(0).into(), &[]);
        m2.push_function(b.ret(Some(r.into())));
        let h2 = reg.register_module(m2, CodeSpace::Kernel);
        let maddr = reg.addr_of(h2, "main").unwrap();

        let mut interp = Interp::new(&reg);
        let mut mem = FlatMem::new(16);
        let mut host = NullHost;
        let mut env = Pair {
            mem: &mut mem,
            host: &mut host,
        };
        assert_eq!(interp.run(maddr, &[taddr.0 as i64], &mut env).unwrap(), 7);
        // Unregistered target faults.
        assert!(matches!(
            interp.run(maddr, &[0x999], &mut env),
            Err(InterpFault::BadIndirect { .. })
        ));
    }

    #[test]
    fn out_of_fuel_on_infinite_loop() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("spin", 0);
        let blk = b.new_block();
        b.jmp(blk);
        b.switch_to(blk);
        b.mov(0.into());
        b.jmp(blk);
        m.push_function(b.finish());
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(m, CodeSpace::Kernel);
        let addr = reg.addr_of(h, "spin").unwrap();
        let mut interp = Interp::new(&reg).with_fuel(1000);
        let mut mem = FlatMem::new(16);
        assert_eq!(
            interp.run(
                addr,
                &[],
                &mut Pair {
                    mem: &mut mem,
                    host: &mut NullHost
                }
            ),
            Err(InterpFault::OutOfFuel)
        );
    }

    #[test]
    fn stack_overflow_on_unbounded_recursion() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("rec", 0);
        b.call(0, &[]);
        m.push_function(b.ret(None));
        assert_eq!(run_one(m, "rec", &[]), Err(InterpFault::StackOverflow));
    }

    #[test]
    fn unknown_extern_faults() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("f", 0);
        b.ext("no.such.fn", &[]);
        m.push_function(b.ret(None));
        assert_eq!(
            run_one(m, "f", &[]),
            Err(InterpFault::UnknownExtern {
                name: "no.such.fn".into()
            })
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("f", 0);
        b.store(1.into(), 0.into(), Width::W8);
        let v = b.load(0.into(), Width::W8);
        b.memcpy(8.into(), 0.into(), 8.into());
        m.push_function(b.ret(Some(v.into())));
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(m, CodeSpace::Kernel);
        let addr = reg.addr_of(h, "f").unwrap();
        let mut interp = Interp::new(&reg);
        let mut mem = FlatMem::new(64);
        interp
            .run(
                addr,
                &[],
                &mut Pair {
                    mem: &mut mem,
                    host: &mut NullHost,
                },
            )
            .unwrap();
        assert_eq!(interp.stats.loads, 1);
        assert_eq!(interp.stats.stores, 1);
        assert_eq!(interp.stats.memcpy_bytes, 8);
        assert_eq!(interp.stats.returns, 1);
    }
}
