//! The IR executor.
//!
//! Stands in for running translated native code. Memory accesses go through
//! a caller-supplied [`MemBus`] (the kernel wires this to the simulated
//! machine with kernel privileges); host calls go through an
//! [`ExternHost`] (kernel APIs and SVA-OS operations).
//!
//! Two engines implement one observable semantics (selected by
//! [`Engine`]):
//!
//! * **Fused** (the default) executes the superinstruction form that
//!   [`lower`](crate::lower) and [`fuse`](crate::fuse) build at registration
//!   time: no `Operand` matching, no per-call register/argv allocations (an
//!   explicit frame arena and scratch argv buffer are reused across calls and
//!   runs), interned extern-id dispatch, and per-site inline caches for
//!   `CallIndirect`/`CfiCheck` validated against the registry generation.
//!   Straight-line ALU sequences run as single fused instructions with one
//!   dispatch and one up-front fuel check (fuel and [`InterpStats`] still
//!   charge per *original* instruction, so exhaustion faults at the
//!   identical instruction index), loop headers run as fused
//!   compare-and-branch, and loop bodies absorb their back-edge jump.
//! * **Reference** is the original tree-walker, kept as the executable
//!   specification: the one oracle of the fused engine. The two are
//!   property-tested to produce bit-identical results, faults,
//!   [`InterpStats`], and fuel consumption on arbitrary programs.
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
//! * The fused engine's inline caches are tagged with the registry
//!   generation, which every registration (including the rootkit-style
//!   `register_at` injection) bumps — a warm cache can never satisfy an
//!   indirect call or CFI check from stale code.

use crate::fuse::{AluOp, FInst, MicroKind, StepFn};
use crate::inst::{BinOp, Function, Inst, Operand, Terminator, Width};
use crate::lower::{LoweredFunction, LoweredModule, SiteCache, NO_SLOT};
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

    /// Invokes host function `id` (the dense extern id the lowering pass
    /// interned for `name`) with `args`. Hosts that build an id-indexed
    /// dispatch table override this to skip string matching on the hot
    /// path; the default falls back to the string path, so the two entry
    /// points always agree.
    ///
    /// # Errors
    ///
    /// Same contract as [`call_extern`](Self::call_extern).
    fn call_extern_id(&mut self, id: u32, name: &str, args: &[i64]) -> Result<i64, HostError> {
        let _ = id;
        self.call_extern(name, args)
    }
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
/// [`EnvBus`]. Generic over both sides (defaulting to trait objects) so the
/// monomorphised engine can inline straight through it when the concrete
/// types are known.
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

    fn call_extern_id(&mut self, id: u32, name: &str, args: &[i64]) -> Result<i64, HostError> {
        self.host.call_extern_id(id, name, args)
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

/// Which execution engine [`Interp`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The superinstruction engine (default): explicit call stack over a
    /// reusable frame arena, interned extern dispatch and inline caches,
    /// executing the fused form built by [`fuse`](crate::fuse) —
    /// straight-line ALU runs, compare-and-branch pairs, and loop bodies
    /// each dispatch once.
    #[default]
    Fused,
    /// The original tree-walking interpreter, kept as the executable
    /// reference the fused engine is checked against.
    Reference,
}

/// A suspended activation of the fused engine: everything needed to resume
/// the caller after a `Ret`.
#[derive(Debug, Clone, Copy)]
struct Frame<'a> {
    /// The executing function's lowered form.
    lf: &'a LoweredFunction,
    /// Its module's lowered form (direct `Call` resolves callees here).
    lm: &'a LoweredModule,
    /// First slot of this frame in the arena.
    base: usize,
    /// Resume pc (already past the call instruction).
    pc: usize,
    /// Caller-frame slot the return value lands in ([`NO_SLOT`] if unused).
    ret_dst: u32,
}

/// The interpreter.
#[derive(Debug)]
pub struct Interp<'a> {
    registry: &'a CodeRegistry,
    /// Statistics accumulated across `run` calls.
    pub stats: InterpStats,
    fuel: u64,
    max_depth: usize,
    engine: Engine,
    // Reusable buffers for the fused engine — cleared, never shrunk, so
    // repeated runs and nested calls allocate nothing in steady state.
    slots: Vec<i64>,
    frames: Vec<Frame<'a>>,
    argv: Vec<i64>,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter over `registry` with a default fuel budget,
    /// running the fused engine.
    pub fn new(registry: &'a CodeRegistry) -> Self {
        Interp {
            registry,
            stats: InterpStats::default(),
            fuel: 10_000_000,
            max_depth: 128,
            engine: Engine::default(),
            slots: Vec::new(),
            frames: Vec::new(),
            argv: Vec::new(),
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

    /// Selects the execution engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The engine in effect.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Fuel left in the budget. Both engines consume fuel identically
    /// (one unit per non-terminator instruction — fused runs charge per
    /// *original* instruction), so this is comparable across engines.
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
    /// The environment is a generic parameter (rather than `&mut dyn EnvBus`)
    /// so the fused engine is monomorphised per environment type: memory
    /// and host calls inline into the dispatch loop instead of going through
    /// a vtable. The reference tree-walker keeps its historical type-erased
    /// signature.
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
        match self.engine {
            Engine::Fused => self.exec_fused(module, func, args, env),
            Engine::Reference => self.exec(module, func, args, env, 0),
        }
    }

    // ---- the fused engine --------------------------------------------------

    fn exec_fused<E: MemBus + ExternHost>(
        &mut self,
        module: ModuleHandle,
        func: u32,
        args: &[i64],
        env: &mut E,
    ) -> Result<i64, InterpFault> {
        // Detach the reusable buffers so the loop can borrow `self` freely.
        let mut slots = std::mem::take(&mut self.slots);
        let mut frames = std::mem::take(&mut self.frames);
        slots.clear();
        frames.clear();
        let r = self.fused_loop(module, func, args, env, &mut slots, &mut frames);
        slots.clear();
        frames.clear();
        self.slots = slots;
        self.frames = frames;
        r
    }

    /// The superinstruction dispatch loop over an explicit call stack in a
    /// reusable frame arena, fetching [`FInst`]s, so a fused ALU run or
    /// compare-and-branch pair costs one dispatch. Fuel and
    /// [`InterpStats`] are charged per *original* instruction: a run whose
    /// length exceeds the remaining fuel falls to a slow path that executes
    /// exactly `fuel` micro-ops and then faults, matching the reference
    /// engine's exhaustion point bit for bit.
    fn fused_loop<E: MemBus + ExternHost>(
        &mut self,
        module: ModuleHandle,
        func: u32,
        args: &[i64],
        env: &mut E,
        slots: &mut Vec<i64>,
        frames: &mut Vec<Frame<'a>>,
    ) -> Result<i64, InterpFault> {
        let registry = self.registry;
        // The registry is shared-borrowed for the whole run, so its
        // generation cannot move under us: hoist it out of the loop.
        let gen = registry.generation();

        let lm: &'a LoweredModule = registry.lowered(module);
        let lf: &'a LoweredFunction = &lm.funcs[func as usize];
        slots.extend_from_slice(&lf.frame_init);
        for (i, a) in args.iter().enumerate().take(lf.params as usize) {
            slots[i] = *a;
        }
        let mut cur = Frame {
            lf,
            lm,
            base: 0,
            pc: 0,
            ret_dst: NO_SLOT,
        };
        // The hottest frame state (instruction stream, pc, frame base) lives
        // in dedicated locals; `cur` is synchronised at call/return edges.
        let mut code: &'a [FInst] = &cur.lf.fused.code;
        let mut micro: &'a [AluOp] = &cur.lf.fused.micro;
        let mut exec: &'a [AluOp] = &cur.lf.fused.exec;
        let mut pc = 0usize;
        let mut base = 0usize;

        // Fuel and the hottest stats counters live in locals for the duration
        // of the loop and are written back on every exit path; nothing inside
        // the loop observes the corresponding `self` fields directly.
        let mut fuel = self.fuel;
        let mut insts = self.stats.insts;
        let mut masks = self.stats.masks;
        let mut returns = self.stats.returns;
        let mut cfi_checks = self.stats.cfi_checks;
        let mut extern_calls = self.stats.extern_calls;
        macro_rules! writeback {
            () => {
                self.fuel = fuel;
                self.stats.insts = insts;
                self.stats.masks = masks;
                self.stats.returns = returns;
                self.stats.cfi_checks = cfi_checks;
                self.stats.extern_calls = extern_calls;
            };
        }
        macro_rules! bail {
            ($e:expr) => {{
                writeback!();
                return Err($e);
            }};
        }
        // Each non-terminator instruction charges fuel and the instruction
        // counter exactly like the reference engine's inner loop; terminators
        // (Jmp/Br/Ret) are free, as block terminators are there.
        macro_rules! charge {
            () => {
                if fuel == 0 {
                    bail!(InterpFault::OutOfFuel);
                }
                fuel -= 1;
                insts += 1;
            };
        }
        // Push an activation of `clf` (of lowered module `clm`), copying
        // `n_args` argument slots from the current frame. Mirrors the
        // reference engine: depth-check first, registers zeroed, extra
        // arguments ignored, missing parameters stay zero.
        macro_rules! push_frame {
            ($clm:expr, $clf:expr, $args:expr, $dst:expr) => {{
                if frames.len() + 1 > self.max_depth {
                    bail!(InterpFault::StackOverflow);
                }
                let clf: &'a LoweredFunction = $clf;
                let cbase = slots.len();
                slots.extend_from_slice(&clf.frame_init);
                let n = ($args.len as usize).min(clf.params as usize);
                let ap = &cur.lf.arg_pool[$args.start as usize..$args.start as usize + n];
                for (i, &slot) in ap.iter().enumerate() {
                    slots[cbase + i] = slots[base + slot as usize];
                }
                cur.pc = pc;
                let callee = Frame {
                    lf: clf,
                    lm: $clm,
                    base: cbase,
                    pc: 0,
                    ret_dst: $dst,
                };
                frames.push(std::mem::replace(&mut cur, callee));
                code = &clf.fused.code;
                micro = &clf.fused.micro;
                exec = &clf.fused.exec;
                pc = 0;
                base = cbase;
            }};
        }
        // Shared host-call epilogue: map errors to faults, store the result.
        macro_rules! extern_finish {
            ($r:expr, $name:expr, $dst:expr) => {{
                let r = match $r {
                    Ok(r) => r,
                    Err(HostError::Unknown) => {
                        bail!(InterpFault::UnknownExtern {
                            name: $name.to_string(),
                        })
                    }
                    Err(HostError::Failed(reason)) => {
                        bail!(InterpFault::HostFailed { reason })
                    }
                };
                if $dst != NO_SLOT {
                    slots[base + $dst as usize] = r;
                }
            }};
        }
        // Execute the micro-ops of an ALU run: one up-front fuel check when
        // the budget covers the whole run, otherwise exactly `fuel` micro-ops
        // (charged and mask-counted individually) followed by the same
        // `OutOfFuel` the per-instruction engines raise at that index.
        macro_rules! alu_run {
            ($start:expr, $len:expr, $masks:expr, $estart:expr, $elen:expr) => {{
                if fuel >= $len as u64 {
                    fuel -= $len as u64;
                    insts += $len as u64;
                    masks += $masks as u64;
                    let run = &exec[$estart as usize..$estart as usize + $elen as usize];
                    exec_run(run, &mut slots[base..]);
                } else {
                    let k = fuel as usize;
                    let run = &micro[$start as usize..$start as usize + $len as usize];
                    let frame = &mut slots[base..];
                    let mut acc = 0i64;
                    for op in &run[..k] {
                        masks += op.kind.is_mask() as u64;
                        acc = (op.step)(op, frame, acc);
                    }
                    insts += fuel;
                    fuel = 0;
                    bail!(InterpFault::OutOfFuel);
                }
            }};
        }

        loop {
            let inst = code[pc];
            pc += 1;
            match inst {
                FInst::AluRun {
                    start,
                    len,
                    masks: run_masks,
                    exec_start,
                    exec_len,
                } => {
                    alu_run!(start, len, run_masks, exec_start, exec_len);
                }
                FInst::AluRunJmp {
                    start,
                    len,
                    masks: run_masks,
                    exec_start,
                    exec_len,
                    target,
                } => {
                    alu_run!(start, len, run_masks, exec_start, exec_len);
                    pc = target as usize;
                }
                FInst::CmpBr {
                    op,
                    dst,
                    lhs,
                    rhs,
                    then_pc,
                    else_pc,
                } => {
                    // Charges one instruction (the compare); the branch half
                    // stays free like every terminator.
                    charge!();
                    let v = binop(op, slots[base + lhs as usize], slots[base + rhs as usize]);
                    slots[base + dst as usize] = v;
                    pc = if v != 0 {
                        then_pc as usize
                    } else {
                        else_pc as usize
                    };
                }
                FInst::CmpLoop {
                    cmp,
                    start,
                    len,
                    masks: run_masks,
                    exec_start,
                    exec_len,
                    else_pc,
                } => {
                    // A whole counted loop under one dispatch. Fuel flows
                    // exactly as through the unfused CmpBr + AluRunJmp pair:
                    // one charge per compare, `len` per body, body prefix
                    // stepped individually on exhaustion.
                    let cmpop = &micro[cmp as usize];
                    let run = &exec[exec_start as usize..exec_start as usize + exec_len as usize];
                    let frame = &mut slots[base..];
                    let mut acc = 0i64;
                    loop {
                        charge!();
                        if (cmpop.step)(cmpop, frame, acc) == 0 {
                            pc = else_pc as usize;
                            break;
                        }
                        if fuel >= len as u64 {
                            fuel -= len as u64;
                            insts += len as u64;
                            masks += run_masks as u64;
                            acc = 0;
                            for op in run {
                                acc = (op.step)(op, frame, acc);
                            }
                        } else {
                            let k = fuel as usize;
                            let body = &micro[start as usize..start as usize + len as usize];
                            acc = 0;
                            for op in &body[..k] {
                                masks += op.kind.is_mask() as u64;
                                acc = (op.step)(op, frame, acc);
                            }
                            insts += fuel;
                            fuel = 0;
                            bail!(InterpFault::OutOfFuel);
                        }
                    }
                }
                FInst::Jmp { target } => pc = target as usize,
                FInst::Br {
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    pc = if slots[base + cond as usize] != 0 {
                        then_pc as usize
                    } else {
                        else_pc as usize
                    };
                }
                FInst::Ret { src } => {
                    if cur.lf.instrumented {
                        // The CFI pass also checks labels at return sites; in
                        // this executor returns are structurally safe, so the
                        // check always passes — but it costs.
                        cfi_checks += 1;
                    }
                    returns += 1;
                    let v = if src == NO_SLOT {
                        0
                    } else {
                        slots[base + src as usize]
                    };
                    slots.truncate(base);
                    match frames.pop() {
                        Some(caller) => {
                            let dst = cur.ret_dst;
                            cur = caller;
                            code = &cur.lf.fused.code;
                            micro = &cur.lf.fused.micro;
                            exec = &cur.lf.fused.exec;
                            pc = cur.pc;
                            base = cur.base;
                            if dst != NO_SLOT {
                                slots[base + dst as usize] = v;
                            }
                        }
                        None => {
                            writeback!();
                            return Ok(v);
                        }
                    }
                }
                FInst::Bin { op, dst, lhs, rhs } => {
                    charge!();
                    slots[base + dst as usize] =
                        binop(op, slots[base + lhs as usize], slots[base + rhs as usize]);
                }
                FInst::Mov { dst, src } => {
                    charge!();
                    slots[base + dst as usize] = slots[base + src as usize];
                }
                FInst::Load { dst, addr, width } => {
                    charge!();
                    self.stats.loads += 1;
                    let a = slots[base + addr as usize] as u64;
                    let v = match env.load(a, width) {
                        Ok(v) => v,
                        Err(e) => bail!(InterpFault::Mem(e)),
                    };
                    slots[base + dst as usize] = v as i64;
                }
                FInst::Store { src, addr, width } => {
                    charge!();
                    self.stats.stores += 1;
                    let a = slots[base + addr as usize] as u64;
                    let v = slots[base + src as usize] as u64;
                    if let Err(e) = env.store(a, width, v) {
                        bail!(InterpFault::Mem(e));
                    }
                }
                FInst::Memcpy { dst, src, len } => {
                    charge!();
                    let d = slots[base + dst as usize] as u64;
                    let s = slots[base + src as usize] as u64;
                    let n = slots[base + len as usize] as u64;
                    self.stats.memcpy_bytes += n;
                    if let Err(e) = env.memcpy(d, s, n) {
                        bail!(InterpFault::Mem(e));
                    }
                }
                FInst::Call { dst, callee, args } => {
                    charge!();
                    let clm = cur.lm;
                    push_frame!(clm, &clm.funcs[callee as usize], args, dst);
                }
                FInst::CallIndirect {
                    dst,
                    target,
                    args,
                    site,
                } => {
                    charge!();
                    let t = slots[base + target as usize] as u64;
                    let cache = &cur.lf.sites[site as usize];
                    let c = cache.get();
                    let (cmodule, cfunc) = if c.gen == gen && c.addr == t {
                        (c.module, c.func)
                    } else {
                        let e = match registry.resolve(CodeAddr(t)) {
                            Some(e) => e,
                            None => bail!(InterpFault::BadIndirect { target: t }),
                        };
                        cache.set(SiteCache {
                            gen,
                            addr: t,
                            module: e.module,
                            func: e.func,
                            label: e.label,
                        });
                        (e.module, e.func)
                    };
                    let clm: &'a LoweredModule = registry.lowered(cmodule);
                    push_frame!(clm, &clm.funcs[cfunc as usize], args, dst);
                }
                FInst::Extern { dst, ext, args } => {
                    charge!();
                    extern_calls += 1;
                    let n = args.len as usize;
                    let ap = &cur.lf.arg_pool[args.start as usize..args.start as usize + n];
                    self.argv.clear();
                    self.argv
                        .extend(ap.iter().map(|&s| slots[base + s as usize]));
                    let name = registry.extern_name(ext).unwrap_or("");
                    let r = env.call_extern_id(ext, name, &self.argv);
                    extern_finish!(r, name, dst);
                }
                FInst::Extern1 { dst, ext, a0 } => {
                    charge!();
                    extern_calls += 1;
                    let argv = [slots[base + a0 as usize]];
                    let name = registry.extern_name(ext).unwrap_or("");
                    let r = env.call_extern_id(ext, name, &argv);
                    extern_finish!(r, name, dst);
                }
                FInst::Extern2 { dst, ext, a0, a1 } => {
                    charge!();
                    extern_calls += 1;
                    let argv = [slots[base + a0 as usize], slots[base + a1 as usize]];
                    let name = registry.extern_name(ext).unwrap_or("");
                    let r = env.call_extern_id(ext, name, &argv);
                    extern_finish!(r, name, dst);
                }
                FInst::MaskGhost { dst, src } => {
                    charge!();
                    masks += 1;
                    let a = slots[base + src as usize] as u64;
                    slots[base + dst as usize] = mask_kernel_pointer(VAddr(a)).0 as i64;
                }
                FInst::ZeroSva { dst, src } => {
                    charge!();
                    masks += 1;
                    let a = slots[base + src as usize] as u64;
                    slots[base + dst as usize] =
                        if (SVA_INTERNAL_BASE..SVA_INTERNAL_END).contains(&a) {
                            0
                        } else {
                            a as i64
                        };
                }
                FInst::CfiCheck {
                    target,
                    expected_label,
                    site,
                } => {
                    charge!();
                    cfi_checks += 1;
                    let t = slots[base + target as usize] as u64;
                    // No masking happens here: any target below kernel text
                    // is rejected outright, then the label at the landing
                    // site must match (see DESIGN.md §4).
                    if t < crate::registry::KERNEL_TEXT_BASE {
                        bail!(InterpFault::CfiViolation { target: t });
                    }
                    let cache = &cur.lf.sites[site as usize];
                    let c = cache.get();
                    let label = if c.gen == gen && c.addr == t {
                        c.label
                    } else {
                        match registry.resolve(CodeAddr(t)) {
                            Some(e) => {
                                cache.set(SiteCache {
                                    gen,
                                    addr: t,
                                    module: e.module,
                                    func: e.func,
                                    label: e.label,
                                });
                                e.label
                            }
                            None => bail!(InterpFault::CfiViolation { target: t }),
                        }
                    };
                    if label != Some(expected_label) {
                        bail!(InterpFault::CfiViolation { target: t });
                    }
                }
            }
        }
    }

    // ---- the reference tree-walker ----------------------------------------

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

/// Executes a whole fused run (the fuel-sufficient fast path) over the
/// current frame (`slots[base..]`). Deliberately `inline(never)`: inside the
/// dispatch loop the interpreter's live state (pc, fuel, counters, frame
/// bookkeeping) starves the register allocator; as a standalone function the
/// micro loop keeps the accumulator and frame pointer in registers.
///
/// Each op executes through its baked [`AluOp::step`] pointer — threaded
/// code. The callee is a [`step_micro`] instantiation specialized at fuse
/// time for the op's kind, operand modes, and store elision, so there is no
/// per-op decode left at run time: the call, one or two operand reads, the
/// ALU op, and (only when live) the frame write.
#[inline(never)]
fn exec_run(run: &[AluOp], frame: &mut [i64]) {
    let mut acc = 0i64;
    for op in run {
        acc = (op.step)(op, frame, acc);
    }
}

/// One micro-op of a fused ALU run, monomorphized per shape: `K` is the
/// [`MicroKind`] discriminant, `AM`/`BM` the operand modes (0 = frame slot,
/// 1 = run accumulator, 2 = baked immediate — see
/// [`fuse::ACC`](crate::fuse::ACC)/[`fuse::IMM`](crate::fuse::IMM)), and `W`
/// whether the destination store is live (false = elided dead chain store).
/// Returns the result, which the run loop carries as the next op's
/// accumulator. Semantics match [`binop`] / the `Mov`/`MaskGhost`/`ZeroSva`
/// instruction arms exactly — the unary kinds read only the `a` operand.
///
/// [`fuse_function`](crate::fuse::fuse_function) bakes the matching
/// instantiation into [`AluOp::step`] via [`step_fn_for`]; the const
/// parameters fold every mode test away at compile time.
fn step_micro<const K: u8, const AM: u8, const BM: u8, const W: bool>(
    op: &AluOp,
    frame: &mut [i64],
    acc: i64,
) -> i64 {
    let a = match AM {
        1 => acc,
        2 => op.imm,
        _ => frame[op.a as usize],
    };
    let b = match BM {
        1 => acc,
        2 => op.imm,
        _ => frame[op.b as usize],
    };
    let v = alu_k::<K>(a, b);
    if W {
        frame[op.dst as usize] = v;
    }
    v
}

/// The ALU semantics of one [`MicroKind`], selected by its discriminant at
/// compile time (the chain folds away under a const `K`). Shared by every
/// [`step_micro`]/[`step_pair_ai`] instantiation so the fused tier has a
/// single source of arithmetic truth, bit-identical to [`binop`].
#[inline(always)]
fn alu_k<const K: u8>(a: i64, b: i64) -> i64 {
    if K == MicroKind::Add as u8 {
        a.wrapping_add(b)
    } else if K == MicroKind::Sub as u8 {
        a.wrapping_sub(b)
    } else if K == MicroKind::Mul as u8 {
        a.wrapping_mul(b)
    } else if K == MicroKind::And as u8 {
        a & b
    } else if K == MicroKind::Or as u8 {
        a | b
    } else if K == MicroKind::Xor as u8 {
        a ^ b
    } else if K == MicroKind::Shl as u8 {
        a.wrapping_shl((b as u32) & 63)
    } else if K == MicroKind::Shr as u8 {
        ((a as u64).wrapping_shr((b as u32) & 63)) as i64
    } else if K == MicroKind::Eq as u8 {
        (a == b) as i64
    } else if K == MicroKind::Ne as u8 {
        (a != b) as i64
    } else if K == MicroKind::Ltu as u8 {
        ((a as u64) < (b as u64)) as i64
    } else if K == MicroKind::Lts as u8 {
        (a < b) as i64
    } else if K == MicroKind::Mov as u8 {
        a
    } else if K == MicroKind::MaskGhost as u8 {
        mask_kernel_pointer(VAddr(a as u64)).0 as i64
    } else {
        debug_assert_eq!(K, MicroKind::ZeroSva as u8);
        let u = a as u64;
        if (SVA_INTERNAL_BASE..SVA_INTERNAL_END).contains(&u) {
            0
        } else {
            a
        }
    }
}

/// A fused *pair* of immediate-chain ops, executed by the compacted stream
/// (see [`FusedCode::exec`](crate::fuse::FusedCode)):
/// `acc = K2(K1(acc, imm1), imm2)`. Both source ops had elided stores and
/// accumulator-feeding operands, so the pair touches no frame slot at all —
/// `imm1` rides in [`AluOp::imm`], `imm2` packed into the unused
/// `a`/`b` fields.
fn step_pair_ai<const K1: u8, const K2: u8>(op: &AluOp, _frame: &mut [i64], acc: i64) -> i64 {
    let imm2 = (((op.a as u64) << 32) | op.b as u64) as i64;
    alu_k::<K2>(alu_k::<K1>(acc, op.imm), imm2)
}

/// Resolves the [`step_pair_ai`] instantiation for a fused pair of
/// immediate-chain binary ops. Called at fuse time by the run compactor.
pub(crate) fn pair_fn_for(k1: MicroKind, k2: MicroKind) -> StepFn {
    macro_rules! second {
        ($k1:expr) => {
            match k2 {
                MicroKind::Add => step_pair_ai::<{ $k1 }, { MicroKind::Add as u8 }>,
                MicroKind::Sub => step_pair_ai::<{ $k1 }, { MicroKind::Sub as u8 }>,
                MicroKind::Mul => step_pair_ai::<{ $k1 }, { MicroKind::Mul as u8 }>,
                MicroKind::And => step_pair_ai::<{ $k1 }, { MicroKind::And as u8 }>,
                MicroKind::Or => step_pair_ai::<{ $k1 }, { MicroKind::Or as u8 }>,
                MicroKind::Xor => step_pair_ai::<{ $k1 }, { MicroKind::Xor as u8 }>,
                MicroKind::Shl => step_pair_ai::<{ $k1 }, { MicroKind::Shl as u8 }>,
                MicroKind::Shr => step_pair_ai::<{ $k1 }, { MicroKind::Shr as u8 }>,
                MicroKind::Eq => step_pair_ai::<{ $k1 }, { MicroKind::Eq as u8 }>,
                MicroKind::Ne => step_pair_ai::<{ $k1 }, { MicroKind::Ne as u8 }>,
                MicroKind::Ltu => step_pair_ai::<{ $k1 }, { MicroKind::Ltu as u8 }>,
                MicroKind::Lts => step_pair_ai::<{ $k1 }, { MicroKind::Lts as u8 }>,
                _ => unreachable!("pairs are built from binary micro-ops only"),
            }
        };
    }
    match k1 {
        MicroKind::Add => second!(MicroKind::Add as u8),
        MicroKind::Sub => second!(MicroKind::Sub as u8),
        MicroKind::Mul => second!(MicroKind::Mul as u8),
        MicroKind::And => second!(MicroKind::And as u8),
        MicroKind::Or => second!(MicroKind::Or as u8),
        MicroKind::Xor => second!(MicroKind::Xor as u8),
        MicroKind::Shl => second!(MicroKind::Shl as u8),
        MicroKind::Shr => second!(MicroKind::Shr as u8),
        MicroKind::Eq => second!(MicroKind::Eq as u8),
        MicroKind::Ne => second!(MicroKind::Ne as u8),
        MicroKind::Ltu => second!(MicroKind::Ltu as u8),
        MicroKind::Lts => second!(MicroKind::Lts as u8),
        _ => unreachable!("pairs are built from binary micro-ops only"),
    }
}

/// Resolves the [`step_micro`] instantiation for an op's final shape. Called
/// once per micro-op at fuse time; the unary kinds force `BM = 2` (immediate)
/// so the unused second operand compiles to nothing.
pub(crate) fn step_fn_for(kind: MicroKind, am: u8, bm: u8, write: bool) -> StepFn {
    macro_rules! modes {
        ($k:expr) => {
            match (am, bm, write) {
                (0, 0, false) => step_micro::<{ $k }, 0, 0, false>,
                (0, 0, true) => step_micro::<{ $k }, 0, 0, true>,
                (0, 1, false) => step_micro::<{ $k }, 0, 1, false>,
                (0, 1, true) => step_micro::<{ $k }, 0, 1, true>,
                (0, 2, false) => step_micro::<{ $k }, 0, 2, false>,
                (0, 2, true) => step_micro::<{ $k }, 0, 2, true>,
                (1, 0, false) => step_micro::<{ $k }, 1, 0, false>,
                (1, 0, true) => step_micro::<{ $k }, 1, 0, true>,
                (1, 1, false) => step_micro::<{ $k }, 1, 1, false>,
                (1, 1, true) => step_micro::<{ $k }, 1, 1, true>,
                (1, 2, false) => step_micro::<{ $k }, 1, 2, false>,
                (1, 2, true) => step_micro::<{ $k }, 1, 2, true>,
                (2, 0, false) => step_micro::<{ $k }, 2, 0, false>,
                (2, 0, true) => step_micro::<{ $k }, 2, 0, true>,
                (2, 1, false) => step_micro::<{ $k }, 2, 1, false>,
                (2, 1, true) => step_micro::<{ $k }, 2, 1, true>,
                (2, 2, false) => step_micro::<{ $k }, 2, 2, false>,
                _ => step_micro::<{ $k }, 2, 2, true>,
            }
        };
    }
    macro_rules! unary {
        ($k:expr) => {
            match (am, write) {
                (0, false) => step_micro::<{ $k }, 0, 2, false>,
                (0, true) => step_micro::<{ $k }, 0, 2, true>,
                (1, false) => step_micro::<{ $k }, 1, 2, false>,
                (1, true) => step_micro::<{ $k }, 1, 2, true>,
                (2, false) => step_micro::<{ $k }, 2, 2, false>,
                _ => step_micro::<{ $k }, 2, 2, true>,
            }
        };
    }
    match kind {
        MicroKind::Add => modes!(MicroKind::Add as u8),
        MicroKind::Sub => modes!(MicroKind::Sub as u8),
        MicroKind::Mul => modes!(MicroKind::Mul as u8),
        MicroKind::And => modes!(MicroKind::And as u8),
        MicroKind::Or => modes!(MicroKind::Or as u8),
        MicroKind::Xor => modes!(MicroKind::Xor as u8),
        MicroKind::Shl => modes!(MicroKind::Shl as u8),
        MicroKind::Shr => modes!(MicroKind::Shr as u8),
        MicroKind::Eq => modes!(MicroKind::Eq as u8),
        MicroKind::Ne => modes!(MicroKind::Ne as u8),
        MicroKind::Ltu => modes!(MicroKind::Ltu as u8),
        MicroKind::Lts => modes!(MicroKind::Lts as u8),
        MicroKind::Mov => unary!(MicroKind::Mov as u8),
        MicroKind::MaskGhost => unary!(MicroKind::MaskGhost as u8),
        MicroKind::ZeroSva => unary!(MicroKind::ZeroSva as u8),
    }
}

#[inline(always)]
pub(crate) fn binop(op: BinOp, a: i64, b: i64) -> i64 {
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
