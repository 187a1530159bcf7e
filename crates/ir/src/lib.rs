//! # vg-ir
//!
//! The virtual instruction set — this reproduction's stand-in for the LLVM
//! bitcode that all OS code must pass through in Virtual Ghost.
//!
//! The paper's argument (§1): *"traditional exploits, such as those that
//! inject binary code, are not even expressible: all OS code must first go
//! through LLVM bitcode form and be translated to native code by the Virtual
//! Ghost compiler."* Here, all kernel modules are [`Module`]s in this IR;
//! the only way to turn one into runnable code is
//! [`compiler::VgCompiler::compile`], which applies the instrumentation
//! passes and signs the result. The kernel's module loader (in `vg-kernel`)
//! refuses translations whose signature does not verify.
//!
//! * [`inst`] — instructions, functions, modules.
//! * [`builder`] — ergonomic construction of functions.
//! * [`verify`] — structural well-formedness checks.
//! * [`encode`] — deterministic byte encoding (what gets signed).
//! * [`passes`] — the paper's passes: load/store sandboxing
//!   ([`passes::sandbox`]), control-flow integrity ([`passes::cfi`]),
//!   SVA-internal-memory guarding ([`passes::svaguard`]), and the
//!   application-side mmap-return masking ([`passes::mmapmask`]).
//! * [`compiler`] — the pass pipeline plus translation signing.
//! * [`registry`] — maps code addresses to functions (the "native code"
//!   address space that indirect calls resolve through).
//! * [`lower`] — the load-time lowering pass: linear pre-decoded
//!   instructions, pre-resolved branch pcs, pooled constants, interned
//!   extern ids, and inline-cache sites for the fused engine.
//! * [`fuse`] — the superinstruction pass over the lowered form: ALU runs,
//!   compare-and-branch pairs, and jump threading for the fused tier.
//! * [`interp`] — the executor, with pluggable memory ([`interp::MemBus`])
//!   and host-call ([`interp::ExternHost`]) interfaces. Two engines share
//!   one observable semantics: the default fused engine and the reference
//!   tree-walker ([`interp::Engine`]).
//!
//! ## Example: compile a module and watch the instrumentation appear
//!
//! ```
//! use vg_ir::{FunctionBuilder, Module, VgCompiler};
//! use vg_ir::inst::{Inst, Width};
//!
//! // A "kernel module" with one memory access.
//! let mut m = Module::new("driver");
//! let mut f = FunctionBuilder::new("probe", 1);
//! let v = f.load(f.param(0).into(), Width::W8);
//! m.push_function(f.ret(Some(v.into())));
//!
//! // The Virtual Ghost compiler sandboxes, adds CFI labels, and signs.
//! let mut seed = 1u64;
//! let mut rng = move || { seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1); seed };
//! let compiler = VgCompiler::new(vg_crypto::RsaKeyPair::generate(128, &mut rng));
//! let t = compiler.compile(m)?;
//! assert!(t.module.functions[0].insts().any(|i| matches!(i, Inst::MaskGhost { .. })));
//! assert!(t.module.fully_labeled());
//! assert!(t.verify(compiler.public_key()));
//! # Ok::<(), vg_ir::compiler::CompileError>(())
//! ```

pub mod builder;
pub mod compiler;
pub mod encode;
pub mod fuse;
pub mod inst;
pub mod interp;
pub mod lower;
pub mod passes;
pub mod registry;
pub mod verify;

pub use builder::FunctionBuilder;
pub use compiler::{Translation, VgCompiler};
pub use inst::{BinOp, BlockId, Function, Inst, Module, Operand, Terminator, VReg, Width};
pub use interp::{Engine, ExternHost, Interp, InterpFault, InterpStats, MemBus, MemFault};
pub use lower::LowerError;
pub use registry::{CodeAddr, CodeRegistry};
pub use verify::VerifyError;
