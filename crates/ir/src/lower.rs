//! Lowering: the pre-decoded execution format behind the fused engine.
//!
//! [`CodeRegistry::register_module`](crate::registry::CodeRegistry::register_module)
//! runs every function through [`lower_module`] once, at load time, producing
//! a [`LoweredModule`] the fused engine executes instead of the block/enum
//! tree:
//!
//! * Blocks are flattened into one linear [`LInst`] stream per function,
//!   which [`fuse`](crate::fuse) rewrites into superinstructions and which is
//!   then dropped — only the fused form is kept;
//!   terminators become instructions whose branch targets are **pre-resolved
//!   program counters**, so the hot loop never chases `BlockId`s.
//! * Operands are **pre-split**: immediates are deduplicated into a
//!   per-function constant pool that is appended to the register frame, so
//!   every operand becomes a plain frame-slot index — no `Operand` matching
//!   per instruction. Slot `i < nregs` is virtual register `i`; slots from
//!   `nregs` up hold the constants. Destinations are always real registers,
//!   so the constant tail is never overwritten.
//! * Extern names are **interned** into dense `u32` ids (shared across the
//!   registry via [`ExternInterner`]); the executing host can dispatch on the
//!   id through a table instead of string-matching the name on every call.
//! * Every `CallIndirect` and `CfiCheck` gets a **call site slot** holding an
//!   inline cache ([`SiteCache`]) of the last `addr → RegisteredFn`
//!   resolution, validated against the registry's generation counter — code
//!   registration (including the rootkit's `register_at` injections) bumps
//!   the generation and implicitly flushes every cache.
//!
//! Lowering is purely structural: it never changes which instructions
//! execute, in what order, or what they charge. The fused engine in
//! [`interp`](crate::interp) is property-tested to produce bit-identical
//! results, faults, statistics and fuel consumption to the reference
//! tree-walker.

use crate::fuse::{self, FusedCode};
use crate::inst::{BinOp, Function, Inst, Module, Operand, Terminator, Width};
use crate::registry::ModuleHandle;
use std::cell::Cell;
use std::collections::HashMap;

/// Lowering failure: the function is structurally too large for the `u32`
/// execution format. These used to wrap silently (`len as u32`) — a
/// pathological module could alias pc 0 and misexecute; now the loader
/// refuses it up front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The lowered instruction stream would exceed `u32::MAX` entries.
    CodeTooLarge {
        /// Offending function name.
        function: String,
    },
    /// The call/extern argument pool would exceed `u32::MAX` slots.
    ArgPoolTooLarge {
        /// Offending function name.
        function: String,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::CodeTooLarge { function } => {
                write!(
                    f,
                    "function `{function}`: lowered code exceeds u32::MAX instructions"
                )
            }
            LowerError::ArgPoolTooLarge { function } => {
                write!(
                    f,
                    "function `{function}`: argument pool exceeds u32::MAX slots"
                )
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Checked `usize → u32` for code offsets: the overflow guard behind
/// [`LowerError::CodeTooLarge`]. Factored out (rather than inlined at each
/// site) so the guard itself is unit-testable without materializing a
/// four-billion-instruction function.
fn code_offset_u32(len: usize, function: &str) -> Result<u32, LowerError> {
    u32::try_from(len).map_err(|_| LowerError::CodeTooLarge {
        function: function.to_string(),
    })
}

/// Checked `usize → u32` for argument-pool offsets; see [`code_offset_u32`].
fn pool_offset_u32(len: usize, function: &str) -> Result<u32, LowerError> {
    u32::try_from(len).map_err(|_| LowerError::ArgPoolTooLarge {
        function: function.to_string(),
    })
}

/// Sentinel slot index meaning "no register" (unused call result, `ret` with
/// no value). Real slot indices are always well below this.
pub const NO_SLOT: u32 = u32::MAX;

/// A span into a [`LoweredFunction`]'s argument pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgRange {
    /// First index in the pool.
    pub start: u32,
    /// Number of argument slots.
    pub len: u32,
}

/// A lowered instruction. All operand fields are frame-slot indices (see the
/// module docs); branch targets are instruction offsets within the function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LInst {
    /// `slot[dst] = op(slot[lhs], slot[rhs])`.
    Bin {
        /// ALU operation.
        op: BinOp,
        /// Destination slot.
        dst: u32,
        /// Left operand slot.
        lhs: u32,
        /// Right operand slot.
        rhs: u32,
    },
    /// `slot[dst] = slot[src]`.
    Mov {
        /// Destination slot.
        dst: u32,
        /// Source slot.
        src: u32,
    },
    /// `slot[dst] = *(slot[addr])`.
    Load {
        /// Destination slot.
        dst: u32,
        /// Address slot.
        addr: u32,
        /// Access width.
        width: Width,
    },
    /// `*(slot[addr]) = slot[src]`.
    Store {
        /// Value slot.
        src: u32,
        /// Address slot.
        addr: u32,
        /// Access width.
        width: Width,
    },
    /// `memcpy(slot[dst], slot[src], slot[len])`.
    Memcpy {
        /// Destination address slot.
        dst: u32,
        /// Source address slot.
        src: u32,
        /// Length slot.
        len: u32,
    },
    /// Direct call to function `callee` of the same module.
    Call {
        /// Result slot ([`NO_SLOT`] if unused).
        dst: u32,
        /// Callee function index.
        callee: u32,
        /// Argument slots.
        args: ArgRange,
    },
    /// Indirect call through the code address in `slot[target]`.
    CallIndirect {
        /// Result slot ([`NO_SLOT`] if unused).
        dst: u32,
        /// Target address slot.
        target: u32,
        /// Argument slots.
        args: ArgRange,
        /// Inline-cache site index.
        site: u32,
    },
    /// Host call by interned extern id.
    Extern {
        /// Result slot ([`NO_SLOT`] if unused).
        dst: u32,
        /// Interned extern id (resolve via the registry's interner).
        ext: u32,
        /// Argument slots.
        args: ArgRange,
    },
    /// One-argument host call (the dominant arities get their operands
    /// pre-split into the instruction, skipping the argument pool).
    Extern1 {
        /// Result slot ([`NO_SLOT`] if unused).
        dst: u32,
        /// Interned extern id (resolve via the registry's interner).
        ext: u32,
        /// Argument slot.
        a0: u32,
    },
    /// Two-argument host call; see [`LInst::Extern1`].
    Extern2 {
        /// Result slot ([`NO_SLOT`] if unused).
        dst: u32,
        /// Interned extern id (resolve via the registry's interner).
        ext: u32,
        /// First argument slot.
        a0: u32,
        /// Second argument slot.
        a1: u32,
    },
    /// Ghost-mask `slot[src]` into `slot[dst]`.
    MaskGhost {
        /// Destination slot.
        dst: u32,
        /// Pointer slot.
        src: u32,
    },
    /// SVA-guard `slot[src]` into `slot[dst]`.
    ZeroSva {
        /// Destination slot.
        dst: u32,
        /// Pointer slot.
        src: u32,
    },
    /// CFI label check of the target in `slot[target]`.
    CfiCheck {
        /// Target address slot.
        target: u32,
        /// Required label.
        expected_label: u32,
        /// Inline-cache site index.
        site: u32,
    },
    /// Unconditional jump to instruction offset `target`.
    Jmp {
        /// Target pc.
        target: u32,
    },
    /// Conditional branch on `slot[cond]`.
    Br {
        /// Condition slot.
        cond: u32,
        /// Target pc when non-zero.
        then_pc: u32,
        /// Target pc when zero.
        else_pc: u32,
    },
    /// Return `slot[src]` ([`NO_SLOT`] returns 0).
    Ret {
        /// Value slot or [`NO_SLOT`].
        src: u32,
    },
}

/// One call site's inline cache: the last successful `addr → RegisteredFn`
/// resolution, tagged with the registry generation it was made under.
/// `gen == 0` means empty (real generations start at 1).
#[derive(Debug, Clone, Copy)]
pub struct SiteCache {
    /// Registry generation the entry was cached under.
    pub gen: u64,
    /// The cached target address.
    pub addr: u64,
    /// Resolved module.
    pub module: ModuleHandle,
    /// Resolved function index.
    pub func: u32,
    /// Resolved CFI label.
    pub label: Option<u32>,
}

impl Default for SiteCache {
    fn default() -> Self {
        SiteCache {
            gen: 0,
            addr: 0,
            module: ModuleHandle(0),
            func: 0,
            label: None,
        }
    }
}

/// A function in execution form.
#[derive(Debug)]
pub struct LoweredFunction {
    /// Parameter count (mirrors [`Function::params`]).
    pub params: u32,
    /// Register slots in a frame (`Function::max_reg() + 1`).
    pub nregs: u32,
    /// Deduplicated immediate pool, appended to each frame after the
    /// registers; operand slot `nregs + i` reads `consts[i]`.
    pub consts: Vec<i64>,
    /// Pre-built frame image: `nregs` zeros followed by `consts`. Pushing an
    /// activation is a single `extend_from_slice` of this template.
    pub frame_init: Vec<i64>,
    /// Flattened call/extern argument slot lists, indexed by [`ArgRange`].
    pub arg_pool: Vec<u32>,
    /// Inline caches, one per `CallIndirect`/`CfiCheck` site. `Cell` because
    /// caches warm while the registry (which owns the lowered code behind an
    /// `Rc`) is only shared-borrowed by the engine. Fusion preserves site
    /// indices verbatim, so the fused code indexes this table directly.
    pub sites: Vec<Cell<SiteCache>>,
    /// Whether the function carries a CFI label (return sites then charge a
    /// label check, mirroring the reference engine).
    pub instrumented: bool,
    /// The executable form: the linear [`LInst`] stream fused by
    /// [`fuse::fuse_function`] at lowering time (see `fuse.rs`); execution
    /// starts at pc 0.
    pub fused: FusedCode,
}

impl LoweredFunction {
    /// Total frame size in slots: registers plus the constant tail.
    pub fn frame_slots(&self) -> usize {
        self.nregs as usize + self.consts.len()
    }
}

/// A module in execution form; indices parallel [`Module::functions`].
#[derive(Debug, Default)]
pub struct LoweredModule {
    /// Lowered functions.
    pub funcs: Vec<LoweredFunction>,
}

/// Dense interning of extern (host function) names. Append-only: ids are
/// stable for the lifetime of the registry and of every clone made from it.
#[derive(Debug, Default, Clone)]
pub struct ExternInterner {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl ExternInterner {
    /// Returns the id for `name`, interning it if new.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// The id previously assigned to `name`, if any.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The name behind `id`.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned names (ids are `0..len`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Lowers every function of `module`, interning extern names into `externs`.
///
/// # Errors
///
/// [`LowerError`] if any function exceeds the `u32` execution format.
pub fn lower_module(
    module: &Module,
    externs: &mut ExternInterner,
) -> Result<LoweredModule, LowerError> {
    Ok(LoweredModule {
        funcs: module
            .functions
            .iter()
            .map(|f| lower_function(f, externs))
            .collect::<Result<_, _>>()?,
    })
}

/// Lowers one function. See the module docs for the format.
///
/// # Errors
///
/// [`LowerError`] if the lowered code or argument pool would overflow the
/// `u32` offsets the execution format uses.
pub fn lower_function(
    f: &Function,
    externs: &mut ExternInterner,
) -> Result<LoweredFunction, LowerError> {
    let Linear {
        nregs,
        consts,
        code,
        arg_pool,
        sites,
    } = lower_linear(f, externs)?;
    let mut frame_init = vec![0i64; nregs as usize];
    frame_init.extend_from_slice(&consts);
    let fused = fuse::fuse_function(&code, nregs, &frame_init, &arg_pool);
    Ok(LoweredFunction {
        params: f.params,
        nregs,
        consts,
        frame_init,
        arg_pool,
        sites: (0..sites)
            .map(|_| Cell::new(SiteCache::default()))
            .collect(),
        instrumented: f.cfi_label.is_some(),
        fused,
    })
}

/// One function's linear [`LInst`] stream and the tables its operands
/// index, before fusion.
struct Linear {
    nregs: u32,
    consts: Vec<i64>,
    code: Vec<LInst>,
    arg_pool: Vec<u32>,
    /// Number of inline-cache sites allocated.
    sites: u32,
}

fn lower_linear(f: &Function, externs: &mut ExternInterner) -> Result<Linear, LowerError> {
    let nregs = f.max_reg() + 1;
    let mut consts: Vec<i64> = Vec::new();
    let mut const_ids: HashMap<i64, u32> = HashMap::new();
    let mut arg_pool: Vec<u32> = Vec::new();
    let mut sites = 0u32;

    // Pass 1: block start offsets. Every block contributes its instructions
    // plus exactly one lowered terminator. Offsets are checked into u32 —
    // `pc += len as u32 + 1` used to wrap silently on a pathological module.
    let mut starts = Vec::with_capacity(f.blocks.len());
    let mut total = 0usize;
    for b in &f.blocks {
        starts.push(code_offset_u32(total, &f.name)?);
        total = total
            .checked_add(b.insts.len())
            .and_then(|t| t.checked_add(1))
            .ok_or_else(|| LowerError::CodeTooLarge {
                function: f.name.clone(),
            })?;
    }
    code_offset_u32(total, &f.name)?;
    let pc = total as u32;

    let mut slot_of = |op: &Operand| -> u32 {
        match op {
            Operand::Reg(r) => r.0,
            Operand::Imm(v) => {
                nregs
                    + *const_ids.entry(*v).or_insert_with(|| {
                        consts.push(*v);
                        (consts.len() - 1) as u32
                    })
            }
        }
    };

    // Pass 2: lower instructions and terminators.
    let mut code = Vec::with_capacity(pc as usize);
    for b in &f.blocks {
        for inst in &b.insts {
            let li = match inst {
                Inst::Bin { op, dst, lhs, rhs } => LInst::Bin {
                    op: *op,
                    dst: dst.0,
                    lhs: slot_of(lhs),
                    rhs: slot_of(rhs),
                },
                Inst::Mov { dst, src } => LInst::Mov {
                    dst: dst.0,
                    src: slot_of(src),
                },
                Inst::Load { dst, addr, width } => LInst::Load {
                    dst: dst.0,
                    addr: slot_of(addr),
                    width: *width,
                },
                Inst::Store { src, addr, width } => LInst::Store {
                    src: slot_of(src),
                    addr: slot_of(addr),
                    width: *width,
                },
                Inst::Memcpy { dst, src, len } => LInst::Memcpy {
                    dst: slot_of(dst),
                    src: slot_of(src),
                    len: slot_of(len),
                },
                Inst::Call { dst, callee, args } => LInst::Call {
                    dst: dst.map_or(NO_SLOT, |d| d.0),
                    callee: *callee,
                    args: pool_args(&mut arg_pool, args, &mut slot_of, &f.name)?,
                },
                Inst::CallIndirect { dst, target, args } => {
                    let site = sites;
                    sites += 1;
                    LInst::CallIndirect {
                        dst: dst.map_or(NO_SLOT, |d| d.0),
                        target: slot_of(target),
                        args: pool_args(&mut arg_pool, args, &mut slot_of, &f.name)?,
                        site,
                    }
                }
                Inst::Extern { dst, name, args } => {
                    let dst = dst.map_or(NO_SLOT, |d| d.0);
                    let ext = externs.intern(name);
                    match args.as_slice() {
                        [a0] => LInst::Extern1 {
                            dst,
                            ext,
                            a0: slot_of(a0),
                        },
                        [a0, a1] => LInst::Extern2 {
                            dst,
                            ext,
                            a0: slot_of(a0),
                            a1: slot_of(a1),
                        },
                        _ => LInst::Extern {
                            dst,
                            ext,
                            args: pool_args(&mut arg_pool, args, &mut slot_of, &f.name)?,
                        },
                    }
                }
                Inst::MaskGhost { dst, src } => LInst::MaskGhost {
                    dst: dst.0,
                    src: slot_of(src),
                },
                Inst::ZeroSva { dst, src } => LInst::ZeroSva {
                    dst: dst.0,
                    src: slot_of(src),
                },
                Inst::CfiCheck {
                    target,
                    expected_label,
                } => {
                    let site = sites;
                    sites += 1;
                    LInst::CfiCheck {
                        target: slot_of(target),
                        expected_label: *expected_label,
                        site,
                    }
                }
            };
            code.push(li);
        }
        code.push(match &b.term {
            Terminator::Jmp(t) => LInst::Jmp {
                target: starts[t.0 as usize],
            },
            Terminator::Br {
                cond,
                then_blk,
                else_blk,
            } => LInst::Br {
                cond: slot_of(cond),
                then_pc: starts[then_blk.0 as usize],
                else_pc: starts[else_blk.0 as usize],
            },
            Terminator::Ret(v) => LInst::Ret {
                src: v.as_ref().map_or(NO_SLOT, &mut slot_of),
            },
        });
    }

    Ok(Linear {
        nregs,
        consts,
        code,
        arg_pool,
        sites,
    })
}

fn pool_args(
    pool: &mut Vec<u32>,
    args: &[Operand],
    slot_of: &mut impl FnMut(&Operand) -> u32,
    function: &str,
) -> Result<ArgRange, LowerError> {
    let start = pool_offset_u32(pool.len(), function)?;
    let len = pool_offset_u32(args.len(), function)?;
    pool.extend(args.iter().map(slot_of));
    pool_offset_u32(pool.len(), function)?;
    Ok(ArgRange { start, len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::VReg;

    #[test]
    fn constants_dedup_into_the_pool() {
        let mut b = FunctionBuilder::new("f", 1);
        let x = b.bin(BinOp::Add, b.param(0).into(), 7.into());
        let y = b.bin(BinOp::Mul, x.into(), 7.into());
        let z = b.bin(BinOp::Sub, y.into(), 3.into());
        let f = b.ret(Some(z.into()));
        let mut ext = ExternInterner::default();
        let lf = lower_linear(&f, &mut ext).unwrap();
        assert_eq!(lf.consts, vec![7, 3], "7 appears once, 3 once");
        assert_eq!(lf.nregs, f.max_reg() + 1);
        // The two uses of `7` resolve to the same slot, past the registers.
        let LInst::Bin { rhs: r1, .. } = lf.code[0] else {
            panic!("expected Bin");
        };
        let LInst::Bin { rhs: r2, .. } = lf.code[1] else {
            panic!("expected Bin");
        };
        assert_eq!(r1, r2);
        assert_eq!(r1, lf.nregs);
    }

    #[test]
    fn branch_targets_become_pcs() {
        // entry: jmp B1; B1: one inst, jmp B2; B2: ret
        let mut b = FunctionBuilder::new("f", 0);
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.jmp(b1);
        b.switch_to(b1);
        b.mov(1.into());
        b.jmp(b2);
        b.switch_to(b2);
        b.terminate(Terminator::Ret(None));
        let f = b.finish();
        let lf = lower_linear(&f, &mut ExternInterner::default()).unwrap();
        // Layout: [0]=Jmp(B1=1), [1]=Mov, [2]=Jmp(B2=3), [3]=Ret.
        assert_eq!(lf.code[0], LInst::Jmp { target: 1 });
        assert_eq!(lf.code[2], LInst::Jmp { target: 3 });
        assert_eq!(lf.code[3], LInst::Ret { src: NO_SLOT });
    }

    #[test]
    fn extern_names_intern_densely() {
        let mut b = FunctionBuilder::new("f", 0);
        b.ext("a.one", &[]);
        b.ext("a.two", &[]);
        b.ext("a.one", &[1.into()]);
        let f = b.ret(None);
        let mut ext = ExternInterner::default();
        let lf = lower_linear(&f, &mut ext).unwrap();
        assert_eq!(ext.len(), 2);
        assert_eq!(ext.lookup("a.one"), Some(0));
        assert_eq!(ext.lookup("a.two"), Some(1));
        assert_eq!(ext.name(0), Some("a.one"));
        let ids: Vec<u32> = lf
            .code
            .iter()
            .filter_map(|i| match i {
                LInst::Extern { ext, .. }
                | LInst::Extern1 { ext, .. }
                | LInst::Extern2 { ext, .. } => Some(*ext),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 0]);
    }

    #[test]
    fn sites_allocated_per_indirect_and_cfi() {
        use crate::inst::Block;
        // The shape the CFI pass emits: a check immediately before the call.
        let f = Function {
            name: "f".into(),
            params: 1,
            blocks: vec![Block {
                insts: vec![
                    Inst::CfiCheck {
                        target: VReg(0).into(),
                        expected_label: 5,
                    },
                    Inst::CallIndirect {
                        dst: None,
                        target: VReg(0).into(),
                        args: vec![],
                    },
                ],
                term: Terminator::Ret(None),
            }],
            cfi_label: Some(5),
        };
        let lf = lower_function(&f, &mut ExternInterner::default()).unwrap();
        assert_eq!(lf.sites.len(), 2);
        assert_eq!(lf.sites[0].get().gen, 0, "caches start empty");
        assert!(lf.instrumented);
        let code = lower_linear(&f, &mut ExternInterner::default())
            .unwrap()
            .code;
        assert!(matches!(code[0], LInst::CfiCheck { site: 0, .. }));
        assert!(matches!(code[1], LInst::CallIndirect { site: 1, .. }));
    }

    #[test]
    fn empty_function_lowers_to_empty_code() {
        let f = Function {
            name: "empty".into(),
            params: 0,
            blocks: vec![],
            cfi_label: None,
        };
        let lf = lower_linear(&f, &mut ExternInterner::default()).unwrap();
        assert!(lf.code.is_empty());
    }

    #[test]
    fn destinations_stay_below_the_constant_tail() {
        let mut b = FunctionBuilder::new("f", 2);
        let v = b.bin(BinOp::Add, b.param(0).into(), 1000.into());
        b.mov_to(VReg(0), v.into());
        let f = b.ret(Some(VReg(0).into()));
        let lf = lower_linear(&f, &mut ExternInterner::default()).unwrap();
        for i in &lf.code {
            if let LInst::Bin { dst, .. } | LInst::Mov { dst, .. } = i {
                assert!(*dst < lf.nregs);
            }
        }
    }

    /// Satellite regression: offsets that no longer fit a `u32` are an
    /// explicit [`LowerError`], not a silent wraparound. The guard is
    /// exercised directly — materializing a 2^32-instruction function to
    /// trip it through `lower_function` would need >100 GiB.
    #[test]
    fn offset_overflow_is_an_explicit_error() {
        assert_eq!(code_offset_u32(u32::MAX as usize, "f"), Ok(u32::MAX));
        assert_eq!(
            code_offset_u32(u32::MAX as usize + 1, "f"),
            Err(LowerError::CodeTooLarge {
                function: "f".into()
            })
        );
        assert_eq!(pool_offset_u32(0, "g"), Ok(0));
        assert_eq!(
            pool_offset_u32(usize::MAX, "g"),
            Err(LowerError::ArgPoolTooLarge {
                function: "g".into()
            })
        );
        // And the error renders something actionable.
        let e = code_offset_u32(usize::MAX, "huge").unwrap_err();
        assert!(e.to_string().contains("huge"));
    }

    /// Every code offset produced by lowering goes through the checked
    /// conversion: block starts are strictly increasing and in-bounds.
    #[test]
    fn block_starts_are_checked_and_monotonic() {
        let mut b = FunctionBuilder::new("f", 0);
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.jmp(b1);
        b.switch_to(b1);
        b.mov(1.into());
        b.jmp(b2);
        b.switch_to(b2);
        b.terminate(Terminator::Ret(None));
        let f = b.finish();
        let lf = lower_linear(&f, &mut ExternInterner::default()).unwrap();
        let targets: Vec<u32> = lf
            .code
            .iter()
            .filter_map(|i| match i {
                LInst::Jmp { target } => Some(*target),
                _ => None,
            })
            .collect();
        assert!(targets.iter().all(|&t| (t as usize) < lf.code.len()));
    }
}
