//! Superinstruction fusion: the code form the fused engine executes.
//!
//! The lowered form (see [`lower`](crate::lower)) already removes `Operand`
//! matching and block-id chasing, but executed as is it pays one dispatch —
//! a fetch through `code[pc]`, a `pc` increment, a jump-table branch, and a
//! fuel check — *per instruction*. On call/extern-heavy shapes that dispatch
//! is noise next to frame pushes and host calls; on straight-line arithmetic
//! it **is** the workload (BENCH_interp.json: `arith_loop` barely moved
//! under the since-deleted unfused executor).
//!
//! [`fuse_function`] runs once at module-registration time, after lowering,
//! and rewrites each function's linear [`LInst`] stream into a [`FusedCode`]
//! stream of [`FInst`]s in which hot linear shapes collapse into
//! superinstructions:
//!
//! * **ALU runs** — maximal straight-line sequences of pure frame-slot ops
//!   (`Bin`/`Mov`/`MaskGhost`/`ZeroSva`) become one [`FInst::AluRun`] over a
//!   compact micro-op pool ([`AluOp`]). The run executes under a *single*
//!   dispatch and a single up-front fuel check; per-op cost drops to two
//!   slot reads, the ALU op, and a slot write.
//! * **Run-and-jump** — a run whose block ends in an unconditional `Jmp`
//!   absorbs the jump ([`FInst::AluRunJmp`]), so a loop body is one fused
//!   instruction.
//! * **Compare-and-branch** — a `Bin` immediately feeding its block's
//!   `Br` condition fuses into [`FInst::CmpBr`] (the classic
//!   `cmp`+`jcc` pair), eliminating the dispatch between the compare and
//!   the branch that every loop header executes per iteration.
//! * **Jump threading** — branch targets that land on a bare `Jmp` are
//!   redirected to its final destination (bounded chain-following, so
//!   degenerate `Jmp` cycles cannot hang fusion; they still hang at run
//!   time in every tier, exactly like the reference engine).
//!
//! The load-bearing invariant (property-tested against the reference engine in
//! `crates/ir/tests/engine_equivalence.rs`): fusion is **observationally
//! free**. Fuel and [`InterpStats`](crate::interp::InterpStats) are charged
//! per *original* instruction — a fused run that meets fuel exhaustion
//! executes exactly as many micro-ops as the reference engine would have
//! executed instructions, then faults with identical counters — and
//! terminators stay free, exactly as in the reference tier. Inline-cache
//! site indices are preserved verbatim, so the fused code indexes the
//! lowered function's site table and the registry-generation invalidation
//! story (module reload, rootkit `register_at` injection) applies unchanged.

use crate::inst::{BinOp, Width};
use crate::lower::{ArgRange, LInst, NO_SLOT};

/// Operand sentinel: read the run accumulator (the previous micro-op's
/// result) instead of a frame slot. Chained ALU sequences — each op feeding
/// the next — skip the load of the slot they just wrote.
pub const ACC: u32 = u32::MAX;
/// Destination sentinel: the slot write is elided. Emitted when liveness
/// analysis over the whole lowered function proves the *only* read of the
/// destination slot is the immediately-following micro-op of the same run —
/// which consumes the value through the accumulator instead. A chained
/// arithmetic sequence then runs entirely in registers.
pub const ELIDED: u32 = u32::MAX;
/// Operand sentinel: read the baked immediate [`AluOp::imm`] instead of a
/// frame slot. Constant-pool slots are read-only by construction (`lower.rs`
/// appends them after the register slots and destinations are always
/// registers), so their values can be captured at fuse time. At most one
/// operand of an op is `IMM`; an op whose operands are *both* constants is
/// folded outright into a `Mov` of the result.
pub const IMM: u32 = u32::MAX - 1;

/// A micro-op's threaded-code entry point: a
/// [`step_micro`](crate::interp) instantiation specialized for the op's
/// final shape (kind × operand modes × store elision), executing over the
/// current frame (`slots[base..]`). Baked by [`fuse_function`] so the run
/// loop performs zero per-op decode.
pub type StepFn = fn(&AluOp, &mut [i64], i64) -> i64;

/// One micro-operation of a fused ALU run. `a` is the only operand of the
/// unary kinds (`Mov`/`MaskGhost`/`ZeroSva`). Either operand may be the
/// [`ACC`] or [`IMM`] sentinel instead of a frame slot; [`AluOp::dst`] may
/// be [`ELIDED`].
#[derive(Debug, Clone, Copy)]
pub struct AluOp {
    /// The operation (used by the fuel-exhaustion slow path for mask
    /// accounting and by [`fuse_function`] itself; execution goes through
    /// [`AluOp::step`]).
    pub kind: MicroKind,
    /// Destination frame slot, or [`ELIDED`] for a dead chain store.
    pub dst: u32,
    /// First operand slot, [`ACC`], or [`IMM`].
    pub a: u32,
    /// Second operand slot, [`ACC`], or [`IMM`] (unused by unary kinds).
    pub b: u32,
    /// The baked constant when `a` or `b` is [`IMM`].
    pub imm: i64,
    /// Specialized executor for this op's exact shape.
    pub step: StepFn,
}

/// Micro-op kind: the twelve [`BinOp`]s flattened together with the three
/// fusible unary ops, so the run interpreter is one small jump table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum MicroKind {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Ltu,
    Lts,
    Mov,
    MaskGhost,
    ZeroSva,
}

impl MicroKind {
    fn of_binop(op: BinOp) -> MicroKind {
        match op {
            BinOp::Add => MicroKind::Add,
            BinOp::Sub => MicroKind::Sub,
            BinOp::Mul => MicroKind::Mul,
            BinOp::And => MicroKind::And,
            BinOp::Or => MicroKind::Or,
            BinOp::Xor => MicroKind::Xor,
            BinOp::Shl => MicroKind::Shl,
            BinOp::Shr => MicroKind::Shr,
            BinOp::Eq => MicroKind::Eq,
            BinOp::Ne => MicroKind::Ne,
            BinOp::Ltu => MicroKind::Ltu,
            BinOp::Lts => MicroKind::Lts,
        }
    }

    /// Whether this micro-op charges [`InterpStats::masks`]
    /// (`MaskGhost`/`ZeroSva` — the sandboxing-overhead counters).
    ///
    /// [`InterpStats::masks`]: crate::interp::InterpStats::masks
    pub fn is_mask(self) -> bool {
        matches!(self, MicroKind::MaskGhost | MicroKind::ZeroSva)
    }
}

/// A fused instruction. Operand fields are frame-slot indices exactly as in
/// [`LInst`]; branch targets are offsets into the *fused* stream. Site
/// indices index the owning [`LoweredFunction`](crate::lower::LoweredFunction)'s
/// shared inline-cache table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FInst {
    /// `len` micro-ops from the pool, one dispatch, fuel checked once
    /// up front (`masks` of them charge the mask counter). When fuel covers
    /// the whole run the engine executes the *compacted* form
    /// (`exec_start`/`exec_len` into [`FusedCode::exec`]) instead — same
    /// observable effect, fewer steps; the 1:1 micro range is kept for the
    /// fuel-exhaustion slow path, which must stop at an exact instruction.
    AluRun {
        /// First micro-op in [`FusedCode::micro`].
        start: u32,
        /// Number of micro-ops (= original instructions charged). `u16` —
        /// run formation caps runs so `FInst` stays 24 bytes like `LInst`.
        len: u16,
        /// How many of them are `MaskGhost`/`ZeroSva`.
        masks: u16,
        /// First op of the compacted form in [`FusedCode::exec`].
        exec_start: u32,
        /// Number of compacted ops (≤ `len`).
        exec_len: u16,
    },
    /// An [`FInst::AluRun`] that absorbed its block's trailing `Jmp`.
    AluRunJmp {
        /// First micro-op in [`FusedCode::micro`].
        start: u32,
        /// Number of micro-ops.
        len: u16,
        /// How many of them are `MaskGhost`/`ZeroSva`.
        masks: u16,
        /// First op of the compacted form in [`FusedCode::exec`].
        exec_start: u32,
        /// Number of compacted ops (≤ `len`).
        exec_len: u16,
        /// Fused pc to continue at after the run.
        target: u32,
    },
    /// Fused compare-and-branch: `slot[dst] = op(slot[lhs], slot[rhs])`,
    /// then branch on the result. Charges one instruction (the `Bin`); the
    /// branch half stays free like every terminator.
    CmpBr {
        /// The compare (any `BinOp` — the branch tests "non-zero").
        op: BinOp,
        /// Destination slot — still written: later code may read it.
        dst: u32,
        /// Left operand slot.
        lhs: u32,
        /// Right operand slot.
        rhs: u32,
        /// Fused pc when the result is non-zero.
        then_pc: u32,
        /// Fused pc when the result is zero.
        else_pc: u32,
    },
    /// A whole counted loop under a single dispatch: a [`FInst::CmpBr`]
    /// whose taken edge leads to an [`FInst::AluRunJmp`] that jumps straight
    /// back to it. The engine iterates compare → body natively — no
    /// instruction dispatch per iteration — charging fuel exactly as the
    /// unfused pair would (1 for the compare, `len` for the body, body
    /// prefix stepped op-by-op on exhaustion). The original `CmpBr`/
    /// `AluRunJmp` instructions stay in the stream as branch targets; this
    /// variant replaces only the header's slot.
    CmpLoop {
        /// Baked compare op in [`FusedCode::micro`] (operand modes and
        /// store elision pre-resolved like any run op).
        cmp: u32,
        /// Body: first micro-op in [`FusedCode::micro`].
        start: u32,
        /// Body length in micro-ops (= original instructions charged).
        len: u16,
        /// How many body ops are `MaskGhost`/`ZeroSva`.
        masks: u16,
        /// Body's compacted form in [`FusedCode::exec`].
        exec_start: u32,
        /// Number of compacted body ops.
        exec_len: u16,
        /// Fused pc when the compare is zero (loop exit).
        else_pc: u32,
    },
    /// Unfused single ALU op (a run of one is cheaper dispatched directly).
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
        /// Result slot ([`NO_SLOT`](crate::lower::NO_SLOT) if unused).
        dst: u32,
        /// Callee function index.
        callee: u32,
        /// Argument slots.
        args: ArgRange,
    },
    /// Indirect call through the code address in `slot[target]`.
    CallIndirect {
        /// Result slot ([`NO_SLOT`](crate::lower::NO_SLOT) if unused).
        dst: u32,
        /// Target address slot.
        target: u32,
        /// Argument slots.
        args: ArgRange,
        /// Inline-cache site index (preserved from the lowered form).
        site: u32,
    },
    /// Host call by interned extern id.
    Extern {
        /// Result slot ([`NO_SLOT`](crate::lower::NO_SLOT) if unused).
        dst: u32,
        /// Interned extern id.
        ext: u32,
        /// Argument slots.
        args: ArgRange,
    },
    /// One-argument host call.
    Extern1 {
        /// Result slot ([`NO_SLOT`](crate::lower::NO_SLOT) if unused).
        dst: u32,
        /// Interned extern id.
        ext: u32,
        /// Argument slot.
        a0: u32,
    },
    /// Two-argument host call.
    Extern2 {
        /// Result slot ([`NO_SLOT`](crate::lower::NO_SLOT) if unused).
        dst: u32,
        /// Interned extern id.
        ext: u32,
        /// First argument slot.
        a0: u32,
        /// Second argument slot.
        a1: u32,
    },
    /// Ghost-mask `slot[src]` into `slot[dst]` (unfused single).
    MaskGhost {
        /// Destination slot.
        dst: u32,
        /// Pointer slot.
        src: u32,
    },
    /// SVA-guard `slot[src]` into `slot[dst]` (unfused single).
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
        /// Inline-cache site index (preserved from the lowered form).
        site: u32,
    },
    /// Unconditional jump to fused pc `target`.
    Jmp {
        /// Target fused pc.
        target: u32,
    },
    /// Conditional branch on `slot[cond]`.
    Br {
        /// Condition slot.
        cond: u32,
        /// Target fused pc when non-zero.
        then_pc: u32,
        /// Target fused pc when zero.
        else_pc: u32,
    },
    /// Return `slot[src]` ([`NO_SLOT`](crate::lower::NO_SLOT) returns 0).
    Ret {
        /// Value slot or [`NO_SLOT`](crate::lower::NO_SLOT).
        src: u32,
    },
}

/// A function's fused execution form: the superinstruction stream plus the
/// micro-op pool its ALU runs index.
#[derive(Debug, Default)]
pub struct FusedCode {
    /// Fused instruction stream; execution starts at fused pc 0.
    pub code: Vec<FInst>,
    /// Micro-op pool for [`FInst::AluRun`]/[`FInst::AluRunJmp`], 1:1 with
    /// the original fusible instructions — the fuel-exhaustion slow path
    /// steps through this so `OutOfFuel` lands on an exact instruction
    /// boundary with exact mask counts.
    pub micro: Vec<AluOp>,
    /// Compacted execution pool for full-fuel runs: `Mov`-of-accumulator
    /// ops are absorbed into the producing op's store, and adjacent
    /// immediate-chain ops fuse into single pair superinstructions
    /// (`acc = K2(K1(acc, i1), i2)`). Observably identical to the micro
    /// range — it performs the same live stores and the same arithmetic —
    /// but with fewer dispatched steps.
    pub exec: Vec<AluOp>,
}

/// Whether a lowered instruction can join an ALU run (pure frame-slot ops:
/// no memory, no control flow, no host, cannot fault except `OutOfFuel`).
fn fusible(inst: &LInst) -> bool {
    matches!(
        inst,
        LInst::Bin { .. } | LInst::Mov { .. } | LInst::MaskGhost { .. } | LInst::ZeroSva { .. }
    )
}

fn micro_of(inst: &LInst) -> AluOp {
    let (kind, dst, a, b) = match *inst {
        LInst::Bin { op, dst, lhs, rhs } => (MicroKind::of_binop(op), dst, lhs, rhs),
        LInst::Mov { dst, src } => (MicroKind::Mov, dst, src, 0),
        LInst::MaskGhost { dst, src } => (MicroKind::MaskGhost, dst, src, 0),
        LInst::ZeroSva { dst, src } => (MicroKind::ZeroSva, dst, src, 0),
        _ => unreachable!("only fusible instructions become micro-ops"),
    };
    AluOp {
        kind,
        dst,
        a,
        b,
        imm: 0,
        // Placeholder; [`bake_run`] re-derives the final pointer once the
        // operand modes and store elision are settled.
        step: crate::interp::step_fn_for(kind, 0, 0, true),
    }
}

/// Operand mode for [`step_fn_for`](crate::interp::step_fn_for): 0 = frame
/// slot, 1 = accumulator, 2 = baked immediate.
fn mode_of(s: u32) -> u8 {
    match s {
        ACC => 1,
        IMM => 2,
        _ => 0,
    }
}

/// Counts, per frame slot, how many instruction operands anywhere in the
/// function read it (argument-pool entries included: call/extern arguments
/// are slot reads). Write destinations do not count; neither does
/// [`NO_SLOT`]. This is the whole analysis behind store elision — a slot
/// with zero reads outside one ACC-baked chain edge can skip its write.
fn slot_reads(code: &[LInst], arg_pool: &[u32], nslots: usize) -> Vec<u32> {
    let mut reads = vec![0u32; nslots];
    let mut r = |s: u32| {
        if s != NO_SLOT {
            reads[s as usize] += 1;
        }
    };
    for inst in code {
        match *inst {
            LInst::Bin { lhs, rhs, .. } => {
                r(lhs);
                r(rhs);
            }
            LInst::Mov { src, .. }
            | LInst::MaskGhost { src, .. }
            | LInst::ZeroSva { src, .. }
            | LInst::Ret { src } => r(src),
            LInst::Load { addr, .. } => r(addr),
            LInst::Store { src, addr, .. } => {
                r(src);
                r(addr);
            }
            LInst::Memcpy { dst, src, len } => {
                r(dst);
                r(src);
                r(len);
            }
            LInst::Call { args, .. } => {
                for &s in &arg_pool[args.start as usize..(args.start + args.len) as usize] {
                    r(s);
                }
            }
            LInst::CallIndirect { target, args, .. } => {
                r(target);
                for &s in &arg_pool[args.start as usize..(args.start + args.len) as usize] {
                    r(s);
                }
            }
            LInst::Extern { args, .. } => {
                for &s in &arg_pool[args.start as usize..(args.start + args.len) as usize] {
                    r(s);
                }
            }
            LInst::Extern1 { a0, .. } => r(a0),
            LInst::Extern2 { a0, a1, .. } => {
                r(a0);
                r(a1);
            }
            LInst::CfiCheck { target, .. } => r(target),
            LInst::Br { cond, .. } => r(cond),
            LInst::Jmp { .. } => {}
        }
    }
    reads
}

/// How many *register* operands of `inst` read slot `s`. Used to decide
/// store elision: these are exactly the operands [`bake_run`] rewrites to
/// [`ACC`] when `s` is the previous op's destination.
fn operand_reads_of(inst: &LInst, s: u32) -> u32 {
    match *inst {
        LInst::Bin { lhs, rhs, .. } => (lhs == s) as u32 + (rhs == s) as u32,
        LInst::Mov { src, .. } | LInst::MaskGhost { src, .. } | LInst::ZeroSva { src, .. } => {
            (src == s) as u32
        }
        _ => unreachable!("only fusible instructions follow inside a run"),
    }
}

/// Rewrites one run's micro-op operands against the frame layout:
/// constant-pool slots (`>= nregs`, read-only by construction) become baked
/// [`IMM`] operands, an operand equal to the *previous* op's destination
/// becomes [`ACC`] (the run interpreter carries the last result in a
/// register), and a binary op whose operands are both constants folds to a
/// `Mov` of the precomputed result.
///
/// A second pass elides dead chain stores: op `k`'s slot write becomes
/// [`ELIDED`] when every read of its destination slot *anywhere in the
/// function* (`reads`, from [`slot_reads`]) is an operand of op `k+1` in the
/// same run — those operands were just rewritten to [`ACC`], so the slot
/// value is unreachable. Frame slots are not part of the observable outcome
/// (result, stats, fuel, memory, host calls), so skipping the write is
/// invisible even when the run is cut short by fuel exhaustion.
fn bake_run(run: &mut [AluOp], insts: &[LInst], nregs: u32, frame_init: &[i64], reads: &[u32]) {
    let mut prev_dst: Option<u32> = None;
    for (op, inst) in run.iter_mut().zip(insts) {
        let cv = |s: u32| (s >= nregs).then(|| frame_init[s as usize]);
        match op.kind {
            MicroKind::Mov | MicroKind::MaskGhost | MicroKind::ZeroSva => {
                if Some(op.a) == prev_dst {
                    op.a = ACC;
                } else if let Some(v) = cv(op.a) {
                    op.a = IMM;
                    op.imm = v;
                }
            }
            _ => match (cv(op.a), cv(op.b)) {
                (Some(ca), Some(cb)) => {
                    let LInst::Bin { op: bop, .. } = inst else {
                        unreachable!("binary micro-ops come from Bin")
                    };
                    *op = AluOp {
                        kind: MicroKind::Mov,
                        dst: op.dst,
                        a: IMM,
                        b: 0,
                        imm: crate::interp::binop(*bop, ca, cb),
                        step: op.step,
                    };
                }
                (Some(ca), None) => {
                    op.imm = ca;
                    op.a = IMM;
                    if Some(op.b) == prev_dst {
                        op.b = ACC;
                    }
                }
                (None, Some(cb)) => {
                    op.imm = cb;
                    op.b = IMM;
                    if Some(op.a) == prev_dst {
                        op.a = ACC;
                    }
                }
                (None, None) => {
                    if Some(op.a) == prev_dst {
                        op.a = ACC;
                    }
                    if Some(op.b) == prev_dst {
                        op.b = ACC;
                    }
                }
            },
        }
        prev_dst = Some(op.dst);
    }
    for k in 0..run.len().saturating_sub(1) {
        let s = run[k].dst;
        if reads[s as usize] == operand_reads_of(&insts[k + 1], s) {
            run[k].dst = ELIDED;
        }
    }
    // Operand modes and elision are final: bake each op's specialized
    // threaded-code executor.
    for op in run.iter_mut() {
        op.step =
            crate::interp::step_fn_for(op.kind, mode_of(op.a), mode_of(op.b), op.dst != ELIDED);
    }
}

/// Whether an op is an immediate-chain link: consumes the accumulator,
/// combines it with a baked immediate, stores nowhere. Two adjacent links
/// fuse into one [`step_pair_ai`](crate::interp) superinstruction.
fn chain_ai(op: &AluOp) -> bool {
    op.dst == ELIDED && op.a == ACC && op.b == IMM && (op.kind as u8) < (MicroKind::Mov as u8)
}

/// Builds the compacted execution form of one baked run into `exec`,
/// returning its `(start, len)` range. Two rewrites, both invisible to the
/// observable outcome (same live stores, same arithmetic, same accumulator
/// values at every surviving step):
///
/// * a `Mov` that stores the accumulator is absorbed into the preceding
///   op's (elided) destination — the classic `op t, ...; mov r, t` shape
///   produced by the builder's `mov_to` collapses into one step;
/// * two adjacent immediate-chain links become one pair superinstruction.
///
/// Only full-fuel runs execute this form; partial runs walk the 1:1 micro
/// range instead, so fuel exhaustion still stops on an exact original
/// instruction with exact counters.
fn compact_run(run: &[AluOp], exec: &mut Vec<AluOp>) -> (u32, u16) {
    let estart = exec.len() as u32;
    let mut k = 0usize;
    while k < run.len() {
        let mut op = run[k];
        if op.dst == ELIDED {
            if let Some(next) = run.get(k + 1) {
                if next.kind == MicroKind::Mov && next.a == ACC {
                    op.dst = next.dst;
                    op.step = crate::interp::step_fn_for(
                        op.kind,
                        mode_of(op.a),
                        mode_of(op.b),
                        op.dst != ELIDED,
                    );
                    k += 1;
                }
            }
        }
        if chain_ai(&op) {
            if let Some(next) = run.get(k + 1) {
                if chain_ai(next) {
                    let imm2 = next.imm as u64;
                    exec.push(AluOp {
                        kind: op.kind,
                        dst: ELIDED,
                        a: (imm2 >> 32) as u32,
                        b: imm2 as u32,
                        imm: op.imm,
                        step: crate::interp::pair_fn_for(op.kind, next.kind),
                    });
                    k += 2;
                    continue;
                }
            }
        }
        exec.push(op);
        k += 1;
    }
    (estart, (exec.len() as u32 - estart) as u16)
}

/// Fuses one function's lowered stream. Pure and deterministic; called once
/// per function at registration time, right after lowering.
///
/// Correctness leans on two structural facts of the lowered form (see
/// `lower.rs`): every block ends in exactly one terminator
/// (`Jmp`/`Br`/`Ret`), and every branch target is a block start. Hence a
/// greedy run (which only spans non-terminator instructions) can never cross
/// a block boundary, and no branch can land *inside* a fused run — a target
/// always coincides with the start of an emitted [`FInst`].
pub fn fuse_function(
    code: &[LInst],
    nregs: u32,
    frame_init: &[i64],
    arg_pool: &[u32],
) -> FusedCode {
    let mut fused: Vec<FInst> = Vec::with_capacity(code.len());
    let mut micro: Vec<AluOp> = Vec::new();
    let mut exec: Vec<AluOp> = Vec::new();
    let reads = slot_reads(code, arg_pool, frame_init.len());
    // Map lowered pc → fused pc of the FInst that subsumed it. Instructions
    // absorbed into a run map to the run itself; only block starts are ever
    // looked up (branch targets), and those always head their FInst.
    let mut fpc = vec![0u32; code.len()];

    let mut i = 0usize;
    while i < code.len() {
        let here = fused.len() as u32;
        // Greedy ALU run starting at i.
        let mut j = i;
        // Cap runs so `len` fits the `FInst` variants' u16 fields; a block
        // that long just becomes several back-to-back runs.
        while j < code.len() && fusible(&code[j]) && j - i < u16::MAX as usize {
            j += 1;
        }
        // Compare-and-branch: if the run is immediately followed by a `Br`
        // whose condition is the last op's `Bin` destination, peel that op
        // off the run so the pair fuses.
        let mut cmp_br = None;
        if j < code.len() && j > i {
            if let (
                LInst::Bin { op, dst, lhs, rhs },
                LInst::Br {
                    cond,
                    then_pc,
                    else_pc,
                },
            ) = (&code[j - 1], &code[j])
            {
                if dst == cond {
                    cmp_br = Some((*op, *dst, *lhs, *rhs, *then_pc, *else_pc));
                    j -= 1;
                }
            }
        }
        let run_len = j - i;
        match run_len {
            0 => {}
            1 => {
                // A run of one is cheaper dispatched directly.
                fpc[i] = here;
                fused.push(match code[i] {
                    LInst::Bin { op, dst, lhs, rhs } => FInst::Bin { op, dst, lhs, rhs },
                    LInst::Mov { dst, src } => FInst::Mov { dst, src },
                    LInst::MaskGhost { dst, src } => FInst::MaskGhost { dst, src },
                    LInst::ZeroSva { dst, src } => FInst::ZeroSva { dst, src },
                    _ => unreachable!("fusible"),
                });
            }
            _ => {
                let start = micro.len() as u32;
                let mut masks = 0u16;
                for (k, inst) in code[i..j].iter().enumerate() {
                    fpc[i + k] = here;
                    let op = micro_of(inst);
                    masks += op.kind.is_mask() as u16;
                    micro.push(op);
                }
                bake_run(
                    &mut micro[start as usize..],
                    &code[i..j],
                    nregs,
                    frame_init,
                    &reads,
                );
                let (exec_start, exec_len) = compact_run(&micro[start as usize..], &mut exec);
                let len = run_len as u16;
                // Absorb a trailing unconditional Jmp: the loop-body shape.
                if let Some(LInst::Jmp { target }) = code.get(j) {
                    fpc[j] = here;
                    j += 1;
                    fused.push(FInst::AluRunJmp {
                        start,
                        len,
                        masks,
                        exec_start,
                        exec_len,
                        // Still a *lowered* pc; patched below.
                        target: *target,
                    });
                } else {
                    fused.push(FInst::AluRun {
                        start,
                        len,
                        masks,
                        exec_start,
                        exec_len,
                    });
                }
            }
        }
        i = j;
        if i >= code.len() {
            break;
        }
        if let Some((op, dst, lhs, rhs, then_pc, else_pc)) = cmp_br {
            // Consumes the peeled Bin at i and the Br at i+1.
            fpc[i] = fused.len() as u32;
            fpc[i + 1] = fused.len() as u32;
            fused.push(FInst::CmpBr {
                op,
                dst,
                lhs,
                rhs,
                then_pc,
                else_pc,
            });
            i += 2;
            continue;
        }
        if fusible(&code[i]) {
            // A fresh run begins here (the previous one was closed by a
            // CmpBr peel that didn't materialize — loop around).
            continue;
        }
        fpc[i] = fused.len() as u32;
        fused.push(match code[i] {
            LInst::Load { dst, addr, width } => FInst::Load { dst, addr, width },
            LInst::Store { src, addr, width } => FInst::Store { src, addr, width },
            LInst::Memcpy { dst, src, len } => FInst::Memcpy { dst, src, len },
            LInst::Call { dst, callee, args } => FInst::Call { dst, callee, args },
            LInst::CallIndirect {
                dst,
                target,
                args,
                site,
            } => FInst::CallIndirect {
                dst,
                target,
                args,
                site,
            },
            LInst::Extern { dst, ext, args } => FInst::Extern { dst, ext, args },
            LInst::Extern1 { dst, ext, a0 } => FInst::Extern1 { dst, ext, a0 },
            LInst::Extern2 { dst, ext, a0, a1 } => FInst::Extern2 { dst, ext, a0, a1 },
            LInst::CfiCheck {
                target,
                expected_label,
                site,
            } => FInst::CfiCheck {
                target,
                expected_label,
                site,
            },
            LInst::Jmp { target } => FInst::Jmp { target },
            LInst::Br {
                cond,
                then_pc,
                else_pc,
            } => FInst::Br {
                cond,
                then_pc,
                else_pc,
            },
            LInst::Ret { src } => FInst::Ret { src },
            LInst::Bin { .. }
            | LInst::Mov { .. }
            | LInst::MaskGhost { .. }
            | LInst::ZeroSva { .. } => unreachable!("handled by the run path"),
        });
        i += 1;
    }

    // Patch branch targets from lowered pcs to fused pcs.
    for inst in &mut fused {
        match inst {
            FInst::Jmp { target } | FInst::AluRunJmp { target, .. } => {
                *target = fpc[*target as usize]
            }
            FInst::Br {
                then_pc, else_pc, ..
            }
            | FInst::CmpBr {
                then_pc, else_pc, ..
            } => {
                *then_pc = fpc[*then_pc as usize];
                *else_pc = fpc[*else_pc as usize];
            }
            _ => {}
        }
    }

    // Jump threading: retarget branches that land on a bare `Jmp` to its
    // destination. Terminators charge nothing and touch no state, so this
    // is unobservable; the hop bound keeps degenerate Jmp cycles (which
    // livelock at run time in every tier, by design) from hanging fusion.
    let resolve = |mut t: u32, fused: &[FInst]| -> u32 {
        let mut hops = 0usize;
        while let Some(FInst::Jmp { target }) = fused.get(t as usize) {
            if hops >= fused.len() {
                break;
            }
            t = *target;
            hops += 1;
        }
        t
    };
    for i in 0..fused.len() {
        match fused[i] {
            FInst::Jmp { target } => {
                let t = resolve(target, &fused);
                fused[i] = FInst::Jmp { target: t };
            }
            FInst::AluRunJmp {
                start,
                len,
                masks,
                exec_start,
                exec_len,
                target,
            } => {
                let t = resolve(target, &fused);
                fused[i] = FInst::AluRunJmp {
                    start,
                    len,
                    masks,
                    exec_start,
                    exec_len,
                    target: t,
                };
            }
            FInst::Br {
                cond,
                then_pc,
                else_pc,
            } => {
                fused[i] = FInst::Br {
                    cond,
                    then_pc: resolve(then_pc, &fused),
                    else_pc: resolve(else_pc, &fused),
                };
            }
            FInst::CmpBr {
                op,
                dst,
                lhs,
                rhs,
                then_pc,
                else_pc,
            } => {
                fused[i] = FInst::CmpBr {
                    op,
                    dst,
                    lhs,
                    rhs,
                    then_pc: resolve(then_pc, &fused),
                    else_pc: resolve(else_pc, &fused),
                };
            }
            _ => {}
        }
    }

    // Loop trace fusion: a CmpBr whose taken edge leads to an AluRunJmp
    // that jumps straight back to it is a counted loop — replace the header
    // with a CmpLoop superinstruction so the engine iterates natively. The
    // compare operand modes are baked like any run op; its destination store
    // is elided when the branch itself was the slot's only reader.
    for i in 0..fused.len() {
        let FInst::CmpBr {
            op,
            dst,
            lhs,
            rhs,
            then_pc,
            else_pc,
        } = fused[i]
        else {
            continue;
        };
        let Some(&FInst::AluRunJmp {
            start,
            len,
            masks,
            exec_start,
            exec_len,
            target,
        }) = fused.get(then_pc as usize)
        else {
            continue;
        };
        if target != i as u32 {
            continue;
        }
        let cv = |s: u32| (s >= nregs).then(|| frame_init[s as usize]);
        // At most one operand can ride the immediate field; a constant left
        // operand stays a (read-only) frame slot when both are constants.
        let (a, b, imm) = if let Some(cb) = cv(rhs) {
            (lhs, IMM, cb)
        } else if let Some(ca) = cv(lhs) {
            (IMM, rhs, ca)
        } else {
            (lhs, rhs, 0)
        };
        let dst = if reads[dst as usize] == 1 {
            ELIDED
        } else {
            dst
        };
        let kind = MicroKind::of_binop(op);
        let cmp = micro.len() as u32;
        micro.push(AluOp {
            kind,
            dst,
            a,
            b,
            imm,
            step: crate::interp::step_fn_for(kind, mode_of(a), mode_of(b), dst != ELIDED),
        });
        fused[i] = FInst::CmpLoop {
            cmp,
            start,
            len,
            masks,
            exec_start,
            exec_len,
            else_pc,
        };
    }

    FusedCode {
        code: fused,
        micro,
        exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Terminator};
    use crate::lower::{lower_function, ExternInterner};

    fn fuse_of(f: &crate::inst::Function) -> FusedCode {
        lower_function(f, &mut ExternInterner::default())
            .unwrap()
            .fused
    }

    #[test]
    fn straight_line_alu_fuses_into_one_run() {
        let mut b = FunctionBuilder::new("f", 1);
        let mut v = b.param(0);
        for k in 0..6i64 {
            v = b.bin(BinOp::Add, v.into(), k.into());
        }
        let f = b.ret(Some(v.into()));
        let fc = fuse_of(&f);
        // One run of six ops, then the Ret.
        assert_eq!(fc.code.len(), 2);
        assert!(matches!(
            fc.code[0],
            FInst::AluRun {
                len: 6,
                masks: 0,
                ..
            }
        ));
        assert!(matches!(fc.code[1], FInst::Ret { .. }));
        assert_eq!(fc.micro.len(), 6);
    }

    #[test]
    fn loop_body_absorbs_jmp_and_header_fuses_cmp_br() {
        // The canonical loop: header = Lts + Br, body = ALU ops + Jmp.
        let mut b = FunctionBuilder::new("loop", 1);
        let i = b.mov(0.into());
        let acc = b.mov(0.into());
        let header = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.jmp(header);
        b.switch_to(header);
        let c = b.bin(BinOp::Lts, i.into(), b.param(0).into());
        b.br(c.into(), body, done);
        b.switch_to(body);
        let a2 = b.bin(BinOp::Add, acc.into(), i.into());
        b.mov_to(acc, a2.into());
        let i2 = b.bin(BinOp::Add, i.into(), 1.into());
        b.mov_to(i, i2.into());
        b.jmp(header);
        b.switch_to(done);
        b.terminate(Terminator::Ret(Some(acc.into())));
        let f = b.finish();
        let fc = fuse_of(&f);
        // The header CmpBr and body AluRunJmp fuse all the way to a CmpLoop
        // trace; the body instruction stays in the stream as a branch target.
        let has_loop = fc
            .code
            .iter()
            .any(|i| matches!(i, FInst::CmpLoop { len: 4, .. }));
        let has_run_jmp = fc
            .code
            .iter()
            .any(|i| matches!(i, FInst::AluRunJmp { len: 4, .. }));
        assert!(has_loop, "loop should fuse to CmpLoop: {:?}", fc.code);
        assert!(
            has_run_jmp,
            "loop body should fuse to AluRunJmp: {:?}",
            fc.code
        );
    }

    #[test]
    fn mask_counts_precompute_per_run() {
        let mut b = FunctionBuilder::new("f", 1);
        let m = b.mask_ghost(b.param(0).into());
        let z = b.zero_sva(m.into());
        let x = b.bin(BinOp::Xor, z.into(), 1.into());
        let f = b.ret(Some(x.into()));
        let fc = fuse_of(&f);
        assert!(matches!(
            fc.code[0],
            FInst::AluRun {
                len: 3,
                masks: 2,
                ..
            }
        ));
    }

    #[test]
    fn single_ops_stay_unfused() {
        let mut b = FunctionBuilder::new("f", 2);
        let s = b.bin(BinOp::Add, b.param(0).into(), b.param(1).into());
        let f = b.ret(Some(s.into()));
        let fc = fuse_of(&f);
        assert!(matches!(fc.code[0], FInst::Bin { op: BinOp::Add, .. }));
        assert!(fc.micro.is_empty());
    }

    #[test]
    fn jump_chains_thread_to_final_target() {
        // entry: jmp B1; B1: jmp B2 (bare); B2: inst, ret.
        let mut b = FunctionBuilder::new("f", 0);
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.jmp(b1);
        b.switch_to(b1);
        b.terminate(Terminator::Jmp(b2));
        b.switch_to(b2);
        b.mov(1.into());
        b.terminate(Terminator::Ret(None));
        let f = b.finish();
        let fc = fuse_of(&f);
        // The entry Jmp must point straight at B2's first instruction,
        // skipping the bare Jmp at B1.
        let FInst::Jmp { target } = fc.code[0] else {
            panic!("entry should stay a Jmp: {:?}", fc.code);
        };
        assert!(
            matches!(fc.code[target as usize], FInst::Mov { .. }),
            "threaded target should be B2's Mov: {:?}",
            fc.code
        );
    }

    #[test]
    fn jmp_self_cycle_does_not_hang_fusion() {
        // A block that jumps to itself with no instructions: degenerate,
        // livelocks at run time in every engine, but fusion must terminate.
        let mut b = FunctionBuilder::new("f", 0);
        let blk = b.new_block();
        b.jmp(blk);
        b.switch_to(blk);
        b.terminate(Terminator::Jmp(blk));
        let f = b.finish();
        let fc = fuse_of(&f);
        assert!(fc.code.iter().any(|i| matches!(i, FInst::Jmp { .. })));
    }

    #[test]
    fn branch_targets_map_onto_fused_pcs() {
        // Branch into the middle function: targets must resolve to the pcs
        // of the FInsts heading each block.
        let mut b = FunctionBuilder::new("f", 1);
        let t = b.new_block();
        let e = b.new_block();
        let c = b.bin(BinOp::Eq, b.param(0).into(), 0.into());
        b.br(c.into(), t, e);
        b.switch_to(t);
        b.mov(1.into());
        b.terminate(Terminator::Ret(None));
        b.switch_to(e);
        b.mov(2.into());
        b.mov(3.into());
        b.terminate(Terminator::Ret(None));
        let f = b.finish();
        let fc = fuse_of(&f);
        let FInst::CmpBr {
            then_pc, else_pc, ..
        } = fc.code[0]
        else {
            panic!("expected fused CmpBr at entry: {:?}", fc.code);
        };
        assert!(matches!(fc.code[then_pc as usize], FInst::Mov { .. }));
        assert!(matches!(
            fc.code[else_pc as usize],
            FInst::AluRun { len: 2, .. }
        ));
    }
}
