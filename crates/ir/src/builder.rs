//! Convenience builder for constructing IR functions.
//!
//! Used by the kernel's built-in module sources, the attack modules in
//! `vg-attacks`, and tests. The builder tracks the current block; blocks are
//! created up front with [`FunctionBuilder::new_block`] and selected with
//! [`FunctionBuilder::switch_to`].

use crate::inst::{BinOp, Block, BlockId, Function, Inst, Operand, Terminator, VReg, Width};

/// Incremental function construction.
///
/// # Examples
///
/// ```
/// use vg_ir::{FunctionBuilder, BinOp};
///
/// // fn double_plus_one(x) { return x * 2 + 1 }
/// let mut b = FunctionBuilder::new("double_plus_one", 1);
/// let x = b.param(0);
/// let t = b.bin(BinOp::Mul, x.into(), 2.into());
/// let r = b.bin(BinOp::Add, t.into(), 1.into());
/// let f = b.ret(Some(r.into()));
/// assert_eq!(f.name, "double_plus_one");
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    params: u32,
    blocks: Vec<PartialBlock>,
    current: usize,
    next_reg: u32,
}

#[derive(Debug)]
struct PartialBlock {
    insts: Vec<Inst>,
    term: Option<Terminator>,
}

impl FunctionBuilder {
    /// Starts a function with `params` parameters; the entry block is
    /// created and selected.
    pub fn new(name: impl Into<String>, params: u32) -> Self {
        FunctionBuilder {
            name: name.into(),
            params,
            blocks: vec![PartialBlock {
                insts: Vec::new(),
                term: None,
            }],
            current: 0,
            next_reg: params,
        }
    }

    /// The register holding parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: u32) -> VReg {
        assert!(i < self.params, "parameter index out of range");
        VReg(i)
    }

    /// Allocates a fresh register.
    pub fn fresh(&mut self) -> VReg {
        let r = VReg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Creates a new (empty, unselected) block.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(PartialBlock {
            insts: Vec::new(),
            term: None,
        });
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Selects the block subsequent instructions append to.
    ///
    /// # Panics
    ///
    /// Panics if the block already has a terminator.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(
            self.blocks[block.0 as usize].term.is_none(),
            "block {block:?} is already terminated"
        );
        self.current = block.0 as usize;
    }

    fn push(&mut self, inst: Inst) {
        let blk = &mut self.blocks[self.current];
        assert!(blk.term.is_none(), "appending to a terminated block");
        blk.insts.push(inst);
    }

    /// Appends `dst = op(lhs, rhs)` and returns `dst`.
    pub fn bin(&mut self, op: BinOp, lhs: Operand, rhs: Operand) -> VReg {
        let dst = self.fresh();
        self.push(Inst::Bin { op, dst, lhs, rhs });
        dst
    }

    /// Appends a register copy / constant load.
    pub fn mov(&mut self, src: Operand) -> VReg {
        let dst = self.fresh();
        self.push(Inst::Mov { dst, src });
        dst
    }

    /// Appends a copy into an *existing* register (the IR is not strict SSA;
    /// this is how loop-carried values are updated).
    pub fn mov_to(&mut self, dst: VReg, src: Operand) {
        self.push(Inst::Mov { dst, src });
    }

    /// Appends a load.
    pub fn load(&mut self, addr: Operand, width: Width) -> VReg {
        let dst = self.fresh();
        self.push(Inst::Load { dst, addr, width });
        dst
    }

    /// Appends a store.
    pub fn store(&mut self, src: Operand, addr: Operand, width: Width) {
        self.push(Inst::Store { src, addr, width });
    }

    /// Appends a `memcpy`.
    pub fn memcpy(&mut self, dst: Operand, src: Operand, len: Operand) {
        self.push(Inst::Memcpy { dst, src, len });
    }

    /// Appends a ghost-pointer mask (what the sandbox pass inserts).
    pub fn mask_ghost(&mut self, src: Operand) -> VReg {
        let dst = self.fresh();
        self.push(Inst::MaskGhost { dst, src });
        dst
    }

    /// Appends a CFI label check (what the CFI pass inserts before indirect
    /// calls).
    pub fn cfi_check(&mut self, target: Operand, expected_label: u32) {
        self.push(Inst::CfiCheck {
            target,
            expected_label,
        });
    }

    /// Appends a direct call to function index `callee`.
    pub fn call(&mut self, callee: u32, args: &[Operand]) -> VReg {
        let dst = self.fresh();
        self.push(Inst::Call {
            dst: Some(dst),
            callee,
            args: args.to_vec(),
        });
        dst
    }

    /// Appends an indirect call through `target`.
    pub fn call_indirect(&mut self, target: Operand, args: &[Operand]) -> VReg {
        let dst = self.fresh();
        self.push(Inst::CallIndirect {
            dst: Some(dst),
            target,
            args: args.to_vec(),
        });
        dst
    }

    /// Appends a host call.
    pub fn ext(&mut self, name: impl Into<String>, args: &[Operand]) -> VReg {
        let dst = self.fresh();
        self.push(Inst::Extern {
            dst: Some(dst),
            name: name.into(),
            args: args.to_vec(),
        });
        dst
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jmp(&mut self, target: BlockId) {
        self.terminate(Terminator::Jmp(target));
    }

    /// Terminates the current block with a conditional branch.
    pub fn br(&mut self, cond: Operand, then_blk: BlockId, else_blk: BlockId) {
        self.terminate(Terminator::Br {
            cond,
            then_blk,
            else_blk,
        });
    }

    /// Terminates the current block with a return and finishes the function.
    ///
    /// Blocks left unterminated become `ret void` — convenient for builders
    /// that branch to a common exit.
    pub fn ret(mut self, value: Option<Operand>) -> Function {
        self.terminate(Terminator::Ret(value));
        self.finish()
    }

    /// Terminates the current block.
    ///
    /// # Panics
    ///
    /// Panics if it is already terminated.
    pub fn terminate(&mut self, term: Terminator) {
        let blk = &mut self.blocks[self.current];
        assert!(blk.term.is_none(), "block already terminated");
        blk.term = Some(term);
    }

    /// Finishes the function; unterminated blocks become `ret void`.
    pub fn finish(self) -> Function {
        let blocks = self
            .blocks
            .into_iter()
            .map(|b| Block {
                insts: b.insts,
                term: b.term.unwrap_or(Terminator::Ret(None)),
            })
            .collect();
        Function {
            name: self.name,
            params: self.params,
            blocks,
            cfi_label: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Terminator;

    #[test]
    fn straight_line_function() {
        let mut b = FunctionBuilder::new("f", 2);
        let s = b.bin(BinOp::Add, b.param(0).into(), b.param(1).into());
        let f = b.ret(Some(s.into()));
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.params, 2);
        assert!(matches!(f.blocks[0].term, Terminator::Ret(Some(_))));
    }

    #[test]
    fn multi_block_branch() {
        let mut b = FunctionBuilder::new("abs_ish", 1);
        let neg = b.new_block();
        let pos = b.new_block();
        let cond = b.bin(BinOp::Lts, b.param(0).into(), 0.into());
        b.br(cond.into(), neg, pos);
        b.switch_to(neg);
        let zero_minus = b.bin(BinOp::Sub, 0.into(), b.param(0).into());
        b.terminate(Terminator::Ret(Some(zero_minus.into())));
        b.switch_to(pos);
        b.terminate(Terminator::Ret(Some(b.param(0).into())));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 3);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_panics() {
        let mut b = FunctionBuilder::new("f", 0);
        b.terminate(Terminator::Ret(None));
        b.terminate(Terminator::Ret(None));
    }

    #[test]
    fn fresh_registers_do_not_collide_with_params() {
        let mut b = FunctionBuilder::new("f", 3);
        let r = b.fresh();
        assert_eq!(r, VReg(3));
    }
}
