//! Pins of the interpreter's observable semantics.
//!
//! `vg-ir` once had a second, fused execution engine, and these tests
//! checked it against the tree-walker. The walker is now the only engine,
//! and each test pins the exact result, fault, [`InterpStats`] and
//! remaining fuel both engines produced when they still agreed. The
//! property test runs generated multi-function programs (loops, direct and
//! indirect calls, CFI checks, extern calls) at randomized fuel and depth
//! limits: no run may panic the host, every run charges exactly one unit of
//! fuel per counted instruction, and a repeat run is identical in result,
//! stats, fuel, memory and host calls.

use proptest::prelude::*;
use vg_ir::inst::{
    BinOp, Block, BlockId, Function, Inst, Module, Operand, Terminator, VReg, Width,
};
use vg_ir::interp::{ExternHost, FlatMem, HostError, InterpStats, Pair};
use vg_ir::registry::CodeSpace;
use vg_ir::{CodeRegistry, FunctionBuilder, Interp, InterpFault};

const MEM_SIZE: usize = 4096;
const NREGS: u32 = 6;
const NFUNCS: u32 = 3;
const NBLOCKS: u32 = 3;
const LABEL: u32 = 7;

/// A host with a couple of known functions.
#[derive(Default)]
struct TestHost {
    calls: u64,
}

impl ExternHost for TestHost {
    fn call_extern(&mut self, name: &str, args: &[i64]) -> Result<i64, HostError> {
        self.calls += 1;
        match name {
            "test.add" => Ok(args.iter().copied().fold(0i64, i64::wrapping_add)),
            "test.neg" => Ok(args.first().map_or(0, |a| a.wrapping_neg())),
            "test.fail" => Err(HostError::Failed("deliberate".into())),
            _ => Err(HostError::Unknown),
        }
    }
}

fn gen_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        (0u32..NREGS).prop_map(|r| Operand::Reg(VReg(r))),
        any::<i16>().prop_map(|v| Operand::Imm(v as i64)),
        // Bounded user addresses so loads/stores sometimes succeed.
        (0i64..MEM_SIZE as i64 - 8).prop_map(Operand::Imm),
    ]
}

fn gen_dst() -> impl Strategy<Value = Option<VReg>> {
    prop_oneof![Just(None), (0u32..NREGS).prop_map(|r| Some(VReg(r)))]
}

fn gen_width() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::W1),
        Just(Width::W2),
        Just(Width::W4),
        Just(Width::W8)
    ]
}

fn gen_args() -> impl Strategy<Value = Vec<Operand>> {
    proptest::collection::vec(gen_operand(), 0..3)
}

fn gen_inst() -> impl Strategy<Value = Inst> {
    let op = prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Ltu),
        Just(BinOp::Lts),
    ];
    prop_oneof![
        (op, 0u32..NREGS, gen_operand(), gen_operand()).prop_map(|(op, d, l, r)| Inst::Bin {
            op,
            dst: VReg(d),
            lhs: l,
            rhs: r,
        }),
        (0u32..NREGS, gen_operand()).prop_map(|(d, s)| Inst::Mov {
            dst: VReg(d),
            src: s
        }),
        (0u32..NREGS, gen_operand(), gen_width()).prop_map(|(d, a, w)| Inst::Load {
            dst: VReg(d),
            addr: a,
            width: w,
        }),
        (0u32..NREGS, gen_operand(), gen_width()).prop_map(|(s, a, w)| Inst::Store {
            src: Operand::Reg(VReg(s)),
            addr: a,
            width: w,
        }),
        (0i64..1024, 2048i64..3072, 0i64..64).prop_map(|(s, d, n)| Inst::Memcpy {
            dst: Operand::Imm(d),
            src: Operand::Imm(s),
            len: Operand::Imm(n),
        }),
        (gen_dst(), 0u32..NFUNCS, gen_args()).prop_map(|(dst, callee, args)| Inst::Call {
            dst,
            callee,
            args,
        }),
        (gen_dst(), gen_operand(), gen_args())
            .prop_map(|(dst, target, args)| { Inst::CallIndirect { dst, target, args } }),
        (
            gen_dst(),
            prop_oneof![
                Just("test.add"),
                Just("test.neg"),
                Just("test.fail"),
                Just("test.missing")
            ],
            gen_args()
        )
            .prop_map(|(dst, name, args)| Inst::Extern {
                dst,
                name: name.to_string(),
                args,
            }),
        (0u32..NREGS, gen_operand()).prop_map(|(d, s)| Inst::MaskGhost {
            dst: VReg(d),
            src: s
        }),
        (0u32..NREGS, gen_operand()).prop_map(|(d, s)| Inst::ZeroSva {
            dst: VReg(d),
            src: s
        }),
        (gen_operand(), LABEL - 1..LABEL + 2).prop_map(|(t, l)| Inst::CfiCheck {
            target: t,
            expected_label: l,
        }),
    ]
}

fn gen_terminator() -> impl Strategy<Value = Terminator> {
    prop_oneof![
        (0u32..NBLOCKS).prop_map(|b| Terminator::Jmp(BlockId(b))),
        (0u32..NREGS, 0u32..NBLOCKS, 0u32..NBLOCKS).prop_map(|(c, t, e)| Terminator::Br {
            cond: Operand::Reg(VReg(c)),
            then_blk: BlockId(t),
            else_blk: BlockId(e),
        }),
        Just(Terminator::Ret(None)),
        gen_operand().prop_map(|o| Terminator::Ret(Some(o))),
    ]
}

/// A function of [`NBLOCKS`] blocks. Every block carries at least one
/// (fuel-charging) instruction, so any control-flow cycle burns fuel and the
/// fuel budget bounds execution.
fn gen_function(name: &'static str) -> impl Strategy<Value = Function> {
    let block = (
        proptest::collection::vec(gen_inst(), 1..5),
        gen_terminator(),
    )
        .prop_map(|(insts, term)| Block { insts, term });
    proptest::collection::vec(block, NBLOCKS as usize..NBLOCKS as usize + 1).prop_map(
        move |mut blocks| {
            // The last block always returns, so at least one exit exists.
            blocks.last_mut().expect("nonempty").term = Terminator::Ret(None);
            Function {
                name: name.to_string(),
                params: 2,
                blocks,
                cfi_label: Some(LABEL),
            }
        },
    )
}

fn gen_module() -> impl Strategy<Value = Module> {
    (gen_function("f0"), gen_function("f1"), gen_function("f2")).prop_map(|(f0, f1, f2)| {
        let mut m = Module::new("gen");
        m.push_function(f0);
        m.push_function(f1);
        m.push_function(f2);
        m
    })
}

/// Full observable outcome of one run.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    result: Result<i64, InterpFault>,
    stats: InterpStats,
    fuel_left: u64,
    mem: Vec<u8>,
    host_calls: u64,
}

fn run(
    reg: &CodeRegistry,
    entry: vg_ir::CodeAddr,
    args: &[i64],
    fuel: u64,
    max_depth: usize,
) -> Outcome {
    let mut interp = Interp::new(reg).with_fuel(fuel).with_max_depth(max_depth);
    let mut mem = FlatMem::new(MEM_SIZE);
    let mut host = TestHost::default();
    let result = interp.run(
        entry,
        args,
        &mut Pair {
            mem: &mut mem,
            host: &mut host,
        },
    );
    Outcome {
        result,
        stats: interp.stats,
        fuel_left: interp.fuel_remaining(),
        mem: mem.bytes,
        host_calls: host.calls,
    }
}

/// Stats of a run that executed `insts` instructions and nothing else
/// countable.
fn insts_only(insts: u64) -> InterpStats {
    InterpStats {
        insts,
        ..InterpStats::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary programs, fuel budgets and depth limits: the host never
    /// panics, fuel is spent exactly once per counted instruction, and a
    /// second run from the same start is identical in every observable.
    #[test]
    fn generated_programs_never_panic_and_repeat_exactly(
        m in gen_module(),
        fuel in prop_oneof![Just(0u64), 1u64..60, 1000u64..10_000],
        max_depth in prop_oneof![Just(0usize), 1usize..6, Just(128usize)],
        a0 in any::<i16>(),
    ) {
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(m, CodeSpace::Kernel);
        let entry = reg.addr_of(h, "f0").expect("registered");
        // Arg 0 is a *valid* code address, so indirect calls and CFI checks
        // through register 0 sometimes succeed instead of always faulting.
        let args = [entry.0 as i64, a0 as i64];
        let first = run(&reg, entry, &args, fuel, max_depth);
        prop_assert_eq!(first.stats.insts + first.fuel_left, fuel);
        if first.result == Err(InterpFault::OutOfFuel) {
            prop_assert_eq!(first.fuel_left, 0);
        }
        let again = run(&reg, entry, &args, fuel, max_depth);
        prop_assert_eq!(&again, &first);
    }

    /// Shift counts at and beyond 64, and negative counts, are taken mod 64
    /// (x86-64 semantics) at the cost of one instruction.
    #[test]
    fn shift_semantics_agree(
        a in any::<i64>(),
        count in prop_oneof![
            any::<i64>(),
            // Weight the interesting boundary region: 0..=130 and negatives.
            0i64..131,
            -130i64..0,
            Just(63i64), Just(64i64), Just(65i64), Just(-1i64), Just(i64::MIN),
        ],
        shr in any::<bool>(),
    ) {
        let op = if shr { BinOp::Shr } else { BinOp::Shl };
        let mut m = Module::new("shift");
        let mut b = FunctionBuilder::new("f0", 2);
        let v = b.bin(op, b.param(0).into(), b.param(1).into());
        m.push_function(b.ret(Some(v.into())));
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(m, CodeSpace::Kernel);
        let entry = reg.addr_of(h, "f0").expect("registered");
        let out = run(&reg, entry, &[a, count], 100, 4);
        let expect = if shr {
            ((a as u64) >> ((count as u32) & 63)) as i64
        } else {
            a.wrapping_shl((count as u32) & 63)
        };
        prop_assert_eq!(out.result, Ok(expect));
        prop_assert_eq!(out.stats, InterpStats { returns: 1, ..insts_only(1) });
        prop_assert_eq!(out.fuel_left, 99);
    }
}

/// Helper: a module whose `spin` function loops forever doing one add per
/// iteration and whose `rec` function recurses forever.
fn limits_module() -> Module {
    let mut m = Module::new("limits");
    let mut b = FunctionBuilder::new("spin", 0);
    let blk = b.new_block();
    b.jmp(blk);
    b.switch_to(blk);
    b.bin(BinOp::Add, 1.into(), 2.into());
    b.jmp(blk);
    m.push_function(b.finish());
    let mut r = FunctionBuilder::new("rec", 0);
    r.call(1, &[]);
    m.push_function(r.ret(None));
    m
}

/// `OutOfFuel` lands after exactly `fuel` instructions for every budget,
/// with nothing else counted and no fuel left.
#[test]
fn equal_out_of_fuel_points() {
    let mut reg = CodeRegistry::new();
    let h = reg.register_module(limits_module(), CodeSpace::Kernel);
    let entry = reg.addr_of(h, "spin").unwrap();
    for fuel in 0..64 {
        let r = run(&reg, entry, &[], fuel, 128);
        assert_eq!(r.result, Err(InterpFault::OutOfFuel), "fuel {fuel}");
        assert_eq!(r.stats, insts_only(fuel), "fuel {fuel}");
        assert_eq!(r.fuel_left, 0);
        assert_eq!(r.host_calls, 0);
        assert!(r.mem.iter().all(|&b| b == 0));
    }
}

/// Fuel runs out at the exact instruction index inside a straight line of
/// ALU ops, with the `masks` counter cut at the same point.
#[test]
fn out_of_fuel_mid_fused_sequence() {
    // 24 ALU ops in rounds of (add, mask, xor): mask ops sit at indices
    // 1, 4, 7, ..., so the first `k` ops hold (k + 1) / 3 of them.
    let mut m = Module::new("run");
    let mut b = FunctionBuilder::new("f", 1);
    let mut v = b.param(0);
    for k in 0..8i64 {
        v = b.bin(BinOp::Add, v.into(), k.into());
        let g = b.mask_ghost(v.into());
        v = b.bin(BinOp::Xor, v.into(), g.into());
    }
    m.push_function(b.ret(Some(v.into())));
    let mut reg = CodeRegistry::new();
    let h = reg.register_module(m, CodeSpace::Kernel);
    let entry = reg.addr_of(h, "f").unwrap();
    for fuel in 0..32 {
        let r = run(&reg, entry, &[7], fuel, 8);
        let k = fuel.min(24);
        let masks = (k + 1) / 3;
        if fuel < 24 {
            assert_eq!(r.result, Err(InterpFault::OutOfFuel), "fuel {fuel}");
            assert_eq!(
                r.stats,
                InterpStats {
                    masks,
                    ..insts_only(k)
                },
                "fuel {fuel}"
            );
        } else {
            assert_eq!(r.result, Ok(0), "fuel {fuel}");
            assert_eq!(
                r.stats,
                InterpStats {
                    masks,
                    returns: 1,
                    ..insts_only(24)
                },
                "fuel {fuel}"
            );
        }
        assert_eq!(r.fuel_left, fuel - k, "fuel {fuel}");
    }
}

/// `StackOverflow` lands at exactly `depth + 1` calls for every depth
/// limit: one call instruction per frame reaches the check.
#[test]
fn equal_stack_overflow_points() {
    let mut reg = CodeRegistry::new();
    let h = reg.register_module(limits_module(), CodeSpace::Kernel);
    let entry = reg.addr_of(h, "rec").unwrap();
    for depth in 0..32 {
        let r = run(&reg, entry, &[], 1_000_000, depth);
        let calls = depth as u64 + 1;
        assert_eq!(r.result, Err(InterpFault::StackOverflow), "depth {depth}");
        assert_eq!(r.stats, insts_only(calls), "depth {depth}");
        assert_eq!(r.fuel_left, 1_000_000 - calls, "depth {depth}");
    }
}

/// For every fault kind, the run stops at the faulting instruction with
/// its exact stats and the fuel of the instructions before it spent.
#[test]
fn fuel_writeback_agrees_on_every_fault_kind() {
    let faulting = |build: &dyn Fn(&mut FunctionBuilder)| {
        let mut m = Module::new("faults");
        let mut b = FunctionBuilder::new("f", 1);
        // Two charged instructions before the fault, so the pinned fuel
        // and instruction counts cover them too.
        let x = b.bin(BinOp::Add, b.param(0).into(), 1.into());
        b.bin(BinOp::Mul, x.into(), 3.into());
        build(&mut b);
        m.push_function(b.ret(None));
        m
    };
    let mem_fault =
        |addr: u64, write: bool| InterpFault::Mem(vg_ir::interp::MemFault { addr, write });
    let beyond = MEM_SIZE as i64 + 8;
    // (label, module, fault, stats, host calls); fuel left is 1000 - insts.
    let cases: Vec<(&str, Module, InterpFault, InterpStats, u64)> = vec![
        (
            "load_fault",
            faulting(&|b| {
                b.load(beyond.into(), Width::W8);
            }),
            mem_fault(beyond as u64, false),
            InterpStats {
                loads: 1,
                ..insts_only(3)
            },
            0,
        ),
        (
            "store_fault",
            faulting(&|b| {
                b.store(1.into(), beyond.into(), Width::W8);
            }),
            mem_fault(beyond as u64, true),
            InterpStats {
                stores: 1,
                ..insts_only(3)
            },
            0,
        ),
        (
            "memcpy_fault",
            faulting(&|b| {
                b.memcpy((MEM_SIZE as i64 - 4).into(), 0.into(), 64.into());
            }),
            mem_fault(MEM_SIZE as u64, true),
            InterpStats {
                memcpy_bytes: 64,
                ..insts_only(3)
            },
            0,
        ),
        (
            "cfi_violation",
            faulting(&|b| {
                let t = b.mov(0x1000.into());
                b.cfi_check(t.into(), LABEL);
            }),
            InterpFault::CfiViolation { target: 0x1000 },
            InterpStats {
                cfi_checks: 1,
                ..insts_only(4)
            },
            0,
        ),
        (
            "bad_indirect",
            faulting(&|b| {
                b.call_indirect(0x1000.into(), &[]);
            }),
            InterpFault::BadIndirect { target: 0x1000 },
            insts_only(3),
            0,
        ),
        (
            "unknown_extern",
            faulting(&|b| {
                b.ext("no.such.fn", &[]);
            }),
            InterpFault::UnknownExtern {
                name: "no.such.fn".into(),
            },
            InterpStats {
                extern_calls: 1,
                ..insts_only(3)
            },
            1,
        ),
        (
            "host_failed",
            faulting(&|b| {
                b.ext("test.fail", &[]);
            }),
            InterpFault::HostFailed {
                reason: "deliberate".into(),
            },
            InterpStats {
                extern_calls: 1,
                ..insts_only(3)
            },
            1,
        ),
    ];
    for (label, m, fault, stats, host_calls) in cases {
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(m, CodeSpace::Kernel);
        let entry = reg.addr_of(h, "f").unwrap();
        let r = run(&reg, entry, &[5], 1000, 8);
        assert_eq!(r.result, Err(fault), "{label}");
        assert_eq!(r.stats, stats, "{label}");
        assert_eq!(r.fuel_left, 1000 - stats.insts, "{label}");
        assert_eq!(r.host_calls, host_calls, "{label}");
        assert!(r.mem.iter().all(|&b| b == 0), "{label}");
    }
    // OutOfFuel and StackOverflow are covered exhaustively above.
}

/// A known extern runs, then `HostError::Unknown` from the next one
/// surfaces as an `UnknownExtern` fault naming it.
#[test]
fn unknown_extern_surfaces_identically() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("f", 0);
    b.ext("test.add", &[1.into(), 2.into()]);
    b.ext("definitely.not.a.host.fn", &[]);
    m.push_function(b.ret(None));
    let mut reg = CodeRegistry::new();
    let h = reg.register_module(m, CodeSpace::Kernel);
    let entry = reg.addr_of(h, "f").unwrap();
    let r = run(&reg, entry, &[], 1000, 128);
    assert_eq!(
        r.result,
        Err(InterpFault::UnknownExtern {
            name: "definitely.not.a.host.fn".into()
        })
    );
    assert_eq!(
        r.stats,
        InterpStats {
            extern_calls: 2,
            ..insts_only(2)
        }
    );
    assert_eq!(r.fuel_left, 998);
    assert_eq!(r.host_calls, 2);
}
