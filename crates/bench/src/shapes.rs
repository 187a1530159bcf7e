//! The benchmark shapes `vg-bench` records and checks.
//!
//! Three families: the interpreter-engine shapes (timed under both IR
//! engines for `BENCH_interp.json`), the descriptor-ring data-plane shapes
//! (`BENCH_net.json`) and the SMP scaling curves (`BENCH_smp.json`). The
//! last two report deterministic simulated cycles. Everything here builds
//! and runs workloads; timing policy stays with the `vg-bench` binary.

use vg_ir::interp::{HostError, Pair};
use vg_ir::{BinOp, Engine};

/// A realistically sized callee: the hot path is add-and-return, and a cold
/// error-handling block (never executed) gives the body the footprint real
/// functions have. The reference engine re-derives the register count from
/// the whole body on every activation; the fused engine pre-computes it.
fn engine_leaf(m: &mut vg_ir::Module) {
    use vg_ir::{FunctionBuilder, Terminator};
    let mut leaf = FunctionBuilder::new("leaf", 2);
    let s = leaf.bin(BinOp::Add, leaf.param(0).into(), leaf.param(1).into());
    leaf.terminate(Terminator::Ret(Some(s.into())));
    let cold = leaf.new_block();
    leaf.switch_to(cold);
    let mut t = leaf.mov(0.into());
    for k in 0..24i64 {
        t = leaf.bin(BinOp::Xor, t.into(), k.into());
    }
    m.push_function(leaf.ret(Some(t.into())));
}

/// Shared skeleton: `main(target, n)` iterates `n` times over a straight-line
/// body of `unroll` chained ops produced by `body(prev, i)`, returning the
/// final value. Unrolling keeps the loop bookkeeping out of the measurement.
fn loop_module(
    name: &str,
    unroll: usize,
    mut body: impl FnMut(&mut vg_ir::FunctionBuilder, vg_ir::VReg, vg_ir::VReg) -> vg_ir::VReg,
) -> vg_ir::Module {
    use vg_ir::FunctionBuilder;
    let mut m = vg_ir::Module::new(name);
    engine_leaf(&mut m);

    let mut b = FunctionBuilder::new("main", 2);
    let i = b.mov(0.into());
    let acc = b.mov(0.into());
    let loop_blk = b.new_block();
    let body_blk = b.new_block();
    let done_blk = b.new_block();
    b.jmp(loop_blk);
    b.switch_to(loop_blk);
    let cond = b.bin(BinOp::Lts, i.into(), b.param(1).into());
    b.br(cond.into(), body_blk, done_blk);
    b.switch_to(body_blk);
    let mut v = acc;
    for _ in 0..unroll {
        v = body(&mut b, v, i);
    }
    b.mov_to(acc, v.into());
    let i2 = b.bin(BinOp::Add, i.into(), 1.into());
    b.mov_to(i, i2.into());
    b.jmp(loop_blk);
    b.switch_to(done_blk);
    m.push_function(b.ret(Some(acc.into())));
    m
}

/// Background population for the code registry, so indirect-call resolution
/// works against a realistically sized address map rather than two entries.
fn filler_module(j: usize) -> vg_ir::Module {
    use vg_ir::FunctionBuilder;
    let mut m = vg_ir::Module::new(format!("filler-{j}"));
    for k in 0..4 {
        let mut f = FunctionBuilder::new(format!("f{k}"), 1);
        let s = f.bin(BinOp::Add, f.param(0).into(), 1.into());
        m.push_function(f.ret(Some(s.into())));
    }
    m
}

/// The host API surface the extern shape exercises: eight distinct
/// two-operand services, the way module code calls several kernel APIs.
#[derive(Clone, Copy)]
enum BenchOp {
    Add,
    Sub,
    Xor,
    And,
    Or,
    Mul,
    Min,
    Max,
}

const BENCH_API: [(&str, BenchOp); 8] = [
    ("bench.add", BenchOp::Add),
    ("bench.sub", BenchOp::Sub),
    ("bench.xor", BenchOp::Xor),
    ("bench.and", BenchOp::And),
    ("bench.lor", BenchOp::Or),
    ("bench.mul", BenchOp::Mul),
    ("bench.min", BenchOp::Min),
    ("bench.max", BenchOp::Max),
];

impl BenchOp {
    fn from_name(name: &str) -> Option<Self> {
        BENCH_API
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, op)| op)
    }
    #[inline(always)]
    fn apply(self, args: &[i64]) -> i64 {
        let a = args.first().copied().unwrap_or(0);
        let b = args.get(1).copied().unwrap_or(0);
        match self {
            BenchOp::Add => a.wrapping_add(b),
            BenchOp::Sub => a.wrapping_sub(b),
            BenchOp::Xor => a ^ b,
            BenchOp::And => a & b,
            BenchOp::Or => a | b,
            BenchOp::Mul => a.wrapping_mul(b),
            BenchOp::Min => a.min(b),
            BenchOp::Max => a.max(b),
        }
    }
}

/// A host with the same dispatch structure as the kernel's `KernelCtx`:
/// the string path resolves the name per call (as the kernel did before
/// interning), the id path indexes a dense table built once from the
/// registry's interner.
pub struct BenchHost {
    tab: Vec<Option<BenchOp>>,
}

impl BenchHost {
    /// Builds the dense id → op table for `registry`.
    pub fn for_registry(registry: &vg_ir::CodeRegistry) -> Self {
        let tab = (0..registry.extern_count() as u32)
            .map(|i| registry.extern_name(i).and_then(BenchOp::from_name))
            .collect();
        BenchHost { tab }
    }
}

impl vg_ir::ExternHost for BenchHost {
    fn call_extern(&mut self, name: &str, args: &[i64]) -> Result<i64, HostError> {
        match BenchOp::from_name(name) {
            Some(op) => Ok(op.apply(args)),
            None => Err(HostError::Unknown),
        }
    }
    #[inline(always)]
    fn call_extern_id(&mut self, id: u32, name: &str, args: &[i64]) -> Result<i64, HostError> {
        match self.tab.get(id as usize).copied().flatten() {
            Some(op) => Ok(op.apply(args)),
            None => self.call_extern(name, args),
        }
    }
}

/// One engine benchmark shape, registered and ready to run: the module sits
/// in a registry alongside 24 filler modules (realistic address map), with
/// the entry and leaf addresses resolved.
pub struct PreparedShape {
    /// Shape key as recorded in `BENCH_interp.json` (`arith_loop`, …).
    pub name: &'static str,
    /// Loop trip count the baselines were recorded with.
    pub iters: i64,
    /// Registry holding the shape plus filler modules.
    pub registry: vg_ir::CodeRegistry,
    /// Address of `main(target, n)`.
    pub entry: vg_ir::CodeAddr,
    /// Address of the two-argument `leaf` callee (passed as `target`).
    pub leaf: vg_ir::CodeAddr,
}

impl PreparedShape {
    /// Runs the shape once under `engine` and returns the result value.
    /// Callers measuring wall-clock should hoist interpreter construction
    /// out of their timing loop (as `vg-bench` does); this convenience
    /// constructs everything per call.
    pub fn run_once(&self, engine: Engine) -> i64 {
        let mut interp = vg_ir::Interp::new(&self.registry)
            .with_engine(engine)
            .with_fuel(u64::MAX);
        let mut mem = vg_ir::interp::FlatMem::new(64);
        let mut host = BenchHost::for_registry(&self.registry);
        let mut env = Pair {
            mem: &mut mem,
            host: &mut host,
        };
        interp
            .run(self.entry, &[self.leaf.0 as i64, self.iters], &mut env)
            .expect("benchmark shape runs clean")
    }
}

/// The four hot shapes from the paper's workloads, in `BENCH_interp.json`
/// order: tight ALU loop, direct-call-heavy, extern-heavy, and
/// indirect-call-heavy with the CFI pass applied.
pub fn prepared_shapes() -> Vec<PreparedShape> {
    // Tight arithmetic loop: eight ALU ops per iteration, no calls.
    let arith = loop_module("bench-arith", 1, |b, acc, i| {
        let t = b.bin(BinOp::Add, acc.into(), i.into());
        let t = b.bin(BinOp::Xor, t.into(), 0x5a.into());
        let t = b.bin(BinOp::Mul, t.into(), 3.into());
        let t = b.bin(BinOp::And, t.into(), 0xffff.into());
        let t = b.bin(BinOp::Or, t.into(), 1.into());
        let t = b.bin(BinOp::Shl, t.into(), 1.into());
        let t = b.bin(BinOp::Shr, t.into(), 1.into());
        b.bin(BinOp::Sub, t.into(), i.into())
    });
    // Direct-call-heavy: straight-line runs of two-argument calls.
    let calls = loop_module("bench-calls", 32, |b, v, i| {
        b.call(0, &[v.into(), i.into()])
    });
    // Extern-heavy: straight-line runs of host calls across the API surface.
    let mut k = 0usize;
    let externs = loop_module("bench-externs", 32, move |b, v, i| {
        let name = BENCH_API[k % BENCH_API.len()].0;
        k += 1;
        b.ext(name, &[v.into(), i.into()])
    });
    // Indirect+CFI-heavy: straight-line runs of indirect calls through the
    // address in arg 0; the CFI pass inserts a label check before each.
    let mut indirect = loop_module("bench-indirect", 32, |b, v, i| {
        b.call_indirect(b.param(0).into(), &[v.into(), i.into()])
    });
    vg_ir::passes::cfi::run(&mut indirect);

    [
        ("arith_loop", arith, 1000i64),
        ("call_heavy", calls, 50),
        ("extern_heavy", externs, 50),
        ("indirect_cfi_heavy", indirect, 50),
    ]
    .into_iter()
    .map(|(name, module, iters)| {
        let mut registry = vg_ir::CodeRegistry::new();
        for j in 0..24 {
            registry.register_module(filler_module(j), vg_ir::registry::CodeSpace::Kernel);
        }
        let h = registry.register_module(module, vg_ir::registry::CodeSpace::Kernel);
        let entry = registry.addr_of(h, "main").unwrap();
        let leaf = registry.addr_of(h, "leaf").unwrap();
        PreparedShape {
            name,
            iters,
            registry,
            entry,
            leaf,
        }
    })
    .collect()
}

// ---- net shapes: the descriptor-ring data plane -----------------------------

/// One network data-plane shape: the optimized configuration (event-loop
/// server on the descriptor ring) against the baseline (synchronous server
/// on the per-call reference path), measured in *simulated* cycles — fully
/// deterministic, unlike the wall-clock engine shapes above.
pub struct NetShapeResult {
    /// Shape key as recorded in `BENCH_net.json` (`thttpd_c10k`, `ghostkv`).
    pub name: &'static str,
    /// Concurrent connections driven.
    pub conns: u32,
    /// Event-loop + ring run.
    pub optimized: vg_apps::thttpd::C10kBench,
    /// Reference run (synchronous server for thttpd; same event-loop server
    /// on the per-call data plane for ghostkv).
    pub baseline: vg_apps::thttpd::C10kBench,
}

impl NetShapeResult {
    /// Requests-per-megacycle gain of the optimized configuration — the
    /// ratio `vg-bench` records as `BENCH_net.json`'s `shapes.*.speedup`.
    pub fn speedup(&self) -> f64 {
        self.optimized.req_per_megacycle / self.baseline.req_per_megacycle
    }
    /// CPU cycles per request, optimized side.
    pub fn optimized_cycles_per_req(&self) -> f64 {
        self.optimized.cpu_cycles as f64 / self.optimized.requests as f64
    }
    /// CPU cycles per request, baseline side.
    pub fn baseline_cycles_per_req(&self) -> f64 {
        self.baseline.cpu_cycles as f64 / self.baseline.requests as f64
    }
}

/// Runs both net shapes at `conns` concurrent connections on Virtual Ghost
/// systems (C10K: 8 pipelined keep-alive requests per connection for a
/// 512-byte document; ghostkv: 4 SET/GET pairs of 256-byte values).
pub fn net_shapes(conns: u32) -> Vec<NetShapeResult> {
    use vg_apps::{ghostkv, thttpd};
    use vg_kernel::{Mode, NetMode, System};

    let mut ring = System::boot(Mode::VirtualGhost);
    ring.net_mode = NetMode::Ring;
    let event = thttpd::c10k(&mut ring, 512, conns, 8, thttpd::ServerKind::EventLoop);
    let mut reference = System::boot(Mode::VirtualGhost);
    reference.net_mode = NetMode::Reference;
    let sync = thttpd::c10k(&mut reference, 512, conns, 8, thttpd::ServerKind::Sync);

    let mut kv_ring = System::boot(Mode::VirtualGhost);
    kv_ring.net_mode = NetMode::Ring;
    let kv_opt = ghostkv::kv_load(&mut kv_ring, 256, conns, 4);
    let mut kv_ref = System::boot(Mode::VirtualGhost);
    kv_ref.net_mode = NetMode::Reference;
    let kv_base = ghostkv::kv_load(&mut kv_ref, 256, conns, 4);

    vec![
        NetShapeResult {
            name: "thttpd_c10k",
            conns,
            optimized: event,
            baseline: sync,
        },
        NetShapeResult {
            name: "ghostkv",
            conns,
            optimized: kv_opt,
            baseline: kv_base,
        },
    ]
}

// ---- smp shapes: scaling across simulated cores -----------------------------

/// Cpu counts every scaling curve is sampled at.
pub const SMP_CPU_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Shards per workload: constant across cpu counts so every point on a
/// curve runs identical work.
pub const SMP_SHARDS: usize = 8;

/// One point on a scaling curve: the sharded run at one cpu count plus its
/// speedup over the 1-core run and the per-core efficiency.
pub struct SmpScalePoint {
    /// The sharded run's books at this cpu count.
    pub bench: vg_apps::smp::SmpBench,
    /// `horizon(1 cpu) / horizon(n cpus)` — the scaling headline.
    pub speedup: f64,
    /// `speedup / cpus` — fraction of perfect linear scaling.
    pub efficiency: f64,
}

/// One workload's scaling curve over [`SMP_CPU_COUNTS`].
pub struct SmpShapeResult {
    /// Shape key as recorded in `BENCH_smp.json` (`thttpd_c10k`,
    /// `postmark`, `ghostkv`, `lmbench_procmix`).
    pub name: &'static str,
    /// Shards the workload was split into (constant across points).
    pub shards: usize,
    /// One point per entry of [`SMP_CPU_COUNTS`], in order.
    pub points: Vec<SmpScalePoint>,
}

impl SmpShapeResult {
    fn from_runs(name: &'static str, runs: Vec<vg_apps::smp::SmpBench>) -> Self {
        let uni = runs[0].horizon_cycles as f64;
        let shards = runs[0].shards;
        let points = runs
            .into_iter()
            .map(|bench| {
                let speedup = uni / bench.horizon_cycles as f64;
                let efficiency = speedup / bench.cpus as f64;
                SmpScalePoint {
                    bench,
                    speedup,
                    efficiency,
                }
            })
            .collect();
        SmpShapeResult {
            name,
            shards,
            points,
        }
    }

    /// The point measured at `cpus`, panicking if the curve lacks it.
    pub fn at(&self, cpus: usize) -> &SmpScalePoint {
        self.points
            .iter()
            .find(|p| p.bench.cpus == cpus)
            .expect("cpu count sampled")
    }
}

/// Runs all four SMP scaling curves at load multiplier `scale` (`vg-bench`
/// uses `BENCH_smp.json`'s `methodology.scale`). Every workload keeps
/// [`SMP_SHARDS`] shards while the cpu count sweeps [`SMP_CPU_COUNTS`];
/// all cycle numbers are deterministic simulated time.
pub fn smp_shapes(scale: u32) -> Vec<SmpShapeResult> {
    use vg_apps::smp;
    let sweep = |f: &dyn Fn(usize) -> smp::SmpBench| SMP_CPU_COUNTS.map(f).into();

    let c10k = sweep(&|cpus| smp::c10k_sharded(cpus, SMP_SHARDS, 512, 8 * scale, 8));
    let pm_cfg = vg_apps::PostmarkConfig {
        base_files: 20,
        transactions: 40 * scale,
        ..Default::default()
    };
    let postmark = sweep(&|cpus| smp::postmark_sharded(cpus, SMP_SHARDS, &pm_cfg));
    let kv = sweep(&|cpus| smp::kv_sharded(cpus, SMP_SHARDS, 256, 4 * scale, 4));
    let mix = sweep(&|cpus| smp::procmix(cpus, SMP_SHARDS, 10 * scale));

    vec![
        SmpShapeResult::from_runs("thttpd_c10k", c10k),
        SmpShapeResult::from_runs("postmark", postmark),
        SmpShapeResult::from_runs("ghostkv", kv),
        SmpShapeResult::from_runs("lmbench_procmix", mix),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_engines_agree_on_every_shape() {
        for shape in prepared_shapes() {
            let fused = shape.run_once(Engine::Fused);
            let reference = shape.run_once(Engine::Reference);
            assert_eq!(fused, reference, "{}", shape.name);
        }
    }
}
