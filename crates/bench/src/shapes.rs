//! The benchmark shapes `vg-bench` records and checks.
//!
//! Two families: the descriptor-ring data-plane shapes (`BENCH_net.json`)
//! and the SMP scaling curves (`BENCH_smp.json`). Both report deterministic
//! simulated cycles. Everything here builds and runs workloads; timing
//! policy stays with the `vg-bench` binary.

// ---- net shapes: the descriptor-ring data plane -----------------------------

/// One network data-plane shape: the optimized configuration (event-loop
/// server on the descriptor ring) against the baseline (synchronous server
/// on the per-call reference path), measured in *simulated* cycles — fully
/// deterministic.
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
    use vg_kernel::{Mode, System};
    let sweep = |f: &dyn Fn(&mut System) -> smp::SmpBench| {
        SMP_CPU_COUNTS
            .map(|cpus| f(&mut System::boot_with_cpus(Mode::VirtualGhost, cpus)))
            .into()
    };

    let c10k = sweep(&|sys| smp::c10k_sharded_on(sys, SMP_SHARDS, 512, 8 * scale, 8));
    let pm_cfg = vg_apps::PostmarkConfig {
        base_files: 20,
        transactions: 40 * scale,
        ..Default::default()
    };
    let postmark = sweep(&|sys| smp::postmark_sharded_on(sys, SMP_SHARDS, &pm_cfg));
    let kv = sweep(&|sys| smp::kv_sharded_on(sys, SMP_SHARDS, 256, 4 * scale, 4));
    let mix = sweep(&|sys| smp::procmix_on(sys, SMP_SHARDS, 10 * scale));

    vec![
        SmpShapeResult::from_runs("thttpd_c10k", c10k),
        SmpShapeResult::from_runs("postmark", postmark),
        SmpShapeResult::from_runs("ghostkv", kv),
        SmpShapeResult::from_runs("lmbench_procmix", mix),
    ]
}
