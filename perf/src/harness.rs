//! One run of one workload: set-up timing, the unit loop with its
//! correctness gate, and the metrics. An untraced run gives the end-to-end
//! metrics; a traced run gives the per-layer ones.

use crate::calib;
use crate::spans::Spans;
use crate::workloads::{boot_system, Books, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use vg_machine::Domain;

/// How much one run does.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    /// Host seconds the timed units of an untraced run take at least.
    pub seconds: f64,
    /// Load divisor: 1 runs the benchmark's sizes, 16 the tests'.
    pub div: u32,
    /// Timed units an untraced run takes at least.
    pub min_units: usize,
    /// Boots timed for the set-up time.
    pub boots: usize,
    /// Untraced/traced unit pairs in a traced run (at least one per
    /// variant).
    pub traced_pairs: usize,
}

impl Settings {
    pub fn full(seed: u64, seconds: f64) -> Settings {
        Settings {
            seed,
            seconds,
            div: 1,
            min_units: 10,
            boots: 300,
            traced_pairs: 5,
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub started_unix_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed unit.
    pub failures: Vec<String>,
    /// Timed units behind the host-time medians.
    pub units: usize,
    /// Ops per unit / median unit time, without the drift correction.
    pub uncorrected_ops_per_host_s: f64,
    pub unit_ms_p50: f64,
    pub unit_ms_p90: f64,
    /// Every metric this run computes, by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-quantile of `xs` (NaN when empty).
fn percentile(xs: &mut [f64], p: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        return f64::NAN;
    }
    let rank = (p * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// The correctness gate. A unit fails when it panics (an app or output
/// check failed), when its simulated cycles differ from the first passing
/// unit's of the same variant, when a traced unit's books differ from the
/// first traced unit's of its variant, or when the MMU rejected a mapping.
struct Gate {
    workload: Workload,
    seed: u64,
    div: u32,
    ops: u64,
    /// Per variant: simulated cycles of the first passing unit.
    cycles: Vec<Option<u64>>,
    /// Per variant: books of the first passing traced unit.
    traced_books: Vec<Option<Books>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    fn new(w: Workload, s: &Settings) -> Gate {
        let variants = w.variants() as usize;
        Gate {
            workload: w,
            seed: s.seed,
            div: s.div,
            ops: w.ops(s.div),
            cycles: vec![None; variants],
            traced_books: vec![None; variants],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Runs unit number `i` (label `label`) and returns its host seconds
    /// if it passed.
    fn unit(&mut self, i: usize, label: &str, traced: bool, spans: &mut Spans) -> Option<f64> {
        let (w, seed, div) = (self.workload, self.seed, self.div);
        let variant = i % self.cycles.len();
        self.attempted += self.ops;
        let unit = spans.begin("unit");
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            w.run_unit(seed, variant as u64, div, traced, spans)
        }));
        let secs = start.elapsed().as_secs_f64();
        spans.end(unit);
        let verdict = match result {
            Err(panic) => Err(panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panicked".to_string())),
            Ok(books) => self.check(variant, books, traced),
        };
        match verdict {
            Ok(()) => Some(secs),
            Err(why) => {
                self.failed += self.ops;
                self.failures
                    .push(format!("{} unit {label}: {why}", w.name()));
                None
            }
        }
    }

    fn check(&mut self, variant: usize, books: Books, traced: bool) -> Result<(), String> {
        let rejections = books.counts.get("mmu_rejections").copied().unwrap_or(0);
        if rejections != 0 {
            return Err(format!("the MMU rejected {rejections} mappings"));
        }
        let first = *self.cycles[variant].get_or_insert(books.sim_cycles);
        if books.sim_cycles != first {
            return Err(format!(
                "simulated cycles {} differ from the first unit's {first}",
                books.sim_cycles
            ));
        }
        if traced {
            let reference = self.traced_books[variant].get_or_insert_with(|| books.clone());
            if *reference != books {
                return Err(
                    "traced counters or profile differ from the first traced unit's".into(),
                );
            }
        }
        Ok(())
    }
}

/// Runs `w` once: an untraced run when `traced` is false, else a traced
/// run. Spans go to `spans` (only a traced run records any). Unit `i` runs
/// variant `i % w.variants()`, and a run covers every variant equally.
pub fn run(w: Workload, s: &Settings, traced: bool, spans: &mut Spans) -> Report {
    let started_unix_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    let variants = w.variants() as usize;
    let ops = w.ops(s.div);
    let mut gate = Gate::new(w, s);
    let mut off = Spans::new(false);
    let run_span = spans.begin(w.name());
    let mut metrics = BTreeMap::new();
    let mut times = Vec::new();
    if traced {
        gate.unit(0, "warm-up", false, &mut off);
        let mut traced_times = Vec::new();
        for i in 0..s.traced_pairs.max(variants) {
            times.extend(gate.unit(i, &format!("{i} (untraced)"), false, &mut off));
            traced_times.extend(gate.unit(i, &format!("{i} (traced)"), true, spans));
        }
        let probes = spans.begin("probes");
        let probed = catch_unwind(AssertUnwindSafe(|| crate::probes::run_all(s.div, spans)));
        spans.end(probes);
        match probed {
            Ok(values) => metrics.extend(values.into_iter().map(|(k, v)| (k.to_string(), v))),
            Err(_) => {
                gate.failed += 1;
                gate.attempted += 1;
                gate.failures.push(format!("{} probes panicked", w.name()));
            }
        }
        let mut books = Books::default();
        for b in gate.traced_books.iter().flatten() {
            books.merge(b);
        }
        metrics.extend(layer_metrics(&books, ops * variants as u64));
        metrics.insert(
            "harness.trace_overhead_x".into(),
            median(&mut traced_times) / median(&mut times),
        );
    } else {
        let setup_s = setup_seconds(w.cpus(), s.boots);
        gate.unit(0, "warm-up", false, &mut off);
        let mut drift = calib::Drift::start();
        let mut corrected = Vec::new();
        let start = Instant::now();
        let mut ran = 0;
        while ran < s.min_units || start.elapsed().as_secs_f64() < s.seconds || ran % variants != 0
        {
            let unit = gate.unit(ran, &ran.to_string(), false, &mut off);
            let k = drift.factor();
            if let Some(t) = unit {
                times.push(t);
                corrected.push(t * k);
            }
            ran += 1;
        }
        let cycles: u64 = gate.cycles.iter().flatten().sum();
        let ops_run = (ops * variants as u64) as f64;
        metrics.insert("ops_per_host_s".into(), ops as f64 / median(&mut corrected));
        metrics.insert("setup_s".into(), setup_s);
        metrics.insert("peak_rss_mb".into(), peak_rss_mb());
        metrics.insert(
            "sim_kcycles_per_op".into(),
            cycles as f64 / ops_run / 1000.0,
        );
    }
    spans.end(run_span);
    Report {
        workload: w,
        seed: s.seed,
        traced,
        started_unix_s,
        attempted: gate.attempted,
        failed: gate.failed,
        failures: gate.failures,
        units: times.len(),
        uncorrected_ops_per_host_s: ops as f64 / median(&mut times),
        unit_ms_p50: median(&mut times) * 1e3,
        unit_ms_p90: percentile(&mut times, 0.9) * 1e3,
        metrics,
    }
}

/// Boots per set-up sample: one calibration run brackets each batch.
const BOOT_BATCH: usize = 10;

/// Median reference seconds of one standalone boot (and drop) of the
/// system under study with `cpus` cores, over `boots` boots timed in
/// drift-corrected batches.
fn setup_seconds(cpus: usize, boots: usize) -> f64 {
    drop(boot_system(cpus));
    let mut drift = calib::Drift::start();
    let mut secs: Vec<f64> = (0..boots.div_ceil(BOOT_BATCH))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..BOOT_BATCH {
                drop(std::hint::black_box(boot_system(cpus)));
            }
            let t = start.elapsed().as_secs_f64() / BOOT_BATCH as f64;
            t * drift.factor()
        })
        .collect();
    median(&mut secs)
}

/// This process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status (Linux)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Per-layer metrics from the traced units' books (one unit per variant),
/// which cover `ops` ops. Rows a workload cannot observe read 0:
/// `smp::c10k_sharded` boots and owns its `System`, so `c10k_smp4` has
/// only the
/// SMP rows.
fn layer_metrics(b: &Books, ops: u64) -> BTreeMap<String, f64> {
    let ops = ops as f64;
    let count = |k: &str| b.counts.get(k).copied().unwrap_or(0) as f64;
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let mut m = BTreeMap::new();
    for (name, counter) in [
        ("kernel.syscalls_per_op", "syscalls"),
        ("core.traps_per_op", "traps"),
        ("kernel.page_faults_per_op", "page_faults"),
        ("core.pte_updates_per_op", "pte_updates"),
        ("machine.bytes_copied_per_op", "bytes_copied"),
        ("machine.disk_blocks_per_op", "disk_blocks"),
        ("machine.packets_per_op", "packets"),
        ("core.ghost_pages_per_op", "ghost_pages"),
        ("kernel.context_switches_per_op", "context_switches"),
    ] {
        m.insert(name.to_string(), count(counter) / ops);
    }
    let (hits, misses) = (count("tlb_hits"), count("tlb_misses"));
    m.insert(
        "core.ring_descs_per_doorbell".into(),
        ratio(count("ring_descs"), count("ring_doorbells")),
    );
    m.insert("machine.tlb_hit_ratio".into(), ratio(hits, hits + misses));
    m.insert("core.mmu_rejections".into(), count("mmu_rejections"));
    m.insert("machine.ipis_per_kop".into(), b.ipis as f64 * 1000.0 / ops);
    m.insert("kernel.sched_steals".into(), b.steals as f64);
    m.insert(
        "kernel.smp_efficiency".into(),
        ratio(b.total_cycles as f64, (b.horizon_cycles * b.cpus) as f64),
    );
    let profiled: u64 = b.domains.values().sum();
    for d in Domain::ALL {
        let cycles = b.domains.get(d.key()).copied().unwrap_or(0);
        m.insert(
            format!("profile.{}_share", d.key()),
            ratio(cycles as f64, profiled as f64),
        );
    }
    m
}
