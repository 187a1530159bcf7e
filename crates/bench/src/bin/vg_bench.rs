//! Wall-clock regression gate for the simulator's own hot paths.
//!
//! Times the interpreter-engine shapes of `vg_bench::shapes` (this binary is
//! their only harness) and re-runs the `crypto_data_plane/` micro-benchmarks
//! (the same workloads the Criterion benches measure), and compares the
//! optimized-vs-baseline wall-clock *ratios* against the `gate_ratios`
//! sections of `BENCH_interp.json` and `BENCH_crypto.json` at the
//! repository root. Ratios, not absolute times: a ratio is far less
//! machine-dependent, so the gate works on any CI runner. The `gate_ratios`
//! values were themselves recorded with this binary (min-over-rounds
//! methodology below), so gate and baseline are methodology-consistent;
//! the Criterion-recorded sections of the same files are the human-readable
//! history and are not gated on.
//!
//! A shape fails when its measured speedup drops below `recorded / 1.25`
//! (a >25% regression of the optimization). On failure the full delta
//! report is printed and the process exits 1; otherwise 0.
//!
//! ```text
//! cargo run --release -p vg-bench --bin vg-bench
//! ```

use std::time::Instant;
use vg_bench::shapes::{prepared_shapes, BenchHost, PreparedShape};
use vg_crypto::aes::{Aes128, SealedBox};
use vg_crypto::hmac::HmacKey;
use vg_crypto::reference;
use vg_ir::interp::{FlatMem, Pair};
use vg_ir::Engine;

/// Checked-in baselines (compiled in, so the gate has no runtime paths).
const INTERP_JSON: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_interp.json"
));
const CRYPTO_JSON: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_crypto.json"
));
const NET_JSON: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json"));
const SMP_JSON: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_smp.json"));

/// Allowed relative drop of a recorded speedup before the gate fails.
const TOLERANCE: f64 = 1.25;

/// Extracts the number following `"key":` in the object that starts at the
/// first occurrence of `"section"` — enough JSON for our flat baseline
/// files, with no parser dependency. Returns `None` for missing keys and
/// non-numeric values (e.g. `null`).
fn json_number(doc: &str, section: &str, key: &str) -> Option<f64> {
    let sec = doc.find(&format!("\"{section}\""))?;
    let rest = &doc[sec..];
    let k = rest.find(&format!("\"{key}\""))?;
    let after = &rest[k..];
    let colon = after.find(':')?;
    let num = after[colon + 1..].trim_start();
    let end = num
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(num.len());
    num[..end].parse().ok()
}

/// Minimum mean-per-iteration microseconds over several rounds, after a
/// ~25 ms warm-up. The warm-up matters: shapes are measured back to back in
/// one process, and without it the branch predictor and the engines' lazy
/// caches carry the previous shape's state into the first rounds. Rounds
/// are calibrated to ~10 ms so fast and slow benches get comparable noise;
/// taking the minimum of the round means discards scheduler and
/// frequency-scaling spikes, which is what a lower-bound ratio gate wants.
fn measure_us(mut f: impl FnMut()) -> f64 {
    let warm = Instant::now();
    let mut est = f64::MAX;
    while warm.elapsed().as_millis() < 25 {
        let t = Instant::now();
        f();
        est = est.min((t.elapsed().as_secs_f64() * 1e6).max(0.5));
    }
    let iters = (10_000.0 / est).clamp(1.0, 50_000.0) as u32;
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e6 / f64::from(iters));
    }
    best
}

/// Wall-clock for one engine shape, interpreter construction hoisted out of
/// the timed loop.
fn time_shape(shape: &PreparedShape, engine: Engine) -> f64 {
    let mut interp = vg_ir::Interp::new(&shape.registry)
        .with_engine(engine)
        .with_fuel(u64::MAX);
    let mut mem = FlatMem::new(64);
    let mut host = BenchHost::for_registry(&shape.registry);
    let args = [shape.leaf.0 as i64, shape.iters];
    measure_us(|| {
        let mut env = Pair {
            mem: &mut mem,
            host: &mut host,
        };
        std::hint::black_box(interp.run(shape.entry, &args, &mut env).unwrap());
    })
}

struct GateRow {
    group: &'static str,
    name: &'static str,
    recorded: f64,
    measured: f64,
    optimized_us: f64,
    baseline_us: f64,
}

impl GateRow {
    fn floor(&self) -> f64 {
        self.recorded / TOLERANCE
    }
    fn ok(&self) -> bool {
        self.measured >= self.floor()
    }
}

fn engine_rows() -> Vec<GateRow> {
    prepared_shapes()
        .iter()
        .filter_map(|shape| {
            let Some(recorded) = json_number(INTERP_JSON, "gate_ratios", shape.name) else {
                println!("engine/{}: skipped (no recorded baseline)", shape.name);
                return None;
            };
            let fused = time_shape(shape, Engine::Fused);
            let reference = time_shape(shape, Engine::Reference);
            Some(GateRow {
                group: "engine",
                name: shape.name,
                recorded,
                measured: reference / fused,
                optimized_us: fused,
                baseline_us: reference,
            })
        })
        .collect()
}

fn crypto_rows() -> Vec<GateRow> {
    let page = vec![0xabu8; 4096];
    let kib = vec![0xcdu8; 1024];
    let enc = [1u8; 16];
    let mac = [2u8; 32];
    let cipher = Aes128::new(&enc);
    let mac_key = HmacKey::new(&mac);
    let sealed = SealedBox::seal_with(&cipher, &mac_key, 7, &page);

    // (name, optimized path, scalar reference path). `ssh_transfer` runs
    // the full Figure 3 driver — simulator included — under the hoisted
    // per-stream cipher vs the retained per-chunk scalar loop; both sides
    // charge identical simulated cycles, so only wall-clock differs.
    type BenchFn<'a> = Box<dyn FnMut() + 'a>;
    let benches: Vec<(&'static str, BenchFn, BenchFn)> = vec![
        (
            "aes_ctr_page",
            Box::new(|| {
                let mut buf = page.clone();
                cipher.ctr_xor(1, &mut buf);
                std::hint::black_box(&buf);
            }),
            Box::new(|| {
                let mut buf = page.clone();
                reference::ctr_xor(&enc, 1, &mut buf);
                std::hint::black_box(&buf);
            }),
        ),
        (
            "seal_page",
            Box::new(|| {
                std::hint::black_box(SealedBox::seal_with(
                    &cipher,
                    &mac_key,
                    7,
                    std::hint::black_box(&page),
                ));
            }),
            Box::new(|| {
                std::hint::black_box(reference::seal(&enc, &mac, 7, std::hint::black_box(&page)));
            }),
        ),
        (
            "unseal_page",
            Box::new(|| {
                std::hint::black_box(sealed.open_with(&cipher, &mac_key, 7).unwrap());
            }),
            Box::new(|| {
                std::hint::black_box(
                    reference::open(
                        &enc,
                        &mac,
                        7,
                        sealed.nonce(),
                        sealed.ciphertext(),
                        sealed.tag(),
                    )
                    .unwrap(),
                );
            }),
        ),
        (
            "hmac_1k",
            Box::new(|| {
                std::hint::black_box(mac_key.mac(std::hint::black_box(&kib)));
            }),
            Box::new(|| {
                std::hint::black_box(reference::hmac_sha256(&mac, std::hint::black_box(&kib)));
            }),
        ),
        (
            "ssh_transfer",
            Box::new(|| {
                let mut sys = vg_kernel::System::boot(vg_kernel::Mode::Native);
                std::hint::black_box(vg_apps::ssh::sshd_bandwidth(&mut sys, 64 * 1024, 2));
            }),
            Box::new(|| {
                let mut sys = vg_kernel::System::boot(vg_kernel::Mode::Native);
                std::hint::black_box(vg_apps::ssh::sshd_bandwidth_scalar(&mut sys, 64 * 1024, 2));
            }),
        ),
    ];

    let mut rows = Vec::new();
    for (name, mut optimized, mut scalar) in benches {
        let Some(recorded) = json_number(CRYPTO_JSON, "gate_ratios", name) else {
            println!("crypto_data_plane/{name}: skipped (no recorded baseline)");
            continue;
        };
        let opt_us = measure_us(&mut optimized);
        let scalar_us = measure_us(&mut scalar);
        rows.push(GateRow {
            group: "crypto_data_plane",
            name,
            recorded,
            measured: scalar_us / opt_us,
            optimized_us: opt_us,
            baseline_us: scalar_us,
        });
    }
    rows
}

/// The descriptor-ring data-plane shapes. Unlike the wall-clock groups
/// these are measured in *simulated* cycles per request — deterministic, so
/// a drop below the floor means the batching or the cost model regressed,
/// not the CI machine. The `opt-us`/`base-us` columns hold cycles/request
/// for these rows.
fn net_rows() -> Vec<GateRow> {
    let conns = json_number(NET_JSON, "methodology", "conns").unwrap_or(256.0) as u32;
    vg_bench::shapes::net_shapes(conns)
        .into_iter()
        .filter_map(|shape| {
            let Some(recorded) = json_number(NET_JSON, "gate_ratios", shape.name) else {
                println!(
                    "net_data_plane/{}: skipped (no recorded baseline)",
                    shape.name
                );
                return None;
            };
            Some(GateRow {
                group: "net_data_plane",
                name: shape.name,
                recorded,
                measured: shape.speedup(),
                optimized_us: shape.optimized_cycles_per_req(),
                baseline_us: shape.baseline_cycles_per_req(),
            })
        })
        .collect()
}

/// The SMP scaling shapes at the recorded scale. Deterministic simulated
/// cycles again: "speedup" here is `horizon(1 cpu) / horizon(4 cpus)` — the
/// 4-core scaling headline `BENCH_smp.json` records — so a drop below the
/// floor means the scheduler, the IPI protocol, or the cost model
/// regressed. The `opt-us`/`base-us` columns hold the 4-core and 1-core
/// horizons in kilocycles for these rows.
fn smp_rows() -> Vec<GateRow> {
    let scale = json_number(SMP_JSON, "methodology", "scale")
        .unwrap_or(vg_bench::shapes::SMP_GATE_SCALE as f64) as u32;
    vg_bench::shapes::smp_shapes(scale)
        .into_iter()
        .filter_map(|shape| {
            let Some(recorded) = json_number(SMP_JSON, "gate_ratios", shape.name) else {
                println!("smp_scaling/{}: skipped (no recorded baseline)", shape.name);
                return None;
            };
            let quad = shape.at(4);
            Some(GateRow {
                group: "smp_scaling",
                name: shape.name,
                recorded,
                measured: quad.speedup,
                optimized_us: quad.bench.horizon_cycles as f64 / 1e3,
                baseline_us: shape.at(1).bench.horizon_cycles as f64 / 1e3,
            })
        })
        .collect()
}

fn main() {
    println!("== vg-bench: wall-clock regression gate ==");
    println!("(fails when a recorded speedup drops by more than {TOLERANCE}x)");
    println!("(net_data_plane rows are simulated cycles/request, not microseconds)");
    println!("(smp_scaling rows are 4-core vs 1-core horizons in kilocycles)\n");
    let mut rows = engine_rows();
    rows.extend(crypto_rows());
    rows.extend(net_rows());
    rows.extend(smp_rows());

    println!(
        "\n{:<18} {:<20} {:>10} {:>10} {:>9} {:>9} {:>9}   status",
        "group", "bench", "opt-us", "base-us", "recorded", "measured", "floor"
    );
    let mut failed = 0u32;
    for r in &rows {
        let ok = r.ok();
        if !ok {
            failed += 1;
        }
        println!(
            "{:<18} {:<20} {:>10.1} {:>10.1} {:>8.2}x {:>8.2}x {:>8.2}x   {}",
            r.group,
            r.name,
            r.optimized_us,
            r.baseline_us,
            r.recorded,
            r.measured,
            r.floor(),
            if ok { "ok" } else { "REGRESSED" }
        );
    }
    if failed > 0 {
        println!(
            "\n{failed} shape(s) regressed by more than {TOLERANCE}x vs the checked-in baselines:"
        );
        for r in rows.iter().filter(|r| !r.ok()) {
            println!(
                "  {}/{}: recorded {:.2}x, measured {:.2}x ({:+.0}% of the recorded speedup)",
                r.group,
                r.name,
                r.recorded,
                r.measured,
                100.0 * (r.measured - r.recorded) / r.recorded
            );
        }
        std::process::exit(1);
    }
    println!("\nall {} gated shapes within tolerance", rows.len());
}
