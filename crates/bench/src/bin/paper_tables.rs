//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage: `paper-tables [ARTEFACT..] [--fast]`, where an artefact is one of
//! [`ARTEFACTS`]. With no artefact, everything runs; an unknown name exits
//! 2. `--fast` shrinks iteration counts for smoke runs (shapes hold;
//! absolute noise rises).
//!
//! Observability: `--trace <path>` runs a traced capture (LMBench
//! open/close, a ghost-swap roundtrip, and a small Postmark) and writes a
//! Chrome/Perfetto trace.json plus a top-N span summary; `--metrics` prints
//! the per-subsystem metrics report for the same capture workload.
//!
//! Every artefact that a test also checks is measured by a `vg_bench`
//! library runner: Tables 2–4 and Figures 2–4 (banded by
//! `tests/paper_claims.rs`), `c10k` (`tests/net_ring.rs`), `smp` and
//! `security` (`tests/security_experiments.rs` and the `rootkit_defense`
//! example). For those this binary only parses arguments and formats rows.
//! Every output is deterministic simulated time, and
//! `crates/bench/tests/golden.rs` pins it byte for byte.

use std::collections::BTreeMap;
use vg_apps::{ghostkv, lmbench, postmark, thttpd};
use vg_bench::{
    ratio, run_attack, smp_curves, Scale, ATTACKS, PAPER_TABLE2, PAPER_TABLE3, PAPER_TABLE4,
    PAPER_TABLE5, SMP_SHARDS,
};
use vg_kernel::{Mode, System};
use vg_machine::cost::CostModel;
use vg_machine::Domain;

/// Every artefact name, in the order a full run prints them.
const ARTEFACTS: [&str; 12] = [
    "table2", "table3", "table4", "table5", "figure2", "figure3", "figure4", "c10k", "smp",
    "security", "ablation", "counters",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let metrics = args.iter().any(|a| a == "--metrics");
    let profile = args.iter().any(|a| a == "--profile");
    let scale = if fast { Scale::FAST } else { Scale::FULL };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: paper-tables [ARTEFACT..] [--fast] [--trace PATH] [--metrics] [--profile]"
        );
        println!("artefacts: {}   (default: all)", ARTEFACTS.join(" "));
        println!("--fast: reduced iteration counts for smoke runs");
        println!("--trace PATH: run a traced capture, write Chrome trace.json to PATH");
        println!("--metrics: print the per-subsystem metrics report for the capture");
        println!("--profile: per-domain cycle attribution, native vs virtual-ghost,");
        println!("           per workload (where the overhead went)");
        println!("--folded PATH: with --profile, write collapsed-stack lines for the");
        println!("           LMBench open/close capture (inferno/speedscope format)");
        return;
    }
    // `--trace` and `--folded` consume the following token as their path,
    // so it must not leak into the artefact list, and a flag is not a
    // path. Anything else starting with `-` that is not a known flag is an
    // error, not a silently ignored artefact.
    let mut trace_path: Option<String> = None;
    let mut folded_path: Option<String> = None;
    let mut which: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--trace" || a == "--folded" {
            let Some(path) = it.next().filter(|p| !p.starts_with('-')) else {
                eprintln!("{a} requires a path argument");
                std::process::exit(2);
            };
            if a == "--trace" {
                trace_path = Some(path.clone());
            } else {
                folded_path = Some(path.clone());
            }
        } else if a == "--fast" || a == "--metrics" || a == "--profile" {
            // Boolean flags, matched above.
        } else if a.starts_with('-') {
            eprintln!("unknown flag: {a} (see --help)");
            std::process::exit(2);
        } else if !ARTEFACTS.contains(&a.as_str()) {
            eprintln!("unknown artefact: {a}");
            eprintln!("artefacts: {}", ARTEFACTS.join(" "));
            std::process::exit(2);
        } else {
            which.push(a.as_str());
        }
    }
    if folded_path.is_some() && !profile {
        eprintln!("--folded only makes sense with --profile (see --help)");
        std::process::exit(2);
    }
    let all = which.is_empty() && trace_path.is_none() && !metrics && !profile;
    let want = |name: &str| all || which.contains(&name);

    if want("table2") {
        table2(&scale);
    }
    if want("table3") || want("table4") {
        tables_3_4(&scale);
    }
    if want("table5") {
        table5(&scale);
    }
    if want("figure2") {
        bandwidth_figure(
            "Figure 2: thttpd average bandwidth (KB/s)",
            ["native", "vg", "vg/native"],
            vg_bench::figure2(&scale),
            "negligible impact at all sizes",
        );
    }
    if want("figure3") {
        bandwidth_figure(
            "Figure 3: SSH server transfer rate (KB/s)",
            ["native", "vg", "vg/native"],
            vg_bench::figure3(&scale),
            "23% mean reduction, 45% worst case at small sizes, negligible at large",
        );
    }
    if want("figure4") {
        bandwidth_figure(
            "Figure 4: ghosting vs original ssh client (KB/s, both on VG kernel)",
            ["original", "ghosting", "ghost/orig"],
            vg_bench::figure4(&scale),
            "at most 5% reduction",
        );
    }
    if want("c10k") {
        c10k_table(&scale);
    }
    if want("smp") {
        smp_table(&scale);
    }
    if want("security") {
        security();
    }
    if want("ablation") {
        ablation(&scale);
    }
    if want("counters") {
        counters();
    }
    if trace_path.is_some() || metrics {
        observability(&scale, trace_path.as_deref(), metrics);
    }
    if profile {
        profile_tables(folded_path.as_deref());
    }
}

/// The traced capture workload: one LMBench microbenchmark, a ghost-memory
/// swap roundtrip (so the trace contains SVA ghost/swap events), and a small
/// Postmark run — all on one Virtual Ghost system.
fn observability_workload(sys: &mut System, scale: &Scale) {
    lmbench::open_close(sys, scale.lm_iters.min(50));
    sys.install_app("trace-ghost", true, || {
        Box::new(|env| {
            let va = env.allocgm(2).expect("ghost pages");
            env.write_mem(va, b"traced ghost page");
            let pid = env.pid;
            env.sys.kernel_swap_out_ghost(pid, 2);
            // Touching the page swaps it back in through the fault path.
            assert_eq!(env.read_mem(va, 17), b"traced ghost page");
            0
        })
    });
    let pid = sys.spawn("trace-ghost");
    assert_eq!(sys.run_until_exit(pid), 0);
    postmark::run(
        sys,
        postmark::PostmarkConfig {
            base_files: 20,
            transactions: 50,
            ..Default::default()
        },
    );
    // A small C10K burst and a KV load so the metrics report carries the
    // request-latency histograms (http.request_cycles / kv.request_cycles)
    // alongside the per-syscall ones.
    thttpd::c10k(sys, 512, 16, 4, thttpd::ServerKind::EventLoop);
    ghostkv::kv_load(sys, 64, 8, 2);
}

fn observability(scale: &Scale, trace_path: Option<&str>, metrics: bool) {
    let mut sys = System::boot(Mode::VirtualGhost);
    if trace_path.is_some() {
        sys.machine.trace.enable(vg_trace::DEFAULT_TRACE_CAPACITY);
    }
    observability_workload(&mut sys, scale);
    if let Some(path) = trace_path {
        let json = vg_trace::chrome_trace_json(&sys.machine.trace);
        match std::fs::write(path, &json) {
            Ok(()) => println!(
                "\n== trace: {} events written to {path} ==",
                sys.machine.trace.len()
            ),
            Err(e) => {
                eprintln!("failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
        println!("{}", vg_trace::summary_top_n(&sys.machine.trace, 15));
    }
    if metrics {
        println!("\n== metrics report (virtual-ghost capture workload) ==");
        print!("{}", sys.machine.metrics_report());
        // Empty string unless fault injection ran, so disabled-mode output
        // is byte-identical with or without this line.
        print!("{}", sys.machine.faults.summary());
    }
}

/// A workload the counters table and `--profile` run on a booted system.
type Workload = fn(&mut System);

fn open_close_x100(sys: &mut System) {
    lmbench::open_close(sys, 100);
}

fn fork_exec_x20(sys: &mut System) {
    lmbench::fork_exec(sys, 20);
}

fn postmark_50_200(sys: &mut System) {
    postmark::run(
        sys,
        postmark::PostmarkConfig {
            base_files: 50,
            transactions: 200,
            ..Default::default()
        },
    );
}

fn thttpd_4k_x10(sys: &mut System) {
    thttpd::bandwidth(sys, 4096, 10);
}

/// A ghost-memory swap-out and fault-driven swap-in of four pages.
fn ghost_swap(sys: &mut System) {
    sys.install_app("profile-ghost", true, || {
        Box::new(|env| {
            let va = env.allocgm(4).expect("ghost pages");
            for p in 0..4u64 {
                env.write_mem(va + p * 4096, b"profiled ghost page");
            }
            let pid = env.pid;
            env.sys.kernel_swap_out_ghost(pid, 4);
            for p in 0..4u64 {
                assert_eq!(env.read_mem(va + p * 4096, 19), b"profiled ghost page");
            }
            0
        })
    });
    let pid = sys.spawn("profile-ghost");
    assert_eq!(sys.run_until_exit(pid), 0);
}

/// The instrumentation profile's workloads: what each one actually *does*
/// (event counts are identical across modes; only cycle charges differ).
const COUNTED: [(&str, Workload); 4] = [
    ("open/close", open_close_x100),
    ("fork+exec", fork_exec_x20),
    ("postmark", postmark_50_200),
    ("thttpd-4k", thttpd_4k_x10),
];

/// The `--profile` workload set: one representative of each paper artefact
/// family, at the counters table's scale so the differential tables stay
/// quick.
const PROFILED: [(&str, Workload); 5] = [
    ("lmbench open/close", open_close_x100),
    ("lmbench fork+exec", fork_exec_x20),
    ("ghost-swap", ghost_swap),
    ("postmark", postmark_50_200),
    ("thttpd-4k", thttpd_4k_x10),
];

/// One `--profile` measurement: boots `mode`, enables attribution right
/// after boot when `profiled`, runs the workload, and returns the
/// per-domain cycle rows (boot-time cycles folded into [`Domain::Boot`] so
/// the rows always sum to the clock) plus the final clock value.
fn profile_run(mode: Mode, profiled: bool, work: Workload) -> (BTreeMap<Domain, u64>, u64) {
    let mut sys = System::boot(mode);
    if profiled {
        sys.machine.profile_enable();
    }
    work(&mut sys);
    let total = sys.machine.clock.cycles();
    let mut rows = BTreeMap::new();
    if profiled {
        sys.machine.profiler.assert_conservation(total);
        assert_eq!(
            sys.machine.profiler.depth(),
            0,
            "attribution frames must balance across a whole workload"
        );
        rows = sys.machine.profiler.domain_totals();
        *rows.entry(Domain::Boot).or_insert(0) += sys.machine.profiler.start_cycles();
    }
    (rows, total)
}

/// `--profile`: runs each artefact-family workload twice (native cost model
/// vs Virtual Ghost) with exact cycle attribution and prints where the
/// overhead went, per domain. Every table is cross-checked two ways: the
/// domain rows must sum to the clock (conservation), and the profiled
/// totals must equal an unprofiled twin run byte-for-byte (the profiler
/// cannot move the simulated clock).
fn profile_tables(folded: Option<&str>) {
    println!("\n== Overhead attribution (--profile): exact cycles by domain ==");
    if let Some(path) = folded {
        // Collapsed-stack export of the LMBench open/close capture under
        // Virtual Ghost — one `stack;frames cycles` line per attribution
        // path, loadable by inferno/flamegraph.pl/speedscope as-is.
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.machine.profile_enable();
        open_close_x100(&mut sys);
        sys.machine
            .profiler
            .assert_conservation(sys.machine.clock.cycles());
        std::fs::write(path, vg_trace::folded_stacks(&sys.machine.profiler))
            .expect("write folded stacks");
        println!("folded stacks (lmbench open/close, virtual-ghost) -> {path}");
    }
    for (name, work) in PROFILED {
        let (nat, nat_total) = profile_run(Mode::Native, true, work);
        let (vg, vg_total) = profile_run(Mode::VirtualGhost, true, work);
        let (_, nat_plain) = profile_run(Mode::Native, false, work);
        let (_, vg_plain) = profile_run(Mode::VirtualGhost, false, work);
        assert_eq!(
            format!("{nat_total}"),
            format!("{nat_plain}"),
            "profiled native total must match the unprofiled run byte-for-byte"
        );
        assert_eq!(
            format!("{vg_total}"),
            format!("{vg_plain}"),
            "profiled vg total must match the unprofiled run byte-for-byte"
        );
        let overhead = vg_total as i128 - nat_total as i128;
        println!("\n-- {name} --");
        println!(
            "{:<10} {:>14} {:>14} {:>14} {:>9}",
            "domain", "native", "virtual-ghost", "delta", "share"
        );
        for d in Domain::ALL {
            let n = nat.get(&d).copied().unwrap_or(0);
            let v = vg.get(&d).copied().unwrap_or(0);
            if n == 0 && v == 0 {
                continue;
            }
            let delta = v as i128 - n as i128;
            let share = if overhead != 0 {
                100.0 * delta as f64 / overhead as f64
            } else {
                0.0
            };
            println!(
                "{:<10} {:>14} {:>14} {:>+14} {:>8.1}%",
                d.key(),
                n,
                v,
                delta,
                share
            );
        }
        println!(
            "{:<10} {:>14} {:>14} {:>+14} {:>8.1}%   ({:.2}x, totals verified vs unprofiled runs)",
            "total",
            nat_total,
            vg_total,
            overhead,
            100.0,
            vg_total as f64 / nat_total as f64
        );
        let nat_sum: u64 = nat.values().sum();
        let vg_sum: u64 = vg.values().sum();
        assert_eq!(nat_sum, nat_total, "native rows must sum to the clock");
        assert_eq!(vg_sum, vg_total, "vg rows must sum to the clock");
    }
}

fn counters() {
    println!("\n== Instrumentation profile (event counts per workload) ==");
    println!(
        "{:<14} {:>9} {:>7} {:>11} {:>11} {:>8} {:>8} {:>8}",
        "workload", "syscalls", "traps", "kern-acc", "kern-brnch", "pte-upd", "faults", "disk-blk"
    );
    for (name, run) in COUNTED {
        let mut sys = System::boot(Mode::VirtualGhost);
        run(&mut sys);
        let c = sys.machine.counters;
        println!(
            "{:<14} {:>9} {:>7} {:>11} {:>11} {:>8} {:>8} {:>8}",
            name,
            c.syscalls,
            c.traps,
            c.kernel_accesses,
            c.kernel_branches,
            c.pte_updates,
            c.page_faults,
            c.disk_blocks,
        );
    }
    println!("(counts are mode-independent; VG charges +10 cycles per kernel access,");
    println!(" +20 per return/indirect call, +820 per trap, +140 per PTE update)");
}

fn table2(scale: &Scale) {
    println!("\n== Table 2: LMBench latency (microseconds) ==");
    println!(
        "{:<26} {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8} {:>8}",
        "benchmark", "native", "vg", "overhd", "paper-nat", "paper-vg", "paper-x", "inktag-x"
    );
    for ((n, v), paper) in vg_bench::table2(scale).iter().zip(PAPER_TABLE2) {
        assert_eq!(n.name, paper.0);
        println!(
            "{:<26} {:>9.3} {:>9.3} {:>7.2}x | {:>9.3} {:>9.3} {:>7.2}x {:>8}",
            n.name,
            n.micros,
            v.micros,
            ratio(n.micros, v.micros),
            paper.1,
            paper.2,
            paper.2 / paper.1,
            paper
                .3
                .map(|x| format!("{x:.1}x"))
                .unwrap_or_else(|| "-".into()),
        );
    }
}

fn tables_3_4(scale: &Scale) {
    println!("\n== Tables 3 & 4: LMBench file delete/create rates (files/sec) ==");
    println!(
        "{:<7} {:>12} {:>12} {:>7} {:>12} {:>12} {:>7}   (paper del-x / cre-x)",
        "size", "del-native", "del-vg", "del-x", "cre-native", "cre-vg", "cre-x"
    );
    let rows = vg_bench::tables_3_4(scale);
    for (((cn, dn), (cv, dv)), (p3, p4)) in
        rows.into_iter().zip(PAPER_TABLE3.iter().zip(PAPER_TABLE4))
    {
        println!(
            "{:<7} {:>12.0} {:>12.0} {:>6.2}x {:>12.0} {:>12.0} {:>6.2}x   ({:.2}x / {:.2}x)",
            p3.0,
            dn,
            dv,
            ratio(dv, dn),
            cn,
            cv,
            ratio(cv, cn),
            p3.2 / p3.3,
            p4.2 / p4.3,
        );
    }
}

fn table5(scale: &Scale) {
    println!("\n== Table 5: Postmark ==");
    let cfg = postmark::PostmarkConfig {
        transactions: scale.pm_tx,
        ..Default::default()
    };
    let n = postmark::run(&mut System::boot(Mode::Native), cfg.clone());
    let v = postmark::run(&mut System::boot(Mode::VirtualGhost), cfg);
    println!(
        "native {:.2}s  vg {:.2}s  overhead {:.2}x   (paper: {:.2}s / {:.2}s = {:.2}x; {} tx scaled to 500k)",
        n.seconds_at_500k,
        v.seconds_at_500k,
        ratio(n.seconds_at_500k, v.seconds_at_500k),
        PAPER_TABLE5.0,
        PAPER_TABLE5.1,
        PAPER_TABLE5.1 / PAPER_TABLE5.0,
        scale.pm_tx,
    );
}

/// Prints one bandwidth figure: per file size, two KB/s columns and the
/// second as a share of the first.
fn bandwidth_figure(title: &str, columns: [&str; 3], rows: Vec<(usize, f64, f64)>, paper: &str) {
    println!("\n== {title} ==");
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "file size", columns[0], columns[1], columns[2]
    );
    for (kb, base, other) in rows {
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>9.1}%",
            format!("{kb} KB"),
            base,
            other,
            100.0 * other / base
        );
    }
    println!("(paper: {paper})");
}

/// The C10K artefact: every shape of [`vg_bench::c10k`], with the
/// optimized side's speedup in req/Mcyc over the baseline.
fn c10k_table(scale: &Scale) {
    println!(
        "\n== C10K: event-loop + descriptor ring vs synchronous reference ({} conns) ==",
        scale.c10k_conns
    );
    println!(
        "{:<12} {:<10} {:>10} {:>11} {:>12} {:>12} {:>8}",
        "shape", "side", "cyc/req", "req/Mcyc", "p50-cyc", "p99-cyc", "speedup"
    );
    for (name, optimized, baseline) in &vg_bench::c10k(scale) {
        let speedup = optimized.req_per_megacycle / baseline.req_per_megacycle;
        for (side, b) in [("optimized", optimized), ("baseline", baseline)] {
            println!(
                "{:<12} {:<10} {:>10.1} {:>11.2} {:>12} {:>12} {:>8}",
                name,
                side,
                b.cpu_cycles as f64 / b.requests as f64,
                b.req_per_megacycle,
                b.p50_cycles,
                b.p99_cycles,
                if side == "baseline" {
                    format!("{speedup:.2}x")
                } else {
                    String::new()
                },
            );
        }
    }
    println!("(acceptance: >=3x req/megacycle on thttpd_c10k at >=1000 connections)");
}

/// The SMP artefact: every curve of [`smp_curves`]. Elapsed time is the
/// scheduling horizon (the busiest core's cycles), so the speedup at `n`
/// cores is `horizon(1) / horizon(n)` over identical total work, and the
/// efficiency is that speedup per core.
fn smp_table(scale: &Scale) {
    println!(
        "\n== SMP scaling: {SMP_SHARDS} shards at scale {}, virtual ghost (horizon = busiest core) ==",
        scale.smp_scale
    );
    println!(
        "{:<16} {:>6} {:>4} {:>12} {:>12} {:>6} {:>10} {:>8} {:>6}",
        "shape",
        "units",
        "cpus",
        "horizon-cyc",
        "total-cyc",
        "ipis",
        "units/Mcyc",
        "speedup",
        "effic"
    );
    for (name, curve) in smp_curves(scale) {
        for b in &curve {
            let speedup = b.speedup_over(&curve[0]);
            println!(
                "{:<16} {:>6} {:>4} {:>12} {:>12} {:>6} {:>10.2} {:>7.3}x {:>6.3}",
                name,
                b.units,
                b.cpus,
                b.horizon_cycles,
                b.total_cycles,
                b.ipis,
                b.units_per_megacycle(),
                speedup,
                speedup / b.cpus as f64,
            );
        }
    }
    println!("(acceptance: >=2.5x at 4 cpus on thttpd_c10k and postmark)");
}

/// The §7 artefact: every [`ATTACKS`] module against `ssh-agent`,
/// natively and under Virtual Ghost, through [`run_attack`].
fn security() {
    println!("\n== Section 7: security experiments ==");
    for (attack_name, module) in ATTACKS {
        for (mode, label) in [
            (Mode::Native, "native"),
            (Mode::VirtualGhost, "virtual-ghost"),
        ] {
            let run = run_attack(mode, module());
            println!(
                "{attack_name:<38} on {label:<13}: {} (agent exit {})",
                if run.stolen {
                    "SECRET STOLEN"
                } else {
                    "defeated"
                },
                run.code,
            );
        }
    }
    println!("(paper: both attacks succeed natively, both fail under Virtual Ghost)");
}

fn ablation(scale: &Scale) {
    println!("\n== Ablation: LMBench overhead by protection mechanism ==");
    let modes: [(&str, Mode); 4] = [
        ("sandbox-only", Mode::Custom(CostModel::sandbox_only())),
        ("cfi-only", Mode::Custom(CostModel::cfi_only())),
        ("ic-only", Mode::Custom(CostModel::ic_protection_only())),
        ("full-vg", Mode::VirtualGhost),
    ];
    let native = lmbench::table2(Mode::Native, scale.lm_iters);
    print!("{:<26}", "benchmark");
    for (name, _) in &modes {
        print!(" {name:>13}");
    }
    println!();
    let results: Vec<Vec<lmbench::MicroResult>> = modes
        .iter()
        .map(|(_, m)| lmbench::table2(m.clone(), scale.lm_iters))
        .collect();
    for (i, base) in native.iter().enumerate() {
        print!("{:<26}", base.name);
        for r in &results {
            print!(" {:>12.2}x", ratio(base.micros, r[i].micros));
        }
        println!();
    }
}
