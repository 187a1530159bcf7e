//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage: `paper-tables [table2|table3|table4|table5|figure2|figure3|figure4|c10k|security|ablation] [--fast]`
//! With no argument, everything runs. `--fast` shrinks iteration counts for
//! smoke runs (shapes hold; absolute noise rises).
//!
//! Observability: `--trace <path>` runs a traced capture (LMBench
//! open/close, a ghost-swap roundtrip, and a small Postmark) and writes a
//! Chrome/Perfetto trace.json plus a top-N span summary; `--metrics` prints
//! the per-subsystem metrics report for the same capture workload.

use std::collections::BTreeMap;
use vg_apps::{ghostkv, lmbench, postmark, ssh, thttpd};
use vg_bench::{ratio, PAPER_TABLE2, PAPER_TABLE3, PAPER_TABLE4, PAPER_TABLE5};
use vg_kernel::{Mode, System};
use vg_machine::cost::CostModel;
use vg_machine::Domain;

struct Scale {
    lm_iters: u64,
    files: u64,
    pm_tx: u32,
    http_reqs: u32,
    transfers: u32,
    c10k_conns: u32,
}

const FULL: Scale = Scale {
    lm_iters: 300,
    files: 300,
    pm_tx: 5_000,
    http_reqs: 40,
    transfers: 8,
    c10k_conns: 1024,
};
const FAST: Scale = Scale {
    lm_iters: 40,
    files: 60,
    pm_tx: 400,
    http_reqs: 8,
    transfers: 3,
    c10k_conns: 256,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let metrics = args.iter().any(|a| a == "--metrics");
    let profile = args.iter().any(|a| a == "--profile");
    let scale = if fast { FAST } else { FULL };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: paper-tables [ARTEFACT..] [--fast] [--trace PATH] [--metrics] [--profile]"
        );
        println!("artefacts: table2 table3 table4 table5 figure2 figure3 figure4");
        println!("           c10k security ablation counters   (default: all)");
        println!("--fast: reduced iteration counts for smoke runs");
        println!("--trace PATH: run a traced capture, write Chrome trace.json to PATH");
        println!("--metrics: print the per-subsystem metrics report for the capture");
        println!("--profile: per-domain cycle attribution, native vs virtual-ghost,");
        println!("           per workload (where the overhead went)");
        println!("--folded PATH: with --profile, write collapsed-stack lines for the");
        println!("           LMBench open/close capture (inferno/speedscope format)");
        return;
    }
    // `--trace` consumes the following token as its path, so it must not
    // leak into the artefact list. Anything else starting with `-` that is
    // not a known flag is an error, not a silently ignored artefact.
    let mut trace_path: Option<String> = None;
    let mut folded_path: Option<String> = None;
    let mut which: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--trace" {
            trace_path = it.next().cloned();
            if trace_path.is_none() {
                eprintln!("--trace requires a path argument");
                std::process::exit(2);
            }
        } else if a == "--folded" {
            folded_path = it.next().cloned();
            if folded_path.is_none() {
                eprintln!("--folded requires a path argument");
                std::process::exit(2);
            }
        } else if a == "--fast" || a == "--metrics" || a == "--profile" {
            // Boolean flags, matched above.
        } else if a.starts_with('-') {
            eprintln!("unknown flag: {a} (see --help)");
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
        figure2(&scale);
    }
    if want("figure3") {
        figure3(&scale);
    }
    if want("figure4") {
        figure4(&scale);
    }
    if want("c10k") {
        c10k_table(&scale);
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

/// Instrumentation profile: what each workload actually *does* (event
/// counts are identical across modes — only cycle charges differ), plus
/// where Virtual Ghost's cycles go.
/// A boxed workload driver for the counters table.
type WorkloadFn = Box<dyn Fn(&mut System)>;

/// The `--profile` workload set: one representative of each paper artefact
/// family, at `counters()`-scale so the differential tables stay quick.
fn profile_workloads() -> Vec<(&'static str, WorkloadFn)> {
    vec![
        (
            "lmbench open/close",
            Box::new(|sys: &mut System| {
                lmbench::open_close(sys, 100);
            }),
        ),
        (
            "lmbench fork+exec",
            Box::new(|sys: &mut System| {
                lmbench::fork_exec(sys, 20);
            }),
        ),
        (
            "ghost-swap",
            Box::new(|sys: &mut System| {
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
            }),
        ),
        (
            "postmark",
            Box::new(|sys: &mut System| {
                postmark::run(
                    sys,
                    postmark::PostmarkConfig {
                        base_files: 50,
                        transactions: 200,
                        ..Default::default()
                    },
                );
            }),
        ),
        (
            "thttpd-4k",
            Box::new(|sys: &mut System| {
                thttpd::bandwidth(sys, 4096, 10);
            }),
        ),
    ]
}

/// One `--profile` measurement: boots `mode`, enables attribution right
/// after boot when `profiled`, runs the workload, and returns the
/// per-domain cycle rows (boot-time cycles folded into [`Domain::Boot`] so
/// the rows always sum to the clock) plus the final clock value.
fn profile_run(mode: Mode, profiled: bool, work: &WorkloadFn) -> (BTreeMap<Domain, u64>, u64) {
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
        lmbench::open_close(&mut sys, 100);
        sys.machine
            .profiler
            .assert_conservation(sys.machine.clock.cycles());
        std::fs::write(path, vg_trace::folded_stacks(&sys.machine.profiler))
            .expect("write folded stacks");
        println!("folded stacks (lmbench open/close, virtual-ghost) -> {path}");
    }
    for (name, work) in profile_workloads() {
        let (nat, nat_total) = profile_run(Mode::Native, true, &work);
        let (vg, vg_total) = profile_run(Mode::VirtualGhost, true, &work);
        let (_, nat_plain) = profile_run(Mode::Native, false, &work);
        let (_, vg_plain) = profile_run(Mode::VirtualGhost, false, &work);
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
    let workloads: Vec<(&str, WorkloadFn)> = vec![
        (
            "open/close",
            Box::new(|sys: &mut System| {
                lmbench::open_close(sys, 100);
            }),
        ),
        (
            "fork+exec",
            Box::new(|sys: &mut System| {
                lmbench::fork_exec(sys, 20);
            }),
        ),
        (
            "postmark",
            Box::new(|sys: &mut System| {
                postmark::run(
                    sys,
                    postmark::PostmarkConfig {
                        base_files: 50,
                        transactions: 200,
                        ..Default::default()
                    },
                );
            }),
        ),
        (
            "thttpd-4k",
            Box::new(|sys: &mut System| {
                thttpd::bandwidth(sys, 4096, 10);
            }),
        ),
    ];
    for (name, run) in workloads {
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
    let native = lmbench::table2(Mode::Native, scale.lm_iters);
    let vg = lmbench::table2(Mode::VirtualGhost, scale.lm_iters);
    for ((n, v), paper) in native.iter().zip(&vg).zip(PAPER_TABLE2) {
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
    for (i, (label, bytes, _, _)) in PAPER_TABLE3.iter().enumerate() {
        let (cn, dn) = lmbench::file_rates(&mut System::boot(Mode::Native), *bytes, scale.files);
        let (cv, dv) =
            lmbench::file_rates(&mut System::boot(Mode::VirtualGhost), *bytes, scale.files);
        let p3 = PAPER_TABLE3[i];
        let p4 = PAPER_TABLE4[i];
        println!(
            "{:<7} {:>12.0} {:>12.0} {:>6.2}x {:>12.0} {:>12.0} {:>6.2}x   ({:.2}x / {:.2}x)",
            label,
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

fn figure2(scale: &Scale) {
    println!("\n== Figure 2: thttpd average bandwidth (KB/s) ==");
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "file size", "native", "vg", "vg/native"
    );
    for kb in [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
        let n = thttpd::bandwidth(&mut System::boot(Mode::Native), kb * 1024, scale.http_reqs);
        let v = thttpd::bandwidth(
            &mut System::boot(Mode::VirtualGhost),
            kb * 1024,
            scale.http_reqs,
        );
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>9.1}%",
            format!("{kb} KB"),
            n.kb_per_sec,
            v.kb_per_sec,
            100.0 * v.kb_per_sec / n.kb_per_sec
        );
    }
    println!("(paper: negligible impact at all sizes)");
}

fn figure3(scale: &Scale) {
    println!("\n== Figure 3: SSH server transfer rate (KB/s) ==");
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "file size", "native", "vg", "vg/native"
    );
    for kb in [1usize, 4, 16, 64, 256, 1024] {
        let n = ssh::sshd_bandwidth(&mut System::boot(Mode::Native), kb * 1024, scale.transfers);
        let v = ssh::sshd_bandwidth(
            &mut System::boot(Mode::VirtualGhost),
            kb * 1024,
            scale.transfers,
        );
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>9.1}%",
            format!("{kb} KB"),
            n,
            v,
            100.0 * v / n
        );
    }
    println!("(paper: 23% mean reduction, 45% worst case at small sizes, negligible at large)");
}

fn figure4(scale: &Scale) {
    println!("\n== Figure 4: ghosting vs original ssh client (KB/s, both on VG kernel) ==");
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "file size", "original", "ghosting", "ghost/orig"
    );
    for kb in [1usize, 4, 16, 64, 256, 1024] {
        let o = ssh::ssh_client_bandwidth(
            &mut System::boot(Mode::VirtualGhost),
            kb * 1024,
            scale.transfers,
            false,
        );
        let g = ssh::ssh_client_bandwidth(
            &mut System::boot(Mode::VirtualGhost),
            kb * 1024,
            scale.transfers,
            true,
        );
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>9.1}%",
            format!("{kb} KB"),
            o,
            g,
            100.0 * g / o
        );
    }
    println!("(paper: at most 5% reduction)");
}

/// The C10K artefact: the descriptor-ring event loop against the
/// synchronous per-call reference, plus ghostkv across the two data planes.
/// Everything is simulated cycles, so the table is bit-reproducible
/// (BENCH_net.json records the checked-in run).
fn c10k_table(scale: &Scale) {
    println!(
        "\n== C10K: event-loop + descriptor ring vs synchronous reference ({} conns) ==",
        scale.c10k_conns
    );
    println!(
        "{:<12} {:<10} {:>10} {:>11} {:>12} {:>12} {:>8}",
        "shape", "side", "cyc/req", "req/Mcyc", "p50-cyc", "p99-cyc", "speedup"
    );
    for s in vg_bench::shapes::net_shapes(scale.c10k_conns) {
        for (side, b) in [("optimized", &s.optimized), ("baseline", &s.baseline)] {
            println!(
                "{:<12} {:<10} {:>10.1} {:>11.2} {:>12} {:>12} {:>8}",
                s.name,
                side,
                b.cpu_cycles as f64 / b.requests as f64,
                b.req_per_megacycle,
                b.p50_cycles,
                b.p99_cycles,
                if side == "baseline" {
                    format!("{:.2}x", s.speedup())
                } else {
                    String::new()
                },
            );
        }
    }
    println!("(acceptance: >=3x req/megacycle on thttpd_c10k at >=1000 connections)");
}

fn security() {
    println!("\n== Section 7: security experiments ==");
    for (attack_name, module) in [
        (
            "attack 1 (direct read)",
            vg_attacks::direct_read_module as fn() -> vg_ir::Module,
        ),
        (
            "attack 2 (signal-handler injection)",
            vg_attacks::signal_inject_module,
        ),
        (
            "attack 3 (interrupt-context hijack)",
            vg_attacks::ic_hijack_module,
        ),
        (
            "attack 4 (CFI: corrupted fn pointer)",
            vg_attacks::fptr_hijack_module,
        ),
    ] {
        for (mode, label, ghosting) in [
            (Mode::Native, "native", false),
            (Mode::VirtualGhost, "virtual-ghost", true),
        ] {
            let mut sys = System::boot(mode);
            ssh::install_ssh_agent(&mut sys, ghosting, 3);
            let load = if ghosting {
                sys.install_module(module()).map(|_| ())
            } else {
                sys.install_raw_module(module()).map(|_| ())
            };
            assert!(load.is_ok(), "module load");
            let pid = sys.spawn("ssh-agent");
            let code = sys.run_until_exit(pid);
            let leak_log = sys.log.join("\n").contains("SECRET");
            let leak_file = sys
                .read_file("/stolen")
                .map(|f| f.windows(6).any(|w| w == b"SECRET"))
                .unwrap_or(false);
            let stolen = leak_log || leak_file;
            println!(
                "{attack_name:<38} on {label:<13}: {} (agent exit {code})",
                if stolen { "SECRET STOLEN" } else { "defeated" },
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
