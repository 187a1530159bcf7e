//! # vg-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§8). The `paper-tables` binary prints each artefact
//! with the paper's reported values alongside for comparison:
//!
//! ```text
//! cargo run -p vg-bench --release --bin paper-tables            # everything
//! cargo run -p vg-bench --release --bin paper-tables table2     # one artefact
//! ```
//!
//! Artefacts: `table2` (LMBench), `table3`/`table4` (file delete/create
//! rates), `table5` (Postmark), `figure2` (thttpd bandwidth), `figure3`
//! (sshd transfer rate), `figure4` (ghosting ssh client), `c10k` (event
//! loop + descriptor ring vs the synchronous reference), `smp` (scaling
//! curves at 1/2/4/8 cores), `security` (§7 rootkit experiments),
//! `ablation` (per-mechanism overhead split), `counters` (event counts).
//! Every number is deterministic simulated time, pinned byte for byte by
//! the golden test `tests/golden.rs`.
//!
//! This library holds the paper's reported values and the runner of every
//! artefact that a test also checks, so a printed table and its check
//! cannot run different code:
//! - [`table2`], [`tables_3_4`], [`figure2`], [`figure3`] and [`figure4`],
//!   each at a [`Scale`], which the workspace's `tests/paper_claims.rs`
//!   bands at [`Scale::FAST`];
//! - [`c10k`], whose thttpd row `tests/net_ring.rs` bands at
//!   [`Scale::FULL`];
//! - [`smp_curves`], banded by this crate's unit test;
//! - [`run_attack`] over the §7 [`ATTACKS`], with the one verdict
//!   `secret_stolen`, which `tests/security_experiments.rs` and the
//!   `rootkit_defense` example run too.
//!
//! `paper-tables` formats what they return.
//!
//! The `vg-bench` binary is the simulator's wall-clock harness for the
//! crypto fast paths: `record` writes `BENCH_crypto.json`, and `check`
//! gates against it.

use vg_apps::lmbench::{self, MicroResult};
use vg_apps::ssh::{self, AGENT_SECRET};
use vg_apps::thttpd::{self, C10kBench, ServerKind};
use vg_apps::{ghostkv, postmark, smp};
use vg_kernel::{Mode, NetMode, Pid, System};

/// Paper-reported values for Table 2 (microseconds): (name, native, vg,
/// InkTag-reported overhead ×, if reported).
pub const PAPER_TABLE2: &[(&str, f64, f64, Option<f64>)] = &[
    ("null syscall", 0.091, 0.355, Some(55.8)),
    ("open/close", 2.01, 9.70, Some(7.95)),
    ("mmap", 7.06, 33.2, Some(9.94)),
    ("page fault", 31.8, 36.7, Some(7.50)),
    ("signal handler install", 0.168, 0.545, None),
    ("signal handler delivery", 1.27, 2.05, None),
    ("fork + exit", 63.7, 283.0, Some(4.40)),
    ("fork + exec", 101.0, 422.0, Some(4.20)),
    ("select", 3.05, 10.3, Some(3.40)),
];

/// Paper Table 3 (files deleted/sec): (size label, bytes, native, vg).
pub const PAPER_TABLE3: &[(&str, usize, f64, f64)] = &[
    ("0 KB", 0, 166_846.0, 36_164.0),
    ("1 KB", 1024, 116_668.0, 25_817.0),
    ("4 KB", 4096, 116_657.0, 25_806.0),
    ("10 KB", 10_240, 110_842.0, 25_042.0),
];

/// Paper Table 4 (files created/sec), at [`PAPER_TABLE3`]'s sizes.
pub const PAPER_TABLE4: &[(&str, usize, f64, f64)] = &[
    ("0 KB", 0, 156_276.0, 33_777.0),
    ("1 KB", 1024, 97_839.0, 18_796.0),
    ("4 KB", 4096, 97_102.0, 18_725.0),
    ("10 KB", 10_240, 85_319.0, 18_095.0),
];

/// Paper Table 5 (Postmark seconds at 500k transactions): (native, vg).
pub const PAPER_TABLE5: (f64, f64) = (14.30, 67.50);

/// vg/native ratio with NaN guard.
pub fn ratio(native: f64, vg: f64) -> f64 {
    if native > 0.0 {
        vg / native
    } else {
        f64::NAN
    }
}

/// The iteration counts of one `paper-tables` run.
pub struct Scale {
    /// LMBench iterations per microbenchmark (Table 2, ablation).
    pub lm_iters: u64,
    /// Files created and deleted per size (Tables 3–4).
    pub files: u64,
    /// Postmark transactions (Table 5).
    pub pm_tx: u32,
    /// thttpd requests per file size (Figure 2).
    pub http_reqs: u32,
    /// ssh transfers per file size (Figures 3–4).
    pub transfers: u32,
    /// Connections in the C10K table.
    pub c10k_conns: u32,
    /// Load multiplier of the SMP curves.
    pub smp_scale: u32,
}

impl Scale {
    /// The default run.
    pub const FULL: Scale = Scale {
        lm_iters: 300,
        files: 300,
        pm_tx: 5_000,
        http_reqs: 40,
        transfers: 8,
        c10k_conns: 1024,
        smp_scale: 4,
    };

    /// `--fast`: smoke-run counts (shapes hold; absolute noise rises).
    pub const FAST: Scale = Scale {
        lm_iters: 40,
        files: 60,
        pm_tx: 400,
        http_reqs: 8,
        transfers: 3,
        c10k_conns: 256,
        smp_scale: 1,
    };
}

/// Figure 2's file sizes (KB).
const FIGURE2_KB: [usize; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Figures 3 and 4's file sizes (KB).
const FIGURE34_KB: [usize; 6] = [1, 4, 16, 64, 256, 1024];

/// Table 2: each LMBench microbenchmark's (native, Virtual Ghost) latency,
/// in [`PAPER_TABLE2`] order.
pub fn table2(scale: &Scale) -> Vec<(MicroResult, MicroResult)> {
    let native = lmbench::table2(Mode::Native, scale.lm_iters);
    let vg = lmbench::table2(Mode::VirtualGhost, scale.lm_iters);
    native.into_iter().zip(vg).collect()
}

/// Tables 3 and 4: per [`PAPER_TABLE3`] size, the LMBench file rates
/// `(created/sec, deleted/sec)` under native and under Virtual Ghost.
pub fn tables_3_4(scale: &Scale) -> Vec<((f64, f64), (f64, f64))> {
    PAPER_TABLE3
        .iter()
        .map(|&(_, bytes, ..)| {
            let rates = |mode| lmbench::file_rates(&mut System::boot(mode), bytes, scale.files);
            (rates(Mode::Native), rates(Mode::VirtualGhost))
        })
        .collect()
}

/// Figure 2: per [`FIGURE2_KB`] size, `(KB, native, Virtual Ghost)`
/// thttpd bandwidth in KB/s.
pub fn figure2(scale: &Scale) -> Vec<(usize, f64, f64)> {
    FIGURE2_KB
        .iter()
        .map(|&kb| {
            let run = |mode| {
                thttpd::bandwidth(&mut System::boot(mode), kb * 1024, scale.http_reqs).kb_per_sec
            };
            (kb, run(Mode::Native), run(Mode::VirtualGhost))
        })
        .collect()
}

/// Figure 3: per [`FIGURE34_KB`] size, `(KB, native, Virtual Ghost)` sshd
/// transfer rates in KB/s.
pub fn figure3(scale: &Scale) -> Vec<(usize, f64, f64)> {
    FIGURE34_KB
        .iter()
        .map(|&kb| {
            let run =
                |mode| ssh::sshd_bandwidth(&mut System::boot(mode), kb * 1024, scale.transfers);
            (kb, run(Mode::Native), run(Mode::VirtualGhost))
        })
        .collect()
}

/// Figure 4: per [`FIGURE34_KB`] size, `(KB, original, ghosting)` ssh
/// client transfer rates in KB/s, both on the Virtual Ghost kernel.
pub fn figure4(scale: &Scale) -> Vec<(usize, f64, f64)> {
    FIGURE34_KB
        .iter()
        .map(|&kb| {
            let run = |ghosting| {
                let mut sys = System::boot(Mode::VirtualGhost);
                ssh::ssh_client_bandwidth(&mut sys, kb * 1024, scale.transfers, ghosting)
            };
            (kb, run(false), run(true))
        })
        .collect()
}

/// The C10K comparison on Virtual Ghost at `scale.c10k_conns`
/// connections, per shape `(name, optimized, baseline)`: thttpd's event
/// loop over the descriptor ring against its synchronous server over the
/// per-call reference path (512 B documents, 8 requests per connection),
/// and one ghostkv event-loop server (256 B values, 4 requests per
/// connection) over the same two data planes.
pub fn c10k(scale: &Scale) -> [(&'static str, C10kBench, C10kBench); 2] {
    let conns = scale.c10k_conns;
    let on = |net_mode, run: &dyn Fn(&mut System) -> C10kBench| {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.net_mode = net_mode;
        run(&mut sys)
    };
    let http = |kind| move |sys: &mut System| thttpd::c10k(sys, 512, conns, 8, kind);
    let kv = |sys: &mut System| ghostkv::kv_load(sys, 256, conns, 4);
    [
        (
            "thttpd_c10k",
            on(NetMode::Ring, &http(ServerKind::EventLoop)),
            on(NetMode::Reference, &http(ServerKind::Sync)),
        ),
        (
            "ghostkv",
            on(NetMode::Ring, &kv),
            on(NetMode::Reference, &kv),
        ),
    ]
}

/// Builds one §7 rootkit module.
pub type Rootkit = fn() -> vg_ir::Module;

/// The §7 rootkit modules with their `paper-tables security` labels.
pub const ATTACKS: [(&str, Rootkit); 4] = [
    ("attack 1 (direct read)", vg_attacks::direct_read_module),
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
];

/// One §7 run: the system after `ssh-agent` exited, the agent's pid and
/// exit code, and whether its secret was stolen (`secret_stolen`).
pub struct AttackRun {
    /// The system the attack ran on, for its log, counters and recorders.
    pub sys: System,
    /// The victim `ssh-agent`.
    pub pid: Pid,
    /// The agent's exit code: 0 when its secret was intact at exit.
    pub code: i32,
    /// Whether the secret left the agent.
    pub stolen: bool,
}

/// Runs `ssh-agent` (3 iterations, ghosting under Virtual Ghost) with the
/// rootkit `module` loaded through the only pipeline `mode` offers: the
/// Virtual Ghost compiler, or a raw load on the native kernel.
pub fn run_attack(mode: Mode, module: vg_ir::Module) -> AttackRun {
    let ghosting = matches!(mode, Mode::VirtualGhost);
    let mut sys = System::boot(mode);
    ssh::install_ssh_agent(&mut sys, ghosting, 3);
    if ghosting {
        sys.install_module(module)
            .expect("the Virtual Ghost compiler accepts the module source");
    } else {
        sys.install_raw_module(module)
            .expect("native kernels load raw modules");
    }
    let pid = sys.spawn("ssh-agent");
    let code = sys.run_until_exit(pid);
    let stolen = secret_stolen(&mut sys);
    AttackRun {
        sys,
        pid,
        code,
        stolen,
    }
}

/// The §7 verdict: the whole [`AGENT_SECRET`] reached the kernel log or
/// the file `/stolen`. A fragment of it is not the secret.
fn secret_stolen(sys: &mut System) -> bool {
    let holds = |bytes: &[u8]| bytes.windows(AGENT_SECRET.len()).any(|w| w == AGENT_SECRET);
    sys.log.iter().any(|l| holds(l.as_bytes()))
        || sys.read_file("/stolen").is_some_and(|f| holds(&f))
}

/// Cpu counts every SMP scaling curve is sampled at.
const SMP_CPU_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Shards per SMP workload: constant across cpu counts, so every point on
/// a curve runs identical work.
pub const SMP_SHARDS: usize = 8;

/// The four SMP scaling curves on Virtual Ghost at load multiplier
/// `scale.smp_scale`: each workload split into [`SMP_SHARDS`] processes
/// and drained by the work-stealing scheduler at every count in
/// [`SMP_CPU_COUNTS`], one run per count, in order.
pub fn smp_curves(scale: &Scale) -> [(&'static str, Vec<smp::SmpBench>); 4] {
    let scale = scale.smp_scale;
    let sweep = |run: &dyn Fn(&mut System) -> smp::SmpBench| {
        SMP_CPU_COUNTS
            .iter()
            .map(|&cpus| run(&mut System::boot_with_cpus(Mode::VirtualGhost, cpus)))
            .collect()
    };
    let pm_cfg = postmark::PostmarkConfig {
        base_files: 20,
        transactions: 40 * scale,
        ..Default::default()
    };
    [
        (
            "thttpd_c10k",
            sweep(&|sys| smp::c10k_sharded_on(sys, SMP_SHARDS, 512, 8 * scale, 8)),
        ),
        (
            "postmark",
            sweep(&|sys| smp::postmark_sharded_on(sys, SMP_SHARDS, &pm_cfg)),
        ),
        (
            "ghostkv",
            sweep(&|sys| smp::kv_sharded_on(sys, SMP_SHARDS, 256, 4 * scale, 4)),
        ),
        (
            "lmbench_procmix",
            sweep(&|sys| smp::procmix_on(sys, SMP_SHARDS, 10 * scale)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SMP acceptance bar: >=2.5x aggregate simulated-cycle throughput
    /// at 4 cpus on the thttpd_c10k and Postmark shapes, at the full run's
    /// scale. A band, not a golden, so re-capturing the goldens cannot drop
    /// it.
    #[test]
    fn smp_clears_2_5x_at_4_cpus_on_c10k_and_postmark() {
        for (name, curve) in smp_curves(&Scale::FULL) {
            if !matches!(name, "thttpd_c10k" | "postmark") {
                continue;
            }
            let four = curve.iter().find(|b| b.cpus == 4).expect("4 cpus sampled");
            let speedup = four.speedup_over(&curve[0]);
            assert!(speedup >= 2.5, "{name}: {speedup:.3}x at 4 cpus");
        }
    }

    /// Tables 3 and 4 are printed and banded row by row, zipped, so they
    /// must list the same sizes under the same labels in the same order.
    #[test]
    fn tables_3_and_4_list_the_same_sizes() {
        let sizes = |t: &[(&'static str, usize, f64, f64)]| {
            t.iter()
                .map(|&(label, bytes, ..)| (label, bytes))
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(PAPER_TABLE3), sizes(PAPER_TABLE4));
    }

    /// Only the whole secret counts: `SECRET` alone, the 6 bytes a
    /// substring match would take for a theft, is not stolen in either
    /// place, and the full [`AGENT_SECRET`] is stolen in both.
    #[test]
    fn only_the_whole_agent_secret_is_stolen() {
        let secret = std::str::from_utf8(AGENT_SECRET).expect("ascii secret");
        let fragment = "SECRET";
        assert!(secret.contains(fragment));
        let mut log = System::boot(Mode::Native);
        log.log.push(format!("rootkit: {fragment}"));
        assert!(!secret_stolen(&mut log));
        log.log.push(format!("rootkit: {secret}"));
        assert!(secret_stolen(&mut log));

        let mut file = System::boot(Mode::Native);
        file.write_file("/stolen", fragment.as_bytes());
        assert!(!secret_stolen(&mut file));
        file.write_file("/stolen", &[b"xx", AGENT_SECRET, b"yy"].concat());
        assert!(secret_stolen(&mut file));
    }
}
