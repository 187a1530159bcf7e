//! SMP scaling workloads: the paper's macro-benchmarks sharded across N
//! simulated cores through the kernel's per-CPU run queues and
//! work-stealing scheduler (DESIGN.md §11).
//!
//! Each driver takes the caller's booted [`System`] — native or Virtual
//! Ghost, at any core count ([`System::boot_with_cpus`]) — and leaves it
//! behind, so counters, metrics, a fault plan, a trace or the profiler
//! can be read or armed around the run. One shard runner serves all four
//! drivers: it splits a fixed workload into `shards` independent
//! processes (one server per port, one mail spool per directory),
//! enqueues them on their round-robin home cores, and drains them with
//! [`System::run_queued`]. The two server drivers run the same
//! listen-and-serve body and shared event loop as the single-core
//! [`thttpd::c10k`] and [`ghostkv::kv_load`]. Only [`c10k_sharded`]
//! still boots its own system, for the repo benchmark that calls it.
//!
//! The reported elapsed time is the scheduling *horizon* — the busiest
//! core's cycles inside the window — so the speedup of an `n`-core run
//! over the 1-core run is the scaling headline: the same total work,
//! finished `horizon(1)/horizon(n)` times sooner.
//!
//! The shard count is held constant across cpu counts so every scaling
//! curve compares identical work; only the core count varies. Multi-core
//! runs pay real coherence costs the 1-core run does not: every PTE
//! mapping broadcasts a TLB shootdown IPI to all sibling cores.

use crate::postmark::{self, PostmarkConfig};
use crate::{ghostkv, server, thttpd};
use std::cell::Cell;
use std::rc::Rc;
use vg_kernel::syscall::O_CREAT;
use vg_kernel::{ChildKind, Mode, NetMode, System, UserEnv};

/// Result of one sharded run at one cpu count.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpBench {
    /// Simulated cores the scheduler spread the shards over.
    pub cpus: usize,
    /// Independent shard processes (constant across cpu counts).
    pub shards: usize,
    /// Workload units completed (requests, transactions, iterations).
    pub units: u64,
    /// Elapsed: the busiest core's cycles inside the scheduling window.
    pub horizon_cycles: u64,
    /// Aggregate work: every core's cycles summed.
    pub total_cycles: u64,
    /// Processes run on a core other than their home.
    pub steals: u64,
    /// TLB-shootdown IPIs delivered during the run.
    pub ipis: u64,
}

impl SmpBench {
    /// Workload units per million elapsed cycles.
    pub fn units_per_megacycle(&self) -> f64 {
        self.units as f64 / (self.horizon_cycles as f64 / 1e6)
    }

    /// Aggregate-throughput speedup over the single-core run of the same
    /// workload: how many times sooner the horizon arrives.
    pub fn speedup_over(&self, uni: &SmpBench) -> f64 {
        uni.horizon_cycles as f64 / self.horizon_cycles as f64
    }
}

/// The one shard runner: installs `{prefix}-{s}` for every shard `s`,
/// spawns it, queues every shard on its home core, drains the queues and
/// folds the scheduler's books into a bench row. `body(s, env)` is shard
/// `s`'s process and returns the units it completed. Asserts every shard
/// exited cleanly and the shards completed `units` between them.
fn run_shards(
    sys: &mut System,
    prefix: &str,
    ghosting: bool,
    shards: usize,
    units: u64,
    body: impl Fn(usize, &mut UserEnv) -> u64 + 'static,
) -> SmpBench {
    let done = Rc::new(Cell::new(0u64));
    let body = Rc::new(body);
    let mut pids = Vec::with_capacity(shards);
    for s in 0..shards {
        let name = format!("{prefix}-{s}");
        let (done, body) = (done.clone(), body.clone());
        sys.install_app(&name, ghosting, move || {
            let (done, body) = (done.clone(), body.clone());
            Box::new(move |env| {
                done.set(done.get() + body(s, env));
                0
            })
        });
        pids.push(sys.spawn(&name));
    }
    for &pid in &pids {
        sys.sched_enqueue(pid);
    }
    let ipis0 = sys.machine.counters.ipis;
    let run = sys.run_queued();
    assert_eq!(run.exits.len(), shards, "every shard ran");
    assert!(run.exits.iter().all(|&(_, code)| code == 0), "{run:?}");
    assert_eq!(done.get(), units, "every shard finished its work");
    SmpBench {
        cpus: sys.machine.num_cpus(),
        shards,
        units,
        horizon_cycles: run.horizon,
        total_cycles: run.work.iter().sum(),
        steals: run.steals,
        ipis: sys.machine.counters.ipis - ipis0,
    }
}

/// [`c10k_sharded_on`] on a fresh Virtual Ghost system with `cpus` cores.
/// Kept only because the repo benchmark's `c10k_smp4` workload calls it;
/// every other caller boots its own system and uses the `_on` driver.
pub fn c10k_sharded(
    cpus: usize,
    shards: usize,
    file_size: usize,
    conns_per_shard: u32,
    reqs_per_conn: u32,
) -> SmpBench {
    let mut sys = System::boot_with_cpus(Mode::VirtualGhost, cpus);
    c10k_sharded_on(&mut sys, shards, file_size, conns_per_shard, reqs_per_conn)
}

/// thttpd-c10k sharded: `shards` event-loop servers, each on its own port
/// (`HTTP_PORT + shard`) with `conns_per_shard` pipelined keep-alive
/// connections pre-queued, all drained through the descriptor-ring data
/// plane under the work-stealing scheduler. One flow per shard is checked
/// as the single-core driver checks its flow.
pub fn c10k_sharded_on(
    sys: &mut System,
    shards: usize,
    file_size: usize,
    conns_per_shard: u32,
    reqs_per_conn: u32,
) -> SmpBench {
    assert!(
        file_size <= thttpd::DOC_MAX,
        "file size {file_size} over DOC_MAX"
    );
    sys.net_mode = NetMode::Ring;
    let doc = thttpd::document(file_size);
    sys.write_file("/index.dat", &doc);
    let train = thttpd::request_train(reqs_per_conn);
    let mut spot = Vec::with_capacity(shards);
    for s in 0..shards {
        let port = thttpd::HTTP_PORT + s as u16;
        for c in 0..conns_per_shard {
            let flow = server::queue(sys, port, &train);
            if c == 0 {
                spot.push(flow);
            }
        }
    }
    let units = shards as u64 * conns_per_shard as u64 * reqs_per_conn as u64;
    let bench = run_shards(sys, "thttpd-smp", false, shards, units, |s, env| {
        let port = thttpd::HTTP_PORT + s as u16;
        server::listen_and_serve(env, port, &thttpd::serve_event_loop).requests
    });
    for flow in spot {
        thttpd::check_response(&sys.wire_recv(flow), &doc, reqs_per_conn);
    }
    bench
}

/// Postmark sharded: `shards` mail-server processes, each running the full
/// three-phase Postmark workload in its own directory (`/pm{shard}`) with a
/// distinct seed — the multi-process mail-spool shape.
pub fn postmark_sharded_on(sys: &mut System, shards: usize, cfg: &PostmarkConfig) -> SmpBench {
    let units = shards as u64 * cfg.transactions as u64;
    let cfg = cfg.clone();
    run_shards(sys, "postmark-smp", false, shards, units, move |s, env| {
        let mut shard_cfg = cfg.clone();
        shard_cfg.seed = cfg.seed.wrapping_add(s as u64);
        postmark::workload(env, &shard_cfg, &format!("/pm{s}"));
        cfg.transactions as u64
    })
}

/// ghostkv sharded: `shards` KV servers on distinct ports, each holding its
/// value heap in ghost memory and serving `conns_per_shard` pipelined
/// SET/GET connections. Every connection's response bytes are verified.
pub fn kv_sharded_on(
    sys: &mut System,
    shards: usize,
    value_size: usize,
    conns_per_shard: u32,
    pairs: u32,
) -> SmpBench {
    sys.net_mode = NetMode::Ring;
    let mut expected = Vec::new(); // (flow, bytes) across all shards
    for s in 0..shards {
        let port = ghostkv::KV_PORT + s as u16;
        for c in 0..conns_per_shard as usize {
            // Globally distinct conn index -> distinct keys and values.
            let global = s * conns_per_shard as usize + c;
            let (train, expect) = ghostkv::command_train(global, pairs, value_size);
            expected.push((server::queue(sys, port, &train), expect));
        }
    }
    let units = shards as u64 * conns_per_shard as u64 * pairs as u64 * 2;
    let bench = run_shards(sys, "ghostkv-smp", true, shards, units, |s, env| {
        let port = ghostkv::KV_PORT + s as u16;
        server::listen_and_serve(env, port, &ghostkv::serve_kv).requests
    });
    for (flow, expect) in expected {
        assert_eq!(sys.wire_recv(flow), expect, "flow {flow} response bytes");
    }
    bench
}

/// LMBench-style process mix: `procs` processes, each iterating one of the
/// microbenchmark kernels (file churn, fork/wait waves, mmap + page-fault
/// touch) `iters` times — the multi-process shape of Table 2 run across
/// cores. The fault-heavy shard broadcasts shootdowns on every mapping.
pub fn procmix_on(sys: &mut System, procs: usize, iters: u32) -> SmpBench {
    let units = procs as u64 * iters as u64;
    run_shards(sys, "lmbench-mix", false, procs, units, move |i, env| {
        let buf = env.mmap_anon(4096);
        env.write_mem(buf, &[0x5au8; 256]);
        match i % 3 {
            0 => {
                // open/write/close churn (Tables 3-4 shape).
                for k in 0..iters {
                    let fd = env.open(&format!("/mix-{i}-{}", k % 8), O_CREAT);
                    env.write(fd, buf, 256);
                    env.close(fd);
                }
            }
            1 => {
                // fork + wait waves (fork/exit latency shape).
                for _ in 0..iters.div_ceil(4) {
                    let child = env.fork(ChildKind::Exit(0));
                    if child <= 0 {
                        return 0; // a failed fork completes no units
                    }
                    env.wait();
                }
            }
            _ => {
                // mmap + first-touch page faults (mmap/page-fault
                // latency shape); each fault maps a PTE and, on SMP,
                // broadcasts a shootdown.
                for k in 0..iters {
                    let va = env.mmap_anon(2 * 4096);
                    env.write_mem(va + (k as u64 % 2) * 4096, &[1u8; 16]);
                }
            }
        }
        iters as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot(cpus: usize) -> System {
        System::boot_with_cpus(Mode::VirtualGhost, cpus)
    }

    #[test]
    fn c10k_shards_scale_and_replay() {
        let quad = c10k_sharded(4, 8, 512, 16, 4);
        assert_eq!(quad.units, 8 * 16 * 4);
        assert_eq!(quad.cpus, 4);
        assert!(quad.ipis > 0, "multi-core mappings broadcast shootdowns");
        let uni = c10k_sharded(1, 8, 512, 16, 4);
        assert_eq!(uni.units, quad.units);
        assert_eq!(uni.ipis, 0, "single core never sends IPIs");
        assert!(
            quad.speedup_over(&uni) > 1.5,
            "4-core speedup {}",
            quad.speedup_over(&uni)
        );
        // Seed-stable: the same configuration replays bit-identically.
        assert_eq!(quad, c10k_sharded(4, 8, 512, 16, 4));
    }

    #[test]
    fn postmark_shards_run_isolated_spools() {
        let cfg = PostmarkConfig {
            base_files: 10,
            transactions: 40,
            ..Default::default()
        };
        let mut sys = boot(4);
        let quad = postmark_sharded_on(&mut sys, 4, &cfg);
        assert_eq!(quad.units, 4 * 40);
        // Every shard cleaned up its own spool, and only its own: each
        // `/pm{s}` exists and is empty.
        for s in 0..4 {
            let mut w = vg_kernel::fs::FsWork::default();
            let entries = {
                let (fs, machine, vm) = (&mut sys.fs, &mut sys.machine, &mut sys.vm);
                let mut dev = vg_kernel::system::DmaDisk { machine, vm };
                fs.readdir(&mut dev, &format!("/pm{s}"), &mut w).unwrap()
            };
            assert!(entries.is_empty(), "/pm{s}: {entries:?}");
        }
        let uni = postmark_sharded_on(&mut boot(1), 4, &cfg);
        assert!(quad.horizon_cycles < uni.horizon_cycles);
        assert!(quad.total_cycles >= quad.horizon_cycles);
    }

    #[test]
    fn kv_shards_verify_every_connection() {
        // kv_sharded_on asserts full response bytes per flow internally.
        let b = kv_sharded_on(&mut boot(2), 4, 64, 4, 2);
        assert_eq!(b.units, 4 * 4 * 2 * 2);
        assert!(b.steals <= b.shards as u64);
    }

    #[test]
    fn procmix_spreads_across_cores() {
        let b = procmix_on(&mut boot(4), 8, 6);
        assert_eq!(b.units, 48);
        assert!(b.ipis > 0, "fault-heavy shards broadcast shootdowns");
        assert!(b.total_cycles >= b.horizon_cycles);
    }
}
