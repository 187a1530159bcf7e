//! SMP scheduler equivalence proofs (DESIGN.md §11).
//!
//! The multi-core machine is an *optimization layer* over the single-core
//! simulator, and like every other optimization in this codebase it ships
//! with a differential proof:
//!
//! 1. **Single-core bit-identity** — for a random workload mix, spawning
//!    processes and draining them through the work-stealing scheduler on a
//!    `cpus = 1` system is bit-identical (clock, counters, metrics report,
//!    exit codes) to calling `run_until_exit` in the same order on a plain
//!    `boot`-ed system. The scheduler charges nothing of its own.
//! 2. **Multi-core determinism** — same workload + same cpu count ⇒
//!    identical clocks, per-core clocks, counters, and metrics.
//! 3. **Observable equivalence across cpu counts** — the *results* of every
//!    process (exit codes, file contents) are identical at 1, 2, and 4
//!    cores; only the timing/IPI accounting differs.
//! 4. **Conservation** — with the profiler on, per-core attributed cycles
//!    equal per-core performed work, and work + idle equals the scheduling
//!    horizon on every core.

use proptest::prelude::*;
use vg_kernel::{Mode, Pid, System};

/// Installs `n` processes with per-index workloads mixing file I/O, heap
/// traffic, fork, and (under VG) ghost memory. Returns their pids in spawn
/// order. Each process writes a result file named after its index so runs
/// can be compared observably.
fn install_mix(sys: &mut System, n: usize, shapes: &[u8]) -> Vec<Pid> {
    let mut pids = Vec::new();
    for i in 0..n {
        let shape = shapes[i % shapes.len()] % 3;
        let name = format!("smp-mix-{i}");
        sys.install_app(&name, shape == 2, move || {
            Box::new(move |env| {
                let path = format!("/out-{i}");
                let fd = env.open(&path, vg_kernel::syscall::O_CREAT);
                let buf = env.mmap_anon(4096);
                match shape {
                    0 => {
                        // File churn: weight scales with index for imbalance.
                        for r in 0..(2 + i as u64 % 5) {
                            env.write_mem(buf, format!("round {r} proc {i}").as_bytes());
                            env.write(fd, buf, 16);
                        }
                    }
                    1 => {
                        // Fork a child that exits with a derived code.
                        let child = env.fork(vg_kernel::ChildKind::Exit((i % 7) as i32));
                        if child <= 0 {
                            return 101;
                        }
                        // The child *pid* half of the status is assigned in
                        // global execution order, which legitimately varies
                        // with cpu count; the exit-code half is the
                        // order-independent observable.
                        let code = env.wait() & 0xff;
                        env.write_mem(buf, format!("child code {code:#04x}").as_bytes());
                        env.write(fd, buf, 20);
                    }
                    _ => {
                        // Ghost page roundtrip (the mechanism works in both
                        // modes; only the *protection* differs).
                        let Ok(va) = env.allocgm(1) else { return 102 };
                        env.write_mem(va, format!("ghost proc {i}").as_bytes());
                        let back = env.read_mem(va, 12);
                        env.write_mem(buf, &back);
                        env.write(fd, buf, 12);
                    }
                }
                env.close(fd);
                (i % 3) as i32
            })
        });
        pids.push(sys.spawn(&name));
    }
    pids
}

/// Observable outcome of a run: per-pid exit codes plus every result file.
fn observables(sys: &mut System, pids: &[Pid], n: usize) -> Vec<(Pid, Option<i32>, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let file = sys.read_file(&format!("/out-{i}")).unwrap_or_default();
            (pids[i], sys.exit_status(pids[i]), file)
        })
        .collect()
}

fn run_scheduled(mode: Mode, cpus: usize, n: usize, shapes: &[u8]) -> (System, Vec<Pid>) {
    let mut sys = System::boot_with_cpus(mode, cpus);
    let pids = install_mix(&mut sys, n, shapes);
    for &pid in &pids {
        sys.sched_enqueue(pid);
    }
    let run = sys.run_queued();
    assert_eq!(run.exits.len(), n, "every queued process ran");
    (sys, pids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The cpus=1 differential: scheduler-mediated execution must be
    /// bit-identical to sequential `run_until_exit` calls in spawn order.
    #[test]
    fn single_core_scheduler_is_bit_identical(
        shapes in proptest::collection::vec(0u8..6, 1..6),
        n in 1usize..6,
    ) {
        for mode in [Mode::Native, Mode::VirtualGhost] {
            // Reference: the historical sequential driver on a plain boot.
            let mut seq = System::boot(mode.clone());
            let pids = install_mix(&mut seq, n, &shapes);
            for &pid in &pids {
                seq.run_until_exit(pid);
            }
            // Candidate: same spawns drained through the scheduler.
            let (mut sched, spids) = run_scheduled(mode, 1, n, &shapes);
            prop_assert_eq!(&pids, &spids);
            prop_assert_eq!(
                seq.machine.clock.cycles(),
                sched.machine.clock.cycles(),
                "scheduler must charge nothing at cpus=1"
            );
            prop_assert_eq!(seq.machine.counters, sched.machine.counters);
            prop_assert_eq!(sched.machine.counters.ipis, 0);
            prop_assert_eq!(sched.machine.counters.tlb_shootdowns, 0);
            prop_assert_eq!(sched.machine.counters.sched_steals, 0);
            prop_assert_eq!(seq.machine.metrics_report(), sched.machine.metrics_report());
            prop_assert_eq!(sched.machine.cpu_clock(0), sched.machine.clock.cycles());
            let mut seq_sys = seq;
            prop_assert_eq!(
                observables(&mut seq_sys, &pids, n),
                observables(&mut sched, &spids, n)
            );
        }
    }

    /// Same seed (workload) + same cpu count ⇒ identical everything;
    /// different cpu counts ⇒ identical observable results.
    #[test]
    fn multi_core_replay_and_observable_equivalence(
        shapes in proptest::collection::vec(0u8..6, 1..6),
        n in 2usize..7,
    ) {
        let (mut a, apids) = run_scheduled(Mode::VirtualGhost, 4, n, &shapes);
        let (mut b, bpids) = run_scheduled(Mode::VirtualGhost, 4, n, &shapes);
        prop_assert_eq!(a.machine.clock.cycles(), b.machine.clock.cycles());
        prop_assert_eq!(a.machine.cpu_clocks(), b.machine.cpu_clocks());
        prop_assert_eq!(a.machine.counters, b.machine.counters);
        prop_assert_eq!(a.machine.metrics_report(), b.machine.metrics_report());
        let oa = observables(&mut a, &apids, n);
        prop_assert_eq!(&oa, &observables(&mut b, &bpids, n));
        // Different cpu counts: timing differs, results must not.
        for cpus in [1usize, 2] {
            let (mut c, cpids) = run_scheduled(Mode::VirtualGhost, cpus, n, &shapes);
            prop_assert_eq!(&cpids, &apids, "pid assignment is cpu-count independent");
            prop_assert_eq!(
                &oa,
                &observables(&mut c, &cpids, n),
                "{cpus}-core observables match the 4-core run"
            );
        }
    }
}

#[test]
fn work_stealing_balances_an_imbalanced_queue() {
    let mut sys = System::boot_with_cpus(Mode::VirtualGhost, 2);
    // Home assignment is round-robin: even spawns land on core 0, odd on
    // core 1. Make core 0's share heavy and core 1's trivial so core 1
    // drains its queue first and must steal.
    for i in 0..6 {
        let name = format!("steal-{i}");
        let heavy = i % 2 == 0;
        sys.install_app(&name, false, move || {
            Box::new(move |env| {
                let buf = env.mmap_anon(4096);
                env.write_mem(buf, &[7u8; 512]);
                let rounds = if heavy { 40 } else { 1 };
                let fd = env.open(&format!("/steal-{i}"), vg_kernel::syscall::O_CREAT);
                for _ in 0..rounds {
                    env.write(fd, buf, 512);
                }
                env.close(fd);
                0
            })
        });
        let pid = sys.spawn(&name);
        sys.sched_enqueue(pid);
    }
    let run = sys.run_queued();
    assert_eq!(run.exits.len(), 6);
    assert!(run.exits.iter().all(|&(_, code)| code == 0));
    assert!(run.steals >= 1, "idle core stole from the loaded one");
    assert_eq!(sys.machine.counters.sched_steals, run.steals);
    assert_eq!(run.work.len(), 2);
    assert!(run.work.iter().all(|&w| w > 0), "both cores did work");
    assert_eq!(run.horizon, *run.work.iter().max().unwrap());
    // The whole point of stealing: the horizon is far below the serial sum.
    let total: u64 = run.work.iter().sum();
    assert!(
        (run.horizon as f64) < 0.8 * total as f64,
        "horizon {} vs serial {}",
        run.horizon,
        total
    );
}

#[test]
fn smp_conservation_work_plus_idle_equals_horizon() {
    let mut sys = System::boot_with_cpus(Mode::VirtualGhost, 4);
    let shapes = [0u8, 1, 2, 3, 4, 5];
    let pids = install_mix(&mut sys, 6, &shapes);
    for &pid in &pids {
        sys.sched_enqueue(pid);
    }
    // Enable attribution exactly at the window boundary so the profiled
    // region coincides with the scheduling window.
    sys.machine.profile_enable();
    let run = sys.run_queued();
    assert_eq!(run.exits.len(), 6);
    // Per-core books: attributed == work, work + idle == horizon.
    sys.machine
        .profiler
        .assert_smp_conservation(&run.work, run.horizon);
    // Global books still balance against the shared clock.
    sys.machine
        .profiler
        .assert_conservation(sys.machine.clock.cycles());
    // Multi-core runs actually exercised the shootdown path.
    assert!(
        sys.machine.counters.ipis > 0,
        "page mappings broadcast IPIs"
    );
    assert!(sys.machine.counters.tlb_shootdowns > 0);
    let busy = run.work.iter().filter(|&&w| w > 0).count();
    assert!(busy >= 2, "work spread across cores: {:?}", run.work);
}

/// Golden pins for the multi-core ring data plane: the exact `SmpBench`,
/// `Counters` (TLB fields included) and `Machine::metrics_report()` text of
/// a 4-core sharded C10K run and a 2-core sharded ghostkv run. Every
/// constant below was captured by running these tests on the parent commit
/// of the change that made the machine's per-operation paths O(1) (the
/// `Counters` TLB mirror, the recency-list TLB, the dense frame table and
/// the ring's free-slot bitmap); that change, and any later host-side
/// optimization, must leave them untouched.
mod golden {
    use vg_apps::smp::{self, SmpBench};
    use vg_kernel::{Mode, System};
    use vg_machine::Counters;

    const C10K_REPORT: &str = "\
== metrics: histograms (simulated cycles) ==
name                                 count         mean        p50        p99        max
http.request_cycles                    512    1012776.5    1048576    2097152    1170439
sys.accept                             152      14368.3      16384      16384      73000
sys.bind                                 8       9780.0      16384      16384       9780
sys.close                              136       6730.0       8192       8192       6730
sys.fcntl                                8       1565.0       2048       2048       1565
sys.listen                               8       9780.0      16384      16384       9780
sys.mmap                                40     102730.0     131072     131072     102730
sys.open                                 8      25173.0      32768      32768      25173
sys.poll                                16       8754.0      16384      16384       8754
sys.read                                16      13379.5       4096      32768      23081
sys.readv                              128       4706.8       4096      32768      19913
sys.socket                               8       9780.0      16384      16384       9780
sys.writev                             128      10409.0      16384      16384      10409
== metrics: counters ==
== metrics: tlb ==
hits r/w/x 1440/392/0  misses r/w/x 0/80/0  evictions 0
cpu0: hits r/w/x 360/98/0  misses r/w/x 0/20/0  evictions 0
cpu1: hits r/w/x 360/98/0  misses r/w/x 0/20/0  evictions 0
cpu2: hits r/w/x 360/98/0  misses r/w/x 0/20/0  evictions 0
cpu3: hits r/w/x 360/98/0  misses r/w/x 0/20/0  evictions 0
";

    const KV_REPORT: &str = "\
== metrics: histograms (simulated cycles) ==
name                                 count         mean        p50        p99        max
kv.request_cycles                       64     618340.2    1048576    1048576     639784
sys.accept                              28      14267.9      16384      32768      22040
sys.bind                                 4       9780.0      16384      16384       9780
sys.close                               16       6730.0       8192       8192       6730
sys.listen                               4       9780.0      16384      16384       9780
sys.mmap                                16     102730.0     131072     131072     102730
sys.poll                                 8       4434.0       8192       8192       4434
sys.readv                               16       7211.5       4096      32768      17579
sys.socket                               4       9780.0      16384      16384       9780
sys.writev                              16       6421.0       8192       8192       6421
== metrics: counters ==
== metrics: tlb ==
hits r/w/x 160/128/0  misses r/w/x 0/60/0  evictions 0
cpu0: hits r/w/x 80/64/0  misses r/w/x 0/30/0  evictions 0
cpu1: hits r/w/x 80/64/0  misses r/w/x 0/30/0  evictions 0
";

    #[test]
    fn c10k_sharded_four_cores_is_pinned() {
        let mut sys = System::boot_with_cpus(Mode::VirtualGhost, 4);
        let bench = smp::c10k_sharded_on(&mut sys, 8, 512, 16, 4);
        assert_eq!(
            bench,
            SmpBench {
                cpus: 4,
                shards: 8,
                units: 512,
                horizon_cycles: 2_877_458,
                total_cycles: 11_332_772,
                steals: 0,
                ipis: 120,
            }
        );
        assert_eq!(
            sys.machine.counters,
            Counters {
                traps: 696,
                syscalls: 656,
                page_faults: 40,
                pte_updates: 40,
                kernel_accesses: 980_922,
                kernel_branches: 49_199,
                bytes_copied: 331_990,
                disk_blocks: 6,
                packets: 1152,
                ring_doorbells: 129,
                ring_descs: 1152,
                context_switches: 8,
                ipis: 120,
                tlb_shootdowns: 40,
                sched_steals: 0,
                ghost_pages_allocated: 0,
                ghost_pages_freed: 0,
                mmu_rejections: 0,
                cfi_violations: 0,
                tlb_hits: [1440, 392, 0],
                tlb_misses: [0, 80, 0],
                tlb_evictions: 0,
            }
        );
        assert_eq!(sys.machine.metrics_report(), C10K_REPORT);
    }

    #[test]
    fn kv_sharded_two_cores_is_pinned() {
        let mut sys = System::boot_with_cpus(Mode::VirtualGhost, 2);
        let bench = smp::kv_sharded_on(&mut sys, 4, 64, 4, 2);
        assert_eq!(
            bench,
            SmpBench {
                cpus: 2,
                shards: 4,
                units: 64,
                horizon_cycles: 1_714_140,
                total_cycles: 3_420_228,
                steals: 0,
                ipis: 60,
            }
        );
        assert_eq!(
            sys.machine.counters,
            Counters {
                traps: 140,
                syscalls: 112,
                page_faults: 28,
                pte_updates: 28,
                kernel_accesses: 357_224,
                kernel_branches: 17_124,
                bytes_copied: 7480,
                disk_blocks: 4,
                packets: 80,
                ring_doorbells: 17,
                ring_descs: 80,
                context_switches: 4,
                ipis: 60,
                tlb_shootdowns: 60,
                sched_steals: 0,
                ghost_pages_allocated: 16,
                ghost_pages_freed: 16,
                mmu_rejections: 0,
                cfi_violations: 0,
                tlb_hits: [160, 128, 0],
                tlb_misses: [0, 60, 0],
                tlb_evictions: 0,
            }
        );
        assert_eq!(sys.machine.metrics_report(), KV_REPORT);
    }
}
