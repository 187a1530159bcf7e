//! The load-bearing observability invariants (DESIGN.md §7):
//!
//! 1. **No perturbation** — running with tracing enabled leaves the
//!    simulated clock and every [`vg_machine::Counters`] field bit-identical
//!    to an untraced run of the same workload.
//! 2. **Determinism** — two traced runs of the same workload produce
//!    byte-identical Chrome trace files (and metrics reports).
//! 3. **Coverage** — a traced LMBench + ghost-swap + Postmark capture
//!    contains trap, syscall, SVA-op, and swap events.

use vg_apps::{lmbench, postmark};
use vg_kernel::{Mode, System};
use vg_machine::{FaultPlan, TraceEvent};
use vg_trace::{chrome_trace_json, summary_top_n, DEFAULT_TRACE_CAPACITY};

/// The capture workload: one LMBench microbenchmark, a ghost-memory swap
/// roundtrip, and a small Postmark run.
fn run_workload(traced: bool) -> System {
    run_workload_with(traced, false)
}

fn run_workload_with(traced: bool, profiled: bool) -> System {
    let mut sys = System::boot(Mode::VirtualGhost);
    if traced {
        sys.machine.trace.enable(DEFAULT_TRACE_CAPACITY);
    }
    if profiled {
        sys.machine.profile_enable();
    }
    lmbench::open_close(&mut sys, 25);
    sys.install_app("ghost-swapper", true, || {
        Box::new(|env| {
            let va = env.allocgm(2).expect("ghost pages");
            env.write_mem(va, b"determinism");
            let pid = env.pid;
            env.sys.kernel_swap_out_ghost(pid, 2);
            assert_eq!(env.read_mem(va, 11), b"determinism");
            0
        })
    });
    let pid = sys.spawn("ghost-swapper");
    assert_eq!(sys.run_until_exit(pid), 0);
    postmark::run(
        &mut sys,
        postmark::PostmarkConfig {
            base_files: 10,
            transactions: 25,
            ..Default::default()
        },
    );
    sys
}

#[test]
fn tracing_does_not_perturb_cycles_or_counters() {
    let traced = run_workload(true);
    let untraced = run_workload(false);
    assert_eq!(
        traced.machine.clock.cycles(),
        untraced.machine.clock.cycles(),
        "tracing must not advance the simulated clock"
    );
    assert_eq!(
        traced.machine.counters, untraced.machine.counters,
        "tracing must leave every counter bit-identical"
    );
    assert!(
        !traced.machine.trace.is_empty(),
        "the traced run actually recorded events"
    );
    assert!(
        untraced.machine.trace.is_empty(),
        "the untraced run recorded nothing"
    );
}

#[test]
fn traced_runs_are_byte_identical() {
    let a = run_workload(true);
    let b = run_workload(true);
    let ja = chrome_trace_json(&a.machine.trace);
    let jb = chrome_trace_json(&b.machine.trace);
    assert_eq!(ja, jb, "two traced runs must serialize identically");
    assert_eq!(
        summary_top_n(&a.machine.trace, 10),
        summary_top_n(&b.machine.trace, 10)
    );
    assert_eq!(
        a.machine.metrics_report(),
        b.machine.metrics_report(),
        "metrics reports are deterministic too"
    );
}

#[test]
fn trace_covers_traps_syscalls_sva_ops_and_swap() {
    let sys = run_workload(true);
    let evs: Vec<TraceEvent> = sys.machine.trace.records().map(|r| r.ev).collect();
    assert!(
        evs.iter()
            .any(|e| matches!(e, TraceEvent::TrapEnter { .. })),
        "trap entries present"
    );
    assert!(
        evs.iter().any(|e| matches!(e, TraceEvent::TrapExit)),
        "trap exits present"
    );
    assert!(
        evs.iter()
            .any(|e| matches!(e, TraceEvent::SyscallDispatch { .. })),
        "syscall dispatches present"
    );
    assert!(
        evs.iter()
            .any(|e| matches!(e, TraceEvent::SyscallReturn { .. })),
        "syscall returns present"
    );
    assert!(
        evs.iter()
            .any(|e| matches!(e, TraceEvent::Complete { cat: "sva", .. })),
        "SVA-op spans present"
    );
    assert!(
        evs.iter()
            .any(|e| matches!(e, TraceEvent::GhostAlloc { .. })),
        "ghost allocation present"
    );
    assert!(
        evs.iter().any(|e| matches!(e, TraceEvent::SwapOut { .. })),
        "swap-out present"
    );
    assert!(
        evs.iter()
            .any(|e| matches!(e, TraceEvent::SwapIn { ok: true, .. })),
        "swap-in present"
    );
    assert!(
        evs.iter()
            .any(|e| matches!(e, TraceEvent::ContextSwitch { .. })),
        "context switches present"
    );
    assert!(
        evs.iter()
            .any(|e| matches!(e, TraceEvent::PageFault { .. })),
        "page faults present"
    );
    // Per-syscall latency histograms landed in the metrics registry.
    assert!(sys.machine.metrics.histogram("sys.open").is_some());
    assert!(sys.machine.metrics.counter("swap.crypto_bytes") > 0);
}

#[test]
fn fault_layer_is_invisible_when_it_injects_nothing() {
    // Invariant 4 (DESIGN.md §8, zero-when-disabled): the fault-injection
    // layer must not perturb any observable output unless a fault actually
    // fires. Three configurations of the same traced workload — disarmed
    // (the default), armed with an empty plan, and armed with a plan whose
    // only trigger can never fire — must be byte-identical in cycles,
    // counters, exports, and metrics; and the fault-summary table must be
    // absent from all of them.
    let run = |plan: Option<FaultPlan>| {
        let mut sys = System::boot(Mode::VirtualGhost);
        if let Some(p) = plan {
            sys.machine.faults.arm(p);
        }
        sys.machine.trace.enable(DEFAULT_TRACE_CAPACITY);
        lmbench::open_close(&mut sys, 25);
        postmark::run(
            &mut sys,
            postmark::PostmarkConfig {
                base_files: 10,
                transactions: 25,
                ..Default::default()
            },
        );
        (
            sys.machine.clock.cycles(),
            sys.machine.counters,
            chrome_trace_json(&sys.machine.trace),
            summary_top_n(&sys.machine.trace, 10),
            sys.machine.metrics_report(),
            sys.machine.faults.summary(),
        )
    };
    let disarmed = run(None);
    let empty_plan = run(Some(FaultPlan::new(0xd15a_b1ed)));
    let never_fires = run(Some(FaultPlan::new(0xd15a_b1ed).with(
        vg_machine::FaultClass::DeviceIo,
        vg_machine::Trigger::AtCycle(u64::MAX),
    )));
    assert_eq!(disarmed, empty_plan, "armed-but-empty must be invisible");
    assert_eq!(disarmed, never_fires, "never-firing plan must be invisible");
    assert!(
        disarmed.5.is_empty(),
        "no fault table without fault counters"
    );
    assert_eq!(disarmed.1.page_faults, empty_plan.1.page_faults);
}

#[test]
fn profiling_does_not_perturb_cycles_counters_or_exports() {
    // The cycle-attribution profiler rides the same no-perturbation
    // invariant as the tracer: profiler-on must be bit-identical to
    // profiler-off in everything the simulation observes.
    let profiled = run_workload_with(true, true);
    let plain = run_workload_with(true, false);
    assert_eq!(
        profiled.machine.clock.cycles(),
        plain.machine.clock.cycles(),
        "profiling must not advance the simulated clock"
    );
    assert_eq!(
        profiled.machine.counters, plain.machine.counters,
        "profiling must leave every counter bit-identical"
    );
    assert_eq!(
        chrome_trace_json(&profiled.machine.trace),
        chrome_trace_json(&plain.machine.trace),
        "profiling must leave the flight recorder bit-identical"
    );
    assert_eq!(
        profiled.machine.metrics_report(),
        plain.machine.metrics_report(),
        "profiling must leave the metrics registry bit-identical"
    );
    // …and while invisible to the simulation, the profiled run's books
    // balance exactly against the shared clock.
    profiled
        .machine
        .profiler
        .assert_conservation(profiled.machine.clock.cycles());
    assert_eq!(
        profiled.machine.profiler.depth(),
        0,
        "attribution frames balance across the whole workload"
    );
    assert!(profiled.machine.profiler.total_attributed() > 0);
    assert_eq!(
        plain.machine.profiler.total_attributed(),
        0,
        "a disabled profiler accumulates nothing"
    );
    let folded = vg_trace::folded_stacks(&profiled.machine.profiler);
    assert!(
        folded.lines().any(|l| l.contains(";syscall:")),
        "folded stacks contain syscall frames: {folded}"
    );
}

#[test]
fn profiled_runs_are_deterministic() {
    let a = run_workload_with(false, true);
    let b = run_workload_with(false, true);
    assert_eq!(
        vg_trace::folded_stacks(&a.machine.profiler),
        vg_trace::folded_stacks(&b.machine.profiler)
    );
    assert_eq!(
        vg_trace::profile_report(&a.machine.profiler, 10),
        vg_trace::profile_report(&b.machine.profiler, 10)
    );
}

/// A small scheduled multi-process workload on `cpus` cores with tracing
/// and profiling on. Returns the system plus the spawned pids.
fn run_smp_workload(cpus: usize) -> (System, Vec<vg_kernel::Pid>) {
    let mut sys = System::boot_with_cpus(Mode::VirtualGhost, cpus);
    sys.machine.trace.enable(DEFAULT_TRACE_CAPACITY);
    sys.machine.profile_enable();
    let mut pids = Vec::new();
    for i in 0..4usize {
        let name = format!("smp-trace-{i}");
        sys.install_app(&name, i % 2 == 0, move || {
            Box::new(move |env| {
                let buf = env.mmap_anon(4096);
                let fd = env.open(&format!("/smp-{i}"), vg_kernel::syscall::O_CREAT);
                for r in 0..(1 + i as u64) {
                    env.write_mem(buf, format!("cpu spread {i}.{r}").as_bytes());
                    env.write(fd, buf, 14);
                }
                env.close(fd);
                0
            })
        });
        let pid = sys.spawn(&name);
        sys.sched_enqueue(pid);
        pids.push(pid);
    }
    let run = sys.run_queued();
    assert_eq!(run.exits.len(), 4);
    (sys, pids)
}

#[test]
fn multi_core_capture_is_deterministic() {
    // Same workload + same cpu count ⇒ byte-identical trace, metrics, and
    // profile exports, down to the per-core cycle books.
    let (a, _) = run_smp_workload(4);
    let (b, _) = run_smp_workload(4);
    assert_eq!(
        chrome_trace_json(&a.machine.trace),
        chrome_trace_json(&b.machine.trace),
        "4-core traces replay byte-identically"
    );
    assert_eq!(a.machine.metrics_report(), b.machine.metrics_report());
    assert_eq!(
        vg_trace::folded_stacks(&a.machine.profiler),
        vg_trace::folded_stacks(&b.machine.profiler)
    );
    assert_eq!(a.machine.cpu_clocks(), b.machine.cpu_clocks());
    assert_eq!(a.machine.counters, b.machine.counters);
    assert!(a.machine.counters.ipis > 0, "shootdown IPIs were traced");
}

#[test]
fn cpu_count_changes_timing_but_not_results() {
    // Different cpu counts ⇒ identical observable syscall results (exit
    // codes, file contents); only cycle accounting may differ.
    let (a, apids) = run_smp_workload(4);
    let (mut uni, upids) = run_smp_workload(1);
    assert_eq!(apids, upids, "pid assignment is cpu-count independent");
    let mut a = a;
    for (i, &pid) in apids.iter().enumerate() {
        assert_eq!(a.exit_status(pid), Some(0));
        assert_eq!(a.exit_status(pid), uni.exit_status(pid));
        assert_eq!(
            a.read_file(&format!("/smp-{i}")),
            uni.read_file(&format!("/smp-{i}")),
            "file written by proc {i} matches across cpu counts"
        );
    }
    assert_eq!(uni.machine.counters.ipis, 0, "1 core never sends IPIs");
    assert_eq!(
        uni.machine.cpu_clock(0),
        uni.machine.clock.cycles(),
        "single core owns the whole timeline"
    );
}

#[test]
fn exported_json_parses_as_chrome_trace_shape() {
    // No serde in the workspace: check the structural invariants by hand —
    // balanced braces/brackets and the required top-level key.
    let sys = run_workload(true);
    let json = chrome_trace_json(&sys.machine.trace);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"clock\":\"simulated-cycles\""));
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "balanced braces");
    assert_eq!(
        json.matches('[').count(),
        json.matches(']').count(),
        "balanced brackets"
    );
}
