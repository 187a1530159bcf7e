//! Randomized fault-campaign soak harness.
//!
//! Each campaign derives a fault plan (2–4 specs, mixed triggers) from a
//! single `u64` seed, arms it, and drives the paper's workloads (LMBench
//! open/close, Postmark, a thttpd-style serve loop, and a ghost-swap
//! segment). Three invariants hold for every seed:
//!
//! 1. **No panic** — the kernel degrades (retries, error returns, fault
//!    kills), it never unwinds.
//! 2. **Attribution** — every `FaultKill`/`SwapIntegrity` record in the
//!    flight recorder is attributable to an injected fault that happened
//!    at or before it.
//! 3. **Replay** — the same seed reproduces the run bit-identically:
//!    cycles, counters, metrics report, flight records, injection log.

use proptest::prelude::*;
use vg_apps::{lmbench, postmark, thttpd};
use vg_kernel::syscall::O_CREAT;
use vg_kernel::{Mode, System};
use vg_machine::{DenialKind, FaultPlan, InjectedFault};

/// Seeds that historically exercised interesting schedules (kept as a
/// checked-in corpus so regressions replay exactly): a swap-corrupt kill,
/// a persistent device failure, an IRQ storm over Postmark, a frame-
/// exhaustion ENOMEM, and a quiet plan that injects nothing.
const INTERESTING_SEEDS: [u64; 8] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_002a,
    0xdead_beef_0000_0001,
    0x5eed_0000_0000_0007,
    0x0123_4567_89ab_cdef,
    0xffff_ffff_ffff_fffe,
    0x0000_c0ff_ee00_0013,
    0x7777_7777_7777_7777,
];

/// Everything a campaign's outcome is judged and replayed on.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    cycles: u64,
    counters: vg_machine::Counters,
    metrics: String,
    denials: Vec<(u64, DenialKind, &'static str)>,
    injections: Vec<InjectedFault>,
}

/// Runs one full campaign for `seed` and returns its fingerprint.
fn run_campaign(seed: u64) -> Fingerprint {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.machine.faults.arm(FaultPlan::campaign(seed));

    // LMBench segment.
    lmbench::open_close(&mut sys, 15);

    // Ghost-swap segment: the classic target for swap corruption.
    sys.install_app("ghost-seg", true, || {
        Box::new(|env| {
            let Ok(va) = env.allocgm(2) else { return 0 };
            env.write_mem(va, b"campaign-secret");
            let pid = env.pid;
            env.sys.kernel_swap_out_ghost(pid, 2);
            let _ = env.read_mem(va, 15);
            let _ = env.freegm(va, 2);
            0
        })
    });
    let pid = sys.spawn("ghost-seg");
    sys.run_until_exit(pid);

    // Postmark segment (file-system churn under fire).
    postmark::run(
        &mut sys,
        postmark::PostmarkConfig {
            base_files: 8,
            transactions: 20,
            ..Default::default()
        },
    );

    // thttpd-style segment, written fault-tolerantly: served counts may
    // drop under injection; what matters is that the system survives.
    for _ in 0..3 {
        if let Some(flow) = sys.wire_connect(thttpd::HTTP_PORT) {
            sys.wire_send(flow, b"GET /index.dat HTTP/1.0\r\n\r\n");
        }
    }
    sys.write_file("/index.dat", &[0x55u8; 2048]);
    sys.install_app("http-seg", false, || {
        Box::new(|env| {
            let sock = env.socket();
            if sock < 0 {
                return 0; // injected kernel-alloc failure: degrade
            }
            env.bind(sock, thttpd::HTTP_PORT);
            env.listen(sock);
            let buf = env.mmap_anon(8192);
            if (buf as i64) < 0 {
                return 0; // injected frame exhaustion: degrade
            }
            loop {
                let conn = env.accept(sock);
                if conn < 0 {
                    break;
                }
                let n = env.recv(conn, buf, 1024);
                if n > 0 {
                    let fd = env.open("/index.dat", 0);
                    if fd >= 0 {
                        loop {
                            let r = env.read(fd, buf, 8192);
                            if r <= 0 {
                                break;
                            }
                            env.send(conn, buf, r as usize);
                        }
                        env.close(fd);
                    }
                }
                env.close(conn);
            }
            0
        })
    });
    let pid = sys.spawn("http-seg");
    sys.run_until_exit(pid);

    // A final mixed flush: dirty data through a possibly-flaky device.
    sys.install_app("flusher", false, || {
        Box::new(|env| {
            let buf = env.mmap_anon(4096);
            if (buf as i64) < 0 {
                return 0; // injected frame exhaustion: degrade
            }
            env.write_mem(buf, &[3u8; 512]);
            let fd = env.open("/flush.dat", O_CREAT);
            if fd >= 0 {
                env.write(fd, buf, 512);
                env.close(fd);
            }
            let _ = env.fsync();
            0
        })
    });
    let pid = sys.spawn("flusher");
    sys.run_until_exit(pid);

    Fingerprint {
        cycles: sys.machine.clock.cycles(),
        counters: sys.machine.counters,
        metrics: sys.machine.metrics_report(),
        denials: sys
            .machine
            .trace
            .flight
            .denials()
            .map(|d| (d.at, d.kind, d.detail))
            .collect(),
        injections: sys.machine.faults.log().to_vec(),
    }
}

/// Invariant 2: kills and integrity refusals must trace back to an
/// injection no later than the record itself.
fn assert_attributable(fp: &Fingerprint, seed: u64) {
    for &(at, kind, detail) in &fp.denials {
        if matches!(kind, DenialKind::FaultKill | DenialKind::SwapIntegrity) {
            assert!(
                fp.injections.iter().any(|f| f.at <= at),
                "seed {seed:#x}: unattributed {kind:?} at cycle {at} ({detail})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn campaigns_survive_and_replay(seed in any::<u64>()) {
        let fp = run_campaign(seed); // invariant 1: reaching here = no panic
        assert_attributable(&fp, seed);
        let replay = run_campaign(seed);
        assert_eq!(fp, replay, "seed {seed:#x} must replay bit-identically");
    }
}

#[test]
fn interesting_seed_corpus_replays() {
    for &seed in &INTERESTING_SEEDS {
        let fp = run_campaign(seed);
        assert_attributable(&fp, seed);
        let replay = run_campaign(seed);
        assert_eq!(fp, replay, "corpus seed {seed:#x}");
    }
}

#[test]
fn quiet_plan_matches_fully_disarmed_run() {
    // A campaign whose triggers never fire must not differ from a disarmed
    // run in any observable way (armed-but-idle is still zero-cost).
    let run_disarmed = || {
        let mut sys = System::boot(Mode::VirtualGhost);
        lmbench::open_close(&mut sys, 10);
        (
            sys.machine.clock.cycles(),
            sys.machine.counters,
            sys.machine.metrics_report(),
        )
    };
    let run_idle_armed = || {
        let mut sys = System::boot(Mode::VirtualGhost);
        // An explicit plan with no specs: armed, draws nothing, fires never.
        sys.machine.faults.arm(FaultPlan::new(0x1d1e));
        lmbench::open_close(&mut sys, 10);
        (
            sys.machine.clock.cycles(),
            sys.machine.counters,
            sys.machine.metrics_report(),
        )
    };
    assert_eq!(run_disarmed(), run_idle_armed());
}
