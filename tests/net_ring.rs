//! Differential and adversarial tests for the descriptor-ring data plane.
//!
//! Three claims pinned at the whole-system level:
//!
//! 1. **Equivalence** — the batched ring ([`NetMode::Ring`]) and the
//!    per-call reference path ([`NetMode::Reference`]) are observationally
//!    identical: an event-loop server run under both modes serves the same
//!    bytes to every flow, performs the same syscalls/traps/copies, moves
//!    the same packets, and records the same (empty) denial sequence. Only
//!    the CPU-cycle cost may differ. Proved over random connection trains.
//! 2. **Attack parity** — a hostile kernel pointing a ring descriptor at a
//!    ghost frame is refused exactly like the classic `sva_iommu_map`
//!    route: same `DmaViolation` flight-recorder entries, nothing on the
//!    wire. Batching must not open a side door around the IOMMU policy.
//! 3. **Scale** — at 1024 concurrent connections the event-loop + ring
//!    configuration clears the >=3x requests-per-megacycle acceptance bar
//!    over the synchronous + per-call reference (printed by
//!    `paper-tables c10k` and pinned exactly by its golden test).

use proptest::prelude::*;
use vg_apps::thttpd::{self, ServerKind};
use vg_core::{DescRing, FrameKind, RingDesc, RingDir};
use vg_kernel::syscall::EAGAIN;
use vg_kernel::{Mode, NetMode, System};
use vg_machine::{DenialKind, Pfn};

const ECHO_PORT: u16 = 4242;
const POLLIN: u64 = 0x1;
const POLLHUP: u64 = 0x2;

/// Everything observable about one echo-server run.
struct EchoRun {
    /// Bytes each client flow got back, in connect order.
    bytes: Vec<Vec<u8>>,
    /// Mode-invariant counters: packets, syscalls, traps, bytes copied.
    counters: [u64; 4],
    /// Flight-recorder denial sequence as (kind, addr) pairs.
    denials: Vec<(DenialKind, u64)>,
    /// Ring doorbells rung (positive on the ring path, zero on reference).
    doorbells: u64,
}

/// Boots a fresh system in `mode`, pre-queues one connection per train
/// (payload + half-close), then runs a poll/readv/writev echo server over
/// all of them and collects every observable the differential test
/// compares. `wire_recv` drains destructively, so each flow is read once.
fn run_echo(mode: NetMode, trains: &[Vec<u8>]) -> EchoRun {
    let mut sys = System::boot(Mode::VirtualGhost);
    sys.net_mode = mode;
    let mut flows = Vec::new();
    for t in trains {
        let flow = sys.wire_connect(ECHO_PORT).expect("wire connect");
        sys.wire_send(flow, t);
        sys.wire_close(flow);
        flows.push(flow);
    }
    let n = trains.len();
    sys.install_app("echo", false, move || {
        Box::new(move |env| {
            let sock = env.socket();
            env.bind(sock, ECHO_PORT);
            env.listen(sock);
            let rxbuf = env.mmap_anon(8192);
            let iov_va = env.mmap_anon(4096);
            let scratch = env.mmap_anon(16 * 4096);
            let mut conns: Vec<i64> = Vec::new();
            loop {
                let c = env.accept(sock);
                if c < 0 {
                    break;
                }
                conns.push(c);
            }
            assert_eq!(conns.len(), n, "every pre-queued client accepted");
            let mut eof = vec![false; conns.len()];
            while !conns.is_empty() {
                let events = env.poll(scratch, &conns).1.to_vec();
                for i in 0..conns.len() {
                    if events[i] & POLLIN == 0 {
                        if events[i] & POLLHUP != 0 {
                            eof[i] = true;
                        }
                        continue;
                    }
                    loop {
                        let r = env.readv(conns[i], iov_va, &[(rxbuf, 8192)]);
                        if r == EAGAIN {
                            break;
                        }
                        if r <= 0 {
                            eof[i] = true;
                            break;
                        }
                        assert_eq!(env.writev(conns[i], iov_va, &[(rxbuf, r as usize)]), r);
                        if (r as usize) < 8192 {
                            break;
                        }
                    }
                }
                let mut i = 0;
                while i < conns.len() {
                    if eof[i] {
                        env.close(conns[i]);
                        conns.swap_remove(i);
                        eof.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
            }
            env.close(sock);
            0
        })
    });
    let pid = sys.spawn("echo");
    assert_eq!(sys.run_until_exit(pid), 0);
    let bytes = flows.iter().map(|&f| sys.wire_recv(f)).collect();
    let c = &sys.machine.counters;
    EchoRun {
        bytes,
        counters: [c.packets, c.syscalls, c.traps, c.bytes_copied],
        denials: sys
            .machine
            .trace
            .flight
            .denials()
            .map(|d| (d.kind, d.addr))
            .collect(),
        doorbells: c.ring_doorbells,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Claim 1: random trains, both data planes, identical observables.
    #[test]
    fn ring_and_reference_are_observationally_identical(
        trains in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..2048), 1..6)
    ) {
        let ring = run_echo(NetMode::Ring, &trains);
        let reference = run_echo(NetMode::Reference, &trains);
        // The echo actually echoed: every flow got its train back.
        prop_assert_eq!(&ring.bytes, &trains);
        // Bytes, segmentation, syscalls, traps, copies: identical.
        prop_assert_eq!(&ring.bytes, &reference.bytes);
        prop_assert_eq!(ring.counters, reference.counters);
        // Denial sequences identical (and empty: no attack here).
        prop_assert_eq!(&ring.denials, &reference.denials);
        prop_assert!(ring.denials.is_empty());
        // The runs really exercised different planes.
        prop_assert!(ring.doorbells > 0);
        prop_assert_eq!(reference.doorbells, 0);
    }
}

const SECRET: &[u8] = b"ghost ring secret: k=0xdeadbeef";

/// Observables of one ghost-frame DMA attack run.
struct AttackRun {
    denials: Vec<(DenialKind, u64)>,
    wire: Vec<Vec<u8>>,
}

/// A ghosting victim stores [`SECRET`] in ghost memory; the hostile kernel
/// then tries to expose the backing frame to DMA twice — via the ring
/// (one TX exfiltration descriptor, one RX corruption descriptor) or via
/// two classic `sva_iommu_map` calls — and we report what the flight
/// recorder and the wire saw.
fn ghost_dma_attack(mode: Mode, via_ring: bool) -> AttackRun {
    let mut sys = System::boot(mode);
    sys.install_app("victim", true, move || {
        Box::new(move |env| {
            let va = env.allocgm(1).expect("allocgm");
            env.write_mem(va, SECRET);
            // Hostile-kernel step: locate the backing frame. The kernel
            // legitimately knows frame kinds and contents on a native
            // machine; under Virtual Ghost the *checks*, not secrecy of
            // the frame number, are what stop the DMA.
            let pfn = (0..1u64 << 16)
                .map(Pfn)
                .find(|&p| {
                    env.sys.vm.frames.kind(p) == FrameKind::Ghost && {
                        let mut head = vec![0u8; SECRET.len()];
                        env.sys.machine.phys.read_bytes(p, 0, &mut head);
                        head == SECRET
                    }
                })
                .expect("ghost frame backing the secret");
            if via_ring {
                let mut tx = DescRing::new(RingDir::ToDevice, 4);
                tx.post(RingDesc {
                    pfn,
                    off: 0,
                    len: SECRET.len() as u32,
                    flow: 7,
                })
                .unwrap();
                env.sys.vm.sva_ring_doorbell(&mut env.sys.machine, &mut tx);
                let mut rx = DescRing::new(RingDir::FromDevice, 4);
                rx.post(RingDesc {
                    pfn,
                    off: 0,
                    len: 64,
                    flow: 7,
                })
                .unwrap();
                env.sys.vm.sva_ring_doorbell(&mut env.sys.machine, &mut rx);
            } else {
                for _ in 0..2 {
                    let _ = env.sys.vm.sva_iommu_map(&mut env.sys.machine, pfn);
                }
            }
            0
        })
    });
    let pid = sys.spawn("victim");
    assert_eq!(sys.run_until_exit(pid), 0);
    AttackRun {
        denials: sys
            .machine
            .trace
            .flight
            .denials()
            .map(|d| (d.kind, d.addr))
            .collect(),
        wire: sys
            .machine
            .nic
            .wire_drain()
            .into_iter()
            .map(|p| p.data)
            .collect(),
    }
}

/// Claim 2: batching does not weaken the IOMMU policy. The ring attack and
/// the classic mapping attack produce the *same* denial sequence — two
/// `DmaViolation` entries naming the ghost frame — and neither moves a
/// byte onto the wire.
#[test]
fn ring_and_classic_ghost_dma_attacks_record_identical_denials() {
    let ring = ghost_dma_attack(Mode::VirtualGhost, true);
    let classic = ghost_dma_attack(Mode::VirtualGhost, false);
    assert_eq!(ring.denials, classic.denials);
    assert_eq!(ring.denials.len(), 2);
    for (kind, addr) in &ring.denials {
        assert_eq!(*kind, DenialKind::DmaViolation);
        assert_eq!(*addr, ring.denials[0].1, "both attempts name one frame");
    }
    assert!(ring.wire.is_empty(), "no exfiltration through the ring");
    assert!(classic.wire.is_empty());
}

/// The contrast run: on a native machine the identical TX descriptor ships
/// the ghost frame's plaintext straight to the wire, with nothing in the
/// flight recorder. This is the attack the ring checks exist to stop.
#[test]
fn native_ring_attack_exfiltrates_the_secret() {
    let native = ghost_dma_attack(Mode::Native, true);
    assert!(native.denials.is_empty());
    assert_eq!(native.wire.len(), 1, "TX descriptor transmitted");
    assert_eq!(native.wire[0], SECRET);
}

/// Claim 3: the `paper-tables c10k` acceptance bar, asserted live at full
/// scale — >=3x requests-per-megacycle for event loop + ring over the
/// synchronous + per-call reference at 1024 concurrent connections.
#[test]
fn event_loop_ring_hits_3x_at_1024_connections() {
    let mut ring_sys = System::boot(Mode::VirtualGhost);
    ring_sys.net_mode = NetMode::Ring;
    let ev = thttpd::c10k(&mut ring_sys, 512, 1024, 8, ServerKind::EventLoop);

    let mut ref_sys = System::boot(Mode::VirtualGhost);
    ref_sys.net_mode = NetMode::Reference;
    let sy = thttpd::c10k(&mut ref_sys, 512, 1024, 8, ServerKind::Sync);

    assert_eq!(ev.requests, 1024 * 8);
    assert_eq!(sy.requests, 1024 * 8);
    let speedup = ev.req_per_megacycle / sy.req_per_megacycle;
    assert!(
        speedup >= 3.0,
        "event loop + ring must be >=3x the sync reference at 1024 conns, got {speedup:.2}x \
         ({:.1} vs {:.1} req/Mcyc)",
        ev.req_per_megacycle,
        sy.req_per_megacycle
    );
}
