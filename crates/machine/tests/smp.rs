//! SMP machine semantics: per-core CPU/MMU state, IPI-based TLB shootdown,
//! per-core cycle accounting, and the single-core bit-identity guarantee.

use vg_machine::mmu::map_page_raw;
use vg_machine::{
    AccessKind, Machine, MachineConfig, Mmu, Pfn, Pte, PteFlags, TlbStats, VAddr, PAGE_SIZE,
};

fn machine_with_cpus(cpus: usize) -> Machine {
    Machine::new(MachineConfig {
        cpus,
        ..Default::default()
    })
}

/// Builds a one-page user mapping and returns (root, va, frame).
fn map_one_page(m: &mut Machine) -> (Pfn, VAddr, Pfn) {
    let root = m.phys.alloc_frame().expect("root");
    let frame = m.phys.alloc_frame().expect("frame");
    let va = VAddr(0x4000_0000);
    map_page_raw(&mut m.phys, root, va, Pte::new(frame, PteFlags::user_rw())).expect("map");
    (root, va, frame)
}

#[test]
fn single_core_flush_charges_nothing_and_sends_no_ipis() {
    let mut m = machine_with_cpus(1);
    let (root, va, _) = map_one_page(&mut m);
    m.mmu.set_root(root);
    m.mmu
        .translate(&m.phys, va, AccessKind::Read, true)
        .expect("mapped");
    let before = m.clock.cycles();
    m.tlb_flush_page(va.vpn());
    assert_eq!(m.clock.cycles(), before, "flush on 1 core is free");
    assert_eq!(m.counters.ipis, 0);
    assert_eq!(m.counters.tlb_shootdowns, 0);
    assert_eq!(m.cpu.ipi.sent, 0);
    assert_eq!(m.num_cpus(), 1);
}

#[test]
fn switch_cpu_swaps_register_and_mmu_state() {
    let mut m = machine_with_cpus(2);
    let root0 = m.phys.alloc_frame().expect("root0");
    let root1 = m.phys.alloc_frame().expect("root1");
    m.cpu.rip = 0x1000;
    m.mmu.set_root(root0);
    m.switch_cpu(1);
    assert_eq!(m.cur_cpu(), 1);
    assert_eq!(m.cpu.rip, 0, "core 1 starts at reset state");
    assert_eq!(m.mmu.root(), None, "core 1 has its own MMU");
    m.cpu.rip = 0x2000;
    m.mmu.set_root(root1);
    m.switch_cpu(0);
    assert_eq!(m.cpu.rip, 0x1000, "core 0 state restored");
    assert_eq!(m.mmu.root(), Some(root0));
    m.switch_cpu(1);
    assert_eq!(m.cpu.rip, 0x2000);
    assert_eq!(m.mmu.root(), Some(root1));
}

#[test]
fn shootdown_flushes_sibling_tlb_and_charges_both_cores() {
    let mut m = machine_with_cpus(2);
    let (root, va, _) = map_one_page(&mut m);
    // Warm core 1's TLB.
    m.switch_cpu(1);
    m.mmu.set_root(root);
    m.mmu
        .translate(&m.phys, va, AccessKind::Read, true)
        .expect("mapped");
    m.mmu
        .translate(&m.phys, va, AccessKind::Read, true)
        .expect("mapped");
    assert_eq!(m.mmu.stats().hits_total(), 1, "second translate hit");
    // Shoot down from core 0.
    m.switch_cpu(0);
    m.mmu.set_root(root);
    let clock0 = m.clock.cycles();
    let (w0, w1) = (m.cpu_clock(0), m.cpu_clock(1));
    m.tlb_flush_page(va.vpn());
    let (send, recv) = (m.costs.ipi_send, m.costs.ipi_receive);
    assert_eq!(m.counters.tlb_shootdowns, 1);
    assert_eq!(m.counters.ipis, 1, "one sibling, one IPI");
    assert_eq!(m.cpu.ipi.sent, 1);
    assert_eq!(m.clock.cycles() - clock0, send + recv);
    assert_eq!(m.cpu_clock(0) - w0, send, "sender pays on its core");
    assert_eq!(m.cpu_clock(1) - w1, recv, "receiver pays on its core");
    // Core 1's cached translation is gone: the next access walks again.
    m.switch_cpu(1);
    assert_eq!(m.cpu.ipi.received, 1);
    let misses = m.mmu.stats().misses_total();
    m.mmu
        .translate(&m.phys, va, AccessKind::Read, true)
        .expect("still mapped, just not cached");
    assert_eq!(m.mmu.stats().misses_total(), misses + 1, "stale entry shot");
}

#[test]
fn per_core_clocks_sum_to_the_global_clock() {
    let mut m = machine_with_cpus(4);
    m.charge(100);
    m.charge_on(2, 50);
    m.switch_cpu(3);
    m.charge(7);
    m.charge_on(1, 3);
    let sum: u64 = m.cpu_clocks().iter().sum();
    assert_eq!(sum, m.clock.cycles(), "every charge lands on one core");
    assert_eq!(m.cpu_clock(0), 100);
    assert_eq!(m.cpu_clock(1), 3);
    assert_eq!(m.cpu_clock(2), 50);
    assert_eq!(m.cpu_clock(3), 7);
}

#[test]
fn tlb_counters_aggregate_across_cores() {
    let mut m = machine_with_cpus(2);
    let (root, va, _) = map_one_page(&mut m);
    m.mmu.set_root(root);
    m.mmu
        .translate(&m.phys, va, AccessKind::Read, true)
        .expect("core 0 walk");
    m.switch_cpu(1);
    m.mmu.set_root(root);
    m.mmu
        .translate(&m.phys, va, AccessKind::Read, true)
        .expect("core 1 walk");
    m.mmu
        .translate(&m.phys, va, AccessKind::Read, true)
        .expect("core 1 hit");
    // Translations charge nothing; the next charge mirrors the MMUs.
    m.charge(0);
    // Each core walked once (miss), core 1 also hit once: the mirrored
    // counters are the sum over both TLBs, not the active core alone.
    assert_eq!(m.counters.tlb_misses.iter().sum::<u64>(), 2);
    assert_eq!(m.counters.tlb_hits.iter().sum::<u64>(), 1);
    let per_cpu = m.tlb_per_cpu();
    assert_eq!(per_cpu.len(), 2);
    assert_eq!(per_cpu[0].misses.iter().sum::<u64>(), 1);
    assert_eq!(per_cpu[1].misses.iter().sum::<u64>(), 1);
    assert_eq!(per_cpu[1].hits.iter().sum::<u64>(), 1);
    let agg: TlbStats = per_cpu.iter().copied().sum();
    assert_eq!(agg.hits_total() + agg.misses_total(), 3);
}

/// The `Counters` TLB mirror is exact after every charge: whatever mix of
/// translations (hits, misses, faults, evictions), core switches and
/// cross-core charges precedes it, `counters.tlb_*` equals the sum of the
/// per-core statistics read straight from the MMUs.
#[test]
fn tlb_mirror_is_exact_after_every_charge_on_four_cores() {
    let mut m = machine_with_cpus(4);
    let root = m.phys.alloc_frame().expect("root");
    // 12 user pages, one read-only; far more distinct pages than one
    // 8-entry TLB can hold, so the mix includes LRU evictions.
    let vas: Vec<VAddr> = (0..12u64)
        .map(|i| {
            let va = VAddr(0x4000_0000 + i * PAGE_SIZE);
            let frame = m.phys.alloc_frame().expect("frame");
            let mut pte = Pte::new(frame, PteFlags::user_rw());
            if i == 3 {
                pte = pte.read_only();
            }
            map_page_raw(&mut m.phys, root, va, pte).expect("map");
            va
        })
        .collect();
    for c in (0..4).rev() {
        m.switch_cpu(c);
        m.mmu = Mmu::with_tlb(8);
        m.mmu.set_root(root);
    }
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut charges = 0;
    for _ in 0..4000 {
        let r = rng();
        match r % 8 {
            0..=3 => {
                let va = VAddr(vas[(r >> 8) as usize % vas.len()].0 + (r >> 16) % PAGE_SIZE);
                let access = [AccessKind::Read, AccessKind::Write, AccessKind::Execute]
                    [(r >> 32) as usize % 3];
                let _ = m.mmu.translate(&m.phys, va, access, (r >> 40) & 1 == 1);
            }
            4 => m.switch_cpu((r >> 8) as usize % 4),
            5 => m.tlb_flush_page(vas[(r >> 8) as usize % vas.len()].vpn()),
            6 => {
                m.charge((r >> 8) % 100);
                charges += 1;
            }
            _ => {
                m.charge_on((r >> 8) as usize % 4, (r >> 16) % 100);
                charges += 1;
            }
        }
        if r % 8 >= 5 {
            // tlb_flush_page charges IPIs on a multi-core machine.
            let sum: TlbStats = m.tlb_per_cpu().iter().copied().sum();
            assert_eq!(m.counters.tlb_hits, sum.hits);
            assert_eq!(m.counters.tlb_misses, sum.misses);
            assert_eq!(m.counters.tlb_evictions, sum.evictions);
        }
    }
    assert!(charges > 500);
    let sum: TlbStats = m.tlb_per_cpu().iter().copied().sum();
    assert!(sum.evictions > 0 && sum.hits_total() > 0, "{sum:?}");
}

#[test]
fn shootdown_reaches_every_sibling_on_four_cores() {
    let mut m = machine_with_cpus(4);
    let (root, va, _) = map_one_page(&mut m);
    m.mmu.set_root(root);
    m.tlb_flush_page(va.vpn());
    assert_eq!(m.counters.tlb_shootdowns, 1);
    assert_eq!(m.counters.ipis, 3, "one IPI per sibling core");
    assert_eq!(m.cpu.ipi.sent, 3);
    for c in 1..4 {
        m.switch_cpu(c);
        assert_eq!(m.cpu.ipi.received, 1, "core {c} handled the IPI");
    }
}
