//! Property-based tests for the hardware substrate.

#![cfg(test)]

use crate::devices::{Nic, Packet};
use crate::layout::{mask_kernel_pointer, Region, GHOST_BASE, GHOST_END};
use crate::mmu::{map_page_raw, AccessKind, Mmu};
use crate::phys::PhysMem;
use crate::pte::{Pte, PteFlags};
use crate::{Pfn, VAddr, PAGE_SIZE};
use proptest::prelude::*;

proptest! {
    /// The central sandboxing invariant: for *every* 64-bit address, the
    /// masked pointer is never inside the ghost partition (paper §4.3.1).
    #[test]
    fn mask_never_yields_ghost_address(addr in any::<u64>()) {
        let masked = mask_kernel_pointer(VAddr(addr));
        prop_assert_ne!(Region::of(masked), Region::Ghost);
    }

    /// Addresses below the ghost base pass through untouched — user-space
    /// pointers are unaffected by the instrumentation.
    #[test]
    fn mask_is_identity_below_ghost(addr in 0u64..GHOST_BASE) {
        prop_assert_eq!(mask_kernel_pointer(VAddr(addr)), VAddr(addr));
    }

    /// Masking is idempotent (applying it twice changes nothing) — required
    /// for composed instrumentation passes.
    #[test]
    fn mask_is_idempotent(addr in any::<u64>()) {
        let once = mask_kernel_pointer(VAddr(addr));
        prop_assert_eq!(mask_kernel_pointer(once), once);
    }

    /// Ghost addresses map onto kernel aliases preserving the low 39 bits —
    /// the displacement is exactly "OR bit 39".
    #[test]
    fn mask_preserves_low_bits(off in 0u64..(GHOST_END - GHOST_BASE)) {
        let a = GHOST_BASE + off;
        let m = mask_kernel_pointer(VAddr(a)).0;
        prop_assert_eq!(m & ((1 << 39) - 1), a & ((1 << 39) - 1));
    }

    /// PTE encode/decode roundtrips for all flag combinations and frame
    /// numbers within the architectural range.
    #[test]
    fn pte_roundtrips(pfn in 0u64..(1 << 40), present: bool, write: bool, user: bool, nx: bool) {
        let mut flags = 0;
        if present { flags |= PteFlags::PRESENT; }
        if write { flags |= PteFlags::WRITE; }
        if user { flags |= PteFlags::USER; }
        if nx { flags |= PteFlags::NX; }
        let pte = Pte::new(Pfn(pfn), PteFlags(flags));
        prop_assert_eq!(pte.pfn(), Pfn(pfn));
        prop_assert_eq!(pte.present(), present);
        prop_assert_eq!(pte.writable(), write);
        prop_assert_eq!(pte.user(), user);
        prop_assert_eq!(pte.no_execute(), nx);
    }

    /// Mapping a set of distinct pages and translating them back always
    /// lands in the right frame at the right offset.
    #[test]
    fn mmu_translations_match_mappings(
        pages in proptest::collection::btree_set(0u64..1 << 20, 1..20),
        offset in 0u64..PAGE_SIZE,
    ) {
        let mut phys = PhysMem::new(4096);
        let root = phys.alloc_frame().unwrap();
        let mut mmu = Mmu::new();
        mmu.set_root(root);
        let mut expect = Vec::new();
        for vpn in &pages {
            let frame = phys.alloc_frame().unwrap();
            map_page_raw(&mut phys, root, VAddr(vpn * PAGE_SIZE), Pte::new(frame, PteFlags::user_rw()))
                .unwrap();
            expect.push((vpn * PAGE_SIZE, frame));
        }
        for (base, frame) in expect {
            let pa = mmu
                .translate(&phys, VAddr(base + offset), AccessKind::Read, true)
                .unwrap();
            prop_assert_eq!(pa.pfn(), frame);
            prop_assert_eq!(pa.frame_offset(), offset);
        }
    }

    /// Frame alloc/free maintains exact accounting with no double handouts.
    #[test]
    fn phys_allocator_accounting(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut phys = PhysMem::new(64);
        let mut held: Vec<Pfn> = Vec::new();
        for alloc in ops {
            if alloc {
                if let Some(f) = phys.alloc_frame() {
                    prop_assert!(!held.contains(&f), "double allocation");
                    held.push(f);
                }
            } else if let Some(f) = held.pop() {
                phys.free_frame(f);
            }
            prop_assert_eq!(phys.free_frames(), 64 - held.len());
        }
    }

    /// Page-local reads always return exactly what was last written.
    #[test]
    fn phys_read_your_writes(
        off in 0u64..4000,
        data in proptest::collection::vec(any::<u8>(), 1..96),
    ) {
        prop_assume!(off as usize + data.len() <= PAGE_SIZE as usize);
        let mut phys = PhysMem::new(4);
        let f = phys.alloc_frame().unwrap();
        phys.write_bytes(f, off, &data);
        let mut back = vec![0u8; data.len()];
        phys.read_bytes(f, off, &mut back);
        prop_assert_eq!(back, data);
    }

    /// The per-flow TX queues behave exactly like one FIFO read back by
    /// drain-filter-requeue: random interleaved transmits over 1–8 flows,
    /// mixed with takes and drains, give the same bytes per flow and the
    /// same global drain order.
    #[test]
    fn nic_tx_queues_match_single_fifo_model(
        flows in 1u64..9,
        ops in proptest::collection::vec((0u8..8, any::<u64>(), 0usize..64), 1..200),
    ) {
        let mut nic = Nic::new();
        let mut model: Vec<Packet> = Vec::new();
        for (i, (op, pick, len)) in ops.into_iter().enumerate() {
            let flow = pick % flows;
            match op {
                0..=4 => {
                    let p = Packet { flow, data: vec![i as u8; len] };
                    nic.transmit_bytes(flow, &p.data);
                    model.push(p);
                }
                5 | 6 => {
                    let (hit, keep): (Vec<Packet>, Vec<Packet>) =
                        model.drain(..).partition(|p| p.flow == flow);
                    model = keep;
                    let want: Vec<u8> = hit.into_iter().flat_map(|p| p.data).collect();
                    prop_assert_eq!(nic.wire_take(flow), want);
                }
                _ => prop_assert_eq!(nic.wire_drain(), std::mem::take(&mut model)),
            }
        }
        prop_assert_eq!(nic.wire_drain(), model);
    }
}
