//! Batched checked DMA: a virtio-style split descriptor ring (paper §4.3.3
//! applied to a modern data plane).
//!
//! The classic path ([`crate::io`]) validates every DMA mapping with its own
//! `sva_iommu_map`/`sva_iommu_unmap` pair and every device poke with a
//! checked port write — safe, but the per-operation cost dominates network
//! throughput. The ring amortizes it: the kernel posts any number of
//! descriptors into the available ring, then rings the doorbell **once**.
//! The doorbell is a single checked port write; each descriptor then costs
//! one frame-kind check (the same ghost/SVA-internal/page-table refusal
//! `sva_iommu_map` applies) plus the DMA itself, and all completions retire
//! through the used ring under **one** completion interrupt.
//!
//! The security argument is unchanged from the paper: the VM — not the
//! kernel — walks the descriptors, so a hostile kernel that points a
//! descriptor at a ghost frame gets a refused descriptor (`ok == false`, a
//! [`DenialKind::DmaViolation`] flight-recorder entry) rather than an
//! exfiltrating DMA. On a native (unprotected) machine the same descriptor
//! transmits the ghost frame's plaintext — the attack contrast the tests
//! pin down.

use crate::frames::FrameKind;
use crate::SvaVm;
use std::collections::VecDeque;
use vg_machine::devices::MTU;
use vg_machine::{DenialKind, Domain, Machine, Pfn};

/// Transfer direction of every descriptor in a ring (rings are
/// direction-homogeneous, like a virtio queue pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingDir {
    /// Guest memory → device (NIC transmit).
    ToDevice,
    /// Device → guest memory (NIC receive).
    FromDevice,
}

/// One DMA descriptor: a payload window inside a physical frame, tagged
/// with the flow it belongs to. One descriptor carries at most one
/// MTU-sized packet, so segmentation is identical to the per-call path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingDesc {
    /// Frame holding (TX) or receiving (RX) the payload.
    pub pfn: Pfn,
    /// Byte offset of the payload window inside the frame.
    pub off: u32,
    /// Payload length in bytes (TX) or window capacity (RX); at most [`MTU`].
    pub len: u32,
    /// Flow id stamped on transmitted packets; ignored for RX descriptors
    /// (the used element reports the arriving packet's flow instead).
    pub flow: u64,
}

/// A retired descriptor in the used ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsedElem {
    /// Descriptor-table slot this element retires.
    pub slot: u16,
    /// The descriptor as posted (returned so the kernel can recycle the
    /// frame without keeping a shadow table).
    pub desc: RingDesc,
    /// Bytes actually transferred.
    pub written: u32,
    /// Flow id of the transfer (TX: the descriptor's; RX: the packet's).
    pub flow: u64,
    /// `false` when the VM refused the descriptor (protected frame) or the
    /// device had nothing to deliver; no bytes moved in that case.
    pub ok: bool,
}

/// A split ring: descriptor table + available queue + used queue, all in
/// ordinary (non-ghost) memory, driven through
/// [`SvaVm::sva_ring_doorbell`].
#[derive(Debug)]
pub struct DescRing {
    /// Direction shared by every descriptor in this ring.
    pub dir: RingDir,
    table: Vec<Option<RingDesc>>,
    /// Free-slot bitmap kept in step with `table`: bit `i % 64` of word
    /// `i / 64` is set while slot `i` is empty.
    free: Vec<u64>,
    avail: VecDeque<u16>,
    used: VecDeque<UsedElem>,
    /// Doorbell writes since creation (one per submitted batch).
    pub doorbells: u64,
    /// Completion interrupts since creation (one per retired batch).
    pub interrupts: u64,
}

impl DescRing {
    /// An empty ring with `capacity` descriptor slots.
    pub fn new(dir: RingDir, capacity: usize) -> Self {
        // Word `w` covers slots 64w.., of which `capacity - 64w` (at most
        // 64) exist.
        let free = (0..capacity.div_ceil(64))
            .map(|w| u64::MAX >> (64 - (capacity - 64 * w).min(64)))
            .collect();
        DescRing {
            dir,
            table: vec![None; capacity],
            free,
            avail: VecDeque::new(),
            used: VecDeque::new(),
            doorbells: 0,
            interrupts: 0,
        }
    }

    /// Posts a descriptor into the lowest free slot of the available ring.
    /// Returns the slot, or `None` when the table is full (the kernel must
    /// ring the doorbell and retire completions first).
    ///
    /// # Panics
    ///
    /// Panics if `desc.len` exceeds [`MTU`] — descriptors are per-packet by
    /// construction.
    pub fn post(&mut self, desc: RingDesc) -> Option<u16> {
        assert!(desc.len as usize <= MTU, "ring descriptor exceeds MTU");
        let w = self.free.iter().position(|&word| word != 0)?;
        let bit = self.free[w].trailing_zeros() as usize;
        self.free[w] &= !(1u64 << bit);
        let slot = (w * 64 + bit) as u16;
        self.table[slot as usize] = Some(desc);
        self.avail.push_back(slot);
        Some(slot)
    }

    /// Empties `slot` on retire, returning the descriptor it held.
    fn retire_slot(&mut self, slot: u16) -> RingDesc {
        let slot = slot as usize;
        self.free[slot / 64] |= 1u64 << (slot % 64);
        self.table[slot]
            .take()
            .expect("available slot holds a descriptor")
    }

    /// Number of descriptors waiting for a doorbell.
    pub fn avail_len(&self) -> usize {
        self.avail.len()
    }

    /// Pops the next retired descriptor, oldest first.
    pub fn pop_used(&mut self) -> Option<UsedElem> {
        self.used.pop_front()
    }
}

impl SvaVm {
    /// Rings a descriptor ring's doorbell: one checked port write submits
    /// the whole available queue. The VM walks each descriptor, applies the
    /// same frame-kind refusal as [`sva_iommu_map`](Self::sva_iommu_map)
    /// (recording a [`DenialKind::DmaViolation`] for refused frames), maps
    /// the frame into the IOMMU only for the duration of the transfer, and
    /// retires every descriptor into the used ring under one completion
    /// interrupt. Returns the number of descriptors retired.
    ///
    /// TX descriptors transmit one packet each; RX descriptors capture one
    /// pending packet each (retiring `ok == false` when the NIC queue runs
    /// dry). Wire-side cycle charges per packet are identical to the
    /// per-call path, so batching changes CPU cost only.
    pub fn sva_ring_doorbell(&mut self, machine: &mut Machine, ring: &mut DescRing) -> usize {
        machine.prof_push(Domain::Sva, "sva.ring_doorbell");
        machine.charge(machine.costs.io_check + 20);
        machine.counters.ring_doorbells += 1;
        ring.doorbells += 1;

        let mut retired = 0usize;
        while let Some(slot) = ring.avail.pop_front() {
            let desc = ring.retire_slot(slot);
            machine.counters.ring_descs += 1;
            // One frame-kind check per descriptor — the amortized residue
            // of the classic map/unmap pair.
            machine.charge(5);
            let protected = self.protections.enforced
                && matches!(
                    self.frames.kind(desc.pfn),
                    FrameKind::Ghost | FrameKind::SvaInternal | FrameKind::PageTable
                );
            if protected {
                machine.record_denial(
                    DenialKind::DmaViolation,
                    desc.pfn.0,
                    "ring descriptor names a protected frame",
                );
                ring.used.push_back(UsedElem {
                    slot,
                    desc,
                    written: 0,
                    flow: desc.flow,
                    ok: false,
                });
                retired += 1;
                continue;
            }
            machine.iommu.map(desc.pfn);
            let elem = match ring.dir {
                RingDir::ToDevice => {
                    machine.counters.packets += 1;
                    machine.charge_wire(
                        machine.costs.nic_per_packet + machine.costs.nic_per_byte * desc.len as u64,
                    );
                    // The NIC reads the payload straight out of the frame.
                    let data = machine
                        .phys
                        .bytes(desc.pfn, u64::from(desc.off), desc.len as usize);
                    machine.nic.transmit_bytes(desc.flow, data);
                    UsedElem {
                        slot,
                        desc,
                        written: desc.len,
                        flow: desc.flow,
                        ok: true,
                    }
                }
                RingDir::FromDevice => match machine.nic.receive() {
                    Some(p) => {
                        let n = p.data.len().min(desc.len as usize);
                        machine
                            .phys
                            .write_bytes(desc.pfn, u64::from(desc.off), &p.data[..n]);
                        machine.counters.packets += 1;
                        machine.charge_wire(
                            machine.costs.nic_per_packet + machine.costs.nic_per_byte * n as u64,
                        );
                        UsedElem {
                            slot,
                            desc,
                            written: n as u32,
                            flow: p.flow,
                            ok: true,
                        }
                    }
                    None => UsedElem {
                        slot,
                        desc,
                        written: 0,
                        flow: desc.flow,
                        ok: false,
                    },
                },
            };
            machine.iommu.unmap(desc.pfn);
            ring.used.push_back(elem);
            retired += 1;
        }
        if retired > 0 {
            ring.interrupts += 1;
        }
        machine.prof_pop();
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protections;
    use vg_crypto::Tpm;
    use vg_machine::devices::Packet;
    use vg_machine::layout::GHOST_BASE;
    use vg_machine::VAddr;

    fn setup(p: Protections) -> (SvaVm, Machine) {
        let tpm = Tpm::new(1);
        (SvaVm::boot(p, &tpm, 8), Machine::new(Default::default()))
    }

    fn tx_desc(pfn: Pfn, len: u32, flow: u64) -> RingDesc {
        RingDesc {
            pfn,
            off: 0,
            len,
            flow,
        }
    }

    #[test]
    fn batch_transmits_with_one_doorbell() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        let mut ring = DescRing::new(RingDir::ToDevice, 8);
        for i in 0..3u64 {
            let f = machine.phys.alloc_frame().unwrap();
            machine.phys.write_bytes(f, 0, &[i as u8; 16]);
            ring.post(tx_desc(f, 16, i)).unwrap();
        }
        let retired = vm.sva_ring_doorbell(&mut machine, &mut ring);
        assert_eq!(retired, 3);
        assert_eq!(machine.counters.ring_doorbells, 1);
        assert_eq!(machine.counters.ring_descs, 3);
        assert_eq!(machine.counters.packets, 3);
        assert_eq!(ring.interrupts, 1);
        let out = machine.nic.wire_drain();
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].data, vec![2u8; 16]);
        for i in 0..3 {
            let u = ring.pop_used().unwrap();
            assert!(u.ok);
            assert_eq!(u.flow, i);
            assert_eq!(u.written, 16);
            // Transient mapping: nothing stays DMA-visible after retire.
            assert!(!machine.iommu.is_mapped(u.desc.pfn));
        }
    }

    #[test]
    fn rx_descriptors_capture_pending_packets() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        let mut ring = DescRing::new(RingDir::FromDevice, 8);
        machine.nic.wire_inject(Packet {
            flow: 7,
            data: vec![0xab; 100],
        });
        let f = machine.phys.alloc_frame().unwrap();
        ring.post(tx_desc(f, MTU as u32, 0)).unwrap();
        // A second RX descriptor with nothing on the wire retires not-ok.
        let f2 = machine.phys.alloc_frame().unwrap();
        ring.post(tx_desc(f2, MTU as u32, 0)).unwrap();
        assert_eq!(vm.sva_ring_doorbell(&mut machine, &mut ring), 2);
        let u = ring.pop_used().unwrap();
        assert!(u.ok);
        assert_eq!((u.flow, u.written), (7, 100));
        let mut back = [0u8; 100];
        machine.phys.read_bytes(u.desc.pfn, 0, &mut back);
        assert_eq!(back, [0xab; 100]);
        assert!(!ring.pop_used().unwrap().ok);
    }

    #[test]
    fn ghost_descriptor_denied_under_vg_and_recorded() {
        let (mut vm, mut machine) = setup(Protections::virtual_ghost());
        let root = vm.sva_create_root(&mut machine).unwrap();
        let f = machine.phys.alloc_frame().unwrap();
        machine.phys.write_bytes(f, 0, b"app secret key material");
        vm.sva_allocgm(
            &mut machine,
            crate::ProcId(1),
            root,
            VAddr(GHOST_BASE),
            &[f],
        )
        .unwrap();
        let mut ring = DescRing::new(RingDir::ToDevice, 4);
        ring.post(tx_desc(f, 23, 1)).unwrap();
        assert_eq!(vm.sva_ring_doorbell(&mut machine, &mut ring), 1);
        let u = ring.pop_used().unwrap();
        assert!(!u.ok);
        assert_eq!(u.written, 0);
        // Nothing reached the wire; the refusal is in the flight recorder.
        assert!(machine.nic.wire_drain().is_empty());
        let last = machine.trace.flight.denials().last().unwrap();
        assert_eq!(last.kind, DenialKind::DmaViolation);
        assert_eq!(last.addr, f.0);
        // Page-table frames refused the same way.
        ring.post(tx_desc(root, 8, 2)).unwrap();
        vm.sva_ring_doorbell(&mut machine, &mut ring);
        assert!(!ring.pop_used().unwrap().ok);
    }

    #[test]
    fn native_ring_exfiltrates_ghost_frames() {
        // The attack contrast: without the IOMMU checks the same descriptor
        // ships the ghost frame's plaintext to the wire.
        let (mut vm, mut machine) = setup(Protections::native());
        let f = machine.phys.alloc_frame().unwrap();
        machine.phys.write_bytes(f, 0, b"app secret key material");
        vm.frames.set_kind(f, FrameKind::Ghost);
        let mut ring = DescRing::new(RingDir::ToDevice, 4);
        ring.post(tx_desc(f, 23, 1)).unwrap();
        vm.sva_ring_doorbell(&mut machine, &mut ring);
        let out = machine.nic.wire_drain();
        assert_eq!(out[0].data, b"app secret key material");
        assert!(machine.trace.flight.is_empty());
    }

    #[test]
    fn post_fails_when_table_full() {
        let (_, mut machine) = setup(Protections::virtual_ghost());
        let mut ring = DescRing::new(RingDir::ToDevice, 2);
        let f = machine.phys.alloc_frame().unwrap();
        assert!(ring.post(tx_desc(f, 1, 0)).is_some());
        assert!(ring.post(tx_desc(f, 1, 0)).is_some());
        assert!(ring.post(tx_desc(f, 1, 0)).is_none());
        assert_eq!(ring.avail_len(), 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The free-slot bitmap hands out exactly the slot the linear scan
        /// for the lowest empty table entry would (`position(is_none)`), and
        /// `None` exactly when the table is full, over random bursts of
        /// posts, doorbells and used-ring pops. The capacities straddle the
        /// 64-bit word boundaries of the bitmap.
        #[test]
        fn bitmap_slots_match_linear_scan(
            cap_idx in 0usize..5,
            ops in proptest::collection::vec((0u8..3, 0usize..300), 1..40),
        ) {
            let capacity = [1usize, 63, 64, 65, 256][cap_idx];
            let mut vm = SvaVm::boot_with_key_bits(Protections::virtual_ghost(), &Tpm::new(1), 8, 64);
            let mut machine = Machine::new(Default::default());
            let frame = machine.phys.alloc_frame().unwrap();
            let mut ring = DescRing::new(RingDir::ToDevice, capacity);
            // Oracle: the table as it was, scanned linearly.
            let mut table: Vec<Option<u16>> = vec![None; capacity];
            let mut posted: VecDeque<u16> = VecDeque::new();
            for (op, n) in ops {
                match op {
                    0 => {
                        for _ in 0..n % (capacity + 3) {
                            let want = table.iter().position(Option::is_none).map(|i| i as u16);
                            let got = ring.post(tx_desc(frame, 8, 0));
                            proptest::prop_assert_eq!(got, want);
                            if let Some(slot) = got {
                                table[slot as usize] = Some(slot);
                                posted.push_back(slot);
                            }
                        }
                    }
                    1 => {
                        let retired = vm.sva_ring_doorbell(&mut machine, &mut ring);
                        proptest::prop_assert_eq!(retired, posted.len());
                        for slot in posted.drain(..) {
                            table[slot as usize] = None;
                        }
                    }
                    _ => {
                        for _ in 0..n % 8 {
                            ring.pop_used();
                        }
                    }
                }
                proptest::prop_assert_eq!(ring.avail_len(), posted.len());
            }
        }
    }
}
