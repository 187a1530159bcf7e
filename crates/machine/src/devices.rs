//! Device models: disk, network interface, console.
//!
//! Devices move data by DMA: transfers name physical frames and are checked
//! against the [`Iommu`] first, so a hostile kernel that programs a device
//! to read ghost frames hits an IOMMU fault — the paper's DMA attack vector
//! (§2.2.1, third bullet) and its defense (§4.3.3).

use crate::inthash::IntMap;
use crate::iommu::{DmaDirection, DmaFault, Iommu};
use crate::layout::{Pfn, PAGE_SIZE};
use crate::phys::PhysMem;
use std::collections::VecDeque;

/// A fixed-capacity block device (4 KiB blocks), SSD-like.
#[derive(Debug)]
pub struct Disk {
    blocks: Vec<Option<Box<[u8]>>>,
    /// Total blocks read since boot.
    pub reads: u64,
    /// Total blocks written since boot.
    pub writes: u64,
}

impl Disk {
    /// Creates a disk of `num_blocks` zeroed blocks.
    pub fn new(num_blocks: usize) -> Self {
        Disk {
            blocks: vec![None; num_blocks],
            reads: 0,
            writes: 0,
        }
    }

    /// Capacity in blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// DMA one block from disk into physical frame `pfn`.
    ///
    /// # Errors
    ///
    /// [`DmaFault`] if the IOMMU does not map the frame.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn dma_read(
        &mut self,
        iommu: &Iommu,
        phys: &mut PhysMem,
        block: u64,
        pfn: Pfn,
    ) -> Result<(), DmaFault> {
        iommu.check(pfn, DmaDirection::ToMemory)?;
        self.reads += 1;
        let data = self.blocks[block as usize]
            .clone()
            .unwrap_or_else(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
        phys.write_frame(pfn, &data);
        Ok(())
    }

    /// DMA one block from physical frame `pfn` to disk.
    ///
    /// # Errors
    ///
    /// [`DmaFault`] if the IOMMU does not map the frame.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn dma_write(
        &mut self,
        iommu: &Iommu,
        phys: &PhysMem,
        block: u64,
        pfn: Pfn,
    ) -> Result<(), DmaFault> {
        iommu.check(pfn, DmaDirection::FromMemory)?;
        self.writes += 1;
        self.blocks[block as usize] = Some(phys.read_frame(pfn).into_boxed_slice());
        Ok(())
    }

    /// Direct block read for the harness/tests (models an offline inspection
    /// of the platter — *not* subject to the IOMMU, because the paper's
    /// threat model gives the OS full read/write access to persistent
    /// storage; confidentiality there comes from application encryption).
    pub fn peek(&self, block: u64) -> Vec<u8> {
        self.blocks[block as usize]
            .as_deref()
            .map(|b| b.to_vec())
            .unwrap_or_else(|| vec![0u8; PAGE_SIZE as usize])
    }

    /// Direct block write for the harness/tests (models offline tampering
    /// with the disk, e.g. an attacker editing stored files).
    pub fn poke(&mut self, block: u64, data: &[u8]) {
        assert_eq!(data.len(), PAGE_SIZE as usize);
        self.blocks[block as usize] = Some(data.to_vec().into_boxed_slice());
    }
}

/// A network packet on the simulated wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Opaque connection/flow identifier.
    pub flow: u64,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// Maximum payload the NIC accepts per packet (an MTU-ish 1500 bytes).
pub const MTU: usize = 1500;

/// A network interface with host-side TX/RX queues.
///
/// The far end of the wire is driven by the benchmark harness (the paper's
/// client machines were separate hosts), which calls [`Nic::wire_inject`],
/// [`Nic::wire_take`] (or [`Nic::wire_take_into`]) and [`Nic::wire_drain`].
/// Transmitted payloads wait in one byte buffer per flow, each packet
/// marked by its global transmit sequence number and end offset.
/// Transmitting appends to the buffer, so no packet gets an allocation of
/// its own; reading back one flow hands over its buffer whole (or copies it
/// out and keeps it), while a full drain still sees global transmit order.
#[derive(Debug, Default)]
pub struct Nic {
    rx: VecDeque<Packet>,
    /// Untaken transmitted traffic per flow.
    tx: IntMap<u64, FlowTx>,
    /// Sequence number of the next transmitted packet.
    tx_seq: u64,
    /// Bytes transmitted since boot.
    pub tx_bytes: u64,
    /// Bytes received since boot.
    pub rx_bytes: u64,
}

/// One flow's untaken transmitted packets: payloads back to back in
/// transmit order, and per packet its `(sequence, end offset)` in `bytes`.
#[derive(Debug, Default)]
struct FlowTx {
    bytes: Vec<u8>,
    marks: Vec<(u64, usize)>,
}

impl Nic {
    /// A NIC with empty queues.
    pub fn new() -> Self {
        Nic::default()
    }

    /// Host side: transmit one packet's payload on `flow` (the kernel's
    /// NIC code calls this with bytes from frames the IOMMU allowed it to
    /// read).
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MTU`].
    pub fn transmit_bytes(&mut self, flow: u64, data: &[u8]) {
        assert!(data.len() <= MTU, "packet exceeds MTU");
        self.tx_bytes += data.len() as u64;
        let q = self.tx.entry(flow).or_default();
        q.bytes.extend_from_slice(data);
        q.marks.push((self.tx_seq, q.bytes.len()));
        self.tx_seq += 1;
    }

    /// Host side: receive the next pending packet, if any.
    pub fn receive(&mut self) -> Option<Packet> {
        let p = self.rx.pop_front();
        if let Some(ref p) = p {
            self.rx_bytes += p.data.len() as u64;
        }
        p
    }

    /// Number of packets waiting host-side.
    pub fn rx_pending(&self) -> usize {
        self.rx.len()
    }

    /// Wire side: inject a packet as if it arrived from the network.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MTU`]: the wire carries at most one
    /// MTU per packet in both directions, so no receive path has to choose
    /// between truncating and over-delivering.
    pub fn wire_inject(&mut self, packet: Packet) {
        assert!(packet.data.len() <= MTU, "injected packet exceeds MTU");
        self.rx.push_back(packet);
    }

    /// Wire side: remove everything the host transmitted on `flow`, payloads
    /// concatenated in transmit order. Other flows' packets are untouched.
    pub fn wire_take(&mut self, flow: u64) -> Vec<u8> {
        self.tx.remove(&flow).map(|q| q.bytes).unwrap_or_default()
    }

    /// Wire side: [`Nic::wire_take`] onto the end of `out`. The flow keeps
    /// its emptied queue, so a peer that takes each send as it goes out
    /// reuses one allocation per flow instead of handing over a fresh one.
    pub fn wire_take_into(&mut self, flow: u64, out: &mut Vec<u8>) {
        if let Some(q) = self.tx.get_mut(&flow) {
            out.extend_from_slice(&q.bytes);
            q.bytes.clear();
            q.marks.clear();
        }
    }

    /// Wire side: drain everything the host transmitted, in global transmit
    /// order.
    pub fn wire_drain(&mut self) -> Vec<Packet> {
        let mut all: Vec<(u64, Packet)> = Vec::new();
        for (flow, q) in self.tx.drain() {
            let mut start = 0;
            for (seq, end) in q.marks {
                let data = q.bytes[start..end].to_vec();
                all.push((seq, Packet { flow, data }));
                start = end;
            }
        }
        all.sort_unstable_by_key(|&(seq, _)| seq);
        all.into_iter().map(|(_, p)| p).collect()
    }
}

/// Console output sink.
#[derive(Debug, Default)]
pub struct Console {
    buffer: Vec<u8>,
}

impl Console {
    /// An empty console.
    pub fn new() -> Self {
        Console::default()
    }

    /// Appends bytes to the console.
    pub fn write(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Everything written so far, lossily decoded.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.buffer).into_owned()
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.buffer.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dma_env() -> (Iommu, PhysMem, Pfn) {
        let mut phys = PhysMem::new(8);
        let pfn = phys.alloc_frame().unwrap();
        let mut iommu = Iommu::new(8);
        iommu.map(pfn);
        (iommu, phys, pfn)
    }

    #[test]
    fn disk_dma_roundtrip() {
        let (iommu, mut phys, pfn) = dma_env();
        let mut disk = Disk::new(16);
        phys.write_bytes(pfn, 0, b"block data");
        disk.dma_write(&iommu, &phys, 3, pfn).unwrap();
        phys.zero_frame(pfn);
        disk.dma_read(&iommu, &mut phys, 3, pfn).unwrap();
        let mut buf = [0u8; 10];
        phys.read_bytes(pfn, 0, &mut buf);
        assert_eq!(&buf, b"block data");
        assert_eq!((disk.reads, disk.writes), (1, 1));
    }

    #[test]
    fn disk_dma_blocked_by_iommu() {
        let mut phys = PhysMem::new(8);
        let pfn = phys.alloc_frame().unwrap();
        let iommu = Iommu::new(8); // nothing mapped
        let mut disk = Disk::new(16);
        assert!(disk.dma_read(&iommu, &mut phys, 0, pfn).is_err());
        assert!(disk.dma_write(&iommu, &phys, 0, pfn).is_err());
        assert_eq!((disk.reads, disk.writes), (0, 0));
    }

    #[test]
    fn disk_peek_poke_bypass_iommu() {
        // Models the paper's assumption that the OS can always touch the
        // platter directly.
        let mut disk = Disk::new(4);
        let mut data = vec![0u8; PAGE_SIZE as usize];
        data[0] = 0xee;
        disk.poke(2, &data);
        assert_eq!(disk.peek(2)[0], 0xee);
        assert_eq!(disk.peek(1)[0], 0); // unwritten blocks read zero
    }

    #[test]
    fn nic_queues() {
        let mut nic = Nic::new();
        nic.wire_inject(Packet {
            flow: 1,
            data: vec![1, 2, 3],
        });
        assert_eq!(nic.rx_pending(), 1);
        let p = nic.receive().unwrap();
        assert_eq!(p.data, vec![1, 2, 3]);
        assert_eq!(nic.rx_bytes, 3);
        assert!(nic.receive().is_none());

        nic.transmit_bytes(1, &[9; 100]);
        let out = nic.wire_drain();
        assert_eq!(out.len(), 1);
        assert_eq!(nic.tx_bytes, 100);
    }

    fn send(nic: &mut Nic, flow: u64, data: &[u8]) {
        nic.transmit_bytes(flow, data);
    }

    #[test]
    fn wire_take_returns_one_flow_in_transmit_order() {
        let mut nic = Nic::new();
        send(&mut nic, 1, b"ab");
        send(&mut nic, 2, b"xy");
        send(&mut nic, 1, b"cd");
        assert_eq!(nic.wire_take(1), b"abcd");
        assert!(nic.wire_take(1).is_empty(), "a take removes the packets");
        assert_eq!(nic.wire_take(2), b"xy");
    }

    #[test]
    fn wire_drain_keeps_global_order_after_partial_take() {
        let mut nic = Nic::new();
        for (flow, byte) in [(1, 1), (2, 2), (3, 3), (2, 4), (1, 5), (3, 6)] {
            send(&mut nic, flow, &[byte]);
        }
        assert_eq!(nic.wire_take(2), [2, 4]);
        send(&mut nic, 2, &[7]);
        let order: Vec<(u64, u8)> = nic
            .wire_drain()
            .into_iter()
            .map(|p| (p.flow, p.data[0]))
            .collect();
        assert_eq!(order, [(1, 1), (3, 3), (1, 5), (3, 6), (2, 7)]);
        assert!(nic.wire_drain().is_empty());
    }

    #[test]
    fn wire_take_leaves_tx_bytes_untouched() {
        let mut nic = Nic::new();
        send(&mut nic, 1, &[0; 40]);
        send(&mut nic, 2, &[0; 60]);
        assert_eq!(nic.wire_take(1).len(), 40);
        assert_eq!(nic.tx_bytes, 100);
        nic.wire_drain();
        assert_eq!(nic.tx_bytes, 100);
    }

    #[test]
    fn wire_take_of_unknown_or_empty_flow_leaves_others_intact() {
        let mut nic = Nic::new();
        assert!(nic.wire_take(9).is_empty());
        send(&mut nic, 1, b"one");
        send(&mut nic, 2, b"");
        assert!(nic.wire_take(9).is_empty());
        assert!(nic.wire_take(2).is_empty());
        let rest = nic.wire_drain();
        assert_eq!(
            rest,
            [Packet {
                flow: 1,
                data: b"one".to_vec()
            }]
        );
    }

    #[test]
    #[should_panic(expected = "MTU")]
    fn oversized_packet_panics() {
        let mut nic = Nic::new();
        nic.transmit_bytes(0, &[0; MTU + 1]);
    }

    #[test]
    #[should_panic(expected = "injected packet exceeds MTU")]
    fn oversized_injected_packet_panics() {
        let mut nic = Nic::new();
        nic.wire_inject(Packet {
            flow: 0,
            data: vec![0; MTU + 1],
        });
    }

    #[test]
    fn an_mtu_sized_packet_is_injected_whole() {
        let mut nic = Nic::new();
        nic.wire_inject(Packet {
            flow: 3,
            data: vec![5; MTU],
        });
        assert_eq!(nic.receive().unwrap().data.len(), MTU);
    }

    /// The replaced per-packet queue, kept as the byte queues' oracle: one
    /// `Vec` per transmitted packet, concatenated by `wire_take` and merged
    /// by sequence in `wire_drain`.
    #[derive(Default)]
    struct PacketQueues {
        tx: IntMap<u64, Vec<(u64, Vec<u8>)>>,
        tx_seq: u64,
    }

    impl PacketQueues {
        fn transmit(&mut self, flow: u64, data: &[u8]) {
            self.tx
                .entry(flow)
                .or_default()
                .push((self.tx_seq, data.to_vec()));
            self.tx_seq += 1;
        }

        fn wire_take(&mut self, flow: u64) -> Vec<u8> {
            let packets = self.tx.remove(&flow).unwrap_or_default();
            packets.into_iter().flat_map(|(_, d)| d).collect()
        }

        fn wire_drain(&mut self) -> Vec<Packet> {
            let mut all: Vec<(u64, Packet)> = self
                .tx
                .drain()
                .flat_map(|(flow, q)| {
                    q.into_iter()
                        .map(move |(seq, data)| (seq, Packet { flow, data }))
                })
                .collect();
            all.sort_unstable_by_key(|&(seq, _)| seq);
            all.into_iter().map(|(_, p)| p).collect()
        }
    }

    proptest! {
        /// The per-flow byte queues give exactly the per-packet queues'
        /// bytes per `wire_take` and packets per `wire_drain` (boundaries
        /// and global order), over random interleaved transmits of 0..=MTU
        /// bytes on 1–6 flows.
        #[test]
        fn byte_queues_match_per_packet_oracle(
            flows in 1u64..7,
            ops in proptest::collection::vec((0u8..10, any::<u64>(), 0usize..MTU + 1), 1..120),
        ) {
            let mut nic = Nic::new();
            let mut oracle = PacketQueues::default();
            let mut sent = 0u64;
            for (i, (op, pick, len)) in ops.into_iter().enumerate() {
                let flow = pick % flows;
                match op {
                    0..=6 => {
                        // Short packets most of the time, so flows hold many.
                        let len = if op == 0 { len } else { len % 40 };
                        let data: Vec<u8> = (0..len).map(|b| (i + b) as u8).collect();
                        nic.transmit_bytes(flow, &data);
                        oracle.transmit(flow, &data);
                        sent += len as u64;
                    }
                    7 | 8 => prop_assert_eq!(nic.wire_take(flow), oracle.wire_take(flow)),
                    _ => prop_assert_eq!(nic.wire_drain(), oracle.wire_drain()),
                }
                prop_assert_eq!(nic.tx_bytes, sent);
            }
            prop_assert_eq!(nic.wire_drain(), oracle.wire_drain());
        }

        /// `wire_take_into` appends exactly what `wire_take` returns, and a
        /// flow it emptied (queue kept) is invisible to later takes and
        /// drains: random transmit/take/take_into/drain scripts on 1–6
        /// flows, against a NIC that only ever uses `wire_take`.
        #[test]
        fn wire_take_into_matches_wire_take(
            flows in 1u64..7,
            ops in proptest::collection::vec((0u8..10, any::<u64>(), 0usize..MTU + 1), 1..120),
        ) {
            let mut nic = Nic::new();
            let mut oracle = Nic::new();
            let mut out = Vec::new();
            for (i, (op, pick, len)) in ops.into_iter().enumerate() {
                let flow = pick % flows;
                match op {
                    0..=5 => {
                        let len = if op == 0 { len } else { len % 40 };
                        let data: Vec<u8> = (0..len).map(|b| (i * 7 + b) as u8).collect();
                        nic.transmit_bytes(flow, &data);
                        oracle.transmit_bytes(flow, &data);
                    }
                    6 | 7 => {
                        // Appends after whatever the buffer already holds.
                        let start = out.len();
                        nic.wire_take_into(flow, &mut out);
                        prop_assert_eq!(&out[start..], &oracle.wire_take(flow)[..]);
                        if pick & 0x100 != 0 {
                            out.clear();
                        }
                    }
                    8 => prop_assert_eq!(nic.wire_take(flow), oracle.wire_take(flow)),
                    _ => prop_assert_eq!(nic.wire_drain(), oracle.wire_drain()),
                }
                prop_assert_eq!(nic.tx_bytes, oracle.tx_bytes);
            }
            prop_assert_eq!(nic.wire_drain(), oracle.wire_drain());
        }
    }

    #[test]
    fn wire_drain_order_survives_a_take_into() {
        let mut nic = Nic::new();
        for (flow, byte) in [(1, 1), (2, 2), (3, 3), (2, 4), (1, 5)] {
            send(&mut nic, flow, &[byte]);
        }
        let mut out = vec![9];
        nic.wire_take_into(2, &mut out);
        assert_eq!(out, [9, 2, 4], "appended after the caller's bytes");
        send(&mut nic, 2, &[6]);
        send(&mut nic, 3, &[7]);
        let order: Vec<(u64, u8)> = nic
            .wire_drain()
            .into_iter()
            .map(|p| (p.flow, p.data[0]))
            .collect();
        assert_eq!(order, [(1, 1), (3, 3), (1, 5), (2, 6), (3, 7)]);
        nic.wire_take_into(2, &mut out);
        assert_eq!(out, [9, 2, 4], "a drained flow appends nothing");
    }

    #[test]
    fn console_accumulates() {
        let mut c = Console::new();
        c.write(b"hello ");
        c.write(b"world");
        assert_eq!(c.contents(), "hello world");
        c.clear();
        assert_eq!(c.contents(), "");
    }
}
