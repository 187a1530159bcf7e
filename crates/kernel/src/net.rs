//! The network stack: listening sockets, flows, and the wire interface.
//!
//! The far end of the wire is the benchmark harness (the paper's client
//! machines were separate hosts on a dedicated gigabit network), which calls
//! [`System::wire_connect`] / [`System::wire_send`] / [`System::wire_recv`].
//! Kernel-side, data moves through the NIC queues with per-packet protocol
//! costs and per-byte wire costs, so bulk transfers are wire-limited and
//! tiny transfers are syscall-limited — the shape behind Figures 2–4.

use crate::costs;
use crate::dmap::DirectMap;
use crate::fs::{FsError, Ino, InodeKind};
use crate::syscall::{EAGAIN, EIO, EISDIR};
use crate::system::{Fd, Pid, System};
use std::collections::VecDeque;
use vg_core::{DescRing, RingDesc, RingDir};
use vg_machine::devices::{Packet, MTU};
use vg_machine::IntMap;

/// Wire occupancy charged per inbound connection: TCP handshake, client
/// request processing and network latency as seen by a pipelined client
/// (calibrated so small-file thttpd bandwidth lands near the paper's
/// Figure 2 left edge of ≈16 MB/s at 1 KB).
pub const CONN_WIRE_CYCLES: u64 = 204_000; // ≈ 60 µs

/// Most iovecs one `readv`/`writev` accepts (Linux's `UIO_MAXIOV`): a
/// larger count fails before the table is copied in.
pub const UIO_MAXIOV: usize = 1024;

/// Which backend moves network payloads between kernel and NIC.
///
/// Both modes serve byte-identical traffic with identical packet
/// segmentation and wire-cycle charges; only the CPU cost differs (per-call
/// checked I/O vs. one doorbell per batch). `Reference` is the per-call
/// synchronous path kept as the differential-testing oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetMode {
    /// Batched virtio-style descriptor rings (the default data plane).
    #[default]
    Ring,
    /// Per-packet `NET_PER_PACKET` traversals, one checked operation each.
    Reference,
}

/// A socket endpoint.
#[derive(Debug, Default)]
pub struct Socket {
    /// Bound port, if any.
    pub port: Option<u16>,
    /// Whether `listen` was called.
    pub listening: bool,
    /// Connected flow, if any.
    pub flow: Option<u64>,
    /// `O_NONBLOCK`: reads/accepts return [`EAGAIN`] instead of blocking.
    /// (The simulated kernel is run-to-completion and can never sleep, so
    /// blocking sockets report [`EAGAIN`] identically; the flag exists so
    /// event-loop apps declare their intent and tests pin the semantics.)
    pub nonblocking: bool,
    /// File-descriptor references (fork clones fd tables, so sockets are
    /// shared between parent and child).
    pub refs: u32,
}

impl Socket {
    /// Whether a read/accept would make progress.
    pub fn readable(&self, net: &NetStack) -> bool {
        if self.listening {
            return self
                .port
                .is_some_and(|p| net.pending.get(&p).is_some_and(|q| !q.is_empty()));
        }
        self.flow
            .is_some_and(|f| net.flows.get(&f).is_some_and(|b| !b.rx.is_empty()))
    }
}

/// Kernel-side per-flow receive buffer.
#[derive(Debug, Default)]
pub struct FlowBuf {
    /// Bytes received and not yet read by the application.
    pub rx: VecDeque<u8>,
    /// Peer closed.
    pub closed: bool,
}

/// The network stack state.
#[derive(Debug)]
pub struct NetStack {
    /// Pending (un-accepted) connections per port.
    pub pending: IntMap<u16, VecDeque<u64>>,
    /// Active flows. A flow leaves when its socket is destroyed.
    pub flows: IntMap<u64, FlowBuf>,
    next_flow: u64,
    /// The emptied receive buffer of the last destroyed flow, handed to the
    /// next flow opened: sequential connections reuse one allocation, and
    /// closed ones keep none.
    spare_rx: VecDeque<u8>,
    /// What the remote responder was last shown and what it last replied,
    /// kept so a peer that answers every send allocates nothing once they
    /// have grown.
    peer_sent: Vec<u8>,
    peer_reply: Vec<u8>,
    /// Ports with listeners.
    pub listeners: IntMap<u16, u64>, // port -> socket id
    /// Transmit descriptor ring (the batched data plane's TX queue).
    pub tx_ring: DescRing,
    /// Receive descriptor ring.
    pub rx_ring: DescRing,
}

impl Default for NetStack {
    fn default() -> Self {
        NetStack {
            pending: IntMap::default(),
            flows: IntMap::default(),
            next_flow: 0,
            spare_rx: VecDeque::new(),
            peer_sent: Vec::new(),
            peer_reply: Vec::new(),
            listeners: IntMap::default(),
            tx_ring: DescRing::new(RingDir::ToDevice, 1024),
            rx_ring: DescRing::new(RingDir::FromDevice, 256),
        }
    }
}

impl NetStack {
    /// An empty stack.
    pub fn new() -> Self {
        NetStack::default()
    }

    /// Opens a flow with an empty receive buffer (the spare, if one is
    /// kept) and returns its id.
    fn open_flow(&mut self) -> u64 {
        self.next_flow += 1;
        let rx = std::mem::take(&mut self.spare_rx);
        self.flows
            .insert(self.next_flow, FlowBuf { rx, closed: false });
        self.next_flow
    }

    /// Drops a flow whose socket is gone, keeping its emptied receive
    /// buffer as the spare for the next flow.
    fn close_flow(&mut self, flow: u64) {
        if let Some(mut fb) = self.flows.remove(&flow) {
            fb.rx.clear();
            self.spare_rx = fb.rx;
        }
    }
}

impl System {
    // ---- socket syscalls ----------------------------------------------------

    /// `connect(port)`: opens a flow to an off-machine peer (the benchmark
    /// harness or a registered remote responder). Returns a connected fd.
    pub(crate) fn sys_connect(&mut self, pid: Pid, _port: u16) -> i64 {
        costs::SOCK_SETUP.charge(&mut self.machine);
        let flow = self.net.open_flow();
        let id = self.next_socket_id();
        self.machine.charge_wire(CONN_WIRE_CYCLES);
        self.sockets.insert(
            id,
            Socket {
                port: None,
                listening: false,
                flow: Some(flow),
                nonblocking: false,
                refs: 1,
            },
        );
        self.alloc_fd(pid, Fd::Sock { id })
    }

    /// The flow behind a connected socket fd (harness helper).
    pub fn flow_of_fd(&self, pid: Pid, fd: u64) -> Option<u64> {
        match self.procs.get(&pid)?.fds.get(fd as usize)? {
            Some(Fd::Sock { id }) => self.sockets.get(id)?.flow,
            _ => None,
        }
    }

    pub(crate) fn sys_socket(&mut self, pid: Pid) -> i64 {
        costs::SOCK_SETUP.charge(&mut self.machine);
        if self
            .machine
            .fault_check(vg_machine::FaultClass::KernelAlloc)
        {
            return crate::syscall::ENOMEM;
        }
        let id = self.alloc_socket();
        self.alloc_fd(pid, Fd::Sock { id })
    }

    fn alloc_socket(&mut self) -> u64 {
        let id = self.next_socket_id();
        self.sockets.insert(
            id,
            Socket {
                refs: 1,
                ..Socket::default()
            },
        );
        id
    }

    /// Drops one fd reference to a socket, destroying it (and its flow,
    /// which no other socket names) at zero.
    pub(crate) fn release_socket(&mut self, id: u64) {
        if let Some(s) = self.sockets.get_mut(&id) {
            s.refs = s.refs.saturating_sub(1);
            if s.refs == 0 {
                if let Some(port) = s.port {
                    if s.listening {
                        self.net.listeners.remove(&port);
                    }
                }
                if let Some(flow) = s.flow {
                    self.net.close_flow(flow);
                }
                self.sockets.remove(&id);
            }
        }
    }

    fn next_socket_id(&self) -> u64 {
        self.sockets.last_key_value().map_or(0, |(&id, _)| id) + 1
    }

    pub(crate) fn sys_bind(&mut self, pid: Pid, fd: u64, port: u16) -> i64 {
        costs::SOCK_SETUP.charge(&mut self.machine);
        let Some(Fd::Sock { id }) = self.proc_fd(pid, fd) else {
            return -1;
        };
        if self.net.listeners.contains_key(&port) {
            return -1; // EADDRINUSE
        }
        self.sockets.get_mut(&id).expect("socket").port = Some(port);
        0
    }

    pub(crate) fn sys_listen(&mut self, pid: Pid, fd: u64) -> i64 {
        costs::SOCK_SETUP.charge(&mut self.machine);
        let Some(Fd::Sock { id }) = self.proc_fd(pid, fd) else {
            return -1;
        };
        let Some(port) = self.sockets.get(&id).and_then(|s| s.port) else {
            return -1;
        };
        self.sockets.get_mut(&id).expect("socket").listening = true;
        self.net.listeners.insert(port, id);
        self.net.pending.entry(port).or_default();
        0
    }

    pub(crate) fn sys_accept(&mut self, pid: Pid, fd: u64) -> i64 {
        costs::ACCEPT.charge(&mut self.machine);
        self.pump();
        let Some(Fd::Sock { id }) = self.proc_fd(pid, fd) else {
            return -1;
        };
        let Some(port) = self.sockets.get(&id).and_then(|s| s.port) else {
            return -1;
        };
        let Some(flow) = self.net.pending.get_mut(&port).and_then(|q| q.pop_front()) else {
            return EAGAIN; // nothing pending
        };
        self.machine.charge_wire(CONN_WIRE_CYCLES);
        let conn_id = self.alloc_socket();
        self.sockets.get_mut(&conn_id).expect("socket").flow = Some(flow);
        self.alloc_fd(pid, Fd::Sock { id: conn_id })
    }

    pub(crate) fn sys_send(&mut self, pid: Pid, fd: u64, buf: u64, len: usize) -> i64 {
        costs::RW_BASE.charge(&mut self.machine);
        let Some(data) = self.copyin(pid, buf, len) else {
            return -1;
        };
        let Some(Fd::Sock { id }) = self.proc_fd(pid, fd) else {
            return -1;
        };
        self.sock_write(id, &data)
    }

    pub(crate) fn sys_recv(&mut self, pid: Pid, fd: u64, buf: u64, len: usize) -> i64 {
        costs::RW_BASE.charge(&mut self.machine);
        let Some(Fd::Sock { id }) = self.proc_fd(pid, fd) else {
            return -1;
        };
        self.sock_recv(pid, id, buf, len)
    }

    fn proc_fd(&self, pid: Pid, fd: u64) -> Option<Fd> {
        self.procs.get(&pid)?.fds.get(fd as usize)?.clone()
    }

    // ---- kernel-side data movement -------------------------------------------

    /// Transmits `data` on socket `sock` through whichever data plane
    /// [`NetMode`] selects: the one send path of `write`, `send` and
    /// reference-mode `writev`.
    pub(crate) fn sock_write(&mut self, sock: u64, data: &[u8]) -> i64 {
        match self.net_mode {
            NetMode::Ring => self.sock_send_ring(sock, data),
            NetMode::Reference => self.sock_send(sock, data),
        }
    }

    fn sock_send(&mut self, sock: u64, data: &[u8]) -> i64 {
        let Some(flow) = self.sockets.get(&sock).and_then(|s| s.flow) else {
            return -1;
        };
        for chunk in data.chunks(MTU) {
            costs::NET_PER_PACKET.charge(&mut self.machine);
            self.machine.counters.packets += 1;
            let wire = self.machine.costs.nic_per_packet
                + self.machine.costs.nic_per_byte * chunk.len() as u64;
            self.machine.charge_wire(wire);
            self.machine.nic.transmit_bytes(flow, chunk);
        }
        self.run_remote_responder(flow);
        data.len() as i64
    }

    pub(crate) fn sock_recv(&mut self, pid: Pid, sock: u64, buf: u64, len: usize) -> i64 {
        self.pump();
        let Some(flow) = self.sockets.get(&sock).and_then(|s| s.flow) else {
            return -1;
        };
        let Some(fb) = self.net.flows.get_mut(&flow) else {
            return -1;
        };
        let n = len.min(fb.rx.len());
        if n == 0 {
            return if fb.closed { 0 } else { EAGAIN }; // EOF vs would-block
        }
        let mut rx = std::mem::take(&mut fb.rx);
        let ok = self.copyout_stream(pid, buf, &mut rx, n);
        self.restore_rx(flow, rx);
        if ok {
            n as i64
        } else {
            -1
        }
    }

    /// Puts a flow's receive buffer back after a stream copy took it out
    /// (the copy needs `&mut self` to resolve user pages).
    fn restore_rx(&mut self, flow: u64, rx: VecDeque<u8>) {
        if let Some(fb) = self.net.flows.get_mut(&flow) {
            fb.rx = rx;
        }
    }

    /// Drains inbound NIC traffic into per-flow buffers through whichever
    /// data plane [`NetMode`](crate::net::NetMode) selects.
    pub(crate) fn pump(&mut self) {
        match self.net_mode {
            NetMode::Ring => self.pump_network_ring(),
            NetMode::Reference => self.pump_network(),
        }
    }

    /// Drains the NIC receive queue into per-flow buffers, charging protocol
    /// and wire costs (interrupt + driver work). The per-call reference path:
    /// one full `NET_PER_PACKET` traversal per packet.
    pub(crate) fn pump_network(&mut self) {
        while let Some(p) = self.machine.nic.receive() {
            costs::NET_PER_PACKET.charge(&mut self.machine);
            self.machine.counters.packets += 1;
            let wire = self.machine.costs.nic_per_packet
                + self.machine.costs.nic_per_byte * p.data.len() as u64;
            self.machine.charge_wire(wire);
            self.net.flows.entry(p.flow).or_default().rx.extend(p.data);
        }
    }

    /// Ring-mode receive pump: posts one MTU-sized staging descriptor per
    /// pending packet, rings the doorbell once, and retires the whole batch
    /// into per-flow buffers. Wire charges (inside the doorbell) match the
    /// reference pump packet for packet; the CPU side pays `RING_PER_DESC`
    /// instead of `NET_PER_PACKET`, plus one `RING_DOORBELL`.
    pub(crate) fn pump_network_ring(&mut self) {
        loop {
            let pending = self.machine.nic.rx_pending();
            if pending == 0 {
                return;
            }
            let mut posted = 0usize;
            for _ in 0..pending {
                let Some(frame) = self.dmap().alloc() else {
                    break;
                };
                let posted_slot = self.net.rx_ring.post(RingDesc {
                    pfn: frame,
                    off: 0,
                    len: MTU as u32,
                    flow: 0,
                });
                if posted_slot.is_none() {
                    let _ = self.dmap().free(frame);
                    break; // ring full: retire this batch, then go again
                }
                costs::RING_PER_DESC.charge(&mut self.machine);
                posted += 1;
            }
            if posted == 0 {
                // No staging memory at all: fall back to the per-call path
                // rather than dropping traffic.
                self.pump_network();
                return;
            }
            costs::RING_DOORBELL.charge(&mut self.machine);
            self.vm
                .sva_ring_doorbell(&mut self.machine, &mut self.net.rx_ring);
            while let Some(u) = self.net.rx_ring.pop_used() {
                let mut dmap = DirectMap::new(&mut self.machine, &self.vm);
                if u.ok {
                    if let Ok(data) = dmap.bytes(u.desc.pfn, 0, u.written as usize) {
                        self.net.flows.entry(u.flow).or_default().rx.extend(data);
                    }
                }
                let _ = dmap.free(u.desc.pfn);
            }
        }
    }

    /// Ring-mode transmit: stages `data` (see [`System::stage_tx`]), rings
    /// the doorbell once per batch, and recycles the staging frames on
    /// retire. Returns bytes queued, or -1 on a dead socket.
    fn sock_send_ring(&mut self, sock: u64, data: &[u8]) -> i64 {
        let Some(flow) = self.sockets.get(&sock).and_then(|s| s.flow) else {
            return -1;
        };
        self.stage_tx(sock, flow, data);
        self.flush_tx_ring();
        self.run_remote_responder(flow);
        data.len() as i64
    }

    /// Posts `data` to the TX ring as DMA frames, one MTU chunk per
    /// descriptor (segmentation identical to [`System::sock_send`]). A full
    /// ring is flushed (an extra doorbell) and the chunk reposted. A chunk
    /// with no staging frame flushes the batch, goes out on the per-call
    /// path, and staging continues with the next chunk: no byte is dropped.
    fn stage_tx(&mut self, sock: u64, flow: u64, data: &[u8]) {
        for chunk in data.chunks(MTU) {
            let staged = self.dmap().alloc();
            let Some(frame) = staged.filter(|&f| self.dmap().write(f, 0, chunk).is_ok()) else {
                self.flush_tx_ring();
                self.sock_send(sock, chunk);
                continue;
            };
            let desc = RingDesc {
                pfn: frame,
                off: 0,
                len: chunk.len() as u32,
                flow,
            };
            if self.net.tx_ring.post(desc).is_none() {
                self.flush_tx_ring();
                self.net
                    .tx_ring
                    .post(desc)
                    .expect("empty ring accepts a descriptor");
            }
            costs::RING_PER_DESC.charge(&mut self.machine);
        }
    }

    /// Rings the TX doorbell for any staged descriptors and recycles every
    /// retired staging frame. Free when nothing is staged.
    fn flush_tx_ring(&mut self) {
        if self.net.tx_ring.avail_len() == 0 {
            return;
        }
        costs::RING_DOORBELL.charge(&mut self.machine);
        self.vm
            .sva_ring_doorbell(&mut self.machine, &mut self.net.tx_ring);
        while let Some(u) = self.net.tx_ring.pop_used() {
            let _ = self.dmap().free(u.desc.pfn);
        }
    }

    /// Hands freshly transmitted bytes on `flow` to the registered remote
    /// responder (the harness's model of the peer) and injects its reply.
    /// Both pass through the stack's two reused peer buffers.
    fn run_remote_responder(&mut self, flow: u64) {
        let Some(mut responder) = self.remote_responder.take() else {
            return;
        };
        let mut sent = std::mem::take(&mut self.net.peer_sent);
        let mut reply = std::mem::take(&mut self.net.peer_reply);
        sent.clear();
        reply.clear();
        self.machine.nic.wire_take_into(flow, &mut sent);
        if !sent.is_empty() {
            responder(flow, &sent, &mut reply);
            if !reply.is_empty() {
                self.wire_send(flow, &reply);
            }
        }
        self.net.peer_sent = sent;
        self.net.peer_reply = reply;
        self.remote_responder = Some(responder);
    }

    // ---- readiness + vectored I/O syscalls -----------------------------------

    /// `fcntl(fd, flags)`: bit 0 sets/clears `O_NONBLOCK` on a socket.
    pub(crate) fn sys_fcntl(&mut self, pid: Pid, fd: u64, flags: u64) -> i64 {
        crate::mem::kwork(&mut self.machine, 30, 3);
        let Some(Fd::Sock { id }) = self.proc_fd(pid, fd) else {
            return -1;
        };
        self.sockets.get_mut(&id).expect("socket").nonblocking = flags & 0x1 != 0;
        0
    }

    /// Readiness bits a [`sys_poll`](Self::sys_poll) entry can report.
    fn poll_events(&self, pid: Pid, fd: u64) -> u64 {
        const POLLIN: u64 = 0x1;
        const POLLHUP: u64 = 0x2;
        match self.proc_fd(pid, fd) {
            Some(Fd::File { .. }) => POLLIN,
            Some(Fd::Sock { id }) => {
                let Some(s) = self.sockets.get(&id) else {
                    return 0;
                };
                if s.readable(&self.net) {
                    POLLIN
                } else if s
                    .flow
                    .is_some_and(|f| self.net.flows.get(&f).is_none_or(|b| b.closed))
                {
                    POLLHUP
                } else {
                    0
                }
            }
            Some(Fd::PipeR { id }) => match self.pipes.get(&id) {
                Some(p) if !p.buf.is_empty() => POLLIN,
                Some(p) if p.writers == 0 => POLLHUP,
                _ => 0,
            },
            Some(Fd::PipeW { id }) => match self.pipes.get(&id) {
                Some(p) if p.readers > 0 => POLLIN,
                _ => POLLHUP,
            },
            _ => 0,
        }
    }

    /// `poll(fds, nfds)`: the readiness syscall behind the event loops.
    ///
    /// `fds` is an array of `nfds` 16-byte entries: `u64` fd in, `u64`
    /// revents out (bit 0 readable, bit 1 hang-up). Unlike `select`'s dense
    /// 0..nfds scan, only the fds the caller actually lists are examined —
    /// and only those are charged `SELECT_PER_FD`. Returns the number of
    /// entries with non-zero revents, or -1 on an unmapped table or one
    /// whose size overflows. The table is edited in the kernel's reused
    /// scratch buffer.
    pub(crate) fn sys_poll(&mut self, pid: Pid, fds_ptr: u64, nfds: usize) -> i64 {
        costs::SELECT_BASE.charge(&mut self.machine);
        self.pump();
        let Some(len) = nfds.checked_mul(16) else {
            return -1;
        };
        let mut table = std::mem::take(&mut self.io_bytes);
        table.clear();
        let mut ready = -1;
        if self.copyin_into(pid, fds_ptr, len, &mut table) {
            ready = 0;
            for entry in table.chunks_exact_mut(16) {
                costs::SELECT_PER_FD.charge(&mut self.machine);
                let fd = u64::from_le_bytes(entry[..8].try_into().expect("8 bytes"));
                let ev = self.poll_events(pid, fd);
                entry[8..].copy_from_slice(&ev.to_le_bytes());
                ready += i64::from(ev != 0);
            }
            if !self.copyout(pid, fds_ptr, &table) {
                ready = -1;
            }
        }
        self.io_bytes = table;
        ready
    }

    /// Decodes an iovec table, `cnt` 16-byte `(u64 base, u64 len)` entries,
    /// into `iovs` through the kernel's scratch byte buffer. Fails on an
    /// unmapped table, or on more than [`UIO_MAXIOV`] entries before any
    /// copy.
    fn copyin_iovs(
        &mut self,
        pid: Pid,
        iov_ptr: u64,
        cnt: usize,
        iovs: &mut Vec<(u64, usize)>,
    ) -> bool {
        iovs.clear();
        if cnt > UIO_MAXIOV {
            return false;
        }
        let mut raw = std::mem::take(&mut self.io_bytes);
        raw.clear();
        let ok = self.copyin_into(pid, iov_ptr, cnt * 16, &mut raw);
        if ok {
            iovs.extend(raw.chunks_exact(16).map(|e| {
                let base = u64::from_le_bytes(e[..8].try_into().expect("8 bytes"));
                let len = u64::from_le_bytes(e[8..].try_into().expect("8 bytes"));
                (base, len as usize)
            }));
        }
        self.io_bytes = raw;
        ok
    }

    /// `readv(fd, iov, iovcnt)`: gathers buffered socket bytes across the
    /// iovecs in one trap. Same EOF/[`EAGAIN`] contract as `recv`.
    pub(crate) fn sys_readv(&mut self, pid: Pid, fd: u64, iov_ptr: u64, iovcnt: usize) -> i64 {
        costs::RW_BASE.charge(&mut self.machine);
        let mut iovs = std::mem::take(&mut self.io_iovs);
        let r = if self.copyin_iovs(pid, iov_ptr, iovcnt, &mut iovs) {
            self.readv_into(pid, fd, &iovs)
        } else {
            -1
        };
        self.io_iovs = iovs;
        r
    }

    /// The body of [`Self::sys_readv`] once its iovecs are decoded.
    fn readv_into(&mut self, pid: Pid, fd: u64, iovs: &[(u64, usize)]) -> i64 {
        let Some(Fd::Sock { id }) = self.proc_fd(pid, fd) else {
            return -1;
        };
        self.pump();
        let Some(flow) = self.sockets.get(&id).and_then(|s| s.flow) else {
            return -1;
        };
        let Some(fb) = self.net.flows.get_mut(&flow) else {
            return -1;
        };
        let cap = iovs.iter().fold(0usize, |a, &(_, l)| a.saturating_add(l));
        let n = cap.min(fb.rx.len());
        if n == 0 {
            return if fb.closed { 0 } else { EAGAIN };
        }
        let mut rx = std::mem::take(&mut fb.rx);
        let mut done = 0usize;
        for &(base, len) in iovs {
            if done == n {
                break;
            }
            let take = len.min(n - done);
            done += take;
            if !self.copyout_stream(pid, base, &mut rx, take) {
                // A failed iovec still consumes the whole read.
                rx.drain(..n - done);
                self.restore_rx(flow, rx);
                return -1;
            }
        }
        self.restore_rx(flow, rx);
        n as i64
    }

    /// `writev(fd, iov, iovcnt)`: transmits all iovecs in one trap. In ring
    /// mode the whole call is one descriptor batch — every MTU chunk of
    /// every iovec posts one descriptor and a single doorbell submits them
    /// all; the reference mode sends each iovec through the per-packet
    /// path. Packet segmentation (per-iovec MTU chunking) is identical in
    /// both modes. Returns total bytes written.
    pub(crate) fn sys_writev(&mut self, pid: Pid, fd: u64, iov_ptr: u64, iovcnt: usize) -> i64 {
        costs::RW_BASE.charge(&mut self.machine);
        let mut iovs = std::mem::take(&mut self.io_iovs);
        let r = if self.copyin_iovs(pid, iov_ptr, iovcnt, &mut iovs) {
            self.writev_from(pid, fd, &iovs)
        } else {
            -1
        };
        self.io_iovs = iovs;
        r
    }

    /// The body of [`Self::sys_writev`] once its iovecs are decoded. The
    /// ring path copies each iovec into the kernel's scratch byte buffer
    /// and stages it from there.
    fn writev_from(&mut self, pid: Pid, fd: u64, iovs: &[(u64, usize)]) -> i64 {
        let id = match self.proc_fd(pid, fd) {
            Some(Fd::Sock { id }) => id,
            Some(Fd::File { ino, .. }) => return self.writev_file(ino),
            _ => return -1,
        };
        match self.net_mode {
            NetMode::Reference => {
                let mut total = 0i64;
                for &(base, len) in iovs {
                    let Some(data) = self.copyin(pid, base, len) else {
                        return -1;
                    };
                    let r = self.sock_write(id, &data);
                    if r < 0 {
                        return r;
                    }
                    total += r;
                }
                total
            }
            NetMode::Ring => {
                let Some(flow) = self.sockets.get(&id).and_then(|s| s.flow) else {
                    return -1;
                };
                let mut data = std::mem::take(&mut self.io_bytes);
                let mut total = 0i64;
                let mut ok = true;
                for &(base, len) in iovs {
                    data.clear();
                    ok = self.copyin_into(pid, base, len, &mut data);
                    if !ok {
                        break;
                    }
                    self.stage_tx(id, flow, &data);
                    total += data.len() as i64;
                }
                self.io_bytes = data;
                if !ok {
                    // Earlier iovecs stay staged for the next doorbell.
                    return -1;
                }
                self.flush_tx_ring();
                self.run_remote_responder(flow);
                total
            }
        }
    }

    /// `writev` on a file fd: unsupported (-1), and [`EISDIR`] on a
    /// directory, told apart by one charged inode read.
    fn writev_file(&mut self, ino: Ino) -> i64 {
        match self.with_fs(|fs, dev, w| fs.stat(dev, ino, w).map(|(_, kind)| kind)) {
            Ok(InodeKind::Dir) => EISDIR,
            Err(FsError::Io) => EIO,
            _ => -1,
        }
    }

    // ---- wire (harness) side --------------------------------------------------

    /// Opens a connection to `port` from the outside world. Returns the flow
    /// id. Connections may be queued before the listener starts (SYN
    /// backlog); `accept` picks them up once a socket listens on the port.
    pub fn wire_connect(&mut self, port: u16) -> Option<u64> {
        let flow = self.net.open_flow();
        self.net.pending.entry(port).or_default().push_back(flow);
        Some(flow)
    }

    /// Injects bytes from the outside world into `flow`.
    pub fn wire_send(&mut self, flow: u64, data: &[u8]) {
        for chunk in data.chunks(MTU) {
            self.machine.nic.wire_inject(Packet {
                flow,
                data: chunk.to_vec(),
            });
        }
    }

    /// Collects everything the host transmitted on `flow`, leaving other
    /// flows' traffic queued.
    pub fn wire_recv(&mut self, flow: u64) -> Vec<u8> {
        self.machine.nic.wire_take(flow)
    }

    /// Marks `flow` closed from the wire side.
    pub fn wire_close(&mut self, flow: u64) {
        if let Some(fb) = self.net.flows.get_mut(&flow) {
            fb.closed = true;
        }
    }
}

#[cfg(test)]
mod stream_copy;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::UserEnv;
    use crate::syscall::O_CREAT;
    use crate::system::System;
    use vg_machine::cost::Counters;

    /// Satellite regression: `recv`/`accept` return values distinguish
    /// would-block ([`EAGAIN`]) from EOF (0) and error (-1) — the contract
    /// the event loops depend on.
    #[test]
    fn recv_and_accept_distinguish_eagain_eof_and_error() {
        let mut sys = System::boot_virtual_ghost();
        sys.install_app("srv", false, || {
            Box::new(|env| {
                let l = env.socket();
                env.bind(l, 4000);
                env.listen(l);
                assert_eq!(env.accept(l), EAGAIN); // nothing pending
                let flow = env.sys.wire_connect(4000).unwrap();
                let c = env.accept(l);
                assert!(c >= 0);
                env.set_nonblocking(c, true);
                let buf = env.mmap_anon(4096);
                assert_eq!(env.recv(c, buf, 64), EAGAIN); // open flow, no data
                env.sys.wire_send(flow, b"ping");
                assert_eq!(env.recv(c, buf, 64), 4);
                assert_eq!(env.read_mem(buf, 4), b"ping");
                assert_eq!(env.recv(c, buf, 64), EAGAIN); // drained, still open
                env.sys.wire_close(flow);
                assert_eq!(env.recv(c, buf, 64), 0); // EOF, not EAGAIN
                assert_eq!(env.recv(99, buf, 64), -1); // bad fd: error
                assert_eq!(env.accept(c), -1); // not listening: error
                0
            })
        });
        let pid = sys.spawn("srv");
        assert_eq!(sys.run_until_exit(pid), 0);
    }

    /// Satellite regression: `select` charges `SELECT_PER_FD` only for fds
    /// actually polled — an empty slot inside the 0..nfds range costs
    /// nothing.
    #[test]
    fn select_charges_only_open_fds() {
        let mut sys = System::boot_virtual_ghost();
        sys.install_app("sel", false, || {
            Box::new(|env| {
                let a = env.open("/a", O_CREAT);
                let b = env.open("/b", O_CREAT);
                assert_eq!((a, b), (0, 1));
                let t0 = env.sys.machine.clock.cycles();
                assert_eq!(env.select(2), 2);
                let both = env.sys.machine.clock.cycles() - t0;
                env.close(a); // slot 0 now empty, nfds unchanged
                let t1 = env.sys.machine.clock.cycles();
                assert_eq!(env.select(2), 1);
                let one = env.sys.machine.clock.cycles() - t1;
                let per_fd = {
                    let mut m = vg_machine::Machine::new(vg_machine::MachineConfig {
                        costs: vg_machine::cost::CostModel::virtual_ghost(),
                        ..Default::default()
                    });
                    costs::SELECT_PER_FD.charge(&mut m);
                    m.clock.cycles()
                };
                assert_eq!(both - one, per_fd, "empty slot was charged");
                0
            })
        });
        let pid = sys.spawn("sel");
        assert_eq!(sys.run_until_exit(pid), 0);
    }

    /// `poll` readiness: quiet fds report nothing, buffered data reports
    /// readable, a drained closed flow reports hang-up, and only listed fds
    /// are examined.
    #[test]
    fn poll_reports_readiness_and_hup() {
        let mut sys = System::boot_virtual_ghost();
        sys.install_app("poll", false, || {
            Box::new(|env| {
                let l = env.socket();
                env.bind(l, 4100);
                env.listen(l);
                let flow = env.sys.wire_connect(4100).unwrap();
                let c = env.accept(l);
                env.set_nonblocking(c, true);
                let scratch = env.mmap_anon(4096);
                let (r, ev) = env.poll(scratch, &[l, c]);
                assert_eq!((r, ev[0], ev[1]), (0, 0, 0)); // all quiet
                env.sys.wire_send(flow, b"x");
                let (r, ev) = env.poll(scratch, &[l, c]);
                assert_eq!((r, ev[0], ev[1]), (1, 0, 0x1)); // c readable
                let buf = env.mmap_anon(4096);
                assert_eq!(env.recv(c, buf, 16), 1);
                env.sys.wire_close(flow);
                let (r, ev) = env.poll(scratch, &[l, c]);
                assert_eq!((r, ev[1]), (1, 0x2)); // drained + closed: hup
                let flow2 = env.sys.wire_connect(4100).unwrap();
                let (_, ev) = env.poll(scratch, &[l]);
                assert_eq!(ev[0], 0x1); // pending connection: readable
                let _ = flow2;
                0
            })
        });
        let pid = sys.spawn("poll");
        assert_eq!(sys.run_until_exit(pid), 0);
    }

    /// With two connections open at once, each responder call is handed
    /// its own flow and the bytes sent on it, and each reply lands on the
    /// flow it answers.
    #[test]
    fn remote_responder_sees_each_connections_own_flow() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut sys = System::boot_virtual_ghost();
        let calls = Rc::new(RefCell::new(Vec::new()));
        let seen = calls.clone();
        sys.remote_responder = Some(Box::new(move |flow, sent, reply| {
            seen.borrow_mut().push((flow, sent.to_vec()));
            reply.extend_from_slice(format!("{flow}:").as_bytes());
            reply.extend_from_slice(sent);
        }));
        let flows = Rc::new(RefCell::new(Vec::new()));
        let opened = flows.clone();
        sys.install_app("two", false, move || {
            let opened = opened.clone();
            Box::new(move |env| {
                let buf = env.mmap_anon(4096);
                let (a, b) = (connect(env), connect(env));
                let fa = env.sys.flow_of_fd(env.pid, a as u64).expect("flow");
                let fb = env.sys.flow_of_fd(env.pid, b as u64).expect("flow");
                opened.borrow_mut().extend([fa, fb]);
                env.write_mem(buf, b"alpha");
                assert_eq!(env.send(a, buf, 5), 5);
                env.write_mem(buf, b"be");
                assert_eq!(env.send(b, buf, 2), 2);
                let n = env.recv(b, buf, 64);
                assert_eq!(env.read_mem(buf, n as usize), format!("{fb}:be").as_bytes());
                let n = env.recv(a, buf, 64);
                assert_eq!(
                    env.read_mem(buf, n as usize),
                    format!("{fa}:alpha").as_bytes()
                );
                0
            })
        });
        let pid = sys.spawn("two");
        assert_eq!(sys.run_until_exit(pid), 0);
        let (fa, fb) = (flows.borrow()[0], flows.borrow()[1]);
        assert_ne!(fa, fb);
        assert_eq!(
            *calls.borrow(),
            [(fa, b"alpha".to_vec()), (fb, b"be".to_vec())]
        );
    }

    /// `connect` to the remote peer.
    fn connect(env: &mut UserEnv) -> i64 {
        env.syscall(crate::syscall::SYS_CONNECT, [22, 0, 0, 0, 0, 0])
    }

    /// Receive capacity held by every flow, and by the spare.
    fn flow_rx_capacity(net: &NetStack) -> usize {
        let held: usize = net.flows.values().map(|f| f.rx.capacity()).sum();
        held + net.spare_rx.capacity()
    }

    /// A closed connection gives its receive buffer to the next one: 64
    /// sequential connect/fetch/close cycles of 64 KiB each end holding at
    /// most two fetches' worth of flow receive capacity (every closed flow
    /// used to keep its own).
    #[test]
    fn sequential_connections_reuse_one_flow_receive_buffer() {
        const FETCH: usize = 64 << 10;
        let mut sys = System::boot_virtual_ghost();
        sys.remote_responder = Some(Box::new(|_, sent, reply| {
            if sent == b"get" {
                reply.resize(FETCH, 0x5a);
            }
        }));
        sys.install_app("fetch", false, || {
            Box::new(|env| {
                let buf = env.mmap_anon(FETCH);
                for _ in 0..64 {
                    let c = connect(env);
                    env.write_mem(buf, b"get");
                    assert_eq!(env.send(c, buf, 3), 3);
                    let mut got = 0;
                    while got < FETCH {
                        let n = env.recv(c, buf + got as u64, FETCH - got);
                        assert!(n > 0, "recv returned {n}");
                        got += n as usize;
                    }
                    env.close(c);
                }
                0
            })
        });
        let pid = sys.spawn("fetch");
        assert_eq!(sys.run_until_exit(pid), 0);
        let held = flow_rx_capacity(&sys.net);
        assert!(held >= FETCH, "the spare is kept: {held}");
        assert!(held <= 2 * FETCH, "{held} bytes of flow receive capacity");
    }

    /// Runs `body` in a process that has a file, a connected socket and one
    /// mapped page, and checks it returned 0.
    fn with_fd_and_socket(port: u16, body: fn(&mut UserEnv, i64, i64, u64)) {
        let mut sys = System::boot_virtual_ghost();
        sys.wire_connect(port).unwrap();
        sys.install_app("hostile", false, move || {
            Box::new(move |env| {
                let file = env.open("/f", O_CREAT);
                let l = env.socket();
                env.bind(l, port);
                env.listen(l);
                let c = env.accept(l);
                assert!(file >= 0 && c >= 0);
                let page = env.mmap_anon(4096);
                env.write_mem(page, &[0u8; 4096]);
                body(env, file, c, page);
                0
            })
        });
        let pid = sys.spawn("hostile");
        assert_eq!(sys.run_until_exit(pid), 0);
    }

    /// A user length far past physical memory fails the `write` instead of
    /// aborting the host on a terabyte reservation.
    #[test]
    fn write_with_hostile_length_returns_error() {
        with_fd_and_socket(5200, |env, file, _, page| {
            assert_eq!(env.write(file, page, 1 << 40), -1);
        });
    }

    /// `usize::MAX` lengths fail `write`, `send` and `writev` before the
    /// copy is charged; the charge used to overflow (a panic in a debug
    /// build, a wrapped clock in a release one).
    #[test]
    fn usize_max_lengths_fail_write_send_and_writev() {
        with_fd_and_socket(5206, |env, file, sock, page| {
            assert_eq!(env.write(file, page, usize::MAX), -1);
            assert_eq!(env.send(sock, page, usize::MAX), -1);
            assert_eq!(env.writev(sock, page + 2048, &[(page, usize::MAX)]), -1);
        });
    }

    /// A `read` of a hostile length is a short read of what the file
    /// holds, not a terabyte reservation.
    #[test]
    fn read_with_hostile_length_reads_the_file() {
        with_fd_and_socket(5201, |env, file, _, page| {
            env.write_mem(page, b"abc");
            assert_eq!(env.write(file, page, 3), 3);
            env.lseek(file, 0, 0);
            assert_eq!(env.read(file, page, 1 << 40), 3);
        });
    }

    /// An iovec count over `UIO_MAXIOV` fails before the table is copied.
    #[test]
    fn readv_with_hostile_count_returns_error() {
        with_fd_and_socket(5202, |env, _, sock, page| {
            let args = [sock as u64, page, 1 << 34, 0, 0, 0];
            assert_eq!(env.syscall(crate::syscall::SYS_READV, args), -1);
        });
    }

    /// An iovec count whose table size overflows fails instead of
    /// panicking.
    #[test]
    fn writev_with_hostile_count_returns_error() {
        with_fd_and_socket(5203, |env, _, sock, page| {
            let args = [sock as u64, page, 1 << 60, 0, 0, 0];
            assert_eq!(env.syscall(crate::syscall::SYS_WRITEV, args), -1);
        });
    }

    /// A poll table whose size overflows fails instead of panicking.
    #[test]
    fn poll_with_hostile_count_returns_error() {
        with_fd_and_socket(5204, |env, _, _, page| {
            let args = [page, 1 << 60, 0, 0, 0, 0];
            assert_eq!(env.syscall(crate::syscall::SYS_POLL, args), -1);
        });
    }

    /// A hostile `select` count stops at the fd table instead of spinning
    /// the host through 2^60 empty slots.
    #[test]
    fn select_with_hostile_count_returns() {
        with_fd_and_socket(5205, |env, _, _, _| {
            assert_eq!(env.select(1 << 60), 1); // the file; the socket is quiet
        });
    }

    /// Regression: a ring-mode `send` whose second staging frame cannot be
    /// allocated still puts every byte on the wire and returns the full
    /// length (it used to send only the failed chunk and drop the rest).
    #[test]
    fn ring_send_survives_staging_frame_exhaustion_mid_batch() {
        use vg_machine::{FaultClass, FaultPlan, Trigger};
        const LEN: usize = 3 * MTU;
        let mut sys = System::boot_virtual_ghost();
        let flow = sys.wire_connect(5100).unwrap();
        sys.install_app("tx", false, || {
            Box::new(|env| {
                let l = env.socket();
                env.bind(l, 5100);
                env.listen(l);
                let c = env.accept(l);
                let buf = env.mmap_anon(LEN);
                let data: Vec<u8> = (0..LEN).map(|i| i as u8).collect();
                env.write_mem(buf, &data);
                env.sys
                    .machine
                    .faults
                    .arm(FaultPlan::new(1).with(FaultClass::FrameExhaust, Trigger::Nth(2)));
                assert_eq!(env.send(c, buf, LEN), LEN as i64);
                env.sys.machine.faults.disarm();
                assert_eq!(env.sys.machine.faults.injected(FaultClass::FrameExhaust), 1);
                0
            })
        });
        let pid = sys.spawn("tx");
        assert_eq!(sys.run_until_exit(pid), 0);
        let want: Vec<u8> = (0..LEN).map(|i| i as u8).collect();
        assert_eq!(sys.wire_recv(flow), want);
    }

    /// `write` on a socket takes the same data plane as `send`: in each
    /// mode the two put the same bytes on the wire for the same cycles and
    /// counters, and in ring mode both ring the TX doorbell.
    #[test]
    fn socket_write_takes_the_same_data_plane_as_send() {
        fn run(mode: NetMode, use_write: bool) -> (Vec<u8>, u64, Counters) {
            let mut sys = System::boot_virtual_ghost();
            sys.net_mode = mode;
            let flow = sys.wire_connect(5000).unwrap();
            sys.install_app("tx", false, move || {
                Box::new(move |env| {
                    let l = env.socket();
                    env.bind(l, 5000);
                    env.listen(l);
                    let c = env.accept(l);
                    let buf = env.mmap_anon(4096);
                    let data: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
                    env.write_mem(buf, &data);
                    let n = if use_write {
                        env.write(c, buf, 3000)
                    } else {
                        env.send(c, buf, 3000)
                    };
                    assert_eq!(n, 3000);
                    0
                })
            });
            let pid = sys.spawn("tx");
            assert_eq!(sys.run_until_exit(pid), 0);
            (
                sys.wire_recv(flow),
                sys.machine.clock.cycles(),
                sys.machine.counters,
            )
        }
        for mode in [NetMode::Ring, NetMode::Reference] {
            let sent = run(mode, false);
            let written = run(mode, true);
            assert_eq!(sent.0.len(), 3000);
            assert_eq!(written, sent, "{mode:?}: write and send diverged");
            assert_eq!(
                written.2.ring_doorbells > 0,
                mode == NetMode::Ring,
                "{mode:?}: doorbells"
            );
        }
    }

    /// The ring and reference data planes serve byte-identical traffic with
    /// identical packet segmentation — and the ring costs fewer CPU cycles.
    #[test]
    fn ring_and_reference_serve_identical_bytes() {
        fn run(mode: NetMode) -> (Vec<u8>, u64, u64, u64) {
            let mut sys = System::boot_virtual_ghost();
            sys.net_mode = mode;
            let flow = sys.wire_connect(5000).unwrap();
            sys.wire_send(flow, &[7u8; 2000]);
            sys.install_app("echo", false, || {
                Box::new(|env| {
                    let l = env.socket();
                    env.bind(l, 5000);
                    env.listen(l);
                    let c = env.accept(l);
                    let buf = env.mmap_anon(8192);
                    let iov_va = env.mmap_anon(4096);
                    let mut got = 0usize;
                    while got < 2000 {
                        let r = env.readv(c, iov_va, &[(buf + got as u64, 4096)]);
                        assert!(r > 0 || r == crate::syscall::EAGAIN);
                        if r > 0 {
                            got += r as usize;
                        }
                    }
                    assert_eq!(
                        env.writev(c, iov_va, &[(buf, 500), (buf + 500, 1500)]),
                        2000
                    );
                    env.close(c);
                    0
                })
            });
            let pid = sys.spawn("echo");
            assert_eq!(sys.run_until_exit(pid), 0);
            (
                sys.wire_recv(flow),
                sys.machine.counters.packets,
                sys.machine.nic.tx_bytes,
                sys.machine.clock.cycles(),
            )
        }
        let (ring_bytes, ring_pkts, ring_tx, ring_cycles) = run(NetMode::Ring);
        let (ref_bytes, ref_pkts, ref_tx, ref_cycles) = run(NetMode::Reference);
        assert_eq!(ring_bytes, ref_bytes);
        assert_eq!(ring_bytes.len(), 2000);
        assert_eq!(ring_pkts, ref_pkts);
        assert_eq!(ring_tx, ref_tx);
        assert!(
            ring_cycles < ref_cycles,
            "ring {ring_cycles} >= reference {ref_cycles}"
        );
    }
}
