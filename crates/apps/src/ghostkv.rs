//! ghostkv — a memcached-style key/value server whose value heap lives in
//! ghost memory.
//!
//! The paper's thesis applied to a cache tier: the values a KV server holds
//! are exactly the data a hostile OS would scrape, so ghostkv keeps every
//! value in ghost pages ([`Heap`] with ghost backing). Socket I/O cannot
//! touch ghost memory — the kernel's copyin/copyout would be refused — so
//! the server stages bytes through traditional memory on both paths, the
//! same pattern as the paper's 216-line libc patch:
//!
//! * `SET`: payload arrives in a traditional rx buffer (`readv`), then the
//!   application copies it into its ghost heap.
//! * `GET`: the application copies the value out of ghost memory into a
//!   per-response staging slot, and one batched `writev` per connection per
//!   round transmits every staged response through the descriptor ring.
//!
//! The accept/`poll`/`readv`/`writev` loop is the crate's shared server
//! loop (the one the thttpd C10K port runs too); ghostkv supplies only the
//! protocol step. There are 256 staging slots, one per iovec-table entry,
//! so a connection with more than 256 pipelined commands in a round gets
//! one `writev` per 256.
//!
//! Protocol (text framed, pipelining friendly):
//!
//! ```text
//! SET <key> <len>\n<len bytes>   ->  OK\n
//! GET <key>\n                    ->  VALUE <len>\n<len bytes>  |  MISS\n
//! ```

use crate::server::{self, LoopBufs, IOV_MAX};
use crate::thttpd; // shares the C10K latency/throughput reporting shape
use std::collections::HashMap;
use vg_kernel::{System, UserEnv};
use vg_runtime::Heap;

/// Port the server listens on (memcached's).
pub const KV_PORT: u16 = 11211;

/// Staging slot stride: one response (header + value) per slot.
const SLOT: u64 = 4096;

/// Largest value the staging layout accepts.
pub const MAX_VALUE: usize = 2048;

/// One parsed command.
enum Cmd {
    Set { key: String, value: Vec<u8> },
    Get { key: String },
}

/// Pulls the first complete command off the front of `acc`, or `None`
/// when only partial input is left.
fn next_command(acc: &mut Vec<u8>) -> Option<Cmd> {
    let nl = acc.iter().position(|&b| b == b'\n')?;
    let line = String::from_utf8_lossy(&acc[..nl]).into_owned();
    let parts: Vec<&str> = line.split_whitespace().collect();
    match parts.as_slice() {
        ["SET", key, len] => {
            let len: usize = len.parse().expect("SET length");
            if acc.len() < nl + 1 + len {
                return None; // payload not fully arrived yet
            }
            let value = acc[nl + 1..nl + 1 + len].to_vec();
            acc.drain(..nl + 1 + len);
            Some(Cmd::Set {
                key: key.to_string(),
                value,
            })
        }
        ["GET", key] => {
            acc.drain(..nl + 1);
            Some(Cmd::Get {
                key: key.to_string(),
            })
        }
        other => panic!("bad kv command: {other:?}"),
    }
}

/// The server's store: key → (ghost address, length). The map itself is
/// allocator metadata (host-side, like [`Heap`]'s free list); the value
/// bytes live in simulated ghost pages.
struct Store {
    heap: Heap,
    index: HashMap<String, (u64, usize)>,
}

impl Store {
    fn set(&mut self, env: &mut UserEnv, key: String, value: &[u8]) {
        assert!(value.len() <= MAX_VALUE, "value exceeds staging slot");
        if let Some((va, _)) = self.index.remove(&key) {
            self.heap.free(va);
        }
        let va = self.heap.malloc(env, value.len() as u64);
        env.write_mem(va, value); // traditional rx staging -> ghost heap
        self.index.insert(key, (va, value.len()));
    }

    /// Stages the response for `key` at `slot_va`; returns its length.
    fn get_into(&self, env: &mut UserEnv, key: &str, slot_va: u64) -> usize {
        match self.index.get(key) {
            Some(&(va, len)) => {
                let header = format!("VALUE {len}\n").into_bytes();
                let value = env.read_mem(va, len); // ghost heap -> staging
                let mut resp = header;
                resp.extend_from_slice(&value);
                env.write_mem(slot_va, &resp);
                resp.len()
            }
            None => {
                env.write_mem(slot_va, b"MISS\n");
                5
            }
        }
    }
}

/// Event-loop body: the shared loop with the KV protocol as its step, one
/// staging [`SLOT`] and one iovec per response. Returns commands served.
pub(crate) fn serve_kv(env: &mut UserEnv, listen_fd: i64, lat: &mut Vec<u64>, t0: u64) -> u64 {
    let ghost = env.sys.procs[&env.pid].ghosting;
    let heap = Heap::new(env, ghost);
    let mut store = Store {
        heap,
        index: HashMap::new(),
    };
    let bufs = LoopBufs::map(env);
    let staging = env.mmap_anon(IOV_MAX * SLOT as usize); // response slots, reused per batch
    let metric = "kv.request_cycles";
    server::event_loop(
        env,
        listen_fd,
        &bufs,
        metric,
        lat,
        t0,
        |env, input, iovs| {
            while iovs.len() < IOV_MAX {
                let Some(cmd) = next_command(input) else {
                    break;
                };
                let slot_va = staging + iovs.len() as u64 * SLOT;
                let len = match cmd {
                    Cmd::Set { key, value } => {
                        store.set(env, key, &value);
                        env.write_mem(slot_va, b"OK\n");
                        3
                    }
                    Cmd::Get { key } => store.get_into(env, &key, slot_va),
                };
                iovs.push((slot_va, len));
            }
            iovs.len()
        },
    )
}

/// The client command train for one connection: `pairs` SETs of distinct
/// keys followed by `pairs` GETs reading them back.
pub(crate) fn command_train(conn: usize, pairs: u32, value_size: usize) -> (Vec<u8>, Vec<u8>) {
    let mut train = Vec::new();
    let mut expected = Vec::new();
    for p in 0..pairs {
        let value = kv_value(conn, p, value_size);
        train.extend_from_slice(format!("SET k{conn}-{p} {}\n", value.len()).as_bytes());
        train.extend_from_slice(&value);
        expected.extend_from_slice(b"OK\n");
    }
    for p in 0..pairs {
        let value = kv_value(conn, p, value_size);
        train.extend_from_slice(format!("GET k{conn}-{p}\n").as_bytes());
        expected.extend_from_slice(format!("VALUE {}\n", value.len()).as_bytes());
        expected.extend_from_slice(&value);
    }
    (train, expected)
}

/// Deterministic per-key value bytes.
fn kv_value(conn: usize, pair: u32, value_size: usize) -> Vec<u8> {
    (0..value_size)
        .map(|i| ((conn * 131 + pair as usize * 17 + i) % 251) as u8)
        .collect()
}

/// Result of one ghostkv load run (same shape as
/// [`thttpd::C10kBench`]).
pub type KvBench = thttpd::C10kBench;

/// Drives `conns` pipelined connections, each issuing `pairs` SETs then
/// `pairs` GETs of `value_size`-byte values, against the event-loop server
/// under whatever [`NetMode`](vg_kernel::NetMode) is set on `sys`. Verifies
/// every connection's response bytes, then reports throughput and latency.
pub fn kv_load(sys: &mut System, value_size: usize, conns: u32, pairs: u32) -> KvBench {
    let mut expected = Vec::with_capacity(conns as usize);
    let trains = (0..conns as usize).map(|c| {
        let (train, expect) = command_train(c, pairs, value_size);
        expected.push(expect);
        train
    });
    let (bench, flows) = server::load(
        sys,
        "ghostkv",
        true,
        KV_PORT,
        trains,
        pairs * 2,
        value_size,
        serve_kv,
    );
    for (i, flow) in flows.iter().enumerate() {
        assert_eq!(
            sys.wire_recv(*flow),
            expected[i],
            "connection {i} response bytes"
        );
    }
    bench
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_kernel::{Mode, NetMode};

    #[test]
    fn sets_and_gets_roundtrip_with_miss() {
        let mut sys = System::boot(Mode::VirtualGhost);
        let flow = sys.wire_connect(KV_PORT).unwrap();
        sys.wire_send(flow, b"SET a 3\nxyzGET a\nGET nope\n");
        sys.wire_close(flow);
        sys.install_app("ghostkv", true, || {
            Box::new(|env| {
                let sock = env.socket();
                env.bind(sock, KV_PORT);
                env.listen(sock);
                serve_kv(env, sock, &mut Vec::new(), 0);
                0
            })
        });
        let pid = sys.spawn("ghostkv");
        sys.run_until_exit(pid);
        assert_eq!(sys.wire_recv(flow), b"OK\nVALUE 3\nxyzMISS\n".to_vec());
    }

    #[test]
    fn pipeline_past_staging_slots_is_served() {
        // 400 pipelined commands on one connection, more than the 256
        // staging slots: two writevs, every response byte verified by
        // kv_load, nothing staged past the slots.
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.net_mode = NetMode::Ring;
        let b = kv_load(&mut sys, 8, 1, 200);
        assert_eq!(b.requests, 400);
        let writevs = sys.machine.metrics.histogram("sys.writev").unwrap();
        assert_eq!(writevs.count(), 2);
    }

    #[test]
    fn values_live_in_ghost_frames() {
        // The point of the app: after a load, the store's value pages are
        // ghost memory — unreadable by the kernel, un-DMA-able by the ring.
        let mut sys = System::boot(Mode::VirtualGhost);
        kv_load(&mut sys, 64, 4, 2);
        assert!(
            sys.machine.counters.ghost_pages_allocated > 0,
            "value heap drew ghost pages"
        );
    }

    #[test]
    fn ring_and_reference_modes_serve_identical_bytes() {
        // kv_load itself verifies full response bytes per connection; run
        // it under both data planes and compare the cost books.
        let mut ring = System::boot(Mode::VirtualGhost);
        ring.net_mode = NetMode::Ring;
        let r = kv_load(&mut ring, 128, 16, 4);
        let mut refer = System::boot(Mode::VirtualGhost);
        refer.net_mode = NetMode::Reference;
        let f = kv_load(&mut refer, 128, 16, 4);
        assert_eq!(r.requests, f.requests);
        assert_eq!(
            ring.machine.counters.packets,
            refer.machine.counters.packets
        );
        assert!(
            r.req_per_megacycle > f.req_per_megacycle,
            "ring {} vs reference {}",
            r.req_per_megacycle,
            f.req_per_megacycle
        );
    }
}
