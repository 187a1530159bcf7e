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
use crate::{extend_payload, push_decimal};
use std::collections::HashMap;
use std::ops::Range;
use vg_kernel::{System, UserEnv};
use vg_runtime::Heap;

/// Port the server listens on (memcached's).
pub const KV_PORT: u16 = 11211;

/// Staging slot stride: one response (header + value) per slot.
const SLOT: u64 = 4096;

/// Largest value the staging layout accepts.
pub const MAX_VALUE: usize = 2048;

/// One parsed command, as byte ranges into the connection's input.
#[derive(Debug)]
enum Cmd {
    Set {
        key: Range<usize>,
        value: Range<usize>,
    },
    Get {
        key: Range<usize>,
    },
    /// A line that is no command, or a `SET` whose length is no number.
    Error,
    /// A `SET` of more than [`MAX_VALUE`] bytes (its payload is consumed).
    TooLarge,
}

/// Parses the first complete command in `input[at..]` and returns it with
/// the offset just past it, or `None` when only partial input is left.
fn next_command(input: &[u8], at: usize) -> Option<(Cmd, usize)> {
    let nl = at + input[at..].iter().position(|&b| b == b'\n')?;
    let mut words = words(input, at..nl);
    let verb = words.next().map(|r| &input[r]);
    match (verb, [words.next(), words.next(), words.next()]) {
        (Some(b"SET"), [Some(key), Some(len), None]) => {
            let Some(len) = std::str::from_utf8(&input[len])
                .ok()
                .and_then(|l| l.parse::<usize>().ok())
            else {
                return Some((Cmd::Error, nl + 1));
            };
            let end = (nl + 1).saturating_add(len);
            if input.len() < end {
                return None; // payload not fully arrived yet
            }
            if len > MAX_VALUE {
                return Some((Cmd::TooLarge, end));
            }
            Some((
                Cmd::Set {
                    key,
                    value: nl + 1..end,
                },
                end,
            ))
        }
        (Some(b"GET"), [Some(key), None, None]) => Some((Cmd::Get { key }, nl + 1)),
        _ => Some((Cmd::Error, nl + 1)),
    }
}

/// The whitespace-separated words of `input[line]`, as ranges into
/// `input`.
fn words(input: &[u8], line: Range<usize>) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut i = line.start;
    std::iter::from_fn(move || {
        while i < line.end && input[i].is_ascii_whitespace() {
            i += 1;
        }
        let start = i;
        while i < line.end && !input[i].is_ascii_whitespace() {
            i += 1;
        }
        (start < i).then_some(start..i)
    })
}

/// The server's store: key → (ghost address, length). The map itself is
/// allocator metadata (host-side, like [`Heap`]'s free list); the value
/// bytes live in simulated ghost pages.
struct Store {
    heap: Heap,
    index: HashMap<Vec<u8>, (u64, usize)>,
    /// The `GET` response being built, reused across commands.
    resp: Vec<u8>,
}

impl Store {
    fn set(&mut self, env: &mut UserEnv, key: &[u8], value: &[u8]) {
        assert!(value.len() <= MAX_VALUE, "value exceeds staging slot");
        let entry = self.index.get_mut(key);
        if let Some(&(va, _)) = entry.as_deref() {
            self.heap.free(va);
        }
        let va = self.heap.malloc(env, value.len() as u64);
        env.write_mem(va, value); // traditional rx staging -> ghost heap
        match entry {
            Some(entry) => *entry = (va, value.len()),
            None => {
                self.index.insert(key.to_vec(), (va, value.len()));
            }
        }
    }

    /// Stages the response for `key` at `slot_va`; returns its length.
    fn get_into(&mut self, env: &mut UserEnv, key: &[u8], slot_va: u64) -> usize {
        match self.index.get(key) {
            Some(&(va, len)) => {
                self.resp.clear();
                value_header(&mut self.resp, len);
                env.read_mem_into(va, len, &mut self.resp); // ghost heap -> staging
                env.write_mem(slot_va, &self.resp);
                self.resp.len()
            }
            None => reply(env, slot_va, b"MISS\n"),
        }
    }
}

/// Stages a fixed response at `slot_va`; returns its length.
fn reply(env: &mut UserEnv, slot_va: u64, msg: &[u8]) -> usize {
    env.write_mem(slot_va, msg);
    msg.len()
}

/// Event-loop body: the shared loop with the KV protocol as its step, one
/// staging [`SLOT`] and one iovec per response. Returns commands served.
pub(crate) fn serve_kv(env: &mut UserEnv, listen_fd: i64, lat: &mut Vec<u64>, t0: u64) -> u64 {
    let ghost = env.sys.procs[&env.pid].ghosting;
    let heap = Heap::new(env, ghost);
    let mut store = Store {
        heap,
        index: HashMap::new(),
        resp: Vec::new(),
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
            let mut at = 0;
            while iovs.len() < IOV_MAX {
                let Some((cmd, end)) = next_command(input, at) else {
                    break;
                };
                let slot_va = staging + iovs.len() as u64 * SLOT;
                let len = match cmd {
                    Cmd::Set { key, value } => {
                        store.set(env, &input[key], &input[value]);
                        reply(env, slot_va, b"OK\n")
                    }
                    Cmd::Get { key } => store.get_into(env, &input[key], slot_va),
                    Cmd::Error => reply(env, slot_va, b"ERROR\n"),
                    Cmd::TooLarge => reply(env, slot_va, b"SERVER_ERROR too large\n"),
                };
                iovs.push((slot_va, len));
                at = end;
            }
            input.drain(..at);
            iovs.len()
        },
    )
}

/// The client command train for one connection: `pairs` SETs of distinct
/// keys followed by `pairs` GETs reading them back, and the responses it
/// is owed. Both are written in place into buffers of their exact size.
pub(crate) fn command_train(conn: usize, pairs: u32, value_size: usize) -> (Vec<u8>, Vec<u8>) {
    assert!(
        value_size <= MAX_VALUE,
        "value size {value_size} over MAX_VALUE"
    );
    let n = pairs as usize;
    let pair_digits: usize = (0..n).map(digits).sum();
    // Per pair: `SET k{conn}-{p} {len}\n{value}` and `GET k{conn}-{p}\n`;
    // `OK\n` and `VALUE {len}\n{value}`.
    let train_len = n * (15 + 2 * digits(conn) + digits(value_size) + value_size) + 2 * pair_digits;
    let expected_len = n * (10 + digits(value_size) + value_size);
    let mut train = Vec::with_capacity(train_len);
    let mut expected = Vec::with_capacity(expected_len);
    for p in 0..n {
        key_line(&mut train, b"SET k", conn, p);
        train.push(b' ');
        push_decimal(&mut train, value_size);
        train.push(b'\n');
        kv_value(&mut train, conn, p, value_size);
        expected.extend_from_slice(b"OK\n");
    }
    for p in 0..n {
        key_line(&mut train, b"GET k", conn, p);
        train.push(b'\n');
        value_header(&mut expected, value_size);
        kv_value(&mut expected, conn, p, value_size);
    }
    debug_assert_eq!((train.len(), expected.len()), (train_len, expected_len));
    (train, expected)
}

/// Appends `{verb}{conn}-{pair}`, a command up to the end of its key.
fn key_line(out: &mut Vec<u8>, verb: &[u8], conn: usize, pair: usize) {
    out.extend_from_slice(verb);
    push_decimal(out, conn);
    out.push(b'-');
    push_decimal(out, pair);
}

/// Appends a `GET` hit's header line, `VALUE {len}\n`.
fn value_header(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(b"VALUE ");
    push_decimal(out, len);
    out.push(b'\n');
}

/// Decimal digits of `n`.
fn digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Appends the deterministic value bytes of one key to `out`.
fn kv_value(out: &mut Vec<u8>, conn: usize, pair: usize, value_size: usize) {
    extend_payload(out, conn * 131 + pair * 17, 1, value_size);
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
    use proptest::prelude::*;
    use vg_kernel::{Mode, NetMode};

    /// Serves one connection that sends `input` and half-closes; returns
    /// the bytes the server answered.
    fn serve_one(input: &[u8]) -> Vec<u8> {
        let mut sys = System::boot(Mode::VirtualGhost);
        let flow = sys.wire_connect(KV_PORT).unwrap();
        sys.wire_send(flow, input);
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
        assert_eq!(sys.run_until_exit(pid), 0);
        sys.wire_recv(flow)
    }

    #[test]
    fn malformed_line_gets_error() {
        assert_eq!(
            serve_one(b"BOGUS a\nGET a b\nGET a\n"),
            b"ERROR\nERROR\nMISS\n"
        );
    }

    #[test]
    fn non_numeric_set_length_gets_error() {
        assert_eq!(
            serve_one(b"SET a x\nSET a -1\nGET a\n"),
            b"ERROR\nERROR\nMISS\n"
        );
    }

    #[test]
    fn oversized_value_gets_server_error_after_its_payload() {
        let mut input = format!("SET a {}\n", MAX_VALUE + 1).into_bytes();
        input.resize(input.len() + MAX_VALUE + 1, b'v');
        input.extend_from_slice(b"GET a\n");
        assert_eq!(serve_one(&input), b"SERVER_ERROR too large\nMISS\n");
    }

    /// The owned-string parser the borrowed one replaced, kept as its
    /// oracle over valid input.
    #[derive(Debug, PartialEq)]
    enum OracleCmd {
        Set { key: String, value: Vec<u8> },
        Get { key: String },
    }

    fn oracle_next_command(acc: &mut Vec<u8>) -> Option<OracleCmd> {
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
                Some(OracleCmd::Set {
                    key: key.to_string(),
                    value,
                })
            }
            ["GET", key] => {
                acc.drain(..nl + 1);
                Some(OracleCmd::Get {
                    key: key.to_string(),
                })
            }
            other => panic!("bad kv command: {other:?}"),
        }
    }

    /// One valid command: a key of letters and digits, and for a `SET` a
    /// value of any bytes (newlines and spaces included).
    fn command() -> impl Strategy<Value = Vec<u8>> {
        let key = proptest::collection::vec(0u8..62, 1..12).prop_map(|k| {
            let abc = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
            k.into_iter().map(|i| abc[i as usize]).collect::<Vec<u8>>()
        });
        let value = proptest::collection::vec(any::<u8>(), 0..300);
        (key, value, any::<bool>(), 0u8..3).prop_map(|(key, value, set, pad)| {
            let sep = &b" \t  "[..=pad as usize];
            let mut cmd = Vec::new();
            if set {
                cmd.extend_from_slice(b"SET");
                cmd.extend_from_slice(sep);
                cmd.extend_from_slice(&key);
                cmd.extend_from_slice(format!(" {}\n", value.len()).as_bytes());
                cmd.extend_from_slice(&value);
            } else {
                cmd.extend_from_slice(b"GET");
                cmd.extend_from_slice(sep);
                cmd.extend_from_slice(&key);
                cmd.extend_from_slice(b"\r\n");
            }
            cmd
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over a valid command stream cut at any point, the borrowed
        /// parser finds the oracle's commands, consumes the same bytes
        /// after each, and stops (`None`) where the oracle does: at the
        /// first command the cut left partial.
        #[test]
        fn borrowed_parser_matches_the_oracle(
            cmds in proptest::collection::vec(command(), 0..12),
            cut in any::<u64>(),
        ) {
            let stream = cmds.concat();
            let cut = (cut % (stream.len() as u64 + 1)) as usize;
            let input = &stream[..cut];
            let mut got = Vec::new();
            let mut at = 0;
            while let Some((cmd, end)) = next_command(input, at) {
                let cmd = match cmd {
                    Cmd::Set { key, value } => OracleCmd::Set {
                        key: String::from_utf8(input[key].to_vec()).unwrap(),
                        value: input[value].to_vec(),
                    },
                    Cmd::Get { key } => OracleCmd::Get {
                        key: String::from_utf8(input[key].to_vec()).unwrap(),
                    },
                    other => panic!("valid input parsed as {other:?}"),
                };
                got.push((cmd, end));
                at = end;
            }
            let mut acc = input.to_vec();
            let mut want = Vec::new();
            while let Some(cmd) = oracle_next_command(&mut acc) {
                want.push((cmd, cut - acc.len()));
            }
            let whole = cmds
                .iter()
                .scan(0, |end, c| {
                    *end += c.len();
                    Some(*end)
                })
                .take_while(|&end| end <= cut)
                .count();
            prop_assert_eq!(got.len(), whole);
            prop_assert_eq!(got, want);
        }
    }

    /// The `fmt` and per-byte `% 251` train builder `command_train`
    /// replaced, kept as its oracle.
    fn oracle_command_train(conn: usize, pairs: u32, value_size: usize) -> (Vec<u8>, Vec<u8>) {
        use std::io::Write;
        let value = |out: &mut Vec<u8>, p: u32| {
            out.extend((0..value_size).map(|i| ((conn * 131 + p as usize * 17 + i) % 251) as u8));
        };
        let (mut train, mut expected) = (Vec::new(), Vec::new());
        for p in 0..pairs {
            writeln!(train, "SET k{conn}-{p} {value_size}").unwrap();
            value(&mut train, p);
            expected.extend_from_slice(b"OK\n");
        }
        for p in 0..pairs {
            writeln!(train, "GET k{conn}-{p}").unwrap();
            writeln!(expected, "VALUE {value_size}").unwrap();
            value(&mut expected, p);
        }
        (train, expected)
    }

    /// Checks one train against the oracle, and that both buffers were
    /// allocated at their exact size.
    fn assert_train_matches_oracle(conn: usize, pairs: u32, value_size: usize) {
        let (train, expected) = command_train(conn, pairs, value_size);
        assert_eq!(
            (train.capacity(), expected.capacity()),
            (train.len(), expected.len()),
            "conn {conn} pairs {pairs} value_size {value_size}: exact capacity"
        );
        assert!(
            (train, expected) == oracle_command_train(conn, pairs, value_size),
            "conn {conn} pairs {pairs} value_size {value_size}"
        );
    }

    #[test]
    fn command_train_matches_the_oracle_at_period_and_size_edges() {
        for value_size in [0, 1, 250, 251, 252, 1000, MAX_VALUE] {
            for (conn, pairs) in [(0, 0), (0, 1), (1023, 4), (99_999, 12), (250, 251)] {
                assert_train_matches_oracle(conn, pairs, value_size);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The train and the responses it is owed are byte-identical to
        /// the `writeln!` + per-byte formula builder's.
        #[test]
        fn command_train_matches_the_oracle(
            conn in 0usize..200_000,
            pairs in 0u32..24,
            value_size in prop_oneof![
                Just(0usize),
                Just(250usize),
                Just(251usize),
                Just(252usize),
                Just(MAX_VALUE),
                0..MAX_VALUE + 1,
            ],
        ) {
            assert_train_matches_oracle(conn, pairs, value_size);
        }
    }

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
