//! thttpd-style web server and the ApacheBench-like driver (Figure 2),
//! plus the C10K event-loop port and its driver.
//!
//! Two server architectures share the request/response format:
//!
//! * [`serve_all`]-style synchronous serving — accept a connection, read
//!   the request, respond with per-call `send`s, close. Kept verbatim (per
//!   the Figure 2 driver) and extended with keep-alive support as
//!   [`ServerKind::Sync`], the reference side of the C10K comparison.
//! * A single-process event loop ([`ServerKind::EventLoop`]): a
//!   non-blocking listener running the crate's shared server loop (the one
//!   ghostkv runs too) with HTTP as its protocol step — `poll` readiness
//!   over every live connection, `readv` request gathering, and one
//!   `writev` per connection per round that batches all pending responses
//!   into a single descriptor-ring submission. Each response takes two
//!   iovecs of the 256-entry table, so a connection with more than 128
//!   pipelined requests in a round gets one `writev` per 128.
//!
//! The C10K driver pre-queues N connections × K pipelined keep-alive
//! requests (the paper's client machines, scaled up), runs the server until
//! the backlog drains through the shared single-process load driver, and
//! reports requests-per-megacycle plus p50/p99 request latency through the
//! vg-trace metrics registry.

use crate::server::{self, LoopBufs, IOV_MAX};
use vg_kernel::{System, UserEnv};

/// Port the server listens on.
pub const HTTP_PORT: u16 = 80;

pub(crate) fn http_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.0\r\n\r\n").into_bytes()
}

fn parse_request(req: &[u8]) -> Option<String> {
    let s = std::str::from_utf8(req).ok()?;
    let mut parts = s.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    Some(parts.next()?.to_string())
}

/// One request-serving pass of the server: accepts and serves until the
/// backlog is empty. Returns connections served.
fn serve_all(env: &mut UserEnv, listen_fd: i64) -> u64 {
    let rxbuf = env.mmap_anon(4096);
    let filebuf = env.mmap_anon(8192);
    let mut served = 0;
    loop {
        let conn = env.accept(listen_fd);
        if conn < 0 {
            break;
        }
        let n = env.recv(conn, rxbuf, 1024);
        if n > 0 {
            let req = env.read_mem(rxbuf, n as usize);
            if let Some(path) = parse_request(&req) {
                let fd = env.open(&path, 0);
                if fd >= 0 {
                    let header = b"HTTP/1.0 200 OK\r\n\r\n";
                    env.write_mem(filebuf, header);
                    env.send(conn, filebuf, header.len());
                    loop {
                        let r = env.read(fd, filebuf, 8192);
                        if r <= 0 {
                            break;
                        }
                        env.send(conn, filebuf, r as usize);
                    }
                    env.close(fd);
                } else {
                    let hdr = b"HTTP/1.0 404 Not Found\r\n\r\n";
                    env.write_mem(filebuf, hdr);
                    env.send(conn, filebuf, hdr.len());
                }
            }
        }
        env.close(conn);
        served += 1;
    }
    served
}

/// Result of one bandwidth measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpBench {
    /// File size served.
    pub file_size: usize,
    /// Requests completed.
    pub requests: u32,
    /// Average bandwidth in KB/s of payload data.
    pub kb_per_sec: f64,
}

/// Serves `requests` requests for a file of `file_size` bytes and returns
/// the measured bandwidth (the paper served each size with ApacheBench and
/// reported mean bandwidth).
pub fn bandwidth(sys: &mut System, file_size: usize, requests: u32) -> HttpBench {
    // Document root content: "random data from /dev/random" in the paper.
    sys.write_file("/index.dat", &document(file_size));

    // Client side: queue all connections with their requests (the wire has
    // them ready; the single-threaded server drains the backlog).
    let mut flows = Vec::with_capacity(requests as usize);
    for _ in 0..requests {
        let flow = sys.wire_connect(HTTP_PORT).expect("wire connect");
        sys.wire_send(flow, &http_request("/index.dat"));
        flows.push(flow);
    }

    let run = crate::run_once(sys, "thttpd", false, |env| {
        server::listen_and_serve(env, HTTP_PORT, &|env, sock, _, _| serve_all(env, sock))
    });
    assert_eq!(run.requests, requests as u64, "all queued requests served");

    // Verify responses arrived intact (first flow spot check).
    let resp = sys.wire_recv(flows[0]);
    assert!(resp.len() >= file_size, "short response: {}", resp.len());

    // Server CPU overlaps wire+client time (the paper's client was a
    // separate machine driving 100 concurrent connections).
    let seconds = run.cpu.max(run.wire) as f64 / vg_machine::cost::CYCLES_PER_US / 1e6;
    let kb = (file_size as f64 * requests as f64) / 1024.0;
    HttpBench {
        file_size,
        requests,
        kb_per_sec: kb / seconds,
    }
}

// ---- C10K: keep-alive servers + driver -------------------------------------

/// Which server architecture the C10K driver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// Per-call synchronous serving (the reference): one connection at a
    /// time, `recv`/`send` per request.
    Sync,
    /// Single-process event loop: `poll` readiness, `readv` gathering, one
    /// batched `writev` per connection per round.
    EventLoop,
}

/// The keep-alive response header both servers emit for a `file_size` body.
pub(crate) fn http_header(file_size: usize) -> Vec<u8> {
    format!("HTTP/1.1 200 OK\r\nContent-Length: {file_size}\r\n\r\n").into_bytes()
}

/// Consumes up to `max` complete (`\r\n\r\n`-terminated) requests off the
/// front of `acc` and returns how many; leaves the rest in place.
fn drain_complete_requests(acc: &mut Vec<u8>, max: usize) -> usize {
    let (mut count, mut end) = (0, 0);
    while count < max {
        let Some(pos) = acc[end..].windows(4).position(|w| w == b"\r\n\r\n") else {
            break;
        };
        end += pos + 4;
        count += 1;
    }
    acc.drain(..end);
    count
}

/// The `/index.dat` document the C10K drivers serve: `file_size` bytes.
pub(crate) fn document(file_size: usize) -> Vec<u8> {
    crate::payload(0, 31, file_size)
}

/// One connection's client train: `reqs_per_conn` pipelined requests for
/// `/index.dat`.
pub(crate) fn request_train(reqs_per_conn: u32) -> Vec<u8> {
    http_request("/index.dat").repeat(reqs_per_conn as usize)
}

/// Checks one C10K flow's response bytes: `reqs_per_conn` responses for
/// `doc`, the first of which starts with the header and the document's
/// first bytes.
pub(crate) fn check_response(resp: &[u8], doc: &[u8], reqs_per_conn: u32) {
    let hdr = http_header(doc.len());
    assert_eq!(resp.len(), (hdr.len() + doc.len()) * reqs_per_conn as usize);
    assert!(resp.starts_with(&hdr));
    let head = doc.len().min(64);
    assert_eq!(&resp[hdr.len()..hdr.len() + head], &doc[..head]);
}

/// Largest `/index.dat` the C10K servers serve: the size of the mapping
/// [`load_document`] reads it into.
pub const DOC_MAX: usize = 1 << 20;

/// Loads `/index.dat` into user memory once at server startup (real thttpd
/// mmaps its document root; both C10K servers cache identically so the
/// comparison isolates the I/O plane, not the file cache). Returns
/// `(file_va, file_size, hdr_va, hdr_len)`.
///
/// # Panics
///
/// Panics if a read fails, as it does once a document over [`DOC_MAX`]
/// runs past the mapping: serving it cut short would be worse.
fn load_document(env: &mut UserEnv) -> (u64, usize, u64, usize) {
    let fd = env.open("/index.dat", 0);
    assert!(fd >= 0, "document root missing");
    let filebuf = env.mmap_anon(DOC_MAX);
    let mut size = 0usize;
    loop {
        let r = env.read(fd, filebuf + size as u64, 8192);
        assert!(
            r >= 0,
            "reading /index.dat failed at byte {size} (DOC_MAX {DOC_MAX})"
        );
        if r == 0 {
            break;
        }
        size += r as usize;
    }
    env.close(fd);
    let header = http_header(size);
    let hdr_va = env.mmap_anon(4096);
    env.write_mem(hdr_va, &header);
    (filebuf, size, hdr_va, header.len())
}

/// Synchronous keep-alive server: drains the accept backlog one connection
/// at a time, serving every pipelined request on it with per-call `send`s
/// until the client closes. Returns requests served.
fn serve_sync_c10k(env: &mut UserEnv, listen_fd: i64, lat: &mut Vec<u64>, t0: u64) -> u64 {
    let (file_va, file_size, hdr_va, hdr_len) = load_document(env);
    let rxbuf = env.mmap_anon(4096);
    let mut served = 0u64;
    loop {
        let conn = env.accept(listen_fd);
        if conn < 0 {
            break;
        }
        let mut acc: Vec<u8> = Vec::new();
        loop {
            let n = env.recv(conn, rxbuf, 4096);
            if n <= 0 {
                break; // EOF (client done) or would-block on a dead conn
            }
            acc.extend(env.read_mem(rxbuf, n as usize));
            for _ in 0..drain_complete_requests(&mut acc, usize::MAX) {
                env.send(conn, hdr_va, hdr_len);
                env.send(conn, file_va, file_size);
                served += 1;
                let now = env.sys.machine.clock.cycles() - t0;
                env.sys.machine.metrics.observe("http.request_cycles", now);
                lat.push(now);
            }
        }
        env.close(conn);
    }
    served
}

/// Event-loop server: the shared loop with HTTP as its protocol step, two
/// iovecs (header, document) per response. Returns requests served.
pub(crate) fn serve_event_loop(
    env: &mut UserEnv,
    listen_fd: i64,
    lat: &mut Vec<u64>,
    t0: u64,
) -> u64 {
    let (file_va, file_size, hdr_va, hdr_len) = load_document(env);
    env.set_nonblocking(listen_fd, true);
    let bufs = LoopBufs::map(env);
    let metric = "http.request_cycles";
    server::event_loop(
        env,
        listen_fd,
        &bufs,
        metric,
        lat,
        t0,
        |_env, input, iovs| {
            let requests = drain_complete_requests(input, IOV_MAX / 2);
            for _ in 0..requests {
                iovs.extend([(hdr_va, hdr_len), (file_va, file_size)]);
            }
            requests
        },
    )
}

/// Result of one C10K run.
#[derive(Debug, Clone, PartialEq)]
pub struct C10kBench {
    /// Concurrent connections driven.
    pub conns: u32,
    /// Pipelined keep-alive requests per connection.
    pub reqs_per_conn: u32,
    /// File size served per request.
    pub file_size: usize,
    /// Requests completed (== conns × reqs_per_conn on success).
    pub requests: u64,
    /// Server CPU cycles consumed.
    pub cpu_cycles: u64,
    /// Wire occupancy cycles (overlaps CPU; the client side).
    pub wire_cycles: u64,
    /// Requests served per million CPU cycles — the headline number.
    pub req_per_megacycle: f64,
    /// Median request completion latency (cycles from load start).
    pub p50_cycles: u64,
    /// 99th-percentile request completion latency.
    pub p99_cycles: u64,
}

/// Drives `conns` concurrent connections, each pipelining `reqs_per_conn`
/// keep-alive requests for a `file_size`-byte document, against the chosen
/// server architecture. Uses whatever [`NetMode`](vg_kernel::NetMode) is set on `sys` (the
/// standard pairing: event loop on `Ring`, sync reference on `Reference`).
/// Request latencies land in the `http.request_cycles` metrics histogram.
pub fn c10k(
    sys: &mut System,
    file_size: usize,
    conns: u32,
    reqs_per_conn: u32,
    server: ServerKind,
) -> C10kBench {
    assert!(file_size <= DOC_MAX, "file size {file_size} over DOC_MAX");
    let doc = document(file_size);
    sys.write_file("/index.dat", &doc);
    let train = request_train(reqs_per_conn);
    let trains = std::iter::repeat_n(&train[..], conns as usize);
    let serve = move |env: &mut UserEnv, sock, lat: &mut Vec<u64>, t0| match server {
        ServerKind::Sync => serve_sync_c10k(env, sock, lat, t0),
        ServerKind::EventLoop => serve_event_loop(env, sock, lat, t0),
    };
    let (bench, flows) = crate::server::load(
        sys,
        "thttpd-c10k",
        false,
        HTTP_PORT,
        trains,
        reqs_per_conn,
        file_size,
        serve,
    );
    // Spot-check a flow: every response present and byte-correct.
    check_response(&sys.wire_recv(flows[0]), &doc, reqs_per_conn);
    bench
}

#[cfg(test)]
mod c10k_tests {
    use super::*;
    use vg_kernel::{Mode, NetMode};

    #[test]
    fn event_loop_and_sync_serve_identical_bytes() {
        // wire_recv drains, so collect each system's responses exactly once.
        let run = |server: ServerKind, mode: NetMode| {
            let mut sys = System::boot(Mode::VirtualGhost);
            sys.net_mode = mode;
            let b = c10k(&mut sys, 512, 16, 4, server);
            assert_eq!(b.requests, 64);
            let responses: Vec<Vec<u8>> = (2..16u64).map(|f| sys.wire_recv(f)).collect();
            (responses, sys.machine.counters.packets)
        };
        // Same server, both data planes: identical wire artifacts.
        let (ring_resp, ring_pkts) = run(ServerKind::EventLoop, NetMode::Ring);
        let (ref_resp, ref_pkts) = run(ServerKind::EventLoop, NetMode::Reference);
        assert!(ring_resp.iter().all(|r| !r.is_empty()));
        assert_eq!(ring_resp, ref_resp);
        assert_eq!(ring_pkts, ref_pkts);
        // Different servers: same bytes served too.
        let (sync_resp, _) = run(ServerKind::Sync, NetMode::Reference);
        assert_eq!(ref_resp, sync_resp);
    }

    #[test]
    fn event_loop_beats_sync_at_scale() {
        // The headline target at reduced scale (the full ≥3x at 1k+ conns
        // is asserted in the root net_ring suite and printed by
        // `paper-tables c10k`).
        let mut ring = System::boot(Mode::VirtualGhost);
        ring.net_mode = NetMode::Ring;
        let ev = c10k(&mut ring, 512, 64, 8, ServerKind::EventLoop);
        let mut refer = System::boot(Mode::VirtualGhost);
        refer.net_mode = NetMode::Reference;
        let sy = c10k(&mut refer, 512, 64, 8, ServerKind::Sync);
        assert!(
            ev.req_per_megacycle > 3.0 * sy.req_per_megacycle,
            "event {} vs sync {}",
            ev.req_per_megacycle,
            sy.req_per_megacycle
        );
        assert!(ev.p99_cycles >= ev.p50_cycles);
    }

    /// A document over `DOC_MAX` fails the server's load instead of being
    /// served cut short at the mapping's end.
    #[test]
    #[should_panic(expected = "reading /index.dat failed")]
    fn oversized_document_is_refused_not_truncated() {
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.write_file("/index.dat", &document(2 * DOC_MAX));
        crate::run_once(&mut sys, "thttpd", false, |env| load_document(env).1);
    }

    #[test]
    fn pipeline_past_iovec_table_is_served() {
        // 200 pipelined requests on one connection need 400 iovecs, more
        // than the 256-entry table: the loop splits them over two
        // writevs instead of writing past the table.
        let mut sys = System::boot(Mode::VirtualGhost);
        sys.net_mode = NetMode::Ring;
        let b = c10k(&mut sys, 64, 1, 200, ServerKind::EventLoop);
        assert_eq!(b.requests, 200);
        let writevs = sys.machine.metrics.histogram("sys.writev").unwrap();
        assert_eq!(writevs.count(), 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_kernel::Mode;

    #[test]
    fn serves_correct_bytes() {
        let mut sys = System::boot(Mode::VirtualGhost);
        let b = bandwidth(&mut sys, 1024, 3);
        assert_eq!(b.requests, 3);
        assert!(b.kb_per_sec > 0.0);
    }

    #[test]
    fn large_files_negligible_vg_overhead() {
        // Figure 2: "the impact of Virtual Ghost on the Web transfer
        // bandwidth is negligible."
        let n = bandwidth(&mut System::boot(Mode::Native), 256 * 1024, 4).kb_per_sec;
        let v = bandwidth(&mut System::boot(Mode::VirtualGhost), 256 * 1024, 4).kb_per_sec;
        let loss = 1.0 - v / n;
        assert!(loss < 0.10, "large-file bandwidth loss {loss}");
    }

    #[test]
    fn small_files_negligible_vg_overhead() {
        // Small files are client/wire-limited (the per-connection budget),
        // so VG's extra per-request CPU hides behind the wire timeline —
        // the paper's Figure 2 result.
        let n = bandwidth(&mut System::boot(Mode::Native), 1024, 8).kb_per_sec;
        let v = bandwidth(&mut System::boot(Mode::VirtualGhost), 1024, 8).kb_per_sec;
        let loss = 1.0 - v / n;
        assert!(loss < 0.10, "small-file bandwidth loss {loss}");
    }

    #[test]
    fn bandwidth_grows_with_file_size() {
        // Per-request overhead amortizes: bigger files → higher bandwidth.
        let small = bandwidth(&mut System::boot(Mode::Native), 1024, 4).kb_per_sec;
        let big = bandwidth(&mut System::boot(Mode::Native), 128 * 1024, 4).kb_per_sec;
        assert!(big > small, "{small} vs {big}");
    }

    #[test]
    fn missing_file_gets_404() {
        let mut sys = System::boot(Mode::Native);
        let flow = sys.wire_connect(HTTP_PORT).unwrap();
        sys.wire_send(flow, &http_request("/no-such-file"));
        sys.install_app("thttpd", false, || {
            Box::new(|env| {
                let sock = env.socket();
                env.bind(sock, HTTP_PORT);
                env.listen(sock);
                serve_all(env, sock);
                0
            })
        });
        let pid = sys.spawn("thttpd");
        sys.run_until_exit(pid);
        let resp = sys.wire_recv(flow);
        assert!(String::from_utf8_lossy(&resp).contains("404"));
    }
}

#[cfg(test)]
mod parse_tests {
    use super::*;

    #[test]
    fn parses_well_formed_requests() {
        assert_eq!(
            parse_request(b"GET /index.html HTTP/1.0\r\n\r\n"),
            Some("/index.html".into())
        );
        assert_eq!(parse_request(b"GET / HTTP/1.1\r\n"), Some("/".into()));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert_eq!(parse_request(b"POST /x HTTP/1.0"), None);
        assert_eq!(parse_request(b"GET"), None);
        assert_eq!(parse_request(b""), None);
        assert_eq!(parse_request(&[0xff, 0xfe, 0x00]), None);
    }

    #[test]
    fn request_builder_roundtrips_through_parser() {
        let req = http_request("/a/b.dat");
        assert_eq!(parse_request(&req), Some("/a/b.dat".into()));
    }
}
