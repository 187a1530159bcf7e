//! The one server pattern behind the C10K thttpd port and ghostkv.
//!
//! [`event_loop`] is the single-process readiness loop both servers run:
//! an accept burst, one `poll` over every live connection, a `readv`
//! gather loop per readable connection, a batched `writev` of every
//! response the connection is owed, the per-request latency metric, and a
//! retire pass. The protocol is the only part a server passes in: a step
//! that drains complete requests off a connection's input and stages
//! their response iovecs.
//!
//! **Pipelining bound.** The iovec table is one 4 KiB page, [`IOV_MAX`]
//! entries. A step stages at most that many iovecs per call, and the loop
//! calls it again (one more `writev`) until the connection has no
//! complete request left: a deep pipeline costs extra `writev`s, never a
//! write past the table.
//!
//! [`load`] is the single-process load driver behind `thttpd::c10k` and
//! `ghostkv::kv_load`, and [`listen_and_serve`] is the process body both
//! it and the sharded drivers in `smp` run.

use crate::thttpd::C10kBench;
use vg_kernel::syscall::EAGAIN;
use vg_kernel::{System, UserEnv};

/// Entries in the iovec table: one 4 KiB page of 16-byte `(base, len)`
/// pairs. A protocol step never stages more than this per `writev`.
pub(crate) const IOV_MAX: usize = 256;

/// Bytes one `readv` gathers into the rx buffer.
const RX_LEN: usize = 8192;

/// The user buffers the loop owns. [`map`](Self::map) is part of each
/// server's setup order, so the server decides where it falls.
pub(crate) struct LoopBufs {
    rxbuf: u64,
    iov_va: u64,
    pollfds: u64,
}

impl LoopBufs {
    /// Maps the rx buffer, the iovec table and the pollfd table, in that
    /// order.
    pub(crate) fn map(env: &mut UserEnv) -> Self {
        LoopBufs {
            rxbuf: env.mmap_anon(RX_LEN),
            iov_va: env.mmap_anon(IOV_MAX * 16),
            pollfds: env.mmap_anon(64 * 4096),
        }
    }
}

/// Serves `listen_fd` until every accepted connection has hung up and been
/// answered. `step(env, input, iovs)` drains complete requests off the
/// front of one connection's `input`, stages their responses as at most
/// [`IOV_MAX`] entries of `iovs` (passed in empty) and returns how many
/// requests it took; 0 means none is complete. Each request's completion
/// time (cycles since `t0`) goes to the `metric` histogram and to `lat`.
/// Returns requests served.
pub(crate) fn event_loop(
    env: &mut UserEnv,
    listen_fd: i64,
    bufs: &LoopBufs,
    metric: &'static str,
    lat: &mut Vec<u64>,
    t0: u64,
    mut step: impl FnMut(&mut UserEnv, &mut Vec<u8>, &mut Vec<(u64, usize)>) -> usize,
) -> u64 {
    const POLLIN: u64 = 0x1;
    const POLLHUP: u64 = 0x2;
    let mut conns: Vec<i64> = Vec::new();
    let mut inputs: Vec<Vec<u8>> = Vec::new();
    let mut eof: Vec<bool> = Vec::new();
    let mut iovs: Vec<(u64, usize)> = Vec::with_capacity(IOV_MAX);
    let mut events: Vec<u64> = Vec::new();
    let mut served = 0u64;
    loop {
        // Accept burst: take everything the backlog has.
        loop {
            let c = env.accept(listen_fd);
            if c < 0 {
                break;
            }
            conns.push(c);
            inputs.push(Vec::new());
            eof.push(false);
        }
        if conns.is_empty() {
            break;
        }
        // One readiness syscall over every live fd.
        let (_ready, revents) = env.poll(bufs.pollfds, &conns);
        events.clear();
        events.extend_from_slice(revents);
        for i in 0..conns.len() {
            if events[i] & POLLIN == 0 {
                // Hang-up with nothing left to read: retire without
                // spending a trap on a readv that would return EOF.
                if events[i] & POLLHUP != 0 {
                    eof[i] = true;
                }
                continue;
            }
            loop {
                let r = env.readv(conns[i], bufs.iov_va, &[(bufs.rxbuf, RX_LEN)]);
                if r == EAGAIN {
                    break;
                }
                if r <= 0 {
                    eof[i] = true;
                    break;
                }
                env.read_mem_into(bufs.rxbuf, r as usize, &mut inputs[i]);
                if (r as usize) < RX_LEN {
                    break;
                }
            }
            // Every owed response in one writev per full iovec table: a
            // single trap and ring doorbell for the whole batch.
            loop {
                iovs.clear();
                let requests = step(env, &mut inputs[i], &mut iovs);
                if requests == 0 {
                    break;
                }
                debug_assert!(iovs.len() <= IOV_MAX);
                let expect: i64 = iovs.iter().map(|&(_, len)| len as i64).sum();
                assert_eq!(env.writev(conns[i], bufs.iov_va, &iovs), expect);
                served += requests as u64;
                let now = env.sys.machine.clock.cycles() - t0;
                for _ in 0..requests {
                    env.sys.machine.metrics.observe(metric, now);
                    lat.push(now);
                }
            }
        }
        // Retire finished connections. The step loop above left no
        // complete request in any input, so a hung-up connection's
        // leftover bytes are a request its client never finished: they
        // go with it.
        let mut i = 0;
        while i < conns.len() {
            if eof[i] {
                env.close(conns[i]);
                conns.swap_remove(i);
                inputs.swap_remove(i);
                eof.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
    served
}

/// What one server process measured.
#[derive(Default)]
pub(crate) struct Served {
    /// Requests served.
    pub(crate) requests: u64,
    /// Server CPU cycles after the listen.
    pub(crate) cpu: u64,
    /// Wire occupancy cycles over the same span.
    pub(crate) wire: u64,
    /// Each request's completion time, in cycles since the listen.
    pub(crate) lat: Vec<u64>,
}

/// Process body of a server: listens on `port`, runs
/// `serve(env, listen_fd, lat, t0)` with `t0` taken after the listen, and
/// reports what it served and took.
pub(crate) fn listen_and_serve(
    env: &mut UserEnv,
    port: u16,
    serve: &impl Fn(&mut UserEnv, i64, &mut Vec<u64>, u64) -> u64,
) -> Served {
    let sock = env.socket();
    env.bind(sock, port);
    env.listen(sock);
    let t0 = env.sys.machine.clock.cycles();
    let w0 = env.sys.machine.nic_time.cycles();
    let mut lat = Vec::new();
    let requests = serve(env, sock, &mut lat, t0);
    Served {
        requests,
        cpu: env.sys.machine.clock.cycles() - t0,
        wire: env.sys.machine.nic_time.cycles() - w0,
        lat,
    }
}

/// Client side of one connection to `port`: the whole pipelined request
/// `train`, then a half-close (the client has said everything). Returns
/// the flow.
pub(crate) fn queue(sys: &mut System, port: u16, train: &[u8]) -> u64 {
    let flow = sys.wire_connect(port).expect("wire connect");
    sys.wire_send(flow, train);
    sys.wire_close(flow);
    flow
}

/// The single-process load driver: queues one connection per entry of
/// `trains` (each `reqs_per_conn` requests, dropped once on the wire),
/// runs one `app` process that serves them on `port`, asserts every
/// request was served and reports the run. `file_size` is the payload
/// size the bench row records. Returns the row and the flows in queue
/// order, for the caller's checks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn load(
    sys: &mut System,
    app: &str,
    ghosting: bool,
    port: u16,
    trains: impl ExactSizeIterator<Item = impl AsRef<[u8]>>,
    reqs_per_conn: u32,
    file_size: usize,
    serve: impl Fn(&mut UserEnv, i64, &mut Vec<u64>, u64) -> u64 + 'static,
) -> (C10kBench, Vec<u64>) {
    let conns = trains.len() as u32;
    let flows: Vec<u64> = trains.map(|t| queue(sys, port, t.as_ref())).collect();
    let mut run = crate::run_once(sys, app, ghosting, move |env| {
        listen_and_serve(env, port, &serve)
    });
    let expected = conns as u64 * reqs_per_conn as u64;
    assert_eq!(run.requests, expected, "all pipelined requests served");

    run.lat.sort_unstable();
    let pct = |p: usize| run.lat[(run.lat.len() - 1) * p / 100];
    let bench = C10kBench {
        conns,
        reqs_per_conn,
        file_size,
        requests: run.requests,
        cpu_cycles: run.cpu,
        wire_cycles: run.wire,
        req_per_megacycle: run.requests as f64 / (run.cpu as f64 / 1e6),
        p50_cycles: pct(50),
        p99_cycles: pct(99),
    };
    (bench, flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thttpd::{self, HTTP_PORT};
    use vg_kernel::Mode;

    /// A client that half-closes after a partial request gets its complete
    /// request answered, and the loop retires it with the partial bytes;
    /// it used to poll the hung-up connection forever.
    #[test]
    fn half_closed_partial_request_is_retired() {
        let mut sys = System::boot(Mode::VirtualGhost);
        let doc = thttpd::document(64);
        sys.write_file("/index.dat", &doc);
        let train = b"GET /index.dat HTTP/1.1\r\n\r\nGET /ind";
        let trains = std::iter::once(&train[..]);
        let serve = thttpd::serve_event_loop;
        let (bench, flows) = load(&mut sys, "thttpd", false, HTTP_PORT, trains, 1, 64, serve);
        assert_eq!(bench.requests, 1);
        thttpd::check_response(&sys.wire_recv(flows[0]), &doc, 1);
    }
}
