//! Byte-stream copy equivalence: `recv`, `readv` and pipe `read` copy
//! straight from the kernel buffer into user frames
//! ([`System::copyout_stream`]). The oracle is the path they replaced:
//! drain the bytes into a temporary, then [`System::copyout`] it. Both run
//! the same random traffic on identically booted systems, in both
//! [`NetMode`]s, and must agree on every return value, every user byte,
//! the bytes left in the buffer, the counters and the clock.

use super::*;
use crate::system::Fd;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use vg_machine::cost::Counters;
use vg_machine::PAGE_SIZE;

/// Destination region: four pages, then the unmapped guard page `mmap`
/// leaves, so a read that runs off the end fails mid-copy.
const DST: usize = 4 * PAGE_SIZE as usize;
const PORT: u16 = 6100;

impl System {
    /// The drain-then-copyout `recv`.
    fn sock_recv_drain(&mut self, pid: Pid, sock: u64, buf: u64, len: usize) -> i64 {
        self.pump();
        let Some(flow) = self.sockets.get(&sock).and_then(|s| s.flow) else {
            return -1;
        };
        let Some(fb) = self.net.flows.get_mut(&flow) else {
            return -1;
        };
        let n = len.min(fb.rx.len());
        if n == 0 {
            return if fb.closed { 0 } else { EAGAIN };
        }
        let data: Vec<u8> = fb.rx.drain(..n).collect();
        if !self.copyout(pid, buf, &data) {
            return -1;
        }
        n as i64
    }

    /// The drain-then-copyout `readv`: one drain, one copyout per iovec.
    fn sys_readv_drain(&mut self, pid: Pid, fd: u64, iov_ptr: u64, iovcnt: usize) -> i64 {
        costs::RW_BASE.charge(&mut self.machine);
        let mut iovs = Vec::new();
        if !self.copyin_iovs(pid, iov_ptr, iovcnt, &mut iovs) {
            return -1;
        }
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
        let cap: usize = iovs.iter().map(|&(_, l)| l).sum();
        let n = cap.min(fb.rx.len());
        if n == 0 {
            return if fb.closed { 0 } else { EAGAIN };
        }
        let data: Vec<u8> = fb.rx.drain(..n).collect();
        let mut done = 0usize;
        for (base, len) in iovs {
            if done == n {
                break;
            }
            let take = len.min(n - done);
            if !self.copyout(pid, base, &data[done..done + take]) {
                return -1;
            }
            done += take;
        }
        n as i64
    }

    /// The drain-then-copyout pipe `read`.
    fn pipe_read_drain(&mut self, pid: Pid, id: u64, buf: u64, len: usize) -> i64 {
        let Some(p) = self.pipes.get_mut(&id) else {
            return -1;
        };
        let n = len.min(p.buf.len());
        if n == 0 {
            return if p.writers == 0 { 0 } else { EAGAIN };
        }
        let data: Vec<u8> = p.buf.drain(..n).collect();
        if !self.copyout(pid, buf, &data) {
            return -1;
        }
        n as i64
    }
}

/// One step of the traffic.
#[derive(Debug, Clone)]
enum Op {
    /// `len` new bytes arrive: one packet on the wire, or one pipe write.
    Feed(usize),
    /// The kernel moves arrived packets into the flow buffer (a no-op for
    /// a pipe); reads also do this first.
    Pump,
    /// A `recv` (socket) or `read` (pipe) of `len` bytes at `DST + off`.
    Read { off: usize, len: usize },
    /// A `readv` over `(off, len)` iovecs. A pipe reads them one by one,
    /// stopping at the first short or failed read.
    Readv(Vec<(usize, usize)>),
}

/// Which stream the traffic goes through.
#[derive(Debug, Clone, Copy)]
enum Stream {
    Socket(NetMode),
    Pipe,
}

/// Everything a run can observe.
#[derive(Debug)]
struct Outcome {
    /// Per step: return value (0 for feeds) and the clock after it.
    steps: Vec<(i64, u64)>,
    counters: Counters,
    cycles: u64,
    /// The destination region's bytes.
    user: Vec<u8>,
    /// Bytes still buffered.
    left: Vec<u8>,
    /// Reads that began with the buffer's contents wrapped.
    wrapped_reads: usize,
}

/// The kernel buffer behind the stream.
fn stream_buf(sys: &mut System, stream: Stream, id: u64) -> &mut VecDeque<u8> {
    match stream {
        Stream::Socket(_) => &mut sys.net.flows.get_mut(&id).expect("flow").rx,
        Stream::Pipe => &mut sys.pipes.get_mut(&id).expect("pipe").buf,
    }
}

/// Runs `ops` on a fresh system through the fast path or the oracle. The
/// buffer starts with capacity `cap` and its head moved `rot` bytes in, so
/// early feeds already wrap around its end.
fn run(stream: Stream, cap: usize, rot: usize, ops: &[Op], oracle: bool) -> Outcome {
    let mut sys = System::boot_virtual_ghost();
    if let Stream::Socket(mode) = stream {
        sys.net_mode = mode;
    }
    let out = Rc::new(RefCell::new(None));
    let (ops, slot) = (ops.to_vec(), out.clone());
    sys.install_app("stream", false, move || {
        let (ops, slot) = (ops.clone(), slot.clone());
        Box::new(move |env| {
            let pid = env.pid;
            let dst = env.mmap_anon(DST);
            let scratch = env.mmap_anon(4 * PAGE_SIZE as usize);
            // Socket: (flow, socket id, fd); pipe: (pipe id, pipe id, write fd).
            let (buf_id, id, fd) = match stream {
                Stream::Socket(_) => {
                    let l = env.socket();
                    env.bind(l, PORT);
                    env.listen(l);
                    let flow = env.sys.wire_connect(PORT).expect("flow");
                    let c = env.accept(l);
                    let Some(Fd::Sock { id }) = env.sys.proc_fd(pid, c as u64) else {
                        panic!("accepted fd is a socket");
                    };
                    (flow, id, c)
                }
                Stream::Pipe => {
                    let (r, w) = env.pipe();
                    let Some(Fd::PipeR { id }) = env.sys.proc_fd(pid, r as u64) else {
                        panic!("read end is a pipe");
                    };
                    (id, id, w)
                }
            };
            let q = stream_buf(env.sys, stream, buf_id);
            *q = VecDeque::with_capacity(cap);
            for _ in 0..rot {
                q.push_back(0xee);
                q.pop_front();
            }

            let mut fed = 0usize;
            let mut steps = Vec::with_capacity(ops.len());
            let mut wrapped_reads = 0;
            for op in &ops {
                if matches!(op, Op::Read { .. } | Op::Readv(_))
                    && !stream_buf(env.sys, stream, buf_id).as_slices().1.is_empty()
                {
                    wrapped_reads += 1;
                }
                let ret = match (op, stream) {
                    (&Op::Feed(len), _) => {
                        let bytes: Vec<u8> = (fed..fed + len).map(|i| (i % 251) as u8).collect();
                        fed += len;
                        match stream {
                            Stream::Socket(_) => env.sys.wire_send(buf_id, &bytes),
                            Stream::Pipe => {
                                env.write_mem(scratch, &bytes);
                                assert_eq!(env.write(fd, scratch, len), len as i64);
                            }
                        }
                        0
                    }
                    (Op::Pump, _) => {
                        env.sys.pump();
                        0
                    }
                    (&Op::Read { off, len }, Stream::Socket(_)) => {
                        let va = dst + off as u64;
                        if oracle {
                            env.sys.sock_recv_drain(pid, id, va, len)
                        } else {
                            env.sys.sock_recv(pid, id, va, len)
                        }
                    }
                    (Op::Readv(iovs), Stream::Socket(_)) => {
                        let mut table = Vec::with_capacity(iovs.len() * 16);
                        for &(off, len) in iovs {
                            table.extend_from_slice(&(dst + off as u64).to_le_bytes());
                            table.extend_from_slice(&(len as u64).to_le_bytes());
                        }
                        env.write_mem(scratch, &table);
                        let (fd, cnt) = (fd as u64, iovs.len());
                        if oracle {
                            env.sys.sys_readv_drain(pid, fd, scratch, cnt)
                        } else {
                            env.sys.sys_readv(pid, fd, scratch, cnt)
                        }
                    }
                    (op, Stream::Pipe) => {
                        let reads = match op {
                            &Op::Read { off, len } => vec![(off, len)],
                            Op::Readv(iovs) => iovs.clone(),
                            Op::Feed(_) | Op::Pump => unreachable!("matched above"),
                        };
                        let mut total = 0;
                        for (off, len) in reads {
                            let va = dst + off as u64;
                            let r = if oracle {
                                env.sys.pipe_read_drain(pid, id, va, len)
                            } else {
                                env.sys.pipe_read(pid, id, va, len)
                            };
                            if r < 0 {
                                total = r;
                                break;
                            }
                            total += r;
                            if (r as usize) < len {
                                break;
                            }
                        }
                        total
                    }
                };
                steps.push((ret, env.sys.machine.clock.cycles()));
            }
            let counters = env.sys.machine.counters;
            let cycles = env.sys.machine.clock.cycles();
            let left = stream_buf(env.sys, stream, buf_id)
                .iter()
                .copied()
                .collect();
            let user = env.sys.peek_user(pid, dst, DST).expect("destination maps");
            *slot.borrow_mut() = Some(Outcome {
                steps,
                counters,
                cycles,
                user,
                left,
                wrapped_reads,
            });
            0
        })
    });
    let pid = sys.spawn("stream");
    assert_eq!(sys.run_until_exit(pid), 0);
    out.take().expect("the app ran")
}

/// Runs `ops` through both paths and checks they agree.
fn check(stream: Stream, cap: usize, rot: usize, ops: &[Op]) -> Result<Outcome, TestCaseError> {
    let fast = run(stream, cap, rot, ops, false);
    let oracle = run(stream, cap, rot, ops, true);
    prop_assert_eq!(&fast.steps, &oracle.steps);
    prop_assert_eq!(fast.counters, oracle.counters);
    prop_assert_eq!(fast.cycles, oracle.cycles);
    for (what, a, b) in [
        ("user byte", &fast.user, &oracle.user),
        ("buffered byte", &fast.left, &oracle.left),
    ] {
        let first = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i));
        prop_assert!(
            first.is_none(),
            "{what} {first:?} differs: {stream:?} {ops:?}"
        );
    }
    prop_assert_eq!(fast.wrapped_reads, oracle.wrapped_reads);
    Ok(fast)
}

/// A destination offset: anywhere, or just short of a page boundary (the
/// last boundary is the guard page, where a long read fails).
fn dst_off() -> impl Strategy<Value = usize> {
    let page = PAGE_SIZE as usize;
    prop_oneof![
        0..DST,
        (1..5usize, 1..600usize).prop_map(move |(k, back)| k * page - back),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1..MTU + 1).prop_map(Op::Feed),
        (1..MTU + 1).prop_map(Op::Feed),
        Just(Op::Pump),
        (dst_off(), 0..3 * MTU).prop_map(|(off, len)| Op::Read { off, len }),
        proptest::collection::vec((dst_off(), 0..3 * MTU), 0..4).prop_map(Op::Readv),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stream_reads_match_the_drain_oracle(
        ops in proptest::collection::vec(op(), 1..24),
        cap in 1usize..4 * MTU,
        back in 0usize..600,
        pipe in any::<bool>(),
    ) {
        // The head starts just short of the end: feeds soon wrap.
        let rot = cap - 1 - back % cap;
        if pipe {
            check(Stream::Pipe, cap, rot, &ops)?;
        } else {
            check(Stream::Socket(NetMode::Ring), cap, rot, &ops)?;
            check(Stream::Socket(NetMode::Reference), cap, rot, &ops)?;
        }
    }
}

/// A packet train lands in a buffer whose head sits near its end, so the
/// first read starts wrapped and crosses a page; a `readv` spans two
/// iovecs; the last read runs into the guard page and fails with as many
/// bytes consumed as the oracle's.
#[test]
fn wrapped_page_crossing_and_failing_reads_match_the_oracle() {
    let page = PAGE_SIZE as usize;
    let ops = [
        Op::Feed(MTU),
        Op::Feed(MTU),
        Op::Feed(700),
        Op::Pump,
        Op::Read {
            off: page - 10,
            len: 1000,
        },
        Op::Readv(vec![(2 * page - 3, 900), (5, 1)]),
        Op::Feed(MTU),
        Op::Pump,
        Op::Read {
            off: DST - 100,
            len: 400,
        },
    ];
    for stream in [
        Stream::Socket(NetMode::Ring),
        Stream::Socket(NetMode::Reference),
        Stream::Pipe,
    ] {
        let out = check(stream, 8192, 8000, &ops).expect("fast path matches the oracle");
        assert!(
            out.wrapped_reads >= 1,
            "{stream:?}: no read started wrapped"
        );
        let rets: Vec<i64> = out.steps.iter().map(|&(r, _)| r).collect();
        assert_eq!(rets, [0, 0, 0, 0, 1000, 901, 0, 0, -1], "{stream:?}");
        assert_eq!(
            out.left.len(),
            3 * MTU + 700 - 1000 - 901 - 400,
            "{stream:?}"
        );
        let pattern = |from: usize, len: usize| -> Vec<u8> {
            (from..from + len).map(|i| (i % 251) as u8).collect()
        };
        assert_eq!(out.user[page - 10..page + 990], pattern(0, 1000)[..]);
        assert_eq!(
            out.user[2 * page - 3..2 * page + 897],
            pattern(1000, 900)[..]
        );
        assert_eq!(out.user[5], pattern(1900, 1)[0]);
        assert_eq!(out.user[DST - 100..], pattern(1901, 100)[..], "{stream:?}");
    }
}
