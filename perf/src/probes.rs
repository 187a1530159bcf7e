//! Per-layer host-time probes. Each times the benchmark's own calls into
//! one crate's public functions: a warm-up, then the median of `calls`
//! samples. Workloads reach these layers through the same functions, so a
//! layer that gets faster here predicts the end-to-end moves listed in
//! README.md.

use crate::spans::Spans;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use vg_kernel::syscall::O_CREAT;
use vg_kernel::{ChildKind, UserEnv};

/// Samples per probe at full size.
const CALLS: u32 = 128;
/// Connections the poll and `wire_recv` probes hold open.
const CONNS: usize = 1024;
const PROBE_PORT: u16 = 9000;
const K64: usize = 64 * 1024;

/// One probe's result and when it ran.
type Probe = (&'static str, f64, Instant, Instant);

/// Median host seconds per call of `f`, over `calls` samples of `batch`
/// calls each, after one warm-up sample. Batching keeps `Instant`'s own
/// cost out of sub-microsecond calls.
fn sample(calls: u32, batch: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch {
        f();
    }
    let mut secs: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / f64::from(batch)
        })
        .collect();
    crate::harness::median(&mut secs)
}

/// Times `f`'s probe and records it as `name` scaled by `scale`.
fn probe(out: &mut Vec<Probe>, name: &'static str, scale: f64, f: impl FnOnce() -> f64) {
    let start = Instant::now();
    let v = f() * scale;
    out.push((name, v, start, Instant::now()));
}

/// Runs every probe with `CALLS / div` samples each and returns
/// `(metric name, value)` pairs; each probe is also a span.
pub fn run_all(div: u32, spans: &mut Spans) -> Vec<(&'static str, f64)> {
    let calls = (CALLS / div).max(8);
    let mut out = Vec::new();
    kernel_probes(calls, &mut out);
    outside_probes(calls, &mut out);
    for &(name, _, start, end) in &out {
        spans.record(name, start, end);
    }
    out.into_iter().map(|(n, v, _, _)| (n, v)).collect()
}

/// The probes that need a process: one ghosting process on a fresh
/// Virtual Ghost system, with `CONNS` connections queued on its port.
fn kernel_probes(calls: u32, out: &mut Vec<Probe>) {
    let mut sys = crate::workloads::boot_system(1);
    let flows: Vec<u64> = (0..CONNS)
        .map(|_| sys.wire_connect(PROBE_PORT).expect("wire connect"))
        .collect();
    let results: Rc<RefCell<Vec<Probe>>> = Rc::default();
    let sink = results.clone();
    sys.install_app("vg-perf-probe", true, move || {
        let sink = sink.clone();
        Box::new(move |env| {
            process_probes(env, calls, &mut sink.borrow_mut());
            0
        })
    });
    let pid = sys.spawn("vg-perf-probe");
    assert_eq!(sys.run_until_exit(pid), 0, "probe process exits cleanly");
    out.append(&mut results.borrow_mut());

    // Every flow now holds one transmitted packet; a receive for a flow
    // with nothing queued still scans and requeues all of them.
    let idle = sys.wire_connect(PROBE_PORT + 1).expect("wire connect");
    probe(out, "kernel.wire_recv_us_per_flow", 1e6, || {
        sample(calls, 1, || {
            black_box(sys.wire_recv(idle));
        })
    });
    for (i, &flow) in flows.iter().enumerate().skip(1).step_by(97) {
        assert!(sys.wire_recv(flow) == reply(i), "flow {i} reply bytes");
    }
}

fn reply(i: usize) -> Vec<u8> {
    format!("reply {i:04}\n").into_bytes()
}

fn process_probes(env: &mut UserEnv, calls: u32, out: &mut Vec<Probe>) {
    probe(out, "kernel.null_syscall_ns", 1e9, || {
        sample(calls, 32, || {
            black_box(env.getpid());
        })
    });
    probe(out, "kernel.fork_wait_us", 1e6, || {
        sample(calls, 1, || {
            assert!(env.fork(ChildKind::Exit(0)) > 0, "fork");
            assert!(env.wait() >= 0, "wait");
        })
    });

    let buf = env.mmap_anon(8192);
    env.write_mem(buf, &[0x5a; 8192]);
    probe(out, "kernel.file_create_unlink_us", 1e6, || {
        sample(calls, 1, || {
            let fd = env.open("/probe", O_CREAT);
            assert!(fd >= 0, "open(O_CREAT)");
            assert_eq!(env.write(fd, buf, 4096), 4096, "write");
            env.close(fd);
            assert_eq!(env.unlink("/probe"), 0, "unlink");
        })
    });
    let fd = env.open("/probe8k", O_CREAT);
    assert_eq!(env.write(fd, buf, 8192), 8192, "write");
    probe(out, "kernel.read_8k_us", 1e6, || {
        sample(calls, 1, || {
            env.lseek(fd, 0, 0);
            assert_eq!(env.read(fd, buf, 8192), 8192, "read");
        })
    });
    env.close(fd);

    let sock = env.socket();
    env.bind(sock, PROBE_PORT);
    env.listen(sock);
    let conns: Vec<i64> = (0..CONNS).map(|_| env.accept(sock)).collect();
    assert!(
        conns.iter().all(|&c| c >= 0),
        "every queued connection accepted"
    );
    let pollfds = env.mmap_anon(CONNS * 16);
    probe(
        out,
        "kernel.poll_us_per_kfd",
        1e6 * 1000.0 / CONNS as f64,
        || {
            sample(calls, 1, || {
                black_box(env.poll(pollfds, &conns));
            })
        },
    );
    let iov_va = env.mmap_anon(4096);
    let iovs: Vec<(u64, usize)> = (0..16).map(|i| (buf + i * 64, 64)).collect();
    probe(out, "kernel.writev_ring_us", 1e6, || {
        sample(calls, 1, || {
            assert_eq!(env.writev(conns[0], iov_va, &iovs), 1024, "writev");
        })
    });
    // One reply per connection for the `wire_recv` probe. The first
    // connection's reply follows its writev traffic; it is not checked.
    for (i, &c) in conns.iter().enumerate().skip(1) {
        let msg = reply(i);
        env.write_mem(buf, &msg);
        assert_eq!(env.send(c, buf, msg.len()), msg.len() as i64, "send");
    }

    let data = vec![0xa5u8; K64];
    let plain = env.mmap_anon(K64);
    probe(out, "machine.copy_us_per_64k", 1e6, || {
        sample(calls, 1, || {
            env.write_mem(plain, &data);
            black_box(env.read_mem(plain, K64));
        })
    });
    let ghost = env.allocgm((K64 / 4096) as u64).expect("allocgm");
    probe(out, "core.ghost_copy_us_per_64k", 1e6, || {
        sample(calls, 1, || {
            env.write_mem(ghost, &data);
            black_box(env.read_mem(ghost, K64));
        })
    });
    let mut regions = Vec::new();
    probe(out, "core.allocgm_us", 1e6, || {
        sample(calls, 1, || regions.push(env.allocgm(4).expect("allocgm")))
    });
    for va in regions {
        env.freegm(va, 4).expect("freegm");
    }
    // The heap grows by four ghost pages per 64 allocations of 256 B, so a
    // batch of 64 holds exactly one growth: the amortized cost.
    let mut heap = vg_runtime::Heap::new(env, true);
    let mut ptrs = Vec::new();
    probe(out, "runtime.ghost_malloc_ns", 1e9, || {
        sample(calls, 64, || ptrs.push(heap.malloc(env, 256)))
    });
    for p in ptrs {
        heap.free(p);
    }
}

/// The probes that need no simulated process: crypto and the IR engine.
fn outside_probes(calls: u32, out: &mut Vec<Probe>) {
    let cipher = vg_crypto::Aes128::new(&[7; 16]);
    let mut chunk = vec![0u8; 8192];
    probe(out, "crypto.aes_ctr_us_per_mib", 1e6 * 128.0, || {
        sample(calls, 1, || cipher.ctr_xor(1, black_box(&mut chunk)))
    });

    let (registry, entry) = ir_loop();
    let mut interp = vg_ir::Interp::new(&registry).with_fuel(u64::MAX);
    let mut mem = vg_ir::interp::FlatMem::new(64);
    let mut host = vg_ir::interp::NullHost;
    let mut env = vg_ir::interp::Pair {
        mem: &mut mem,
        host: &mut host,
    };
    let before = interp.stats.insts;
    let expect = interp.run(entry, &[1000], &mut env).expect("IR loop runs");
    let insts = (interp.stats.insts - before) as f64;
    probe(out, "ir.ns_per_inst", 1e9 / insts, || {
        sample(calls, 1, || {
            let got = interp.run(entry, &[black_box(1000)], &mut env);
            assert_eq!(got.expect("IR loop runs"), expect, "IR loop result");
        })
    });
}

/// A module whose `main(n)` runs `n` iterations of eight chained ALU ops,
/// registered in a fresh code registry; returns the registry and entry.
fn ir_loop() -> (vg_ir::CodeRegistry, vg_ir::CodeAddr) {
    use vg_ir::{BinOp, FunctionBuilder, Module};
    let mut b = FunctionBuilder::new("main", 1);
    let i = b.mov(0.into());
    let acc = b.mov(0.into());
    let head = b.new_block();
    let body = b.new_block();
    let done = b.new_block();
    b.jmp(head);
    b.switch_to(head);
    let more = b.bin(BinOp::Lts, i.into(), b.param(0).into());
    b.br(more.into(), body, done);
    b.switch_to(body);
    let mut v = b.bin(BinOp::Add, acc.into(), i.into());
    for (op, k) in [
        (BinOp::Xor, 0x5a),
        (BinOp::Mul, 3),
        (BinOp::And, 0xffff),
        (BinOp::Or, 1),
        (BinOp::Shl, 1),
        (BinOp::Shr, 1),
        (BinOp::Sub, 7),
    ] {
        v = b.bin(op, v.into(), k.into());
    }
    b.mov_to(acc, v.into());
    let next = b.bin(BinOp::Add, i.into(), 1.into());
    b.mov_to(i, next.into());
    b.jmp(head);
    b.switch_to(done);
    let mut m = Module::new("vg-perf-loop");
    m.push_function(b.ret(Some(acc.into())));
    let mut registry = vg_ir::CodeRegistry::new();
    let h = registry.register_module(m, vg_ir::registry::CodeSpace::Kernel);
    let entry = registry.addr_of(h, "main").expect("main registered");
    (registry, entry)
}
