//! LMBench microbenchmarks (paper Table 2, Tables 3–4).
//!
//! Each driver boots nothing itself: it installs a measuring program on a
//! caller-provided [`System`] and reports simulated time per operation.
//! The measured loops match LMBench's structure (the paper used 1,000
//! iterations × 10 runs; iteration counts here are caller-chosen and rates
//! are normalized per operation).

use std::cell::Cell;
use std::rc::Rc;
use vg_kernel::syscall::{O_CREAT, SYS_SIGACTION};
use vg_kernel::{ChildKind, Mode, System, UserEnv, SIGUSR1};
use vg_machine::cost::CYCLES_PER_US;
use vg_machine::layout::PAGE_SIZE;

/// One microbenchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroResult {
    /// Benchmark name (matches the paper's Table 2 rows).
    pub name: String,
    /// Simulated microseconds per operation.
    pub micros: f64,
}

/// Reads the simulated clock — benchmark bodies bracket their own timed
/// region so setup (opening fds, creating files) stays untimed, like
/// LMBench's own benchmp structure.
fn now(env: &mut UserEnv) -> u64 {
    env.sys.machine.clock.cycles()
}

/// Runs `body` once as process `app`. `body` runs setup, then the measured
/// loop, and returns `(elapsed_cycles, operations)`; the result is
/// simulated microseconds per operation.
fn measure(
    sys: &mut System,
    app: &str,
    body: impl Fn(&mut UserEnv) -> (u64, u64) + 'static,
) -> f64 {
    let (cycles, ops) = crate::run_once(sys, app, false, body);
    (cycles as f64 / CYCLES_PER_US) / ops.max(1) as f64
}

/// `null syscall`: getpid latency.
pub fn null_syscall(sys: &mut System, iters: u64) -> f64 {
    measure(sys, "lm-null", move |env| {
        let t0 = now(env);
        for _ in 0..iters {
            env.getpid();
        }
        (now(env) - t0, iters)
    })
}

/// `open/close` latency (one op = open + close of an existing file).
pub fn open_close(sys: &mut System, iters: u64) -> f64 {
    sys.write_file("/lmbench.f", b"x");
    measure(sys, "lm-open", move |env| {
        let t0 = now(env);
        for _ in 0..iters {
            let fd = env.open("/lmbench.f", 0);
            env.close(fd);
        }
        (now(env) - t0, iters)
    })
}

/// `mmap` latency: map + unmap an existing file.
pub fn mmap_latency(sys: &mut System, iters: u64) -> f64 {
    sys.write_file("/lmbench.map", &vec![7u8; 64 * 1024]);
    measure(sys, "lm-mmap", move |env| {
        let fd = env.open("/lmbench.map", 0);
        let t0 = now(env);
        for _ in 0..iters {
            let va = env.mmap_file(64 * 1024, fd, 0);
            env.munmap(va);
        }
        let elapsed = now(env) - t0;
        env.close(fd);
        (elapsed, iters)
    })
}

/// Page-fault latency: touch fresh pages of a file mapping.
pub fn page_fault(sys: &mut System, iters: u64) -> f64 {
    let pages = 16u64;
    sys.write_file("/lmbench.pf", &vec![3u8; (pages * PAGE_SIZE) as usize]);
    measure(sys, "lm-pf", move |env| {
        let fd = env.open("/lmbench.pf", 0);
        let mut faults = 0;
        let mut elapsed = 0;
        for _ in 0..iters {
            let va = env.mmap_file((pages * PAGE_SIZE) as usize, fd, 0);
            let t0 = now(env);
            for p in 0..pages {
                env.read_mem(va + p * PAGE_SIZE, 1);
                faults += 1;
            }
            elapsed += now(env) - t0;
            env.munmap(va);
        }
        env.close(fd);
        (elapsed, faults)
    })
}

/// Signal-handler installation latency.
pub fn signal_install(sys: &mut System, iters: u64) -> f64 {
    measure(sys, "lm-siginst", move |env| {
        // Register once through the full wrapper (permit + sigaction)…
        let addr = env.signal(SIGUSR1, |_env, _sig| {});
        // …then measure repeated installation like lat_sig install.
        let t0 = now(env);
        for _ in 0..iters {
            env.syscall(SYS_SIGACTION, [SIGUSR1 as u64, addr, 0, 0, 0, 0]);
        }
        (now(env) - t0, iters)
    })
}

/// Signal-delivery latency: kill(self) with an installed handler.
pub fn signal_delivery(sys: &mut System, iters: u64) -> f64 {
    measure(sys, "lm-sigdel", move |env| {
        let fired = Rc::new(Cell::new(0u64));
        let f2 = fired.clone();
        env.signal(SIGUSR1, move |_env, _sig| {
            f2.set(f2.get() + 1);
        });
        let me = env.getpid() as u64;
        let t0 = now(env);
        for _ in 0..iters {
            env.kill(me, SIGUSR1);
        }
        let elapsed = now(env) - t0;
        assert_eq!(fired.get(), iters, "all signals delivered");
        (elapsed, iters)
    })
}

/// `fork+exit` latency.
pub fn fork_exit(sys: &mut System, iters: u64) -> f64 {
    measure(sys, "lm-fork", move |env| {
        let t0 = now(env);
        for _ in 0..iters {
            env.fork(ChildKind::Exit(0));
            env.wait();
        }
        (now(env) - t0, iters)
    })
}

/// `fork+exec` latency (child execs a trivial program).
pub fn fork_exec(sys: &mut System, iters: u64) -> f64 {
    sys.install_app("true", false, || Box::new(|_env| 0));
    measure(sys, "lm-exec", move |env| {
        let t0 = now(env);
        for _ in 0..iters {
            env.fork(ChildKind::Exec("true".into()));
            env.wait();
        }
        (now(env) - t0, iters)
    })
}

/// `select` on 100 file descriptors.
pub fn select_100(sys: &mut System, iters: u64) -> f64 {
    measure(sys, "lm-select", move |env| {
        for i in 0..100 {
            let fd = env.open(&format!("/sel{i}"), O_CREAT);
            assert!(fd >= 0);
        }
        let t0 = now(env);
        for _ in 0..iters {
            env.select(100);
        }
        (now(env) - t0, iters)
    })
}

/// The full Table 2 row set on a fresh system per benchmark.
pub fn table2(mode: Mode, iters: u64) -> Vec<MicroResult> {
    let mut out = Vec::new();
    let mut bench = |name: &str, f: &dyn Fn(&mut System, u64) -> f64| {
        let mut sys = System::boot(mode.clone());
        out.push(MicroResult {
            name: name.to_string(),
            micros: f(&mut sys, iters),
        });
    };
    bench("null syscall", &null_syscall);
    bench("open/close", &open_close);
    bench("mmap", &mmap_latency);
    bench("page fault", &page_fault);
    bench("signal handler install", &signal_install);
    bench("signal handler delivery", &signal_delivery);
    bench("fork + exit", &fork_exit);
    bench("fork + exec", &fork_exec);
    bench("select", &select_100);
    out
}

/// File create/delete rates (Tables 3 and 4). Returns
/// `(files_created_per_sec, files_deleted_per_sec)` for the given file size.
pub fn file_rates(sys: &mut System, size: usize, files: u64) -> (f64, f64) {
    let (create, delete) = crate::run_once(sys, "lm-fs", false, move |env| {
        let buf = env.mmap_anon(16 * 1024);
        if size > 0 {
            env.write_mem(buf, &vec![0x61u8; size]);
        }
        let t0 = env.sys.machine.clock.cycles();
        for i in 0..files {
            let fd = env.open(&format!("/lmfs{i}"), O_CREAT);
            if size > 0 {
                env.write(fd, buf, size);
            }
            env.close(fd);
        }
        let create = env.sys.machine.clock.cycles() - t0;
        let t1 = env.sys.machine.clock.cycles();
        for i in 0..files {
            env.unlink(&format!("/lmfs{i}"));
        }
        (create, env.sys.machine.clock.cycles() - t1)
    });
    let per_sec = |cycles: u64| files as f64 / (cycles as f64 / CYCLES_PER_US / 1e6);
    (per_sec(create), per_sec(delete))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(mode: Mode, f: impl Fn(&mut System, u64) -> f64) -> f64 {
        let mut sys = System::boot(mode);
        f(&mut sys, 50)
    }

    #[test]
    fn null_syscall_near_paper_native() {
        let t = us(Mode::Native, null_syscall);
        // Paper: 0.091 µs.
        assert!((0.05..0.2).contains(&t), "null syscall {t} µs");
    }

    #[test]
    fn null_syscall_overhead_ratio() {
        let n = us(Mode::Native, null_syscall);
        let v = us(Mode::VirtualGhost, null_syscall);
        let ratio = v / n;
        // Paper: 3.90×.
        assert!((2.0..7.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn open_close_overhead_ratio() {
        let n = us(Mode::Native, open_close);
        let v = us(Mode::VirtualGhost, open_close);
        let ratio = v / n;
        // Paper: 4.83×.
        assert!((3.0..7.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn page_fault_small_overhead() {
        let n = us(Mode::Native, page_fault);
        let v = us(Mode::VirtualGhost, page_fault);
        let ratio = v / n;
        // Paper: 1.15× — dominated by non-instrumentable work.
        assert!((1.0..1.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fork_benchmarks_run() {
        let fe = us(Mode::Native, fork_exit);
        let fx = us(Mode::Native, fork_exec);
        assert!(fx > fe, "exec adds work: {fe} vs {fx}");
        assert!((10.0..300.0).contains(&fe), "fork+exit {fe} µs");
    }

    #[test]
    fn signal_delivery_fires_handlers() {
        let t = us(Mode::VirtualGhost, signal_delivery);
        assert!(t > 0.0);
    }

    #[test]
    fn file_rates_scale_with_size() {
        let mut sys = System::boot(Mode::Native);
        let (c0, d0) = file_rates(&mut sys, 0, 40);
        let mut sys = System::boot(Mode::Native);
        let (c10k, _d10k) = file_rates(&mut sys, 10_000, 40);
        assert!(c0 > c10k, "bigger files create slower: {c0} vs {c10k}");
        assert!(d0 > 0.0);
    }

    #[test]
    fn table2_produces_all_rows() {
        let rows = table2(Mode::Native, 10);
        assert_eq!(rows.len(), 9);
        assert!(rows.iter().all(|r| r.micros > 0.0));
    }
}
