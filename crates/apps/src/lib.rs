//! # vg-apps
//!
//! The application workloads from the paper's evaluation, built on the
//! `vg-kernel` process interface and the `vg-runtime` libc analog:
//!
//! * [`lmbench`] — the LMBench microbenchmarks of Table 2 and the file
//!   create/delete rates of Tables 3–4.
//! * [`postmark`] — the Postmark mail-server workload of Table 5.
//! * [`thttpd`] — the thttpd-style web server plus the ApacheBench-like
//!   client driver behind Figure 2, and its C10K event-loop port driven by
//!   the descriptor-ring data plane.
//! * [`ghostkv`] — a memcached-style key/value server holding its value
//!   heap in ghost memory, staged through traditional buffers for I/O.
//! * [`ssh`] — the OpenSSH suite of §6 (ssh-keygen / ssh-agent / ssh / sshd)
//!   with ghost-memory heaps and a shared application key, plus the
//!   transfer-rate drivers behind Figures 3 and 4.
//! * [`smp`] — the workloads above sharded across N simulated cores
//!   through the kernel's work-stealing scheduler (the scaling curves of
//!   BENCH_smp.json). Every driver takes the caller's booted [`System`].
//!
//! The C10K thttpd port and ghostkv share one event loop, one
//! single-process load driver and one listen-and-serve process body (the
//! crate-private `server` module); each server passes in only its protocol
//! step, which parses complete requests and stages their response iovecs.
//!
//! Every workload runs unchanged on a native or a Virtual Ghost system —
//! the system mode decides the checks and the cost model, so each driver
//! can regenerate both columns/curves of its paper artefact.

use std::cell::Cell;
use std::rc::Rc;
use vg_kernel::{System, UserEnv};

pub mod ghostkv;
pub mod lmbench;
pub mod postmark;
mod server;
pub mod smp;
pub mod ssh;
pub mod thttpd;

pub use lmbench::MicroResult;
pub use postmark::{PostmarkConfig, PostmarkResult};

/// Installs `app` on `sys`, runs one process of it to exit and returns the
/// value `body` produced. The process exits 0; `body` brackets its own
/// timed region, so setup inside it can stay untimed. A process that
/// never finishes `body` (its exec refused, or killed under an injected
/// fault) yields `T::default()`, and the caller's own checks decide.
pub(crate) fn run_once<T: Default + 'static>(
    sys: &mut System,
    app: &str,
    ghosting: bool,
    body: impl Fn(&mut UserEnv) -> T + 'static,
) -> T {
    let out = Rc::new(Cell::new(None));
    let (o2, body) = (out.clone(), Rc::new(body));
    sys.install_app(app, ghosting, move || {
        let (o, body) = (o2.clone(), body.clone());
        Box::new(move |env| {
            o.set(Some(body(env)));
            0
        })
    });
    let pid = sys.spawn(app);
    sys.run_until_exit(pid);
    out.take().unwrap_or_default()
}
