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
//!   `paper-tables smp`). Every driver takes the caller's booted [`System`].
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

/// Period of the drivers' payload sequence (the largest prime below 256).
const PERIOD: usize = 251;

/// `j mod 251` for `j` in `0..2·251`: every stride-1 period of the payload
/// sequence is one slice of it.
static RAMP: [u8; 2 * PERIOD] = {
    let mut ramp = [0u8; 2 * PERIOD];
    let mut j = 0;
    while j < ramp.len() {
        ramp[j] = (j % PERIOD) as u8;
        j += 1;
    }
    ramp
};

/// Appends `len` bytes of the payload sequence every driver sends and
/// checks, `(start + stride·i) mod 251` for `i` in `0..len`, to `out`. The
/// sequence repeats every 251 bytes, so one period is taken (sliced from
/// [`RAMP`] for stride 1, built by addition otherwise) and copied whole:
/// no byte costs a division.
pub(crate) fn extend_payload(out: &mut Vec<u8>, start: usize, stride: usize, len: usize) {
    let (start, stride) = (start % PERIOD, stride % PERIOD);
    let mut built = [0u8; PERIOD];
    let period = if stride == 1 {
        &RAMP[start..start + PERIOD]
    } else {
        let mut v = start;
        for b in &mut built {
            *b = v as u8;
            v += stride;
            if v >= PERIOD {
                v -= PERIOD;
            }
        }
        &built[..]
    };
    let mut left = len;
    while left > 0 {
        let n = left.min(PERIOD);
        out.extend_from_slice(&period[..n]);
        left -= n;
    }
}

/// [`extend_payload`] into a buffer of its own.
pub(crate) fn payload(start: usize, stride: usize, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    extend_payload(&mut out, start, stride, len);
    out
}

/// Appends the decimal digits of `n` to `out`, as `write!(out, "{n}")`
/// does, without going through `fmt`.
pub(crate) fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

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

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-byte formula the payload helper replaced, kept as its
    /// oracle.
    fn oracle_payload(start: usize, stride: usize, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((start + stride * i) % 251) as u8)
            .collect()
    }

    /// The drivers' strides (ghostkv 1, ssh 13 and 17, thttpd 31) at
    /// lengths on, around and far past period boundaries, up to the ssh
    /// drivers' 1 MiB file and 5 bytes more.
    #[test]
    fn payload_matches_the_per_byte_formula() {
        const MIB: usize = 1 << 20;
        let lens = [0, 1, 250, 251, 252, 501, 502, 503, 4096, MIB, MIB + 5];
        for stride in [1, 13, 17, 31] {
            for start in [0, 1, 250, 251, 131 * 7 + 17 * 3, usize::MAX / 1024] {
                for len in lens {
                    let mut out = vec![9, 9];
                    extend_payload(&mut out, start, stride, len);
                    assert_eq!(out[..2], [9, 9], "stride {stride} start {start}");
                    assert!(
                        out[2..] == oracle_payload(start, stride, len),
                        "stride {stride} start {start} len {len}"
                    );
                }
            }
            assert_eq!(payload(0, stride, 1000), oracle_payload(0, stride, 1000));
        }
    }

    /// `push_decimal` at digit-count edges; `command_train`'s oracle test
    /// covers the numbers in between.
    #[test]
    fn push_decimal_matches_fmt_at_digit_edges() {
        for n in [0, 9, 10, 99, 100, 250, 251, 2048, usize::MAX] {
            let mut out = Vec::new();
            push_decimal(&mut out, n);
            assert_eq!(out, n.to_string().into_bytes());
        }
    }
}
