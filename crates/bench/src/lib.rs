//! # vg-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§8). The `paper-tables` binary prints each artefact
//! with the paper's reported values alongside for comparison:
//!
//! ```text
//! cargo run -p vg-bench --release --bin paper-tables            # everything
//! cargo run -p vg-bench --release --bin paper-tables table2     # one artefact
//! ```
//!
//! Artefacts: `table2` (LMBench), `table3`/`table4` (file delete/create
//! rates), `table5` (Postmark), `figure2` (thttpd bandwidth), `figure3`
//! (sshd transfer rate), `figure4` (ghosting ssh client), `c10k` (event
//! loop + descriptor ring vs the synchronous reference), `smp` (scaling
//! curves at 1/2/4/8 cores), `security` (§7 rootkit experiments),
//! `ablation` (per-mechanism overhead split), `counters` (event counts).
//! Every number is deterministic simulated time, pinned byte for byte by
//! the golden test `tests/golden.rs`.
//!
//! The `vg-bench` binary is the simulator's wall-clock harness for the
//! crypto fast paths: `record` writes `BENCH_crypto.json`, and `check`
//! gates against it.

/// Paper-reported values for Table 2 (microseconds): (name, native, vg,
/// InkTag-reported overhead ×, if reported).
pub const PAPER_TABLE2: &[(&str, f64, f64, Option<f64>)] = &[
    ("null syscall", 0.091, 0.355, Some(55.8)),
    ("open/close", 2.01, 9.70, Some(7.95)),
    ("mmap", 7.06, 33.2, Some(9.94)),
    ("page fault", 31.8, 36.7, Some(7.50)),
    ("signal handler install", 0.168, 0.545, None),
    ("signal handler delivery", 1.27, 2.05, None),
    ("fork + exit", 63.7, 283.0, Some(4.40)),
    ("fork + exec", 101.0, 422.0, Some(4.20)),
    ("select", 3.05, 10.3, Some(3.40)),
];

/// Paper Table 3 (files deleted/sec): (size label, bytes, native, vg).
pub const PAPER_TABLE3: &[(&str, usize, f64, f64)] = &[
    ("0 KB", 0, 166_846.0, 36_164.0),
    ("1 KB", 1024, 116_668.0, 25_817.0),
    ("4 KB", 4096, 116_657.0, 25_806.0),
    ("10 KB", 10_240, 110_842.0, 25_042.0),
];

/// Paper Table 4 (files created/sec).
pub const PAPER_TABLE4: &[(&str, usize, f64, f64)] = &[
    ("0 KB", 0, 156_276.0, 33_777.0),
    ("1 KB", 1024, 97_839.0, 18_796.0),
    ("4 KB", 4096, 97_102.0, 18_725.0),
    ("10 KB", 10_240, 85_319.0, 18_095.0),
];

/// Paper Table 5 (Postmark seconds at 500k transactions): (native, vg).
pub const PAPER_TABLE5: (f64, f64) = (14.30, 67.50);

/// vg/native ratio with NaN guard.
pub fn ratio(native: f64, vg: f64) -> f64 {
    if native > 0.0 {
        vg / native
    } else {
        f64::NAN
    }
}
