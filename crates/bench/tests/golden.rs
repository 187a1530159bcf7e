//! Golden pins for every number `paper-tables` prints. Each test runs the
//! built binary with one set of arguments in its own working directory
//! and compares its stdout, and the folded-stack file, byte for byte with
//! a checked-in text file under `tests/golden/`. The trace is ~1 MB, so
//! only its byte length and SHA-256 digest are pinned. Every number is
//! deterministic simulated time, so any difference is a finding.
//!
//! A change that moves simulated cycles re-captures the goldens and states
//! the diff. Build the binary, then, from `crates/bench/tests/golden`, run
//! these and copy the trace's length and digest into [`TRACE_LEN`] and
//! [`TRACE_SHA256`]. The output paths must stay relative, because stdout
//! echoes them.
//!
//! ```text
//! P=../../../../target/release/paper-tables
//! $P > full.txt
//! $P --fast > fast.txt
//! $P --fast --metrics > fast_metrics.txt
//! $P --fast --profile > fast_profile.txt
//! $P --profile --folded profile.folded > profile.txt
//! $P --fast --trace trace.json > fast_trace.txt
//! wc -c trace.json && sha256sum trace.json && rm trace.json
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Byte length of `trace.json` from `--fast --trace`.
const TRACE_LEN: usize = 1_019_538;

/// SHA-256 of `trace.json` from `--fast --trace`, lowercase hex.
const TRACE_SHA256: &str = "cdef063100452be46a2c26c710851d868a992e54ff5f41a30922e4b5ec09997f";

/// Runs `paper-tables args` in a fresh directory named after `test` and
/// returns that directory and the output.
fn run(test: &str, args: &[&str]) -> (PathBuf, Output) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("paper-tables-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_paper-tables"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    (dir, out)
}

/// Runs `paper-tables args`, checks it succeeded and returns its
/// directory and stdout.
fn stdout_of(test: &str, args: &[&str]) -> (PathBuf, String) {
    let (dir, out) = run(test, args);
    assert!(
        out.status.success(),
        "paper-tables {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, String::from_utf8(out.stdout).unwrap())
}

/// Fails with the first differing line unless `actual` equals the golden
/// file `name` byte for byte.
fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let golden = std::fs::read_to_string(&path).unwrap();
    if golden == actual {
        return;
    }
    let (mut want, mut got) = (golden.split_inclusive('\n'), actual.split_inclusive('\n'));
    let same = want
        .clone()
        .zip(got.clone())
        .take_while(|(w, g)| w == g)
        .count();
    panic!(
        "{name} differs from the golden at line {}:\n  golden: {:?}\n  actual: {:?}\n\
         (a deliberate change re-captures it; see the module doc)",
        same + 1,
        want.nth(same),
        got.nth(same)
    );
}

#[test]
fn full_run() {
    assert_golden("full.txt", &stdout_of("full", &[]).1);
}

#[test]
fn fast() {
    assert_golden("fast.txt", &stdout_of("fast", &["--fast"]).1);
}

#[test]
fn fast_metrics() {
    let (_, out) = stdout_of("fast_metrics", &["--fast", "--metrics"]);
    assert_golden("fast_metrics.txt", &out);
}

#[test]
fn fast_profile() {
    let (_, out) = stdout_of("fast_profile", &["--fast", "--profile"]);
    assert_golden("fast_profile.txt", &out);
}

#[test]
fn profile_with_folded_stacks() {
    let (dir, out) = stdout_of("profile", &["--profile", "--folded", "profile.folded"]);
    assert_golden("profile.txt", &out);
    let folded = std::fs::read_to_string(dir.join("profile.folded")).unwrap();
    assert_golden("profile.folded", &folded);
}

#[test]
fn fast_trace() {
    let (dir, out) = stdout_of("fast_trace", &["--fast", "--trace", "trace.json"]);
    assert_golden("fast_trace.txt", &out);
    let trace = std::fs::read(dir.join("trace.json")).unwrap();
    assert_eq!(trace.len(), TRACE_LEN, "trace.json length");
    let digest = vg_crypto::sha256::Sha256::digest(&trace);
    assert_eq!(vg_crypto::sha256::hex(&digest), TRACE_SHA256, "trace.json");
}

#[test]
fn unknown_artefact_exits_2_with_the_artefact_list() {
    let (_, out) = run("unknown_artefact", &["tabel2", "--fast"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no artefact may run");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown artefact: tabel2"), "{stderr}");
    assert!(
        stderr.contains("table2 table3 table4 table5 figure2 figure3 figure4 c10k smp"),
        "{stderr}"
    );
}

#[test]
fn a_flag_after_trace_or_folded_is_refused_as_its_path() {
    for (test, args) in [
        ("trace_without_path", &["--trace", "--fast"][..]),
        (
            "folded_without_path",
            &["--profile", "--folded", "--fast"][..],
        ),
    ] {
        let (dir, out) = run(test, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("requires a path argument"), "{stderr}");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}
