//! `vg-perf`: host throughput and simulated cost of the Virtual Ghost
//! reproduction on four workloads, end to end and layer by layer. See
//! README.md for the workloads, the metrics and how to compare commits.
//!
//! ```text
//! vg-perf [--seed N] [--seconds S] [--out FILE] [--trace-out PREFIX]
//!     every workload in its own child process, untraced, then traced
//! vg-perf --workload W [--seed N] [--seconds S] [--trace 0|1]
//!         [--out FILE] [--trace-out PATH]
//!     one run of one workload; the last stdout line is the result JSON
//! vg-perf compare BASE NEW
//!     compares two files of records written with --out
//! ```

mod calib;
mod compare;
mod harness;
mod json;
mod probes;
mod spans;
mod spec;
mod workloads;

use harness::{Report, Settings};
use json::{num, quote, Json};
use spec::{MetricSpec, Spec};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

const USAGE: &str = "usage: vg-perf [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE] [--trace-out PATH]\n       vg-perf compare BASE NEW";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        trace_out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => a.out = Some(value()?),
            "--trace-out" => a.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let rest: Vec<String> = argv.skip(1).collect();
        return match rest.as_slice() {
            [base, new] => compare::compare(&spec::spec(), base, new),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vg-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = rerun_without_aslr() {
        return code;
    }
    match args.workload {
        Some(w) => one_run(w, &args),
        None => full_run(&args),
    }
}

/// Runs this program again, with the same arguments, in a child process
/// whose address-space layout is not randomized, and returns its exit
/// code. Returns `None` when layout randomization is already off (this is
/// that child, or a descendant: the setting is inherited) or cannot be
/// turned off; the caller then measures in this process.
///
/// Host speed depends on where the heap, stack and code land. With the
/// layout randomized, `ghostkv`'s drift-corrected throughput spread 3.9%
/// between eight consecutive processes; with it fixed, 1.5%.
#[cfg(target_os = "linux")]
fn rerun_without_aslr() -> Option<ExitCode> {
    use std::ffi::{c_int, c_ulong};
    const ADDR_NO_RANDOMIZE: c_ulong = 0x0004_0000;
    const QUERY: c_ulong = 0xffff_ffff;
    extern "C" {
        fn personality(persona: c_ulong) -> c_int;
    }
    // SAFETY: personality(2) takes an integer and only reads or sets this
    // process's execution-domain flags; QUERY changes nothing.
    let current = unsafe { personality(QUERY) };
    if current < 0 || (current as c_ulong) & ADDR_NO_RANDOMIZE != 0 {
        return None;
    }
    // SAFETY: as above. The flag takes effect at the child's exec.
    if unsafe { personality(current as c_ulong | ADDR_NO_RANDOMIZE) } < 0 {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().unwrap_or(1) as u8))
}

#[cfg(not(target_os = "linux"))]
fn rerun_without_aslr() -> Option<ExitCode> {
    None
}

/// One run of one workload, in this process.
fn one_run(w: Workload, args: &Args) -> ExitCode {
    let spec = spec::spec();
    let mut spans = spans::Spans::new(args.trace);
    let report = harness::run(
        w,
        &Settings::full(args.seed, args.seconds),
        args.trace,
        &mut spans,
    );
    let list = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    print_report(&report, list);
    let record = record_json(&report, list);
    println!("record {record}");
    if let Some(path) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("vg-perf: cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, spans.chrome_json()) {
            eprintln!("vg-perf: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_json(&report, list));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(r: &Report, list: &[MetricSpec]) {
    let kind = if r.traced { "traced" } else { "untraced" };
    println!(
        "vg-perf {} ({kind}), seed {}: {} untraced timed units + 1 warm-up, unit_ms p50 {} \
         p90 {}, uncorrected {} op/s, ops_failed_frac {}",
        r.workload.name(),
        r.seed,
        r.units,
        fmt(r.unit_ms_p50),
        fmt(r.unit_ms_p90),
        fmt(r.uncorrected_ops_per_host_s),
        fmt(failed_frac(r)),
    );
    for m in list {
        println!("  {:<32} {:>14} {}", m.name, fmt(metric(r, m)), m.unit);
    }
    for f in &r.failures {
        println!("FAILED {f}");
    }
}

fn failed_frac(r: &Report) -> f64 {
    r.failed as f64 / r.attempted.max(1) as f64
}

/// `m`'s value in `r`. Only a run with failures may lack a finite value
/// (it reads 0); otherwise a missing value is a bug.
fn metric(r: &Report, m: &MetricSpec) -> f64 {
    match r.metrics.get(&m.name) {
        Some(&v) if v.is_finite() => v,
        _ if !r.correct() => 0.0,
        v => panic!("metric {} has no finite value: {v:?}", m.name),
    }
}

fn metrics_json(r: &Report, list: &[MetricSpec]) -> String {
    let items: Vec<String> = list
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(metric(r, m)),
                quote(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(r: &Report, list: &[MetricSpec]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(r, list)
    )
}

/// The result line plus what `compare` and the summary tables need.
fn record_json(r: &Report, list: &[MetricSpec]) -> String {
    let finite = |x: f64| num(if x.is_finite() { x } else { 0.0 });
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"started_unix_s\": {}, \
         \"units\": {}, \"uncorrected_ops_per_host_s\": {}, \"unit_ms_p50\": {}, \
         \"unit_ms_p90\": {}, \"ops_failed_frac\": {}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {}}}",
        quote(r.workload.name()),
        r.seed,
        u8::from(r.traced),
        num(r.started_unix_s),
        r.units,
        finite(r.uncorrected_ops_per_host_s),
        finite(r.unit_ms_p50),
        finite(r.unit_ms_p90),
        num(failed_frac(r)),
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(r, list)
    )
}

/// Every workload in its own child process (so each has its own peak
/// RSS): all untraced, then all traced. Prints one table per metric kind.
fn full_run(args: &Args) -> ExitCode {
    let spec = spec::spec();
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("vg-perf: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut records = Vec::new();
    for trace in ["0", "1"] {
        for w in workloads::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(Stdio::inherit());
            if let Some(out) = &args.out {
                cmd.args(["--out", out]);
            }
            if let (Some(prefix), "1") = (&args.trace_out, trace) {
                cmd.args(["--trace-out", &format!("{prefix}{}.json", w.name())]);
            }
            eprintln!("vg-perf: running {} (trace {trace})", w.name());
            let output = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("vg-perf: cannot run {}: {e}", exe.display());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let record = stdout
                .lines()
                .find_map(|l| l.strip_prefix("record "))
                .and_then(|r| Json::parse(r).ok());
            if !output.status.success() || record.is_none() {
                ok = false;
                print!("{stdout}");
            }
            records.extend(record);
        }
    }
    println!(
        "vg-perf: seed {}, >= {} s of timed units per workload, Mode::VirtualGhost; \
         host times drift-corrected to the reference machine (see README.md)",
        args.seed, args.seconds
    );
    let info = [
        ("uncorrected_ops_per_host_s", "op/s"),
        ("ops_failed_frac", "fraction"),
        ("unit_ms_p50", "ms"),
        ("unit_ms_p90", "ms"),
        ("units", "count"),
    ];
    print_table(&spec, &records, false, &spec.end_to_end, &info);
    print_table(&spec, &records, true, &spec.per_layer, &[]);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One row per metric (then per `info` field), one column per workload.
fn print_table(
    spec: &Spec,
    records: &[Json],
    traced: bool,
    list: &[MetricSpec],
    info: &[(&str, &str)],
) {
    let runs: Vec<Option<&Json>> = spec
        .workloads
        .iter()
        .map(|w| {
            records.iter().find(|r| {
                r.get("workload").and_then(Json::as_str) == Some(w.as_str())
                    && r.get("trace").and_then(Json::as_f64) == Some(f64::from(u8::from(traced)))
            })
        })
        .collect();
    let title = if traced {
        "per layer (traced)"
    } else {
        "end to end (untraced)"
    };
    println!("\n== {title} ==");
    print!("{:<32} {:<9}", "metric", "unit");
    for w in &spec.workloads {
        print!(" {w:>12}");
    }
    println!();
    let rows = list
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str(), true))
        .chain(info.iter().map(|&(n, u)| (n, u, false)));
    for (name, unit, in_metrics) in rows {
        print!("{name:<32} {unit:<9}");
        for run in &runs {
            let v = run.and_then(|r| {
                if in_metrics {
                    r.get("metrics")?.get(name)?.get("value")?.as_f64()
                } else {
                    r.get(name)?.as_f64()
                }
            });
            print!(" {:>12}", v.map_or("-".to_string(), fmt));
        }
        println!();
    }
}

/// Four significant digits, for the human-readable tables.
fn fmt(x: f64) -> String {
    if x == x.trunc() || !x.is_finite() {
        return format!("{x}");
    }
    let digits = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Each workload at 1/16 size: the metric names a run computes are
    /// exactly `BENCHMARK.json`'s lists, and simulated cycles repeat
    /// exactly between units, runs and the traced run.
    #[test]
    fn metric_names_match_benchmark_json_and_cycles_repeat() {
        let spec = spec::spec();
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names, "workload names");
        let settings = Settings {
            seed: 3,
            seconds: 0.0,
            div: 16,
            min_units: 2,
            boots: 3,
            traced_pairs: 1,
        };
        let set = |list: &[MetricSpec]| -> BTreeSet<String> {
            list.iter().map(|m| m.name.clone()).collect()
        };
        let mut off = spans::Spans::new(false);
        let mut on = spans::Spans::new(true);
        for w in workloads::ALL {
            let untraced = harness::run(w, &settings, false, &mut off);
            let again = harness::run(w, &settings, false, &mut off);
            let traced = harness::run(w, &settings, true, &mut on);
            for r in [&untraced, &again, &traced] {
                assert!(r.correct(), "{}: {:?}", w.name(), r.failures);
            }
            let keys = |r: &Report| -> BTreeSet<String> { r.metrics.keys().cloned().collect() };
            assert_eq!(
                keys(&untraced),
                set(&spec.end_to_end),
                "{} end to end",
                w.name()
            );
            assert_eq!(
                keys(&traced),
                set(&spec.per_layer),
                "{} per layer",
                w.name()
            );
            let kcycles = |r: &Report| r.metrics["sim_kcycles_per_op"];
            assert!(kcycles(&untraced) > 0.0);
            assert_eq!(kcycles(&untraced), kcycles(&again), "{}", w.name());
            result_json(&untraced, &spec.end_to_end);
            result_json(&traced, &spec.per_layer);
        }
        assert!(on.chrome_json().contains("\"name\":\"probes\""));
    }

    #[test]
    fn rejects_bad_arguments() {
        let parse = |s: &[&str]| parse_args(s.iter().map(|a| a.to_string()));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        let a = parse(&["--workload", "ssh", "--seed", "7", "--trace", "1"]).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.trace),
            (Some(Workload::Ssh), 7, true)
        );
    }
}
