//! The simulator's wall-clock harness: `record` writes the `BENCH_*.json`
//! files at the repository root, and `check` gates against them.
//!
//! ```text
//! cargo run --release -p vg-bench --bin vg-bench -- record
//! cargo run --release -p vg-bench --bin vg-bench -- check
//! ```
//!
//! Both subcommands measure the same rows the same way:
//!
//! - `crypto_data_plane`: the vg-crypto fast paths vs the scalar
//!   `vg_crypto::reference` (`BENCH_crypto.json`);
//! - `net_data_plane`: the descriptor ring vs the per-call path, in
//!   simulated cycles per request (`BENCH_net.json`);
//! - `smp_scaling`: 1-core vs 4-core scheduling horizons, in simulated
//!   cycles (`BENCH_smp.json`).
//!
//! Each row's gated number is an optimized-vs-baseline *ratio*, which
//! depends far less on the host than absolute times do. `record` rewrites
//! the measured numbers in place at their key paths and leaves every other
//! byte alone, so prose keys stay hand-written; it fails if a key is
//! missing. The net and SMP rows are deterministic simulated cycles, so
//! re-recording them leaves those files byte-identical until the cost
//! model, the data plane or the scheduler changes.
//!
//! `check` fails a row whose measured ratio drops below `recorded / 1.25`
//! (a >25% regression of the optimization), or whose recorded value is
//! missing, and then exits 1.

use std::ops::Range;
use std::time::Instant;
use vg_bench::shapes::{net_shapes, smp_shapes, NetShapeResult, SMP_CPU_COUNTS};
use vg_crypto::aes::{Aes128, SealedBox};
use vg_crypto::hmac::HmacKey;
use vg_crypto::reference;

/// Allowed relative drop of a recorded speedup before `check` fails.
const TOLERANCE: f64 = 1.25;

/// `record` measures every row this many times and writes the run with
/// the median ratio, so one disturbed measurement cannot set a baseline.
const RECORD_RUNS: usize = 3;

/// `check` re-measures a file's rows up to this many times in all while
/// one of them is below its floor, keeping each row's best ratio: a
/// regression stays below on every attempt, a scheduler spike does not.
const CHECK_ATTEMPTS: usize = 3;

/// Cpu count whose speedup over one core the `smp_scaling` rows gate.
const SMP_GATED_CPUS: usize = 4;

// ---- key-path lookup --------------------------------------------------------

/// Byte range of the JSON value at the dotted key path `path` in `doc`.
/// Each segment names a member of the object the previous segment led to,
/// or an element of an array by decimal index. The search never leaves
/// that value, so `full_scale.ghostkv.speedup` cannot land on
/// `shapes.ghostkv.speedup`. `None` for a missing key or malformed JSON.
fn value_span(doc: &str, path: &str) -> Option<Range<usize>> {
    let b = doc.as_bytes();
    let mut span = skip_ws(b, 0)..0;
    for segment in path.split('.') {
        span = member(b, span.start, segment)?;
    }
    Some(span)
}

/// Span of member `segment` of the object or array opening at `open`.
fn member(b: &[u8], open: usize, segment: &str) -> Option<Range<usize>> {
    let array = match b.get(open)? {
        b'{' => false,
        b'[' => true,
        _ => return None,
    };
    let index: usize = if array { segment.parse().ok()? } else { 0 };
    let mut i = skip_ws(b, open + 1);
    for n in 0.. {
        if matches!(b.get(i)?, b'}' | b']') {
            return None;
        }
        let hit = if array {
            n == index
        } else {
            let key_end = string_end(b, i)?;
            let hit = &b[i + 1..key_end - 1] == segment.as_bytes();
            i = skip_ws(b, key_end);
            if b.get(i) != Some(&b':') {
                return None;
            }
            i = skip_ws(b, i + 1);
            hit
        };
        let end = value_end(b, i)?;
        if hit {
            return Some(i..end);
        }
        i = skip_ws(b, end);
        if b.get(i) != Some(&b',') {
            return None;
        }
        i = skip_ws(b, i + 1);
    }
    None
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while b.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    i
}

/// One past the closing quote of the string opening at `open`.
fn string_end(b: &[u8], open: usize) -> Option<usize> {
    if b.get(open) != Some(&b'"') {
        return None;
    }
    let mut i = open + 1;
    loop {
        match b.get(i)? {
            b'\\' => i += 2,
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
}

/// One past the end of the value starting at `start`.
fn value_end(b: &[u8], start: usize) -> Option<usize> {
    match b.get(start)? {
        b'"' => string_end(b, start),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut i = start;
            loop {
                match b.get(i)? {
                    b'"' => {
                        i = string_end(b, i)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(i + 1);
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        _ => {
            let len = b[start..]
                .iter()
                .position(|&c| matches!(c, b',' | b'}' | b']') || c.is_ascii_whitespace())?;
            (len > 0).then_some(start + len)
        }
    }
}

/// The number at `path`; `None` if the key is missing or not a number.
fn number(doc: &str, path: &str) -> Option<f64> {
    doc[value_span(doc, path)?].parse().ok()
}

/// Replaces the value at `path` with the JSON text `value`.
fn put(doc: &mut String, path: &str, value: &str) -> Result<(), String> {
    let span = value_span(doc, path).ok_or_else(|| format!("no key `{path}`"))?;
    doc.replace_range(span, value);
    Ok(())
}

/// `x` rounded to `decimals` places, printed as its shortest round-trip
/// form (`7.4`, `1.0`, `5606.8`).
fn fixed(x: f64, decimals: i32) -> String {
    let scale = 10f64.powi(decimals);
    format!("{:?}", (x * scale).round() / scale)
}

fn list<T>(items: impl IntoIterator<Item = T>, fmt: impl Fn(T) -> String) -> String {
    let items: Vec<String> = items.into_iter().map(fmt).collect();
    format!("[{}]", items.join(", "))
}

// ---- measurement ------------------------------------------------------------

/// Minimum mean-per-iteration microseconds of `a` and of `b` over several
/// rounds, after a ~25 ms warm-up of each. The warm-up matters: shapes are
/// measured back to back in one process, and without it the branch
/// predictor and the caches carry the previous shape's state into the
/// first rounds. Rounds are calibrated to ~10 ms so fast and slow
/// benches get comparable noise; taking the minimum of the round means
/// discards scheduler and frequency-scaling spikes, which is what a
/// lower-bound ratio gate wants. The two sides alternate round by round,
/// so host drift during the measurement lands on both sides of their ratio
/// rather than on one.
fn measure_pair<'a>(a: &'a mut dyn FnMut(), b: &'a mut dyn FnMut()) -> (f64, f64) {
    let mut sides = [(a, 0u32, f64::INFINITY), (b, 0, f64::INFINITY)];
    for (f, iters, _) in &mut sides {
        let warm = Instant::now();
        let mut est = f64::MAX;
        while warm.elapsed().as_millis() < 25 {
            let t = Instant::now();
            f();
            est = est.min((t.elapsed().as_secs_f64() * 1e6).max(0.5));
        }
        *iters = (10_000.0 / est).clamp(1.0, 50_000.0) as u32;
    }
    for _ in 0..7 {
        for (f, iters, best) in &mut sides {
            let t = Instant::now();
            for _ in 0..*iters {
                f();
            }
            *best = best.min(t.elapsed().as_secs_f64() * 1e6 / f64::from(*iters));
        }
    }
    (sides[0].2, sides[1].2)
}

/// One measured row.
struct Row {
    group: &'static str,
    name: &'static str,
    /// Key path of the gated ratio in the group's BENCH file.
    key: String,
    measured: f64,
    /// Optimized and baseline sides, for the report: µs per iteration, or
    /// cycles per request (net), or kilocycles of horizon (SMP).
    optimized: f64,
    baseline: f64,
    /// What `record` writes: (key path, JSON text). Includes `key`.
    values: Vec<(String, String)>,
}

fn crypto_rows(_doc: &str, _record: bool) -> Result<Vec<Row>, String> {
    let page = vec![0xabu8; 4096];
    let kib = vec![0xcdu8; 1024];
    let enc = [1u8; 16];
    let mac = [2u8; 32];
    let cipher = Aes128::new(&enc);
    let mac_key = HmacKey::new(&mac);
    let sealed = SealedBox::seal_with(&cipher, &mac_key, 7, &page);

    // (name, optimized path, scalar reference path).
    type BenchFn<'a> = Box<dyn FnMut() + 'a>;
    let benches: Vec<(&'static str, BenchFn, BenchFn)> = vec![
        (
            "aes_ctr_page",
            Box::new(|| {
                let mut buf = page.clone();
                cipher.ctr_xor(1, &mut buf);
                std::hint::black_box(&buf);
            }),
            Box::new(|| {
                let mut buf = page.clone();
                reference::ctr_xor(&enc, 1, &mut buf);
                std::hint::black_box(&buf);
            }),
        ),
        (
            "seal_page",
            Box::new(|| {
                std::hint::black_box(SealedBox::seal_with(
                    &cipher,
                    &mac_key,
                    7,
                    std::hint::black_box(&page),
                ));
            }),
            Box::new(|| {
                std::hint::black_box(reference::seal(&enc, &mac, 7, std::hint::black_box(&page)));
            }),
        ),
        (
            "unseal_page",
            Box::new(|| {
                std::hint::black_box(sealed.open_with(&cipher, &mac_key, 7).unwrap());
            }),
            Box::new(|| {
                std::hint::black_box(
                    reference::open(
                        &enc,
                        &mac,
                        7,
                        sealed.nonce(),
                        sealed.ciphertext(),
                        sealed.tag(),
                    )
                    .unwrap(),
                );
            }),
        ),
        (
            "hmac_1k",
            Box::new(|| {
                std::hint::black_box(mac_key.mac(std::hint::black_box(&kib)));
            }),
            Box::new(|| {
                std::hint::black_box(reference::hmac_sha256(&mac, std::hint::black_box(&kib)));
            }),
        ),
    ];

    Ok(benches
        .into_iter()
        .map(|(name, mut optimized, mut scalar)| {
            let (opt_us, scalar_us) = measure_pair(&mut optimized, &mut scalar);
            let at = |field: &str| format!("benches.{name}.{field}");
            let key = at("speedup");
            Row {
                group: "crypto_data_plane",
                name,
                measured: scalar_us / opt_us,
                optimized: opt_us,
                baseline: scalar_us,
                values: vec![
                    (at("optimized_us"), fixed(opt_us, 2)),
                    (at("scalar_us"), fixed(scalar_us, 2)),
                    (key.clone(), fixed(scalar_us / opt_us, 2)),
                ],
                key,
            }
        })
        .collect())
}

/// The numbers of one net shape, under `section` (`shapes` or `full_scale`).
fn net_values(section: &str, s: &NetShapeResult) -> Vec<(String, String)> {
    let at = |field: String| format!("{section}.{}.{field}", s.name);
    let mut values = vec![(at("speedup".into()), fixed(s.speedup(), 2))];
    for (side, run) in [("optimized", &s.optimized), ("baseline", &s.baseline)] {
        let per_req = run.cpu_cycles as f64 / run.requests as f64;
        values.extend([
            (at(format!("{side}_cycles_per_req")), fixed(per_req, 1)),
            (
                at(format!("{side}_req_per_megacycle")),
                fixed(run.req_per_megacycle, 2),
            ),
            (at(format!("{side}_p50_cycles")), run.p50_cycles.to_string()),
            (at(format!("{side}_p99_cycles")), run.p99_cycles.to_string()),
        ]);
    }
    values
}

/// The descriptor-ring data-plane shapes at `methodology.conns`, gated on
/// their requests-per-megacycle speedup. Simulated cycles, so a drop below
/// the floor means the batching or the cost model regressed, not the
/// host. `record` also runs the `full_scale.conns` acceptance scale.
fn net_rows(doc: &str, record: bool) -> Result<Vec<Row>, String> {
    let conns = |path: &str| {
        number(doc, path)
            .map(|n| n as u32)
            .ok_or(format!("no `{path}`"))
    };
    let mut rows: Vec<Row> = net_shapes(conns("methodology.conns")?)
        .iter()
        .map(|s| Row {
            group: "net_data_plane",
            name: s.name,
            key: format!("shapes.{}.speedup", s.name),
            measured: s.speedup(),
            optimized: s.optimized_cycles_per_req(),
            baseline: s.baseline_cycles_per_req(),
            values: net_values("shapes", s),
        })
        .collect();
    if record {
        let full = net_shapes(conns("full_scale.conns")?);
        for (row, s) in rows.iter_mut().zip(&full) {
            row.values.extend(net_values("full_scale", s));
        }
    }
    Ok(rows)
}

/// The SMP scaling curves at `methodology.scale`, gated on the 4-core
/// speedup `horizon(1 cpu) / horizon(4 cpus)`. Simulated cycles again, so
/// a drop below the floor means the scheduler, the IPI protocol or the
/// cost model regressed.
fn smp_rows(doc: &str, _record: bool) -> Result<Vec<Row>, String> {
    let scale = number(doc, "methodology.scale").ok_or("no `methodology.scale`")? as u32;
    let gated = SMP_CPU_COUNTS
        .iter()
        .position(|&c| c == SMP_GATED_CPUS)
        .expect("the gated cpu count is sampled");
    Ok(smp_shapes(scale)
        .iter()
        .map(|s| {
            let at = |field: &str| format!("shapes.{}.{field}", s.name);
            let p = &s.points;
            Row {
                group: "smp_scaling",
                name: s.name,
                key: format!("{}.{gated}", at("speedup")),
                measured: p[gated].speedup,
                optimized: p[gated].bench.horizon_cycles as f64 / 1e3,
                baseline: p[0].bench.horizon_cycles as f64 / 1e3,
                values: vec![
                    (at("units"), p[0].bench.units.to_string()),
                    (
                        at("horizon_cycles"),
                        list(p, |p| p.bench.horizon_cycles.to_string()),
                    ),
                    (
                        at("total_cycles"),
                        list(p, |p| p.bench.total_cycles.to_string()),
                    ),
                    (at("ipis"), list(p, |p| p.bench.ipis.to_string())),
                    (
                        at("units_per_megacycle"),
                        list(p, |p| fixed(p.bench.units_per_megacycle(), 2)),
                    ),
                    (at("speedup"), list(p, |p| fixed(p.speedup, 3))),
                    (at("efficiency"), list(p, |p| fixed(p.efficiency, 3))),
                ],
            }
        })
        .collect())
}

type RowsFn = fn(&str, bool) -> Result<Vec<Row>, String>;

/// Every BENCH file at the repository root and the rows it holds.
const FILES: [(&str, RowsFn); 3] = [
    ("BENCH_crypto.json", crypto_rows),
    ("BENCH_net.json", net_rows),
    ("BENCH_smp.json", smp_rows),
];

fn path_of(file: &str) -> String {
    format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Whether `row` meets the floor of its recorded ratio in `doc`.
fn within_floor(doc: &str, row: &Row) -> bool {
    number(doc, &row.key).is_some_and(|r| row.measured >= r / TOLERANCE)
}

/// Measures every file's rows, then writes all three files; a missing key
/// in any of them leaves every file untouched.
fn record() -> Result<(), String> {
    println!("== vg-bench record ==\n");
    let mut recorded = Vec::new();
    for (file, rows_of) in FILES {
        let path = path_of(file);
        let mut doc = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let runs = (0..RECORD_RUNS)
            .map(|_| rows_of(&doc, true))
            .collect::<Result<Vec<_>, _>>()?;
        for i in 0..runs[0].len() {
            let mut takes: Vec<&Row> = runs.iter().map(|run| &run[i]).collect();
            takes.sort_by(|a, b| a.measured.total_cmp(&b.measured));
            let row = takes[RECORD_RUNS / 2];
            for (key, value) in &row.values {
                put(&mut doc, key, value).map_err(|e| format!("{file}: {e}"))?;
            }
            println!(
                "{:<18} {:<20} {:>10.1} {:>10.1} {:>8.2}x",
                row.group, row.name, row.optimized, row.baseline, row.measured
            );
        }
        recorded.push((file, path, doc));
    }
    for (file, path, doc) in recorded {
        std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {file}");
    }
    Ok(())
}

fn check() -> Result<bool, String> {
    println!("== vg-bench check ==");
    println!("(fails when a recorded speedup drops by more than {TOLERANCE}x or is missing)");
    println!("(net_data_plane rows are simulated cycles/request, not microseconds)");
    println!("(smp_scaling rows are 4-core vs 1-core horizons in kilocycles)\n");
    println!(
        "{:<18} {:<20} {:>10} {:>10} {:>9} {:>9} {:>9}   status",
        "group", "bench", "opt-us", "base-us", "recorded", "measured", "floor"
    );
    let (mut rows, mut failed) = (0, 0);
    for (file, rows_of) in FILES {
        let path = path_of(file);
        let doc = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let mut best = rows_of(&doc, false)?;
        for _ in 1..CHECK_ATTEMPTS {
            if best.iter().all(|row| within_floor(&doc, row)) {
                break;
            }
            for (row, again) in best.iter_mut().zip(rows_of(&doc, false)?) {
                if again.measured > row.measured {
                    *row = again;
                }
            }
        }
        for row in best {
            rows += 1;
            let recorded = number(&doc, &row.key);
            let floor = recorded.map(|r| r / TOLERANCE);
            let status = match recorded {
                None => "NO BASELINE",
                Some(_) if !within_floor(&doc, &row) => "REGRESSED",
                Some(_) => "ok",
            };
            let show = |x: Option<f64>| x.map_or("-".into(), |x| format!("{x:.2}x"));
            println!(
                "{:<18} {:<20} {:>10.1} {:>10.1} {:>9} {:>8.2}x {:>9}   {status}",
                row.group,
                row.name,
                row.optimized,
                row.baseline,
                show(recorded),
                row.measured,
                show(floor),
            );
            if status != "ok" {
                failed += 1;
            }
        }
    }
    if failed == 0 {
        println!("\nall {rows} gated shapes within tolerance");
        return Ok(true);
    }
    println!("\n{failed} of {rows} shape(s) regressed by more than {TOLERANCE}x or have no recorded baseline");
    Ok(false)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [cmd] if cmd == "check" => check(),
        [cmd] if cmd == "record" => record().map(|()| true),
        _ => {
            eprintln!("usage: vg-bench <check|record>");
            std::process::exit(2);
        }
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("vg-bench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in file, as `record` and `check` read it.
    fn checked_in(file: &str) -> String {
        std::fs::read_to_string(path_of(file)).unwrap()
    }

    /// The gated key of every row `check` reads, per file.
    fn gated_keys(file: &str) -> Vec<String> {
        let names: &[&str] = match file {
            "BENCH_crypto.json" => &["aes_ctr_page", "seal_page", "unseal_page", "hmac_1k"],
            "BENCH_net.json" => &["thttpd_c10k", "ghostkv"],
            _ => &["thttpd_c10k", "postmark", "ghostkv", "lmbench_procmix"],
        };
        names
            .iter()
            .map(|n| match file {
                "BENCH_crypto.json" => format!("benches.{n}.speedup"),
                "BENCH_net.json" => format!("shapes.{n}.speedup"),
                _ => format!("shapes.{n}.speedup.2"), // 4 cpus
            })
            .collect()
    }

    #[test]
    fn recorded_values_read_back_at_their_own_key_paths() {
        for (file, _) in FILES {
            let text = &checked_in(file);
            let mut doc = text.clone();
            let mut keys = gated_keys(file);
            if file == "BENCH_net.json" {
                keys.push("full_scale.thttpd_c10k.speedup".into());
                keys.push("full_scale.ghostkv.speedup".into());
            }
            for key in &keys {
                assert!(number(text, key).is_some(), "{file}: `{key}` not recorded");
            }
            // Distinct values per key, so a lookup that strays into a
            // sibling section reads the wrong one.
            for (i, key) in keys.iter().enumerate() {
                put(&mut doc, key, &fixed(100.0 + i as f64 * 1.25, 2)).unwrap();
            }
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(
                    number(&doc, key),
                    Some(100.0 + i as f64 * 1.25),
                    "{file}: {key}"
                );
            }
            for prose in ["description", "acceptance.criterion"] {
                assert_eq!(
                    doc[value_span(&doc, prose).unwrap()],
                    text[value_span(text, prose).unwrap()],
                    "{file}: {prose}"
                );
            }
        }
    }

    #[test]
    fn shapes_and_full_scale_are_separate_targets() {
        let text = &checked_in("BENCH_net.json");
        let mut doc = text.clone();
        put(&mut doc, "shapes.thttpd_c10k.speedup", "9.99").unwrap();
        assert_eq!(number(&doc, "shapes.thttpd_c10k.speedup"), Some(9.99));
        assert_eq!(
            number(&doc, "full_scale.thttpd_c10k.speedup"),
            number(text, "full_scale.thttpd_c10k.speedup")
        );
        put(&mut doc, "full_scale.thttpd_c10k.speedup", "1.23").unwrap();
        assert_eq!(number(&doc, "full_scale.thttpd_c10k.speedup"), Some(1.23));
        assert_eq!(number(&doc, "shapes.thttpd_c10k.speedup"), Some(9.99));
    }

    #[test]
    fn a_missing_key_fails_both_lookup_and_record() {
        let text = &checked_in("BENCH_net.json");
        let mut doc = text.clone();
        // `methodology` holds no `speedup` and no `full_scale`: the lookup
        // must not run on into `shapes` or out to the top level, which do.
        assert_eq!(number(text, "methodology.speedup"), None);
        assert_eq!(number(text, "methodology.full_scale.conns"), None);
        assert_eq!(number(text, "shapes.thttpd_c10k.no_such_key"), None);
        assert!(put(&mut doc, "shapes.no_such_shape.speedup", "1.0").is_err());
        assert_eq!(&doc, text);
    }

    #[test]
    fn arrays_index_by_position() {
        let doc = r#"{"a": {"s": "x, ]}", "v": [1.0, [2, 3], {"k": 4}, 5.5]}, "v": 9}"#;
        assert_eq!(number(doc, "a.v.0"), Some(1.0));
        assert_eq!(number(doc, "a.v.1.1"), Some(3.0));
        assert_eq!(number(doc, "a.v.2.k"), Some(4.0));
        assert_eq!(number(doc, "a.v.3"), Some(5.5));
        assert_eq!(number(doc, "a.v.4"), None);
        assert_eq!(number(doc, "v"), Some(9.0));
        assert_eq!(number(doc, "a.s"), None);
    }

    #[test]
    fn fixed_prints_the_shortest_rounded_form() {
        assert_eq!(fixed(22653.333, 1), "22653.3");
        assert_eq!(fixed(7.4, 2), "7.4");
        assert_eq!(fixed(1.0, 3), "1.0");
        assert_eq!(fixed(4664.0, 1), "4664.0");
        assert_eq!(list([1, 2], |c: i32| c.to_string()), "[1, 2]");
    }
}
