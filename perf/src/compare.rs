//! `vg-perf compare BASE NEW`: end-to-end verdicts for a change.
//!
//! BASE and NEW hold one record per line, as written by `--out`. Untraced
//! records are grouped by workload; the i-th record of BASE and the i-th of
//! NEW form pair i. For every workload and end-to-end metric the tool
//! prints both medians and quartiles and a verdict against the metric's
//! bound from `BENCHMARK.json`:
//!
//! * `unresolved`: either side's interquartile range, as a share of its
//!   median, is wider than the bound, and not every NEW run beats every
//!   BASE run;
//! * `REGRESSION`: the NEW median is worse than the BASE median by more
//!   than the bound;
//! * `gain`: at least 10 pairs run in alternating order, NEW wins at least
//!   9/10 of them (ties count for neither), and the medians differ by more
//!   than BASE's interquartile range;
//! * `no regression` otherwise.

use crate::fmt;
use crate::json::Json;
use crate::spec::Spec;
use std::process::ExitCode;

/// The one end-to-end metric that is simulated, not host, time: with equal
/// seeds a host-speed change must leave it bit-identical.
const SIMULATED: &str = "sim_kcycles_per_op";

struct Run {
    seed: f64,
    started: f64,
    failed: f64,
    metrics: Json,
}

fn load(path: &str) -> Result<Vec<(String, Run)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let r = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |k: &str| r.get(k).ok_or(format!("{path}:{}: no {k}", i + 1));
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        runs.push((
            workload,
            Run {
                seed: field("seed")?.as_f64().unwrap_or(f64::NAN),
                started: field("started_unix_s")?.as_f64().unwrap_or(0.0),
                failed: field("failed")?.as_f64().unwrap_or(0.0),
                metrics: field("metrics")?.clone(),
            },
        ));
    }
    Ok(runs)
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` gives them (the
/// default exclusive method).
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        let x = d.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

pub fn compare(spec: &Spec, base_path: &str, new_path: &str) -> ExitCode {
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("vg-perf compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    println!(
        "{:<10} {:<20} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "wins"
    );
    for w in &spec.workloads {
        let (b, n) = (runs_of(&base, w), runs_of(&new, w));
        if b.is_empty() || n.is_empty() {
            println!("{w:<10} (no untraced runs on both sides)");
            continue;
        }
        let pairs = b.len().min(n.len());
        let base_first: Vec<bool> = (0..pairs).map(|i| b[i].started < n[i].started).collect();
        let alternated = pairs >= 2 && base_first.windows(2).all(|p| p[0] != p[1]);
        let failed = |runs: &[&Run]| runs.iter().map(|r| r.failed).sum::<f64>();
        let more_failures = failed(&n) > failed(&b);
        for m in &spec.end_to_end {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&m.name)?.get("value")?.as_f64())
                    .collect()
            };
            let (bv, nv) = (values(&b), values(&n));
            let (qb, qn) = (quartiles(&bv), quartiles(&nv));
            let change = (qn[1] - qb[1]) / qb[1];
            let bound = m.bound.unwrap_or(0.0);
            let may_gain = alternated && !more_failures;
            let (verdict, wins) = judge(&bv, &nv, m.higher_is_better, bound, may_gain);
            regressed |= verdict == Verdict::Regression;
            let verdict = match verdict {
                Verdict::BetterInEveryRun => "better in every run".to_string(),
                Verdict::Unresolved(spread) => {
                    format!("unresolved (spread {:.1}% > bound)", spread * 100.0)
                }
                Verdict::Regression => format!("REGRESSION (bound {:.1}%)", bound * 100.0),
                Verdict::Gain => "gain".to_string(),
                Verdict::NoRegression => "no regression".to_string(),
            };
            println!(
                "{w:<10} {:<20} {:>28} {:>28} {:>+7.2}% {:>6}  {verdict}",
                m.name,
                cell(qb),
                cell(qn),
                change * 100.0,
                format!("{wins}/{pairs}"),
            );
            if m.name == SIMULATED {
                for i in 0..bv.len().min(nv.len()) {
                    if b[i].seed == n[i].seed && bv[i] != nv[i] {
                        println!(
                            "{w:<10} note: {SIMULATED} changed on seed {} ({} -> {})",
                            b[i].seed, bv[i], nv[i]
                        );
                    }
                }
            }
        }
        if !alternated {
            println!("{w:<10} note: the pairs did not alternate which side ran first");
        }
        if more_failures {
            regressed = true;
            println!("{w:<10} note: NEW failed more ops than BASE; no gain counts");
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// What the pairs rule says about one metric on one workload.
#[derive(Debug, PartialEq)]
enum Verdict {
    BetterInEveryRun,
    /// The wider side's interquartile range / median.
    Unresolved(f64),
    Regression,
    Gain,
    NoRegression,
}

/// Judges NEW values `n` against BASE values `b` (pair `i` is `b[i]`,
/// `n[i]`) for a metric with the given direction and bound. `may_gain` is
/// false when the pairs did not alternate or NEW failed more ops. Returns
/// the verdict and the pairs NEW won.
fn judge(
    b: &[f64],
    n: &[f64],
    higher_is_better: bool,
    bound: f64,
    may_gain: bool,
) -> (Verdict, usize) {
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let (qb, qn) = (quartiles(b), quartiles(n));
    let change = (qn[1] - qb[1]) / qb[1];
    let worse_by = if higher_is_better { -change } else { change };
    let spread = ((qb[2] - qb[0]) / qb[1].abs()).max((qn[2] - qn[0]) / qn[1].abs());
    let pairs = b.len().min(n.len());
    let wins = (0..pairs).filter(|&i| better(n[i], b[i])).count();
    let verdict = if spread > bound {
        if n.iter().all(|&x| b.iter().all(|&y| better(x, y))) {
            Verdict::BetterInEveryRun
        } else {
            Verdict::Unresolved(spread)
        }
    } else if worse_by > bound {
        Verdict::Regression
    } else if pairs >= 10
        && may_gain
        && wins * 10 >= pairs * 9
        && (qn[1] - qb[1]).abs() > qb[2] - qb[0]
        && better(qn[1], qb[1])
    {
        Verdict::Gain
    } else {
        Verdict::NoRegression
    };
    (verdict, wins)
}

fn runs_of<'a>(runs: &'a [(String, Run)], workload: &str) -> Vec<&'a Run> {
    runs.iter()
        .filter(|(w, _)| w == workload)
        .map(|(_, r)| r)
        .collect()
}

fn cell(q: [f64; 3]) -> String {
    format!("{} [{}, {}]", fmt(q[1]), fmt(q[0]), fmt(q[2]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4)
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
    }

    #[test]
    fn judges_by_the_pairs_rule() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let judge_hi = |n: &[f64], alt| judge(&base, n, true, 0.1, alt);
        assert_eq!(judge_hi(&faster, true), (Verdict::Gain, 10));
        // Not alternated (or more failures), or too few pairs: no gain.
        assert_eq!(judge_hi(&faster, false).0, Verdict::NoRegression);
        assert_eq!(
            judge(&base[..9], &faster[..9], true, 0.1, true).0,
            Verdict::NoRegression
        );
        assert_eq!(judge_hi(&slower, true), (Verdict::Regression, 0));
        // For a lower-is-better metric the same numbers are a gain.
        assert_eq!(judge(&base, &slower, false, 0.25, true).0, Verdict::Gain);
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 80.0,
        ];
        assert!(matches!(judge_hi(&noisy, true).0, Verdict::Unresolved(s) if s > 0.1));
    }
}
