//! Trace exporters: Chrome/Perfetto JSON and a plain-text top-N summary.
//!
//! Both walk the retained [`Record`]s in order and are pure functions of
//! the tracer state, so identical traces export to byte-identical output.
//! The JSON `ts`/`dur` fields are **simulated cycles**, not microseconds —
//! load the file in Perfetto or `chrome://tracing` and read the time axis
//! as cycles (the simulation's only clock).

use crate::profile::{CycleProfiler, Domain};
use crate::{Record, TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the tracer's retained records as Chrome trace-event JSON
/// (the `{"traceEvents": [...]}` object form both Chrome and Perfetto
/// load). All span/category names are static identifiers, so no string
/// escaping is required.
pub fn chrome_trace_json(tracer: &Tracer) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for r in tracer.records() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        write_event(&mut out, r);
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"clock\":\"simulated-cycles\",\"dropped\":{}}}}}",
        tracer.dropped()
    );
    out.push('\n');
    out
}

fn write_event(out: &mut String, r: &Record) {
    let (tid, at) = (r.proc_id, r.at);
    match r.ev {
        TraceEvent::Begin { cat, name, arg } => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"B\",\"ts\":{at},\"pid\":1,\"tid\":{tid},\"args\":{{\"arg\":{arg}}}}}"
            );
        }
        TraceEvent::End { cat, name } => {
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"E\",\"ts\":{at},\"pid\":1,\"tid\":{tid}}}"
            );
        }
        TraceEvent::Complete { cat, name, start } => {
            let dur = at.saturating_sub(start);
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{start},\"dur\":{dur},\"pid\":1,\"tid\":{tid}}}"
            );
        }
        ev => {
            let (name, args) = instant_parts(ev);
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{at},\"pid\":1,\"tid\":{tid},\"s\":\"t\",\"args\":{{{args}}}}}"
            );
        }
    }
}

/// Maps an instant event to its display name and JSON `args` body.
fn instant_parts(ev: TraceEvent) -> (&'static str, String) {
    match ev {
        TraceEvent::TrapEnter { kind, detail } => (
            "trap_enter",
            format!("\"kind\":\"{kind}\",\"detail\":{detail}"),
        ),
        TraceEvent::TrapExit => ("trap_exit", String::new()),
        TraceEvent::SyscallDispatch { num } => ("syscall_dispatch", format!("\"num\":{num}")),
        TraceEvent::SyscallReturn { num, ret } => {
            ("syscall_return", format!("\"num\":{num},\"ret\":{ret}"))
        }
        TraceEvent::PageFault { va } => ("page_fault", format!("\"va\":{va}")),
        TraceEvent::PteUpdate { va, accepted } => {
            ("pte_update", format!("\"va\":{va},\"accepted\":{accepted}"))
        }
        TraceEvent::GhostAlloc { va, pfn } => ("ghost_alloc", format!("\"va\":{va},\"pfn\":{pfn}")),
        TraceEvent::GhostFree { va, pfn } => ("ghost_free", format!("\"va\":{va},\"pfn\":{pfn}")),
        TraceEvent::SwapOut { vpn } => ("swap_out", format!("\"vpn\":{vpn}")),
        TraceEvent::SwapIn { vpn, ok } => ("swap_in", format!("\"vpn\":{vpn},\"ok\":{ok}")),
        TraceEvent::GetKey => ("get_key", String::new()),
        TraceEvent::ContextSwitch { from, to } => {
            ("context_switch", format!("\"from\":{from},\"to\":{to}"))
        }
        TraceEvent::CfiViolation { addr } => ("cfi_violation", format!("\"addr\":{addr}")),
        TraceEvent::MmuRejection { va, reason } => (
            "mmu_rejection",
            format!("\"va\":{va},\"reason\":\"{reason}\""),
        ),
        TraceEvent::IcDenied { addr } => ("ic_denied", format!("\"addr\":{addr}")),
        TraceEvent::Begin { .. } | TraceEvent::End { .. } | TraceEvent::Complete { .. } => {
            unreachable!("span events are rendered by write_event")
        }
    }
}

#[derive(Default, Clone, Copy)]
struct SpanAgg {
    count: u64,
    total: u64,
}

/// Renders a plain-text summary: the top `n` spans by total cycles
/// (aggregated over `Begin`/`End` pairs and `Complete` events), followed
/// by instant-event counts. Deterministic: ties break on name order.
pub fn summary_top_n(tracer: &Tracer, n: usize) -> String {
    let mut spans: BTreeMap<(&'static str, &'static str), SpanAgg> = BTreeMap::new();
    let mut instants: BTreeMap<&'static str, u64> = BTreeMap::new();
    // Per-process stacks of open Begin spans.
    let mut open: BTreeMap<u64, Vec<(&'static str, &'static str, u64)>> = BTreeMap::new();
    for r in tracer.records() {
        match r.ev {
            TraceEvent::Begin { cat, name, .. } => {
                open.entry(r.proc_id).or_default().push((cat, name, r.at));
            }
            TraceEvent::End { cat, name } => {
                // Pop the innermost matching span; unmatched Ends (span
                // opened before the ring's oldest record) are dropped.
                if let Some(stack) = open.get_mut(&r.proc_id) {
                    if let Some(pos) = stack.iter().rposition(|&(c, s, _)| c == cat && s == name) {
                        let (_, _, start) = stack.remove(pos);
                        let agg = spans.entry((cat, name)).or_default();
                        agg.count += 1;
                        agg.total += r.at.saturating_sub(start);
                    }
                }
            }
            TraceEvent::Complete { cat, name, start } => {
                let agg = spans.entry((cat, name)).or_default();
                agg.count += 1;
                agg.total += r.at.saturating_sub(start);
            }
            ev => {
                let (name, _) = instant_parts(ev);
                *instants.entry(name).or_insert(0) += 1;
            }
        }
    }
    let mut ranked: Vec<((&str, &str), SpanAgg)> = spans.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total.cmp(&a.1.total).then(a.0.cmp(&b.0)));
    let mut out = String::new();
    let _ = writeln!(out, "== trace summary: top {n} spans by total cycles ==");
    let _ = writeln!(
        out,
        "{:<34} {:>9} {:>14} {:>12}",
        "span", "count", "total-cycles", "mean"
    );
    for ((cat, name), agg) in ranked.into_iter().take(n) {
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>14} {:>12.1}",
            format!("{cat}:{name}"),
            agg.count,
            agg.total,
            agg.total as f64 / agg.count.max(1) as f64
        );
    }
    let _ = writeln!(out, "== trace summary: instant events ==");
    for (name, count) in instants {
        let _ = writeln!(out, "{name:<34} {count:>9}");
    }
    if tracer.dropped() > 0 {
        let _ = writeln!(
            out,
            "(ring full: {} oldest records dropped)",
            tracer.dropped()
        );
    }
    out
}

/// One frame of a folded stack: the bare domain key when the label repeats
/// it (`user`, `boot`), `domain:label` otherwise (`syscall:open`).
fn folded_frame(domain: Domain, label: &'static str) -> String {
    if label == domain.key() {
        label.to_string()
    } else {
        format!("{}:{}", domain.key(), label)
    }
}

/// Renders the profiler's attribution trie in folded-stack format — one
/// `frame;frame;leaf count` line per node with self-time, directly loadable
/// by inferno (`inferno-flamegraph`), Brendan Gregg's `flamegraph.pl`, and
/// speedscope without preprocessing. Counts are simulated cycles. Lines are
/// sorted, so identical runs export byte-identical files.
pub fn folded_stacks(p: &CycleProfiler) -> String {
    let mut lines = Vec::new();
    for (idx, n) in p.nodes().iter().enumerate() {
        if n.self_cycles == 0 {
            continue;
        }
        let path: Vec<String> = p
            .path_of(idx as u32)
            .into_iter()
            .map(|(d, l)| folded_frame(d, l))
            .collect();
        lines.push(format!("{} {}", path.join(";"), n.self_cycles));
    }
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Renders a perf-report-style text view of the attribution trie: the
/// per-domain breakdown, the top `n` frames by self cycles, and the
/// per-process split. Deterministic: ties break on frame path order.
pub fn profile_report(p: &CycleProfiler, n: usize) -> String {
    let total = p.total_attributed();
    let pct = |c: u64| {
        if total == 0 {
            0.0
        } else {
            100.0 * c as f64 / total as f64
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "== cycle attribution: per domain ==");
    let _ = writeln!(out, "{:<10} {:>16} {:>8}", "domain", "cycles", "%");
    let domains = p.domain_totals();
    let mut ranked: Vec<(Domain, u64)> = domains.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (d, c) in &ranked {
        let _ = writeln!(out, "{:<10} {:>16} {:>7.1}%", d.key(), c, pct(*c));
    }
    let _ = writeln!(out, "{:<10} {:>16} {:>7.1}%", "total", total, pct(total));
    if p.start_cycles() > 0 {
        let _ = writeln!(
            out,
            "(+ {} cycles spent before the profiler was enabled)",
            p.start_cycles()
        );
    }

    let _ = writeln!(out, "== cycle attribution: top {n} frames ==");
    let _ = writeln!(out, "{:<44} {:>16} {:>8}", "frame", "self-cycles", "%");
    let mut frames: Vec<(String, u64)> = p
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, node)| node.self_cycles > 0)
        .map(|(idx, node)| {
            let path: Vec<String> = p
                .path_of(idx as u32)
                .into_iter()
                .map(|(d, l)| folded_frame(d, l))
                .collect();
            (path.join(";"), node.self_cycles)
        })
        .collect();
    frames.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (path, c) in frames.into_iter().take(n) {
        let _ = writeln!(out, "{:<44} {:>16} {:>7.1}%", path, c, pct(c));
    }

    let _ = writeln!(out, "== cycle attribution: per process ==");
    let _ = writeln!(out, "{:<6} {:>16} {:>8}  top domain", "pid", "cycles", "%");
    for (pid, c) in p.proc_totals() {
        let top = p
            .proc_domain_totals()
            .iter()
            .filter(|((q, _), _)| *q == pid)
            .max_by(|a, b| a.1.cmp(b.1).then(b.0 .1.cmp(&a.0 .1)))
            .map(|((_, d), _)| d.key())
            .unwrap_or("-");
        let _ = writeln!(out, "{:<6} {:>16} {:>7.1}%  {}", pid, c, pct(c), top);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tracer() -> Tracer {
        let mut t = Tracer::new();
        t.enable(64);
        t.cur_proc = 1;
        t.emit(
            100,
            TraceEvent::Begin {
                cat: "trap",
                name: "syscall",
                arg: 5,
            },
        );
        t.emit(120, TraceEvent::SyscallDispatch { num: 5 });
        t.emit(
            400,
            TraceEvent::Complete {
                cat: "kpath",
                name: "open",
                start: 150,
            },
        );
        t.emit(
            500,
            TraceEvent::End {
                cat: "trap",
                name: "syscall",
            },
        );
        t
    }

    #[test]
    fn chrome_json_is_wellformed_and_stable() {
        let t = sample_tracer();
        let j1 = chrome_trace_json(&t);
        let j2 = chrome_trace_json(&t);
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"traceEvents\":["));
        assert!(j1.contains("\"ph\":\"B\""));
        assert!(j1.contains("\"ph\":\"E\""));
        assert!(j1.contains("\"ph\":\"X\""));
        assert!(j1.contains("\"ph\":\"i\""));
        assert!(j1.contains("\"dur\":250"));
        // Balanced braces/brackets — a cheap well-formedness proxy.
        assert_eq!(
            j1.matches('{').count(),
            j1.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(j1.matches('[').count(), j1.matches(']').count());
    }

    #[test]
    fn empty_trace_exports_empty_array() {
        let t = Tracer::new();
        let j = chrome_trace_json(&t);
        assert!(j.contains("\"traceEvents\":[\n\n]"));
    }

    #[test]
    fn summary_aggregates_spans_and_instants() {
        let t = sample_tracer();
        let s = summary_top_n(&t, 10);
        assert!(s.contains("trap:syscall"), "{s}");
        assert!(s.contains("kpath:open"), "{s}");
        assert!(s.contains("syscall_dispatch"), "{s}");
        // trap:syscall span = 400 cycles total.
        assert!(s.contains("400"), "{s}");
    }

    #[test]
    fn unmatched_end_is_ignored() {
        let mut t = Tracer::new();
        t.enable(8);
        t.emit(
            50,
            TraceEvent::End {
                cat: "trap",
                name: "syscall",
            },
        );
        let s = summary_top_n(&t, 5);
        assert!(!s.contains("trap:syscall"));
    }

    fn sample_profiler() -> CycleProfiler {
        let mut p = CycleProfiler::new();
        p.enable(0);
        p.on_charge(0, 0, 11); // root/boot
        p.push(Domain::Syscall, "open");
        p.on_charge(1, 0, 100);
        p.push_leaf("kpath.open");
        p.on_charge(1, 0, 7);
        p.pop();
        p.pop();
        p.push(Domain::User, "user");
        p.on_charge(1, 0, 40);
        p.pop();
        p
    }

    #[test]
    fn folded_stacks_format_is_loadable_and_sorted() {
        let p = sample_profiler();
        let f = folded_stacks(&p);
        // Every line is `frame(;frame)* <count>` — what inferno/speedscope
        // parse with no preprocessing.
        for line in f.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("space-separated count");
            assert!(!stack.is_empty());
            assert!(count.parse::<u64>().is_ok(), "numeric count in {line:?}");
            assert!(!stack.contains(' '), "no spaces inside frames: {line:?}");
        }
        assert!(f.contains("boot 11\n"));
        assert!(f.contains("boot;syscall:open 100\n"));
        assert!(f.contains("boot;syscall:open;syscall:kpath.open 7\n"));
        assert!(f.contains("boot;user 40\n"));
        let mut lines: Vec<&str> = f.lines().collect();
        let sorted = lines.clone();
        lines.sort();
        assert_eq!(lines, sorted, "lines are pre-sorted for determinism");
    }

    #[test]
    fn profile_report_ranks_domains_and_frames() {
        let p = sample_profiler();
        let r = profile_report(&p, 10);
        assert!(r.contains("== cycle attribution: per domain =="), "{r}");
        assert!(r.contains("syscall"), "{r}");
        let total: u64 = 11 + 100 + 7 + 40;
        assert!(r.contains(&total.to_string()), "{r}");
        assert!(r.contains("== cycle attribution: per process =="), "{r}");
        assert_eq!(profile_report(&p, 10), r, "deterministic");
    }

    #[test]
    fn empty_profiler_exports_empty_stacks() {
        let p = CycleProfiler::new();
        assert_eq!(folded_stacks(&p), "");
        let r = profile_report(&p, 5);
        assert!(r.contains("total"));
    }
}
