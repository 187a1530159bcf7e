//! The benchmark's own spans: a workload, a unit, a boot, an app call, a
//! check or a probe, each with its start, end and parent. They are kept in
//! memory and written as Chrome-trace JSON when the run ends. Recording is
//! off in untraced runs, so end-to-end numbers carry no tracing cost.

use crate::json::quote;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

pub struct Spans {
    on: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle returned by [`Spans::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: Instant::now(),
            end: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` and any span still open inside it (a unit that panicked
    /// leaves its inner spans open).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = Instant::now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end.get_or_insert(now);
            if top == id {
                break;
            }
        }
    }

    /// Adds a span timed elsewhere (inside a simulated process, which
    /// cannot borrow the recorder) under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                start,
                end: Some(end),
                parent: self.open.last().copied(),
            });
        }
    }

    /// Chrome-trace JSON ("X" complete events, microseconds since the
    /// recorder was created); `args.parent` is the parent span's `args.id`.
    pub fn chrome_json(&self) -> String {
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let end = s.end.unwrap_or(s.start);
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":{},\"cat\":\"vg-perf\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                    quote(s.name),
                    us(s.start),
                    us(end) - us(s.start),
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}
