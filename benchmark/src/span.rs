//! In-memory span tracer for the benchmark's own call sites.
//!
//! A span is `{name, start_ns, end_ns, parent, batch}`. Spans are
//! recorded around the calls *into* each product layer, kept in memory,
//! and written as a Chrome `trace_event` file when the run ends. Spans
//! inside the product are a later change (ROADMAP item 1).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `hdc.encode`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Micro-batch (or call) ordinal shared by the spans of one batch.
    pub batch: u64,
}

impl Span {
    /// Wall time between start and end.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder; a disabled tracer reduces every call to one branch,
/// so the same driver loop serves the untraced end-to-end run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since this tracer was created.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, batch: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            batch,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span (and any span left open inside it).
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
            self.spans[top].end_ns = end_ns;
        }
    }

    /// The recorded spans in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in start order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Render as a Chrome `trace_event` JSON document (complete `X`
    /// events, microsecond timestamps, batch and parent in `args`).
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"batch\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                i,
                parent,
                s.batch
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            batch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // tick 0..100
        //   encode 10..60
        //     project 20..50
        //   assign 60..90
        // tick 100..130 (no children)
        let spans = vec![
            span("tick", 0, 100, None),
            span("encode", 10, 60, Some(0)),
            span("project", 20, 50, Some(1)),
            span("assign", 60, 90, Some(0)),
            span("tick", 100, 130, None),
        ];
        let own = self_times(&spans);
        assert_eq!(own["tick"], (100 - 50 - 30) + 30);
        assert_eq!(own["encode"], 50 - 30);
        assert_eq!(own["project"], 30);
        assert_eq!(own["assign"], 30);
        assert_eq!(own.values().sum::<u64>(), 130);
    }

    #[test]
    fn tracer_nests_by_call_order_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        t.end(inner);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(t.chrome_trace().contains("\"name\":\"inner\""));

        let mut off = Tracer::new(false);
        let o = off.begin("x", 0);
        off.end(o);
        assert!(off.spans().is_empty());
    }
}
