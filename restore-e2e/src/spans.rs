//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The traced run is single-client, so one recorder owned by the calling
//! thread is enough: spans are kept in memory and written out when the
//! run ends. Nothing here reaches into the program; a span measures a
//! public call from outside.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Identifier shared by every span of one operation.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it is closed by [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record `f` as a child span and hand back its result and duration
    /// in milliseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        (out, self.spans[id].duration_ns() as f64 / 1e6)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array of `{name, start, end, parent, op}`
    /// with times in nanoseconds since the recorder was created.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"op\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push(']');
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let parent = &spans[id];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    covered.sort_unstable();
    let mut child_ns = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in covered {
        let start = start.max(reach);
        if end > start {
            child_ns += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - child_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name: "t", start_ns, end_ns, parent, op: 1 }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![span(0, 100, None), span(10, 30, Some(0)), span(50, 90, Some(0))];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 40);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![span(0, 100, None), span(10, 60, Some(0)), span(40, 80, Some(0))];
        assert_eq!(self_time_ns(&spans, 0), 100 - 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        let spans = vec![
            span(20, 100, None),
            span(0, 40, Some(0)),
            span(90, 150, Some(0)),
            span(25, 35, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 80 - 20 - 10);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut rec = Recorder::new();
        let op = rec.begin("op", None, 7);
        let (value, ms) = rec.time("layer.call", Some(op), 7, || 41 + 1);
        rec.end(op);
        assert_eq!(value, 42);
        assert!(ms >= 0.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(op));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = rec.to_json();
        assert!(json.contains("\"name\": \"layer.call\""));
        assert!(json.contains("\"parent\": null") && json.contains("\"parent\": 0"));
    }
}
