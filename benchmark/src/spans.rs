//! In-memory spans for the traced walk.
//!
//! The walk is single-threaded and every span is opened and closed by the harness
//! itself, around one call into one public function of the system under test. A span
//! records a name, a start, an end, the span that caused it and the operation it
//! belongs to; nothing is written until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `proto.wire.encode_req`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one operation.
    pub op: u32,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records properly nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `op`; spans opened by `f`
    /// through the tracer it receives become children of this one.
    pub fn scope<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.now_ns();
        let result = f(self);
        self.spans[id as usize].end_ns = self.now_ns();
        self.open.pop();
        result
    }

    /// Times one call into the system under test as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        self.scope(name, op, |_| f())
    }

    /// The finished spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &mut own[parent as usize];
            *p = p.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Renders `spans` as the `trace-<workload>.json` document (see README.md, "Reading a
/// trace"): one object per span, `self_ns` already computed.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 96 + 128);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
    );
    for (id, (span, self_ns)) in spans.iter().zip(&own).enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
             \"start\": {}, \"end\": {}, \"self_ns\": {self_ns}}}",
            span.name, span.op, span.start_ns, span.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] ─ msg [10,70] ─ encode [10,30], handle [40,65]
        //            └ fingerprint [80,95]
        let spans = vec![
            span("op", 0, 100, None),
            span("msg", 10, 70, Some(0)),
            span("encode", 10, 30, Some(1)),
            span("handle", 40, 65, Some(1)),
            span("fingerprint", 80, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![25, 15, 20, 25, 15]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_scopes_and_orders_timestamps() {
        let mut t = Tracer::default();
        let out = t.scope("op", 7, |t| {
            t.leaf("a", 7, || std::hint::black_box(1 + 1));
            t.scope("b", 7, |t| t.leaf("c", 7, || 5))
        });
        assert_eq!(out, 5);
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["op", "a", "b", "c"]
        );
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0), Some(2)]
        );
        assert!(s.iter().all(|s| s.op == 7 && s.start_ns <= s.end_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
    }

    #[test]
    fn json_lists_every_span_with_its_self_time() {
        let spans = vec![span("op", 0, 10, None), span("leaf", 2, 6, Some(0))];
        let json = to_json("w", 3, &spans);
        assert!(json.starts_with("{\"workload\": \"w\", \"seed\": 3"));
        assert!(json.contains("\"name\": \"leaf\", \"op\": 1, \"parent\": 0, \"start\": 2, \"end\": 6, \"self_ns\": 4"));
        assert!(json.contains("\"name\": \"op\", \"op\": 1, \"parent\": null, \"start\": 0, \"end\": 10, \"self_ns\": 6"));
    }
}
