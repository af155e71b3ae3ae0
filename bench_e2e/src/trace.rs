//! In-memory spans around the benchmark's calls into each layer.
//!
//! Tracing lives in the benchmark's files only: a span is opened and
//! closed here, around a public function of the program under test,
//! never inside it. Spans are kept in a vector and written out as JSON
//! when the benchmark ends.

use std::time::Instant;

use crate::json::Json;

/// One timed call (or group of calls) into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The span this one ran inside, if any.
    pub parent: Option<usize>,
    /// The repo module the call went into.
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
    /// Units of work done inside (events, sessions, columns, …).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one traced pass.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::close`].
    pub fn open(
        &mut self,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
    ) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        id
    }

    /// Close a span, recording how much work it covered.
    pub fn close(&mut self, id: usize, count: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Time `f` as a span under `parent`.
    pub fn time<R>(
        &mut self,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(parent, layer, name);
        let out = f();
        self.close(id, 1);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id`, in ms.
    pub fn ms(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e6
    }

    /// Duration of the first span called `name` under `parent`, in ms.
    pub fn child_ms(&self, parent: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.parent == Some(parent) && s.name == name)
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e6)
    }

    /// Summed duration of `parent`'s direct children, in ns.
    pub fn children_ns(&self, parent: usize) -> u64 {
        self_and_children(&self.spans, parent).1
    }

    /// A span's self time: its duration minus the part of it that its
    /// direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let (own, children) = self_and_children(&self.spans, id);
        own.saturating_sub(children)
    }

    /// The trace as a JSON array, self time included.
    pub fn to_json(&self, workload: &str) -> Vec<Json> {
        self.spans
            .iter()
            .map(|s| {
                Json::object([
                    ("workload", Json::from(workload)),
                    ("id", Json::from(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as f64)),
                    ),
                    ("layer", Json::from(s.layer)),
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns as f64)),
                    ("end_ns", Json::from(s.end_ns as f64)),
                    ("self_ns", Json::from(self.self_ns(s.id) as f64)),
                    ("count", Json::from(s.count as f64)),
                ])
            })
            .collect()
    }
}

/// `(duration of span id, summed duration of its direct children)`;
/// children are clipped to the parent's interval.
fn self_and_children(spans: &[Span], id: usize) -> (u64, u64) {
    let parent = &spans[id];
    let children = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            s.end_ns
                .min(parent.end_ns)
                .saturating_sub(s.start_ns.max(parent.start_ns))
        })
        .sum();
    (parent.duration_ns(), children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
            count: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 70),
            // A grandchild shortens its parent's self time, not the root's.
            span(3, Some(1), 15, 25),
            // A child running past its parent is clipped to it.
            span(4, Some(2), 65, 90),
        ];
        assert_eq!(self_and_children(&spans, 0), (100, 50));
        assert_eq!(self_and_children(&spans, 1), (30, 10));
        assert_eq!(self_and_children(&spans, 2), (20, 5));
        assert_eq!(self_and_children(&spans, 3), (10, 0));
    }

    #[test]
    fn recorded_spans_nest_and_count() {
        let mut t = Trace::new();
        let root = t.open(None, "workload", "run");
        let v = t.time(Some(root), "netsim.sim", "install", || 7);
        assert_eq!(v, 7);
        let run = t.open(Some(root), "netsim.sim", "run");
        t.close(run, 42);
        t.close(root, 1);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[2].count, 42);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(t.self_ns(root) <= s[0].duration_ns());
        assert_eq!(
            t.self_ns(root) + t.children_ns(root),
            s[0].duration_ns(),
            "self + children = whole when children lie inside"
        );
        assert_eq!(t.to_json("w").len(), 3);
    }
}
