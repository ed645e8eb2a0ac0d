//! The ledger's own span recorder (traced runs only).
//!
//! Spans are recorded from outside the program: around every client
//! call and every probe, plus the server-side spans read back with
//! `TraceQuery`. Each has a name, a start, an end, the span that caused
//! it, and the request (session) it belongs to. They stay in memory
//! and are written to `target/ledger/trace-<workload>.json` at exit.

use std::time::Instant;

use crate::json::Json;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder, `None` for a root.
    pub parent: Option<usize>,
    /// The request this span belongs to (session or stream name; empty
    /// for probes).
    pub request: String,
}

impl Span {
    pub fn new(
        name: &str,
        request: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Self {
        Self {
            name: name.to_owned(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request: request.to_owned(),
        }
    }
}

/// In-memory span store; filled after the window (from the samples'
/// timestamps and the traces read back) and around every probe.
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanRecorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the recorder's epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends one request's span tree (parents are indexes into
    /// `tree`) and rebases its parent links onto the store.
    pub fn extend(&mut self, tree: Vec<Span>) {
        let offset = self.spans.len();
        self.spans.extend(tree.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Times `f` as a root span named `name` and returns its result
    /// with the elapsed milliseconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans
            .push(Span::new(name, "", None, self.ns(start), self.ns(end)));
        (out, (end - start).as_secs_f64() * 1e3)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once, and
/// a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            let lo = span.start_ns.max(spans[parent].start_ns);
            let hi = span.end_ns.min(spans[parent].end_ns);
            if hi > lo {
                children[parent].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The span store as a JSON array (what the trace file holds).
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request", Json::Str(s.request.clone())),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span::new(name, "r", parent, start, end)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("session", 0, 100, None),        // 0
            span("submit", 0, 10, Some(0)),       // 1
            span("optimize", 20, 80, Some(0)),    // 2
            span("sweep:k=6", 20, 60, Some(2)),   // 3: overlaps 4
            span("sweep:k=8", 40, 70, Some(2)),   // 4
            span("fsync_round", 75, 95, Some(2)), // 5: sticks out of 2
            span("results", 90, 100, Some(0)),    // 6
        ];
        let own = self_times(&spans);
        // session: 100 - (submit 10 + optimize 60 + results 10).
        assert_eq!(own[0], 20);
        assert_eq!(own[1], 10);
        // optimize: 60 - union([20,70]) - clipped fsync [75,80] = 5.
        assert_eq!(own[2], 5);
        assert_eq!(own[3], 40);
        assert_eq!(own[4], 30);
        assert_eq!(own[5], 20);
        assert_eq!(own[6], 10);
        // A well-nested tree's self times sum to its root.
        let nested = vec![
            span("root", 0, 50, None),
            span("a", 5, 25, Some(0)),
            span("b", 30, 45, Some(0)),
            span("a1", 10, 20, Some(1)),
        ];
        assert_eq!(self_times(&nested).iter().sum::<u64>(), 50);
    }

    #[test]
    fn recorder_rebases_parent_links_of_appended_trees() {
        let mut rec = SpanRecorder::new();
        let ((), ms) = rec.time("probe", || ());
        assert!(ms >= 0.0);
        rec.extend(vec![
            span("session", 0, 10, None),
            span("submit", 1, 3, Some(0)),
        ]);
        let spans = rec.spans();
        assert_eq!(spans[0].name, "probe");
        assert_eq!(spans[2].parent, Some(1));
        let rendered = to_json(spans).render();
        assert!(rendered.contains("\"parent\": null"));
        assert!(rendered.contains("\"parent\": 1"));
    }
}
