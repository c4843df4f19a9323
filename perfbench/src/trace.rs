//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end on one monotonic clock, the span
//! that caused it, and — for serve traffic — the request it belongs to.
//! Spans stay in memory while the workload runs and are written out once
//! at the end. A layer's self time is its span's duration minus the part
//! of that interval its child spans cover (overlapping children count
//! once).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `fleet.sweep.characterize`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one; `None` for a top-level span.
    pub parent: Option<SpanId>,
    /// The serve request this span belongs to, if any.
    pub request: Option<u64>,
}

/// A span recorder that is free when disabled: every method is a no-op
/// and [`Tracer::open`] hands out no ids.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span measured by the caller.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let mut spans = spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled() {
            return None;
        }
        let now = self.now_ns();
        self.record(name, now, now, parent, request)
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&self, id: Option<SpanId>) {
        let (Some(spans), Some(id)) = (self.spans.as_ref(), id) else {
            return;
        };
        let now = self.now_ns();
        spans.lock().expect("span list poisoned")[id].end_ns = now;
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent children on it.
    pub fn in_span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let id = self.open(name, parent, None);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span list poisoned").clone())
            .unwrap_or_default()
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Each span's self time: its duration minus the union of its children's
/// intervals inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            duration - covered_ns(kids, span.start_ns, span.end_ns)
        })
        .collect()
}

/// Per-name totals of a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, in seconds.
    pub total_s: f64,
    /// Summed self times, in seconds.
    pub self_s: f64,
}

impl LayerTotals {
    /// Mean self time per span, in seconds (0 when none was recorded).
    pub fn self_per_call(&self) -> f64 {
        crate::stats::per_op(self.self_s, self.count)
    }

    /// Mean duration per span, in seconds (0 when none was recorded).
    pub fn total_per_call(&self) -> f64 {
        crate::stats::per_op(self.total_s, self.count)
    }
}

/// Count, total and self time per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let totals = out.entry(span.name).or_default();
        totals.count += 1;
        totals.total_s += span.end_ns.saturating_sub(span.start_ns) as f64 * 1e-9;
        totals.self_s += own as f64 * 1e-9;
    }
    out
}

/// Share of `[lo, hi]` covered by top-level spans.
pub fn coverage(spans: &[Span], lo: u64, hi: u64) -> f64 {
    let top = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    covered_ns(top, lo, hi) as f64 / hi.saturating_sub(lo).max(1) as f64
}

/// Spans written per trace file at most; the per-name totals always
/// cover every span.
const MAX_WRITTEN_SPANS: usize = 200_000;

/// The trace file: per-name totals plus the span list, each span as
/// `[name, start_ns, end_ns, parent or -1, request or -1]`.
pub fn to_json(spans: &[Span], window: (u64, u64), header: Value) -> String {
    let num = |x: f64| Value::F64(x);
    let layers = by_name(spans)
        .into_iter()
        .map(|(name, t)| {
            let entry = Value::Object(vec![
                ("count".into(), Value::U64(t.count)),
                ("total_s".into(), num(t.total_s)),
                ("self_s".into(), num(t.self_s)),
            ]);
            (name.to_owned(), entry)
        })
        .collect();
    let opt = |x: Option<u64>| x.map_or(Value::I64(-1), Value::U64);
    let list = spans
        .iter()
        .take(MAX_WRITTEN_SPANS)
        .map(|s| {
            Value::Array(vec![
                Value::Str(s.name.to_owned()),
                Value::U64(s.start_ns),
                Value::U64(s.end_ns),
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("header".into(), header),
        (
            "window_ns".into(),
            Value::Array(vec![Value::U64(window.0), Value::U64(window.1)]),
        ),
        ("spans_recorded".into(), Value::U64(spans.len() as u64)),
        ("layers".into(), Value::Object(layers)),
        ("spans".into(), Value::Array(list)),
    ]);
    serde_json::to_string(&doc).expect("trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // Parent 0..100; children 10..30 and 20..50 overlap (union 10..50)
        // plus 90..120, which sticks out past the parent's end.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
            span("leaf", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("root", 0, 1_000_000_000, None),
            span("x", 0, 250_000_000, Some(0)),
            span("x", 500_000_000, 750_000_000, Some(0)),
        ];
        let totals = by_name(&spans);
        assert_eq!(totals["x"].count, 2);
        assert!((totals["x"].self_s - 0.5).abs() < 1e-12);
        assert!((totals["root"].self_s - 0.5).abs() < 1e-12);
        assert!((totals["x"].self_per_call() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn coverage_counts_top_level_spans_in_the_window() {
        let spans = vec![
            span("a", 0, 40, None),
            span("b", 30, 60, None),
            span("child", 70, 90, Some(0)),
        ];
        assert!((coverage(&spans, 0, 100) - 0.6).abs() < 1e-12);
        assert!((coverage(&spans, 50, 100) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let id = tracer.open("x", None, None);
        tracer.close(id);
        assert_eq!(id, None);
        assert!(tracer.spans().is_empty());
        let on = Tracer::new(true);
        let outer = on.open("outer", None, None);
        on.in_span("inner", outer, |_| ());
        on.close(outer);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
