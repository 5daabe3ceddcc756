//! In-memory spans recorded by the benchmark around its calls into the
//! workspace's layers, and the self-time arithmetic over them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer the call went into (`storage`, `variant`, `serve`, ...).
    pub layer: &'static str,
    /// The call, e.g. `storage.read_edge_list`.
    pub name: &'static str,
    /// Start, seconds since the origin.
    pub start: f64,
    /// End, seconds since the origin.
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The serve query this span belongs to.
    pub query: Option<u64>,
}

impl Span {
    /// The span's duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A span recorder. A disabled tracer records nothing and hands out no
/// span ids, so untraced code pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span. `f` receives the new span's id so it can
    /// parent its own spans under it.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let start = self.origin.elapsed().as_secs_f64();
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                layer,
                name,
                start,
                end: start,
                parent,
                query: None,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("span list poisoned")[id].end = end;
        out
    }

    /// Records an interval measured elsewhere (e.g. a query's flight,
    /// timed by the thread that waited for it).
    pub fn record(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span list poisoned").push(span);
        }
    }

    /// Seconds since the origin of `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Length of the part of `[start, end]` covered by the union of
/// `intervals` (each clipped to it).
fn covered(start: f64, end: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover (overlapping children count
/// once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
        .collect()
}

/// Self time summed per layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += t;
    }
    out
}

/// The spans as one JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_s)) in spans.iter().zip(selfs).enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{},\"parent\":{},\"query\":{}}}",
            s.layer,
            s.name,
            s.start,
            s.end,
            self_s,
            opt(s.parent.map(|p| p as u64)),
            opt(s.query)
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: layer,
            start,
            end,
            parent,
            query: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("job", 0.0, 10.0, None),
            span("storage", 1.0, 3.0, Some(0)),
            // Two overlapping children cover [4, 7] together: 3 s.
            span("variant", 4.0, 6.0, Some(0)),
            span("variant", 5.0, 7.0, Some(0)),
            // A grandchild is subtracted from its parent only.
            span("storage", 4.5, 5.0, Some(2)),
        ];
        let selfs = self_times(&spans);
        let expect = [10.0 - 2.0 - 3.0, 2.0, 2.0 - 0.5, 2.0, 0.5];
        for (got, want) in selfs.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{selfs:?}");
        }
        let by_layer = self_time_by_layer(&spans);
        assert!((by_layer["job"] - 5.0).abs() < 1e-12);
        assert!((by_layer["storage"] - 2.5).abs() < 1e-12);
        assert!((by_layer["variant"] - 3.5).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("a", 1.0, 2.0, None), span("b", 0.5, 1.5, Some(0))];
        assert!((self_times(&spans)[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, Instant::now());
        let v = t.span("storage", "x", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());

        let t = Tracer::new(true, Instant::now());
        t.span("job", "job", None, |id| {
            t.span("storage", "load", id, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
