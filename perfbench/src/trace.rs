//! The benchmark's own span recorder.
//!
//! Spans are recorded around each call the benchmark makes into a
//! layer's public API — the program itself is timed from outside. A
//! span has a name, a start and an end, its parent span, and the id of
//! the solve or request it belongs to. Spans stay in memory while the
//! workload runs and are written out once, at exit.
//!
//! A disabled tracer records nothing and only runs the closure, so the
//! untraced and traced passes share one code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.sim_run`.
    pub name: &'static str,
    /// The solve or request this span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it is handed become children of this one.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Records a span whose bounds were measured elsewhere (e.g. a
    /// duration a layer reports about itself), as a child of the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: f64, end: f64) {
        if self.enabled {
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                id,
                parent,
                start,
                end,
            });
        }
    }

    /// Seconds since the tracer's origin (for [`Tracer::record`]).
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total self time per span name, over all spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_total = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_total[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_total) {
            *out.entry(s.name).or_insert(0.0) += s.secs() - covered;
        }
        out
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"index\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_s\":{:?},\"end_s\":{:?}}}",
                s.name, s.id, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: std::time::Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", 0, |t| t.span("b", 0, |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let ms = std::time::Duration::from_millis(2);
        let mut t = Tracer::new(true);
        t.span("solve", 3, |t| {
            t.span("engine", 3, |_| spin(ms));
            spin(ms);
            t.span("engine", 3, |_| spin(ms));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 3 && s.end >= s.start));
        let selfs = t.self_times();
        let engine: f64 = t.durations("engine").iter().sum();
        assert_eq!(selfs["engine"], engine);
        // The parent's self time is exactly what its children leave.
        assert!((selfs["solve"] - (spans[0].secs() - engine)).abs() < 1e-12);
        assert!(selfs["solve"] >= 0.002 * 0.9);
    }

    #[test]
    fn recorded_spans_attach_to_the_open_span() {
        let mut t = Tracer::new(true);
        t.span("request", 1, |t| {
            let now = t.now();
            t.record("server", 1, now - 0.5, now);
        });
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].secs(), 0.5);
        assert!(t.to_jsonl().lines().count() == 2);
    }
}
