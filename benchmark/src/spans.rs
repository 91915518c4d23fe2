//! In-memory spans around calls into the library's layers.
//!
//! A span records its name, start, end (seconds since the tracer was
//! made), the span that was open when it began, and the workload. The
//! tracer is off in untraced passes: `enter` then returns a dummy id and
//! records nothing, so untraced passes pay only a branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when the tracer was off at `enter`.
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            epoch: Instant::now(),
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off; only between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracer toggled inside a span");
        self.on = on;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes the span and returns its duration in seconds (0 when off).
    pub fn exit(&mut self, id: SpanId) -> f64 {
        let Some(id) = id.0 else { return 0.0 };
        assert_eq!(self.open.pop(), Some(id), "spans must close in LIFO order");
        let span = &mut self.spans[id];
        span.end = self.epoch.elapsed().as_secs_f64();
        span.end - span.start
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every closed span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Count, total and self seconds per span name. A span's self time is
    /// its duration minus the time its direct children cover (children
    /// never overlap: every traced call is made from one thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += s.end - s.start - c;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \
                 \"parent\": {parent}, \"workload\": \"{}\"}}",
                s.name, s.start, s.end, self.workload
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}
