//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the harness around its own calls into the
//! repository's public functions; nothing inside the program is
//! instrumented. Each span keeps its name (the layer), a label (which cell,
//! batch or request), start and end, its parent, and for HTTP traffic the
//! request id that all spans of one request share. Spans stay in memory
//! and are written out once, when the run ends.
//!
//! With tracing off every method is a no-op and [`Tracer::span`] just
//! calls its closure, so the untraced run pays one branch per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval (or, when `start == end`, one point event).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`game`, `summarize`, `http`, …).
    pub name: &'static str,
    /// What the span covered (`slpos_m10`, `cold c03`, …).
    pub label: String,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    /// Seconds since the tracer's epoch.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id shared by every span of one HTTP request.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans from one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, label: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let start = Instant::now();
        let index = self.push(name, label, start, start, parent, None);
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.at(Instant::now());
        out
    }

    /// Records a finished interval with explicit times under `parent`
    /// (the innermost open span when `None`). Returns its index.
    pub fn record(
        &self,
        name: &'static str,
        label: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let parent = parent.or_else(|| self.open.borrow().last().copied());
        Some(self.push(name, label, start, end, parent, request))
    }

    fn push(
        &self,
        name: &'static str,
        label: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            label: label.to_owned(),
            start: self.at(start),
            end: self.at(end),
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Every recorded span, in start order of recording.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Self time per layer: each span's duration minus the part its
    /// direct children cover, summed by span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.seconds();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += s.seconds() - child[i];
        }
        out
    }

    /// Seconds covered by top-level spans whose start lies in
    /// `[from, to]` (seconds since the epoch).
    pub fn covered(&self, from: Instant, to: Instant) -> f64 {
        let (from, to) = (self.at(from), self.at(to));
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.parent.is_none() && s.start >= from && s.start <= to)
            .map(Span::seconds)
            .sum()
    }

    /// The spans as JSON lines, for writing out at the end of the run.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"label\":{},\"start\":{:.9},\"end\":{:.9},\"parent\":{},\"request\":{}}}",
                s.name,
                crate::json::string(&s.label),
                s.start,
                s.end,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.request.map_or("null".to_owned(), |r| r.to_string()),
            );
        }
        out
    }
}
