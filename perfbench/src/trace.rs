//! The benchmark's own span recorder, used by the traced run.
//!
//! Spans are recorded from the benchmark's code around its calls into each
//! layer's public functions; the engine's built-in `trace::global()` spans
//! stay off. Each load thread owns one [`Recorder`] (no locking on the hot
//! path); the recorders are merged, written out and summarised when the
//! run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Spans of one request share this id.
    pub request: u64,
    /// What the request was (a query id such as `Q3`, or a write kind).
    pub tag: &'static str,
    /// The recording thread (recorder index).
    pub thread: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    thread: usize,
    request: u64,
    tag: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose spans share `epoch`; a disabled recorder records
    /// nothing and costs one branch per span.
    pub fn new(epoch: Instant, thread: usize, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            enabled,
            thread,
            request: 0,
            tag: "",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new request: later spans carry this id and tag.
    pub fn request(&mut self, id: u64, tag: &'static str) {
        self.request = id;
        self.tag = tag;
    }

    /// Run `f` inside a span called `name`; `f` gets the recorder back so
    /// it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
            tag: self.tag,
            thread: self.thread,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans from every recorder, with per-span self time.
pub struct Trace {
    pub spans: Vec<Span>,
    /// Self time in ms, parallel to `spans`: the span's duration minus
    /// the time its child spans cover.
    pub self_ms: Vec<f64>,
}

impl Trace {
    pub fn new(recorders: Vec<Recorder>) -> Trace {
        let mut spans = Vec::new();
        let mut self_ms = Vec::new();
        for rec in recorders {
            let base = spans.len();
            let own = rec.into_spans();
            let mut child_ms = vec![0.0; own.len()];
            for s in &own {
                if let Some(p) = s.parent {
                    child_ms[p] += s.ms();
                }
            }
            for (s, c) in own.into_iter().zip(child_ms) {
                self_ms.push(s.ms() - c);
                spans.push(Span {
                    parent: s.parent.map(|p| p + base),
                    ..s
                });
            }
        }
        Trace { spans, self_ms }
    }

    /// Self times (ms) of the spans called `name` whose tag passes `tag`.
    pub fn self_times(&self, name: &str, tag: impl Fn(&str) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .zip(&self.self_ms)
            .filter(|(s, _)| s.name == name && tag(s.tag))
            .map(|(_, t)| *t)
            .collect()
    }

    /// Durations (ms) of the spans called `name` whose tag passes `tag`.
    pub fn durations(&self, name: &str, tag: impl Fn(&str) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag(s.tag))
            .map(Span::ms)
            .collect()
    }

    /// Total self time per span name, for the summary table.
    pub fn self_totals(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(&self.self_ms) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += t;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete events; parent and
    /// request ids in `args`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {i}, \"parent\": {parent}, \"request\": {}, \"tag\": \"{}\", \"self_ms\": {:.6}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request,
                s.tag,
                self.self_ms[i]
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
