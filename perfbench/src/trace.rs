//! Benchmark-side span recorder.
//!
//! Spans are taken around the public calls the benchmark makes into
//! each layer; nothing inside the program is instrumented. A span's
//! layer is its name up to the first `.` (`atpg.podem` belongs to
//! `atpg`). Spans live in memory and are written out once, at the end
//! of the run.

use std::collections::BTreeMap;
use std::time::Instant;

use htforge::obs::Json;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Operation (or server job) the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory recorder with an explicit stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    enabled: bool,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            enabled: true,
        }
    }

    /// A recorder whose spans only run their closures, for untraced
    /// measurement.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now())
        }
    }

    /// Nanoseconds of `t` since the recorder's epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts a new operation: later spans carry its id.
    pub fn begin_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`, nested in the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span timed elsewhere (the server client) under
    /// `parent`; returns its index for use as a later parent.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: &str,
        start: Instant,
        end: Instant,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Total seconds of spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Self time per layer: each span's duration minus the part its
    /// children cover, summed by layer. Sibling spans never overlap:
    /// work a call spreads over threads stays inside that call's span.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut layers = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *layers.entry(layer_of(&s.name).to_owned()).or_insert(0.0) += own as f64 / 1e9;
        }
        layers
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("id", num(i as u64)),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", num(s.start_ns)),
                    ("end_ns", num(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, |p| num(p as u64))),
                    ("request", num(s.request)),
                ])
            })
            .collect();
        Json::obj(vec![("spans", Json::Arr(spans))])
    }
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
