//! The benchmark's own span recorder. Spans wrap each call into a layer,
//! stay in memory, and are written as JSON lines when the run ends.

use serde_json::Value;
use std::time::Instant;

/// One span, in nanoseconds since the tracer started.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records nested spans when enabled; times calls either way.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name: name.to_string(), parent, start_ns: now, end_ns: now });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span called `name`; returns its result and its
    /// host seconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin(name);
        let out = crate::timed(f);
        self.end();
        out
    }

    /// The spans as JSON lines, each with its self time: its duration
    /// minus the time its direct children cover.
    pub fn to_jsonl(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let line = Value::Object(vec![
                ("id".into(), Value::UInt(i as u64)),
                ("parent".into(), s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                ("name".into(), Value::Str(s.name.clone())),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("dur_ns".into(), Value::UInt(dur)),
                ("self_ns".into(), Value::UInt(dur.saturating_sub(child_ns[i]))),
            ]);
            out += &serde_json::to_string(&line).expect("spans serialize");
            out.push('\n');
        }
        out
    }
}
