//! Deterministic telemetry for the Power Containers reproduction.
//!
//! The facility is itself a measurement system, so the meter must be
//! observable: this crate provides the structured tracing layer every
//! simulation crate in the workspace reports into. Three pieces:
//!
//! * [`Telemetry`] — a cheap, cloneable recorder handle. A *disabled*
//!   handle (the default everywhere) reduces every call to one branch on
//!   an `Option`, so instrumented hot paths pay essentially nothing when
//!   tracing is off. An *enabled* handle appends [`Event`]s to a shared
//!   in-memory sink and updates the metrics registry.
//! * [`MetricsRegistry`] — named counters, gauges, and fixed-bucket
//!   histograms, snapshotted in sorted order at export time.
//! * Exporters — JSONL (one event per line, schema-stable) and Chrome
//!   trace-event JSON loadable in Perfetto / `chrome://tracing`, plus the
//!   [`summary`] module backing the `pc-trace` binary.
//!
//! # Determinism
//!
//! Every record is stamped with the **simulated** clock ([`SimTime`]);
//! no wall-clock value, thread id, pointer, or iteration-order-dependent
//! datum ever enters a record. Floats are rendered with Rust's shortest
//! round-trip formatting. A simulation therefore exports byte-identical
//! traces on every run and at every `--jobs` worker count, matching the
//! harness-wide determinism guarantee.
//!
//! # Example
//!
//! ```
//! use simkern::SimTime;
//! use telemetry::{FieldValue, Telemetry};
//!
//! let tele = Telemetry::recording();
//! tele.register_histogram("attr.watts", &[5.0, 10.0, 20.0, 40.0]);
//! tele.instant(
//!     SimTime::from_millis(1),
//!     "align",
//!     "scan",
//!     &[("score", FieldValue::F64(0.93))],
//! );
//! tele.observe("attr.watts", 12.5);
//! assert_eq!(tele.event_count(), 1);
//! assert!(tele.to_jsonl().contains("\"cat\":\"align\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;
pub mod obs;
pub mod summary;

pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};

use simkern::SimTime;
use std::sync::{Arc, Mutex};

/// A typed value attached to an event field.
///
/// Only deterministic scalar payloads are representable: there is no
/// wall-clock, pointer, or collection variant by design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer (`-1` is the conventional "background/none" id).
    I64(i64),
    /// Floating-point value; non-finite values export as JSON `null`.
    F64(f64),
    /// Static string (variant names, reasons).
    Str(&'static str),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// The trace-event phase, mirroring the Chrome trace-event format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A point event (`ph: "i"`).
    Instant,
    /// A span opening (`ph: "B"`).
    Begin,
    /// A span closing (`ph: "E"`).
    End,
    /// A counter sample (`ph: "C"`).
    Counter,
}

impl Phase {
    /// The single-letter JSONL code for this phase.
    pub fn code(self) -> &'static str {
        match self {
            Phase::Instant => "I",
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Counter => "C",
        }
    }
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated timestamp, nanoseconds since the simulation origin.
    pub t_ns: u64,
    /// Subsystem category (`"kernel"`, `"attr"`, `"align"`, ...).
    pub cat: &'static str,
    /// Event name within the category.
    pub name: &'static str,
    /// Record phase.
    pub ph: Phase,
    /// Track id: the Perfetto lane this record renders on (0 facility,
    /// 1 kernel, 2 conditioning, `10 + node` for cluster nodes).
    pub track: u32,
    /// Ordered typed payload fields.
    pub fields: Vec<(&'static str, FieldValue)>,
}

#[derive(Debug, Default)]
struct Sink {
    events: Vec<Event>,
    metrics: MetricsRegistry,
    /// Per-track stacks of open spans: `(track, name, cat, begin_t_ns)`.
    open_spans: Vec<(u32, &'static str, &'static str, u64)>,
    /// Deepest simultaneous nesting seen on any track (test observability).
    max_depth: usize,
    /// `end_span` calls with no matching open span (always a bug; counted
    /// rather than panicking so the facility never dies on telemetry).
    unmatched_ends: u64,
    /// Unmatched ends broken down by offending track, so span-hygiene
    /// failures can name the lane that produced them.
    unmatched_by_track: std::collections::BTreeMap<u32, u64>,
}

/// A recorder handle.
///
/// Cloning is cheap and every clone reports into the same sink, so one
/// handle can be threaded through kernel, facility, and dispatcher
/// configuration while the experiment keeps a clone to export from. The
/// default handle is disabled.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<Mutex<Sink>>>,
}

impl Telemetry {
    /// A disabled recorder: every call is a single branch, nothing is
    /// retained. This is `Default` so configs opt in explicitly.
    pub fn disabled() -> Telemetry {
        Telemetry { sink: None }
    }

    /// A recording handle with an empty sink.
    pub fn recording() -> Telemetry {
        Telemetry { sink: Some(Arc::new(Mutex::new(Sink::default()))) }
    }

    /// `true` when this handle records. Instrumentation sites computing
    /// non-trivial field values should branch on this first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    #[inline]
    fn with_sink<R>(&self, f: impl FnOnce(&mut Sink) -> R) -> Option<R> {
        let sink = self.sink.as_ref()?;
        let mut guard = sink.lock().unwrap_or_else(|e| e.into_inner());
        Some(f(&mut guard))
    }

    /// Records a point event.
    pub fn instant(
        &self,
        t: SimTime,
        cat: &'static str,
        name: &'static str,
        fields: &[(&'static str, FieldValue)],
    ) {
        self.with_sink(|s| {
            s.events.push(Event {
                t_ns: t.as_nanos(),
                cat,
                name,
                ph: Phase::Instant,
                track: 0,
                fields: fields.to_vec(),
            });
        });
    }

    /// Records a point event on an explicit track.
    pub fn instant_on(
        &self,
        t: SimTime,
        cat: &'static str,
        name: &'static str,
        track: u32,
        fields: &[(&'static str, FieldValue)],
    ) {
        self.with_sink(|s| {
            s.events.push(Event {
                t_ns: t.as_nanos(),
                cat,
                name,
                ph: Phase::Instant,
                track,
                fields: fields.to_vec(),
            });
        });
    }

    /// Opens a span on `track` at simulated time `t`. Spans on the same
    /// track nest strictly: the matching [`Telemetry::end_span`] closes
    /// the innermost open span.
    pub fn begin_span(
        &self,
        t: SimTime,
        cat: &'static str,
        name: &'static str,
        track: u32,
        fields: &[(&'static str, FieldValue)],
    ) {
        self.with_sink(|s| {
            s.events.push(Event {
                t_ns: t.as_nanos(),
                cat,
                name,
                ph: Phase::Begin,
                track,
                fields: fields.to_vec(),
            });
            s.open_spans.push((track, name, cat, t.as_nanos()));
            let depth = s.open_spans.iter().filter(|(tr, ..)| *tr == track).count();
            s.max_depth = s.max_depth.max(depth);
        });
    }

    /// Closes the innermost open span on `track`. An end with no open
    /// span is counted (see [`Telemetry::unmatched_ends`]) and otherwise
    /// ignored; an end timestamp before the begin is clamped to the begin
    /// so exported spans never run backwards on the sim clock.
    pub fn end_span(&self, t: SimTime, track: u32) {
        self.with_sink(|s| {
            let open = s
                .open_spans
                .iter()
                .rposition(|(tr, ..)| *tr == track);
            let Some(i) = open else {
                s.unmatched_ends += 1;
                *s.unmatched_by_track.entry(track).or_insert(0) += 1;
                return;
            };
            let (_, name, cat, begin_ns) = s.open_spans.remove(i);
            s.events.push(Event {
                t_ns: t.as_nanos().max(begin_ns),
                cat,
                name,
                ph: Phase::End,
                track,
                fields: Vec::new(),
            });
        });
    }

    /// Records a counter sample: a Chrome `"C"` event on `track` plus a
    /// gauge update under the same name.
    pub fn counter_sample(&self, t: SimTime, name: &'static str, track: u32, value: f64) {
        self.with_sink(|s| {
            s.events.push(Event {
                t_ns: t.as_nanos(),
                cat: "metric",
                name,
                ph: Phase::Counter,
                track,
                fields: vec![("value", FieldValue::F64(value))],
            });
            s.metrics.set_gauge(name, value);
        });
    }

    /// Adds `delta` to the named registry counter.
    pub fn add_count(&self, name: &'static str, delta: u64) {
        self.with_sink(|s| s.metrics.add_count(name, delta));
    }

    /// Sets the named registry gauge.
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        self.with_sink(|s| s.metrics.set_gauge(name, value));
    }

    /// Registers a fixed-bucket histogram with the given upper bounds
    /// (an overflow bucket is added implicitly). Re-registering an
    /// existing name is a no-op, so every subsystem can idempotently
    /// declare the histograms it feeds.
    pub fn register_histogram(&self, name: &'static str, bounds: &[f64]) {
        self.with_sink(|s| s.metrics.register_histogram(name, bounds));
    }

    /// Records `value` into the named histogram (no-op when the name was
    /// never registered).
    pub fn observe(&self, name: &'static str, value: f64) {
        self.with_sink(|s| s.metrics.observe(name, value));
    }

    /// Number of events recorded so far (0 for a disabled handle).
    pub fn event_count(&self) -> usize {
        self.with_sink(|s| s.events.len()).unwrap_or(0)
    }

    /// Number of spans currently open across all tracks.
    pub fn open_spans(&self) -> usize {
        self.with_sink(|s| s.open_spans.len()).unwrap_or(0)
    }

    /// Deepest simultaneous span nesting observed on any single track.
    pub fn max_span_depth(&self) -> usize {
        self.with_sink(|s| s.max_depth).unwrap_or(0)
    }

    /// `end_span` calls that found no matching open span.
    pub fn unmatched_ends(&self) -> u64 {
        self.with_sink(|s| s.unmatched_ends).unwrap_or(0)
    }

    /// Unmatched span ends broken down by track, sorted by track id —
    /// names the offending lane when span hygiene fails.
    pub fn unmatched_ends_by_track(&self) -> Vec<(u32, u64)> {
        self.with_sink(|s| s.unmatched_by_track.iter().map(|(&t, &n)| (t, n)).collect())
            .unwrap_or_default()
    }

    /// Clears all recorded events and metrics (benchmark reuse).
    pub fn reset(&self) {
        self.with_sink(|s| *s = Sink::default());
    }

    /// Takes all events recorded so far out of the sink, leaving
    /// metrics and span bookkeeping in place. Paired with
    /// [`Telemetry::append_events`], this is the barrier-merge
    /// primitive: the cluster engine drains each node's private sink at
    /// every tick barrier and appends in node order, so the merged
    /// stream is grouped by node within each tick.
    pub fn drain_events(&self) -> Vec<Event> {
        self.with_sink(|s| std::mem::take(&mut s.events)).unwrap_or_default()
    }

    /// Appends pre-recorded events to this sink in the given order.
    pub fn append_events(&self, mut events: Vec<Event>) {
        if events.is_empty() {
            return;
        }
        self.with_sink(move |s| s.events.append(&mut events));
    }

    /// Folds another recorder's remaining state into this one: leftover
    /// events (appended in order), the metrics registry (counters add,
    /// gauges overwrite, histograms merge bucket-wise), still-open
    /// spans, and the span-depth/unmatched-end bookkeeping. `other` is
    /// left empty. A disabled handle on either side is a no-op, as is
    /// absorbing a sink into itself.
    pub fn absorb(&self, other: &Telemetry) {
        let (Some(a), Some(b)) = (self.sink.as_ref(), other.sink.as_ref()) else {
            return;
        };
        if Arc::ptr_eq(a, b) {
            return;
        }
        // Lock order is caller-fixed (main sink, then donor); the two
        // Arcs are distinct, so this cannot deadlock against itself.
        let mut dst = a.lock().unwrap_or_else(|e| e.into_inner());
        let mut src = b.lock().unwrap_or_else(|e| e.into_inner());
        dst.events.append(&mut src.events);
        dst.metrics.absorb(&src.metrics);
        dst.open_spans.append(&mut src.open_spans);
        dst.max_depth = dst.max_depth.max(src.max_depth);
        dst.unmatched_ends += src.unmatched_ends;
        for (&track, &n) in &src.unmatched_by_track {
            *dst.unmatched_by_track.entry(track).or_insert(0) += n;
        }
        src.metrics = MetricsRegistry::default();
        src.max_depth = 0;
        src.unmatched_ends = 0;
        src.unmatched_by_track.clear();
    }

    /// A sorted snapshot of the metrics registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with_sink(|s| s.metrics.snapshot()).unwrap_or_default()
    }

    /// Renders the whole trace as JSONL: one event object per line in
    /// record order, followed by one line per metric in sorted order.
    pub fn to_jsonl(&self) -> String {
        self.with_sink(|s| export::to_jsonl(&s.events, &s.metrics.snapshot()))
            .unwrap_or_default()
    }

    /// Renders the trace in Chrome trace-event JSON, loadable in
    /// Perfetto or `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        self.with_sink(|s| export::to_chrome_trace(&s.events))
            .unwrap_or_default()
    }

    /// Writes the JSONL rendering to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Writes the Chrome trace rendering to `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkern::SimDuration;

    #[test]
    fn disabled_handle_records_nothing() {
        let tele = Telemetry::disabled();
        tele.instant(SimTime::ZERO, "a", "b", &[]);
        tele.add_count("x", 3);
        tele.observe("h", 1.0);
        assert!(!tele.enabled());
        assert_eq!(tele.event_count(), 0);
        assert!(tele.to_jsonl().is_empty());
    }

    #[test]
    fn clones_share_one_sink() {
        let tele = Telemetry::recording();
        let clone = tele.clone();
        clone.instant(SimTime::from_millis(1), "k", "e", &[("v", 7u64.into())]);
        assert_eq!(tele.event_count(), 1);
    }

    #[test]
    fn spans_nest_per_track_on_the_sim_clock() {
        let tele = Telemetry::recording();
        let t = |ms| SimTime::from_millis(ms);
        tele.begin_span(t(1), "c", "outer", 5, &[]);
        tele.begin_span(t(2), "c", "inner", 5, &[]);
        tele.begin_span(t(2), "c", "other-track", 9, &[]);
        assert_eq!(tele.open_spans(), 3);
        assert_eq!(tele.max_span_depth(), 2);
        tele.end_span(t(3), 5); // closes `inner`
        tele.end_span(t(4), 5); // closes `outer`
        tele.end_span(t(4), 9);
        assert_eq!(tele.open_spans(), 0);
        let jsonl = tele.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // B(outer) B(inner) B(other) E(inner) E(outer) E(other)
        assert!(lines[0].contains("\"name\":\"outer\"") && lines[0].contains("\"ph\":\"B\""));
        assert!(lines[3].contains("\"name\":\"inner\"") && lines[3].contains("\"ph\":\"E\""));
        assert!(lines[4].contains("\"name\":\"outer\"") && lines[4].contains("\"ph\":\"E\""));
    }

    #[test]
    fn unmatched_end_is_counted_not_fatal() {
        let tele = Telemetry::recording();
        tele.end_span(SimTime::from_millis(1), 0);
        assert_eq!(tele.unmatched_ends(), 1);
        assert_eq!(tele.event_count(), 0);
    }

    #[test]
    fn backwards_end_is_clamped_to_begin() {
        let tele = Telemetry::recording();
        let begin = SimTime::from_millis(10);
        tele.begin_span(begin, "c", "s", 0, &[]);
        tele.end_span(SimTime::from_millis(10) - SimDuration::from_millis(5), 0);
        let jsonl = tele.to_jsonl();
        let end_line = jsonl.lines().nth(1).expect("end event");
        assert!(end_line.contains("\"t_ns\":10000000"), "{end_line}");
    }

    #[test]
    fn jsonl_is_schema_stable_and_deterministic() {
        let build = || {
            let tele = Telemetry::recording();
            tele.instant(
                SimTime::from_micros(1500),
                "align",
                "scan",
                &[("delay_ms", FieldValue::F64(12.0)), ("score", FieldValue::F64(0.9))],
            );
            tele.add_count("facility.refits", 2);
            tele.register_histogram("attr.watts", &[1.0, 2.0]);
            tele.observe("attr.watts", 1.5);
            tele.to_jsonl()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains(
            "{\"t_ns\":1500000,\"cat\":\"align\",\"name\":\"scan\",\"ph\":\"I\",\"track\":0,\
             \"args\":{\"delay_ms\":12.0,\"score\":0.9}}"
        ));
        assert!(a.contains("{\"metric\":\"counter\",\"name\":\"facility.refits\",\"value\":2}"));
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let tele = Telemetry::recording();
        tele.begin_span(SimTime::from_millis(1), "cluster", "blackout", 11, &[]);
        tele.end_span(SimTime::from_millis(3), 11);
        tele.counter_sample(SimTime::from_millis(2), "core_power_w", 1, 12.5);
        let chrome = tele.to_chrome_trace();
        let v: serde_json::Value = serde_json::from_str(&chrome).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert!(events.len() >= 3);
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"ph\":\"C\""));
    }

    #[test]
    fn drain_and_append_preserve_order_across_sinks() {
        let node = Telemetry::recording();
        let main = Telemetry::recording();
        node.instant(SimTime::from_millis(1), "k", "a", &[]);
        node.instant(SimTime::from_millis(2), "k", "b", &[]);
        main.instant(SimTime::from_millis(3), "d", "c", &[]);
        main.append_events(node.drain_events());
        assert_eq!(node.event_count(), 0);
        assert_eq!(main.event_count(), 3);
        let jsonl = main.to_jsonl();
        let names: Vec<bool> = ["\"name\":\"c\"", "\"name\":\"a\"", "\"name\":\"b\""]
            .iter()
            .zip(jsonl.lines())
            .map(|(n, l)| l.contains(n))
            .collect();
        assert_eq!(names, vec![true, true, true], "{jsonl}");
    }

    #[test]
    fn absorb_merges_metrics_and_bookkeeping() {
        let main = Telemetry::recording();
        let node = Telemetry::recording();
        main.add_count("c", 1);
        node.add_count("c", 2);
        node.set_gauge("g", 5.0);
        main.register_histogram("h", &[1.0, 2.0]);
        node.register_histogram("h", &[1.0, 2.0]);
        main.observe("h", 0.5);
        node.observe("h", 1.5);
        node.end_span(SimTime::ZERO, 7); // unmatched
        node.instant(SimTime::from_millis(1), "k", "late", &[]);
        main.absorb(&node);
        let snap = main.snapshot();
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.gauge("g"), Some(5.0));
        let h = snap.histogram("h").expect("merged");
        assert_eq!(h.total, 2);
        assert_eq!(h.counts, vec![1, 1, 0]);
        assert_eq!(main.unmatched_ends(), 1);
        assert_eq!(main.event_count(), 1);
        assert_eq!(node.event_count(), 0);
        assert_eq!(node.snapshot().counter("c"), None);
        // Absorbing a handle into itself is a no-op.
        main.absorb(&main.clone());
        assert_eq!(main.snapshot().counter("c"), Some(3));
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        let tele = Telemetry::recording();
        tele.instant(SimTime::ZERO, "c", "n", &[("bad", FieldValue::F64(f64::NAN))]);
        assert!(tele.to_jsonl().contains("\"bad\":null"));
    }
}
