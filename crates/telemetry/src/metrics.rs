//! Named counters, gauges, and fixed-bucket histograms.
//!
//! The registry is deliberately tiny: metric names are `&'static str`
//! (instrumentation sites name their metrics at compile time), storage is
//! `BTreeMap` so every snapshot and export walks names in one canonical
//! sorted order, and histograms use fixed upper-inclusive bucket bounds
//! declared at registration — no dynamic rebucketing, so two runs that
//! observe the same values export byte-identical lines.

use std::collections::BTreeMap;

/// A fixed-bucket histogram.
///
/// `bounds` are upper-**inclusive** bucket edges in ascending order;
/// `counts` has `bounds.len() + 1` entries, the last being the overflow
/// bucket for values strictly greater than the final bound. A value equal
/// to a bound lands in that bound's bucket.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    /// Ascending upper-inclusive bucket bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` long).
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub total: u64,
    /// Sum of all observed values (NaN observations are dropped).
    pub sum: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
        }
    }

    /// Index of the bucket `value` falls into (last index = overflow).
    pub fn bucket_index(&self, value: f64) -> usize {
        self.bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len())
    }

    fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        let i = self.bucket_index(value);
        self.counts[i] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// Folds `other`'s observations into this histogram. Both must use
    /// the same bounds (merging differently-bucketed histograms under
    /// one name is always a bug).
    fn absorb(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "histogram bounds mismatch in merge");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

/// Counters, gauges, and histograms keyed by static name.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn add_count(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets the named gauge to `value`.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Registers a histogram with the given upper-inclusive bounds. A
    /// name that is already registered keeps its original bounds and
    /// counts (registration is idempotent).
    pub fn register_histogram(&mut self, name: &'static str, bounds: &[f64]) {
        self.histograms.entry(name).or_insert_with(|| Histogram::new(bounds));
    }

    /// Records `value` into the named histogram; unknown names are
    /// silently dropped so call sites never need registration checks.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        }
    }

    /// Folds `other` into this registry: counters add, gauges overwrite
    /// (`other` wins where both set a name), histograms merge
    /// bucket-wise (registering `other`'s bounds where absent here).
    ///
    /// Used to fold per-node registries into the run's main registry
    /// in a caller-fixed order, so the merged snapshot is
    /// deterministic.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name, *v);
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(name)
                .or_insert_with(|| Histogram::new(&h.bounds))
                .absorb(h);
        }
    }

    /// A sorted point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (*k, *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (*k, *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
        }
    }
}

/// A sorted point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counter pairs in name order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` gauge pairs in name order.
    pub gauges: Vec<(&'static str, f64)>,
    /// `(name, histogram)` pairs in name order.
    pub histograms: Vec<(&'static str, Histogram)>,
}

impl MetricsSnapshot {
    /// The named counter's value, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The named gauge's value, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut reg = MetricsRegistry::default();
        reg.add_count("c", 1);
        reg.add_count("c", 2);
        reg.set_gauge("g", 1.0);
        reg.set_gauge("g", 2.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.gauge("g"), Some(2.5));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn histogram_bounds_are_upper_inclusive() {
        let mut reg = MetricsRegistry::default();
        reg.register_histogram("h", &[1.0, 2.0, 4.0]);
        // Exactly on a bound -> that bound's bucket.
        reg.observe("h", 1.0);
        reg.observe("h", 2.0);
        reg.observe("h", 4.0);
        // Strictly between bounds -> the next bucket up.
        reg.observe("h", 1.5);
        // Strictly above the last bound -> overflow.
        reg.observe("h", 4.0001);
        // Below the first bound (incl. negative) -> first bucket.
        reg.observe("h", -3.0);
        let snap = reg.snapshot();
        let h = snap.histogram("h").expect("registered");
        assert_eq!(h.counts, vec![2, 2, 1, 1]);
        assert_eq!(h.total, 6);
        assert!((h.sum - (1.0 + 2.0 + 4.0 + 1.5 + 4.0001 - 3.0)).abs() < 1e-12);
    }

    #[test]
    fn bucket_index_edges() {
        let h = Histogram::new(&[0.0, 10.0]);
        assert_eq!(h.bucket_index(-1.0), 0);
        assert_eq!(h.bucket_index(0.0), 0);
        assert_eq!(h.bucket_index(0.0001), 1);
        assert_eq!(h.bucket_index(10.0), 1);
        assert_eq!(h.bucket_index(10.0001), 2);
        assert_eq!(h.bucket_index(f64::INFINITY), 2);
    }

    #[test]
    fn reregistration_is_idempotent() {
        let mut reg = MetricsRegistry::default();
        reg.register_histogram("h", &[1.0]);
        reg.observe("h", 0.5);
        reg.register_histogram("h", &[99.0]); // ignored
        let snap = reg.snapshot();
        let h = snap.histogram("h").expect("registered");
        assert_eq!(h.bounds, vec![1.0]);
        assert_eq!(h.total, 1);
    }

    #[test]
    fn nan_observations_are_dropped() {
        let mut reg = MetricsRegistry::default();
        reg.register_histogram("h", &[1.0]);
        reg.observe("h", f64::NAN);
        reg.observe("h", 0.5);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("h").map(|h| h.total), Some(1));
    }

    #[test]
    fn unregistered_observe_is_a_noop() {
        let mut reg = MetricsRegistry::default();
        reg.observe("ghost", 1.0);
        assert!(reg.snapshot().histograms.is_empty());
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let mut reg = MetricsRegistry::default();
        reg.add_count("zeta", 1);
        reg.add_count("alpha", 1);
        reg.add_count("mid", 1);
        let names: Vec<&str> = reg.snapshot().counters.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }
}
