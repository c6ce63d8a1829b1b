//! The always-on observability plane of the cluster engine.
//!
//! Layered on `telemetry::obs`: the engine drives one `ObsPlane` per
//! run from the dispatcher. Per-request latency lands in bounded-memory
//! quantile sketches as requests complete; once per window the plane
//! reads every node's cumulative active/attributed energy *in node
//! order* at a tick barrier, folds the deltas into time-bucketed
//! rollups, and feeds the energy-SLO burn-rate monitor. Newly fired
//! alerts are stamped with simulated time and emitted both into the
//! telemetry stream (category `obs`, dispatcher track) and into
//! [`ObsOutcome`].
//!
//! The plane samples only at tick barriers, never mid-advance, so its
//! output is a deterministic function of the seeded run.

use crate::sim::DISPATCHER_TRACK;
use simkern::{SimDuration, SimTime};
use telemetry::obs::{
    BurnRateMonitor, ObsReport, ProvenanceEntry, QuantileSketch, SloRules, WindowSample,
};

/// Per-node `power_w/node/NNNN` rollup series are kept for the first
/// this-many nodes; fleet-level series are always kept.
const PER_NODE_SERIES_MAX: usize = 64;

/// Configuration of the observability plane.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Aggregation window. Windows close at the first tick barrier at
    /// or past each boundary; only full windows feed the burn-rate
    /// monitor.
    pub window: SimDuration,
    /// Burn-rate rule thresholds and hysteresis.
    pub rules: SloRules,
    /// Collect the per-request energy provenance breakdown (node →
    /// incarnation → container → cpu/throttled/io segment). It reads
    /// full container records, so every node then keeps an 88-byte
    /// record per finished request instead of a 16-byte context and
    /// joules entry; off for megafleet cells.
    pub provenance: bool,
    /// Multi-tenant grouping: app `i` belongs to tenant `i % tenants`.
    /// Zero disables the per-tenant sketches.
    pub tenants: usize,
}

impl ObsConfig {
    /// Defaults: 250 ms windows, [`SloRules::standard`], no provenance,
    /// no tenant grouping.
    pub fn standard() -> ObsConfig {
        ObsConfig {
            window: SimDuration::from_millis(250),
            rules: SloRules::standard(),
            provenance: false,
            tenants: 0,
        }
    }
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig::standard()
    }
}

/// Observability results of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsOutcome {
    /// The merged report: sketches, rollup series, and the full typed
    /// alert stream (also available rendered via
    /// [`ObsReport::render`] or as one byte-stable JSON line via
    /// [`ObsReport::to_json`]).
    pub report: ObsReport,
    /// Per-request energy provenance entries (empty unless
    /// [`ObsConfig::provenance`] is set), already in folded order.
    pub provenance: Vec<ProvenanceEntry>,
}

impl ObsOutcome {
    /// Number of alerts fired over the run.
    pub fn alert_count(&self) -> usize {
        self.report.alerts.len()
    }
}

/// The engine-side driver of the plane (crate-internal; the engine owns
/// one per run when [`crate::ClusterConfig::obs`] is set).
pub(crate) struct ObsPlane {
    window: SimDuration,
    window_secs: f64,
    provenance: bool,
    tenants: usize,
    next_end: SimTime,
    monitor: BurnRateMonitor,
    report: ObsReport,
    cap_w: Option<f64>,
    // Hot-path sketches held directly (no per-completion map lookup);
    // folded into the report keyed by name at `finish`.
    fleet_latency: QuantileSketch,
    app_latency: Vec<QuantileSketch>,
    tenant_latency: Vec<QuantileSketch>,
    fleet_energy: QuantileSketch,
    app_energy: Vec<QuantileSketch>,
    tenant_energy: Vec<QuantileSketch>,
    unknown_energy: QuantileSketch,
    app_names: Vec<&'static str>,
    // Cumulative snapshots at the last window close, per node / fleet.
    last_active: Vec<f64>,
    last_attr: Vec<f64>,
    last_completed: u64,
    last_dropped: u64,
    last_degrade: u64,
}

impl ObsPlane {
    pub(crate) fn new(
        cfg: &ObsConfig,
        n_nodes: usize,
        app_names: Vec<&'static str>,
        cap_w: Option<f64>,
        duration: SimDuration,
    ) -> ObsPlane {
        assert!(!cfg.window.is_zero(), "obs window must be positive");
        let window_ns = cfg.window.as_nanos();
        let tenants = cfg.tenants.min(app_names.len());
        ObsPlane {
            window: cfg.window,
            window_secs: cfg.window.as_secs_f64(),
            provenance: cfg.provenance,
            tenants,
            next_end: SimTime::ZERO + cfg.window,
            monitor: BurnRateMonitor::new(cfg.rules, window_ns),
            report: ObsReport::new(window_ns, duration.as_nanos()),
            cap_w,
            fleet_latency: QuantileSketch::new(),
            app_latency: vec![QuantileSketch::new(); app_names.len()],
            tenant_latency: vec![QuantileSketch::new(); tenants],
            fleet_energy: QuantileSketch::new(),
            app_energy: vec![QuantileSketch::new(); app_names.len()],
            tenant_energy: vec![QuantileSketch::new(); tenants],
            unknown_energy: QuantileSketch::new(),
            app_names,
            last_active: vec![0.0; n_nodes],
            last_attr: vec![0.0; n_nodes],
            last_completed: 0,
            last_dropped: 0,
            last_degrade: 0,
        }
    }

    pub(crate) fn wants_provenance(&self) -> bool {
        self.provenance
    }

    /// `true` once the current window's boundary is at or behind `t` —
    /// the engine only assembles the (O(nodes)) sample when this holds.
    pub(crate) fn due(&self, t: SimTime) -> bool {
        t >= self.next_end
    }

    /// One request completed end-to-end with the given latency.
    pub(crate) fn note_completion(&mut self, app: usize, latency_s: f64) {
        self.fleet_latency.observe(latency_s);
        if let Some(s) = self.app_latency.get_mut(app) {
            s.observe(latency_s);
        }
        if self.tenants > 0 {
            self.tenant_latency[app % self.tenants].observe(latency_s);
        }
    }

    /// Closes the window ending at (or just before) `t`. `per_node`
    /// holds each node's *cumulative* (active, attributed) Joules in
    /// node order; `completed`/`dropped`/`degrade` are cumulative fleet
    /// counters. Emits any newly fired alerts into `tele`.
    pub(crate) fn close_window(
        &mut self,
        t: SimTime,
        per_node: &[(f64, f64)],
        completed: u64,
        dropped: u64,
        degrade: u64,
        tele: &telemetry::Telemetry,
    ) {
        let end_ns = t.as_nanos();
        let mut active_d = 0.0f64;
        let mut attr_d = 0.0f64;
        for (i, &(active, attr)) in per_node.iter().enumerate() {
            // A crash restores the checkpointed totals, so cumulative
            // attribution can step backwards by the loss window; the
            // clamp charges that window zero attribution (the residual
            // the anomaly rule watches for) instead of going negative.
            let da = (active - self.last_active[i]).max(0.0);
            let dr = (attr - self.last_attr[i]).max(0.0);
            self.last_active[i] = active;
            self.last_attr[i] = attr;
            active_d += da;
            attr_d += dr;
            if i < PER_NODE_SERIES_MAX {
                self.report
                    .rollup(&format!("power_w/node/{i:04}"))
                    .observe(end_ns, da / self.window_secs);
            }
        }
        let completed_d = completed - self.last_completed;
        let dropped_d = dropped - self.last_dropped;
        let degrade_d = degrade - self.last_degrade;
        self.last_completed = completed;
        self.last_dropped = dropped;
        self.last_degrade = degrade;

        let power_w = active_d / self.window_secs;
        self.report.rollup("power_w/fleet").observe(end_ns, power_w);
        self.report.rollup("completed/fleet").observe(end_ns, completed_d as f64);
        self.report.rollup("shed/fleet").observe(end_ns, dropped_d as f64);
        self.report.rollup("drift/fleet").observe(end_ns, degrade_d as f64);
        if completed_d > 0 {
            self.report
                .rollup("j_per_req/fleet")
                .observe(end_ns, attr_d / completed_d as f64);
        }
        if let Some(cap) = self.cap_w {
            self.report
                .rollup("headroom/fleet")
                .observe(end_ns, 1.0 - power_w / cap);
        }

        let before = self.monitor.alerts().len();
        self.monitor.observe_window(&WindowSample {
            end_ns,
            active_j: active_d,
            attributed_j: attr_d,
            completed: completed_d,
            cap_w: self.cap_w,
        });
        for a in &self.monitor.alerts()[before..] {
            tele.instant_on(
                t,
                "obs",
                a.kind.name(),
                DISPATCHER_TRACK,
                &[("value", a.value.into()), ("threshold", a.threshold.into())],
            );
            tele.add_count(a.kind.counter(), 1);
        }

        while self.next_end <= t {
            self.next_end += self.window;
        }
    }

    /// One per-request energy total (summed across nodes), observed at
    /// end of run into the energy-per-request sketches.
    pub(crate) fn note_request_energy(&mut self, app: Option<usize>, energy_j: f64) {
        self.fleet_energy.observe(energy_j);
        if let Some(app) = app {
            match self.app_energy.get_mut(app) {
                Some(s) => s.observe(energy_j),
                None => self.unknown_energy.observe(energy_j),
            }
            if self.tenants > 0 {
                self.tenant_energy[app % self.tenants].observe(energy_j);
            }
        }
    }

    /// Folds the hot-path sketches into the report and hands the plane's
    /// results out. `provenance` must already be in the caller's
    /// deterministic order.
    pub(crate) fn finish(mut self, provenance: Vec<ProvenanceEntry>) -> ObsOutcome {
        self.report.sketch("latency_s/fleet").merge(&self.fleet_latency);
        for (i, s) in self.app_latency.iter().enumerate() {
            if s.count() > 0 {
                self.report
                    .sketch(&format!("latency_s/app/{}", self.app_names[i]))
                    .merge(s);
            }
        }
        for (tnt, s) in self.tenant_latency.iter().enumerate() {
            if s.count() > 0 {
                self.report.sketch(&format!("latency_s/tenant/{tnt:02}")).merge(s);
            }
        }
        if self.fleet_energy.count() > 0 {
            self.report.sketch("energy_j_per_req/fleet").merge(&self.fleet_energy);
        }
        for (i, s) in self.app_energy.iter().enumerate() {
            if s.count() > 0 {
                self.report
                    .sketch(&format!("energy_j_per_req/app/{}", self.app_names[i]))
                    .merge(s);
            }
        }
        if self.unknown_energy.count() > 0 {
            self.report.sketch("energy_j_per_req/app/unknown").merge(&self.unknown_energy);
        }
        for (tnt, s) in self.tenant_energy.iter().enumerate() {
            if s.count() > 0 {
                self.report.sketch(&format!("energy_j_per_req/tenant/{tnt:02}")).merge(s);
            }
        }
        self.report.alerts = self.monitor.alerts().to_vec();
        ObsOutcome { report: self.report, provenance }
    }
}
