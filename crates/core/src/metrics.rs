//! The power model's feature vector.

use hwsim::CounterBlock;
use std::ops::{Add, AddAssign, Mul};

/// Number of features in the full model (Eq. 2 plus device utilizations).
pub const FEATURES: usize = 8;

/// The per-interval event metrics the paper's model consumes (§3.1):
/// core utilization, instructions/cycle, FLOPs/cycle, LLC refs/cycle,
/// memory transactions/cycle, the Eq. 3 chip power share, and disk/network
/// utilization for the full-system model.
///
/// A `MetricVector` always describes an *interval* (two counter snapshots),
/// never a cumulative state.
///
/// # Example
///
/// ```
/// use power_containers::MetricVector;
///
/// let mut m = MetricVector::default();
/// m.core = 1.0;
/// m.ins = 2.0;
/// let doubled = m * 2.0;
/// assert_eq!(doubled.ins, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricVector {
    /// Non-halt cycles per elapsed cycle (`M_core`).
    pub core: f64,
    /// Retired instructions per elapsed cycle (`M_ins`).
    pub ins: f64,
    /// Floating-point operations per elapsed cycle (`M_float`).
    pub float: f64,
    /// Last-level-cache references per elapsed cycle (`M_cache`).
    pub cache: f64,
    /// Memory transactions per elapsed cycle (`M_mem`).
    pub mem: f64,
    /// Share of on-chip maintenance power (`M_chipshare`, Eq. 3).
    pub chipshare: f64,
    /// Disk active fraction (`M_disk`).
    pub disk: f64,
    /// Network active fraction (`M_net`).
    pub net: f64,
}

impl MetricVector {
    /// Builds the CPU metrics from a counter delta; `chipshare`, `disk`
    /// and `net` are left at zero for the caller to fill.
    pub fn from_counters(delta: &CounterBlock) -> MetricVector {
        MetricVector {
            core: delta.core_utilization(),
            ins: delta.ins_rate(),
            float: delta.flop_rate(),
            cache: delta.cache_rate(),
            mem: delta.mem_rate(),
            chipshare: 0.0,
            disk: 0.0,
            net: 0.0,
        }
    }

    /// The features as a fixed-order array (the regression layout).
    pub fn as_array(&self) -> [f64; FEATURES] {
        [
            self.core,
            self.ins,
            self.float,
            self.cache,
            self.mem,
            self.chipshare,
            self.disk,
            self.net,
        ]
    }

    /// Reconstructs a vector from the regression layout.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != FEATURES`.
    pub fn from_slice(a: &[f64]) -> MetricVector {
        assert_eq!(a.len(), FEATURES, "feature count mismatch");
        MetricVector {
            core: a[0],
            ins: a[1],
            float: a[2],
            cache: a[3],
            mem: a[4],
            chipshare: a[5],
            disk: a[6],
            net: a[7],
        }
    }

    /// Human-readable feature names, aligned with [`MetricVector::as_array`].
    pub const NAMES: [&'static str; FEATURES] =
        ["core", "ins", "float", "cache", "mem", "chipshare", "disk", "net"];
}

impl Add for MetricVector {
    type Output = MetricVector;
    fn add(self, o: MetricVector) -> MetricVector {
        MetricVector {
            core: self.core + o.core,
            ins: self.ins + o.ins,
            float: self.float + o.float,
            cache: self.cache + o.cache,
            mem: self.mem + o.mem,
            chipshare: self.chipshare + o.chipshare,
            disk: self.disk + o.disk,
            net: self.net + o.net,
        }
    }
}

impl AddAssign for MetricVector {
    fn add_assign(&mut self, o: MetricVector) {
        *self = *self + o;
    }
}

impl Mul<f64> for MetricVector {
    type Output = MetricVector;
    fn mul(self, s: f64) -> MetricVector {
        MetricVector {
            core: self.core * s,
            ins: self.ins * s,
            float: self.float * s,
            cache: self.cache * s,
            mem: self.mem * s,
            chipshare: self.chipshare * s,
            disk: self.disk * s,
            net: self.net * s,
        }
    }
}

/// Counters of every graceful-degradation decision the facility takes
/// when its inputs misbehave (see [`crate::FacilityError`]). All zeros on
/// a clean run; each counter names the fallback that fired, so a
/// robustness sweep can attribute accuracy loss to specific fault
/// classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradeStats {
    /// Counter samples rejected as physically impossible (negative or
    /// implausibly high event deltas) and resynchronized instead of
    /// attributed.
    pub samples_rejected: u64,
    /// Meter-window gaps observed in the report stream (dropped
    /// windows).
    pub meter_gaps: u64,
    /// Alignment scans rejected (low score, ambiguity, or too few
    /// readings) where the facility kept its previous delay estimate.
    pub align_fallbacks: u64,
    /// Model refits rejected (singular, ill-conditioned, or
    /// outlier-contaminated).
    pub refits_rejected: u64,
    /// Rejected refits where the facility kept serving the last good
    /// model.
    pub refit_fallbacks: u64,
    /// Times the last-good model exceeded its staleness bound and the
    /// recalibrator was reset to a clean accumulation window.
    pub stale_model_resets: u64,
    /// Model-drift detections: the estimate-vs-meter CUSUM tripped its
    /// threshold (adaptation triggers, not degradations — excluded from
    /// [`DegradeStats::total`]).
    pub drift_events: u64,
    /// Drift-triggered targeted retrains that produced an accepted fit
    /// (also excluded from [`DegradeStats::total`]).
    pub drift_retrains: u64,
    /// Model-bank slot switches after hysteresis confirmed a regime
    /// change (also excluded from [`DegradeStats::total`]).
    pub model_switches: u64,
    /// Bank slots quarantined after persistently diverging; quarantined
    /// slots serve the last-good fallback until a retrain is accepted
    /// (also excluded from [`DegradeStats::total`]).
    pub models_quarantined: u64,
}

impl DegradeStats {
    /// Total *attribution* degradation decisions of any kind.
    pub fn total(&self) -> u64 {
        self.samples_rejected
            + self.meter_gaps
            + self.align_fallbacks
            + self.refits_rejected
            + self.refit_fallbacks
            + self.stale_model_resets
    }

    /// `true` when the run never degraded.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Total model-drift activity: refit rejections and fallbacks,
    /// staleness resets, and the bank's drift/switch/quarantine actions.
    /// Non-zero means the metering model was adapting (or failing to)
    /// during the run.
    pub fn drift_total(&self) -> u64 {
        self.refits_rejected
            + self.refit_fallbacks
            + self.stale_model_resets
            + self.drift_events
            + self.drift_retrains
            + self.model_switches
            + self.models_quarantined
    }

    /// Compact one-line rendering of the drift counters for status
    /// tables: `"-"` when nothing drifted, otherwise only the non-zero
    /// counters, e.g. `"rej:2 rst:1 det:4 sw:3"`.
    pub fn drift_column(&self) -> String {
        let parts = [
            ("rej", self.refits_rejected),
            ("fb", self.refit_fallbacks),
            ("rst", self.stale_model_resets),
            ("det", self.drift_events),
            ("ret", self.drift_retrains),
            ("sw", self.model_switches),
            ("q", self.models_quarantined),
        ];
        let s: Vec<String> = parts
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(k, v)| format!("{k}:{v}"))
            .collect();
        if s.is_empty() {
            "-".to_string()
        } else {
            s.join(" ")
        }
    }
}

impl Add for DegradeStats {
    type Output = DegradeStats;
    fn add(self, o: DegradeStats) -> DegradeStats {
        DegradeStats {
            samples_rejected: self.samples_rejected + o.samples_rejected,
            meter_gaps: self.meter_gaps + o.meter_gaps,
            align_fallbacks: self.align_fallbacks + o.align_fallbacks,
            refits_rejected: self.refits_rejected + o.refits_rejected,
            refit_fallbacks: self.refit_fallbacks + o.refit_fallbacks,
            stale_model_resets: self.stale_model_resets + o.stale_model_resets,
            drift_events: self.drift_events + o.drift_events,
            drift_retrains: self.drift_retrains + o.drift_retrains,
            model_switches: self.model_switches + o.model_switches,
            models_quarantined: self.models_quarantined + o.models_quarantined,
        }
    }
}

impl AddAssign for DegradeStats {
    fn add_assign(&mut self, o: DegradeStats) {
        *self = *self + o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrade_stats_total_and_clean() {
        let mut d = DegradeStats::default();
        assert!(d.is_clean());
        d.samples_rejected = 2;
        d.align_fallbacks = 1;
        assert_eq!(d.total(), 3);
        assert!(!d.is_clean());
    }

    #[test]
    fn degrade_stats_sum_fieldwise() {
        let a = DegradeStats { samples_rejected: 1, meter_gaps: 2, ..DegradeStats::default() };
        let b = DegradeStats { meter_gaps: 3, stale_model_resets: 4, ..DegradeStats::default() };
        let mut sum = a;
        sum += b;
        assert_eq!(sum.samples_rejected, 1);
        assert_eq!(sum.meter_gaps, 5);
        assert_eq!(sum.stale_model_resets, 4);
        assert_eq!(sum.total(), a.total() + b.total());
    }

    #[test]
    fn drift_counters_sum_and_stay_out_of_total() {
        let a = DegradeStats {
            drift_events: 2,
            model_switches: 1,
            refits_rejected: 1,
            ..DegradeStats::default()
        };
        let b = DegradeStats {
            drift_retrains: 3,
            models_quarantined: 1,
            ..DegradeStats::default()
        };
        let sum = a + b;
        assert_eq!(sum.drift_events, 2);
        assert_eq!(sum.drift_retrains, 3);
        assert_eq!(sum.model_switches, 1);
        assert_eq!(sum.models_quarantined, 1);
        // Only the refit rejection is an attribution degradation.
        assert_eq!(sum.total(), 1);
        assert_eq!(sum.drift_total(), 8);
    }

    #[test]
    fn drift_column_renders_non_zero_counters() {
        assert_eq!(DegradeStats::default().drift_column(), "-");
        let d = DegradeStats {
            refits_rejected: 2,
            stale_model_resets: 1,
            drift_events: 4,
            model_switches: 3,
            ..DegradeStats::default()
        };
        assert_eq!(d.drift_column(), "rej:2 rst:1 det:4 sw:3");
        // Plain degradations (meter gaps) don't leak into the column.
        let gaps = DegradeStats { meter_gaps: 7, ..DegradeStats::default() };
        assert_eq!(gaps.drift_column(), "-");
    }

    #[test]
    fn from_counters_computes_rates() {
        let delta = CounterBlock {
            elapsed_cycles: 1000.0,
            nonhalt_cycles: 500.0,
            instructions: 1500.0,
            flops: 100.0,
            cache_refs: 50.0,
            mem_txns: 25.0,
        };
        let m = MetricVector::from_counters(&delta);
        assert_eq!(m.core, 0.5);
        assert_eq!(m.ins, 1.5);
        assert_eq!(m.float, 0.1);
        assert_eq!(m.cache, 0.05);
        assert_eq!(m.mem, 0.025);
        assert_eq!(m.chipshare, 0.0);
    }

    #[test]
    fn array_round_trip() {
        let m = MetricVector {
            core: 1.0,
            ins: 2.0,
            float: 3.0,
            cache: 4.0,
            mem: 5.0,
            chipshare: 6.0,
            disk: 7.0,
            net: 8.0,
        };
        assert_eq!(MetricVector::from_slice(&m.as_array()), m);
    }

    #[test]
    fn arithmetic_is_elementwise() {
        let a = MetricVector { core: 1.0, ins: 2.0, ..MetricVector::default() };
        let b = MetricVector { core: 0.5, mem: 1.0, ..MetricVector::default() };
        let sum = a + b;
        assert_eq!(sum.core, 1.5);
        assert_eq!(sum.ins, 2.0);
        assert_eq!(sum.mem, 1.0);
        let scaled = sum * 2.0;
        assert_eq!(scaled.core, 3.0);
    }

    #[test]
    fn names_align_with_layout() {
        assert_eq!(MetricVector::NAMES.len(), FEATURES);
        assert_eq!(MetricVector::NAMES[5], "chipshare");
    }
}
