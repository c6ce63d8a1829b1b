//! Aligning delayed power measurements with model estimates (paper §3.2).
//!
//! Meter readings arrive with an unknown lag (reporting delay plus data
//! I/O latency). The facility knows only each reading's *arrival time*;
//! to use readings for recalibration it must discover which model interval
//! each one describes. Following the paper, we scan hypothetical delays,
//! correlate the measurement series against the model-estimate series at
//! each, and pick the delay with the highest cross-correlation (Eq. 4) —
//! a poorly calibrated model still tracks power *transitions* well, which
//! is all alignment needs.

use crate::error::FacilityError;
use crate::trace::TraceRing;
use analysis::stats::Summary;
use analysis::xcorr::{sliding_cross_products_into, CrossScratch};
use simkern::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Fewest retained readings an alignment scan will run on.
const MIN_READINGS: usize = 3;

/// Readings the facility's estimator keeps: each alignment scan
/// correlates this many of the latest reports against the model trace.
pub const ALIGN_WINDOW: usize = 128;

/// Lowest best-delay correlation [`DelayEstimator::estimate_checked`]
/// accepts; weaker scans keep the previous delay estimate (see
/// [`FacilityError::AlignmentLowScore`]).
pub const MIN_ALIGN_SCORE: f64 = 0.4;

/// Correlation margin the best delay must keep over any well-separated
/// competitor in [`DelayEstimator::estimate_checked`]; closer ties are
/// ambiguous and keep the previous delay estimate (see
/// [`FacilityError::AlignmentAmbiguous`]).
pub const ALIGN_AMBIGUITY_MARGIN: f64 = 0.02;

/// One meter reading as the facility sees it: arrival instant and value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// When the reading became visible to software.
    pub arrived_at: SimTime,
    /// The reported average power in Watts.
    pub watts: f64,
}

/// The outcome of a delay scan.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentResult {
    /// The best-correlating measurement delay.
    pub delay: SimDuration,
    /// Correlation score at the best delay (Pearson-normalized, ≤ 1).
    pub score: f64,
    /// The full `(hypothetical delay, correlation)` curve, for Fig. 2.
    pub curve: Vec<(SimDuration, f64)>,
}

/// Estimates the measurement delay of one meter by cross-correlating its
/// recent readings against the model-estimate trace.
///
/// # Example
///
/// ```
/// use power_containers::{DelayEstimator, TraceRing, Reading};
/// use simkern::{SimDuration, SimTime};
///
/// let estimator = DelayEstimator::new(
///     SimDuration::from_millis(1),   // meter window length
///     SimDuration::from_millis(10),  // max delay scanned
///     SimDuration::from_millis(1),   // scan step
///     64,
/// );
/// assert_eq!(estimator.max_delay(), SimDuration::from_millis(10));
/// let _ring: TraceRing<f64> = TraceRing::new(SimDuration::from_millis(1), 128);
/// let _r = Reading { arrived_at: SimTime::from_millis(2), watts: 30.0 };
/// ```
#[derive(Debug, Clone)]
pub struct DelayEstimator {
    meter_period: SimDuration,
    max_delay: SimDuration,
    step: SimDuration,
    history: VecDeque<Reading>,
    history_cap: usize,
    /// Working buffers [`DelayEstimator::estimate_checked`] keeps between
    /// scans.
    scratch: ScanScratch,
}

/// The gridded scan's working buffers; reusing them leaves a scan with
/// one allocation, its curve.
#[derive(Clone, Default)]
struct ScanScratch {
    /// Centered readings, newest first.
    a: Vec<f64>,
    /// Centered model means over the covered run of windows.
    b: Vec<f64>,
    /// Prefix sums of `a`, `a²`, `b` and `b²`, each led by a zero.
    pa: Vec<f64>,
    paa: Vec<f64>,
    pb: Vec<f64>,
    pbb: Vec<f64>,
    /// Cross products at run-local shifts `s ≥ 0` and `−s`.
    fwd: Vec<f64>,
    bwd: Vec<f64>,
    cross: CrossScratch,
}

impl std::fmt::Debug for ScanScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanScratch").finish_non_exhaustive()
    }
}

/// Refills `sums` and `squares` with `0` followed by the running sums of
/// `values` and of their squares, in index order.
fn prefix_sums(values: &[f64], sums: &mut Vec<f64>, squares: &mut Vec<f64>) {
    sums.clear();
    squares.clear();
    let (mut s, mut q) = (0.0, 0.0);
    sums.push(s);
    squares.push(q);
    for &v in values {
        s += v;
        q += v * v;
        sums.push(s);
        squares.push(q);
    }
}

impl DelayEstimator {
    /// Creates an estimator for a meter with `meter_period`-long windows,
    /// scanning delays `0..=max_delay` in increments of `step`, keeping at
    /// most `history_cap` recent readings.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or `history_cap` is zero.
    pub fn new(
        meter_period: SimDuration,
        max_delay: SimDuration,
        step: SimDuration,
        history_cap: usize,
    ) -> DelayEstimator {
        assert!(!step.is_zero(), "scan step must be positive");
        assert!(history_cap > 0, "history capacity must be positive");
        DelayEstimator {
            meter_period,
            max_delay,
            step,
            history: VecDeque::new(),
            history_cap,
            scratch: ScanScratch::default(),
        }
    }

    /// The largest delay this estimator scans.
    pub fn max_delay(&self) -> SimDuration {
        self.max_delay
    }

    /// Records an arrived reading.
    pub fn push(&mut self, reading: Reading) {
        self.history.push_back(reading);
        if self.history.len() > self.history_cap {
            self.history.pop_front();
        }
    }

    /// Number of readings currently retained.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// `true` when no readings are retained.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// The retained readings, oldest first.
    pub fn readings(&self) -> impl Iterator<Item = &Reading> {
        self.history.iter()
    }

    /// Scans hypothetical delays against `model` (a trace of modeled
    /// machine power) and returns the best alignment. `None` when fewer
    /// than three readings are available or no delay yields enough
    /// overlapping model history.
    ///
    /// When readings arrive on a uniform grid spaced exactly one scan
    /// step apart — the overwhelmingly common case for a periodic meter —
    /// the scan runs on a shared model-mean series with prefix sums and
    /// sliding cross products: quasi-linear arithmetic instead of the
    /// reference scan's `O(N·L)` trace queries, and the ring re-queries
    /// only the series windows written since the previous scan
    /// ([`TraceRing::mean_over_wall_series`]). Non-uniform arrivals, non-finite values, and
    /// unusual trace-coverage patterns fall back to
    /// [`DelayEstimator::estimate_reference`], which both paths must
    /// agree with (first delay wins score ties in either).
    pub fn estimate(&self, model: &TraceRing<f64>) -> Option<AlignmentResult> {
        self.estimate_in(model, &mut ScanScratch::default())
    }

    /// [`DelayEstimator::estimate`] with the gridded scan working in
    /// `scratch`.
    fn estimate_in(
        &self,
        model: &TraceRing<f64>,
        scratch: &mut ScanScratch,
    ) -> Option<AlignmentResult> {
        if self.history.len() < MIN_READINGS {
            return None;
        }
        if let Some(result) = self.estimate_gridded(model, scratch) {
            return result;
        }
        self.estimate_reference(model)
    }

    /// Reference implementation of [`DelayEstimator::estimate`]: one
    /// independent Pearson correlation per scanned delay. Kept as the
    /// correctness oracle for the gridded fast path (and used by it as
    /// the fallback whenever the grid assumptions fail).
    pub fn estimate_reference(&self, model: &TraceRing<f64>) -> Option<AlignmentResult> {
        if self.history.len() < MIN_READINGS {
            return None;
        }
        let mut curve = Vec::new();
        let mut best: Option<(SimDuration, f64)> = None;
        let mut delay = SimDuration::ZERO;
        while delay <= self.max_delay {
            if let Some(score) = self.correlation_at(model, delay) {
                curve.push((delay, score));
                match best {
                    Some((_, b)) if b >= score => {}
                    _ => best = Some((delay, score)),
                }
            } else {
                curve.push((delay, 0.0));
            }
            delay += self.step;
        }
        best.map(|(delay, score)| AlignmentResult { delay, score, curve })
    }

    /// `true` when retained readings are finite and arrive on a uniform
    /// grid spaced exactly one scan step apart, so delay `k·step` pairs
    /// reading `i` (newest-first) with the model window `i + k` steps back.
    fn on_uniform_grid(&self) -> bool {
        if self.history.len() < MIN_READINGS {
            return false;
        }
        let mut prev: Option<SimTime> = None;
        for r in &self.history {
            if !r.watts.is_finite() {
                return false;
            }
            if let Some(p) = prev {
                if r.arrived_at <= p || r.arrived_at - p != self.step {
                    return false;
                }
            }
            prev = Some(r.arrived_at);
        }
        true
    }

    /// The gridded fast path. Returns `None` when its assumptions do not
    /// hold (non-uniform arrivals, non-finite samples, model coverage
    /// that is not one contiguous run) and the reference scan must be
    /// used; otherwise `Some(result)` with the same answer the reference
    /// scan would produce (scores agree to rounding, same tie-breaking).
    fn estimate_gridded(
        &self,
        model: &TraceRing<f64>,
        scratch: &mut ScanScratch,
    ) -> Option<Option<AlignmentResult>> {
        if !self.on_uniform_grid() {
            return None;
        }
        let n = self.history.len();
        // The reference scan's delay grid: 0, step, 2·step, … up to
        // max_delay.
        let k_count = (self.max_delay.as_nanos() / self.step.as_nanos()) as usize + 1;
        // Shared model-mean series: entry j is the model average over the
        // meter window ending j steps before the newest arrival. Reading
        // i (newest-first) at delay k·step pairs with entry i + k;
        // arrival times are exact multiples of `step` apart, and SimTime
        // subtraction saturates identically walking the series or
        // per-reading, so each entry equals the reference scan's query.
        let newest = self.history.back().expect("nonempty history").arrived_at;
        let total = n + k_count - 1;
        let ScanScratch { a, b, pa, paa, pb, pbb, fwd, bwd, cross } = scratch;
        let (j_lo, j_hi) = {
            let series =
                model.mean_over_wall_series(newest, self.meter_period, self.step, total);
            // Coverage must be one contiguous run: windows slide
            // monotonically back in time, losing coverage only off the new
            // end (not yet written) or the old end (evicted). Holes mean
            // something unusual; let the reference scan handle them.
            let Some(j_lo) = series.iter().position(Option::is_some) else {
                // No delay has any model overlap: the reference scan would
                // find no eligible delay at all.
                return Some(None);
            };
            let j_hi =
                total - 1 - series.iter().rev().position(Option::is_some).expect("some exists");
            b.clear();
            for v in &series[j_lo..=j_hi] {
                match *v {
                    Some(mean) if mean.is_finite() => b.push(mean),
                    _ => return None,
                }
            }
            (j_lo, j_hi)
        };
        let mm = b.len();
        a.clear();
        a.extend(self.history.iter().rev().map(|r| r.watts));
        // Center by global means: per-window Pearson terms are invariant
        // under a constant shift, and centered prefix sums stay well
        // conditioned.
        let ga = a.iter().sum::<f64>() / n as f64;
        let gb = b.iter().sum::<f64>() / mm as f64;
        a.iter_mut().for_each(|v| *v -= ga);
        b.iter_mut().for_each(|v| *v -= gb);
        prefix_sums(a, pa, paa);
        prefix_sums(b, pb, pbb);
        // Cross products in run-local coordinates: lag k pairs a[i] with
        // b[i + s] where s = k − j_lo may be negative (the newest readings
        // hypothesize windows ahead of the covered run).
        fwd.clear();
        if k_count > j_lo {
            sliding_cross_products_into(a, b, k_count - 1 - j_lo, cross, fwd);
        }
        bwd.clear();
        if j_lo > 0 {
            sliding_cross_products_into(b, a, j_lo, cross, bwd);
        }
        // Every lag that overlaps all n readings shares their sums.
        let sum_a_all = pa[n] - pa[0];
        let var_a_all = (paa[n] - paa[0] - sum_a_all * sum_a_all / n as f64).max(0.0);
        let score_at = |k: usize| {
            if k > j_hi {
                return None;
            }
            let s = k as isize - j_lo as isize;
            let i0 = if s >= 0 { 0 } else { (-s) as usize };
            let i1 = (n - 1).min(j_hi - k);
            if i1 < i0 {
                return None;
            }
            let nk = i1 - i0 + 1;
            if nk < MIN_READINGS {
                return None;
            }
            let nf = nk as f64;
            let (sum_a, var_a) = if nk == n {
                (sum_a_all, var_a_all)
            } else {
                let sum_a = pa[i1 + 1] - pa[i0];
                let ssq_a = paa[i1 + 1] - paa[i0];
                (sum_a, (ssq_a - sum_a * sum_a / nf).max(0.0))
            };
            let j0 = (i0 as isize + s) as usize;
            let j1 = (i1 as isize + s) as usize;
            let sum_b = pb[j1 + 1] - pb[j0];
            let ssq_b = pbb[j1 + 1] - pbb[j0];
            let t = if s >= 0 { fwd[s as usize] } else { bwd[(-s) as usize] };
            let var_b = (ssq_b - sum_b * sum_b / nf).max(0.0);
            let cov = t - sum_a * sum_b / nf;
            let denom = (var_a * var_b).sqrt();
            // Same eligibility as the reference scan, which compares
            // the product of *population* std-devs to 1e-12:
            // √(va/n)·√(vb/n) > 1e-12  ⇔  √(va·vb) > 1e-12·n.
            (denom > 1e-12 * nf).then(|| cov / denom)
        };
        let mut best: Option<(SimDuration, f64)> = None;
        let curve = (0..k_count)
            .map(|k| {
                let delay = self.step * k as u64;
                match score_at(k) {
                    Some(sc) => {
                        match best {
                            Some((_, b)) if b >= sc => {}
                            _ => best = Some((delay, sc)),
                        }
                        (delay, sc)
                    }
                    None => (delay, 0.0),
                }
            })
            .collect();
        Some(best.map(|(delay, score)| AlignmentResult { delay, score, curve }))
    }

    /// Like [`DelayEstimator::estimate`], but validates the scan before
    /// the caller may act on it: the best correlation must reach
    /// [`MIN_ALIGN_SCORE`], and no *well-separated* delay may correlate
    /// within [`ALIGN_AMBIGUITY_MARGIN`] of the best — a near-tie between
    /// distant delays means the scan cannot tell them apart, which
    /// happens when meter dropouts punch holes in the reading stream or
    /// the workload is too periodic over the window.
    ///
    /// "Well-separated" is relative to the correlation curve's intrinsic
    /// width, not the scan step: each score correlates against model
    /// means over a full meter window, so the curve is smoothed over
    /// `meter_period` and delays within half a window of the best are
    /// the *same* peak, never competing hypotheses. (A 1 ms scan step
    /// against a 1 s wall-meter window would otherwise flag every scan
    /// as ambiguous against its immediate neighbours.) Competing peaks —
    /// workload-periodicity aliases, dropout artifacts — survive the
    /// window smoothing only when at least that far apart.
    ///
    /// # Errors
    ///
    /// [`FacilityError::InsufficientReadings`] when fewer than three
    /// readings are retained (or none overlap the model trace),
    /// [`FacilityError::AlignmentLowScore`] and
    /// [`FacilityError::AlignmentAmbiguous`] per the checks above. On
    /// any error the caller should keep its previous delay estimate.
    ///
    /// Takes `&mut self` only to reuse the scan's working buffers.
    pub fn estimate_checked(
        &mut self,
        model: &TraceRing<f64>,
    ) -> Result<AlignmentResult, FacilityError> {
        if self.history.len() < MIN_READINGS {
            return Err(FacilityError::InsufficientReadings {
                have: self.history.len(),
                need: MIN_READINGS,
            });
        }
        // `estimate` returning `None` past the length gate means no
        // scanned delay had three readings overlapping the model trace.
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.estimate_in(model, &mut scratch);
        self.scratch = scratch;
        let result = result.ok_or(FacilityError::InsufficientReadings {
            have: 0,
            need: MIN_READINGS,
        })?;
        if result.score < MIN_ALIGN_SCORE {
            return Err(FacilityError::AlignmentLowScore {
                score: result.score,
                min: MIN_ALIGN_SCORE,
            });
        }
        let separation = (self.step + self.step).max(self.meter_period / 2);
        // The curve's delays ascend, so the delays at least `separation`
        // from the best form a prefix and a suffix of it.
        let best = result.delay;
        let below = result.curve.partition_point(|(d, _)| *d <= best && best - *d >= separation);
        let above = result.curve.partition_point(|(d, _)| *d <= best || *d - best < separation);
        let runner_up = result.curve[..below]
            .iter()
            .chain(&result.curve[above..])
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if let Some(&(delay, score)) = runner_up {
            let margin = result.score - score;
            if margin < ALIGN_AMBIGUITY_MARGIN {
                return Err(FacilityError::AlignmentAmbiguous {
                    best: result.delay,
                    runner_up: delay,
                    margin,
                });
            }
        }
        Ok(result)
    }

    /// Pearson correlation between readings and the model averaged over
    /// each reading's hypothesized window `[arrival − delay − period,
    /// arrival − delay)`. `None` when fewer than three readings have model
    /// coverage or either side is constant.
    fn correlation_at(&self, model: &TraceRing<f64>, delay: SimDuration) -> Option<f64> {
        let mut pairs = Vec::with_capacity(self.history.len());
        for r in &self.history {
            let end = r.arrived_at - delay;
            let start = end - self.meter_period;
            if let Some(avg) = model.mean_over_wall(start, end) {
                pairs.push((r.watts, avg));
            }
        }
        if pairs.len() < 3 {
            return None;
        }
        let sa: Summary = pairs.iter().map(|p| p.0).collect();
        let sb: Summary = pairs.iter().map(|p| p.1).collect();
        let (ma, mb) = (sa.mean(), sb.mean());
        let mut cov = 0.0;
        for (a, b) in &pairs {
            cov += (a - ma) * (b - mb);
        }
        cov /= pairs.len() as f64;
        let denom = sa.std_dev() * sb.std_dev();
        (denom > 1e-12).then(|| cov / denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a model trace with a square-wave power signal and a reading
    /// stream observing it `true_delay` later.
    fn scenario(true_delay_ms: u64) -> (TraceRing<f64>, DelayEstimator) {
        let slot = SimDuration::from_millis(1);
        let mut model = TraceRing::new(slot, 4096);
        let mut est = DelayEstimator::new(
            SimDuration::from_millis(1),
            SimDuration::from_millis(20),
            SimDuration::from_millis(1),
            256,
        );
        for ms in 0..400u64 {
            // Square wave with a 25 ms period plus a slow ramp.
            let w = if (ms / 25) % 2 == 0 { 40.0 } else { 15.0 } + ms as f64 * 0.01;
            let t = SimTime::from_millis(ms) + SimDuration::from_micros(500);
            model.add(t, w, SimDuration::from_millis(1));
            // The meter reports the same window, arriving true_delay later.
            if ms >= 100 {
                est.push(Reading {
                    arrived_at: SimTime::from_millis(ms + 1 + true_delay_ms),
                    watts: w * 1.02, // calibration error does not hurt alignment
                });
            }
        }
        (model, est)
    }

    #[test]
    fn finds_short_delay() {
        let (model, est) = scenario(1);
        let r = est.estimate(&model).expect("alignment");
        assert_eq!(r.delay, SimDuration::from_millis(1), "score {}", r.score);
        assert!(r.score > 0.95);
    }

    #[test]
    fn finds_long_delay() {
        let (model, est) = scenario(12);
        let r = est.estimate(&model).expect("alignment");
        assert_eq!(r.delay, SimDuration::from_millis(12));
    }

    #[test]
    fn curve_has_one_point_per_step() {
        let (model, est) = scenario(3);
        let r = est.estimate(&model).expect("alignment");
        assert_eq!(r.curve.len(), 21);
        // Curve peak is at the returned delay.
        let peak = r
            .curve
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(peak.0, r.delay);
    }

    #[test]
    fn too_few_readings_yield_none() {
        let slot = SimDuration::from_millis(1);
        let model = TraceRing::new(slot, 64);
        let mut est = DelayEstimator::new(slot, slot, slot, 8);
        est.push(Reading { arrived_at: SimTime::from_millis(1), watts: 1.0 });
        est.push(Reading { arrived_at: SimTime::from_millis(2), watts: 2.0 });
        assert!(est.estimate(&model).is_none());
    }

    #[test]
    fn checked_estimate_accepts_a_clean_scan() {
        let (model, mut est) = scenario(5);
        let r = est.estimate_checked(&model).expect("clean scan");
        assert_eq!(r.delay, SimDuration::from_millis(5));
        assert_eq!(Some(r), est.estimate(&model));
    }

    #[test]
    fn checked_estimate_flags_too_few_readings() {
        let slot = SimDuration::from_millis(1);
        let model = TraceRing::new(slot, 64);
        let mut est = DelayEstimator::new(slot, slot, slot, 8);
        est.push(Reading { arrived_at: SimTime::from_millis(1), watts: 1.0 });
        let err = est.estimate_checked(&model).expect_err("one reading");
        assert!(
            matches!(err, FacilityError::InsufficientReadings { have: 1, need: 3 }),
            "got {err}"
        );
    }

    #[test]
    fn checked_estimate_flags_uncorrelated_readings() {
        let (model, mut est) = scenario(1);
        // Replace the meter stream with power values unrelated to the
        // model trace (as if every reading were corrupted).
        let arrivals: Vec<SimTime> = est.readings().map(|r| r.arrived_at).collect();
        est.history.clear();
        for (i, at) in arrivals.into_iter().enumerate() {
            let w = 20.0 + ((i * 7919) % 23) as f64; // pseudo-random, aperiodic
            est.push(Reading { arrived_at: at, watts: w });
        }
        let err = est.estimate_checked(&model).expect_err("garbage stream");
        assert!(matches!(err, FacilityError::AlignmentLowScore { .. }), "got {err}");
    }

    #[test]
    fn checked_estimate_flags_periodic_ambiguity() {
        // A pure 10 ms square wave with a 20 ms scan range: delays d and
        // d+10ms correlate identically, so the scan cannot pick one.
        let slot = SimDuration::from_millis(1);
        let mut model = TraceRing::new(slot, 4096);
        let mut est = DelayEstimator::new(
            SimDuration::from_millis(1),
            SimDuration::from_millis(20),
            SimDuration::from_millis(1),
            256,
        );
        for ms in 0..400u64 {
            let w = if (ms / 5) % 2 == 0 { 40.0 } else { 15.0 };
            let t = SimTime::from_millis(ms) + SimDuration::from_micros(500);
            model.add(t, w, SimDuration::from_millis(1));
            if ms >= 100 {
                est.push(Reading { arrived_at: SimTime::from_millis(ms + 3), watts: w });
            }
        }
        let err = est.estimate_checked(&model).expect_err("periodic tie");
        match err {
            FacilityError::AlignmentAmbiguous { best, runner_up, margin } => {
                let gap = if best > runner_up { best - runner_up } else { runner_up - best };
                assert_eq!(gap, SimDuration::from_millis(10), "aliased by one period");
                assert!(margin < 0.02, "near-tie, margin {margin}");
            }
            other => panic!("expected ambiguity, got {other}"),
        }
    }

    #[test]
    fn checked_estimate_accepts_fine_step_against_wall_meter() {
        // Wattsup geometry: a 1 s meter window scanned at 1 ms steps.
        // The correlation curve is smoothed over the window, so delays a
        // few steps from the best are near-ties by construction; they
        // must not be mistaken for competing peaks (only delays at least
        // half a window away can be). A 1.2 s true delay must survive
        // the ambiguity check.
        let slot = SimDuration::from_millis(100);
        let mut model = TraceRing::new(slot, 512);
        let mut est = DelayEstimator::new(
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_millis(1),
            128,
        );
        for sec in 0..20u64 {
            // Aperiodic per-second power level.
            let w = 20.0 + ((sec * 7919) % 13) as f64;
            for tenth in 0..10u64 {
                let t = SimTime::from_millis(sec * 1000 + tenth * 100 + 50);
                model.add(t, w, slot);
            }
            // The meter reports each 1 s window 1.2 s after it closes.
            est.push(Reading {
                arrived_at: SimTime::from_millis((sec + 1) * 1000 + 1200),
                watts: w,
            });
        }
        let r = est.estimate_checked(&model).expect("unambiguous scan");
        assert_eq!(r.delay, SimDuration::from_millis(1200), "score {}", r.score);
        assert!(r.score > 0.95);
    }

    /// Asserts the gridded fast path and the per-delay reference scan
    /// agree: same best delay, same curve shape to rounding.
    fn assert_paths_agree(model: &TraceRing<f64>, est: &DelayEstimator) {
        let fast = est.estimate(model);
        let slow = est.estimate_reference(model);
        match (fast, slow) {
            (None, None) => {}
            (Some(f), Some(s)) => {
                assert_eq!(f.delay, s.delay, "best delay diverged");
                assert!((f.score - s.score).abs() < 1e-9, "{} vs {}", f.score, s.score);
                assert_eq!(f.curve.len(), s.curve.len());
                for ((fd, fs), (sd, ss)) in f.curve.iter().zip(&s.curve) {
                    assert_eq!(fd, sd);
                    assert!((fs - ss).abs() < 1e-9, "curve point {fd:?}: {fs} vs {ss}");
                }
            }
            (f, s) => panic!("paths disagree on availability: {f:?} vs {s:?}"),
        }
    }

    #[test]
    fn gridded_path_matches_reference_scan() {
        for d in [0u64, 1, 7, 19] {
            let (model, est) = scenario(d);
            assert_paths_agree(&model, &est);
        }
    }

    #[test]
    fn gridded_path_matches_reference_with_evicted_history() {
        // A small model ring: the oldest hypothesized windows have been
        // evicted, so the shared series is truncated at the old end.
        let slot = SimDuration::from_millis(1);
        let mut model = TraceRing::new(slot, 64);
        let mut est = DelayEstimator::new(
            SimDuration::from_millis(1),
            SimDuration::from_millis(20),
            SimDuration::from_millis(1),
            256,
        );
        for ms in 0..400u64 {
            let w = if (ms / 25) % 2 == 0 { 40.0 } else { 15.0 } + ms as f64 * 0.01;
            let t = SimTime::from_millis(ms) + SimDuration::from_micros(500);
            model.add(t, w, SimDuration::from_millis(1));
            if ms >= 100 {
                est.push(Reading {
                    arrived_at: SimTime::from_millis(ms + 1 + 6),
                    watts: w * 1.02,
                });
            }
        }
        let r = est.estimate(&model).expect("alignment despite eviction");
        assert_eq!(r.delay, SimDuration::from_millis(6));
        assert_paths_agree(&model, &est);
    }

    #[test]
    fn jittered_arrivals_fall_back_to_reference() {
        let (model, mut est) = scenario(4);
        // Perturb one arrival so spacing is no longer exactly one step:
        // the fast path must decline and the scan still answer.
        let mut readings: Vec<Reading> = est.readings().copied().collect();
        readings[10].arrived_at += SimDuration::from_micros(3);
        est.history.clear();
        for r in readings {
            est.push(r);
        }
        assert!(!est.on_uniform_grid());
        let fast = est.estimate(&model).expect("fallback result");
        let slow = est.estimate_reference(&model).expect("reference result");
        assert_eq!(fast, slow, "fallback must be the reference scan verbatim");
    }

    #[test]
    fn non_finite_reading_falls_back_to_reference() {
        let (model, mut est) = scenario(2);
        let mut readings: Vec<Reading> = est.readings().copied().collect();
        readings[5].watts = f64::NAN;
        est.history.clear();
        for r in readings {
            est.push(r);
        }
        assert!(!est.on_uniform_grid());
        // Behavior (whatever it is, NaN-for-NaN) must match the
        // reference scan bit-for-bit.
        let fast = est.estimate(&model).expect("fallback result");
        let slow = est.estimate_reference(&model).expect("reference result");
        assert_eq!(fast.delay, slow.delay);
        assert_eq!(fast.score.to_bits(), slow.score.to_bits());
        assert_eq!(fast.curve.len(), slow.curve.len());
        for ((fd, fs), (sd, ss)) in fast.curve.iter().zip(&slow.curve) {
            assert_eq!(fd, sd);
            assert_eq!(fs.to_bits(), ss.to_bits());
        }
    }

    #[test]
    fn history_is_bounded() {
        let slot = SimDuration::from_millis(1);
        let mut est = DelayEstimator::new(slot, slot, slot, 4);
        for i in 0..10 {
            est.push(Reading { arrived_at: SimTime::from_millis(i), watts: i as f64 });
        }
        assert_eq!(est.len(), 4);
        assert!(!est.is_empty());
    }
}
