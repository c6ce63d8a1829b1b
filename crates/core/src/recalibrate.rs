//! Online model recalibration (paper §3.2).
//!
//! Aligned measurement windows yield `(machine metrics, measured active
//! power)` pairs for the *production* workload. The recalibrator folds
//! these into the offline calibration's normal equations — "weighed
//! equally in the square error minimization target" — and refits the
//! coefficients by least-squares, correcting for the mismatch between
//! calibration microbenchmarks and unusually high-power production
//! behaviour (the Stress / power-virus case).

use crate::calibrate::CalibrationSet;
use crate::error::FacilityError;
use crate::metrics::{MetricVector, FEATURES};
use crate::model::{ModelKind, PowerModel};
use analysis::linreg::{LeastSquares, RollingLeastSquares};

/// Acceptance policy for online refits: a fit must be well-conditioned
/// and consistent with the recent sample window before the facility will
/// serve it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefitPolicy {
    /// Largest acceptable condition estimate (max/min pivot ratio) of
    /// the combined normal equations.
    pub max_condition: f64,
    /// A recent sample is an outlier when its residual deviates from the
    /// window's median residual by more than this many robust standard
    /// deviations.
    pub outlier_sigma: f64,
    /// Floor on the robust residual scale, in Watts, so a near-constant
    /// window doesn't flag measurement noise as outliers.
    pub outlier_scale_floor_w: f64,
    /// Largest tolerable outlier fraction in the screened window; above
    /// it the whole fit is rejected as contaminated.
    pub max_outlier_frac: f64,
    /// Consecutive rejected refits after which the last-good model is
    /// considered stale and the online accumulator should be rebuilt
    /// from scratch (the bounded-staleness guard).
    pub max_rejected_streak: u32,
}

impl Default for RefitPolicy {
    fn default() -> RefitPolicy {
        RefitPolicy {
            max_condition: 1e10,
            outlier_sigma: 4.0,
            outlier_scale_floor_w: 0.75,
            max_outlier_frac: 0.25,
            max_rejected_streak: 4,
        }
    }
}

/// Online sample window: refits and outlier screening both run over the
/// most recent `RECENT_CAP` samples. The window's normal equations are
/// maintained incrementally (rank-1 update per add, rank-1 downdate per
/// eviction), so a refit is an O(k³) solve regardless of uptime — the
/// paper's ~16 µs recalibration cost (§3.5) presumes exactly this kind of
/// running-accumulator structure, not a batch re-accumulation.
const RECENT_CAP: usize = 256;

/// Minimum screened-window size; smaller windows skip the outlier test.
const MIN_SCREEN: usize = 8;

/// Streams aligned online samples into a refit of the power model.
///
/// # Example
///
/// ```
/// use power_containers::{
///     CalibrationSample, CalibrationSet, MetricVector, ModelKind, Recalibrator,
/// };
///
/// let mut set = CalibrationSet::new(26.1);
/// for i in 1..=10 {
///     let u = i as f64 / 10.0;
///     set.push(CalibrationSample {
///         metrics: MetricVector { core: u, chipshare: 1.0, ..Default::default() },
///         active_watts: 8.0 * u + 5.6,
///     });
/// }
/// let mut r = Recalibrator::new(&set, ModelKind::WithChipShare);
/// // Production workload draws more power than calibration predicted:
/// for _ in 0..50 {
///     let m = MetricVector { core: 1.0, mem: 0.04, chipshare: 1.0, ..Default::default() };
///     r.add_online_sample(m, 22.0);
/// }
/// let model = r.refit().unwrap();
/// assert!(model.active_power(&MetricVector {
///     core: 1.0, mem: 0.04, chipshare: 1.0, ..Default::default()
/// }) > 18.0);
/// ```
#[derive(Debug, Clone)]
pub struct Recalibrator {
    offline: LeastSquares,
    /// Sliding window of recent online samples with incrementally
    /// maintained normal equations; serves both the refit accumulator
    /// and the outlier-screening sample set.
    window: RollingLeastSquares,
    kind: ModelKind,
    idle_w: f64,
    online_samples: usize,
    samples_since_fit: usize,
    last_good: Option<PowerModel>,
    rejected_streak: u32,
    policy: RefitPolicy,
}

impl Recalibrator {
    /// Creates a recalibrator seeded with the offline calibration set.
    pub fn new(offline: &CalibrationSet, kind: ModelKind) -> Recalibrator {
        Recalibrator {
            offline: offline.accumulator(kind),
            window: RollingLeastSquares::new(FEATURES, RECENT_CAP),
            kind,
            idle_w: offline.idle_w(),
            online_samples: 0,
            samples_since_fit: 0,
            last_good: None,
            rejected_streak: 0,
            policy: RefitPolicy::default(),
        }
    }

    /// Replaces the refit acceptance policy.
    pub fn set_policy(&mut self, policy: RefitPolicy) {
        self.policy = policy;
    }

    /// The active refit acceptance policy.
    pub fn policy(&self) -> &RefitPolicy {
        &self.policy
    }

    /// Adds one aligned online observation: machine-level metrics over a
    /// measurement window and the measured *active* power for that window.
    ///
    /// O(k²) for k model features: a rank-1 update of the window's normal
    /// equations, plus a rank-1 downdate of the evicted sample once the
    /// window is full. Samples older than the window no longer influence
    /// refits, which also bounds how long a transient glitch can poison
    /// the accumulator.
    pub fn add_online_sample(&mut self, metrics: MetricVector, active_watts: f64) {
        let m = PowerModel::mask_metrics(self.kind, metrics);
        let watts = active_watts.max(0.0);
        self.window.push(&m.as_array(), watts, 1.0);
        self.online_samples += 1;
        self.samples_since_fit += 1;
    }

    /// Number of online samples accumulated.
    pub fn online_samples(&self) -> usize {
        self.online_samples
    }

    /// Number of samples added since the last [`Recalibrator::refit`].
    pub fn samples_since_fit(&self) -> usize {
        self.samples_since_fit
    }

    /// The model produced by the most recent accepted refit, if any.
    pub fn last_good(&self) -> Option<&PowerModel> {
        self.last_good.as_ref()
    }

    /// Consecutive refit rejections since the last accepted fit.
    pub fn rejected_streak(&self) -> u32 {
        self.rejected_streak
    }

    /// `true` once the rejection streak exceeds the policy's staleness
    /// bound: whatever model the facility is serving is too old to keep
    /// trusting, and the online accumulator is likely poisoned.
    pub fn is_stale(&self) -> bool {
        self.rejected_streak > self.policy.max_rejected_streak
    }

    /// Drops all accumulated online state (accumulator, screen window,
    /// rejection streak), keeping the offline equations and the last
    /// good model. The staleness recovery path: contaminated samples
    /// live in the accumulator forever, so once refits keep failing the
    /// only way back is a clean window.
    ///
    /// Returns the number of window samples discarded, so the caller can
    /// surface the reset in traces instead of losing the window silently.
    pub fn reset_online(&mut self) -> usize {
        let discarded = self.window.len();
        self.window.clear();
        self.samples_since_fit = 0;
        self.rejected_streak = 0;
        discarded
    }

    /// Number of samples currently in the rolling online window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Refits coefficients over the offline set plus the recent online
    /// window, equally weighted, then screens the candidate: ill-conditioned systems and
    /// fits that disagree with too much of the recent sample window are
    /// rejected, leaving the caller on its previous (last-good) model.
    ///
    /// # Errors
    ///
    /// [`FacilityError::Solve`] when the combined system is unsolvable,
    /// [`FacilityError::IllConditioned`] /
    /// [`FacilityError::OutlierContaminated`] when the candidate fails
    /// screening. Any error resets the between-refits sample counter and
    /// extends the rejection streak.
    pub fn refit(&mut self) -> Result<PowerModel, FacilityError> {
        self.samples_since_fit = 0;
        let mut combined = self.offline.clone();
        combined.merge(self.window.accumulator());
        let (beta, condition) = match combined.solve_conditioned() {
            Ok(ok) => ok,
            Err(e) => {
                self.rejected_streak += 1;
                return Err(e.into());
            }
        };
        if condition > self.policy.max_condition {
            self.rejected_streak += 1;
            return Err(FacilityError::IllConditioned {
                condition,
                limit: self.policy.max_condition,
            });
        }
        let mut coeffs = [0.0; FEATURES];
        coeffs.copy_from_slice(&beta);
        let model = PowerModel::new(self.kind, self.idle_w, coeffs);
        if let Err(e) = self.screen_outliers(&model) {
            self.rejected_streak += 1;
            return Err(e);
        }
        self.rejected_streak = 0;
        self.last_good = Some(model.clone());
        Ok(model)
    }

    /// Rejects `model` when too many recent samples sit far from it
    /// *and* those far samples are mutually inconsistent. Deviation is
    /// measured against the window's median residual, and a flagged set
    /// whose residuals are themselves tightly clustered is treated as a
    /// coherent workload mode the linear family cannot express (the
    /// legitimate recalibration case — least squares already balances
    /// it), while scattered deviations (glitched windows, corrupted
    /// readings) reject the fit.
    fn screen_outliers(&self, model: &PowerModel) -> Result<(), FacilityError> {
        if self.window.len() < MIN_SCREEN {
            return Ok(());
        }
        let residuals: Vec<f64> = self
            .window
            .iter()
            .map(|(feat, watts, _)| {
                watts - model.active_power(&MetricVector::from_slice(feat))
            })
            .collect();
        let median = median_of(&mut residuals.clone());
        let mut deviations: Vec<f64> =
            residuals.iter().map(|r| (r - median).abs()).collect();
        let mad = median_of(&mut deviations);
        // 1.4826 · MAD estimates σ for Gaussian residuals.
        let scale = (1.4826 * mad).max(self.policy.outlier_scale_floor_w);
        let threshold = self.policy.outlier_sigma * scale;
        let flagged: Vec<f64> = residuals
            .iter()
            .copied()
            .filter(|r| (r - median).abs() > threshold)
            .collect();
        let (outliers, screened) = (flagged.len(), residuals.len());
        if outliers as f64 <= self.policy.max_outlier_frac * screened as f64 {
            return Ok(());
        }
        // Coherence test on the flagged set: corruption scatters, a real
        // secondary operating point clusters.
        let flagged_median = median_of(&mut flagged.clone());
        let mut flagged_dev: Vec<f64> =
            flagged.iter().map(|r| (r - flagged_median).abs()).collect();
        let flagged_spread = 1.4826 * median_of(&mut flagged_dev);
        if flagged_spread <= threshold {
            return Ok(());
        }
        Err(FacilityError::OutlierContaminated { outliers, screened })
    }
}


/// The element at index `len / 2` of `values` sorted by
/// [`f64::total_cmp`] (the upper middle for an even length), found by
/// selection; `values` is left partially reordered. Equal under
/// `total_cmp` means identical bits, so this is the sorting median bit
/// for bit.
fn median_of(values: &mut [f64]) -> f64 {
    *values.select_nth_unstable_by(values.len() / 2, f64::total_cmp).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::CalibrationSample;

    /// Calibration set from a linear law missing an interaction the
    /// production workload exhibits.
    fn offline_set() -> CalibrationSet {
        let mut set = CalibrationSet::new(26.1);
        for level in [0.25, 0.5, 0.75, 1.0f64] {
            for f in 0..6 {
                let mut a = [0.0; FEATURES];
                a[0] = level;
                a[f] = level;
                a[5] = 1.0;
                let truth = [8.0, 3.0, 1.5, 3.5, 2.0, 5.6, 0.0, 0.0];
                let watts: f64 = a.iter().zip(truth).map(|(x, c)| x * c).sum();
                set.push(CalibrationSample {
                    metrics: MetricVector::from_slice(&a),
                    active_watts: watts,
                });
            }
        }
        set
    }

    /// A "Stress"-like workload point whose true power exceeds the linear
    /// law the offline model was fit to (hidden co-activity term).
    fn stress_point() -> (MetricVector, f64) {
        let m = MetricVector {
            core: 1.0,
            ins: 3.4,
            float: 1.5,
            cache: 0.08,
            mem: 0.0425,
            chipshare: 1.0,
            disk: 0.0,
            net: 0.0,
        };
        // Linear part ≈ 8 + 10.2 + 2.25 + 0.28 + 0.085 + 5.6 = 26.4 W;
        // true power has +6 W of unmodeled interaction.
        (m, 32.4)
    }

    #[test]
    fn offline_model_underestimates_stress() {
        let set = offline_set();
        let model = set.fit(ModelKind::WithChipShare).unwrap();
        let (m, truth) = stress_point();
        let err = (model.active_power(&m) - truth).abs() / truth;
        assert!(err > 0.1, "offline model should be >10% off, got {err:.3}");
    }

    #[test]
    fn recalibration_fixes_stress_estimate() {
        let set = offline_set();
        let mut r = Recalibrator::new(&set, ModelKind::WithChipShare);
        let (m, truth) = stress_point();
        for _ in 0..200 {
            r.add_online_sample(m, truth);
        }
        let model = r.refit().unwrap();
        let err = (model.active_power(&m) - truth).abs() / truth;
        assert!(err < 0.03, "recalibrated error should be small, got {err:.3}");
    }

    #[test]
    fn refit_without_online_samples_matches_offline_fit() {
        let set = offline_set();
        let offline_model = set.fit(ModelKind::WithChipShare).unwrap();
        let mut r = Recalibrator::new(&set, ModelKind::WithChipShare);
        let refit = r.refit().unwrap();
        for (a, b) in offline_model.coefficients().iter().zip(refit.coefficients()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn sample_counters_track_fits() {
        let set = offline_set();
        let mut r = Recalibrator::new(&set, ModelKind::WithChipShare);
        let (m, w) = stress_point();
        r.add_online_sample(m, w);
        r.add_online_sample(m, w);
        assert_eq!(r.online_samples(), 2);
        assert_eq!(r.samples_since_fit(), 2);
        let _ = r.refit().unwrap();
        assert_eq!(r.samples_since_fit(), 0);
        assert_eq!(r.online_samples(), 2);
    }

    #[test]
    fn negative_measured_power_is_clamped() {
        let set = offline_set();
        let mut r = Recalibrator::new(&set, ModelKind::WithChipShare);
        let (m, _) = stress_point();
        r.add_online_sample(m, -5.0); // noisy meter minus idle can dip below 0
        let model = r.refit().unwrap();
        assert!(model.active_power(&m) >= 0.0);
    }

    #[test]
    fn contaminated_window_rejects_refit_but_keeps_last_good() {
        let set = offline_set();
        let mut r = Recalibrator::new(&set, ModelKind::WithChipShare);
        let (m, truth) = stress_point();
        for _ in 0..100 {
            r.add_online_sample(m, truth);
        }
        let good = r.refit().expect("clean refit accepted");
        assert!(r.last_good().is_some());
        assert_eq!(r.rejected_streak(), 0);
        // A burst of corrupted readings (glitched windows) lands: wild
        // power values scattered around the same operating point.
        for i in 0..60 {
            let watts = if i % 2 == 0 { 0.0 } else { 200.0 };
            r.add_online_sample(m, watts);
        }
        let err = r.refit().expect_err("contaminated refit must be rejected");
        assert!(
            matches!(err, FacilityError::OutlierContaminated { .. }),
            "unexpected error {err}"
        );
        assert_eq!(r.rejected_streak(), 1);
        assert_eq!(r.samples_since_fit(), 0, "rejection still resets the batch");
        // The last good model is untouched by the rejected candidate.
        let kept = r.last_good().expect("kept");
        assert_eq!(kept.coefficients(), good.coefficients());
    }

    #[test]
    fn coherent_secondary_mode_is_not_contamination() {
        // A workload alternating between two operating points, one of
        // which carries unmodeled power the linear family can't fit.
        // Least squares balances the two; the screen must accept the fit
        // even though the minority mode's residuals exceed the threshold.
        let set = offline_set();
        let mut r = Recalibrator::new(&set, ModelKind::WithChipShare);
        let (m, truth) = stress_point();
        let quiet = MetricVector { core: 0.3, ins: 0.5, chipshare: 1.0, ..Default::default() };
        let quiet_watts = 0.3 * 8.0 + 0.5 * 3.0 + 5.6;
        for _ in 0..100 {
            r.add_online_sample(quiet, quiet_watts);
        }
        for _ in 0..40 {
            r.add_online_sample(m, truth + 30.0); // +30 W hidden interaction
        }
        r.refit().expect("a tight secondary mode is legitimate workload");
        assert_eq!(r.rejected_streak(), 0);
    }

    #[test]
    fn condition_limit_rejects_fit() {
        let set = offline_set();
        let mut r = Recalibrator::new(&set, ModelKind::WithChipShare);
        r.set_policy(RefitPolicy { max_condition: 1.0, ..RefitPolicy::default() });
        let (m, truth) = stress_point();
        for _ in 0..20 {
            r.add_online_sample(m, truth);
        }
        let err = r.refit().expect_err("must exceed a condition limit of 1");
        assert!(matches!(err, FacilityError::IllConditioned { .. }), "got {err}");
        assert!(r.last_good().is_none());
    }

    #[test]
    fn rejection_streak_drives_staleness_and_reset_recovers() {
        let set = offline_set();
        let mut r = Recalibrator::new(&set, ModelKind::WithChipShare);
        r.set_policy(RefitPolicy { max_rejected_streak: 2, ..RefitPolicy::default() });
        let (m, truth) = stress_point();
        // Poison a third of the window so every refit is rejected as
        // contaminated (the MAD screen needs a clean majority).
        for _ in 0..100 {
            r.add_online_sample(m, truth);
        }
        for i in 0..50 {
            r.add_online_sample(m, if i % 2 == 0 { 0.0 } else { 200.0 });
        }
        for _ in 0..3 {
            let _ = r.refit().expect_err("poisoned accumulator");
        }
        assert!(r.is_stale(), "streak of 3 > bound of 2");
        // Bounded-staleness recovery: rebuild from a clean window. The
        // discard count reports the whole poisoned window.
        let discarded = r.reset_online();
        assert_eq!(discarded, 150.min(super::RECENT_CAP));
        assert_eq!(r.window_len(), 0);
        assert!(!r.is_stale());
        assert_eq!(r.samples_since_fit(), 0);
        for _ in 0..50 {
            r.add_online_sample(m, truth);
        }
        let model = r.refit().expect("clean window fits again");
        let err = (model.active_power(&m) - truth).abs() / truth;
        assert!(err < 0.05, "recovered fit error {err:.3}");
        assert_eq!(r.rejected_streak(), 0);
    }

    mod median {
        use super::super::median_of;
        use proptest::prelude::*;

        /// Few distinct values, signed zeros and NaNs of both signs, so
        /// ties and `total_cmp`'s ordering of them come up constantly.
        fn arb_residual() -> impl Strategy<Value = f64> {
            prop_oneof![
                prop::sample::select(vec![
                    0.0,
                    -0.0,
                    1.5,
                    -1.5,
                    f64::NAN,
                    -f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ]),
                (-4i32..4).prop_map(f64::from),
                -1e3f64..1e3,
            ]
        }

        proptest! {
            /// Selection returns the element a full `total_cmp` sort puts
            /// at `len / 2`, bit for bit.
            #[test]
            fn selection_median_matches_sorting_median(
                values in prop::collection::vec(arb_residual(), 1..300),
            ) {
                let mut sorted = values.clone();
                sorted.sort_by(f64::total_cmp);
                let want = sorted[sorted.len() / 2];
                let got = median_of(&mut values.clone());
                prop_assert_eq!(got.to_bits(), want.to_bits(), "median of {:?}", values);
            }
        }
    }
}
