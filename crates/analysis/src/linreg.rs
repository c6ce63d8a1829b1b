//! Least-squares linear regression.
//!
//! Both the offline model calibration (§4.1) and the online recalibration
//! (§3.2) of the paper fit the coefficients of a linear power model by
//! minimizing squared error. We accumulate the normal equations
//! `XᵀWX β = XᵀWy` incrementally — so online recalibration can stream new
//! samples in — and solve the small dense system with partial-pivot
//! Gaussian elimination.

use std::fmt;

/// Error produced when a least-squares system cannot be solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// Fewer (weighted) samples than coefficients were provided.
    Underdetermined {
        /// Number of samples accumulated so far.
        samples: usize,
        /// Number of coefficients requested.
        coefficients: usize,
    },
    /// The normal-equation matrix is singular (e.g. a feature is constant
    /// zero or two features are perfectly collinear) and no ridge term was
    /// configured.
    Singular,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Underdetermined { samples, coefficients } => write!(
                f,
                "underdetermined system: {samples} samples for {coefficients} coefficients"
            ),
            SolveError::Singular => write!(f, "singular normal-equation matrix"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Incremental weighted least-squares accumulator.
///
/// Samples are `(features, target, weight)` triples. The solver returns the
/// coefficient vector `β` minimizing `Σ wᵢ (yᵢ − xᵢ·β)²`.
///
/// # Example
///
/// ```
/// use analysis::linreg::LeastSquares;
///
/// let mut ls = LeastSquares::new(1);
/// ls.add_sample(&[2.0], 4.0, 1.0);
/// ls.add_sample(&[3.0], 6.0, 1.0);
/// assert!((ls.solve().unwrap()[0] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LeastSquares {
    dim: usize,
    /// Upper-triangular-agnostic dense XᵀWX, row-major `dim × dim`.
    xtx: Vec<f64>,
    /// XᵀWy.
    xty: Vec<f64>,
    samples: usize,
    ridge: f64,
}

impl LeastSquares {
    /// Creates an accumulator for `dim` coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> LeastSquares {
        assert!(dim > 0, "dimension must be positive");
        LeastSquares {
            dim,
            xtx: vec![0.0; dim * dim],
            xty: vec![0.0; dim],
            samples: 0,
            ridge: 0.0,
        }
    }

    /// Creates an accumulator with a ridge (Tikhonov) regularization term
    /// `lambda`, which keeps the system solvable when some features never
    /// vary in the calibration set.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `lambda < 0`.
    pub fn with_ridge(dim: usize, lambda: f64) -> LeastSquares {
        assert!(lambda >= 0.0, "ridge parameter must be non-negative");
        let mut ls = LeastSquares::new(dim);
        ls.ridge = lambda;
        ls
    }

    /// Number of coefficients being fit.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of samples accumulated so far.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Adds one weighted sample.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != dim` or `weight < 0`.
    pub fn add_sample(&mut self, features: &[f64], target: f64, weight: f64) {
        assert_eq!(features.len(), self.dim, "feature dimension mismatch");
        assert!(weight >= 0.0, "weight must be non-negative");
        for i in 0..self.dim {
            let wfi = weight * features[i];
            for (j, &fj) in features.iter().enumerate() {
                self.xtx[i * self.dim + j] += wfi * fj;
            }
            self.xty[i] += wfi * target;
        }
        self.samples += 1;
    }

    /// Removes a previously-added sample by rank-1 downdate of the normal
    /// equations — the exact inverse of [`LeastSquares::add_sample`] up to
    /// floating-point rounding.
    ///
    /// This is what makes windowed online recalibration O(k²) per sample:
    /// evicting the oldest sample from a sliding window subtracts its
    /// contribution instead of rebuilding XᵀWX from the survivors. Callers
    /// that downdate millions of times should periodically rebuild from the
    /// retained samples to shed accumulated rounding (see
    /// [`RollingLeastSquares`], which does so automatically).
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != dim`, if `weight < 0`, or if no samples
    /// are accumulated.
    pub fn remove_sample(&mut self, features: &[f64], target: f64, weight: f64) {
        assert_eq!(features.len(), self.dim, "feature dimension mismatch");
        assert!(weight >= 0.0, "weight must be non-negative");
        assert!(self.samples > 0, "no samples to remove");
        for i in 0..self.dim {
            let wfi = weight * features[i];
            for (j, &fj) in features.iter().enumerate() {
                self.xtx[i * self.dim + j] -= wfi * fj;
            }
            self.xty[i] -= wfi * target;
        }
        self.samples -= 1;
    }

    /// Resets the accumulator to the empty state, keeping `dim` and ridge.
    pub fn clear(&mut self) {
        self.xtx.iter_mut().for_each(|v| *v = 0.0);
        self.xty.iter_mut().for_each(|v| *v = 0.0);
        self.samples = 0;
    }

    /// Merges the accumulated statistics of `other` into `self`.
    ///
    /// The paper's recalibration weighs offline calibration samples and
    /// online measurement samples equally; this lets the recalibrator keep
    /// the offline normal equations around and fold fresh online windows in
    /// without reprocessing the calibration set.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn merge(&mut self, other: &LeastSquares) {
        assert_eq!(self.dim, other.dim, "dimension mismatch in merge");
        for (a, b) in self.xtx.iter_mut().zip(&other.xtx) {
            *a += b;
        }
        for (a, b) in self.xty.iter_mut().zip(&other.xty) {
            *a += b;
        }
        self.samples += other.samples;
    }

    /// Solves the normal equations and returns the coefficient vector.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Underdetermined`] when fewer samples than
    /// coefficients have been added, or [`SolveError::Singular`] when the
    /// system has no unique solution and no ridge term was configured.
    pub fn solve(&self) -> Result<Vec<f64>, SolveError> {
        self.solve_conditioned().map(|(beta, _)| beta)
    }

    /// Like [`LeastSquares::solve`], but also returns a cheap condition
    /// estimate of the normal-equation matrix: the ratio of the largest
    /// to the smallest pivot magnitude met during elimination. A
    /// well-posed fit stays within a few orders of magnitude; a
    /// near-singular system (e.g. online samples all describing the same
    /// operating point) blows the ratio up, and a robust consumer should
    /// reject the fit rather than trust coefficients solved across a
    /// nearly-degenerate pivot.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LeastSquares::solve`].
    pub fn solve_conditioned(&self) -> Result<(Vec<f64>, f64), SolveError> {
        if self.samples < self.dim && self.ridge == 0.0 {
            return Err(SolveError::Underdetermined {
                samples: self.samples,
                coefficients: self.dim,
            });
        }
        let n = self.dim;
        let mut a = self.xtx.clone();
        for i in 0..n {
            a[i * n + i] += self.ridge;
        }
        let mut b = self.xty.clone();
        let condition = solve_dense(&mut a, &mut b, n)?;
        Ok((b, condition))
    }
}

/// Solves `A x = b` in place (result left in `b`) with partial pivoting;
/// returns the max/min pivot-magnitude ratio as a condition estimate.
fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) -> Result<f64, SolveError> {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n);
    let mut pivot_max = 0.0f64;
    let mut pivot_min = f64::INFINITY;
    for col in 0..n {
        // Find pivot.
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for row in (col + 1)..n {
            let mag = a[row * n + col].abs();
            if mag > best {
                best = mag;
                pivot = row;
            }
        }
        if best < 1e-12 {
            return Err(SolveError::Singular);
        }
        pivot_max = pivot_max.max(best);
        pivot_min = pivot_min.min(best);
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            b.swap(col, pivot);
        }
        // Eliminate below.
        let diag = a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in (col + 1)..n {
            acc -= a[col * n + k] * b[k];
        }
        b[col] = acc / a[col * n + col];
    }
    Ok(if pivot_min > 0.0 { pivot_max / pivot_min } else { f64::INFINITY })
}

/// Rebuild the rolling accumulator from scratch after this many evictions,
/// bounding the rounding drift that rank-1 downdates accumulate.
const ROLLING_REBUILD_EVERY: usize = 4096;

/// A sliding-window least-squares accumulator: the most recent `capacity`
/// samples, with the normal equations maintained incrementally.
///
/// `push` is O(k²) — a rank-1 update, plus a rank-1 downdate of the evicted
/// sample once the window is full — so a solve over the current window costs
/// O(k³) regardless of how many samples have ever streamed through. This is
/// the structure behind the paper's continuous online recalibration (§3.2):
/// model refits must stay cheap at any uptime, which rules out batch
/// re-accumulation over a growing sample set.
///
/// Downdates are exact in exact arithmetic but accumulate rounding in
/// floating point; the accumulator transparently rebuilds itself from the
/// retained window every 4,096 evictions, so drift is
/// bounded and callers never see it.
///
/// # Example
///
/// ```
/// use analysis::linreg::RollingLeastSquares;
///
/// let mut win = RollingLeastSquares::new(1, 3);
/// for y in [1.0, 2.0, 30.0, 30.0, 30.0] {
///     win.push(&[1.0], y, 1.0);
/// }
/// // Only the last three samples remain.
/// assert_eq!(win.len(), 3);
/// assert!((win.solve().unwrap()[0] - 30.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RollingLeastSquares {
    acc: LeastSquares,
    /// Flat ring storage: `capacity` rows of `dim` features each.
    features: Vec<f64>,
    targets: Vec<f64>,
    weights: Vec<f64>,
    capacity: usize,
    /// Index of the oldest sample's row.
    head: usize,
    len: usize,
    evictions_since_rebuild: usize,
}

impl RollingLeastSquares {
    /// Creates a window for `dim` coefficients holding up to `capacity`
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `capacity == 0`.
    pub fn new(dim: usize, capacity: usize) -> RollingLeastSquares {
        assert!(capacity > 0, "capacity must be positive");
        RollingLeastSquares {
            acc: LeastSquares::new(dim),
            features: vec![0.0; dim * capacity],
            targets: vec![0.0; capacity],
            weights: vec![0.0; capacity],
            capacity,
            head: 0,
            len: 0,
            evictions_since_rebuild: 0,
        }
    }

    /// Number of coefficients being fit.
    pub fn dim(&self) -> usize {
        self.acc.dim()
    }

    /// Samples currently in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of samples retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a sample, evicting (and downdating) the oldest one if the
    /// window is full. Returns `true` if an eviction happened.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != dim` or `weight < 0`.
    pub fn push(&mut self, features: &[f64], target: f64, weight: f64) -> bool {
        let dim = self.acc.dim();
        assert_eq!(features.len(), dim, "feature dimension mismatch");
        let evicted = if self.len == self.capacity {
            let row = self.head * dim;
            // Split borrow: copy the evicted row out before mutating.
            let old: Vec<f64> = self.features[row..row + dim].to_vec();
            self.acc.remove_sample(&old, self.targets[self.head], self.weights[self.head]);
            self.head = (self.head + 1) % self.capacity;
            self.len -= 1;
            self.evictions_since_rebuild += 1;
            true
        } else {
            false
        };
        let slot = (self.head + self.len) % self.capacity;
        self.features[slot * dim..(slot + 1) * dim].copy_from_slice(features);
        self.targets[slot] = target;
        self.weights[slot] = weight;
        self.len += 1;
        self.acc.add_sample(features, target, weight);
        if self.evictions_since_rebuild >= ROLLING_REBUILD_EVERY {
            self.rebuild();
        }
        evicted
    }

    /// Drops every sample from the window.
    pub fn clear(&mut self) {
        self.acc.clear();
        self.head = 0;
        self.len = 0;
        self.evictions_since_rebuild = 0;
    }

    /// The normal-equation accumulator over the current window, e.g. for
    /// merging into an offline calibration fit.
    pub fn accumulator(&self) -> &LeastSquares {
        &self.acc
    }

    /// Iterates the window's samples oldest-first as
    /// `(features, target, weight)`.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64, f64)> + '_ {
        let dim = self.acc.dim();
        (0..self.len).map(move |i| {
            let slot = (self.head + i) % self.capacity;
            (&self.features[slot * dim..(slot + 1) * dim], self.targets[slot], self.weights[slot])
        })
    }

    /// Solves the normal equations over the current window.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LeastSquares::solve`].
    pub fn solve(&self) -> Result<Vec<f64>, SolveError> {
        self.acc.solve()
    }

    /// Re-accumulates the normal equations from the retained samples,
    /// discarding downdate rounding drift.
    fn rebuild(&mut self) {
        let dim = self.acc.dim();
        self.acc.clear();
        for i in 0..self.len {
            let slot = (self.head + i) % self.capacity;
            let row = slot * dim;
            // Rebuild uses the same add order as streaming, so the result
            // matches a fresh accumulator fed the window oldest-first.
            let feats: Vec<f64> = self.features[row..row + dim].to_vec();
            self.acc.add_sample(&feats, self.targets[slot], self.weights[slot]);
        }
        self.evictions_since_rebuild = 0;
    }
}

/// Convenience one-shot fit of `targets ≈ features · β` with unit weights.
///
/// # Errors
///
/// Propagates [`SolveError`] from [`LeastSquares::solve`].
///
/// # Panics
///
/// Panics if `features.len() != targets.len()`, if `features` is empty, or
/// if rows have inconsistent lengths.
pub fn fit(features: &[Vec<f64>], targets: &[f64]) -> Result<Vec<f64>, SolveError> {
    assert_eq!(features.len(), targets.len(), "row count mismatch");
    assert!(!features.is_empty(), "no samples provided");
    let dim = features[0].len();
    let mut ls = LeastSquares::new(dim);
    for (row, &y) in features.iter().zip(targets) {
        ls.add_sample(row, y, 1.0);
    }
    ls.solve()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_fit() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![1.0, i as f64]).collect();
        let ys: Vec<f64> = (0..5).map(|i| 1.5 + 0.5 * i as f64).collect();
        let beta = fit(&xs, &ys).unwrap();
        assert!((beta[0] - 1.5).abs() < 1e-10);
        assert!((beta[1] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn multi_feature_fit() {
        // y = 2a - b + 3c
        let rows = vec![
            (vec![1.0, 0.0, 0.0], 2.0),
            (vec![0.0, 1.0, 0.0], -1.0),
            (vec![0.0, 0.0, 1.0], 3.0),
            (vec![1.0, 1.0, 1.0], 4.0),
            (vec![2.0, 1.0, 0.5], 4.5),
        ];
        let (xs, ys): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        let beta = fit(&xs, &ys).unwrap();
        for (got, want) in beta.iter().zip([2.0, -1.0, 3.0]) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn weighted_samples_dominate() {
        let mut ls = LeastSquares::new(1);
        ls.add_sample(&[1.0], 10.0, 1000.0);
        ls.add_sample(&[1.0], 0.0, 1.0);
        ls.add_sample(&[1.0], 0.0, 1.0);
        let beta = ls.solve().unwrap();
        assert!(beta[0] > 9.9, "weighted mean should be near 10, got {}", beta[0]);
    }

    #[test]
    fn underdetermined_reports_error() {
        let mut ls = LeastSquares::new(3);
        ls.add_sample(&[1.0, 2.0, 3.0], 1.0, 1.0);
        assert!(matches!(
            ls.solve(),
            Err(SolveError::Underdetermined { samples: 1, coefficients: 3 })
        ));
    }

    #[test]
    fn singular_reports_error() {
        let mut ls = LeastSquares::new(2);
        // Second feature is always zero → singular without ridge.
        for i in 0..5 {
            ls.add_sample(&[i as f64, 0.0], i as f64, 1.0);
        }
        assert_eq!(ls.solve(), Err(SolveError::Singular));
    }

    #[test]
    fn ridge_rescues_singular_system() {
        let mut ls = LeastSquares::with_ridge(2, 1e-6);
        for i in 0..5 {
            ls.add_sample(&[i as f64, 0.0], 2.0 * i as f64, 1.0);
        }
        let beta = ls.solve().unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-3);
        assert!(beta[1].abs() < 1e-3);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut all = LeastSquares::new(2);
        let mut left = LeastSquares::new(2);
        let mut right = LeastSquares::new(2);
        for i in 0..10 {
            let row = [1.0, i as f64];
            let y = 3.0 + 0.25 * i as f64;
            all.add_sample(&row, y, 1.0);
            if i % 2 == 0 {
                left.add_sample(&row, y, 1.0);
            } else {
                right.add_sample(&row, y, 1.0);
            }
        }
        left.merge(&right);
        let a = all.solve().unwrap();
        let b = left.solve().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_diagonal() {
        // First normal-equation pivot would be zero without row exchange.
        let rows = vec![
            (vec![0.0, 1.0], 5.0),
            (vec![1.0, 0.0], 7.0),
            (vec![1.0, 1.0], 12.0),
        ];
        let (xs, ys): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        let beta = fit(&xs, &ys).unwrap();
        assert!((beta[0] - 7.0).abs() < 1e-9);
        assert!((beta[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn condition_estimate_separates_good_from_bad() {
        // Well-spread features: pivots stay comparable.
        let mut good = LeastSquares::new(2);
        for i in 0..10 {
            good.add_sample(&[1.0, i as f64 / 10.0], i as f64, 1.0);
        }
        let (_, cond_good) = good.solve_conditioned().unwrap();
        // Nearly collinear features: pivot ratio explodes.
        let mut bad = LeastSquares::new(2);
        for i in 0..10 {
            let x = i as f64 / 10.0;
            let jitter = 1e-6 * (i % 3) as f64;
            bad.add_sample(&[x, x + jitter], x, 1.0);
        }
        let (_, cond_bad) = bad.solve_conditioned().unwrap();
        assert!(cond_good < 1e3, "good condition {cond_good}");
        assert!(cond_bad > 1e6, "bad condition {cond_bad}");
    }

    #[test]
    fn solve_matches_solve_conditioned() {
        let mut ls = LeastSquares::new(2);
        for i in 0..6 {
            ls.add_sample(&[1.0, i as f64], 2.0 + 3.0 * i as f64, 1.0);
        }
        let a = ls.solve().unwrap();
        let (b, cond) = ls.solve_conditioned().unwrap();
        assert_eq!(a, b);
        assert!(cond.is_finite() && cond >= 1.0);
    }

    #[test]
    fn remove_sample_inverts_add() {
        let mut ls = LeastSquares::new(2);
        for i in 0..6 {
            ls.add_sample(&[1.0, i as f64], 2.0 + 3.0 * i as f64, 1.0);
        }
        let before = ls.solve().unwrap();
        ls.add_sample(&[4.0, -2.0], 100.0, 2.5);
        ls.remove_sample(&[4.0, -2.0], 100.0, 2.5);
        let after = ls.solve().unwrap();
        for (x, y) in before.iter().zip(&after) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
        assert_eq!(ls.samples(), 6);
    }

    #[test]
    fn rolling_window_matches_batch_over_tail() {
        let mut win = RollingLeastSquares::new(2, 8);
        let mut all: Vec<(Vec<f64>, f64)> = Vec::new();
        for i in 0..50 {
            let row = vec![1.0, (i % 13) as f64];
            let y = 4.0 - 0.75 * row[1] + 0.01 * (i % 7) as f64;
            win.push(&row, y, 1.0);
            all.push((row, y));
        }
        assert_eq!(win.len(), 8);
        // Batch-fit only the retained tail.
        let mut batch = LeastSquares::new(2);
        for (row, y) in &all[42..] {
            batch.add_sample(row, *y, 1.0);
        }
        let a = win.solve().unwrap();
        let b = batch.solve().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn rolling_iter_is_oldest_first() {
        let mut win = RollingLeastSquares::new(1, 3);
        for y in [1.0, 2.0, 3.0, 4.0, 5.0] {
            win.push(&[1.0], y, 1.0);
        }
        let targets: Vec<f64> = win.iter().map(|(_, y, _)| y).collect();
        assert_eq!(targets, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn rolling_rebuild_bounds_drift() {
        // Stream far past the rebuild threshold; the window must still
        // agree with a fresh batch fit of its contents.
        let mut win = RollingLeastSquares::new(2, 4);
        for i in 0..(super::ROLLING_REBUILD_EVERY as u64 + 100) {
            let x = (i % 17) as f64 * 1e3;
            win.push(&[1.0, x], 5.0 + 2.0 * x, 1.0);
        }
        let mut batch = LeastSquares::new(2);
        for (row, y, w) in win.iter() {
            batch.add_sample(row, y, w);
        }
        let a = win.solve().unwrap();
        let b = batch.solve().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn rolling_clear_resets() {
        let mut win = RollingLeastSquares::new(1, 4);
        win.push(&[1.0], 2.0, 1.0);
        win.clear();
        assert!(win.is_empty());
        assert_eq!(win.accumulator().samples(), 0);
        assert!(win.solve().is_err());
    }

    #[test]
    fn display_messages() {
        let e = SolveError::Underdetermined { samples: 1, coefficients: 2 };
        assert!(e.to_string().contains("underdetermined"));
        assert!(SolveError::Singular.to_string().contains("singular"));
    }
}
