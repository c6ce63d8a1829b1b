//! Measurement/model alignment cross-correlation (paper Eq. 4).
//!
//! Power measurements arrive with an unknown delivery delay (≈1 ms for the
//! SandyBridge on-chip meter, ≈1.2 s for the Wattsup meter in the paper).
//! The paper aligns the measurement and model sample sequences by computing
//! their cross-correlation at a range of hypothetical delays and picking the
//! delay with the highest correlation.
//!
//! # Fast curve evaluation
//!
//! The naive scan recomputes means, variances, and the cross term from
//! scratch at every lag — `O(N·L)` for `N` samples and `L` lags, plus an
//! allocation per lag. [`normalized_correlation_curve`] instead:
//!
//! * centers both series by their global means (Pearson correlation is
//!   shift-invariant, and centering avoids catastrophic cancellation in
//!   the `Σx² − (Σx)²/n` forms),
//! * keeps prefix sums of values and squared values, so each lag's window
//!   sums, means, and variances are `O(1)`,
//! * computes the per-lag cross products `Σ aᵢ·bᵢ₊ₖ` either with direct
//!   sums, sixteen lags per pass (small inputs), or a single FFT
//!   cross-correlation (large inputs), making the whole curve
//!   `O((N+L) log (N+L))`.
//!
//! The naive implementation is retained as the reference oracle
//! ([`find_alignment_naive`], [`normalized_cross_correlation`]); property
//! tests pin the two to within `1e-9` of each other.
//!
//! # Ties and poisoned samples
//!
//! Delay scans break exact score ties toward the **smallest lag**: the
//! earliest hypothesis wins, so a flat or periodic correlation curve yields
//! a stable, deterministic answer. Non-finite scores (a NaN measurement or
//! model sample poisons every window containing it) are never selected as
//! the peak; if no lag produces a finite score the scan reports `None`
//! rather than letting a poisoned lag win silently.

use std::sync::OnceLock;

/// The cross-correlation of a measurement series against a model series at
/// one hypothetical delay of `lag` samples (Eq. 4).
///
/// `measure[i]` is compared against `model[i + lag]`: the measurement is
/// hypothesized to describe what the model estimated `lag` samples earlier.
/// Series are expected most-recent-first, matching the paper's notation.
/// Returns 0.0 when the overlap is empty.
///
/// # Example
///
/// ```
/// use analysis::xcorr::cross_correlation;
///
/// let model = [1.0, 5.0, 1.0, 1.0];
/// let measure = [5.0, 1.0, 1.0];
/// // The spike appears one sample later in the measurement.
/// assert!(cross_correlation(&measure, &model, 1) > cross_correlation(&measure, &model, 0));
/// ```
pub fn cross_correlation(measure: &[f64], model: &[f64], lag: usize) -> f64 {
    let overlap = measure.len().min(model.len().saturating_sub(lag));
    (0..overlap).map(|i| measure[i] * model[i + lag]).sum()
}

/// A normalized (Pearson-style) variant of [`cross_correlation`] that is
/// robust to differing sample counts per lag: raw Eq. 4 sums grow with the
/// overlap length, so comparing lags with very different overlaps can be
/// skewed. Returns a value in `[-1, 1]`, or 0.0 when the overlap is shorter
/// than two samples or either side is constant.
///
/// This is the *reference* per-lag implementation; use
/// [`normalized_correlation_curve`] to evaluate every lag at once.
pub fn normalized_cross_correlation(measure: &[f64], model: &[f64], lag: usize) -> f64 {
    let overlap = measure.len().min(model.len().saturating_sub(lag));
    if overlap < 2 {
        return 0.0;
    }
    let ms = &measure[..overlap];
    let mm: Vec<f64> = (0..overlap).map(|i| model[i + lag]).collect();
    let mean_a = ms.iter().sum::<f64>() / overlap as f64;
    let mean_b = mm.iter().sum::<f64>() / overlap as f64;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for i in 0..overlap {
        let da = ms[i] - mean_a;
        let db = mm[i] - mean_b;
        cov += da * db;
        var_a += da * da;
        var_b += db * db;
    }
    if var_a <= 0.0 || var_b <= 0.0 {
        return 0.0;
    }
    cov / (var_a.sqrt() * var_b.sqrt())
}

/// Above this many multiply-adds the cross terms are computed by FFT
/// instead of direct sums.
const FFT_CUTOFF: usize = 1 << 17;

/// Computes [`normalized_cross_correlation`] for every lag `0..=max_lag`
/// in one pass: prefix sums give each lag's means and variances in `O(1)`
/// and the cross products come from a fused sweep (or an FFT for large
/// inputs), for `O((N+L) log (N+L))` total instead of the naive `O(N·L)`.
///
/// Entries agree with the naive per-lag scan to ~1e-9 for finite inputs;
/// windows the naive scan treats as constant come out 0.0 here too.
///
/// # Example
///
/// ```
/// use analysis::xcorr::{normalized_correlation_curve, normalized_cross_correlation};
///
/// let model: Vec<f64> = (0..100).map(|i| ((i * i) % 31) as f64).collect();
/// let measure: Vec<f64> = model[4..].to_vec();
/// let curve = normalized_correlation_curve(&measure, &model, 10);
/// for (lag, score) in curve.iter().enumerate() {
///     let naive = normalized_cross_correlation(&measure, &model, lag);
///     assert!((score - naive).abs() < 1e-9);
/// }
/// ```
pub fn normalized_correlation_curve(measure: &[f64], model: &[f64], max_lag: usize) -> Vec<f64> {
    let n_m = measure.len();
    let l_m = model.len();
    let mut curve = vec![0.0; max_lag + 1];
    if n_m < 2 || l_m < 2 {
        return curve;
    }
    // Center by the global means: Pearson correlation is invariant under
    // shifting either series by a constant, and small centered values keep
    // the Σx² − (Σx)²/n windowed forms well conditioned.
    let ga = measure.iter().sum::<f64>() / n_m as f64;
    let gb = model.iter().sum::<f64>() / l_m as f64;
    let a: Vec<f64> = measure.iter().map(|v| v - ga).collect();
    let b: Vec<f64> = model.iter().map(|v| v - gb).collect();
    // Prefix sums: pa[i] = Σ a[0..i], paa[i] = Σ a[0..i]².
    let mut pa = vec![0.0; n_m + 1];
    let mut paa = vec![0.0; n_m + 1];
    for i in 0..n_m {
        pa[i + 1] = pa[i] + a[i];
        paa[i + 1] = paa[i] + a[i] * a[i];
    }
    let mut pb = vec![0.0; l_m + 1];
    let mut pbb = vec![0.0; l_m + 1];
    for j in 0..l_m {
        pb[j + 1] = pb[j] + b[j];
        pbb[j + 1] = pbb[j] + b[j] * b[j];
    }
    // Cross terms T[k] = Σ_i a[i]·b[i+k] over each lag's overlap.
    let k_max = max_lag.min(l_m.saturating_sub(2));
    let cross = sliding_cross_products(&a, &b, k_max);
    for (k, curve_k) in curve.iter_mut().enumerate().take(k_max + 1) {
        let n = n_m.min(l_m - k);
        if n < 2 {
            continue;
        }
        let nf = n as f64;
        let sum_a = pa[n];
        let sum_aa = paa[n];
        let sum_b = pb[k + n] - pb[k];
        let sum_bb = pbb[k + n] - pbb[k];
        let cov = cross[k] - sum_a * sum_b / nf;
        let var_a = sum_aa - sum_a * sum_a / nf;
        let var_b = sum_bb - sum_b * sum_b / nf;
        // Relative floor: a window whose computed variance is within
        // accumulated-rounding distance of zero is constant for our
        // purposes (the naive scan sees an exact zero there).
        let tol = 8.0 * f64::EPSILON * nf;
        if var_a <= tol * (sum_aa + sum_a * sum_a / nf) || var_b <= tol * (sum_bb + sum_b * sum_b / nf)
        {
            continue;
        }
        *curve_k = cov / (var_a.sqrt() * var_b.sqrt());
    }
    curve
}

/// Sliding cross products `T[k] = Σ_i a[i]·b[i+k]` for `k = 0..=k_max`,
/// each summed over the natural overlap `i < min(a.len(), b.len() − k)`.
/// Small inputs use direct sums; large inputs switch to a single FFT
/// cross-correlation. Building block for correlation curves over
/// pre-centered series (used by `core::align`'s gridded delay scan).
pub fn sliding_cross_products(a: &[f64], b: &[f64], k_max: usize) -> Vec<f64> {
    let mut out = Vec::new();
    sliding_cross_products_into(a, b, k_max, &mut CrossScratch::default(), &mut out);
    out
}

/// Working memory for [`sliding_cross_products_into`]. Keeping one
/// between calls spares the FFT path its transform-sized buffers.
#[derive(Debug, Clone, Default)]
pub struct CrossScratch {
    re: Vec<f64>,
    im: Vec<f64>,
}

/// [`sliding_cross_products`] into `out` (resized to `k_max + 1`), with
/// the FFT path working in `scratch`. Bit for bit the same values.
pub fn sliding_cross_products_into(
    a: &[f64],
    b: &[f64],
    k_max: usize,
    scratch: &mut CrossScratch,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(k_max + 1, 0.0);
    let work: usize = (0..=k_max)
        .map(|k| a.len().min(b.len().saturating_sub(k)))
        .sum();
    if work <= FFT_CUTOFF {
        direct_cross_products(a, b, out);
    } else {
        fft_cross_products(a, b, k_max, scratch, out);
    }
}

/// Lags summed together per pass over `a`. Sixteen independent sums,
/// eight two-lane SSE2 registers, keep the adder busy where eight left
/// it waiting on each sum's previous addition.
const LAGS_PER_PASS: usize = 16;

/// Direct cross products, [`LAGS_PER_PASS`] lags per pass over `a`: the
/// block's sums are independent, so the pass vectorizes, while each
/// lag's sum still adds its products in index order starting from −0.0,
/// exactly as `Iterator::sum::<f64>` does. A lag with no overlap stays
/// +0.0.
fn direct_cross_products(a: &[f64], b: &[f64], out: &mut [f64]) {
    let overlap = |k: usize| a.len().min(b.len().saturating_sub(k));
    let blocked = out.len() - out.len() % LAGS_PER_PASS;
    for k in (0..blocked).step_by(LAGS_PER_PASS) {
        // Overlaps shrink as the lag grows, so the block's last lag
        // bounds the prefix every lag in it shares.
        let shared = overlap(k + LAGS_PER_PASS - 1);
        let mut acc = [-0.0f64; LAGS_PER_PASS];
        let b_from_k = b.get(k..).unwrap_or_default();
        for (i, &x) in a[..shared].iter().enumerate() {
            let ys = &b_from_k[i..i + LAGS_PER_PASS];
            for l in 0..LAGS_PER_PASS {
                acc[l] += x * ys[l];
            }
        }
        for (l, acc_l) in acc.iter_mut().enumerate() {
            let n = overlap(k + l);
            for i in shared..n {
                *acc_l += a[i] * b[i + k + l];
            }
            if n > 0 {
                out[k + l] = *acc_l;
            }
        }
    }
    for (k, out_k) in out.iter_mut().enumerate().skip(blocked) {
        let n = overlap(k);
        if n > 0 {
            *out_k = a[..n].iter().zip(&b[k..k + n]).map(|(x, y)| x * y).sum();
        }
    }
}

/// Cross products via the correlation theorem:
/// `T = IFFT(conj(FFT(a)) · FFT(b))`, zero-padded so nothing wraps.
///
/// Both inputs are real, so they share one complex transform (`c = a +
/// i·b`, split by Hermitian symmetry) and the transform length only
/// needs to cover `a.len() + k_max` — the highest `b` index any
/// returned lag touches — rather than the two series end to end.
fn fft_cross_products(
    a: &[f64],
    b: &[f64],
    k_max: usize,
    scratch: &mut CrossScratch,
    out: &mut [f64],
) {
    // b[i + k] with i < a.len(), k <= k_max never reads past this.
    let nb = b.len().min(a.len() + k_max);
    let m = (a.len() + k_max).max(2).next_power_of_two();
    let plan = FftPlan::get(m);
    let CrossScratch { re, im } = scratch;
    re.clear();
    re.extend_from_slice(a);
    re.resize(m, 0.0);
    im.clear();
    im.extend_from_slice(&b[..nb]);
    im.resize(m, 0.0);
    fft_in_place(re, im, plan, false);
    // Unpack A[k] = (C[k] + conj(C[m−k]))/2 and B[k] = (C[k] −
    // conj(C[m−k]))/2i, then form D = conj(A)·B. D is Hermitian (both
    // spectra come from real series), so IFFT(D) is real. D[k] and
    // D[m−k] read the same two bins, so each mirror pair is formed from
    // saved inputs and written back in place.
    let spectrum = |(cr, ci): (f64, f64), (sr, si): (f64, f64)| {
        let (ar, ai) = ((cr + sr) * 0.5, (ci - si) * 0.5);
        let (br, bi) = ((ci + si) * 0.5, (sr - cr) * 0.5);
        (ar * br + ai * bi, ar * bi - ai * br)
    };
    for k in 0..=m / 2 {
        let mirror = (m - k) & (m - 1);
        let (c, s) = ((re[k], im[k]), (re[mirror], im[mirror]));
        (re[k], im[k]) = spectrum(c, s);
        (re[mirror], im[mirror]) = spectrum(s, c);
    }
    fft_in_place(re, im, plan, true);
    // Lags past the transform length have empty overlap.
    for (k, out_k) in out.iter_mut().enumerate() {
        *out_k = if k < m { re[k] / m as f64 } else { 0.0 };
    }
}

/// Forward twiddle factors `e^(−2πik/m)` for `k < m/2`, built by a
/// multiplicative recurrence resynced against `sin`/`cos` every 32
/// entries so the error stays at a few ulps without paying a libm call
/// per entry.
fn twiddle_table(m: usize) -> Vec<(f64, f64)> {
    let step = -2.0 * std::f64::consts::PI / m as f64;
    let (wr, wi) = (step.cos(), step.sin());
    let (mut cr, mut ci) = (1.0f64, 0.0f64);
    let mut tw = Vec::with_capacity(m / 2);
    for k in 0..m / 2 {
        if k % 32 == 0 {
            let ang = step * k as f64;
            cr = ang.cos();
            ci = ang.sin();
        }
        tw.push((cr, ci));
        let (nr, ni) = (cr * wr - ci * wi, cr * wi + ci * wr);
        cr = nr;
        ci = ni;
    }
    tw
}

/// Everything about a radix-2 transform of one power-of-two length that
/// does not depend on the data, built once per length and shared.
struct FftPlan {
    /// Index pairs the bit-reversal permutation swaps.
    swaps: Vec<(u32, u32)>,
    /// Twiddles per stage, contiguous: the stage with half-length `h`
    /// uses entries `h − 1 .. 2h − 1`, entry `h − 1 + k` being the
    /// `(k · m/2h)`-th of [`twiddle_table`].
    tw_re: Vec<f64>,
    /// Imaginary parts, forward transform.
    tw_im: Vec<f64>,
    /// Imaginary parts negated, inverse transform.
    tw_im_inv: Vec<f64>,
}

impl FftPlan {
    /// The shared plan for length `m`, a power of two.
    fn get(m: usize) -> &'static FftPlan {
        static PLANS: [OnceLock<FftPlan>; usize::BITS as usize] =
            [const { OnceLock::new() }; usize::BITS as usize];
        debug_assert!(m.is_power_of_two());
        PLANS[m.trailing_zeros() as usize].get_or_init(|| FftPlan::new(m))
    }

    fn new(m: usize) -> FftPlan {
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..m {
            let mut bit = m >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        let table = twiddle_table(m);
        let (mut tw_re, mut tw_im) = (Vec::with_capacity(m), Vec::with_capacity(m));
        let mut half = 1;
        while half < m {
            let stride = m / (2 * half);
            for k in 0..half {
                let (cr, ci) = table[k * stride];
                tw_re.push(cr);
                tw_im.push(ci);
            }
            half <<= 1;
        }
        let tw_im_inv = tw_im.iter().map(|ci| -ci).collect();
        FftPlan { swaps, tw_re, tw_im, tw_im_inv }
    }
}

/// Half-lengths below this run twiddle-outer: each twiddle is loaded
/// once and applied across every block, instead of re-reading a table
/// shorter than a vector per block.
const SHORT_STAGE: usize = 8;

/// Iterative radix-2 complex FFT (Cooley–Tukey) over split real and
/// imaginary parts; `inverse` leaves the result unscaled (callers divide
/// by the length). Each butterfly computes `t = v·w`, `u + t` and
/// `u − t` with exactly the same operations whatever the loop order.
fn fft_in_place(re: &mut [f64], im: &mut [f64], plan: &FftPlan, inverse: bool) {
    let n = re.len();
    debug_assert!(n.is_power_of_two() && im.len() == n);
    for &(i, j) in &plan.swaps {
        re.swap(i as usize, j as usize);
        im.swap(i as usize, j as usize);
    }
    let tw_im_all = if inverse { &plan.tw_im_inv } else { &plan.tw_im };
    let mut half = 1;
    while half < n {
        let tw_re = &plan.tw_re[half - 1..2 * half - 1];
        let tw_im = &tw_im_all[half - 1..2 * half - 1];
        if half < SHORT_STAGE {
            for (k, (&cr, &ci)) in tw_re.iter().zip(tw_im).enumerate() {
                for lo in (k..n).step_by(2 * half) {
                    let hi = lo + half;
                    let (vr, vi) = (re[hi], im[hi]);
                    let (tr, ti) = (vr * cr - vi * ci, vr * ci + vi * cr);
                    let (ur, ui) = (re[lo], im[lo]);
                    re[lo] = ur + tr;
                    im[lo] = ui + ti;
                    re[hi] = ur - tr;
                    im[hi] = ui - ti;
                }
            }
        } else {
            for (block_re, block_im) in
                re.chunks_exact_mut(2 * half).zip(im.chunks_exact_mut(2 * half))
            {
                let (lo_re, hi_re) = block_re.split_at_mut(half);
                let (lo_im, hi_im) = block_im.split_at_mut(half);
                for k in 0..half {
                    let (cr, ci) = (tw_re[k], tw_im[k]);
                    let (vr, vi) = (hi_re[k], hi_im[k]);
                    let (tr, ti) = (vr * cr - vi * ci, vr * ci + vi * cr);
                    let (ur, ui) = (lo_re[k], lo_im[k]);
                    lo_re[k] = ur + tr;
                    lo_im[k] = ui + ti;
                    hi_re[k] = ur - tr;
                    hi_im[k] = ui - ti;
                }
            }
        }
        half <<= 1;
    }
}

/// Result of scanning hypothetical delays for the best alignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentPeak {
    /// The delay (in samples) with the highest correlation.
    pub lag: usize,
    /// The correlation score at that delay.
    pub score: f64,
}

/// Two scores within this distance are considered tied: correlation values
/// that close are indistinguishable from floating-point noise (a periodic
/// signal's aliased lags land here), so the scan must not let summation
/// order pick the winner.
const TIE_EPS: f64 = 1e-12;

/// Picks the peak of a correlation curve under the scan's selection rules:
/// a lag is eligible when its overlap is at least two samples and its
/// score is finite; ties (exact, or within [`TIE_EPS`]) go to the
/// **smallest** lag, so a flat or periodic curve yields a deterministic
/// answer regardless of which implementation computed it.
fn pick_peak(curve: &[f64], measure_len: usize, model_len: usize) -> Option<AlignmentPeak> {
    let mut best: Option<AlignmentPeak> = None;
    for (lag, &score) in curve.iter().enumerate() {
        let overlap = measure_len.min(model_len.saturating_sub(lag));
        if overlap < 2 || !score.is_finite() {
            continue;
        }
        match best {
            Some(b) if score <= b.score + TIE_EPS => {}
            _ => best = Some(AlignmentPeak { lag, score }),
        }
    }
    best
}

/// Scans delays `0..=max_lag` and returns the best-correlated one, plus the
/// full correlation curve (index = lag), using the normalized correlation.
///
/// Uses the prefix-sum/FFT fast path ([`normalized_correlation_curve`]);
/// inputs containing non-finite values fall back to the per-lag reference
/// scan so one poisoned sample cannot contaminate every lag. In either
/// case a non-finite score never wins: exact ties break toward the
/// smallest lag, and if no lag yields a finite score with at least two
/// overlapping samples the scan returns `None`.
///
/// # Example
///
/// ```
/// use analysis::xcorr::find_alignment;
///
/// let model: Vec<f64> = (0..100).map(|i| ((i % 10) as f64)).collect();
/// // Measurement sees the same signal 3 samples late.
/// let measure: Vec<f64> = model[3..].to_vec();
/// let (peak, _curve) = find_alignment(&measure, &model, 10).unwrap();
/// assert_eq!(peak.lag, 3);
/// ```
pub fn find_alignment(
    measure: &[f64],
    model: &[f64],
    max_lag: usize,
) -> Option<(AlignmentPeak, Vec<f64>)> {
    let finite =
        measure.iter().all(|v| v.is_finite()) && model.iter().all(|v| v.is_finite());
    if !finite {
        return find_alignment_naive(measure, model, max_lag);
    }
    let curve = normalized_correlation_curve(measure, model, max_lag);
    pick_peak(&curve, measure.len(), model.len()).map(|p| (p, curve))
}

/// Reference implementation of [`find_alignment`]: the naive per-lag
/// Pearson scan, kept as the correctness oracle for the fast path (and
/// used by it when inputs contain non-finite values). Same selection
/// rules: first lag wins exact ties, non-finite scores never win.
pub fn find_alignment_naive(
    measure: &[f64],
    model: &[f64],
    max_lag: usize,
) -> Option<(AlignmentPeak, Vec<f64>)> {
    let curve: Vec<f64> = (0..=max_lag)
        .map(|lag| normalized_cross_correlation(measure, model, lag))
        .collect();
    pick_peak(&curve, measure.len(), model.len()).map(|p| (p, curve))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sawtooth(n: usize, period: usize) -> Vec<f64> {
        (0..n).map(|i| (i % period) as f64).collect()
    }

    #[test]
    fn zero_lag_identity() {
        let s = sawtooth(50, 7);
        let c = normalized_cross_correlation(&s, &s, 0);
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn detects_known_lag() {
        let model = sawtooth(200, 13);
        for true_lag in [0usize, 1, 5, 12] {
            let measure: Vec<f64> = model[true_lag..].to_vec();
            let (peak, _) = find_alignment(&measure, &model, 20).unwrap();
            assert_eq!(peak.lag, true_lag, "failed for lag {true_lag}");
        }
    }

    #[test]
    fn detects_lag_with_noise() {
        let mut rng = 0x12345u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % 1000) as f64 / 1000.0 - 0.5
        };
        let model: Vec<f64> = (0..500).map(|i| ((i / 20) % 2) as f64 * 10.0 + next()).collect();
        let measure: Vec<f64> = model[7..].iter().map(|v| v + next() * 0.3).collect();
        let (peak, _) = find_alignment(&measure, &model, 40).unwrap();
        assert_eq!(peak.lag, 7);
    }

    #[test]
    fn raw_correlation_empty_overlap_is_zero() {
        let a = [1.0, 2.0];
        let b = [3.0];
        assert_eq!(cross_correlation(&a, &b, 5), 0.0);
    }

    #[test]
    fn normalized_constant_series_is_zero() {
        let a = [2.0; 10];
        let b = [3.0; 20];
        assert_eq!(normalized_cross_correlation(&a, &b, 0), 0.0);
        assert_eq!(normalized_correlation_curve(&a, &b, 5), vec![0.0; 6]);
    }

    #[test]
    fn curve_length_matches_lags() {
        let model = sawtooth(100, 5);
        let measure = sawtooth(80, 5);
        let (_, curve) = find_alignment(&measure, &model, 30).unwrap();
        assert_eq!(curve.len(), 31);
    }

    #[test]
    fn no_alignment_for_tiny_series() {
        assert!(find_alignment(&[1.0], &[1.0], 5).is_none());
    }

    #[test]
    fn anticorrelated_signal_scores_negative() {
        let model: Vec<f64> = (0..50).map(|i| (i % 2) as f64).collect();
        let measure: Vec<f64> = model.iter().map(|v| 1.0 - v).collect();
        let c = normalized_cross_correlation(&measure, &model, 0);
        assert!(c < -0.9);
    }

    #[test]
    fn fast_curve_matches_naive_on_noisy_signal() {
        let mut rng = 0xABCDEFu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % 10_000) as f64 / 50.0 - 100.0
        };
        let model: Vec<f64> = (0..400).map(|_| next()).collect();
        let measure: Vec<f64> = model[9..309].iter().map(|v| v * 1.1 + next() * 0.1).collect();
        let curve = normalized_correlation_curve(&measure, &model, 60);
        for (lag, score) in curve.iter().enumerate() {
            let naive = normalized_cross_correlation(&measure, &model, lag);
            assert!(
                (score - naive).abs() < 1e-9,
                "lag {lag}: fast {score} vs naive {naive}"
            );
        }
        let fast = find_alignment(&measure, &model, 60).unwrap().0;
        let naive = find_alignment_naive(&measure, &model, 60).unwrap().0;
        assert_eq!(fast.lag, naive.lag);
    }

    #[test]
    fn fft_path_matches_naive() {
        // Large enough to cross FFT_CUTOFF (5000 × 501 ≫ 2^17).
        let mut rng = 0x5EEDu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % 1000) as f64 - 500.0
        };
        let model: Vec<f64> = (0..5500).map(|i| ((i / 40) % 3) as f64 * 25.0 + next() * 0.05).collect();
        let measure: Vec<f64> = model[137..5137].to_vec();
        let curve = normalized_correlation_curve(&measure, &model, 500);
        for lag in [0usize, 1, 13, 137, 200, 499, 500] {
            let naive = normalized_cross_correlation(&measure, &model, lag);
            assert!(
                (curve[lag] - naive).abs() < 1e-9,
                "lag {lag}: fft {} vs naive {naive}",
                curve[lag]
            );
        }
        let (peak, _) = find_alignment(&measure, &model, 500).unwrap();
        assert_eq!(peak.lag, 137);
    }

    #[test]
    fn exact_tie_breaks_to_first_lag() {
        // A 4-periodic signal: lags 0, 4, 8 correlate identically; the
        // scan must deterministically report the earliest.
        let model: Vec<f64> = (0..64).map(|i| (i % 4) as f64).collect();
        let measure: Vec<f64> = (0..40).map(|i| (i % 4) as f64).collect();
        let (peak, curve) = find_alignment(&measure, &model, 12).unwrap();
        assert_eq!(peak.lag, 0);
        assert!((curve[4] - curve[0]).abs() < 1e-9, "periodic lags tie");
        let (naive_peak, _) = find_alignment_naive(&measure, &model, 12).unwrap();
        assert_eq!(naive_peak.lag, 0);
    }

    #[test]
    fn nan_sample_cannot_win_the_scan() {
        let model = sawtooth(60, 7);
        let mut measure: Vec<f64> = model[3..].to_vec();
        measure[10] = f64::NAN;
        // Every overlap contains the poisoned sample: no finite score
        // exists, so the scan must refuse rather than return a NaN peak.
        match find_alignment(&measure, &model, 10) {
            None => {}
            Some((peak, _)) => {
                assert!(peak.score.is_finite(), "NaN peak leaked: {peak:?}");
            }
        }
        let naive = find_alignment_naive(&measure, &model, 10);
        match naive {
            None => {}
            Some((peak, _)) => assert!(peak.score.is_finite()),
        }
    }

    #[test]
    fn infinite_model_sample_is_guarded() {
        let model: Vec<f64> = {
            let mut m = sawtooth(60, 7);
            m[55] = f64::INFINITY;
            m
        };
        let measure: Vec<f64> = sawtooth(40, 7);
        // Lags whose overlap excludes the poisoned tail still score; the
        // peak must carry a finite score.
        if let Some((peak, _)) = find_alignment(&measure, &model, 10) {
            assert!(peak.score.is_finite());
        }
    }
}
