//! Pins `sliding_cross_products` bit for bit on both of its paths.
//!
//! Each case's output bits fold into one FNV-1a digest, taken before the
//! kernels were optimised. The cases cover the direct path (one sum per
//! lag) and the FFT path at the alignment scan's shapes, lags whose
//! overlap runs out, signed zeros, and lags whose every product is −0.0
//! (a sum that starts from +0.0 instead of −0.0 shows there).

use analysis::xcorr::sliding_cross_products;

const PIN_DIGEST: u64 = 0x8e06_242d_dce8_5896;

/// Multiply-adds above which the kernel switches to the FFT.
const FFT_WORK: usize = 1 << 17;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn value(&mut self, scale: f64) -> f64 {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale
    }

    fn series(&mut self, n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|_| self.value(scale)).collect()
    }
}

fn work(a: &[f64], b: &[f64], k_max: usize) -> usize {
    (0..=k_max).map(|k| a.len().min(b.len().saturating_sub(k))).sum()
}

fn cases() -> Vec<(Vec<f64>, Vec<f64>, usize)> {
    let mut rng = Rng(0x5EED_CAFE_F00D_1234);
    let mut out = Vec::new();
    // The alignment scan's shapes: 128 readings against a covered run,
    // forward over the scan range and backward over a few lags.
    for (na, nb, k) in [
        (128, 2_128, 2_000),
        (128, 1_400, 1_600),
        (128, 700, 572),
        (128, 300, 2_000),
        (700, 128, 40),
        (37, 2_128, 1_999),
        (5_000, 5_500, 500),
        (3, 5, 7),
        (1, 1, 0),
    ] {
        let a = rng.series(na, 40.0);
        let b = rng.series(nb, 4.0);
        out.push((a, b, k));
    }
    // Signed zeros mixed into ordinary values, on both paths.
    for (na, nb, k) in [(64, 200, 150), (128, 2_128, 2_000)] {
        let mut a = rng.series(na, 10.0);
        let mut b = rng.series(nb, 10.0);
        for (i, v) in a.iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        for (j, v) in b.iter_mut().enumerate() {
            if j % 5 < 2 {
                *v = if j % 2 == 0 { -0.0 } else { 0.0 };
            }
        }
        out.push((a, b, k));
    }
    // Every product −0.0: a −0.0 series against positive values.
    out.push((vec![-0.0; 16], (1..=40).map(f64::from).collect(), 30));
    // One lag whose products are all −0.0 among lags that are not.
    out.push((vec![2.0, -0.0, 3.0], vec![-0.0, 1.0, -0.0, 5.0, 0.0, 0.0, 7.0], 6));
    // All-zero inputs through the transform.
    out.push((vec![-0.0; 128], vec![0.0; 2_128], 2_000));
    out
}

#[test]
fn cross_products_are_pinned() {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut direct, mut fft) = (0, 0);
    for (a, b, k_max) in cases() {
        if work(&a, &b, k_max) > FFT_WORK {
            fft += 1;
        } else {
            direct += 1;
        }
        let t = sliding_cross_products(&a, &b, k_max);
        assert_eq!(t.len(), k_max + 1);
        for v in t {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    println!("cross-product digest {h:#018x} ({direct} direct, {fft} FFT)");
    assert!(direct >= 6 && fft >= 4, "{direct} direct, {fft} FFT cases");
    assert_eq!(h, PIN_DIGEST, "a cross product moved");
}

#[test]
fn all_negative_zero_products_sum_to_negative_zero() {
    let t = sliding_cross_products(&[-0.0; 4], &[1.0; 9], 7);
    assert!(t.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()), "{t:?}");
    // A lag past the end of `b` has no overlap at all and reads +0.0.
    let t = sliding_cross_products(&[-0.0; 4], &[1.0; 3], 4);
    assert_eq!(t[3].to_bits(), 0.0f64.to_bits());
}
