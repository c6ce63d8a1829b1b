//! Benchmark of the power-containers fleet simulator.
//!
//! Three workloads ([`workload::Workload`]) drive `cluster::run_cluster`
//! and `cluster::run_pipeline` through the public API only. An untraced
//! run ([`run::untraced`]) reports the end-to-end metrics: host-time
//! throughput, set-up time and peak memory, beside simulated fidelity
//! metrics that a speed-only change must leave bit-identical. A traced
//! run ([`run::traced`]) times each layer from outside its public API,
//! records spans in the benchmark's own [`trace::Tracer`], and reports
//! the per-layer metrics. No simulated outcome counts before it passes
//! [`check::check`].

pub mod check;
pub mod layers;
pub mod run;
pub mod trace;
pub mod workload;

use std::time::Instant;

/// The median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Runs `f` and returns its result with its host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
