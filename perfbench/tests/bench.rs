//! The benchmark's own checks: determinism of a shortened workload,
//! sensitivity to the workload seed, and the metric names and units it
//! prints against `BENCHMARK.json`. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::check::{check, digest, SimMetrics};
use perfbench::layers::arrivals;
use perfbench::run::{self, Options, Report};
use perfbench::trace::Tracer;
use perfbench::workload::{simulate, Lab, Workload, DEFAULT_SEED};
use serde_json::Value;
use std::collections::BTreeSet;
use std::time::Instant;

/// Requests offered by each shortened test episode.
const SHORT: f64 = 2_000.0;

fn bits(m: SimMetrics) -> [u64; 4] {
    [m.attr_err, m.j_per_req, m.fail_frac, m.resp_mean_ms].map(f64::to_bits)
}

#[test]
fn same_seed_runs_agree_bit_for_bit() {
    let lab = Lab::calibrate(&mut Tracer::new(false));
    for w in Workload::ALL {
        let cfg = w.config(DEFAULT_SEED, SHORT);
        let cals = lab.for_config(&cfg);
        let (a, b) = (simulate(&cfg, &cals), simulate(&cfg, &cals));
        check(&a, w.energy_tol()).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(digest(&a), digest(&b), "{}", w.name());
        assert_eq!(bits(SimMetrics::of(&a)), bits(SimMetrics::of(&b)), "{}", w.name());
    }
}

#[test]
fn another_seed_changes_arrivals_and_still_conserves() {
    let lab = Lab::calibrate(&mut Tracer::new(false));
    for w in Workload::ALL {
        let offered = |seed| {
            let mut all = Vec::new();
            arrivals(&w.config(seed, SHORT), |a| all.push(a));
            all
        };
        let other = offered(DEFAULT_SEED + 1);
        assert_ne!(offered(DEFAULT_SEED), other, "{}", w.name());
        let cfg = w.config(DEFAULT_SEED + 1, SHORT);
        let o = simulate(&cfg, &lab.for_config(&cfg));
        check(&o, w.energy_tol()).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(o.dispatched, other.len() as u64, "{}: every arrival is dispatched", w.name());
    }
}

fn declared(spec: &Value, key: &str) -> BTreeSet<(String, String)> {
    let field = |m: &Value, f: &str| m[f].as_str().unwrap_or_else(|| panic!("{key}: {f}")).to_string();
    let list = spec[key].as_array().unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"));
    list.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
}

fn printed(r: &Report) -> BTreeSet<(String, String)> {
    r.metrics.iter().map(|(name, unit, _)| (name.clone(), unit.to_string())).collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names: BTreeSet<String> = spec["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name").to_string())
        .collect();
    assert_eq!(names, Workload::ALL.iter().map(|w| w.name().to_string()).collect());

    // The workload that turns on every optional layer.
    let opts = Options { workload: Workload::PipelineChaos, seed: DEFAULT_SEED, seconds: 0.0, requests: SHORT };
    let untraced = run::untraced(&opts, Instant::now());
    assert!(untraced.correct, "{untraced:?}");
    assert_eq!(printed(&untraced), declared(&spec, "end_to_end"));
    let (traced, _) = run::traced(&opts);
    assert!(traced.correct, "{traced:?}");
    assert_eq!(printed(&traced), declared(&spec, "per_layer"));
    assert!(traced.json().starts_with("{\"correct\":true,"));
}
