//! Calibration caching.
//!
//! Offline calibration (§4.1) is deterministic per `(machine, seed)` but
//! simulates 40 s of idle metering and 28 microbenchmark runs of about
//! 3.05 s each (`workloads::calibration`); the harness caches the sample
//! set as JSON in its results directory so repeated figures reuse it.

use hwsim::MachineSpec;
use power_containers::{CalibrationSample, CalibrationSet, MetricVector};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use workloads::{calibrate_machine, MachineCalibration};

#[derive(Serialize, Deserialize)]
struct CachedCalibration {
    machine: String,
    seed: u64,
    idle_w: f64,
    idle_by_meter: Vec<(String, f64)>,
    samples: Vec<(Vec<f64>, f64)>,
}

fn cache_path(dir: &Path, spec: &MachineSpec, seed: u64) -> PathBuf {
    dir.join(format!("calibration-{}-{}.json", spec.name, seed))
}

fn rebuild(spec: &MachineSpec, cached: CachedCalibration) -> Option<MachineCalibration> {
    let mut set = CalibrationSet::new(cached.idle_w);
    for (features, watts) in cached.samples {
        if features.len() != power_containers::FEATURES {
            return None;
        }
        set.push(CalibrationSample {
            metrics: MetricVector::from_slice(&features),
            active_watts: watts,
        });
    }
    let model_core_only = set.fit(power_containers::ModelKind::CoreEventsOnly).ok()?;
    let model_chipshare = set.fit(power_containers::ModelKind::WithChipShare).ok()?;
    let mut idle_by_meter = std::collections::HashMap::new();
    for (name, w) in cached.idle_by_meter {
        // Meter names are static in hwsim; match them back.
        let static_name = spec.meters.iter().map(|m| m.name).find(|n| *n == name)?;
        idle_by_meter.insert(static_name, w);
    }
    Some(MachineCalibration { set, idle_by_meter, model_core_only, model_chipshare })
}

/// Loads the calibration for `(spec, seed)` from the cache in `dir` (a
/// [`crate::runner::RunCtx::results_dir`]), or runs the full §4.1
/// procedure and caches it there.
pub fn calibration_for(dir: &Path, spec: &MachineSpec, seed: u64) -> MachineCalibration {
    let path = cache_path(dir, spec, seed);
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(cached) = serde_json::from_str::<CachedCalibration>(&text) {
            if cached.machine == spec.name && cached.seed == seed {
                if let Some(cal) = rebuild(spec, cached) {
                    return cal;
                }
            }
        }
    }
    let cal = calibrate_machine(spec, seed);
    let cached = CachedCalibration {
        machine: spec.name.to_string(),
        seed,
        idle_w: cal.set.idle_w(),
        idle_by_meter: cal
            .idle_by_meter
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        samples: cal
            .set
            .samples()
            .iter()
            .map(|s| (s.metrics.as_array().to_vec(), s.active_watts))
            .collect(),
    };
    if std::fs::create_dir_all(dir).is_ok() {
        if let Ok(json) = serde_json::to_string(&cached) {
            // Atomic publish (write temp, rename): concurrent
            // experiment processes or workers must never observe a
            // half-written cache file.
            let tmp = path.with_extension(format!("json.tmp-{}", std::process::id()));
            if std::fs::write(&tmp, json).is_ok() && std::fs::rename(&tmp, &path).is_err() {
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }
    cal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Sandbox;

    #[test]
    fn cache_round_trips_calibration() {
        let sandbox = Sandbox::new(crate::Scale::Quick);
        let dir = &sandbox.ctx.results_dir;
        let spec = MachineSpec::sandybridge();
        // A seed with no committed cache, so the first call calibrates.
        let seed = 0xDEAD_0001;
        let path = cache_path(dir, &spec, seed);
        let fresh = calibration_for(dir, &spec, seed);
        assert!(path.exists(), "cache file written");
        let cached = calibration_for(dir, &spec, seed);
        for (a, b) in fresh
            .model_chipshare
            .coefficients()
            .iter()
            .zip(cached.model_chipshare.coefficients())
        {
            assert!((a - b).abs() < 1e-9, "cache changed the fit: {a} vs {b}");
        }
        assert_eq!(
            fresh.meter_idle("wattsup"),
            cached.meter_idle("wattsup")
        );
    }
}
