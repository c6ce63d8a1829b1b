//! The offline calibration procedure (paper §4.1).
//!
//! "We design a set of microbenchmarks that stress different parts of the
//! system … For each microbenchmark, we use several different load levels
//! (100%, 75%, 50%, and 25% of the peak load) to produce calibration
//! samples. We use the least-square-fit linear regression to calibrate
//! the coefficients."
//!
//! Calibration is an *offline, experimenter-controlled* procedure: unlike
//! production recalibration, it may use the meters' true window
//! timestamps and measure idle power directly.

use crate::driver::scaled_compute;
use hwsim::{ActivityProfile, Machine, MachineSpec};
use ossim::{FnProgram, Kernel, KernelConfig, Op};
use power_containers::{
    Approach, CalibrationSample, CalibrationSet, FacilityConfig, ModelKind,
    PowerContainerFacility, PowerModel, RecordRetention,
};
use simkern::{SimDuration, SimTime};
use std::collections::HashMap;
use std::rc::Rc;

// What each calibration run reads, and why it stops where it does.
//
// A run keeps the Wattsup windows that open after the warmup and close
// by `RUN_SECS`: [1 s, 2 s) and [2 s, 3 s), one sample each, so 28 runs
// give a machine 56 samples. Each sample pairs a window's average
// power with the facility's metrics over the same window.
//
// A window's average and noise draw are fixed when it closes, but its
// report becomes visible only the meter's delivery delay (1.2 s) later.
// The kernel therefore runs only `RUN_MARGIN` past `RUN_SECS`; then the
// bare machine, no events left to handle, waits out the delay. Keeping
// the microbenchmark running until that report shows, at 4.2 s, would
// change no sample, only simulate 1.15 s more load in every run.
//
// The margin keeps every sample's metrics whole. An I/O completion
// writes its device activity into the metric trace over the op's whole
// span, so an op that starts before 3 s and ends after it still adds to
// the [2 s, 3 s) window when it completes. The longest op is one
// 400 KB disk transfer (400 µs latency plus 400 KB at 150 MB/s, about
// 3.07 ms); with the kernel stopped at 3 s or 3.001 s, woodcrest's disk
// metric for that window moves. 50 ms leaves room for any op to land.

/// End of the last window each calibration run reads.
const RUN_SECS: u64 = 3;
/// Warmup skipped at the start of each run.
const WARMUP: SimDuration = SimDuration::from_millis(500);
/// How far past `RUN_SECS` the kernel runs, so that every op spanning
/// the last window's end completes and writes its activity back.
const RUN_MARGIN: SimDuration = SimDuration::from_millis(50);

/// The calibration microbenchmarks (§4.1's suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Microbench {
    /// Raw CPU spin.
    Spin,
    /// Spin with a high instruction rate.
    HighIns,
    /// Spin with heavy floating-point work.
    Float,
    /// Last-level-cache pressure.
    Cache,
    /// Memory-bandwidth pressure.
    Mem,
    /// Heavy disk I/O.
    Disk,
    /// Heavy network I/O.
    Net,
    /// A mixture of the above patterns.
    Mixed,
}

impl Microbench {
    /// All microbenchmarks.
    pub const ALL: [Microbench; 8] = [
        Microbench::Spin,
        Microbench::HighIns,
        Microbench::Float,
        Microbench::Cache,
        Microbench::Mem,
        Microbench::Disk,
        Microbench::Net,
        Microbench::Mixed,
    ];

    fn profile(self) -> ActivityProfile {
        match self {
            Microbench::Spin => ActivityProfile::cpu_spin(),
            Microbench::HighIns => ActivityProfile::high_ipc(),
            Microbench::Float => ActivityProfile::float_heavy(),
            Microbench::Cache => ActivityProfile::cache_heavy(),
            Microbench::Mem => ActivityProfile::memory_bound(),
            Microbench::Disk | Microbench::Net => ActivityProfile::cpu_spin(),
            Microbench::Mixed => ActivityProfile::cpu_spin(), // per-op, see below
        }
    }
}

/// Everything calibration learned about one machine.
#[derive(Debug, Clone)]
pub struct MachineCalibration {
    /// The raw calibration samples and measured idle power.
    pub set: CalibrationSet,
    /// Idle reading of each meter, by meter name.
    pub idle_by_meter: HashMap<&'static str, f64>,
    /// The Approach-#1 model (core events only).
    pub model_core_only: PowerModel,
    /// The Approach-#2/#3 starting model (with chip share).
    pub model_chipshare: PowerModel,
}

impl MachineCalibration {
    /// The offline model for a given approach (Approach #3 starts from
    /// the chip-share model and recalibrates online).
    pub fn model_for(&self, approach: Approach) -> PowerModel {
        match approach.model_kind() {
            ModelKind::CoreEventsOnly => self.model_core_only.clone(),
            ModelKind::WithChipShare => self.model_chipshare.clone(),
        }
    }

    /// Idle reading of the named meter (0.0 if the machine lacks it).
    pub fn meter_idle(&self, name: &str) -> f64 {
        self.idle_by_meter.get(name).copied().unwrap_or(0.0)
    }
}

/// Measures each meter's idle reading on an otherwise untouched machine.
///
/// The idle constant is subtracted from *every* subsequent measurement,
/// so its own noise becomes a systematic bias of the whole calibration;
/// average enough reports to push it well below the per-window noise
/// (one noisy Wattsup second would bias all low-load active power).
fn measure_idle(spec: &MachineSpec, seed: u64) -> HashMap<&'static str, f64> {
    let mut machine = Machine::new(spec.clone(), seed);
    machine.advance_to(SimTime::from_secs(40));
    let mut out = HashMap::new();
    for (i, mspec) in spec.meters.iter().enumerate() {
        let mut sum = 0.0;
        let mut n = 0;
        for r in machine.drain_meter_reports(hwsim::MeterId(i)) {
            // Skip the first window (partially idle-state setup).
            if r.window_start >= SimTime::from_millis(100) {
                sum += r.avg_watts;
                n += 1;
            }
        }
        out.insert(mspec.name, if n > 0 { sum / n as f64 } else { 0.0 });
    }
    out
}

/// Spawns `k` endless load tasks for a microbenchmark.
fn spawn_bench_tasks(kernel: &mut Kernel, bench: Microbench, k: usize, spec: &MachineSpec) {
    let spec = Rc::new(spec.clone());
    for i in 0..k {
        let spec = Rc::clone(&spec);
        let program: Box<dyn ossim::Program> = match bench {
            Microbench::Disk => Box::new(FnProgram::new(move |_pc| {
                if i % 2 == 0 {
                    // Keep the disk mostly busy with a little compute.
                    Op::DiskIo { bytes: 400_000 }
                } else {
                    Op::DiskIo { bytes: 300_000 }
                }
            })),
            Microbench::Net => Box::new(FnProgram::new(move |_pc| Op::NetIo { bytes: 900_000 })),
            Microbench::Mixed => {
                let profiles = [
                    ActivityProfile::high_ipc(),
                    ActivityProfile::cache_heavy(),
                    ActivityProfile::float_heavy(),
                    ActivityProfile::memory_bound(),
                ];
                let mut idx = i;
                Box::new(FnProgram::new(move |_pc| {
                    idx += 1;
                    scaled_compute(&spec, 4.0e6, profiles[idx % profiles.len()])
                }))
            }
            other => {
                let profile = other.profile();
                Box::new(FnProgram::new(move |_pc| scaled_compute(&spec, 8.0e6, profile)))
            }
        };
        kernel.spawn(program, None);
    }
}

/// A zero-coefficient facility used purely as a metrics collector during
/// calibration (the metric traces do not depend on the model).
fn metrics_collector(spec: &MachineSpec) -> PowerContainerFacility {
    let model = PowerModel::new(ModelKind::WithChipShare, 0.0, [0.0; 8]);
    let config = FacilityConfig {
        approach: Approach::ChipShare,
        retain_records: RecordRetention::None,
        ..FacilityConfig::default()
    };
    PowerContainerFacility::new(model, None, spec, config)
}

/// Runs the full §4.1 calibration procedure on a machine model.
///
/// # Example
///
/// ```no_run
/// use hwsim::MachineSpec;
/// use workloads::calibration::calibrate_machine;
///
/// let cal = calibrate_machine(&MachineSpec::sandybridge(), 42);
/// assert!(cal.model_chipshare.coefficients()[0] > 0.0);
/// ```
pub fn calibrate_machine(spec: &MachineSpec, seed: u64) -> MachineCalibration {
    let idle_by_meter = measure_idle(spec, seed);
    let wattsup_idle = idle_by_meter.get("wattsup").copied().unwrap_or(0.0);
    let mut set = CalibrationSet::new(wattsup_idle);

    let cores = spec.total_cores();
    let mut levels: Vec<usize> = [0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|f| ((f * cores as f64).ceil() as usize).clamp(1, cores))
        .collect();
    levels.dedup();

    for (b, bench) in Microbench::ALL.iter().enumerate() {
        // I/O benches only need low task counts (the device saturates).
        let bench_levels: Vec<usize> = match bench {
            Microbench::Disk | Microbench::Net => vec![1, 2],
            _ => levels.clone(),
        };
        for (l, &k) in bench_levels.iter().enumerate() {
            let run_seed = seed
                .wrapping_mul(31)
                .wrapping_add((b * 16 + l) as u64 + 1);
            let mut machine = Machine::new(spec.clone(), run_seed);
            machine.keep_reports_of(Some("wattsup"));
            let mut kernel = Kernel::new(machine, KernelConfig::default());
            let facility = metrics_collector(spec);
            let state = facility.state();
            kernel.install_hooks(Box::new(facility));
            spawn_bench_tasks(&mut kernel, *bench, k, spec);
            kernel.run_until(SimTime::from_secs(RUN_SECS) + RUN_MARGIN);
            let machine = kernel.machine_mut();
            let meter = machine
                .find_meter("wattsup")
                .expect("calibration machine needs a wattsup meter");
            // The last window's report shows once its delay has passed.
            let delay = machine.meter_spec(meter).delay;
            machine.advance_to(SimTime::from_secs(RUN_SECS) + delay);
            let state = state.borrow();
            for r in machine.drain_meter_reports(meter) {
                if r.window_start < SimTime::ZERO + WARMUP
                    || r.window_end > SimTime::from_secs(RUN_SECS)
                {
                    continue;
                }
                // Offline privilege: the experimenter knows the window.
                if let Some(metrics) = state.metrics_between(r.window_start, r.window_end) {
                    set.push(CalibrationSample {
                        metrics,
                        active_watts: (r.avg_watts - wattsup_idle).max(0.0),
                    });
                }
            }
        }
    }

    let model_core_only = set
        .fit(ModelKind::CoreEventsOnly)
        .expect("core-only calibration fit");
    let model_chipshare = set
        .fit(ModelKind::WithChipShare)
        .expect("chip-share calibration fit");
    MachineCalibration { set, idle_by_meter, model_core_only, model_chipshare }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_measurement_matches_ground_truth() {
        let spec = MachineSpec::sandybridge();
        let idle = measure_idle(&spec, 7);
        let wattsup = idle["wattsup"];
        assert!(
            (wattsup - 26.1).abs() < 1.0,
            "measured idle {wattsup} vs true 26.1"
        );
        let onchip = idle["on-chip"];
        assert!((onchip - 1.5).abs() < 0.5, "package idle {onchip}");
    }

    #[test]
    fn calibration_recovers_plausible_sandybridge_model() {
        let spec = MachineSpec::sandybridge();
        let cal = calibrate_machine(&spec, 11);
        let c = cal.model_chipshare.coefficients();
        // Per-core busy power ≈ 8.3 W and chip maintenance ≈ 5.6 W in the
        // ground truth; the fit should land in the neighbourhood.
        assert!((6.0..11.0).contains(&c[0]), "core coefficient {}", c[0]);
        assert!((3.0..9.0).contains(&c[5]), "chipshare coefficient {}", c[5]);
        assert!(cal.set.samples().len() > 30, "samples {}", cal.set.samples().len());
        // Idle power is the machine's 26.1 W.
        assert!((cal.model_chipshare.idle_w() - 26.1).abs() < 1.0);
    }

    #[test]
    fn core_only_model_differs_from_chipshare_model() {
        let spec = MachineSpec::woodcrest();
        let cal = calibrate_machine(&spec, 13);
        assert_eq!(cal.model_core_only.coefficients()[5], 0.0);
        assert!(cal.model_chipshare.coefficients()[5] > 1.0);
        // Without the chip-share term, maintenance power is absorbed
        // elsewhere (inflated core term).
        assert!(
            cal.model_core_only.coefficients()[0] > cal.model_chipshare.coefficients()[0]
        );
    }
}
