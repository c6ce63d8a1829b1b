//! Shared fixtures for the Criterion benchmarks.
//!
//! The benches quantify the costs the paper's §3.5 reports (container
//! maintenance, recalibration, duty-cycle control) plus the simulation
//! substrate's own throughput, which bounds how fast the experiment
//! harness can regenerate figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hwsim::{ActivityProfile, CoreId, Machine, MachineSpec, MeterSpec};
use power_containers::{
    AlignmentResult, Approach, Cadence, CalibrationSample, CalibrationSet, DelayEstimator,
    FacilityConfig, FacilityError, MetricVector, ModelKind, PowerContainerFacility, PowerModel,
    Reading, RecordRetention, TraceRing, ALIGN_WINDOW, TRACE_SLOT,
};
use cluster::{
    offered_cluster_rate, run_cluster, run_pipeline, AdmissionConfig, AutoscaleConfig,
    ClusterConfig, ClusterOutcome, DistributionPolicy, ObsConfig, RecoveryConfig, SimpleBalance,
    Topology,
};
use hwsim::FaultConfig;
use simkern::work::WorkCounts;
use simkern::{SimDuration, SimTime};
use std::time::Instant;

/// A synthetic calibration set good enough for benchmarking fits.
pub fn synthetic_calibration() -> CalibrationSet {
    let mut set = CalibrationSet::new(26.1);
    for i in 1..=48 {
        let u = i as f64 / 48.0;
        let m = MetricVector {
            core: u,
            ins: 2.0 * u,
            float: 0.4 * u,
            cache: 0.06 * u,
            mem: 0.03 * u,
            chipshare: 1.0,
            disk: 0.0,
            net: 0.0,
        };
        set.push(CalibrationSample { metrics: m, active_watts: 12.0 * u + 5.6 });
    }
    set
}

/// A calibrated chip-share model for the SandyBridge spec.
pub fn bench_model() -> PowerModel {
    synthetic_calibration()
        .fit(ModelKind::WithChipShare)
        .expect("benchmark calibration fit")
}

/// Deterministic xorshift64* stream for building bench signals without
/// pulling in an RNG crate.
pub struct XorShift(u64);

impl XorShift {
    /// Creates a stream from a non-zero seed.
    pub fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    /// Next value uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A (measure, model) signal pair with real structure and a known lag,
/// sized for the alignment microbenchmarks.
pub fn alignment_signals(n: usize, max_lag: usize, true_lag: usize) -> (Vec<f64>, Vec<f64>) {
    let mut rng = XorShift::new(0x5EED_0001);
    let model: Vec<f64> = (0..n + max_lag)
        .map(|i| {
            let square = if (i / 40) % 2 == 0 { 35.0 } else { 12.0 };
            square + 4.0 * ((i % 17) as f64 / 17.0) + rng.next_f64()
        })
        .collect();
    let measure: Vec<f64> = model[true_lag..true_lag + n].to_vec();
    (measure, model)
}

/// Random regression rows (8 features, like the Eq. 2 metric vector)
/// for the refit benchmarks.
pub fn refit_rows(n: usize) -> Vec<(Vec<f64>, f64)> {
    let mut rng = XorShift::new(0x5EED_0002);
    (0..n)
        .map(|_| {
            let row: Vec<f64> = (0..8).map(|_| rng.next_f64() * 4.0).collect();
            let y = row.iter().enumerate().map(|(j, x)| x * (j + 1) as f64).sum::<f64>()
                + rng.next_f64() * 0.1;
            (row, y)
        })
        .collect()
}

/// A facility + machine pair with core 0 busy, ready for hook-level
/// benchmarking.
pub fn facility_fixture() -> (PowerContainerFacility, Machine) {
    let spec = MachineSpec::sandybridge();
    let facility = PowerContainerFacility::new(
        bench_model(),
        None,
        &spec,
        FacilityConfig {
            approach: Approach::ChipShare,
            retain_records: RecordRetention::None,
            ..FacilityConfig::default()
        },
    );
    let mut machine = Machine::new(spec, 1);
    machine.set_running(CoreId(0), Some(ActivityProfile::stress()));
    (facility, machine)
}

/// The alignment scan the facility runs for the on-chip meter, at its own
/// geometry: 1 ms meter windows scanned over the default delays (0–2,000
/// ms in 1 ms steps) against the latest [`ALIGN_WINDOW`] (128) readings,
/// re-run after every [`Cadence::align_every`] (16) readings.
///
/// The model ring retains `covered_ms` [`TRACE_SLOT`]s, which sets how
/// many of the scan's 2,128 windows have model history: all of them at
/// 2,128 or more (the FFT cross-product path), about 700 at 700 (the
/// direct path). [`FacilityScan::advance_to_next_scan`] writes model
/// trace and pushes readings the way the facility does between scans, so
/// a scan never sees the ring it saw last time.
pub struct FacilityScan {
    ring: TraceRing<f64>,
    estimator: DelayEstimator,
    readings_per_scan: u64,
    now_ms: u64,
    rng: XorShift,
    level: f64,
}

impl FacilityScan {
    /// A warmed-up scan whose ring retains `covered_ms` 1 ms slots.
    pub fn new(covered_ms: usize) -> FacilityScan {
        let meter = MeterSpec::on_chip().period;
        let config = FacilityConfig::default();
        let mut scan = FacilityScan {
            ring: TraceRing::new(TRACE_SLOT, covered_ms),
            estimator: DelayEstimator::new(
                meter,
                config.max_meter_delay,
                config.align_step,
                ALIGN_WINDOW,
            ),
            readings_per_scan: Cadence::for_meter(meter).align_every as u64,
            now_ms: 10_000,
            rng: XorShift::new(0x5CA_11ED),
            level: 20.0,
        };
        scan.advance(covered_ms as u64 + 2_200);
        scan
    }

    /// Moves on by the readings the facility takes between two scans.
    pub fn advance_to_next_scan(&mut self) {
        self.advance(self.readings_per_scan);
    }

    /// Simulates `ms` milliseconds: per-core model samples every
    /// millisecond, an occasional I/O span backfilled into older slots,
    /// and one meter reading per millisecond, arriving 1 ms after its
    /// window closed.
    fn advance(&mut self, ms: u64) {
        let slot = SimDuration::from_millis(1);
        for _ in 0..ms {
            let start = SimTime::from_millis(self.now_ms);
            if self.rng.next_f64() < 0.05 {
                self.level = 8.0 + 40.0 * self.rng.next_f64();
            }
            let mut modeled = 0.0;
            for core in 0..4u64 {
                let w = self.level * (0.2 + 0.05 * self.rng.next_f64());
                let at = start + SimDuration::from_micros(200 + 200 * core);
                self.ring.add(at, w, SimDuration::from_micros(250));
                modeled += w * 0.25;
            }
            if self.rng.next_f64() < 0.02 {
                let span = (1 + (self.rng.next_f64() * 30.0) as u64).min(self.now_ms);
                for back in (0..span).rev() {
                    let end = start + slot - SimDuration::from_millis(back);
                    self.ring.add(end, 0.5, slot);
                }
            }
            self.now_ms += 1;
            self.estimator.push(Reading {
                arrived_at: SimTime::from_millis(self.now_ms + 1),
                watts: 12.0 + modeled + 0.1 * self.rng.next_f64(),
            });
        }
    }

    /// One scan, exactly as `poll_meter` runs it.
    pub fn scan(&mut self) -> Result<AlignmentResult, FacilityError> {
        self.estimator.estimate_checked(&self.ring)
    }
}

/// The median and quartiles of a sample, such as timings or ratios.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    /// The median.
    pub median: f64,
    /// The lower quartile.
    pub q1: f64,
    /// The upper quartile.
    pub q3: f64,
}

impl Spread {
    /// The median and quartiles of `values` (nearest-rank); all zero when
    /// empty.
    pub fn of(values: &[f64]) -> Spread {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| v.get(((v.len() as f64 - 1.0) * q).round() as usize).copied();
        Spread {
            median: at(0.5).unwrap_or(0.0),
            q1: at(0.25).unwrap_or(0.0),
            q3: at(0.75).unwrap_or(0.0),
        }
    }
}

/// Times `samples` facility scans at `covered_ms` of retained model
/// history, advancing one scan interval between scans outside the timed
/// region.
pub fn time_facility_scan(covered_ms: usize, samples: usize) -> Spread {
    let mut scan = FacilityScan::new(covered_ms);
    let mut ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        scan.advance_to_next_scan();
        let start = Instant::now();
        std::hint::black_box(scan.scan().ok());
        ns.push(start.elapsed().as_nanos() as f64);
    }
    Spread::of(&ns)
}

/// Seed of every calibration the ledger counts: the one the benchmark
/// and the experiments calibrate with.
pub const CALIBRATION_SEED: u64 = 42;

/// Requests each footprint cell offers.
pub const FOOTPRINT_REQUESTS: f64 = 20_000.0;

/// The machine generations the ledger calibrates, in report order.
pub fn machines() -> [MachineSpec; 3] {
    [MachineSpec::woodcrest(), MachineSpec::westmere(), MachineSpec::sandybridge()]
}

/// The work `f` does on this thread: kernel events popped, by kind,
/// and machine segments integrated. All zero unless built with the
/// `work-counts` feature.
fn count_work<T>(f: impl FnOnce() -> T) -> WorkCounts {
    simkern::work::take();
    f();
    simkern::work::take()
}

/// The work ledger, in report order: the exact work counts of each
/// machine's seed-42 calibration (`calibration.<machine>`), then of
/// each [`footprint_cells`] run (`footprint.<cell>`, calibration not
/// included). `perf_report` records it as its `work` section, and the
/// `work_gate` test fails when a count exceeds its recorded value.
pub fn work_ledger() -> Vec<(String, WorkCounts)> {
    let mut ledger: Vec<(String, WorkCounts)> = machines()
        .iter()
        .map(|spec| {
            let work = count_work(|| workloads::calibrate_machine(spec, CALIBRATION_SEED));
            (format!("calibration.{}", spec.name), work)
        })
        .collect();
    for cell in footprint_cells(FOOTPRINT_REQUESTS) {
        ledger.push((format!("footprint.{}", cell.name), count_work(|| cell.run())));
    }
    ledger
}

/// One cluster cell whose heap traffic `perf_report`'s footprint
/// section counts, built from public constructors only so that the same
/// driver runs against an older checkout.
pub struct FootprintCell {
    /// The cell's name in the report.
    pub name: &'static str,
    /// The cell's configuration.
    pub cfg: ClusterConfig,
    /// One calibration per node, in node order.
    pub cals: Vec<workloads::MachineCalibration>,
}

impl FootprintCell {
    /// Runs the cell under simple balance on every tier.
    pub fn run(&self) -> ClusterOutcome {
        if self.cfg.tiers.len() == 1 {
            return run_cluster(&mut SimpleBalance::new(), &self.cfg, &self.cals);
        }
        let mut policies: Vec<Box<dyn DistributionPolicy>> = self
            .cfg
            .tiers
            .iter()
            .map(|_| Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>)
            .collect();
        run_pipeline(&mut policies, &self.cfg, &self.cals)
    }
}

/// The footprint section's three cells at seed 42, each sized to offer
/// about `requests` requests, the benchmark workloads in small:
///
/// * `chipshare_fleet` — 16 mixed-generation nodes under the fixed
///   ChipShare model at full stationary load;
/// * `diurnal_elastic` — the same 16 nodes autoscaled (4 to 8 active)
///   over one compressed diurnal day, at volume 0.55;
/// * `chaos_pipeline` — a 12-node three-tier pipeline under crash,
///   slowdown and tag faults, with recovery, hedging, admission, the
///   model bank and the observability plane.
///
/// Calibration (seed 42, once per machine generation) happens here, so
/// a caller counting the runs does not count it.
pub fn footprint_cells(requests: f64) -> Vec<FootprintCell> {
    let fleet = Topology::scaled_fleet(16);
    let cells = [
        ("chipshare_fleet", ClusterConfig::sharded(&fleet)),
        (
            "diurnal_elastic",
            ClusterConfig {
                volume: 0.55,
                recovery: Some(RecoveryConfig::standard()),
                autoscale: Some(AutoscaleConfig::standard(4, 8)),
                ..ClusterConfig::sharded(&fleet)
            },
        ),
        (
            "chaos_pipeline",
            ClusterConfig {
                faults: FaultConfig {
                    seed: 42 ^ 0xC4A0_5EED,
                    node_crash_hz: 1.5,
                    node_crash_len: SimDuration::from_millis(120),
                    node_warmup_len: SimDuration::from_millis(80),
                    node_slowdown_hz: 2.0,
                    node_slowdown_factor: 0.35,
                    node_slowdown_len: SimDuration::from_millis(150),
                    tag_loss: 0.03,
                    tag_corrupt: 0.03,
                    ..FaultConfig::none()
                },
                recovery: Some(RecoveryConfig {
                    hedge_after: Some(SimDuration::from_millis(40)),
                    ..RecoveryConfig::standard()
                }),
                admission: Some(AdmissionConfig::standard()),
                model_bank: Some(power_containers::BankConfig::default()),
                obs: Some(ObsConfig::standard()),
                ..ClusterConfig::sharded(&Topology::serving_pipeline(12))
            },
        ),
    ];
    let mut calibrated: Vec<(&'static str, workloads::MachineCalibration)> = Vec::new();
    cells
        .into_iter()
        .map(|(name, mut cfg)| {
            cfg.seed = 42;
            let secs = requests / offered_cluster_rate(&cfg);
            cfg.duration = SimDuration::from_millis((secs * 1e3).ceil() as u64);
            if name == "diurnal_elastic" {
                cfg.traffic = Some(workloads::TrafficShape {
                    diurnal: Some(workloads::Diurnal {
                        period: cfg.duration,
                        amplitude: 0.7,
                        phase: 0.0,
                    }),
                    ..workloads::TrafficShape::steady()
                });
            }
            let cals = cfg
                .nodes
                .iter()
                .map(|spec| {
                    if let Some((_, cal)) = calibrated.iter().find(|(n, _)| *n == spec.name) {
                        return cal.clone();
                    }
                    let cal = workloads::calibrate_machine(spec, CALIBRATION_SEED);
                    calibrated.push((spec.name, cal.clone()));
                    cal
                })
                .collect();
            FootprintCell { name, cfg, cals }
        })
        .collect()
}
