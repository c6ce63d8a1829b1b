//! The benchmark workloads, built only from the public constructors of
//! the `cluster` and `workloads` crates, so that the engine and the
//! experiment harness can be reshaped without editing the benchmark.

use crate::trace::Tracer;
use cluster::{
    offered_cluster_rate, run_cluster, run_pipeline, AdmissionConfig, AutoscaleConfig,
    ClusterConfig, ClusterOutcome, DistributionPolicy, ObsConfig, RecoveryConfig, SimpleBalance,
    Topology,
};
use hwsim::{FaultConfig, MachineSpec};
use simkern::SimDuration;
use workloads::{calibrate_machine, Diurnal, MachineCalibration, TrafficShape};

/// Default workload seed: the repository's root seed.
pub const DEFAULT_SEED: u64 = 42;

/// Seed of the offline calibration (paper §4.1). The fitted machine
/// models belong to the system under test, so every workload seed runs
/// against the same models; the experiments calibrate with this seed too.
pub const CALIBRATION_SEED: u64 = 42;

/// Independent episodes per run. The simulated metrics pool all of
/// them, which keeps their spread across workload seeds small.
pub const EPISODES: usize = 8;

/// The seed of `episode`; episode 0 runs the workload seed itself.
pub fn episode_seed(seed: u64, episode: usize) -> u64 {
    seed.wrapping_add((episode as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100-node single-tier fleet under the stationary open-loop load at
    /// volume 1.0; no faults, cap, autoscaling, model bank or obs plane.
    FleetSteady,
    /// The diurnal sweep's autoscaled "diurnal" rung: 64 nodes at volume
    /// 0.55 over one compressed day, with recovery and the autoscaler.
    DiurnalElastic,
    /// 12-node three-tier pipeline under the chaos sweep's crash,
    /// slowdown and tag-fault mix, with recovery, hedging, admission,
    /// the model bank and the obs plane.
    PipelineChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::FleetSteady, Workload::DiurnalElastic, Workload::PipelineChaos];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet_steady",
            Workload::DiurnalElastic => "diurnal_elastic",
            Workload::PipelineChaos => "pipeline_chaos",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests one full-length episode offers.
    pub fn requests(self) -> f64 {
        match self {
            Workload::FleetSteady => 100_000.0,
            Workload::DiurnalElastic => 200_000.0,
            Workload::PipelineChaos => 20_000.0,
        }
    }

    /// Relative tolerance of the energy-conservation check: the bounds
    /// the megafleet, diurnal and chaos experiments assert.
    pub fn energy_tol(self) -> f64 {
        match self {
            Workload::FleetSteady => 0.20,
            Workload::DiurnalElastic => 0.25,
            Workload::PipelineChaos => 0.45,
        }
    }

    /// The configuration for `seed`, sized to offer about `requests`.
    pub fn config(self, seed: u64, requests: f64) -> ClusterConfig {
        let mut cfg = match self {
            Workload::FleetSteady => ClusterConfig::sharded(&Topology::scaled_fleet(100)),
            Workload::DiurnalElastic => ClusterConfig {
                volume: 0.55,
                recovery: Some(RecoveryConfig::standard()),
                autoscale: Some(AutoscaleConfig::standard(8, 32)),
                ..ClusterConfig::sharded(&Topology::scaled_fleet(64))
            },
            Workload::PipelineChaos => ClusterConfig {
                faults: FaultConfig {
                    seed: seed ^ 0xC4A0_5EED,
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
        };
        cfg.seed = seed;
        let secs = requests / offered_cluster_rate(&cfg);
        cfg.duration = SimDuration::from_millis((secs * 1e3).ceil() as u64);
        if self == Workload::DiurnalElastic {
            // One compressed day: the sinusoid's period is the whole run.
            cfg.traffic = Some(TrafficShape {
                diurnal: Some(Diurnal { period: cfg.duration, amplitude: 0.7, phase: 0.0 }),
                ..TrafficShape::steady()
            });
        }
        cfg
    }
}

/// The offline calibration of each machine generation.
pub struct Lab {
    /// Generation, its calibration, and the host seconds it took.
    pub gens: Vec<(MachineSpec, MachineCalibration, f64)>,
}

impl Lab {
    /// Calibrates every generation in the paper's order, one span each.
    pub fn calibrate(tracer: &mut Tracer) -> Lab {
        let gens = MachineSpec::all_machines()
            .into_iter()
            .map(|spec| {
                let span = format!("workloads.calibrate_machine.{}", spec.name);
                let (cal, secs) =
                    tracer.timed(&span, || calibrate_machine(&spec, CALIBRATION_SEED));
                (spec, cal, secs)
            })
            .collect();
        Lab { gens }
    }

    /// One calibration per node of `cfg`, in node order.
    pub fn for_config(&self, cfg: &ClusterConfig) -> Vec<MachineCalibration> {
        cfg.nodes
            .iter()
            .map(|node| {
                let (_, cal, _) = self
                    .gens
                    .iter()
                    .find(|(spec, _, _)| spec.name == node.name)
                    .expect("every node is a calibrated generation");
                cal.clone()
            })
            .collect()
    }
}

/// Runs `cfg` with simple balance routing every tier: `run_cluster` for
/// a single tier, `run_pipeline` for a multi-tier pipeline.
pub fn simulate(cfg: &ClusterConfig, cals: &[MachineCalibration]) -> ClusterOutcome {
    if cfg.tiers.len() == 1 {
        return run_cluster(&mut SimpleBalance::new(), cfg, cals);
    }
    let mut policies: Vec<Box<dyn DistributionPolicy>> = cfg
        .tiers
        .iter()
        .map(|_| Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>)
        .collect();
    run_pipeline(&mut policies, cfg, cals)
}
