//! The public configuration of a cluster run, the check that a
//! configuration fits the calibrations and policies it runs with, and
//! the request rate it offers.

use crate::autoscale::AutoscaleConfig;
use crate::obs::ObsConfig;
use crate::topology::Topology;
use hwsim::{FaultConfig, MachineSpec};
use simkern::SimDuration;
use workloads::{MachineCalibration, ServerApp, TrafficShape, WorkloadKind};

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node machine specs, flat across tiers; within a tier, newer
    /// machines should come first (use [`Topology`] to build this).
    pub nodes: Vec<MachineSpec>,
    /// Tier membership: `tiers[t]` lists the flat node indices serving
    /// pipeline stage `t`. The tiers must partition `0..nodes.len()`.
    pub tiers: Vec<Vec<usize>>,
    /// Applications in the combined workload (equal load shares).
    pub apps: Vec<WorkloadKind>,
    /// Run length.
    pub duration: SimDuration,
    /// Root seed.
    pub seed: u64,
    /// Worker-pool size per core per app.
    pub workers_per_core: usize,
    /// Offered volume as a fraction of the maximum the *simple balance*
    /// policy can support (the paper's experiment runs at that maximum).
    pub volume: f64,
    /// Cluster-wide active-power cap, enforced through per-request
    /// duty-cycle conditioning of each node's proportional share
    /// ([`node_share`](power_containers::ConditioningPolicy::node_share)).
    /// `None` disables capping.
    pub power_cap_w: Option<f64>,
    /// Retain per-request energy totals in
    /// [`energy_by_ctx`](super::ClusterOutcome::energy_by_ctx) (costs
    /// memory proportional to the request count; off by default).
    pub retain_request_energy: bool,
    /// Fault injection: machine-level faults (meters, counters, tags)
    /// are applied to every node with a node-specific seed; the
    /// node-level slowdown/blackout/crash rates drive a precomputed
    /// window plan the dispatcher must ride out.
    pub faults: FaultConfig,
    /// Request-recovery machinery (timeouts, retries, hedging,
    /// checkpoint cadence). `None` (the default) disables all of it.
    pub recovery: Option<RecoveryConfig>,
    /// Front-door admission control. `None` (the default) admits
    /// every arrival.
    pub admission: Option<AdmissionConfig>,
    /// Trace sink; dispatcher events land on track 3, node `n`'s
    /// fault windows and per-node facility events on track `10 + n`.
    /// Disabled by default.
    pub telemetry: telemetry::Telemetry,
    /// Self-calibrating model bank. When set, every node runs the
    /// `Recalibrated` approach with a per-regime [`ModelBank`](power_containers::ModelBank)
    /// (keyed by machine generation × DVFS level × workload mix)
    /// instead of a single fixed `ChipShare` model. Its drift counters
    /// feed `run_all`'s `drift` column and, with [`ClusterConfig::obs`]
    /// set, the obs plane's `drift/fleet` rollup series.
    pub model_bank: Option<power_containers::BankConfig>,
    /// Always-on observability plane: streaming sketches/rollups, the
    /// energy-SLO burn-rate monitor, and (opt-in) per-request energy
    /// provenance, delivered in [`ClusterOutcome::obs`](super::ClusterOutcome::obs). `None` — the
    /// default — runs the engine byte-identically to before the plane
    /// existed.
    pub obs: Option<ObsConfig>,
    /// Kernel scheduling policy of every node.
    pub sched: ossim::SchedulerKind,
    /// Non-stationary traffic shape (diurnal × flash crowds × sessions).
    /// `None` — the default — drives the legacy stationary
    /// [`OpenLoopGen`](workloads::OpenLoopGen) byte-identically to before the traffic layer
    /// existed; `Some` swaps in a [`TrafficGen`](workloads::TrafficGen) at the same mean
    /// per-app rates.
    pub traffic: Option<TrafficShape>,
    /// Elastic autoscaling (requires a single-tier cluster). `None` —
    /// the default — keeps the whole topology active for the entire
    /// run, byte-identically to the pre-elasticity engine.
    pub autoscale: Option<AutoscaleConfig>,
}

impl ClusterConfig {
    /// The paper's setup: SandyBridge + Woodcrest in a single tier,
    /// GAE-Vosao + RSA-crypto at the simple-balance maximum volume.
    pub fn paper_setup() -> ClusterConfig {
        ClusterConfig {
            nodes: vec![MachineSpec::sandybridge(), MachineSpec::woodcrest()],
            tiers: vec![vec![0, 1]],
            apps: vec![WorkloadKind::GaeVosao, WorkloadKind::RsaCrypto],
            duration: SimDuration::from_secs(10),
            seed: 42,
            workers_per_core: 4,
            volume: 1.0,
            power_cap_w: None,
            retain_request_energy: false,
            faults: FaultConfig::none(),
            recovery: None,
            admission: None,
            telemetry: telemetry::Telemetry::disabled(),
            model_bank: None,
            obs: None,
            sched: ossim::SchedulerKind::RoundRobin,
            traffic: None,
            autoscale: None,
        }
    }

    /// A config for any [`Topology`], serving the paper's GAE-Vosao +
    /// RSA-crypto mix.
    pub fn sharded(topology: &Topology) -> ClusterConfig {
        ClusterConfig {
            nodes: topology.flat_specs(),
            tiers: topology.tier_indices(),
            ..ClusterConfig::paper_setup()
        }
    }
}

/// Per-hop timeout, retry, hedging, and checkpoint-cadence knobs of the
/// dispatcher's request-recovery machinery.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// A hop's deadline is `hop_timeout_mult ×` its expected service
    /// seconds on the chosen node (floored by
    /// [`RecoveryConfig::min_timeout`]).
    pub hop_timeout_mult: f64,
    /// Deadline floor, so sub-millisecond services do not time out on
    /// ordinary queueing.
    pub min_timeout: SimDuration,
    /// Re-dispatch budget per hop; a request that exhausts it is shed
    /// with [`RetriesExhausted`](super::ShedReason::RetriesExhausted) (or
    /// counted [`lost_in_crash`](super::ClusterOutcome::lost_in_crash)
    /// when a crash killed it).
    pub max_retries: u32,
    /// First-retry backoff; attempt `k` waits `2^(k-1) ×` this plus a
    /// seeded jitter below one base unit.
    pub backoff_base: SimDuration,
    /// Send a hedged duplicate to a second node once a hop has waited
    /// this long without reply. `None` disables hedging.
    pub hedge_after: Option<SimDuration>,
    /// Cadence of the per-node container-state checkpoint journal
    /// (only taken when crash faults are configured).
    pub checkpoint_every: SimDuration,
}

impl RecoveryConfig {
    /// Defaults tuned for the chaos sweep: generous per-hop deadlines,
    /// three retries, ~20 ms first backoff, hedging off.
    pub fn standard() -> RecoveryConfig {
        RecoveryConfig {
            hop_timeout_mult: 60.0,
            min_timeout: SimDuration::from_millis(250),
            max_retries: 3,
            backoff_base: SimDuration::from_millis(20),
            hedge_after: None,
            checkpoint_every: SimDuration::from_millis(50),
        }
    }
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig::standard()
    }
}

/// Front-door load shedding. With a power cap configured, admission
/// also sheds new arrivals while the fleet's instantaneous active power
/// exceeds 97 % of the cap.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Shed new arrivals while tier 0's summed outstanding-work
    /// estimate exceeds this many requests per tier-0 core.
    pub max_queue_per_core: f64,
}

impl AdmissionConfig {
    /// Defaults: eight queued requests per core.
    pub fn standard() -> AdmissionConfig {
        AdmissionConfig { max_queue_per_core: 8.0 }
    }
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig::standard()
    }
}

/// Service seconds of one request of `app`/`label` on `spec`.
pub(super) fn service_secs(app: &dyn ServerApp, spec: &MachineSpec) -> f64 {
    let scale = spec.work_scale(&app.representative_profile());
    app.mean_request_cycles() * scale / (spec.freq_ghz * 1e9)
}

/// The per-app arrival rate giving an equal cycle split at the maximum
/// volume the simple-balance policy sustains: the bottleneck node —
/// across every tier, since each request visits each tier once — is the
/// slowest one receiving its tier's equal share of every stream.
pub(super) fn per_app_rate(cfg: &ClusterConfig) -> f64 {
    let apps: Vec<Box<dyn ServerApp>> = cfg.apps.iter().map(|k| k.app()).collect();
    let mut worst = 0.0_f64;
    for tier in &cfg.tiers {
        let share = 1.0 / tier.len() as f64;
        for &ni in tier {
            let spec = &cfg.nodes[ni];
            let cores = spec.total_cores() as f64;
            let util_per_rate: f64 = apps
                .iter()
                .map(|a| share * service_secs(a.as_ref(), spec) / cores)
                .sum();
            worst = worst.max(util_per_rate);
        }
    }
    // Target ~88% utilization on the constrained node at volume 1.0.
    0.88 * cfg.volume / worst
}

/// Total request arrivals per simulated second the configuration offers
/// (all apps combined) — what experiments use to size run durations for
/// a target request count.
pub fn offered_cluster_rate(cfg: &ClusterConfig) -> f64 {
    per_app_rate(cfg) * cfg.apps.len() as f64
}

/// Checks the config against the calibrations and policies it runs
/// with.
pub(super) fn validate(cfg: &ClusterConfig, cals: &[MachineCalibration], policies: usize) {
    assert_eq!(cals.len(), cfg.nodes.len(), "one calibration per node");
    assert_eq!(policies, cfg.tiers.len(), "one policy per tier");
    // The tiers must partition the flat node list.
    let mut seen = vec![false; cfg.nodes.len()];
    for &i in cfg.tiers.iter().flatten() {
        assert!(i < cfg.nodes.len(), "tier references unknown node {i}");
        assert!(!seen[i], "node {i} appears in two tiers");
        seen[i] = true;
    }
    assert!(seen.iter().all(|&s| s), "every node must belong to a tier");
    assert!(cfg.tiers.iter().all(|t| !t.is_empty()), "tiers must be nonempty");
    if let Some(ac) = cfg.autoscale.as_ref() {
        assert_eq!(cfg.tiers.len(), 1, "autoscaling drives a single-tier cluster");
        assert!(ac.initial_nodes <= cfg.tiers[0].len(), "initial fleet larger than the topology");
    }
    assert!(cfg.apps.len() <= u8::MAX as usize, "app index must fit u8");
}
