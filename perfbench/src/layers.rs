//! Per-layer probes, each timed from outside one layer's public API.

use cluster::{
    generation_rank, offered_cluster_rate, ArrivalView, AutoscaleConfig, Autoscaler,
    ClusterConfig, DistributionPolicy, FleetSample, NodeView, ScaleDecision, SimpleBalance,
};
use hwsim::MachineSpec;
use power_containers::{Approach, BankConfig};
use simkern::{SimDuration, SimTime};
use std::hint::black_box;
use workloads::{
    offered_rate, run_app, Arrival, LoadLevel, MachineCalibration, OpenLoopGen, RunConfig,
    ServerApp, TrafficGen,
};

/// Feeds every arrival of `cfg`'s own generator to `f`: the generator
/// the engine builds, with the same seed, per-app rates, end and shape.
pub fn arrivals(cfg: &ClusterConfig, mut f: impl FnMut(Arrival)) {
    let apps: Vec<Box<dyn ServerApp>> = cfg.apps.iter().map(|k| k.app()).collect();
    let rates = vec![offered_cluster_rate(cfg) / apps.len() as f64; apps.len()];
    let end = SimTime::ZERO + cfg.duration;
    match &cfg.traffic {
        Some(shape) => {
            let mut gen = TrafficGen::new(cfg.seed, &rates, end, shape);
            while let Some(a) = gen.next(&apps) {
                f(a);
            }
        }
        None => {
            let mut gen = OpenLoopGen::new(cfg.seed, &rates, end);
            while let Some(a) = gen.next(&apps) {
                f(a);
            }
        }
    }
}

/// Host ns per arrival of `cfg`'s generator, and the arrival count.
pub fn traffic(cfg: &ClusterConfig) -> (f64, u64) {
    let mut n = 0u64;
    let ((), secs) = crate::timed(|| {
        arrivals(cfg, |a| {
            black_box(a);
            n += 1;
        })
    });
    (secs * 1e9 / n.max(1) as f64, n)
}

/// Simulated length of each single-node replay.
const REPLAY: SimDuration = SimDuration::from_secs(3);

/// One machine generation's node-stack cost (hwsim + ossim + the
/// facility + the apps) at a workload's per-node load.
#[derive(Debug, Clone, Copy)]
pub struct NodeCost {
    /// Host µs per completed request with the fixed chip-share model.
    pub busy_us_per_req: f64,
    /// Host ms per simulated node-second at near-zero load.
    pub idle_ms_per_sim_s: f64,
    /// Extra host µs per request with the recalibrating model bank.
    pub recal_extra_us_per_req: f64,
    /// Context switches of the chip-share replay.
    pub ctx_switches: u64,
    /// Requests the chip-share replay completed.
    pub completions: u64,
}

struct Replay {
    host_s: f64,
    completions: u64,
    ctx_switches: u64,
}

impl Replay {
    fn us_per_req(&self) -> f64 {
        self.host_s * 1e6 / self.completions.max(1) as f64
    }
}

/// Runs each of `cfg`'s apps on one `spec` node for [`REPLAY`] at
/// `rate_per_app` requests per second.
fn replay(
    spec: &MachineSpec,
    cal: &MachineCalibration,
    cfg: &ClusterConfig,
    rate_per_app: f64,
    bank: bool,
) -> Replay {
    let mut r = Replay { host_s: 0.0, completions: 0, ctx_switches: 0 };
    for &kind in &cfg.apps {
        let peak = offered_rate(kind.app().as_ref(), spec, LoadLevel::Peak);
        let mut rc = RunConfig::new(spec.clone());
        rc.seed = cfg.seed;
        rc.duration = REPLAY;
        rc.load = LoadLevel::Fraction((rate_per_app / peak).min(1.0));
        rc.workers_per_core = cfg.workers_per_core;
        if bank {
            rc.approach = Approach::Recalibrated;
            rc.model_bank = Some(BankConfig::default());
        }
        let (out, secs) = crate::timed(|| run_app(kind, &rc, cal));
        r.host_s += secs;
        r.completions += out.stats.borrow().completions().len() as u64;
        r.ctx_switches += out.kernel.stats().context_switches;
    }
    r
}

/// Replays one `spec` node at `rate_per_app` requests per second of each
/// of `cfg`'s apps: with the chip-share model, with the model bank, and
/// at a thousandth of the load.
pub fn node_cost(
    spec: &MachineSpec,
    cal: &MachineCalibration,
    cfg: &ClusterConfig,
    rate_per_app: f64,
) -> NodeCost {
    let busy = replay(spec, cal, cfg, rate_per_app, false);
    let recal = replay(spec, cal, cfg, rate_per_app, true);
    let idle = replay(spec, cal, cfg, rate_per_app * 1e-3, false);
    NodeCost {
        busy_us_per_req: busy.us_per_req(),
        idle_ms_per_sim_s: idle.host_s * 1e3 / (REPLAY.as_secs_f64() * cfg.apps.len() as f64),
        recal_extra_us_per_req: recal.us_per_req() - busy.us_per_req(),
        ctx_switches: busy.ctx_switches,
        completions: busy.completions,
    }
}

/// Calls per timed batch of the microbenchmarks below.
const BATCH: u32 = 100_000;
/// Timed batches; the result is their median.
const BATCHES: usize = 9;

fn median_ns(mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let ((), secs) = crate::timed(|| (0..BATCH).for_each(|_| f()));
            secs * 1e9 / BATCH as f64
        })
        .collect();
    crate::median(&per_call)
}

/// Median host ns of one `SimpleBalance::choose` over a view slice the
/// size of `cfg`'s first tier.
pub fn policy_choose_ns(cfg: &ClusterConfig) -> f64 {
    let views: Vec<NodeView> = cfg.tiers[0]
        .iter()
        .enumerate()
        .map(|(k, &i)| NodeView {
            outstanding: (k % 5) as f64,
            cores: cfg.nodes[i].total_cores(),
            rank: generation_rank(&cfg.nodes[i]),
        })
        .collect();
    let req = ArrivalView { app: cfg.apps[0], label: 0 };
    let mut policy = SimpleBalance::new();
    median_ns(|| {
        black_box(policy.choose(black_box(req), black_box(&views)));
    })
}

/// Evaluations in one simulated day of the autoscaler probe.
const DAY: usize = 2_000;

/// Median host ns of one `Autoscaler::decide` over a diurnal-shaped
/// sample sequence, each decision applied to the probe's fleet size.
/// Uses `cfg`'s autoscaler, or the standard one sized to its fleet.
pub fn autoscale_decide_ns(cfg: &ClusterConfig) -> f64 {
    let nodes = cfg.nodes.len();
    let ac = cfg
        .autoscale
        .unwrap_or_else(|| AutoscaleConfig::standard((nodes / 8).max(1), (nodes / 2).max(1)));
    let wave: Vec<f64> = (0..DAY)
        .map(|i| 1.0 + 0.7 * (i as f64 / DAY as f64 * std::f64::consts::TAU).sin())
        .collect();
    let mut scaler = Autoscaler::new(ac);
    let (mut now, mut active, mut i) = (SimTime::ZERO, ac.initial_nodes, 0usize);
    median_ns(|| {
        now += ac.eval_every;
        i = (i + 1) % DAY;
        let sample = FleetSample {
            now,
            active,
            landing: 0,
            draining: 0,
            standby: nodes - active,
            util: 1.1 * wave[i] * ac.initial_nodes as f64 / active as f64,
            power_frac: 0.0,
        };
        active = match scaler.decide(black_box(&sample)).0 {
            ScaleDecision::Out(k) => (active + k).min(nodes),
            ScaleDecision::In(k) => active.saturating_sub(k).max(ac.min_nodes),
            ScaleDecision::Hold => active,
        };
    })
}
