//! Scale study: the multi-tier serving pipeline across fleet sizes,
//! policies, and cluster power caps.
//!
//! Sweeps a (nodes × policy × cap) grid of three-tier serving fleets
//! ([`Topology::serving_pipeline`]) under the deterministic open-loop
//! load generator, then re-validates the Fig. 14 / Table 1 result at
//! scale: the policy ordering (workload-aware < machine-aware < simple
//! balance on total power) must survive the jump from the paper's
//! two-machine cluster to a 16-node pipeline. Capped cells additionally
//! check that the cluster-wide power cap — enforced purely through
//! per-node request conditioning, with no cross-node coordination —
//! actually holds.
//!
//! Cells are independent seeded simulations and fan out across
//! [`RunCtx::jobs`] workers; the record is free of wall-clock
//! values, so results are byte-identical at any `--jobs` count.

use crate::output::{banner, Table};
use crate::runner::RunCtx;
use crate::{Lab, Scale};
use cluster::{
    energy_affinity, offered_cluster_rate, run_pipeline, ClusterConfig, DistributionPolicy,
    MachineHeterogeneityAware, SimpleBalance, Topology, WorkloadHeterogeneityAware,
};
use serde::Serialize;
use simkern::SimDuration;
use workloads::{MachineCalibration, WorkloadKind};

/// One cell of the (nodes × policy × cap) grid.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleSweepRow {
    /// Fleet size (nodes across all three tiers).
    pub nodes: usize,
    /// Total cores across the fleet.
    pub cores: usize,
    /// Tier-0 policy name.
    pub policy: String,
    /// Cluster-wide power cap, Watts (`None` = uncapped).
    pub cap_w: Option<f64>,
    /// Simulated seconds.
    pub sim_secs: f64,
    /// Requests the load generator offered.
    pub dispatched: u64,
    /// Requests that completed the full pipeline.
    pub completed: usize,
    /// Requests dropped (all target nodes penalized).
    pub dropped: u64,
    /// Requests still in the pipeline at the end.
    pub in_flight: u64,
    /// Routing decisions the dispatcher made (dispatches + hops).
    pub decisions: u64,
    /// Combined active energy rate across the fleet, Watts.
    pub total_w: f64,
    /// Mean end-to-end response time across apps, seconds.
    pub mean_resp_s: f64,
    /// For capped cells: did the fleet stay within the cap (+5%
    /// conditioning slack)? Always `true` for uncapped cells.
    pub cap_ok: bool,
}

/// The sweep record.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleSweep {
    /// All cells, in canonical (nodes, policy, cap) order.
    pub rows: Vec<ScaleSweepRow>,
    /// The largest fleet size swept.
    pub largest_nodes: usize,
    /// Fig. 14 re-validation at the largest uncapped fleet:
    /// workload-aware < machine-aware < simple balance on total power.
    pub ordering_at_scale: bool,
    /// Every capped cell stayed within its cap (+5% slack).
    pub caps_held: bool,
}

/// Fleet sizes for each scale (each is a three-tier pipeline).
pub fn fleet_sizes(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Full => &[4, 8, 16],
        Scale::Quick => &[4, 16],
    }
}

/// Target request count per cell.
fn target_requests(scale: Scale) -> f64 {
    match scale {
        Scale::Full => 10_500.0,
        Scale::Quick => 2_200.0,
    }
}

/// A tight cluster cap for a fleet with `cores` total cores: well below
/// the fleets' observed ~10-15 W/core uncapped draw, so conditioning
/// must actually throttle.
fn tight_cap_w(cores: usize) -> f64 {
    8.0 * cores as f64
}

/// The three policy kinds, in the canonical (Fig. 14) order.
pub(crate) const POLICY_KINDS: &[&str] = &["simple", "machine", "workload"];

pub(crate) fn make_policies(
    kind: &str,
    tiers: usize,
    ratios: &[(WorkloadKind, f64)],
) -> Vec<Box<dyn DistributionPolicy>> {
    (0..tiers)
        .map(|_| match kind {
            "simple" => Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>,
            "machine" => Box::new(MachineHeterogeneityAware::new()),
            "workload" => Box::new(WorkloadHeterogeneityAware::new(ratios.to_vec())),
            other => panic!("unknown policy kind {other}"),
        })
        .collect()
}

/// Builds one cell's cluster config (shared with the test suites, so the
/// CI smoke cell is exactly a sweep cell).
pub fn cell_config(ctx: &RunCtx, nodes: usize, cap_w: Option<f64>) -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::serving_pipeline(nodes));
    cfg.sched = ctx.sched.clone();
    cfg.seed = crate::SEED;
    cfg.power_cap_w = cap_w;
    // Size the run so the open-loop generator offers the target request
    // count regardless of fleet size (bigger fleets absorb higher rates,
    // so they need less simulated time).
    let rate = offered_cluster_rate(&cfg);
    let secs = (target_requests(ctx.scale) / rate).max(0.25);
    cfg.duration = SimDuration::from_millis((secs * 1e3).ceil() as u64);
    cfg.obs = ctx.obs_config();
    cfg
}

/// Per-node calibrations for `cfg`, reusing one calibration per distinct
/// machine generation.
pub fn cell_calibrations(lab: &mut Lab, cfg: &ClusterConfig) -> Vec<MachineCalibration> {
    cfg.nodes.iter().map(|spec| lab.calibration(spec.name)).collect()
}

fn run_cell(
    ctx: &RunCtx,
    nodes: usize,
    kind: &str,
    cap_w: Option<f64>,
    ratios: &[(WorkloadKind, f64)],
    cals: &[MachineCalibration],
) -> ScaleSweepRow {
    let mut cfg = cell_config(ctx, nodes, cap_w);
    cfg.telemetry = ctx.trace_handle();
    let mut policies = make_policies(kind, cfg.tiers.len(), ratios);
    let outcome = run_pipeline(&mut policies, &cfg, cals);
    let stem = format!(
        "{nodes:02}nodes-{}-{}",
        crate::runner::slug(kind),
        match cap_w {
            Some(w) => format!("cap{w:.0}w"),
            None => "uncapped".to_string(),
        }
    );
    ctx.write_trace("scale_sweep", &stem, &cfg.telemetry);
    let total_w = outcome.total_energy_rate_w();
    let resp: Vec<f64> = outcome
        .response_by_app
        .iter()
        .filter(|(_, s)| s.count() > 0)
        .map(|(_, s)| s.mean())
        .collect();
    ScaleSweepRow {
        nodes,
        cores: cfg.nodes.iter().map(hwsim::MachineSpec::total_cores).sum(),
        policy: outcome.policy.to_string(),
        cap_w,
        sim_secs: cfg.duration.as_secs_f64(),
        dispatched: outcome.dispatched,
        completed: outcome.completed,
        dropped: outcome.dropped,
        in_flight: outcome.in_flight,
        decisions: outcome.decisions,
        total_w,
        mean_resp_s: resp.iter().sum::<f64>() / resp.len().max(1) as f64,
        cap_ok: cap_w.map(|cap| total_w <= cap * 1.05).unwrap_or(true),
    }
}

/// Profiles the two apps' cross-machine energy affinity for the
/// workload-aware policy (Fig. 13's procedure, short runs — shared by
/// every cell).
pub(crate) fn profiled_ratios(lab: &mut Lab, scale: Scale) -> Vec<(WorkloadKind, f64)> {
    let sb = lab.spec("sandybridge");
    let wc = lab.spec("woodcrest");
    let sb_cal = lab.calibration("sandybridge");
    let wc_cal = lab.calibration("woodcrest");
    let apps = [WorkloadKind::GaeVosao, WorkloadKind::RsaCrypto];
    energy_affinity(
        &apps,
        (&sb, &sb_cal),
        (&wc, &wc_cal),
        crate::SEED + 5,
        SimDuration::from_secs(scale.run_secs() / 2 + 2),
    )
    .iter()
    .map(|r| (r.kind, r.ratio()))
    .collect()
}

/// Runs the sweep and prints the grid.
pub fn run(ctx: &RunCtx) -> ScaleSweep {
    let scale = ctx.scale;
    banner("scale-sweep", "multi-tier serving pipeline across fleet sizes and caps");
    let mut lab = Lab::new(ctx);
    let ratios = profiled_ratios(&mut lab, scale);
    let sizes = fleet_sizes(scale);
    let largest = *sizes.last().expect("nonempty size list");

    // Canonical cell order: nodes, then policy, then cap. Capped cells
    // run only at the largest fleet, where the cap question is
    // interesting.
    let mut cells: Vec<(usize, &'static str, Option<f64>)> = Vec::new();
    for &n in sizes {
        for &kind in POLICY_KINDS {
            cells.push((n, kind, None));
        }
    }
    let largest_cores = Topology::serving_pipeline(largest).total_cores();
    for &kind in POLICY_KINDS {
        cells.push((largest, kind, Some(tight_cap_w(largest_cores))));
    }

    let tasks: Vec<_> = cells
        .into_iter()
        .map(|(n, kind, cap)| {
            let ratios = ratios.clone();
            let cals = cell_calibrations(&mut lab, &cell_config(ctx, n, cap));
            move || run_cell(ctx, n, kind, cap, &ratios, &cals)
        })
        .collect();
    let rows: Vec<ScaleSweepRow> = crate::runner::run_parallel(ctx.jobs, tasks)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("scale-sweep cell failed: {e}"));

    let mut table = Table::new([
        "nodes", "policy", "cap (W)", "total (W)", "completed", "dropped", "resp (ms)",
    ]);
    for r in &rows {
        table.row([
            r.nodes.to_string(),
            r.policy.clone(),
            r.cap_w.map(|w| format!("{w:.0}")).unwrap_or_else(|| "-".to_string()),
            format!("{:.1}", r.total_w),
            r.completed.to_string(),
            r.dropped.to_string(),
            format!("{:.1}", r.mean_resp_s * 1e3),
        ]);
    }
    println!("{table}");

    let total_of = |kind: &str| {
        rows.iter()
            .find(|r| r.nodes == largest && r.cap_w.is_none() && r.policy.contains(kind))
            .map(|r| r.total_w)
            .expect("largest uncapped cell present")
    };
    let (simple, machine, workload) =
        (total_of("simple"), total_of("machine"), total_of("workload"));
    let ordering_at_scale = workload < machine && machine < simple;
    let caps_held = rows.iter().all(|r| r.cap_ok);
    println!(
        "fig14 ordering at {largest} nodes: workload {workload:.1} W < machine {machine:.1} W < simple {simple:.1} W -- {}",
        if ordering_at_scale { "HELD" } else { "VIOLATED" }
    );
    println!("power caps: {}", if caps_held { "HELD" } else { "EXCEEDED" });

    let record = ScaleSweep { rows, largest_nodes: largest, ordering_at_scale, caps_held };
    ctx.write_record("scale_sweep", &record);
    record
}
