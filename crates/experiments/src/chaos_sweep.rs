//! Chaos study: the multi-tier serving pipeline under randomized fault
//! schedules with the full recovery machinery engaged.
//!
//! Sweeps a canonical ladder of seeded fault mixes — crashes at
//! escalating rates, then crashes + slowdowns, then the full chaos mix
//! (simultaneous crashes, slowdowns and tag loss/corruption), with and
//! without a cluster power cap — over a three-tier serving fleet
//! ([`Topology::serving_pipeline`]) with crash recovery, retries,
//! hedging and admission control enabled. Every cell asserts the three
//! shared invariants:
//!
//! 1. **Request conservation** — exact, typed:
//!    `dispatched == completed + Σ shed + lost_in_crash + in_flight`,
//!    and per node `dispatched == completions + in_flight + lost`.
//! 2. **Energy conservation modulo journaled loss windows** — active
//!    energy ≈ attributed + crash-journal losses, within model
//!    tolerance.
//! 3. **Cap compliance** — capped cells stay within the cluster cap
//!    (+ conditioning slack) even while nodes crash and restart.
//!
//! Cells are independent seeded simulations and fan out across
//! [`RunCtx::jobs`] workers; records and traces carry only
//! simulated timestamps, so results are byte-identical at any `--jobs`
//! count.

use crate::output::{banner, Table};
use crate::runner::RunCtx;
use crate::{Lab, Scale};
use cluster::{
    offered_cluster_rate, run_pipeline, ClusterConfig, DistributionPolicy, RecoveryConfig,
    AdmissionConfig, ShedReason, SimpleBalance, Topology,
};
use hwsim::FaultConfig;
use serde::Serialize;
use simkern::SimDuration;
use workloads::MachineCalibration;

/// Fleet size: a three-tier pipeline large enough that single-node
/// crashes leave healthy siblings in every tier.
pub const FLEET_NODES: usize = 6;

/// Relative tolerance for the energy-conservation invariant. Crash loss
/// windows are journaled at checkpoint granularity and the model itself
/// carries calibration error, so fault cells get the fault-tier bound
/// used across the workspace's conservation tests.
const ENERGY_TOL_CLEAN: f64 = 0.25;
const ENERGY_TOL_FAULT: f64 = 0.45;

/// Conditioning slack on capped cells (crash/restart transients make
/// the controller's job slightly harder than in the clean scale sweep).
const CAP_SLACK: f64 = 1.10;

/// One rung of the chaos ladder: a named, seeded fault mix.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ChaosScenario {
    /// Scenario name (also the trace stem).
    pub name: &'static str,
    /// Node crash windows per node-second.
    pub crash_hz: f64,
    /// Node slowdown windows per node-second.
    pub slowdown_hz: f64,
    /// Per-segment wire-tag loss and corruption probability.
    pub tag_fault: f64,
    /// Whether the cell runs under a tight cluster power cap.
    pub capped: bool,
}

impl ChaosScenario {
    /// `true` when the scenario injects any fault at all.
    pub fn faulty(&self) -> bool {
        self.crash_hz > 0.0 || self.slowdown_hz > 0.0 || self.tag_fault > 0.0
    }

    /// `true` for the full-chaos mix: simultaneous crash, slowdown and
    /// tag faults in one cell.
    pub fn simultaneous(&self) -> bool {
        self.crash_hz > 0.0 && self.slowdown_hz > 0.0 && self.tag_fault > 0.0
    }
}

/// The canonical chaos ladder, in escalating order. Both scales run the
/// same scenarios (the ladder *is* the experiment); `Quick` only
/// shortens the runs.
pub const SCENARIOS: &[ChaosScenario] = &[
    ChaosScenario { name: "baseline", crash_hz: 0.0, slowdown_hz: 0.0, tag_fault: 0.0, capped: false },
    ChaosScenario { name: "crash-low", crash_hz: 0.6, slowdown_hz: 0.0, tag_fault: 0.0, capped: false },
    ChaosScenario { name: "crash-high", crash_hz: 2.5, slowdown_hz: 0.0, tag_fault: 0.0, capped: false },
    ChaosScenario { name: "crash-slowdown", crash_hz: 1.5, slowdown_hz: 2.0, tag_fault: 0.0, capped: false },
    ChaosScenario { name: "chaos-full", crash_hz: 2.0, slowdown_hz: 2.0, tag_fault: 0.03, capped: false },
    ChaosScenario { name: "chaos-capped", crash_hz: 2.0, slowdown_hz: 2.0, tag_fault: 0.03, capped: true },
];

/// One cell of the chaos ladder.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosSweepRow {
    /// Scenario name.
    pub scenario: String,
    /// Cluster-wide power cap, Watts (`None` = uncapped).
    pub cap_w: Option<f64>,
    /// Simulated seconds.
    pub sim_secs: f64,
    /// Requests the load generator offered.
    pub dispatched: u64,
    /// Requests that completed the full pipeline.
    pub completed: usize,
    /// Typed shed counts, in [`ShedReason::ALL`] order.
    pub shed: [u64; ShedReason::ALL.len()],
    /// Requests killed by crashes after their retry budget.
    pub lost_in_crash: u64,
    /// Requests still inside the pipeline at the end.
    pub in_flight: u64,
    /// Re-dispatch attempts after timeouts or crashes.
    pub retried: u64,
    /// Hedged duplicate sends.
    pub hedged: u64,
    /// Stale replies recognized and dropped (dedup hits).
    pub stale_replies: u64,
    /// Node crash/restart cycles.
    pub crashes: u64,
    /// Container-state checkpoints journaled.
    pub checkpoints: u64,
    /// Wire tags lost or corrupted in transit.
    pub tag_faults: u64,
    /// Fleet active energy, Joules.
    pub active_energy_j: f64,
    /// Fleet attributed energy, Joules.
    pub attributed_energy_j: f64,
    /// Energy journaled as lost in crash windows, Joules.
    pub lost_energy_j: f64,
    /// Combined active energy rate, Watts.
    pub total_w: f64,
    /// Invariant 1: exact typed request conservation held.
    pub requests_conserved: bool,
    /// Invariant 2: energy conserved modulo journaled loss windows.
    pub energy_conserved: bool,
    /// Invariant 3: the cap held (vacuously true when uncapped).
    pub cap_ok: bool,
}

/// The sweep record.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosSweep {
    /// All cells, in canonical ladder order.
    pub rows: Vec<ChaosSweepRow>,
    /// Every cell satisfied exact request conservation.
    pub requests_conserved: bool,
    /// Every cell satisfied energy conservation modulo loss windows.
    pub energy_conserved: bool,
    /// Every capped cell held its cap.
    pub caps_held: bool,
    /// Every crash-bearing scenario actually crashed (and journaled
    /// checkpoints), so the ladder exercised what it claims.
    pub faults_fired: bool,
}

/// Target request count per cell.
fn target_requests(scale: Scale) -> f64 {
    match scale {
        Scale::Full => 9_000.0,
        Scale::Quick => 1_800.0,
    }
}

/// A cap low enough that conditioning must throttle, with headroom for
/// warm-up transients after restarts.
fn chaos_cap_w(cores: usize) -> f64 {
    9.0 * cores as f64
}

/// Builds one cell's cluster config (shared with the test suites, so
/// the CI smoke cell is exactly a sweep cell). Fault clocks are seeded
/// per scenario from the workspace seed, so every rung sees a distinct
/// but reproducible schedule.
pub fn cell_config(ctx: &RunCtx, scenario: &ChaosScenario) -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::serving_pipeline(FLEET_NODES));
    cfg.sched = ctx.sched.clone();
    cfg.seed = crate::SEED;
    let rate = offered_cluster_rate(&cfg);
    // Long enough that ~1 Hz per-node fault clocks reliably fire even
    // at Quick scale.
    let secs = (target_requests(ctx.scale) / rate).max(1.2);
    cfg.duration = SimDuration::from_millis((secs * 1e3).ceil() as u64);
    if scenario.capped {
        cfg.power_cap_w = Some(chaos_cap_w(cfg.nodes.iter().map(hwsim::MachineSpec::total_cores).sum()));
    }
    cfg.faults = FaultConfig {
        seed: crate::SEED ^ fxhash(scenario.name),
        node_crash_hz: scenario.crash_hz,
        node_crash_len: SimDuration::from_millis(120),
        node_warmup_len: SimDuration::from_millis(80),
        node_slowdown_hz: scenario.slowdown_hz,
        node_slowdown_factor: 0.35,
        node_slowdown_len: SimDuration::from_millis(150),
        tag_loss: scenario.tag_fault,
        tag_corrupt: scenario.tag_fault,
        ..FaultConfig::none()
    };
    cfg.recovery = Some(RecoveryConfig {
        hedge_after: Some(SimDuration::from_millis(40)),
        ..RecoveryConfig::standard()
    });
    cfg.admission = Some(AdmissionConfig::standard());
    cfg.obs = ctx.obs_config();
    cfg
}

/// Deterministic scenario-name hash (FNV-1a) for fault-clock seeding.
fn fxhash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Per-node calibrations for `cfg`, reusing one calibration per
/// distinct machine generation.
pub fn cell_calibrations(lab: &mut Lab, cfg: &ClusterConfig) -> Vec<MachineCalibration> {
    cfg.nodes.iter().map(|spec| lab.calibration(spec.name)).collect()
}

/// Runs one rung of the ladder and checks its invariants. Shared with
/// the CI smoke test.
pub fn run_cell(ctx: &RunCtx, scenario: &ChaosScenario, cals: &[MachineCalibration]) -> ChaosSweepRow {
    let mut cfg = cell_config(ctx, scenario);
    cfg.telemetry = ctx.trace_handle();
    let mut policies: Vec<Box<dyn DistributionPolicy>> = (0..cfg.tiers.len())
        .map(|_| Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>)
        .collect();
    let o = run_pipeline(&mut policies, &cfg, cals);
    ctx.write_trace("chaos_sweep", &crate::runner::slug(scenario.name), &cfg.telemetry);

    // Invariants 1 and 2 — exact typed request conservation (fleet,
    // node and crash log) and energy conservation modulo journaled loss
    // windows. A cell that breaks either panics here, so its row
    // records both as held.
    let tol = if scenario.faulty() { ENERGY_TOL_FAULT } else { ENERGY_TOL_CLEAN };
    if let Err(e) = o.check_conservation(tol) {
        panic!("chaos cell `{}`: {e}", scenario.name);
    }
    let (active, attributed, lost) = o.energy_totals();

    // Invariant 3 — cap compliance (vacuous when uncapped).
    let total_w = o.total_energy_rate_w();
    let cap_ok = cfg.power_cap_w.map(|cap| total_w <= cap * CAP_SLACK).unwrap_or(true);
    assert!(
        cap_ok,
        "chaos cell `{}`: cap violated ({total_w:.1} W over {:?} W)",
        scenario.name, cfg.power_cap_w
    );

    ChaosSweepRow {
        scenario: scenario.name.to_string(),
        cap_w: cfg.power_cap_w,
        sim_secs: cfg.duration.as_secs_f64(),
        dispatched: o.dispatched,
        completed: o.completed,
        shed: o.shed,
        lost_in_crash: o.lost_in_crash,
        in_flight: o.in_flight,
        retried: o.retried,
        hedged: o.hedged,
        stale_replies: o.stale_replies,
        crashes: o.crashes,
        checkpoints: o.checkpoints,
        tag_faults: o.tags_lost + o.tags_corrupted,
        active_energy_j: active,
        attributed_energy_j: attributed,
        lost_energy_j: lost,
        total_w,
        requests_conserved: true,
        energy_conserved: true,
        cap_ok,
    }
}

/// Runs the ladder and prints the grid.
pub fn run(ctx: &RunCtx) -> ChaosSweep {
    banner("chaos-sweep", "crash/recovery invariants under randomized fault schedules");
    let mut lab = Lab::new(ctx);

    let tasks: Vec<_> = SCENARIOS
        .iter()
        .map(|sc| {
            let cals = cell_calibrations(&mut lab, &cell_config(ctx, sc));
            move || run_cell(ctx, sc, &cals)
        })
        .collect();
    let rows: Vec<ChaosSweepRow> = crate::runner::run_parallel(ctx.jobs, tasks)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("chaos-sweep cell failed: {e}"));

    let mut table = Table::new([
        "scenario", "completed", "shed", "lost", "retried", "hedged", "crashes", "lost (J)",
        "total (W)",
    ]);
    for r in &rows {
        table.row([
            r.scenario.clone(),
            r.completed.to_string(),
            r.shed.iter().sum::<u64>().to_string(),
            r.lost_in_crash.to_string(),
            r.retried.to_string(),
            r.hedged.to_string(),
            r.crashes.to_string(),
            format!("{:.1}", r.lost_energy_j),
            format!("{:.1}", r.total_w),
        ]);
    }
    println!("{table}");

    let requests_conserved = rows.iter().all(|r| r.requests_conserved);
    let energy_conserved = rows.iter().all(|r| r.energy_conserved);
    let caps_held = rows.iter().all(|r| r.cap_ok);
    let faults_fired = SCENARIOS.iter().zip(&rows).all(|(sc, r)| {
        (sc.crash_hz == 0.0 || (r.crashes > 0 && r.checkpoints > 0))
            && (sc.tag_fault == 0.0 || r.tag_faults > 0)
    });
    println!(
        "request conservation: {} | energy conservation: {} | caps: {} | fault clocks: {}",
        if requests_conserved { "EXACT" } else { "VIOLATED" },
        if energy_conserved { "HELD" } else { "VIOLATED" },
        if caps_held { "HELD" } else { "EXCEEDED" },
        if faults_fired { "FIRED" } else { "SILENT" },
    );

    let record = ChaosSweep { rows, requests_conserved, energy_conserved, caps_held, faults_fired };
    ctx.write_record("chaos_sweep", &record);
    record
}
