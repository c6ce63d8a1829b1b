//! Fig. 11 — fair power conditioning of power viruses.
//!
//! GAE-Vosao runs at peak load on the SandyBridge machine; sporadic
//! power viruses (~1/s, ~100 ms each) arrive partway into the run and
//! cause visible power spikes. With container-based conditioning, each
//! request's power is compared against its fair share of the system
//! target and only the offenders are duty-cycle throttled, keeping the
//! system at or below the target.

use crate::Lab;
use crate::output::{banner, Table};
use crate::runner::RunCtx;
use power_containers::ConditioningPolicy;
use serde::Serialize;
use simkern::{SimDuration, SimTime};
use workloads::{
    prepare_app, spawn_driver, CtxAlloc, DriverEnv, LoadLevel, RunConfig, RunOutcome,
    WorkloadKind, POWER_VIRUS_LABEL,
};

/// One conditioning run's data.
#[derive(Debug, Clone, Serialize)]
pub struct ConditioningRun {
    /// Whether the facility's conditioning was enabled.
    pub conditioned: bool,
    /// Active-power trace in 100 ms buckets, Watts.
    pub trace_w: Vec<f64>,
    /// Peak active power after virus injection, Watts.
    pub peak_after_w: f64,
    /// Fraction of post-injection buckets above the target.
    pub frac_above_target: f64,
}

/// The shared data of Fig. 11 and Fig. 12.
pub struct ConditioningData {
    /// The active-power target, Watts.
    pub target_w: f64,
    /// When viruses start arriving.
    pub virus_start: SimTime,
    /// The unconditioned run.
    pub baseline: (ConditioningRun, RunOutcome),
    /// The conditioned run.
    pub conditioned: (ConditioningRun, RunOutcome),
}

/// The Fig. 11 JSON record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11 {
    /// The active-power target, Watts.
    pub target_w: f64,
    /// Virus arrival start, seconds.
    pub virus_start_s: f64,
    /// Both runs' traces.
    pub runs: Vec<ConditioningRun>,
}

/// The GAE-Vosao load for the conditioning experiments: high enough that
/// all four cores are regularly busy (the paper's "fully utilizes"
/// setting), but just below open-loop saturation — throttled viruses
/// must consume headroom rather than inflate every queue, or the
/// per-request-vs-full-machine comparison degenerates into pure queueing
/// amplification.
pub const SATURATING_LOAD: LoadLevel = LoadLevel::Fraction(1.3);

fn run_once(
    ctx: &RunCtx,
    lab: &mut Lab,
    policy_target: Option<f64>,
    measure_target: f64,
    duration: SimDuration,
    virus_start: SimTime,
) -> (ConditioningRun, RunOutcome) {
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let mut cfg = RunConfig::new(spec);
    cfg.sched = ctx.sched.clone();
    cfg.load = SATURATING_LOAD;
    cfg.closed_loop = Some(2 * cfg.spec.total_cores());
    cfg.duration = duration;
    cfg.conditioning = policy_target.map(ConditioningPolicy::new);
    let mut prepared = prepare_app(std::rc::Rc::from(WorkloadKind::GaeVosao.app()), &cfg, &cal);
    // Sporadic power viruses arriving from `virus_start` on.
    spawn_driver(
        &mut prepared.kernel,
        DriverEnv {
            inboxes: prepared.inboxes.clone(),
            mean_gap: SimDuration::from_millis(350),
            pick_label: Box::new(|_| POWER_VIRUS_LABEL),
            stats: std::rc::Rc::clone(&prepared.stats),
            facility: Some(std::rc::Rc::clone(&prepared.facility)),
            ctxs: CtxAlloc::new(1_000_000_000),
            max_requests: None,
            start_after: virus_start.duration_since(SimTime::ZERO),
        },
    );
    // Step in 100 ms buckets recording the active-power trace.
    let mut trace = Vec::new();
    let mut last_energy = 0.0;
    let mut t = SimTime::ZERO;
    while t < SimTime::ZERO + duration {
        t += SimDuration::from_millis(100);
        prepared.kernel.run_until(t);
        let e = prepared.kernel.machine().true_active_energy_j();
        trace.push((e - last_energy) / 0.1);
        last_energy = e;
    }
    let outcome = prepared.finish();
    let start_idx = (virus_start.as_secs_f64() * 10.0) as usize;
    let after = &trace[start_idx.min(trace.len())..];
    let peak_after = after.iter().copied().fold(0.0, f64::max);
    let above = after.iter().filter(|&&w| w > measure_target * 1.02).count() as f64
        / after.len().max(1) as f64;
    (
        ConditioningRun {
            conditioned: policy_target.is_some(),
            trace_w: trace,
            peak_after_w: peak_after,
            frac_above_target: above,
        },
        outcome,
    )
}

/// Runs both the baseline and conditioned experiments (shared with
/// Fig. 12).
pub fn conditioning_data(ctx: &RunCtx) -> ConditioningData {
    let mut lab = Lab::new(ctx);
    let duration = SimDuration::from_secs(ctx.scale.run_secs().max(8));
    let virus_start = SimTime::from_secs(duration.as_secs_f64() as u64 * 2 / 5);

    // Establish the normal-operation power level at saturation, then set
    // the target a hair above it (the paper's 40 W plays the same role).
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let mut probe_cfg = RunConfig::new(spec.clone());
    probe_cfg.sched = ctx.sched.clone();
    probe_cfg.load = SATURATING_LOAD;
    probe_cfg.closed_loop = Some(2 * probe_cfg.spec.total_cores());
    probe_cfg.duration = SimDuration::from_secs(3);
    let probe = workloads::run_app(WorkloadKind::GaeVosao, &probe_cfg, &cal);
    // The paper's 40 W target sits just above the power of a machine whose
    // cores are all busy with *normal* requests: per-request budgets then
    // clear every Vosao request and catch only the viruses.
    let mean_normal_w = {
        let f = probe.facility.borrow();
        let s: analysis::stats::Summary = f
            .containers()
            .records()
            .iter()
            .filter(|r| r.busy_seconds > 0.0)
            .map(|r| r.mean_power_w)
            .collect();
        s.mean()
    };
    let target = spec.total_cores() as f64 * mean_normal_w * 1.06;

    let baseline = run_once(ctx, &mut lab, None, target, duration, virus_start);
    let conditioned = run_once(ctx, &mut lab, Some(target), target, duration, virus_start);
    ConditioningData { target_w: target, virus_start, baseline, conditioned }
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Fig11 {
    banner("fig11", "power conditioning of power viruses (GAE, SandyBridge)");
    let data = conditioning_data(ctx);
    let mut table = Table::new(["run", "peak after viruses (W)", "buckets above target"]);
    for (run, _) in [&data.baseline, &data.conditioned] {
        table.row([
            if run.conditioned { "conditioned" } else { "original" }.to_string(),
            format!("{:.1}", run.peak_after_w),
            format!("{:.0}%", run.frac_above_target * 100.0),
        ]);
    }
    println!("active power target: {:.1} W", data.target_w);
    println!("viruses arrive at t = {}", data.virus_start);
    println!("{table}");
    // A compact trace excerpt around the virus start.
    let start = (data.virus_start.as_secs_f64() * 10.0) as usize;
    println!("trace excerpt (W per 100 ms bucket, from virus arrival):");
    for (name, run) in [("original", &data.baseline.0), ("conditioned", &data.conditioned.0)] {
        let excerpt: Vec<String> = run.trace_w[start..run.trace_w.len().min(start + 20)]
            .iter()
            .map(|w| format!("{w:.0}"))
            .collect();
        println!("  {name:>11}: {}", excerpt.join(" "));
    }
    let record = Fig11 {
        target_w: data.target_w,
        virus_start_s: data.virus_start.as_secs_f64(),
        runs: vec![data.baseline.0.clone(), data.conditioned.0.clone()],
    };
    ctx.write_record("fig11", &record);
    record
}
