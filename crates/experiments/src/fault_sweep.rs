//! Robustness ablation: attribution accuracy under injected hardware
//! faults.
//!
//! Sweeps the meter-dropout rate (with counter glitches and tag faults
//! riding along at fixed rates in the `stress` row) and compares the
//! Fig. 8 validation error against the clean run. The acceptance bar
//! for the graceful-degradation machinery: at a ≤5% dropout rate the
//! attribution error stays within 2× of the clean-run error, with zero
//! panics anywhere in the sweep.

use crate::Lab;
use crate::output::{banner, pct, Table};
use crate::runner::RunCtx;
use hwsim::FaultConfig;
use serde::Serialize;
use simkern::SimDuration;
use workloads::{run_app, LoadLevel, RunConfig, WorkloadKind};

/// One sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct FaultSweepRow {
    /// Display name of the fault mix.
    pub scenario: String,
    /// Meter windows dropped per window offered.
    pub meter_dropout: f64,
    /// Fig. 8 validation error at this point.
    pub validation_error: f64,
    /// Faults the machine injected.
    pub faults_injected: u64,
    /// Degradation decisions the facility took.
    pub degradations: u64,
    /// Requests completed.
    pub completions: usize,
}

/// The sweep record.
#[derive(Debug, Clone, Serialize)]
pub struct FaultSweep {
    /// Clean-run validation error (the baseline).
    pub clean_error: f64,
    /// All sweep points, clean first.
    pub rows: Vec<FaultSweepRow>,
    /// Whether the ≤5%-dropout rows stayed within 2× the clean error.
    pub within_bound: bool,
}

fn sweep_point(
    ctx: &RunCtx,
    spec: &hwsim::MachineSpec,
    cal: &workloads::MachineCalibration,
    scenario: &str,
    faults: FaultConfig,
) -> FaultSweepRow {
    let mut cfg = RunConfig::new(spec.clone());
    cfg.sched = ctx.sched.clone();
    cfg.approach = power_containers::Approach::Recalibrated;
    cfg.load = LoadLevel::Half;
    cfg.duration = SimDuration::from_secs(ctx.scale.run_secs());
    let dropout = faults.meter_dropout;
    cfg.faults = faults;
    cfg.telemetry = ctx.trace_handle();
    let outcome = run_app(WorkloadKind::RsaCrypto, &cfg, cal);
    // Dropout rate keeps same-named scenarios (the meter-dropout rows)
    // from clobbering each other's trace files.
    let stem = format!(
        "{}-{}",
        crate::runner::slug(scenario),
        crate::runner::slug(&format!("{:04.1}pct", dropout * 100.0))
    );
    ctx.write_trace("fault_sweep", &stem, &cfg.telemetry);
    let completions = outcome.stats.borrow().completions().len();
    FaultSweepRow {
        scenario: scenario.to_string(),
        meter_dropout: dropout,
        validation_error: outcome.validation_error(),
        faults_injected: outcome.fault_counts().iter().sum(),
        degradations: outcome.degrade_stats().total(),
        completions,
    }
}

/// Runs the sweep and prints the table. Sweep points are independent
/// seeded simulations, so they fan out across [`RunCtx::jobs`]
/// workers; rows keep the canonical order (clean first).
pub fn run(ctx: &RunCtx) -> FaultSweep {
    banner("fault-sweep", "attribution accuracy under injected hardware faults");
    let mut lab = Lab::new(ctx);
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let dropout = |rate: f64| FaultConfig {
        seed: 0xFA17,
        meter_dropout: rate,
        ..FaultConfig::none()
    };
    let mut points: Vec<(&str, FaultConfig)> = vec![("clean", FaultConfig::none())];
    for rate in [0.01, 0.02, 0.05] {
        points.push(("meter dropout", dropout(rate)));
    }
    points.push((
        "dropout + glitches + tag faults",
        FaultConfig {
            seed: 0xFA17,
            meter_dropout: 0.05,
            meter_extra_lag: 0.05,
            counter_glitch_hz: 1.0,
            counter_wrap_hz: 0.5,
            tag_loss: 0.01,
            tag_corrupt: 0.01,
            ..FaultConfig::none()
        },
    ));
    let tasks: Vec<_> = points
        .into_iter()
        .map(|(scenario, faults)| {
            let spec = spec.clone();
            let cal = cal.clone();
            move || sweep_point(ctx, &spec, &cal, scenario, faults)
        })
        .collect();
    let rows: Vec<FaultSweepRow> = crate::runner::run_parallel(ctx.jobs, tasks)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("fault-sweep point failed: {e}"));
    let clean_error = rows[0].validation_error;
    let bound = (clean_error * 2.0).max(0.05);
    let within_bound = rows
        .iter()
        .filter(|r| r.meter_dropout <= 0.05)
        .all(|r| r.validation_error <= bound);
    let mut table =
        Table::new(["scenario", "dropout", "error", "faults", "degradations", "completed"]);
    for r in &rows {
        table.row([
            r.scenario.clone(),
            pct(r.meter_dropout),
            pct(r.validation_error),
            r.faults_injected.to_string(),
            r.degradations.to_string(),
            r.completions.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "degradation bound (2x clean error, 5% floor): {} -- {}",
        pct(bound),
        if within_bound { "HELD" } else { "EXCEEDED" }
    );
    let record = FaultSweep { clean_error, rows, within_bound };
    ctx.write_record("fault_sweep", &record);
    record
}
