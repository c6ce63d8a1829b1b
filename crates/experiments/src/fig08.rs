//! Fig. 8 — accuracy of the three accounting approaches.
//!
//! For every workload, machine, and load level, sum the energy profiles
//! of all requests (plus the background container) and compare against
//! the measured system active energy. The paper's worst-case validation
//! errors per machine: Approach #1 (core events only) 29/41/20%,
//! Approach #2 (+ chip-share) 18/35/13%, Approach #3 (+ recalibration)
//! 8/9/6%.

use crate::output::{banner, pct, Table};
use crate::runner::RunCtx;
use crate::{Lab, Scale};
use power_containers::Approach;
use serde::Serialize;
use simkern::SimDuration;
use workloads::{run_app, LoadLevel, RunConfig, WorkloadKind};

/// One validation cell.
#[derive(Debug, Clone, Serialize)]
pub struct ValidationCell {
    /// Machine name.
    pub machine: String,
    /// Workload name.
    pub workload: String,
    /// Load level name.
    pub load: String,
    /// Validation error per approach (#1, #2, #3).
    pub errors: [f64; 3],
}

/// The Fig. 8 record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8 {
    /// All cells.
    pub cells: Vec<ValidationCell>,
    /// Worst-case error per machine per approach.
    pub worst_case: Vec<(String, [f64; 3])>,
}

fn approach_name(a: Approach) -> &'static str {
    match a {
        Approach::CoreEventsOnly => "#1 core-events",
        Approach::ChipShare => "#2 chip-share",
        Approach::Recalibrated => "#3 recalibrated",
    }
}

/// Runs the experiment. Cells (machine × workload × load, with the
/// three approaches evaluated inside a cell) are independent seeded
/// simulations, so they fan out across [`RunCtx::jobs`] workers;
/// assembly, worst-case reduction, and printing follow the canonical
/// sweep order regardless of completion order.
pub fn run(ctx: &RunCtx) -> Fig8 {
    let scale = ctx.scale;
    banner("fig8", "validation error of approaches #1/#2/#3");
    let mut lab = Lab::new(ctx);
    let machines: &[&str] = match scale {
        Scale::Full => &["woodcrest", "westmere", "sandybridge"],
        Scale::Quick => &["sandybridge"],
    };
    let mut tasks = Vec::new();
    for &machine in machines {
        let spec = lab.spec(machine);
        let cal = lab.calibration(machine);
        // Machines whose only meter is the 1 Hz Wattsup need longer runs
        // for the recalibrator to accumulate aligned online samples (the
        // on-chip meter yields ~1000 windows per second instead).
        let secs = if spec.meters.iter().any(|m| m.name == "on-chip") {
            scale.run_secs()
        } else {
            scale.run_secs() * 5 / 2
        };
        for kind in WorkloadKind::ALL {
            for load in [LoadLevel::Peak, LoadLevel::Half] {
                let spec = spec.clone();
                let cal = cal.clone();
                tasks.push(move || {
                    let mut errors = [0.0f64; 3];
                    for (i, approach) in Approach::ALL.into_iter().enumerate() {
                        let mut cfg = RunConfig::new(spec.clone());
                        cfg.sched = ctx.sched.clone();
                        cfg.approach = approach;
                        cfg.load = load;
                        cfg.duration = SimDuration::from_secs(secs);
                        let outcome = run_app(kind, &cfg, &cal);
                        errors[i] = outcome.validation_error();
                    }
                    ValidationCell {
                        machine: machine.to_string(),
                        workload: kind.name().to_string(),
                        load: load.name().to_string(),
                        errors,
                    }
                });
            }
        }
    }
    let cells: Vec<ValidationCell> = crate::runner::run_parallel(ctx.jobs, tasks)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("fig8 cell failed: {e}"));
    let mut worst_case = Vec::new();
    for &machine in machines {
        let mut table = Table::new(["workload", "load", "#1", "#2", "#3"]);
        let mut worst = [0.0f64; 3];
        for cell in cells.iter().filter(|c| c.machine == machine) {
            for (w, e) in worst.iter_mut().zip(cell.errors) {
                *w = w.max(e);
            }
            table.row([
                cell.workload.clone(),
                cell.load.clone(),
                pct(cell.errors[0]),
                pct(cell.errors[1]),
                pct(cell.errors[2]),
            ]);
        }
        println!("machine: {machine}");
        println!("{table}");
        println!(
            "worst-case: {} {}, {} {}, {} {}",
            approach_name(Approach::CoreEventsOnly),
            pct(worst[0]),
            approach_name(Approach::ChipShare),
            pct(worst[1]),
            approach_name(Approach::Recalibrated),
            pct(worst[2]),
        );
        println!();
        worst_case.push((machine.to_string(), worst));
    }
    let record = Fig8 { cells, worst_case };
    ctx.write_record("fig8", &record);
    record
}
