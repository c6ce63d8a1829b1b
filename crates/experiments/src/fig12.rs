//! Fig. 12 — original request power vs applied duty-cycle level.
//!
//! From the conditioned Fig. 11 run: each completed request contributes a
//! point (its unthrottled power estimate, the time-averaged duty level
//! applied to it). Normal Vosao requests should run at nearly full
//! speed; power viruses should be substantially throttled — unless they
//! arrived while cores were idle and inherited a larger budget.

use crate::fig11::conditioning_data;
use crate::output::{banner, pct, Table};
use crate::runner::RunCtx;
use analysis::stats::Summary;
use serde::Serialize;
use workloads::POWER_VIRUS_LABEL;

/// One scatter point (a completed request).
#[derive(Debug, Clone, Serialize)]
pub struct DutyPoint {
    /// `true` for a power virus.
    pub virus: bool,
    /// Unthrottled power estimate, Watts.
    pub original_power_w: f64,
    /// Time-averaged duty fraction applied.
    pub duty: f64,
}

/// The Fig. 12 record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12 {
    /// All scatter points.
    pub points: Vec<DutyPoint>,
    /// Mean slowdown of normal requests (1 − duty).
    pub normal_slowdown: f64,
    /// Mean slowdown of power viruses.
    pub virus_slowdown: f64,
    /// Slowdown a full-machine 7/8 throttle would impose on everyone.
    pub full_machine_slowdown: f64,
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Fig12 {
    banner("fig12", "original request power vs applied duty-cycle");
    let data = conditioning_data(ctx);
    let outcome = &data.conditioned.1;
    let f = outcome.facility.borrow();
    let mut points = Vec::new();
    let mut normal = Summary::new();
    let mut virus = Summary::new();
    for r in f.containers().records() {
        if r.busy_seconds <= 0.0 || r.label.is_none() {
            continue;
        }
        let is_virus = r.label == Some(POWER_VIRUS_LABEL);
        points.push(DutyPoint {
            virus: is_virus,
            original_power_w: r.unthrottled_power_w,
            duty: r.mean_duty,
        });
        if is_virus {
            virus.record(1.0 - r.mean_duty);
        } else {
            normal.record(1.0 - r.mean_duty);
        }
    }
    let record = Fig12 {
        normal_slowdown: normal.mean(),
        virus_slowdown: virus.mean(),
        full_machine_slowdown: 1.0 - 7.0 / 8.0,
        points,
    };
    let mut table = Table::new(["request class", "count", "mean original power (W)", "mean duty", "mean slowdown"]);
    let class = |is_virus: bool| {
        let pts: Vec<&DutyPoint> = record.points.iter().filter(|p| p.virus == is_virus).collect();
        let n = pts.len().max(1) as f64;
        let p: f64 = pts.iter().map(|p| p.original_power_w).sum::<f64>() / n;
        let d: f64 = pts.iter().map(|p| p.duty).sum::<f64>() / n;
        (pts.len(), p, d)
    };
    for (name, is_virus, slow) in [
        ("normal (Vosao)", false, record.normal_slowdown),
        ("power virus", true, record.virus_slowdown),
    ] {
        let (n, p, d) = class(is_virus);
        table.row([
            name.to_string(),
            n.to_string(),
            format!("{p:.1}"),
            format!("{d:.2}"),
            pct(slow),
        ]);
    }
    println!("{table}");
    println!(
        "full-machine alternative: 7/8 duty on all requests = {} slowdown for everyone",
        pct(record.full_machine_slowdown)
    );
    ctx.write_record("fig12", &record);
    record
}
