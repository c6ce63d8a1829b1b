//! Extension experiment: online power-anomaly detection.
//!
//! The paper's introduction motivates containers with the operator's
//! need to "pinpoint the sources of power spikes and anomalies". This
//! experiment runs the GAE-Hybrid workload and, every 100 ms, asks the
//! facility's live [`PowerReport`](power_containers::PowerReport) which
//! requests look anomalous (recent power well above the population
//! median). Flags are then scored against ground truth — which requests
//! really were power viruses.

use crate::Lab;
use crate::output::{banner, pct, Table};
use crate::runner::RunCtx;
use ossim::ContextId;
use serde::Serialize;
use simkern::{SimDuration, SimTime};
use std::collections::HashSet;
use workloads::{prepare_app, LoadLevel, RunConfig, WorkloadKind, POWER_VIRUS_LABEL};

/// The anomaly-detection record.
#[derive(Debug, Clone, Serialize)]
pub struct Anomaly {
    /// Viruses that ran (ground truth positives).
    pub viruses: usize,
    /// Viruses flagged by the online report at least once.
    pub detected: usize,
    /// Normal requests incorrectly flagged.
    pub false_positives: usize,
    /// Normal requests completed.
    pub normals: usize,
    /// Recall: detected / viruses.
    pub recall: f64,
    /// Precision: detected / all flagged.
    pub precision: f64,
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Anomaly {
    let scale = ctx.scale;
    banner("anomaly", "online power-anomaly detection from live container reports");
    let mut lab = Lab::new(ctx);
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let mut cfg = RunConfig::new(spec);
    cfg.sched = ctx.sched.clone();
    cfg.load = LoadLevel::Peak;
    cfg.duration = SimDuration::from_secs(scale.run_secs());
    let mut prepared = prepare_app(std::rc::Rc::from(WorkloadKind::GaeHybrid.app()), &cfg, &cal);

    // Poll the live report every 40 ms, like an operator dashboard.
    let mut flagged: HashSet<ContextId> = HashSet::new();
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + cfg.duration;
    while t < end {
        t += SimDuration::from_millis(40);
        prepared.kernel.run_until(t);
        let f = prepared.facility.borrow();
        for line in f.power_report().anomalies(1.18) {
            flagged.insert(line.ctx);
        }
    }
    let outcome = prepared.finish();
    let stats = outcome.stats.borrow();
    let mut viruses = 0usize;
    let mut normals = 0usize;
    let mut detected = 0usize;
    let mut false_positives = 0usize;
    for c in stats.completions() {
        let is_virus = c.label == POWER_VIRUS_LABEL;
        let was_flagged = flagged.contains(&c.ctx);
        if is_virus {
            viruses += 1;
            if was_flagged {
                detected += 1;
            }
        } else {
            normals += 1;
            if was_flagged {
                false_positives += 1;
            }
        }
    }
    let recall = detected as f64 / viruses.max(1) as f64;
    let precision = detected as f64 / (detected + false_positives).max(1) as f64;
    let mut table = Table::new(["metric", "value"]);
    table.row(["power viruses run".to_string(), viruses.to_string()]);
    table.row(["viruses detected online".to_string(), detected.to_string()]);
    table.row(["normal requests".to_string(), normals.to_string()]);
    table.row(["false positives".to_string(), false_positives.to_string()]);
    table.row(["recall".to_string(), pct(recall)]);
    table.row(["precision".to_string(), pct(precision)]);
    println!("{table}");
    let record = Anomaly { viruses, detected, false_positives, normals, recall, precision };
    ctx.write_record("anomaly", &record);
    record
}
