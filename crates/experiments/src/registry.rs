//! The experiment registry: every experiment the harness knows, in
//! canonical order. `run_all` iterates it (`--only NAME` selects by
//! name) and the conformance test runs one check per entry, so adding an
//! experiment means writing its module and adding one line here — plus,
//! for a traced experiment, its [`Traces`] contract and `ci/` goldens.

use crate::*;
use crate::runner::RunCtx;
use workloads::WorkloadKind;

/// One registered experiment.
pub struct Experiment {
    /// The name `run_all --only` and the conformance test use.
    pub name: &'static str,
    /// Runs the experiment: prints its tables and writes its record.
    pub run: fn(&RunCtx),
    /// Whether the record is byte-identical run to run and at any job
    /// count; false only for host-time measurements.
    pub deterministic: bool,
    /// What a traced quick run exports; `None` for untraced experiments.
    pub traces: Option<Traces>,
}

/// The quick-scale trace contract of a traced experiment, checked by the
/// conformance test under `<trace dir>/<experiment name>/`.
pub struct Traces {
    /// `.jsonl` traces a quick run writes, one per traced cell.
    pub cells: usize,
    /// `ci/` golden pinning `pc-trace schema` over all of them.
    pub schema: Option<&'static str>,
    /// One exported artifact and the `ci/` golden pinning its rendering:
    /// `pc-trace summarize` of a `.jsonl` trace, `pc-obs report` of an
    /// `.obs.json` report.
    pub cell: Option<(&'static str, &'static str)>,
}

const fn plain(name: &'static str, run: fn(&RunCtx)) -> Experiment {
    Experiment { name, run, deterministic: true, traces: None }
}

const fn traced(name: &'static str, run: fn(&RunCtx), traces: Traces) -> Experiment {
    Experiment { name, run, deterministic: true, traces: Some(traces) }
}

/// Every experiment, in canonical order.
pub const EXPERIMENTS: &[Experiment] = &[
    plain("coefficients", |c| { coefficients::run(c); }),
    Experiment { name: "overhead", run: |c| { overhead::run(c); }, deterministic: false, traces: None },
    plain("fig01", |c| { fig01::run(c); }),
    plain("fig02", |c| { fig02::run(c); }),
    plain("fig03", |c| { fig03::run(c); }),
    plain("fig04", |c| { fig04::run(c); }),
    traced("fig05", |c| { fig05::run(c); }, Traces {
        cells: 3 * WorkloadKind::ALL.len() * 2,
        schema: Some("trace_schema_fig05.golden"),
        cell: None,
    }),
    plain("fig06", |c| { fig06::run(c); }),
    plain("fig07", |c| { fig07::run(c); }),
    plain("fig08", |c| { fig08::run(c); }),
    plain("fig09", |c| { fig09::run(c); }),
    plain("fig10", |c| { fig10::run(c); }),
    plain("fig11", |c| { fig11::run(c); }),
    plain("fig12", |c| { fig12::run(c); }),
    plain("fig13", |c| { fig13::run(c); }),
    plain("fig14", |c| { fig14::run(c); }),
    plain("table1", |c| { table1::run(c); }),
    plain("ablations", |c| { ablations::run(c); }),
    plain("dvfs", |c| { dvfs::run(c); }),
    plain("anomaly", |c| { anomaly::run(c); }),
    traced("fault_sweep", |c| { fault_sweep::run(c); }, Traces {
        cells: 5,
        schema: None,
        cell: None,
    }),
    traced("scale_sweep", |c| { scale_sweep::run(c); }, Traces {
        cells: 9,
        schema: Some("trace_schema_scale.golden"),
        cell: Some(("04nodes-simple-uncapped.jsonl", "trace_summarize_scale.golden")),
    }),
    traced("chaos_sweep", |c| { chaos_sweep::run(c); }, Traces {
        cells: chaos_sweep::SCENARIOS.len(),
        schema: Some("trace_schema_chaos.golden"),
        cell: Some(("chaos-full.jsonl", "trace_summarize_chaos.golden")),
    }),
    traced("drift_sweep", |c| { drift_sweep::run(c); }, Traces {
        cells: 2 * drift_sweep::SCENARIOS.len(),
        schema: Some("trace_schema_drift.golden"),
        cell: Some(("chaos-combined-bank.jsonl", "trace_summarize_drift.golden")),
    }),
    traced("megafleet", |c| { megafleet::run(c); }, Traces {
        cells: 1,
        schema: Some("trace_schema_megafleet.golden"),
        cell: Some(("0032nodes-5000req.jsonl", "trace_summarize_megafleet.golden")),
    }),
    traced("obs_sweep", |c| { obs_sweep::run(c); }, Traces {
        cells: obs_sweep::SCENARIOS.len(),
        schema: Some("trace_schema_obs.golden"),
        cell: Some(("cap-burn.obs.json", "obs_report.golden")),
    }),
    traced("sched_sweep", |c| { sched_sweep::run(c); }, Traces {
        cells: ossim::SchedulerKind::ALL_NAMES.len() * WorkloadKind::ALL.len(),
        schema: Some("trace_schema_sched.golden"),
        cell: Some(("priority-sandybridge-stress.jsonl", "trace_summarize_sched.golden")),
    }),
    traced("diurnal_sweep", |c| { diurnal_sweep::run(c); }, Traces {
        cells: 2 * diurnal_sweep::SCENARIOS.len(),
        schema: Some("trace_schema_diurnal.golden"),
        cell: Some(("diurnal-flash-autoscaled.jsonl", "trace_summarize_diurnal.golden")),
    }),
];

/// The registered experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}
