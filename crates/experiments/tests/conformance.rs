//! Registry-driven conformance: one test per registered experiment, plus
//! the wall-budget smoke cells of the heavier sweeps.
//!
//! Each experiment test runs the quick scale twice, at `--jobs 1` and
//! `--jobs 4`, each into its own traced sandbox, and checks that
//! 1. the record and every exported artifact (traces, obs reports,
//!    folded provenance) are byte-identical between the two runs, and
//!    the runs' tallies (`workloads::tally`, what `run_all`'s summary
//!    columns show) are equal (skipped for experiments whose record
//!    holds host time);
//! 2. every top-level boolean verdict of the quick record is true;
//! 3. a traced experiment exports one `.jsonl` + `.trace.json` pair per
//!    traced cell and matches its `ci/` goldens.
//!
//! The smoke tests time real sweep cells on an untraced context against
//! a wall budget, which binds in release builds only.
//!
//! The file brings its own small harness (`harness = false`) so the test
//! list comes from the registry. Like libtest, it runs every test whose
//! name contains a command-line filter (`--exact` for whole names), each
//! in a child process whose output is shown only on failure
//! (`--nocapture` runs them in-process instead), and exits 101 on any
//! failure:
//!
//! ```text
//! cargo test --release -p experiments --test conformance -- megafleet
//! ```
//!
//! Golden files live in `ci/`; regenerate them after a deliberate
//! instrumentation change by adding `PC_BLESS=1` to that command line.

use cluster::{run_cluster, run_pipeline, DistributionPolicy, SimpleBalance};
use experiments::registry::{self, Experiment, EXPERIMENTS};
use experiments::runner::{run_parallel, RunCtx, Sandbox};
use experiments::{
    chaos_sweep, diurnal_sweep, drift_sweep, megafleet, obs_sweep, scale_sweep, sched_sweep, Lab,
    Scale,
};
use std::path::Path;
use std::process::Command;
use std::time::Instant;
use telemetry::obs::{AlertKind, ObsReport};
use workloads::tally::{self, Tally};
use workloads::WorkloadKind;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci");

/// Runs `e` at quick scale with `jobs` workers into a fresh traced
/// sandbox, with what its runs noted in the calling thread's tally.
fn quick_run(e: &Experiment, jobs: usize) -> (Sandbox, Tally) {
    let mut sandbox = Sandbox::new(Scale::Quick);
    sandbox.ctx.jobs = jobs;
    sandbox.ctx.trace_dir = Some(sandbox.traces());
    tally::take();
    (e.run)(&sandbox.ctx);
    (sandbox, tally::take())
}

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(GOLDEN_DIR).join(name);
    if std::env::var_os("PC_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "{name} drifted; if deliberate, regenerate with PC_BLESS=1 cargo test \
         --release -p experiments --test conformance"
    );
}

/// The conformance check of one registered experiment.
fn conform(e: &Experiment) {
    let (serial, serial_tally) = quick_run(e, 1);
    let files = serial.outputs();
    let records: Vec<&String> =
        files.iter().filter(|k| !k.contains('/') && k.ends_with(".json")).collect();
    assert_eq!(records.len(), 1, "{}: expected one record, got {records:?}", e.name);
    let text = |name: &str| String::from_utf8(serial.read(name)).expect("UTF-8 output");
    let record: serde_json::Value =
        serde_json::from_str(&text(records[0])).expect("well-formed record");
    for (key, value) in record.as_object().expect("the record is a JSON object") {
        if let Some(verdict) = value.as_bool() {
            assert!(verdict, "{}: quick-scale verdict `{key}` is false", e.name);
        }
    }
    if e.deterministic {
        let (fanned, fanned_tally) = quick_run(e, 4);
        assert_eq!(serial_tally, fanned_tally, "{}: --jobs 1 and 4 tallied different runs", e.name);
        assert_eq!(files, fanned.outputs(), "{}: --jobs 1 and 4 wrote different files", e.name);
        for name in &files {
            let same = serial.read(name) == fanned.read(name);
            assert!(same, "{}: {name} differs between --jobs 1 and 4", e.name);
        }
    }
    let prefix = format!("traces/{}/", e.name);
    let artifacts: Vec<&str> = files.iter().filter_map(|k| k.strip_prefix(&prefix)).collect();
    let Some(traces) = &e.traces else {
        assert!(artifacts.is_empty(), "{}: untraced experiment exported {artifacts:?}", e.name);
        return;
    };
    let stems: Vec<&str> = artifacts.iter().filter_map(|n| n.strip_suffix(".jsonl")).collect();
    assert_eq!(stems.len(), traces.cells, "{}: one trace per traced cell: {stems:?}", e.name);
    let reports = artifacts.iter().any(|n| n.ends_with(".obs.json"));
    for stem in &stems {
        assert!(artifacts.contains(&format!("{stem}.trace.json").as_str()), "{stem}: no Perfetto twin");
        if reports {
            assert!(artifacts.contains(&format!("{stem}.obs.json").as_str()), "{stem}: no obs report");
        }
    }
    if let Some(golden) = traces.schema {
        let merged: String = stems.iter().map(|s| text(&format!("{prefix}{s}.jsonl"))).collect();
        check_golden(golden, &telemetry::summary::schema(&merged));
    }
    if let Some((artifact, golden)) = traces.cell {
        let body = text(&format!("{prefix}{artifact}"));
        let rendered = if artifact.ends_with(".obs.json") {
            ObsReport::from_json(&body).expect("well-formed obs report").render()
        } else {
            let summary = telemetry::summary::summarize(&body);
            assert_eq!(summary.unparsed_lines, 0, "{artifact} must be well-formed");
            telemetry::summary::render_summary(&summary)
        };
        check_golden(golden, &rendered);
    }
}

/// Fails a smoke test whose cells overran their wall budget.
fn within_budget(what: &str, t0: Instant, budget_s: f64) {
    let elapsed = t0.elapsed().as_secs_f64();
    if !cfg!(debug_assertions) {
        assert!(elapsed < budget_s, "{what} took {elapsed:.1}s of a {budget_s:.0}s budget");
    }
}

/// The smallest scale_sweep cells must serve their load and finish fast:
/// the tick-batched dispatcher keeps per-request work independent of
/// fleet size, so even the 16-node cell stays inside the budget.
fn scale_smoke(ctx: &RunCtx) {
    let mut lab = Lab::new(ctx);
    for name in ["sandybridge", "westmere", "woodcrest"] {
        let _ = lab.calibration(name);
    }
    // Calibration is warmed above; the budget covers the simulations.
    let t0 = Instant::now();
    let cells = [4, 16].map(|nodes| {
        let cfg = scale_sweep::cell_config(ctx, nodes, None);
        let cals = scale_sweep::cell_calibrations(&mut lab, &cfg);
        let mut policies: Vec<Box<dyn DistributionPolicy>> = (0..cfg.tiers.len())
            .map(|_| Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>)
            .collect();
        run_pipeline(&mut policies, &cfg, &cals)
    });
    within_budget("4- and 16-node quick scale_sweep cells", t0, 15.0);
    for o in &cells {
        assert!(o.completed > 1_000, "cell must serve load, got {}", o.completed);
        assert_eq!(o.dispatched, o.completed as u64 + o.dropped + o.in_flight);
        assert_eq!(o.dropped, 0, "healthy cells must not drop requests");
        // Decisions scale with requests (one per pipeline stage), not
        // with node count; requests still in flight at the end have made
        // only part of their three decisions.
        assert!(o.decisions >= o.completed as u64 * 3);
        assert!(o.decisions <= o.dispatched * 3);
    }
}

/// The heaviest chaos rungs (high crash rate, and the simultaneous
/// crash + slowdown + tag-fault mix) pass all three invariants, which
/// `run_cell` asserts.
fn chaos_smoke(ctx: &RunCtx) {
    let rung = |name| chaos_sweep::SCENARIOS.iter().find(|s| s.name == name).expect("rung");
    let (crash_high, chaos_full) = (rung("crash-high"), rung("chaos-full"));
    assert!(chaos_full.simultaneous(), "chaos-full must mix crash, slowdown and tag faults");
    let cals =
        chaos_sweep::cell_calibrations(&mut Lab::new(ctx), &chaos_sweep::cell_config(ctx, crash_high));
    let t0 = Instant::now();
    let high = chaos_sweep::run_cell(ctx, crash_high, &cals);
    let full = chaos_sweep::run_cell(ctx, chaos_full, &cals);
    within_budget("chaos smoke cells", t0, 20.0);
    for r in [&high, &full] {
        assert!(r.crashes > 0, "{}: the crash clock must fire", r.scenario);
        assert!(r.checkpoints > 0, "{}: crashes imply journaling", r.scenario);
        assert!(r.completed > 0, "{}: the fleet must keep serving", r.scenario);
        assert!(r.requests_conserved && r.energy_conserved && r.cap_ok);
    }
    assert!(full.tag_faults > 0, "chaos-full must actually corrupt tags");
}

/// The heaviest drift rung (DVFS square + rolling generation swaps +
/// meter dropout) shows the headline result: the bank recovers after
/// every edge while the single model stays diverged.
fn drift_smoke(ctx: &RunCtx) {
    let chaos = drift_sweep::SCENARIOS.iter().find(|s| s.name == "chaos-combined").expect("rung");
    assert!(chaos.dvfs && chaos.generation && chaos.meter_faults, "chaos-combined mixes all shifts");
    let cal = Lab::new(ctx).calibration("sandybridge");
    let t0 = Instant::now();
    let mut single = drift_sweep::run_cell(ctx, chaos, false, &cal);
    let mut bank = drift_sweep::run_cell(ctx, chaos, true, &cal);
    within_budget("drift smoke cells", t0, 20.0);
    // Mirror of the sweep's rung analysis: one shared bound from the
    // pooled pre-shift steady error.
    let steady = 0.5 * (single.steady_err + bank.steady_err);
    let bound = (drift_sweep::RECOVERY_FACTOR * steady).max(drift_sweep::ERR_FLOOR);
    drift_sweep::apply_bound(&mut single, bound);
    drift_sweep::apply_bound(&mut bank, bound);
    assert!(!bank.edge_buckets.is_empty(), "the rung must shift regimes");
    assert!(bank.recovered_all, "bank must recover after every edge: {:?}", bank.recovery_buckets);
    assert!(
        single.post_err >= drift_sweep::DIVERGE_FACTOR * bank.post_err,
        "single model must stay diverged: {:.3} vs bank {:.3}",
        single.post_err,
        bank.post_err
    );
    assert!(bank.drift_events > 0, "regime shifts must trip the CUSUM");
    assert!(bank.model_switches > 0, "regime shifts must switch slots");
    assert!(bank.faults_injected > 0, "the meter-dropout fault must fire");
    assert!(bank.completions > 0, "the workload must keep serving");
}

/// The quick grid's largest megafleet cell: 100 nodes serving 10⁵
/// requests with exact conservation.
fn megafleet_smoke(ctx: &RunCtx) {
    let cfg = megafleet::cell_config(ctx, 100, 100_000);
    let cals = megafleet::cell_calibrations(&mut Lab::new(ctx), &cfg);
    let t0 = Instant::now();
    let outcome = run_cluster(&mut SimpleBalance::new(), &cfg, &cals);
    within_budget("100-node megafleet smoke cell", t0, 30.0);
    megafleet::assert_cell_conserved("megafleet smoke 100x100000", &outcome);
    assert!(outcome.dispatched >= 100_000, "cell must offer its load, got {}", outcome.dispatched);
    assert_eq!(outcome.dropped, 0, "healthy cell must not drop requests");
}

/// Every alert rung fires its expected kinds and every control rung
/// stays silent (`run_cell` asserts both), covering every alert kind.
fn obs_smoke(ctx: &RunCtx) {
    let cals = obs_sweep::cell_calibrations(
        &mut Lab::new(ctx),
        &obs_sweep::cell_config(ctx, &obs_sweep::SCENARIOS[0]),
    );
    let t0 = Instant::now();
    let mut fired = [0u64; AlertKind::ALL.len()];
    for scenario in obs_sweep::SCENARIOS {
        let (row, obs) = obs_sweep::run_cell(ctx, scenario, &cals);
        assert!(row.expected_fired && row.silent_ok, "{}: alert contract", scenario.name);
        assert!(row.completed > 0, "{}: the fleet must keep serving", scenario.name);
        assert!(row.provenance_entries > 0, "{}: small rungs collect provenance", scenario.name);
        assert_eq!(row.windows, obs.report.series["power_w/fleet"].total_count());
        for (i, n) in row.alerts.iter().enumerate() {
            fired[i] += n;
        }
    }
    within_budget("obs smoke rungs", t0, 20.0);
    assert!(fired.iter().all(|&n| n > 0), "every alert kind must fire, got {fired:?}");
}

/// One RSA-crypto attribution cell per scheduler conserves energy and
/// keeps the non-RR error within the sweep's bound.
fn sched_smoke(ctx: &RunCtx) {
    let mut lab = Lab::new(ctx);
    let (spec, cal) = (lab.spec("sandybridge"), lab.calibration("sandybridge"));
    let secs = ctx.scale.run_secs();
    let t0 = Instant::now();
    let cells: Vec<_> = sched_sweep::swept_kinds()
        .into_iter()
        .map(|kind| {
            let (spec, cal) = (spec.clone(), cal.clone());
            sched_sweep::attribution_cell(ctx, kind, "sandybridge", spec, cal, WorkloadKind::RsaCrypto, secs)
        })
        .collect();
    within_budget("sched smoke cells", t0, 20.0);
    let rr = cells.iter().find(|c| c.sched == "rr").expect("rr cell");
    assert!(rr.picks > 0, "the rr scheduler must dispatch work");
    let bound = (2.0 * rr.error).max(sched_sweep::ERROR_FLOOR);
    for c in &cells {
        let err = c.error * 100.0;
        assert!(c.error <= sched_sweep::CLEAN_TOL, "{}: energy not conserved ({err:.1}%)", c.sched);
        assert!(c.error <= bound, "{}: error {err:.2}% exceeds the 2x-rr bound", c.sched);
    }
}

/// The diurnal head-to-head plus the capped diurnal-flash autoscaled cell
/// (brownout ladder and elasticity under a tight cap) pass every
/// invariant `run_cell` asserts.
fn diurnal_smoke(ctx: &RunCtx) {
    let rung = |name| diurnal_sweep::SCENARIOS.iter().find(|s| s.name == name).expect("rung");
    let (diurnal, flash) = (rung("diurnal"), rung("diurnal-flash"));
    assert!(flash.capped && flash.flash, "the flash rung must run capped flash crowds");
    let cals = diurnal_sweep::cell_calibrations(
        &mut Lab::new(ctx),
        &diurnal_sweep::cell_config(ctx, diurnal, false),
    );
    let t0 = Instant::now();
    let fixed = diurnal_sweep::run_cell(ctx, diurnal, false, &cals);
    let auto = diurnal_sweep::run_cell(ctx, diurnal, true, &cals);
    let browned = diurnal_sweep::run_cell(ctx, flash, true, &cals);
    within_budget("diurnal smoke cells", t0, 30.0);
    assert_eq!(fixed.dispatched, auto.dispatched, "both arms must face identical traffic");
    assert!(auto.scale_outs > 0 && auto.scale_ins > 0, "a diurnal day must resize the fleet");
    assert!(
        auto.j_per_req <= fixed.j_per_req * (1.0 - diurnal_sweep::DIURNAL_WIN_FLOOR),
        "autoscaled J/request {:.3} must beat fixed {:.3} by the win floor",
        auto.j_per_req,
        fixed.j_per_req
    );
    assert!(browned.brownout_engagements > 0, "the capped flash cell must brown out");
    assert!(browned.completed > 0, "a browned-out fleet must keep serving");
    for r in [&fixed, &auto, &browned] {
        assert!(r.requests_conserved && r.energy_conserved && r.cap_ok);
    }
}

/// A wall-budget smoke test, named `<experiment>::smoke`.
type Smoke = (&'static str, fn(&RunCtx));

const SMOKE: &[Smoke] = &[
    ("scale_sweep", scale_smoke),
    ("chaos_sweep", chaos_smoke),
    ("drift_sweep", drift_smoke),
    ("megafleet", megafleet_smoke),
    ("obs_sweep", obs_smoke),
    ("sched_sweep", sched_smoke),
    ("diurnal_sweep", diurnal_smoke),
];

/// Runs the test called `name` in this process.
fn run_test(name: &str) {
    if let Some(e) = registry::find(name) {
        return conform(e);
    }
    let (_, smoke) = SMOKE
        .iter()
        .find(|(exp, _)| name.strip_suffix("::smoke") == Some(*exp))
        .unwrap_or_else(|| panic!("no test named {name}"));
    smoke(&Sandbox::new(Scale::Quick).ctx);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |f: &str| args.iter().any(|a| a == f);
    // Positional filters and `--skip` patterns; other libtest flags that
    // take a value are ignored together with it.
    let (mut filters, mut skips) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--skip" {
            skips.extend(it.next().map(String::as_str));
        } else if ["--test-threads", "--format", "--color", "--logfile", "-Z"].contains(&a.as_str()) {
            it.next();
        } else if !a.starts_with('-') {
            filters.push(a.as_str());
        }
    }
    let all: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| e.name.to_string())
        .chain(SMOKE.iter().map(|(exp, _)| format!("{exp}::smoke")))
        .collect();
    let selected: Vec<&String> = all
        .iter()
        .filter(|n| !flag("--ignored") && !skips.iter().any(|s| n.contains(s)))
        .filter(|n| {
            filters.is_empty()
                || filters.iter().any(|f| if flag("--exact") { n == f } else { n.contains(f) })
        })
        .collect();
    if flag("--list") {
        selected.iter().for_each(|n| println!("{n}: test"));
        return;
    }
    println!("\nrunning {} tests", selected.len());
    let t0 = Instant::now();
    let nocapture = flag("--nocapture");
    let exe = std::env::current_exe().expect("test binary path");
    let tasks: Vec<_> = selected
        .iter()
        .map(|name| {
            let exe = &exe;
            move || -> Result<(), String> {
                if nocapture {
                    run_test(name);
                    return Ok(());
                }
                let out = Command::new(exe)
                    .args([name.as_str(), "--exact", "--nocapture"])
                    .output()
                    .expect("spawn the test binary");
                match out.status.success() {
                    true => Ok(()),
                    false => Err(format!(
                        "{}\n{}",
                        String::from_utf8_lossy(&out.stdout),
                        String::from_utf8_lossy(&out.stderr)
                    )),
                }
            }
        })
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = run_parallel(threads, tasks);
    let mut failed = Vec::new();
    for (name, result) in selected.iter().zip(results) {
        match result.and_then(|r| r) {
            Ok(()) => println!("test {name} ... ok"),
            Err(output) => {
                println!("test {name} ... FAILED");
                failed.push((name, output));
            }
        }
    }
    for (name, output) in &failed {
        println!("\n---- {name} output ----\n{output}");
    }
    println!(
        "\ntest result: {}. {} passed; {} failed; 0 ignored; 0 measured; {} filtered out; \
         finished in {:.2}s\n",
        if failed.is_empty() { "ok" } else { "FAILED" },
        selected.len() - failed.len(),
        failed.len(),
        all.len() - selected.len(),
        t0.elapsed().as_secs_f64()
    );
    if !failed.is_empty() {
        std::process::exit(101);
    }
}
