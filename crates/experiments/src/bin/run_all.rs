//! Runs every experiment, regenerating all paper artifacts.
//!
//! Flags:
//! * `--quick` — fast smoke-test scale (used by tests and CI).
//! * `--jobs N` — run up to N experiments (and their sweep cells)
//!   concurrently. Every experiment owns its seed, so `results/*.json`
//!   are byte-identical at any job count.
//! * `--only a,b,c` — run only the named experiments.
//! * `--trace DIR` — export deterministic telemetry traces from the
//!   instrumented experiments (fig05, fault_sweep) under `DIR`, one
//!   `.jsonl` + Perfetto-loadable `.trace.json` pair per sweep cell.
//!   Traces carry only simulated timestamps, so they too are
//!   byte-identical at any job count.
//! * `--obs` — run every cluster experiment with the always-on
//!   observability plane (streaming sketches + energy-SLO burn-rate
//!   monitors); the summary table gains p99 energy-per-request and
//!   alert columns fed from the obs ledger.
//! * `--sched rr|priority|cfs` — boot every experiment kernel with the
//!   named scheduling policy (default `rr`, the paper's round-robin).
//!   Calibration always runs round-robin so the shared calibration
//!   cache stays scheduler-independent; `sched_sweep` ignores this flag
//!   and sweeps all policies itself.
//!
//! Any other argument exits with status 2 and lists the known flags, so
//! a stale or misspelt flag cannot silently run another configuration.
//!
//! Per-experiment status, wall time and graceful-degradation decisions
//! are collected into a summary table; the process exits non-zero if any
//! experiment failed.

use experiments::output::Table;
use experiments::{runner, Scale};
use std::time::{Duration, Instant};

/// One registered experiment: display name plus its entry point.
type Experiment = (&'static str, fn(Scale));

/// Every experiment the harness knows, in canonical order.
const EXPERIMENTS: &[Experiment] = &[
    ("coefficients", |s| {
        experiments::coefficients::run(s);
    }),
    ("overhead", |s| {
        experiments::overhead::run(s);
    }),
    ("fig01", |s| {
        experiments::fig01::run(s);
    }),
    ("fig02", |s| {
        experiments::fig02::run(s);
    }),
    ("fig03", |s| {
        experiments::fig03::run(s);
    }),
    ("fig04", |s| {
        experiments::fig04::run(s);
    }),
    ("fig05", |s| {
        experiments::fig05::run(s);
    }),
    ("fig06", |s| {
        experiments::fig06::run(s);
    }),
    ("fig07", |s| {
        experiments::fig07::run(s);
    }),
    ("fig08", |s| {
        experiments::fig08::run(s);
    }),
    ("fig09", |s| {
        experiments::fig09::run(s);
    }),
    ("fig10", |s| {
        experiments::fig10::run(s);
    }),
    ("fig11", |s| {
        experiments::fig11::run(s);
    }),
    ("fig12", |s| {
        experiments::fig12::run(s);
    }),
    ("fig13", |s| {
        experiments::fig13::run(s);
    }),
    ("fig14", |s| {
        experiments::fig14::run(s);
    }),
    ("table1", |s| {
        experiments::table1::run(s);
    }),
    ("ablations", |s| {
        experiments::ablations::run(s);
    }),
    ("dvfs", |s| {
        experiments::dvfs::run(s);
    }),
    ("anomaly", |s| {
        experiments::anomaly::run(s);
    }),
    ("fault_sweep", |s| {
        experiments::fault_sweep::run(s);
    }),
    ("scale_sweep", |s| {
        experiments::scale_sweep::run(s);
    }),
    ("chaos_sweep", |s| {
        experiments::chaos_sweep::run(s);
    }),
    ("drift_sweep", |s| {
        experiments::drift_sweep::run(s);
    }),
    ("megafleet", |s| {
        experiments::megafleet::run(s);
    }),
    ("obs_sweep", |s| {
        experiments::obs_sweep::run(s);
    }),
    ("sched_sweep", |s| {
        experiments::sched_sweep::run(s);
    }),
    ("diurnal_sweep", |s| {
        experiments::diurnal_sweep::run(s);
    }),
];

/// Flags that stand alone.
const SWITCHES: &[&str] = &["--quick", "--obs"];
/// Flags that take a value, as `--flag V` or `--flag=V`.
const VALUE_FLAGS: &[&str] = &["--jobs", "--only", "--trace", "--sched"];

/// Exits with status 2 on any argument the harness does not know.
fn reject_unknown_flags() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUE_FLAGS.contains(&a) {
            i += 2;
        } else if SWITCHES.contains(&a)
            || VALUE_FLAGS.iter().any(|f| a.strip_prefix(f).is_some_and(|v| v.starts_with('=')))
        {
            i += 1;
        } else {
            eprintln!("error: unknown argument `{a}`");
            eprintln!("known: --quick, --jobs N, --only a,b, --trace DIR, --obs, --sched NAME");
            std::process::exit(2);
        }
    }
}

/// Parses `--only a,b,c` (repeatable, comma-separated) from process args.
fn only_from_args() -> Option<Vec<String>> {
    let args: Vec<String> = std::env::args().collect();
    let mut names = Vec::new();
    let mut seen = false;
    for (i, a) in args.iter().enumerate() {
        let list = if let Some(v) = a.strip_prefix("--only=") {
            Some(v)
        } else if a == "--only" {
            args.get(i + 1).map(|s| s.as_str())
        } else {
            None
        };
        if let Some(list) = list {
            seen = true;
            names.extend(list.split(',').filter(|s| !s.is_empty()).map(str::to_string));
        }
    }
    seen.then_some(names)
}

fn main() {
    reject_unknown_flags();
    let scale = Scale::from_args();
    let jobs = runner::jobs_from_args();
    runner::set_jobs(jobs);
    runner::set_trace_dir(runner::trace_dir_from_args());
    runner::set_obs(runner::obs_from_args());
    runner::set_sched(runner::sched_from_args());
    workloads::reset_degrade_ledger();
    let only = only_from_args();
    if let Some(names) = &only {
        for name in names {
            if !EXPERIMENTS.iter().any(|(n, _)| n == name) {
                eprintln!("error: unknown experiment `{name}` in --only");
                eprintln!(
                    "known: {}",
                    EXPERIMENTS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| only.as_ref().is_none_or(|o| o.iter().any(|x| x == name)))
        .collect();
    // Warm the calibration caches serially before fanning out, so
    // concurrent experiments load instead of redundantly recalibrating.
    experiments::prewarm_calibrations();
    let t0 = Instant::now();
    let tasks: Vec<_> = selected
        .iter()
        .map(|(name, f)| {
            let f = *f;
            move || -> Duration {
                // Harness runs on this worker thread (and any sweep cells
                // it fans out further report through their own scopes
                // only if they re-enter; serial cells inherit this one)
                // fold their DegradeStats under the experiment's name.
                let _scope = workloads::DegradeScope::enter(name);
                let t = Instant::now();
                f(scale);
                t.elapsed()
            }
        })
        .collect();
    let outcomes = runner::run_parallel(jobs, tasks);
    let total = t0.elapsed();
    // Graceful-degradation decisions per experiment, harvested from the
    // ledger every harness run reports into (satellite of the telemetry
    // work: DegradeStats surface in the status table, not only in
    // individual experiment records).
    let degraded: std::collections::BTreeMap<String, power_containers::DegradeStats> =
        workloads::degrade_ledger().into_iter().collect();
    let requests: std::collections::BTreeMap<String, u64> =
        workloads::request_ledger().into_iter().collect();
    let obs: std::collections::BTreeMap<String, workloads::ObsDigest> =
        workloads::obs_ledger().into_iter().collect();
    let autoscale: std::collections::BTreeMap<String, workloads::AutoscaleDigest> =
        workloads::autoscale_ledger().into_iter().collect();
    let mut table = Table::new([
        "experiment",
        "status",
        "wall time",
        "req/s",
        "degraded",
        "retried",
        "shed",
        "drift",
        "p99 J/req",
        "alerts",
        "resizes",
        "brownout",
    ]);
    let mut failed = 0usize;
    for ((name, _), outcome) in selected.iter().zip(&outcomes) {
        let (deg, retried, shed, drift) = match degraded.get(*name) {
            None => ("-".to_string(), "-".to_string(), "-".to_string(), "-".to_string()),
            Some(d) => (
                if d.is_clean() { "clean".to_string() } else { format!("{} decisions", d.total()) },
                d.requests_retried.to_string(),
                d.requests_shed.to_string(),
                d.drift_column(),
            ),
        };
        let (p99_j, alerts) = match obs.get(*name) {
            None => ("-".to_string(), "-".to_string()),
            Some(o) => (format!("{:.4}", o.p99_j_per_req), o.alerts.to_string()),
        };
        // Elasticity columns: completed resizes (outs/ins, with upgrade
        // pairs noted) and brownout-ladder climbs + optional sheds.
        let (resizes, brownout) = match autoscale.get(*name) {
            None => ("-".to_string(), "-".to_string()),
            Some(a) => (
                if a.upgrades > 0 {
                    format!("{}/{} ({} upg)", a.scale_outs, a.scale_ins, a.upgrades)
                } else {
                    format!("{}/{}", a.scale_outs, a.scale_ins)
                },
                format!("{} ({} shed)", a.brownout_engagements, a.shed_optional),
            ),
        };
        match outcome {
            Ok(wall) => {
                // Simulated requests pushed through per wall-clock
                // second — the experiment's end-to-end throughput (a
                // report column only; no wall-clock value enters any
                // result record).
                let rps = match requests.get(*name) {
                    Some(&r) if wall.as_secs_f64() > 0.0 => {
                        format!("{:.0}", r as f64 / wall.as_secs_f64())
                    }
                    _ => "-".to_string(),
                };
                table.row([
                    name.to_string(),
                    "ok".to_string(),
                    format!("{wall:.2?}"),
                    rps,
                    deg,
                    retried,
                    shed,
                    drift,
                    p99_j,
                    alerts,
                    resizes,
                    brownout,
                ]);
            }
            Err(msg) => {
                failed += 1;
                let mut msg = msg.replace('\n', " ");
                msg.truncate(60);
                table.row([
                    name.to_string(),
                    "FAILED".to_string(),
                    msg,
                    "-".to_string(),
                    deg,
                    retried,
                    shed,
                    drift,
                    p99_j,
                    alerts,
                    resizes,
                    brownout,
                ]);
            }
        }
    }
    println!();
    println!(
        "== run_all summary: {} experiments, --jobs {jobs}, total {total:.1?} ==",
        selected.len()
    );
    println!("{table}");
    eprintln!("[all experiments done in {total:.1?}]");
    if failed > 0 {
        eprintln!("error: {failed} experiment(s) failed");
        std::process::exit(1);
    }
}
