//! Runs every registered experiment (or the `--only` subset),
//! regenerating all paper artifacts.
//!
//! Flags:
//! * `--quick` — fast smoke-test scale (used by tests and CI).
//! * `--jobs N` — run up to N experiments (and their sweep cells)
//!   concurrently. Every experiment owns its seed, so `results/*.json`
//!   are byte-identical at any job count.
//! * `--only a,b,c` — run only the named experiments (registry names:
//!   `fig05`, `scale_sweep`, ...).
//! * `--trace DIR` — export deterministic telemetry traces from the
//!   instrumented experiments under `DIR/<experiment>/`, one `.jsonl` +
//!   Perfetto-loadable `.trace.json` pair per traced cell. Traces carry
//!   only simulated timestamps, so they too are byte-identical at any
//!   job count.
//! * `--obs` — run every cluster experiment with the always-on
//!   observability plane (streaming sketches + energy-SLO burn-rate
//!   monitors); the summary table's p99 energy-per-request and alert
//!   columns then read each experiment's obs digests.
//! * `--sched rr|priority|cfs` — boot every experiment kernel with the
//!   named scheduling policy (default `rr`, the paper's round-robin).
//!   Calibration always runs round-robin so the shared calibration
//!   cache stays scheduler-independent; `sched_sweep` ignores this flag
//!   and sweeps all policies itself.
//!
//! Value flags accept `--flag V` or `--flag=V`. An unknown argument, a
//! missing value or one that does not parse exits with status 2 and
//! names the flag, so a stale or misspelt command line cannot silently
//! run another configuration. Records go to `PC_RESULTS_DIR` when set,
//! else to the checkout's `results/`.
//!
//! Per-experiment status, wall time and what the experiment's runs noted
//! in their thread's `workloads::tally` (requests offered, graceful
//! degradation, retries and sheds, drift, obs and elasticity digests)
//! are collected into a summary table; a failed experiment's row shows
//! `-` in the tally's columns. The process exits non-zero if any
//! experiment failed.

use experiments::output::{Table, DEFAULT_RESULTS_DIR};
use experiments::registry::{self, Experiment, EXPERIMENTS};
use experiments::runner::{self, RunCtx};
use experiments::Scale;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::tally::{self, Tally};

/// Exits with status 2 after naming what was wrong with the command line.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("known: --quick, --jobs N, --only a,b, --trace DIR, --obs, --sched rr|priority|cfs");
    std::process::exit(2);
}

/// Parses the command line into the run's context plus the `--only`
/// selection (`None`: every experiment). The only parser that builds a
/// [`RunCtx`] from flags.
fn parse_args(
    mut args: impl Iterator<Item = String>,
    results_dir: PathBuf,
) -> (RunCtx, Option<Vec<String>>) {
    let mut ctx = RunCtx::new(Scale::Full, results_dir);
    let mut only: Option<Vec<String>> = None;
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        match (flag.as_str(), inline) {
            ("--quick", None) => ctx.scale = Scale::Quick,
            ("--obs", None) => ctx.obs = true,
            (name @ ("--jobs" | "--only" | "--trace" | "--sched"), inline) => {
                let value = inline
                    .or_else(|| args.next())
                    .filter(|v| !v.is_empty() && !v.starts_with("--"))
                    .unwrap_or_else(|| usage_error(&format!("`{name}` needs a value")));
                let bad = || -> ! { usage_error(&format!("`{name}` cannot take `{value}`")) };
                match name {
                    "--jobs" => ctx.jobs = value.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| bad()),
                    "--trace" => ctx.trace_dir = Some(PathBuf::from(&value)),
                    "--sched" => ctx.sched = ossim::SchedulerKind::parse(&value).unwrap_or_else(|| bad()),
                    _ => {
                        let names = value.split(',').filter(|s| !s.is_empty());
                        let list = only.get_or_insert_with(Vec::new);
                        list.extend(names.map(str::to_string));
                        if list.is_empty() {
                            bad();
                        }
                    }
                }
            }
            _ => usage_error(&format!("unknown argument `{arg}`")),
        }
    }
    (ctx, only)
}

/// The summary columns after the wall time, rendered from what the
/// experiment's runs noted: simulated requests offered per wall-clock
/// second (a report column only; no wall-clock value enters any result
/// record), the facility's degradation decisions with the cluster's
/// retries and sheds and the drift counters, the obs digest, and the
/// completed resizes (outs/ins, with upgrade pairs noted) with the
/// brownout-ladder climbs and optional sheds. A column no run reported
/// reads `-`.
fn tally_columns(wall_s: f64, t: &Tally) -> Vec<String> {
    let dash = || "-".to_string();
    let mut cols = vec![if t.requests > 0 && wall_s > 0.0 {
        format!("{:.0}", t.requests as f64 / wall_s)
    } else {
        dash()
    }];
    cols.extend(match t.degrade {
        None => [dash(), dash(), dash(), dash()],
        Some(d) => [
            if d.is_clean() { "clean".to_string() } else { format!("{} decisions", d.total()) },
            t.retried.to_string(),
            t.shed.to_string(),
            d.drift_column(),
        ],
    });
    cols.extend(match t.obs {
        None => [dash(), dash()],
        Some(o) => [format!("{:.4}", o.p99_j_per_req), o.alerts.to_string()],
    });
    let a = t.autoscale;
    cols.extend(if a.is_empty() {
        [dash(), dash()]
    } else {
        [
            if a.upgrades > 0 {
                format!("{}/{} ({} upg)", a.scale_outs, a.scale_ins, a.upgrades)
            } else {
                format!("{}/{}", a.scale_outs, a.scale_ins)
            },
            format!("{} ({} shed)", a.brownout_engagements, a.shed_optional),
        ]
    });
    cols
}

fn main() {
    let results_dir = std::env::var_os("PC_RESULTS_DIR")
        .filter(|d| !d.is_empty())
        .map_or_else(|| PathBuf::from(DEFAULT_RESULTS_DIR), PathBuf::from);
    let (ctx, only) = parse_args(std::env::args().skip(1), results_dir);
    if let Some(names) = &only {
        for name in names {
            if registry::find(name).is_none() {
                eprintln!("error: unknown experiment `{name}` in --only");
                eprintln!(
                    "known: {}",
                    EXPERIMENTS.iter().map(|e| e.name).collect::<Vec<_>>().join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| only.as_ref().is_none_or(|o| o.iter().any(|x| x == e.name)))
        .collect();
    // Warm the calibration caches serially before fanning out, so
    // concurrent experiments load instead of redundantly recalibrating.
    experiments::prewarm_calibrations(&ctx);
    let t0 = Instant::now();
    let ctx = &ctx;
    let tasks: Vec<_> = selected
        .iter()
        .map(|e| {
            move || -> (Duration, Tally) {
                // What a failed task left on this worker describes runs
                // whose record was never written: drop it.
                tally::take();
                let t = Instant::now();
                (e.run)(ctx);
                (t.elapsed(), tally::take())
            }
        })
        .collect();
    let outcomes = runner::run_parallel(ctx.jobs, tasks);
    let total = t0.elapsed();
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
    for (e, outcome) in selected.iter().zip(&outcomes) {
        let (status, wall, t) = match outcome {
            Ok((wall, t)) => ("ok", format!("{wall:.2?}"), Some((wall.as_secs_f64(), t))),
            Err(msg) => {
                failed += 1;
                let mut msg = msg.replace('\n', " ");
                msg.truncate(60);
                ("FAILED", msg, None)
            }
        };
        let mut row = vec![e.name.to_string(), status.to_string(), wall];
        row.extend(t.map_or_else(|| vec!["-".to_string(); 9], |(secs, t)| tally_columns(secs, t)));
        table.row(row);
    }
    println!();
    println!(
        "== run_all summary: {} experiments, --jobs {}, total {total:.1?} ==",
        selected.len(),
        ctx.jobs
    );
    println!("{table}");
    eprintln!("[all experiments done in {total:.1?}]");
    if failed > 0 {
        eprintln!("error: {failed} experiment(s) failed");
        std::process::exit(1);
    }
}
