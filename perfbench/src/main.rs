//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one benchmark workload, prints each metric with its unit, and
//! ends standard output with the result as one JSON object. Exits 2 on a
//! bad command line and 1 when a correctness check failed.

use perfbench::run::{self, Options};
use perfbench::workload::{Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload fleet_steady|diurnal_elastic|pipeline_chaos \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn main() {
    let start = Instant::now();
    let (opts, trace) = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let report = if trace {
        let (report, tracer) = run::traced(&opts);
        write_spans(&opts, &tracer.to_jsonl());
        report
    } else {
        run::untraced(&opts, start)
    };
    for (name, unit, value) in &report.metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(Options, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 40.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((Options { workload, seed, seconds, requests: workload.requests() }, trace))
}

/// Writes the spans under the build directory:
/// `$CARGO_TARGET_DIR/perfbench-spans/`, else `perfbench/target/...`.
fn write_spans(opts: &Options, jsonl: &str) {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"), PathBuf::from)
        .join("perfbench-spans");
    let path = dir.join(format!("{}-seed{}.jsonl", opts.workload.name(), opts.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, jsonl)) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
    }
}
