//! Observability-report CLI for `.obs.json` artifacts exported by
//! `run_all --obs` (one [`telemetry::obs::ObsReport`] JSON line each).
//!
//! ```text
//! pc-obs report <obs.json>...            # merged human-readable report
//! pc-obs query <key> <obs.json>...       # one sketch (quantiles) or one
//!                                        # series (per-window cells)
//! pc-obs query <key> ... --q 0.5,0.999   # custom quantile list
//! pc-obs alerts <obs.json>...            # typed alert stream, time order
//! pc-obs alerts ... --fail-on-alert      # exit 1 if any alert fired
//! ```
//!
//! Multiple input files merge key-wise (per-cell artifacts fold into
//! one fleet view), and every output is byte-deterministic for a given
//! input set — `ci/obs_report.golden` pins the `report` rendering.

use std::path::PathBuf;
use std::process::ExitCode;
use telemetry::obs::ObsReport;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  pc-obs report <obs.json>...\n  \
         pc-obs query <key> <obs.json>... [--q 0.5,0.9,0.99]\n  \
         pc-obs alerts <obs.json>... [--fail-on-alert]"
    );
    ExitCode::from(2)
}

fn load_merged(paths: &[PathBuf]) -> Result<ObsReport, ExitCode> {
    if paths.is_empty() {
        return Err(usage());
    }
    let mut merged: Option<ObsReport> = None;
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| {
            eprintln!("error: cannot read {}: {e}", path.display());
            ExitCode::FAILURE
        })?;
        let report = ObsReport::from_json(&text).map_err(|e| {
            eprintln!("error: {}: {e}", path.display());
            ExitCode::FAILURE
        })?;
        match merged.as_mut() {
            Some(m) => m.merge(&report),
            None => merged = Some(report),
        }
    }
    Ok(merged.expect("at least one path"))
}

fn cmd_report(paths: &[PathBuf]) -> ExitCode {
    match load_merged(paths) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

fn cmd_query(key: &str, paths: &[PathBuf], quantiles: &[f64]) -> ExitCode {
    let report = match load_merged(paths) {
        Ok(r) => r,
        Err(code) => return code,
    };
    if let Some(s) = report.sketches.get(key) {
        println!("sketch {key}: n={} mean={:.6} min={:.6} max={:.6}", s.count(), s.mean(), s.min(), s.max());
        for &q in quantiles {
            println!("  p{:<6} {:.6}", q * 100.0, s.quantile(q));
        }
        return ExitCode::SUCCESS;
    }
    if let Some(r) = report.series.get(key) {
        println!("series {key}: cells={} window={} ms", r.len(), r.bucket_ns() / 1_000_000);
        for (i, c) in r.iter() {
            let t_ms = (i * r.bucket_ns()) as f64 / 1e6;
            let mean = if c.count == 0 { 0.0 } else { c.sum / c.count as f64 };
            println!(
                "  [{t_ms:>10.1} ms] n={:<6} mean={mean:.6} min={:.6} max={:.6}",
                c.count, c.min, c.max
            );
        }
        return ExitCode::SUCCESS;
    }
    eprintln!("error: no sketch or series named `{key}`; available keys:");
    for k in report.sketches.keys() {
        eprintln!("  sketch {k}");
    }
    for k in report.series.keys() {
        eprintln!("  series {k}");
    }
    ExitCode::FAILURE
}

fn cmd_alerts(paths: &[PathBuf], fail_on_alert: bool) -> ExitCode {
    let report = match load_merged(paths) {
        Ok(r) => r,
        Err(code) => return code,
    };
    println!("{} alert(s)", report.alerts.len());
    for a in &report.alerts {
        println!(
            "  [{}] t={:.3}s window={} value={:.4} threshold={:.4}",
            a.kind.name(),
            a.t_ns as f64 / 1e9,
            a.window,
            a.value,
            a.threshold
        );
    }
    if fail_on_alert && !report.alerts.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn parse_quantiles(spec: &str) -> Option<Vec<f64>> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let q: f64 = part.trim().parse().ok()?;
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        out.push(q);
    }
    Some(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let mut positional: Vec<String> = Vec::new();
    let mut quantiles = vec![0.50, 0.90, 0.99];
    let mut fail_on_alert = false;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--q" => {
                let Some(spec) = rest.get(i + 1) else {
                    return usage();
                };
                let Some(qs) = parse_quantiles(spec) else {
                    eprintln!("error: bad quantile list `{spec}` (want e.g. 0.5,0.9,0.99)");
                    return usage();
                };
                quantiles = qs;
                i += 2;
            }
            "--fail-on-alert" => {
                fail_on_alert = true;
                i += 1;
            }
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag `{flag}`");
                return usage();
            }
            p => {
                positional.push(p.to_string());
                i += 1;
            }
        }
    }
    let as_paths = |items: &[String]| items.iter().map(PathBuf::from).collect::<Vec<_>>();
    match cmd.as_str() {
        "report" => cmd_report(&as_paths(&positional)),
        "query" => {
            let [key, files @ ..] = positional.as_slice() else {
                return usage();
            };
            if files.is_empty() {
                return usage();
            }
            cmd_query(key, &as_paths(files), &quantiles)
        }
        "alerts" => cmd_alerts(&as_paths(&positional), fail_on_alert),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_quantiles;

    #[test]
    fn quantile_specs_parse_and_validate() {
        assert_eq!(parse_quantiles("0.5,0.99"), Some(vec![0.5, 0.99]));
        assert_eq!(parse_quantiles(" 0.1 , 1.0 "), Some(vec![0.1, 1.0]));
        assert_eq!(parse_quantiles("1.5"), None);
        assert_eq!(parse_quantiles("p99"), None);
    }
}
