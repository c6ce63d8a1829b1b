//! The `run_all` command line: flags reach the experiments through the
//! one parser that builds a `RunCtx`, the summary table reads the same
//! at any `--jobs` count, and a malformed command line exits 2 before
//! any experiment runs. (Determinism of the records at any `--jobs`
//! count is the conformance test's job, experiment by experiment.)

use experiments::registry;
use experiments::runner::Sandbox;
use experiments::Scale;
use std::path::Path;
use std::process::{Command, Output};

/// Runs `run_all` with `args`, writing records into `results`.
fn run_all(results: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .env("PC_RESULTS_DIR", results)
        .output()
        .expect("spawn run_all")
}

/// `--quick --only fig02,megafleet --jobs 2 --trace DIR` under
/// `PC_RESULTS_DIR` writes exactly the bytes the same experiments write
/// in-process from the equivalent `RunCtx`: records where the variable
/// points, traces under `DIR`.
#[test]
fn run_all_writes_what_the_equivalent_ctx_writes() {
    let cli = Sandbox::new(Scale::Quick);
    let traces = cli.traces();
    let trace_arg = traces.to_str().expect("UTF-8 temp path");
    let out = run_all(
        &cli.ctx.results_dir,
        &["--quick", "--only", "fig02,megafleet", "--jobs", "2", "--trace", trace_arg],
    );
    assert!(out.status.success(), "run_all failed: {}", String::from_utf8_lossy(&out.stderr));

    let mut lib = Sandbox::new(Scale::Quick);
    lib.ctx.jobs = 2;
    lib.ctx.trace_dir = Some(lib.traces());
    for name in ["fig02", "megafleet"] {
        (registry::find(name).expect("registered").run)(&lib.ctx);
    }
    let files = cli.outputs();
    assert!(files.contains("fig2.json") && files.contains("megafleet.json"));
    assert!(files.iter().any(|k| k.starts_with("traces/megafleet/")), "--trace reached megafleet");
    assert_eq!(files, lib.outputs());
    for name in &files {
        assert!(cli.read(name) == lib.read(name), "{name} differs between run_all and the library");
    }
}

/// The summary's tally columns read the same at `--jobs 1` and
/// `--jobs 2`: every worker's runs count towards the experiment that
/// fanned them out. With `--obs` the three experiments fill every
/// column but drift (`-` on all three at quick scale): fig02 a harness
/// run's degradation, obs_sweep retries, sheds and alerts, diurnal_sweep
/// resizes and brownouts.
#[test]
fn summary_rows_do_not_depend_on_jobs() {
    let rows = |jobs: &str| -> Vec<Vec<String>> {
        let sandbox = Sandbox::new(Scale::Quick);
        let only = "fig02,obs_sweep,diurnal_sweep";
        let out = run_all(
            &sandbox.ctx.results_dir,
            &["--quick", "--only", only, "--obs", "--jobs", jobs],
        );
        assert!(out.status.success(), "run_all failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
        let table = stdout.split("== run_all summary").nth(1).expect("a summary table");
        // Past the title and the header with its rule; cells are two
        // spaces apart and hold no double space.
        let rows = table.lines().skip(3).take_while(|l| !l.is_empty());
        rows.map(|l| {
            let mut cells: Vec<String> =
                l.split("  ").map(str::trim).filter(|c| !c.is_empty()).map(String::from).collect();
            assert_eq!(cells.len(), 12, "a summary row has twelve cells: {l}");
            // Wall time and req/s are wall-clock readings.
            cells[2].clear();
            cells[3].clear();
            cells
        })
        .collect()
    };
    let serial = rows("1");
    assert_eq!(
        serial.iter().map(|r| r[..2].join(" ")).collect::<Vec<_>>(),
        ["fig02 ok", "obs_sweep ok", "diurnal_sweep ok"]
    );
    for col in [4, 5, 6, 8, 9, 10, 11] {
        assert!(serial.iter().any(|r| r[col] != "-"), "column {col} is `-` on every row");
    }
    assert_eq!(serial, rows("2"), "--jobs 1 and 2 summarize differently");
}

#[test]
fn run_all_rejects_unknown_only_names() {
    let sandbox = Sandbox::new(Scale::Quick);
    let out = run_all(&sandbox.ctx.results_dir, &["--quick", "--only", "no_such_experiment"]);
    assert_eq!(out.status.code(), Some(2), "unknown --only name must exit 2");
    // The registry names are zero-padded: `fig5` is not `fig05`.
    let out = run_all(&sandbox.ctx.results_dir, &["--quick", "--only", "fig5,fig8"]);
    assert_eq!(out.status.code(), Some(2), "`fig5` is not a registry name");
}

/// Every rejected command line exits 2, names the offending flag and
/// lists the known ones, without running anything.
fn assert_rejected(cases: &[(&[&str], &str)]) {
    let sandbox = Sandbox::new(Scale::Quick);
    for (args, culprit) in cases {
        let out = run_all(&sandbox.ctx.results_dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let error = stderr.lines().next().unwrap_or_default();
        assert!(error.contains(culprit), "{args:?}: error must name `{culprit}`: {stderr}");
        assert!(stderr.contains("--jobs N"), "{args:?}: error must list the known flags");
    }
    assert!(sandbox.outputs().is_empty(), "a rejected invocation wrote output");
}

#[test]
fn run_all_rejects_unknown_flags() {
    // A retired flag and a typo of a live one must both fail loudly
    // instead of running the default.
    assert_rejected(&[(&["--quick", "--shards", "4"], "--shards"), (&["--quick", "--job", "4"], "--job")]);
}

#[test]
fn run_all_rejects_malformed_flag_values() {
    assert_rejected(&[
        (&["--quick", "--jobs", "abc"], "--jobs"),
        (&["--quick", "--jobs", "0"], "--jobs"),
        (&["--quick", "--jobs=abc"], "--jobs"),
        (&["--quick", "--trace"], "--trace"),
        (&["--quick", "--sched"], "--sched"),
        (&["--quick", "--sched", "fifo"], "--sched"),
        (&["--quick", "--jobs", "2", "--only"], "--only"),
        (&["--quick", "--only="], "--only"),
        (&["--quick", "--trace", "--obs"], "--trace"),
    ]);
}
