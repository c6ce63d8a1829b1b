//! Megafleet checks: the CI smoke cell (100 nodes × 10⁵ requests under
//! a wall budget) and the trace goldens for `pc-trace summarize` /
//! `pc-trace schema` on the megafleet traces. (`parallel_identity`
//! checks that the record is byte-identical at any `--jobs` count.)
//!
//! Golden files live in `ci/`; regenerate them after a deliberate
//! instrumentation change with:
//!
//! ```text
//! PC_BLESS=1 cargo test --release -p experiments --test megafleet_checks
//! ```

use cluster::{run_cluster, SimpleBalance};
use experiments::{megafleet, Lab, Scale};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The CI smoke cell is exactly the issue's smoke grid point: 100 nodes
/// serving 10⁵ requests, conservation exact, inside a 30 s wall budget.
/// (The budget only binds in release builds — CI runs this under
/// `cargo test --release`.)
#[test]
fn smoke_cell_100_nodes_within_wall_budget() {
    // Calibration is warmed outside the timed region; the budget covers
    // the simulation itself.
    let mut lab = Lab::new();
    let cfg = megafleet::cell_config(100, 100_000);
    let cals = megafleet::cell_calibrations(&mut lab, &cfg);
    let t0 = Instant::now();
    let outcome = run_cluster(&mut SimpleBalance::new(), &cfg, &cals);
    let elapsed = t0.elapsed();
    megafleet::assert_cell_conserved("megafleet smoke 100x100000", &outcome);
    assert!(
        outcome.dispatched >= 100_000,
        "cell must offer its target load, got {}",
        outcome.dispatched
    );
    assert_eq!(outcome.dropped, 0, "healthy cell must not drop requests");
    if !cfg!(debug_assertions) {
        assert!(
            elapsed.as_secs_f64() < 30.0,
            "100-node smoke cell took {:.1}s — dispatcher throughput regressed",
            elapsed.as_secs_f64()
        );
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../ci").join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
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
         --release -p experiments --test megafleet_checks"
    );
}

/// Runs the quick megafleet sweep with tracing into a sandbox
/// (pre-seeded with the committed calibration caches); returns the
/// sandbox root.
fn traced_quick_sweep() -> PathBuf {
    let tmp = std::env::temp_dir().join(format!("pc-megafleet-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let results = tmp.join("results");
    std::fs::create_dir_all(&results).expect("create sandbox");
    let repo_results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for entry in std::fs::read_dir(repo_results).expect("repo results dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().to_string();
        if name.starts_with("calibration-") && name.ends_with(".json") {
            std::fs::copy(entry.path(), results.join(&name)).expect("copy calibration cache");
        }
    }
    std::env::set_var("PC_RESULTS_DIR", &results);
    experiments::runner::set_trace_dir(Some(tmp.join("traces")));
    let record = megafleet::run(Scale::Quick);
    experiments::runner::set_trace_dir(None);
    assert!(record.conserved, "megafleet cells must conserve");
    assert!(record.largest_dispatched >= 100_000);
    tmp
}

/// The trace CLI output is pinned by goldens over the traced
/// (smallest) cell of the quick sweep: schema (exactly what CI's
/// `schema --check` sees) and summarize.
#[test]
fn megafleet_traces_match_goldens() {
    let root = traced_quick_sweep();
    let trace_dir = root.join("traces/megafleet");
    let mut names: Vec<String> = std::fs::read_dir(&trace_dir)
        .expect("megafleet trace dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().to_string())
        .filter(|n| n.ends_with(".jsonl"))
        .collect();
    names.sort();
    // Only the grid's smallest cell is traced (a recording sink holds
    // every event in memory; the megacells would emit gigabytes).
    assert_eq!(names.len(), 1, "expected the smallest cell's trace, got {names:?}");
    let smallest = std::fs::read_to_string(trace_dir.join(&names[0])).expect("smallest trace");
    check_golden("trace_schema_megafleet.golden", &telemetry::summary::schema(&smallest));
    let s = telemetry::summary::summarize(&smallest);
    assert_eq!(s.unparsed_lines, 0, "trace must be well-formed");
    check_golden(
        "trace_summarize_megafleet.golden",
        &telemetry::summary::render_summary(&s),
    );
    let _ = std::fs::remove_dir_all(&root);
}
