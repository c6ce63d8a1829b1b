//! Determinism under parallelism: `run_all --jobs N` must write
//! byte-identical `results/*.json` — and, with `--trace`, byte-identical
//! telemetry traces — for every N, because each experiment (and each
//! sweep cell) is an independent seeded simulation, results are
//! assembled in input order, and traces carry only simulated
//! timestamps. This test runs a representative subset (including the
//! parallelized sweeps fig05/fig08/fault_sweep/scale_sweep and the
//! megafleet) serially and with 4 workers into sandboxed results +
//! trace directories and compares every produced file byte for byte.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const SUBSET: &str = "fig02,fig05,fig08,fault_sweep,scale_sweep,megafleet";

fn repo_results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Creates a sandbox results dir pre-seeded with the committed
/// calibration caches (so the test exercises the experiments, not the
/// §4.1 calibration procedure).
fn sandbox(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pc-parallel-identity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create sandbox");
    for entry in std::fs::read_dir(repo_results()).expect("repo results dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().to_string();
        if name.starts_with("calibration-") && name.ends_with(".json") {
            std::fs::copy(entry.path(), dir.join(&name)).expect("copy calibration cache");
        }
    }
    dir
}

fn run_all(results_dir: &Path, jobs: &str) {
    let trace_dir = results_dir.join("traces");
    let status = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--quick", "--only", SUBSET, "--jobs", jobs])
        .arg("--trace")
        .arg(&trace_dir)
        .env("PC_RESULTS_DIR", results_dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn run_all");
    assert!(status.success(), "run_all --jobs {jobs} failed: {status}");
}

/// All non-calibration JSON files in a directory, name → bytes.
fn records(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("results dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().to_string();
        if name.ends_with(".json") && !name.starts_with("calibration-") {
            out.insert(name, std::fs::read(entry.path()).expect("read record"));
        }
    }
    out
}

/// All trace files under `<dir>/traces`, relative path → bytes.
fn traces(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let root = dir.join("traces");
    let mut out = BTreeMap::new();
    let mut stack = vec![root.clone()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("trace dir") {
            let entry = entry.expect("dir entry");
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(&root)
                    .expect("under trace root")
                    .to_string_lossy()
                    .to_string();
                out.insert(rel, std::fs::read(&path).expect("read trace"));
            }
        }
    }
    out
}

#[test]
fn parallel_run_all_output_is_byte_identical_to_serial() {
    let serial_dir = sandbox("serial");
    let parallel_dir = sandbox("parallel");
    run_all(&serial_dir, "1");
    run_all(&parallel_dir, "4");
    let serial = records(&serial_dir);
    let parallel = records(&parallel_dir);
    assert!(!serial.is_empty(), "serial run produced no records");
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "record sets differ"
    );
    for (name, bytes) in &serial {
        assert_eq!(
            bytes, &parallel[name],
            "{name} differs between serial and --jobs 4"
        );
    }
    // The telemetry traces must be deterministic too: only simulated
    // timestamps, recorded in dispatch order within each cell's own
    // sink.
    let serial_traces = traces(&serial_dir);
    let parallel_traces = traces(&parallel_dir);
    assert!(
        serial_traces.keys().any(|k| k.starts_with("fig05/") && k.ends_with(".jsonl")),
        "no fig05 .jsonl traces produced"
    );
    assert!(
        serial_traces
            .keys()
            .any(|k| k.starts_with("fault_sweep/") && k.ends_with(".trace.json")),
        "no fault_sweep .trace.json traces produced"
    );
    assert!(
        serial_traces
            .keys()
            .any(|k| k.starts_with("scale_sweep/") && k.ends_with(".jsonl")),
        "no scale_sweep traces produced"
    );
    assert!(
        serial_traces
            .keys()
            .any(|k| k.starts_with("megafleet/") && k.ends_with(".jsonl")),
        "no megafleet traces produced"
    );
    assert_eq!(
        serial_traces.keys().collect::<Vec<_>>(),
        parallel_traces.keys().collect::<Vec<_>>(),
        "trace file sets differ"
    );
    for (name, bytes) in &serial_traces {
        assert_eq!(
            bytes, &parallel_traces[name],
            "trace {name} differs between serial and --jobs 4"
        );
    }
    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&parallel_dir);
}

#[test]
fn run_all_rejects_unknown_only_names() {
    let dir = sandbox("reject");
    let status = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--quick", "--only", "no_such_experiment"])
        .env("PC_RESULTS_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn run_all");
    assert_eq!(status.code(), Some(2), "unknown --only name must exit 2");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_all_rejects_unknown_flags() {
    let dir = sandbox("reject-flags");
    // A retired flag and a typo of a live one must both fail loudly
    // (before any experiment runs) instead of running the default.
    for args in [&["--quick", "--shards", "4"][..], &["--quick", "--job", "4"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .args(args)
            .env("PC_RESULTS_DIR", &dir)
            .output()
            .expect("spawn run_all");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[1]), "{args:?}: error must name the flag: {stderr}");
        assert!(stderr.contains("--jobs N"), "{args:?}: error must list the known flags");
    }
    let no_records = std::fs::read_dir(&dir).expect("sandbox").all(|e| {
        let name = e.expect("dir entry").file_name().to_string_lossy().to_string();
        name.starts_with("calibration-")
    });
    assert!(no_records, "a rejected invocation must not write records");
    let _ = std::fs::remove_dir_all(&dir);
}
