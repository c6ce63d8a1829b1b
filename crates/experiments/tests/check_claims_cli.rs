//! `check_claims` on a sandbox copy of the committed records: every
//! claim passes on the full set, and removing any record it reads, or
//! emptying any of its per-row lists, fails the run.

use experiments::output::DEFAULT_RESULTS_DIR;
use experiments::runner::Sandbox;
use experiments::Scale;
use std::path::Path;
use std::process::Command;

/// Every record `check_claims` reads.
const RECORDS: [&str; 14] = [
    "fig1",
    "fig2",
    "fig4",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "table1",
    "ablations",
    "dvfs",
    "anomaly",
];

/// The per-row lists whose claims are made row by row, as
/// (record, key).
const ROW_LISTS: [(&str, &str); 5] = [
    ("fig2", "scans"),
    ("fig8", "worst_case"),
    ("fig10", "scenarios"),
    ("fig13", "rows"),
    ("ablations", "rows"),
];

/// A sandbox holding a copy of every committed record.
fn sandbox_with_records() -> Sandbox {
    let sandbox = Sandbox::new(Scale::Quick);
    for entry in std::fs::read_dir(DEFAULT_RESULTS_DIR).expect("committed results dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().expect("file name").to_owned();
        if path.extension().is_some_and(|e| e == "json") {
            std::fs::copy(&path, sandbox.ctx.results_dir.join(name)).expect("copy record");
        }
    }
    sandbox
}

/// Runs `check_claims` on `results`: its exit code and stdout.
fn check_claims(results: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_check_claims"))
        .env("PC_RESULTS_DIR", results)
        .output()
        .expect("spawn check_claims");
    (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn every_claim_passes_on_the_committed_records() {
    let sandbox = sandbox_with_records();
    let (code, out) = check_claims(&sandbox.ctx.results_dir);
    assert_eq!(code, Some(0), "{out}");
    assert_eq!(out.lines().filter(|l| l.starts_with("PASS")).count(), 26, "{out}");
    assert!(out.ends_with("26 claims checked, 0 failed\n"), "{out}");
}

#[test]
fn a_missing_record_fails() {
    let sandbox = sandbox_with_records();
    let dir = &sandbox.ctx.results_dir;
    for id in RECORDS {
        let (path, aside) = (dir.join(format!("{id}.json")), dir.join(format!("{id}.aside")));
        std::fs::rename(&path, &aside).expect("set the record aside");
        let (code, out) = check_claims(dir);
        assert_eq!(code, Some(1), "{id} removed: {out}");
        assert!(out.contains(&format!("FAIL  {id}: record present")), "{id} removed: {out}");
        std::fs::rename(&aside, &path).expect("put the record back");
    }
}

#[test]
fn an_empty_row_list_fails() {
    let sandbox = sandbox_with_records();
    let dir = &sandbox.ctx.results_dir;
    for (id, key) in ROW_LISTS {
        let path = dir.join(format!("{id}.json"));
        let full = std::fs::read(&path).expect("committed record");
        std::fs::write(&path, format!("{{\"{key}\":[]}}")).expect("write an empty list");
        let (code, out) = check_claims(dir);
        assert_eq!(code, Some(1), "{id}.{key} emptied: {out}");
        assert!(out.contains(&format!("FAIL  {id}: {key} present")), "{id}.{key} emptied: {out}");
        std::fs::write(&path, full).expect("restore the record");
    }
}
