//! The work gate: recomputes the exact work counts of `perf_report`'s
//! `work` section (`pc_bench::work_ledger`) and fails when any count
//! exceeds its value recorded in `BENCH_perf.json`. The counts are
//! deterministic, so a rise is more work, never noise. A change that
//! lowers a count records the new value by regenerating the report.
//!
//! Needs the counters:
//!
//! ```text
//! cargo test --release -p pc-bench --features work-counts --test work_gate
//! ```

#![cfg(feature = "work-counts")]

use serde_json::Value;

#[test]
fn no_work_count_exceeds_its_recorded_value() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    let text = std::fs::read_to_string(path).expect("read BENCH_perf.json");
    let report: Value = serde_json::from_str(&text).expect("parse BENCH_perf.json");
    let recorded = report["work"]
        .as_array()
        .expect("BENCH_perf.json has a work section");
    let mut over = Vec::new();
    for (name, work) in pc_bench::work_ledger() {
        let entry = recorded
            .iter()
            .find(|e| e["name"].as_str() == Some(name.as_str()))
            .unwrap_or_else(|| panic!("BENCH_perf.json records no work for {name}"));
        for (field, now) in [
            ("core_ticks", work.core_ticks),
            ("delivers", work.delivers),
            ("wakes", work.wakes),
            ("events", work.events()),
            ("segments", work.segments),
        ] {
            let was = entry[field]
                .as_u64()
                .unwrap_or_else(|| panic!("BENCH_perf.json records no {field} for {name}"));
            if now > was {
                over.push(format!("{name}.{field}: {now} > {was}"));
            } else if now < was {
                eprintln!("{name}.{field} fell to {now} from {was}: record it");
            }
        }
    }
    assert!(over.is_empty(), "work counts rose:\n{}", over.join("\n"));
}
