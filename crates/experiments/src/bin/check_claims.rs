//! Validates the regenerated results against the paper's qualitative
//! claims. Reads the JSON records under `PC_RESULTS_DIR` (default: the
//! checkout's `results/`; produce them with `run_all` first) and prints
//! PASS/FAIL per claim; exits non-zero if any claim fails. A missing or
//! unreadable record, or a record whose per-row list is empty, is a
//! failed claim too.
//!
//! ```sh
//! cargo run --release -p experiments --bin run_all
//! cargo run --release -p experiments --bin check_claims
//! ```

use experiments::output::DEFAULT_RESULTS_DIR;
use serde_json::Value;
use std::path::PathBuf;

struct Checker {
    results_dir: PathBuf,
    failures: u32,
    checks: u32,
}

impl Checker {
    fn claim(&mut self, name: &str, ok: bool, detail: String) {
        self.checks += 1;
        if ok {
            println!("PASS  {name} ({detail})");
        } else {
            self.failures += 1;
            println!("FAIL  {name} ({detail})");
        }
    }

    /// The record `id`, or `None` after failing its presence.
    fn record(&mut self, id: &str) -> Option<Value> {
        let text = std::fs::read_to_string(self.results_dir.join(format!("{id}.json")));
        let record = text.ok().and_then(|t| serde_json::from_str(&t).ok());
        if record.is_none() {
            self.claim(&format!("{id}: record present"), false, "missing".into());
        }
        record
    }

    /// The per-row list `record[key]` of record `id`; an absent or empty
    /// list fails its presence.
    fn rows<'r>(&mut self, id: &str, record: &'r Value, key: &str) -> &'r [Value] {
        let rows = record[key].as_array().map_or(&[][..], Vec::as_slice);
        if rows.is_empty() {
            self.claim(&format!("{id}: {key} present"), false, "no rows".into());
        }
        rows
    }
}

fn main() {
    let results_dir = std::env::var_os("PC_RESULTS_DIR")
        .filter(|d| !d.is_empty())
        .map_or_else(|| PathBuf::from(DEFAULT_RESULTS_DIR), PathBuf::from);
    let mut c = Checker { results_dir, failures: 0, checks: 0 };

    if let Some(fig1) = c.record("fig1") {
        let sb = &fig1["machines"][0]["increments_w"];
        let first = sb[0].as_f64().unwrap_or(0.0);
        let second = sb[1].as_f64().unwrap_or(0.0);
        c.claim(
            "fig1: SandyBridge first-core step exceeds later steps",
            first > second + 3.0,
            format!("{first:.1} W vs {second:.1} W"),
        );
        let wc = &fig1["machines"][1]["increments_w"];
        c.claim(
            "fig1: Woodcrest pays maintenance on the first two tasks",
            wc[1].as_f64().unwrap_or(0.0) > wc[2].as_f64().unwrap_or(99.0) + 3.0,
            format!("{} vs {}", wc[1], wc[2]),
        );
    }

    if let Some(fig2) = c.record("fig2") {
        for scan in c.rows("fig2", &fig2, "scans") {
            let name = scan["meter"].as_str().unwrap_or("?").to_string();
            let true_d = scan["true_delay_ms"].as_f64().unwrap_or(0.0);
            let est = scan["estimated_delay_ms"].as_f64().unwrap_or(-1.0);
            c.claim(
                &format!("fig2: {name} delay recovered"),
                (est - true_d).abs() <= true_d.max(1.0) * 0.2 + 1.0,
                format!("true {true_d} ms, estimated {est} ms"),
            );
        }
    }

    if let Some(fig4) = c.record("fig4") {
        let stages = fig4["stages"].as_array().cloned().unwrap_or_default();
        c.claim(
            "fig4: all five request stages attributed",
            stages.len() == 5
                && stages.iter().all(|s| s["energy_j"].as_f64().unwrap_or(0.0) > 0.0),
            format!("{} stages", stages.len()),
        );
    }

    if let Some(fig8) = c.record("fig8") {
        for wc in c.rows("fig8", &fig8, "worst_case") {
            let machine = wc[0].as_str().unwrap_or("?").to_string();
            let e = &wc[1];
            let (e1, e2, e3) = (
                e[0].as_f64().unwrap_or(0.0),
                e[1].as_f64().unwrap_or(0.0),
                e[2].as_f64().unwrap_or(0.0),
            );
            c.claim(
                &format!("fig8: {machine} worst-case error improves #1→#2→#3"),
                e1 >= e2 - 0.01 && e2 >= e3 - 0.01,
                format!("{:.1}% / {:.1}% / {:.1}%", e1 * 100.0, e2 * 100.0, e3 * 100.0),
            );
            c.claim(
                &format!("fig8: {machine} recalibrated error ≤ 12% (paper ≤ 9%)"),
                e3 <= 0.12,
                format!("{:.1}%", e3 * 100.0),
            );
        }
    }

    if let Some(fig9) = c.record("fig9") {
        let peak = fig9["cells"][0]["background_share"].as_f64().unwrap_or(0.0);
        c.claim(
            "fig9: GAE background is a substantial share (paper ~1/3)",
            (0.15..0.5).contains(&peak),
            format!("{:.0}% at peak", peak * 100.0),
        );
    }

    if let Some(fig10) = c.record("fig10") {
        for s in c.rows("fig10", &fig10, "scenarios") {
            let name = s["scenario"].as_str().unwrap_or("?").to_string();
            let w = &s["worst_errors"];
            let containers = w[0].as_f64().unwrap_or(1.0);
            let cpu = w[1].as_f64().unwrap_or(0.0);
            let rate = w[2].as_f64().unwrap_or(0.0);
            c.claim(
                &format!("fig10: containers predict best ({name})"),
                containers <= cpu + 0.01 && containers <= rate + 0.01 && containers <= 0.11,
                format!(
                    "containers {:.1}%, cpu {:.1}%, rate {:.1}%",
                    containers * 100.0,
                    cpu * 100.0,
                    rate * 100.0
                ),
            );
        }
    }

    if let Some(fig11) = c.record("fig11") {
        let runs = fig11["runs"].as_array().cloned().unwrap_or_default();
        let orig = runs.first().map(|r| r["frac_above_target"].as_f64().unwrap_or(0.0));
        let cond = runs.get(1).map(|r| r["frac_above_target"].as_f64().unwrap_or(1.0));
        c.claim(
            "fig11: conditioning caps the virus spikes",
            matches!((orig, cond), (Some(o), Some(cd)) if o > 0.05 && cd < 0.02),
            format!("above-target buckets {orig:?} → {cond:?}"),
        );
    }

    if let Some(fig12) = c.record("fig12") {
        let normal = fig12["normal_slowdown"].as_f64().unwrap_or(1.0);
        let virus = fig12["virus_slowdown"].as_f64().unwrap_or(0.0);
        let full = fig12["full_machine_slowdown"].as_f64().unwrap_or(0.0);
        c.claim(
            "fig12: only viruses pay (normal < full-machine < virus)",
            normal < full && virus > full,
            format!(
                "normal {:.1}%, full-machine {:.1}%, virus {:.1}%",
                normal * 100.0,
                full * 100.0,
                virus * 100.0
            ),
        );
    }

    if let Some(fig13) = c.record("fig13") {
        let rows = c.rows("fig13", &fig13, "rows");
        let ratio_of = |name: &str| {
            rows.iter()
                .find(|r| r["workload"].as_str() == Some(name))
                .and_then(|r| r["ratio"].as_f64())
                .unwrap_or(f64::NAN)
        };
        let rsa = ratio_of("RSA-crypto");
        let stress = ratio_of("Stress");
        c.claim(
            "fig13: RSA has the strongest new-machine affinity (paper 0.22)",
            rows.iter().all(|r| r["ratio"].as_f64().unwrap_or(0.0) >= rsa) && rsa < 0.3,
            format!("RSA {rsa:.2}"),
        );
        c.claim(
            "fig13: Stress is the most machine-indifferent workload",
            rows.iter().all(|r| r["ratio"].as_f64().unwrap_or(1.0) <= stress),
            format!("Stress {stress:.2}"),
        );
    }

    if let Some(fig14) = c.record("fig14") {
        let total = |i: usize| fig14["policies"][i]["total_w"].as_f64().unwrap_or(0.0);
        c.claim(
            "fig14: workload-aware < machine-aware < simple balance",
            total(2) < total(1) && total(1) < total(0),
            format!("{:.1} / {:.1} / {:.1} W", total(0), total(1), total(2)),
        );
        let saving = fig14["saving_vs_simple"].as_f64().unwrap_or(0.0);
        c.claim(
            "fig14: double-digit energy saving vs simple balance",
            saving >= 0.10,
            format!("{:.1}%", saving * 100.0),
        );
    }

    if let Some(t1) = c.record("table1") {
        let mean_of = |i: usize| -> f64 {
            t1["rows"][i]["by_app"]
                .as_array()
                .map(|apps| {
                    apps.iter().map(|a| a[1].as_f64().unwrap_or(0.0)).sum::<f64>()
                        / apps.len().max(1) as f64
                })
                .unwrap_or(0.0)
        };
        c.claim(
            "table1: simple balance has the worst response times",
            mean_of(0) > mean_of(1) && mean_of(0) > mean_of(2),
            format!("{:.0} vs {:.0} / {:.0} ms", mean_of(0), mean_of(1), mean_of(2)),
        );
    }

    if let Some(a) = c.record("ablations") {
        for row in c.rows("ablations", &a, "rows") {
            let name = row["mechanism"].as_str().unwrap_or("?").to_string();
            let with = row["with_mechanism"].as_f64().unwrap_or(1.0);
            let without = row["without_mechanism"].as_f64().unwrap_or(0.0);
            c.claim(
                &format!("ablation: removing '{name}' hurts"),
                without > with,
                format!("{:.1}% → {:.1}%", with * 100.0, without * 100.0),
            );
        }
    }

    if let Some(d) = c.record("dvfs") {
        let normal = |i: usize| d["runs"][i]["normal_response_ms"].as_f64().unwrap_or(0.0);
        c.claim(
            "dvfs: per-request conditioning hurts normal requests less than machine DVFS",
            normal(1) < normal(2),
            format!("{:.1} vs {:.1} ms", normal(1), normal(2)),
        );
    }

    if let Some(a) = c.record("anomaly") {
        let recall = a["recall"].as_f64().unwrap_or(0.0);
        let precision = a["precision"].as_f64().unwrap_or(0.0);
        c.claim(
            "anomaly: live reports pinpoint the power viruses",
            recall > 0.7 && precision > 0.6,
            format!("recall {:.0}%, precision {:.0}%", recall * 100.0, precision * 100.0),
        );
    }

    println!("\n{} claims checked, {} failed", c.checks, c.failures);
    if c.failures > 0 {
        std::process::exit(1);
    }
}
