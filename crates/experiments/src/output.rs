//! Output helpers: paper-style text tables plus JSON result records.
//!
//! Every experiment prints its rows to stdout and writes a JSON record
//! under its context's results directory so EXPERIMENTS.md can be
//! regenerated from the data.

use crate::runner::RunCtx;
use serde::Serialize;
use std::fmt::Write as _;

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Table {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Table {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:width$}", c, width = widths[i]);
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("== {id}: {title} ==");
}

/// The checkout's `results/` directory, resolved at compile time: where
/// binaries write records and calibration caches unless
/// `PC_RESULTS_DIR` says otherwise, and where [`crate::runner::Sandbox`]
/// copies the committed calibration caches from.
pub const DEFAULT_RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

impl RunCtx {
    /// Writes an experiment's JSON record to `<results dir>/<id>.json`.
    /// Failures are reported but non-fatal (experiments still print).
    pub fn write_record<T: Serialize>(&self, id: &str, record: &T) {
        let dir = &self.results_dir;
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{id}.json"));
        match serde_json::to_string_pretty(record) {
            Ok(json) => match std::fs::write(&path, json) {
                Ok(()) => println!("[record: {}]", path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            },
            Err(e) => eprintln!("warning: cannot serialize record: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(["workload", "error"]);
        t.row(["RSA-crypto", "8.1%"]);
        t.row(["Stress", "35.0%"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("workload"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("RSA-crypto"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.084), "8.4%");
    }
}
