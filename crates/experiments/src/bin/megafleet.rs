//! Regenerates the megafleet capacity sweep (nodes × requests). Pass
//! `--quick` for the CI smoke grid, `--jobs N` for concurrent cells,
//! `--trace DIR` for telemetry export. Results are byte-identical at any
//! job count.
use experiments::runner;

fn main() {
    runner::set_jobs(runner::jobs_from_args());
    runner::set_trace_dir(runner::trace_dir_from_args());
    let _ = experiments::megafleet::run(experiments::Scale::from_args());
}
