//! Diurnal traffic / flash-crowd / elastic-autoscaler sweep binary.

use experiments::runner;

fn main() {
    runner::set_jobs(runner::jobs_from_args());
    runner::set_trace_dir(runner::trace_dir_from_args());
    let _ = experiments::diurnal_sweep::run(experiments::Scale::from_args());
}
