//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§4) from the simulated substrate.
//!
//! Each `figNN` module exposes a `run(&RunCtx)` function that executes
//! the experiment, prints a paper-style text table, writes a JSON record
//! under the context's results directory, and returns the data for
//! programmatic checks. Every experiment is listed once in
//! [`registry::EXPERIMENTS`]; run one with
//! `cargo run --release -p experiments --bin run_all -- --only figNN`.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig01`] | Fig. 1 — incremental per-core power steps |
//! | [`fig02`] | Fig. 2 — measurement/model alignment cross-correlation |
//! | [`fig03`] | Fig. 3 — aligned measured vs modeled power trace |
//! | [`fig04`] | Fig. 4 — multi-stage WeBWorK request breakdown |
//! | [`fig05`] | Fig. 5 — measured active power per workload/machine/load |
//! | [`fig06`] | Fig. 6 — mean request power distributions |
//! | [`fig07`] | Fig. 7 — request energy distributions |
//! | [`fig08`] | Fig. 8 — validation error of the three approaches |
//! | [`fig09`] | Fig. 9 — GAE background processing share |
//! | [`fig10`] | Fig. 10 — power prediction at new request compositions |
//! | [`fig11`] | Fig. 11 — power-virus conditioning trace |
//! | [`fig12`] | Fig. 12 — per-request duty-cycle vs original power |
//! | [`fig13`] | Fig. 13 — cross-machine energy affinity ratios |
//! | [`fig14`] | Fig. 14 — cluster energy under three policies |
//! | [`table1`] | Table 1 — response times under three policies |
//! | [`overhead`] | §3.5 — facility overhead microbenchmarks |
//! | [`coefficients`] | §4.1 — calibrated model coefficients |
//! | [`ablations`] | design-choice ablations (tagging, Eq. 3, observer effect) |
//! | [`dvfs`] | extension: per-request conditioning vs whole-machine DVFS |
//! | [`anomaly`] | extension: online power-anomaly detection from reports |
//! | [`fault_sweep`] | extension: attribution accuracy under injected faults |
//! | [`scale_sweep`] | extension: the serving pipeline across fleet sizes and caps |
//! | [`chaos_sweep`] | extension: recovery invariants under randomized fault schedules |
//! | [`drift_sweep`] | extension: the self-calibrating model bank across a regime-shift ladder |
//! | [`megafleet`] | extension: single-cell capacity sweep (1000 nodes, 10⁶ requests) |
//! | [`obs_sweep`] | extension: energy-SLO burn-rate alerts over injected violations |
//! | [`sched_sweep`] | extension: attribution conformance across pluggable schedulers |
//! | [`diurnal_sweep`] | extension: diurnal/flash-crowd traffic, elastic autoscaler vs fixed fleet |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod anomaly;
pub mod cache;
pub mod chaos_sweep;
pub mod coefficients;
pub mod diurnal_sweep;
pub mod drift_sweep;
pub mod dvfs;
pub mod fault_sweep;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod megafleet;
pub mod mix;
pub mod obs_sweep;
pub mod output;
pub mod overhead;
pub mod registry;
pub mod runner;
pub mod scale_sweep;
pub mod sched_sweep;
pub mod table1;

use hwsim::MachineSpec;
use runner::RunCtx;
use std::path::PathBuf;
use workloads::MachineCalibration;

/// Experiment fidelity: `Full` reproduces the paper's durations; `Quick`
/// is a fast smoke-test variant used by the integration tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale run lengths.
    Full,
    /// Short runs for tests.
    Quick,
}

impl Scale {
    /// Simulated seconds for a standard measurement run.
    pub fn run_secs(self) -> u64 {
        match self {
            Scale::Full => 12,
            Scale::Quick => 4,
        }
    }
}

/// The root seed every experiment derives from (reproducibility).
pub const SEED: u64 = 42;

/// Lazily calibrated machines shared by one experiment run.
pub struct Lab {
    machines: Vec<(MachineSpec, Option<MachineCalibration>)>,
    /// Where the calibration caches live (the context's results dir).
    cache_dir: PathBuf,
}

impl Lab {
    /// Creates a lab with the paper's three machines, none calibrated
    /// yet, caching calibrations in `ctx`'s results directory.
    pub fn new(ctx: &RunCtx) -> Lab {
        Lab {
            machines: MachineSpec::all_machines()
                .into_iter()
                .map(|m| (m, None))
                .collect(),
            cache_dir: ctx.results_dir.clone(),
        }
    }

    /// The machine spec by name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown machine name.
    pub fn spec(&self, name: &str) -> MachineSpec {
        self.machines
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(m, _)| m.clone())
            .unwrap_or_else(|| panic!("unknown machine {name}"))
    }

    /// The (cached) calibration for a machine, running §4.1 on first use.
    pub fn calibration(&mut self, name: &str) -> MachineCalibration {
        let entry = self
            .machines
            .iter_mut()
            .find(|(m, _)| m.name == name)
            .unwrap_or_else(|| panic!("unknown machine {name}"));
        if entry.1.is_none() {
            eprintln!("[calibrating {name} ...]");
            entry.1 = Some(cache::calibration_for(&self.cache_dir, &entry.0, SEED));
        }
        entry.1.clone().expect("just calibrated")
    }
}

/// Ensures every machine's calibration cache file exists, calibrating
/// serially on a miss. Run this before fanning experiments out across
/// workers: each experiment builds its own [`Lab`], so without a warm
/// cache several workers would redundantly re-run the expensive §4.1
/// procedure for the same machine at once.
pub fn prewarm_calibrations(ctx: &RunCtx) {
    for spec in MachineSpec::all_machines() {
        let _ = cache::calibration_for(&ctx.results_dir, &spec, SEED);
    }
}
