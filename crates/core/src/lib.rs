//! # Power Containers
//!
//! A reproduction of *Power Containers: An OS Facility for Fine-Grained
//! Power and Energy Management on Multicore Servers* (Shen, Shriraman,
//! Dwarkadas, Zhang, Chen — ASPLOS 2013), built on the simulated hardware
//! ([`hwsim`]) and operating system ([`ossim`]) substrates of this
//! workspace.
//!
//! A *power container* accounts for — and controls — the power and energy
//! usage of one fine-grained request as it flows through a multi-stage
//! multicore server. Three techniques make this possible:
//!
//! 1. **Multicore power attribution** ([`PowerModel`], [`SampleBoard`]):
//!    a linear model over per-core hardware event counters (Eq. 1),
//!    extended with each task's share of the chip's shared *maintenance
//!    power* (Eq. 2/3), estimated per core without cross-core
//!    synchronization.
//! 2. **Measurement alignment and online recalibration**
//!    ([`DelayEstimator`], [`Recalibrator`]): delayed meter readings are
//!    aligned to model estimates by cross-correlation (Eq. 4), then folded
//!    into a least-squares refit that corrects the offline model for
//!    production workloads — most importantly unusually high-power ones.
//! 3. **Application-transparent request tracking** ([`ContainerManager`],
//!    [`PowerContainerFacility`]): request contexts propagate through
//!    socket messages (tagged per segment), forks and IPC; each context's
//!    container accumulates events, power and energy, and per-request
//!    control (duty-cycle throttling, [`ConditioningPolicy`]) hangs off
//!    the container.
//!
//! # Quick start
//!
//! ```
//! use hwsim::{ActivityProfile, Machine, MachineSpec};
//! use ossim::{Kernel, KernelConfig, Op, ScriptProgram};
//! use power_containers::{
//!     FacilityConfig, ModelKind, PowerContainerFacility, PowerModel,
//! };
//! use simkern::SimTime;
//!
//! // A calibrated model would come from `CalibrationSet::fit`; use a
//! // hand-rolled one here.
//! let spec = MachineSpec::sandybridge();
//! let model = PowerModel::new(
//!     ModelKind::WithChipShare,
//!     26.1,
//!     [8.3, 0.78, 0.75, 35.0, 41.0, 5.6, 1.7, 5.8],
//! );
//! let facility = PowerContainerFacility::new(model, None, &spec, FacilityConfig::default());
//! let state = facility.state();
//!
//! let mut kernel = Kernel::new(Machine::new(spec, 1), KernelConfig::default());
//! kernel.install_hooks(Box::new(facility));
//!
//! // Run one tagged request.
//! let ctx = kernel.alloc_context();
//! kernel.spawn(
//!     Box::new(ScriptProgram::new(vec![Op::Compute {
//!         cycles: 3.1e6,
//!         profile: ActivityProfile::high_ipc(),
//!     }])),
//!     Some(ctx),
//! );
//! kernel.run_until(SimTime::from_millis(5));
//!
//! let state = state.borrow();
//! assert_eq!(state.containers().records().len(), 1);
//! assert!(state.containers().records()[0].energy_j > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The facility must degrade gracefully, never panic, when its inputs
// misbehave: recoverable failures go through `FacilityError` instead of
// `unwrap`/`expect`. Tests may still unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod align;
mod calibrate;
mod chipshare;
mod conditioning;
mod container;
mod dvfs;
mod error;
mod facility;
mod metrics;
mod model;
mod modelbank;
mod recalibrate;
mod report;
mod trace;

pub use align::{
    AlignmentResult, DelayEstimator, Reading, ALIGN_AMBIGUITY_MARGIN, ALIGN_WINDOW,
    MIN_ALIGN_SCORE,
};
pub use calibrate::{CalibrationSample, CalibrationSet};
pub use chipshare::{SampleBoard, SampleRecord};
pub use conditioning::ConditioningPolicy;
pub use dvfs::DvfsGovernor;
pub use container::{
    lifetime_metrics, ContainerManager, ContainerRecord, ContainerSnapshot, ContainerView,
    LabelEnergy, ManagerCheckpoint, RecordLog, RecordRetention, RequestEnergy,
};
pub use error::FacilityError;
pub use facility::{
    Approach, Cadence, FacilityConfig, FacilityState, PowerContainerFacility, MAINTENANCE_BUNDLE,
    TRACE_SLOT,
};
pub use metrics::{DegradeStats, MetricVector, FEATURES};
pub use model::{ModelKind, PowerModel};
pub use modelbank::{
    BankConfig, BankOutcome, BankStats, DriftEvent, DriftPolicy, ModelBank, ModelSwitch,
    RegimeKey,
};
pub use recalibrate::{Recalibrator, RefitPolicy};
pub use report::{ConsumerLine, PowerReport};
pub use trace::TraceRing;
