//! Heterogeneous-cluster request distribution (paper §3.4, §4.4).
//!
//! A production cluster mixes machine generations; where a request runs
//! determines how much energy it costs. This crate reproduces the
//! paper's two-machine study:
//!
//! * [`profile`] — per-workload cross-machine energy profiles obtained
//!   through power containers (Fig. 13);
//! * [`policy`] — the three dispatch policies compared in Fig. 14 and
//!   Table 1 (simple balance, machine heterogeneity-aware, workload
//!   heterogeneity-aware);
//! * [`topology`] — heterogeneous fleet construction: arbitrary machine
//!   mixes arranged into multi-stage serving tiers (web → app → db);
//! * [`sim`] — the N-node serving simulation: a tick-batched
//!   dispatcher drives a deterministic open-loop load through the
//!   pipeline, request tags propagate across node boundaries on the
//!   socket path (and degrade under tag faults exactly as on one
//!   machine), and a cluster-wide power cap decomposes into per-node
//!   conditioning shares.
//!
//! # Example
//!
//! ```no_run
//! use cluster::{run_cluster, ClusterConfig, SimpleBalance};
//! use hwsim::MachineSpec;
//! use workloads::calibrate_machine;
//!
//! let cfg = ClusterConfig::paper_setup();
//! let cals: Vec<_> = cfg.nodes.iter().map(|s| calibrate_machine(s, 42)).collect();
//! let outcome = run_cluster(&mut SimpleBalance::new(), &cfg, &cals);
//! println!("total energy rate: {:.1} W", outcome.total_energy_rate_w());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscale;
pub mod obs;
pub mod policy;
pub mod profile;
pub mod sim;
pub mod topology;

pub use autoscale::{
    Autoscaler, AutoscaleConfig, BrownoutLevel, FleetSample, RollingUpgrade, ScaleDecision,
};
pub use obs::{ObsConfig, ObsOutcome};
pub use policy::{
    ArrivalView, DistributionPolicy, MachineHeterogeneityAware, NodeView, SimpleBalance,
    WorkloadHeterogeneityAware,
};
pub use profile::{energy_affinity, mean_request_energy_j, AffinityRow};
pub use sim::{
    offered_cluster_rate, run_cluster, run_pipeline, AdmissionConfig, ClusterConfig,
    ClusterOutcome, CrashRecord, CtxEnergy, Imbalance, NodeOutcome, RecoveryConfig, ScaleEvent,
    ScaleKind, ShedReason,
};
pub use topology::{generation_rank, Tier, Topology};
