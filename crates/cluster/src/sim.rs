//! The N-node serving simulation (paper §3.4, §4.4, scaled).
//!
//! Each node is a full machine + kernel + facility running the worker
//! pools of every application. Nodes are arranged into serving tiers
//! (web → app → db); a dispatcher drives a deterministic open-loop
//! arrival process ([`workloads::OpenLoopGen`]) and routes every request
//! through the pipeline according to the per-tier
//! [`DistributionPolicy`]. Request contexts propagate across node
//! boundaries in the socket-message tag, as in §3.4: a node's reply
//! carries the tag back out, and the dispatcher forwards the *observed*
//! tag to the next tier — so a tag lost or corrupted in transit degrades
//! attribution exactly as it would on real hardware, while request flow
//! itself stays intact via a serial number in the message payload.
//!
//! Dispatcher decisions are batched per tick: the engine advances every
//! node to the tick boundary once, drains stage completions, runs
//! health checks, and only then routes the tick's batch of arrivals
//! against incrementally maintained load views. Per-request dispatcher
//! work is therefore O(policy) — independent of node count — which is
//! what keeps throughput flat as the fleet grows.
//!
//! # Failure recovery
//!
//! Beyond the passive fault riding of the degraded-node detector, the
//! engine models full crash/restart cycles and active request recovery:
//!
//! * **Node lifecycle** — a [`hwsim::FaultKind::NodeCrash`] window
//!   kills the node's kernel outright (Down), then restarts it through
//!   a WarmingUp phase back to Healthy. The facility journals its
//!   container state to a periodic [`ManagerCheckpoint`]; on restart
//!   the journal is restored, so cumulative attribution survives the
//!   crash with an explicitly accounted loss window
//!   ([`NodeOutcome::lost_energy_j`], [`CrashRecord`]).
//! * **Request recovery** ([`RecoveryConfig`]) — per-hop timeouts with
//!   seeded exponential backoff + jitter, bounded retries keyed by a
//!   stable request id (each send uses a fresh wire serial, so a late
//!   reply from a superseded attempt is recognized as stale and can
//!   never double-complete a request), and optional hedged sends after
//!   a tail timeout.
//! * **Circuit breaker** — the flat health-check penalty is replaced by
//!   a per-node closed/open/half-open breaker with the same detection
//!   signal and backoff constants.
//! * **Admission control** ([`AdmissionConfig`]) — queue-depth and
//!   power-headroom load shedding at the dispatcher front door, with
//!   typed [`ShedReason`]s.
//!
//! All recovery knobs default to *off*: a configuration that does not
//! opt in behaves byte-identically to the pre-recovery engine.
//!
//! # Layout
//!
//! One module per owner: `config` (the settings and their check against
//! the calibrations), `node` (one node across its incarnations), `book`
//! (the dispatcher's request book and routing views), `fleet` (the
//! engine and its tick phases), `outcome` (what a run returns, and its
//! conservation check) and `serials` (the wire-serial index).
//!
//! [`ManagerCheckpoint`]: power_containers::ManagerCheckpoint

mod book;
mod config;
mod fleet;
mod node;
mod outcome;
mod serials;

pub use config::{offered_cluster_rate, AdmissionConfig, ClusterConfig, RecoveryConfig};
pub(crate) use fleet::DISPATCHER_TRACK;
pub use outcome::{
    ClusterOutcome, CrashRecord, CtxEnergy, Imbalance, NodeOutcome, ScaleEvent, ScaleKind,
    ShedReason,
};

use crate::policy::DistributionPolicy;
use fleet::Fleet;
use workloads::MachineCalibration;

/// Runs the cluster under a single `policy` (requires a single-tier
/// configuration — the paper's §4.4 shape).
///
/// `cals` supplies per-node calibrations (same order as `cfg.nodes`).
pub fn run_cluster(
    policy: &mut dyn DistributionPolicy,
    cfg: &ClusterConfig,
    cals: &[MachineCalibration],
) -> ClusterOutcome {
    assert_eq!(
        cfg.tiers.len(),
        1,
        "run_cluster drives a single-tier cluster; use run_pipeline for multi-stage"
    );
    Fleet::new(&mut [policy], cfg, cals).run()
}

/// Runs a multi-stage cluster, one policy per tier (`policies[t]`
/// routes stage `t`).
pub fn run_pipeline(
    policies: &mut [Box<dyn DistributionPolicy>],
    cfg: &ClusterConfig,
    cals: &[MachineCalibration],
) -> ClusterOutcome {
    let mut refs: Vec<&mut dyn DistributionPolicy> =
        policies.iter_mut().map(|p| p.as_mut() as &mut dyn DistributionPolicy).collect();
    Fleet::new(&mut refs, cfg, cals).run()
}
