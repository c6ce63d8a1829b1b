//! What a cluster run returns: the fleet-wide [`ClusterOutcome`], its
//! per-node and per-request breakdowns, and the typed crash, resize and
//! shed records it journals.

use crate::obs::ObsOutcome;
use analysis::stats::Summary;
use simkern::{SimDuration, SimTime};
use workloads::WorkloadKind;

/// Why the dispatcher gave up on (or refused) a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Every node of the target tier was unavailable (down, tripped
    /// breaker, or inside a blackout/crash window) and no retry budget
    /// remained.
    NoHealthyNode,
    /// Admission control: tier-0 queue depth above the configured
    /// bound.
    QueueDepth,
    /// Admission control: fleet active power above the configured
    /// fraction of the cap.
    PowerHeadroom,
    /// The per-hop retry budget ran out without a reply.
    RetriesExhausted,
    /// The brownout ladder shed an arrival whose session was marked
    /// optional ([`workloads::Arrival::optional`]).
    BrownoutOptional,
}

impl ShedReason {
    /// Every reason, in [`ClusterOutcome::shed`] index order.
    pub const ALL: [ShedReason; 5] = [
        ShedReason::NoHealthyNode,
        ShedReason::QueueDepth,
        ShedReason::PowerHeadroom,
        ShedReason::RetriesExhausted,
        ShedReason::BrownoutOptional,
    ];

    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::NoHealthyNode => "no-healthy-node",
            ShedReason::QueueDepth => "queue-depth",
            ShedReason::PowerHeadroom => "power-headroom",
            ShedReason::RetriesExhausted => "retries-exhausted",
            ShedReason::BrownoutOptional => "brownout-optional",
        }
    }

    /// Index into [`ClusterOutcome::shed`]: the declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The pc-telemetry counter this reason increments.
    pub(super) fn counter(self) -> &'static str {
        match self {
            ShedReason::NoHealthyNode => "cluster.shed.no-healthy-node",
            ShedReason::QueueDepth => "cluster.shed.queue-depth",
            ShedReason::PowerHeadroom => "cluster.shed.power-headroom",
            ShedReason::RetriesExhausted => "cluster.shed.retries-exhausted",
            ShedReason::BrownoutOptional => "cluster.shed.brownout-optional",
        }
    }
}

/// One node crash/restart cycle, as journaled by the engine.
#[derive(Debug, Clone)]
pub struct CrashRecord {
    /// Flat node index.
    pub node: usize,
    /// When the crash window started (the kernel died here).
    pub at: SimTime,
    /// When the node's kernel came back (warm-up starts here).
    pub restarted_at: SimTime,
    /// Attributed energy accumulated since the last checkpoint —
    /// irrecoverably lost with the crash (the loss window).
    pub lost_energy_j: f64,
    /// In-flight requests on the node when it died.
    pub lost_requests: u64,
    /// Live containers force-released from the restored checkpoint.
    pub restored_containers: u64,
    /// Age of the restored checkpoint at the moment of the crash.
    pub checkpoint_age: SimDuration,
}

/// Which elasticity transition a [`ScaleEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleKind {
    /// The controller provisioned a standby node.
    Out,
    /// The controller drained an active node to standby.
    In,
    /// The provision half of a rolling-upgrade pair.
    UpgradeOut,
    /// The drain half of a rolling-upgrade pair.
    UpgradeIn,
}

impl ScaleKind {
    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ScaleKind::Out => "scale-out",
            ScaleKind::In => "scale-in",
            ScaleKind::UpgradeOut => "upgrade-out",
            ScaleKind::UpgradeIn => "upgrade-in",
        }
    }
}

/// One completed fleet-resize transition, as journaled by the engine.
/// A scale-out completes when the provisioned node starts warming up; a
/// scale-in completes when the drained node freezes to standby.
#[derive(Debug, Clone)]
pub struct ScaleEvent {
    /// Flat node index.
    pub node: usize,
    /// Transition direction.
    pub kind: ScaleKind,
    /// When the controller decided the resize.
    pub decided_at: SimTime,
    /// When the transition completed (warm-up start / standby freeze).
    pub completed_at: SimTime,
    /// Attributed energy lost by the transition, Joules. A clean drain
    /// journals a final checkpoint at the freeze instant, so this is
    /// exactly `0.0` — unlike a crash loss window.
    pub lost_energy_j: f64,
    /// In-flight requests force-killed by a drain-deadline expiry
    /// (always 0 on a clean drain; the stragglers re-enter the retry
    /// machinery where budget remains).
    pub lost_requests: u64,
    /// `true` when the drain deadline expired before the node emptied.
    pub forced: bool,
    /// Warm-up energy charged to the provisioning container for this
    /// transition (idle draw over boot + warm-up), Joules.
    pub provision_energy_j: f64,
}

/// Per-node results of a cluster run.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Machine name.
    pub machine: &'static str,
    /// Which pipeline tier the node served.
    pub tier: usize,
    /// Active energy drawn over the run, Joules (every incarnation).
    pub active_energy_j: f64,
    /// Energy the node's facility attributed (requests + background,
    /// CPU + I/O), Joules — compare against `active_energy_j` for the
    /// per-node conservation invariant. After crashes this is conserved
    /// only modulo [`NodeOutcome::lost_energy_j`].
    pub attributed_energy_j: f64,
    /// Active energy usage rate, Watts (the paper's Fig. 14 metric).
    pub energy_rate_w: f64,
    /// Requests injected into this node (dispatches + pipeline hops +
    /// retries + hedges).
    pub dispatched: u64,
    /// Stage completions this node served.
    pub completions: usize,
    /// Requests still queued or running on this node at the end.
    pub in_flight: u64,
    /// In-flight requests killed by crashes of this node. The exact
    /// per-node identity is
    /// `dispatched == completions + in_flight + lost_requests`.
    pub lost_requests: u64,
    /// Attributed energy lost in this node's crash loss windows,
    /// Joules (work done since the last checkpoint).
    pub lost_energy_j: f64,
    /// Crash/restart cycles this node went through.
    pub crashes: u64,
    /// Mean utilization over the run (the final incarnation's counters
    /// after a crash).
    pub utilization: f64,
    /// Seconds this node spent active or draining. The full run
    /// duration without autoscaling; the sum of active stretches with
    /// it.
    pub uptime_s: f64,
    /// Idle-power burden over the active stretches, Joules
    /// (`machine_idle_w × uptime_s`) — what scale-in saves.
    pub idle_energy_j: f64,
}

/// Cumulative attributed energy of one request across every node it
/// touched (only populated with
/// [`ClusterConfig::retain_request_energy`](super::ClusterConfig::retain_request_energy)).
#[derive(Debug, Clone, Copy)]
pub struct CtxEnergy {
    /// The request's true context id (as allocated at dispatch).
    pub ctx: u64,
    /// Energy attributed to that identity across the fleet, Joules.
    pub energy_j: f64,
    /// How many distinct nodes attributed energy to it.
    pub nodes: u32,
}

/// Results of one cluster run. The default is the empty outcome the
/// engine counts a run into.
#[derive(Debug, Clone, Default)]
pub struct ClusterOutcome {
    /// The tier-0 policy that produced this outcome.
    pub policy: &'static str,
    /// Per-node breakdown (same order as the config).
    pub per_node: Vec<NodeOutcome>,
    /// End-to-end response-time summary per application, seconds.
    pub response_by_app: Vec<(WorkloadKind, Summary)>,
    /// Per-application attributed energy, Joules — the dispatcher's
    /// comprehensive accounting assembled from the per-request container
    /// records on every node, resolved through the true request identity
    /// (§3.4). Tag loss or corruption in transit makes energy fall out
    /// of this accounting, exactly as it would on real hardware.
    pub energy_by_app_j: Vec<(WorkloadKind, f64)>,
    /// Per-request attributed energy across nodes (empty unless
    /// [`retain_request_energy`](super::ClusterConfig::retain_request_energy)
    /// is set).
    pub energy_by_ctx: Vec<CtxEnergy>,
    /// Requests the load generator offered to the dispatcher.
    pub dispatched: u64,
    /// Requests that completed the full pipeline.
    pub completed: usize,
    /// Requests the dispatcher steered away from an unavailable node
    /// to a healthy one.
    pub rerouted: u64,
    /// Requests the dispatcher gave up on, for any reason: the exact
    /// identity is `dropped == shed.iter().sum() + lost_in_crash`, and
    /// the conservation invariant is
    /// `dispatched == completed + dropped + in_flight`.
    pub dropped: u64,
    /// Typed shed counts, indexed by [`ShedReason::index`].
    pub shed: [u64; ShedReason::ALL.len()],
    /// Requests killed by a node crash after their retry budget (if
    /// any) was exhausted.
    pub lost_in_crash: u64,
    /// Re-dispatch attempts after a hop timeout or a crash.
    pub retried: u64,
    /// Hedged duplicate sends.
    pub hedged: u64,
    /// Replies from superseded attempts, recognized by their stale
    /// wire serial and dropped without effect (the dedup guarantee).
    pub stale_replies: u64,
    /// Node crash/restart cycles across the fleet.
    pub crashes: u64,
    /// Container-state checkpoints journaled across the fleet.
    pub checkpoints: u64,
    /// One entry per crash/restart cycle, in processing order.
    pub crash_log: Vec<CrashRecord>,
    /// Requests still inside the pipeline when the run ended
    /// (including any waiting in the retry queue).
    pub in_flight: u64,
    /// Routing decisions the dispatcher made (dispatches + hops +
    /// retries).
    pub decisions: u64,
    /// Health-check degradation detections across the run.
    pub degradations_detected: u64,
    /// Context tags stripped in transit across all nodes.
    pub tags_lost: u64,
    /// Context tags corrupted in transit across all nodes.
    pub tags_corrupted: u64,
    /// Machine-level faults injected across all nodes, by kind (indexed
    /// like [`hwsim::FaultKind::ALL`]; node crashes land in the
    /// [`hwsim::FaultKind::NodeCrash`] slot).
    pub fault_counts: [u64; hwsim::FaultKind::ALL.len()],
    /// Observability-plane results (sketches, rollups, typed alerts,
    /// provenance). `None` unless [`ClusterConfig::obs`](super::ClusterConfig::obs) was set.
    pub obs: Option<Box<ObsOutcome>>,
    /// One entry per completed resize transition, in completion order
    /// (empty without [`ClusterConfig::autoscale`](super::ClusterConfig::autoscale)).
    pub scale_log: Vec<ScaleEvent>,
    /// Completed scale-outs (including upgrade provision halves).
    pub scale_outs: u64,
    /// Completed scale-ins (including upgrade drain halves).
    pub scale_ins: u64,
    /// Rolling-upgrade pairs started.
    pub upgrades: u64,
    /// Brownout-ladder climbs (one per level stepped up).
    pub brownout_engagements: u64,
    /// Brownout-ladder descents (one per level stepped down).
    pub brownout_releases: u64,
    /// Controller evaluations performed.
    pub autoscale_evals: u64,
    /// Warm-up energy charged to provisioning transitions, Joules.
    pub provisioning_energy_j: f64,
    /// Fleet idle-power burden (sum of per-node idle energies), Joules.
    pub idle_energy_j: f64,
    /// Highest fleet active power observed at any tick barrier, Watts
    /// (0 when no power cap / admission machinery sampled it).
    pub peak_power_w: f64,
}

impl ClusterOutcome {
    /// Combined active energy usage rate across nodes, Watts.
    pub fn total_energy_rate_w(&self) -> f64 {
        self.per_node.iter().map(|n| n.energy_rate_w).sum()
    }

    /// Total shed requests across every [`ShedReason`].
    pub fn total_shed(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Fleet active, attributed and crash-lost energy, Joules, each
    /// summed over [`ClusterOutcome::per_node`] in node order.
    pub fn energy_totals(&self) -> (f64, f64, f64) {
        let sum = |joules: fn(&NodeOutcome) -> f64| self.per_node.iter().map(joules).sum();
        (sum(|n| n.active_energy_j), sum(|n| n.attributed_energy_j), sum(|n| n.lost_energy_j))
    }

    /// Checks that the run's books balance, returning the first
    /// identity that does not. Requests balance exactly:
    ///
    /// * fleet-wide, `dispatched == completed + dropped + in_flight` and
    ///   `dropped == total_shed() + lost_in_crash` (a request lost to a
    ///   crash is already among the dropped);
    /// * per node, `dispatched == completions + in_flight + lost_requests`;
    /// * against the crash log: one record per crash, fleet-wide and per
    ///   node, and each node's lost requests are exactly those its crash
    ///   records and forced drains killed;
    /// * against the scale log: one event per completed scale-out and
    ///   scale-in, and a drain journals no energy loss and, unless
    ///   forced, kills no request.
    ///
    /// Energy balances modulo the journaled crash loss windows: the
    /// fleet's attributed plus lost energy is within `energy_tol` of its
    /// active energy, relative to the active energy.
    pub fn check_conservation(&self, energy_tol: f64) -> Result<(), Imbalance> {
        let fleet = |identity, lhs: u64, rhs: u64| Imbalance::check(identity, None, lhs, rhs);
        fleet(
            "dispatched == completed + dropped + in_flight",
            self.dispatched,
            self.completed as u64 + self.dropped + self.in_flight,
        )?;
        fleet(
            "dropped == total_shed + lost_in_crash",
            self.dropped,
            self.total_shed() + self.lost_in_crash,
        )?;
        fleet("crashes == crash records", self.crashes, self.crash_log.len() as u64)?;
        let outs = self
            .scale_log
            .iter()
            .filter(|e| matches!(e.kind, ScaleKind::Out | ScaleKind::UpgradeOut))
            .count() as u64;
        fleet("scale_outs == scale-out events", self.scale_outs, outs)?;
        fleet("scale_ins == scale-in events", self.scale_ins, self.scale_log.len() as u64 - outs)?;
        for (i, n) in self.per_node.iter().enumerate() {
            let node = |identity, lhs: u64, rhs: u64| Imbalance::check(identity, Some(i), lhs, rhs);
            node(
                "dispatched == completions + in_flight + lost_requests",
                n.dispatched,
                n.completions as u64 + n.in_flight + n.lost_requests,
            )?;
            let crashes = self.crash_log.iter().filter(|c| c.node == i);
            node("crashes == crash records", n.crashes, crashes.clone().count() as u64)?;
            let drains = self.scale_log.iter().filter(|e| e.node == i);
            let killed = crashes.map(|c| c.lost_requests).sum::<u64>()
                + drains.map(|e| e.lost_requests).sum::<u64>();
            node("lost_requests == killed by its crashes and drains", n.lost_requests, killed)?;
        }
        for e in &self.scale_log {
            if matches!(e.kind, ScaleKind::In | ScaleKind::UpgradeIn) {
                let node = Some(e.node);
                if e.lost_energy_j != 0.0 {
                    return Err(Imbalance {
                        identity: "a drain journals lost_energy_j == 0",
                        node,
                        lhs: e.lost_energy_j,
                        rhs: 0.0,
                    });
                }
                if !e.forced {
                    Imbalance::check("a clean drain kills no request", node, e.lost_requests, 0)?;
                }
            }
        }
        let (active, attributed, lost) = self.energy_totals();
        let error = (active - (attributed + lost)).abs() / active;
        // A NaN error (no active energy) fails too.
        if error.is_nan() || error > energy_tol {
            return Err(Imbalance {
                identity: "|active - (attributed + lost)| / active <= tolerance",
                node: None,
                lhs: error,
                rhs: energy_tol,
            });
        }
        Ok(())
    }
}

/// A conservation identity a finished run broke (see
/// [`ClusterOutcome::check_conservation`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Imbalance {
    /// The identity, as a relation between outcome fields.
    pub identity: &'static str,
    /// The node it was checked on; `None` for a fleet-wide identity.
    pub node: Option<usize>,
    /// Its left-hand side.
    pub lhs: f64,
    /// Its right-hand side.
    pub rhs: f64,
}

impl Imbalance {
    /// `Ok` when the counts `lhs` and `rhs` of `identity` agree.
    fn check(
        identity: &'static str,
        node: Option<usize>,
        lhs: u64,
        rhs: u64,
    ) -> Result<(), Imbalance> {
        if lhs == rhs {
            return Ok(());
        }
        Err(Imbalance { identity, node, lhs: lhs as f64, rhs: rhs as f64 })
    }
}

impl std::fmt::Display for Imbalance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(n) = self.node {
            write!(f, "node {n}: ")?;
        }
        write!(f, "conservation broken: {} fails ({} vs {})", self.identity, self.lhs, self.rhs)
    }
}
