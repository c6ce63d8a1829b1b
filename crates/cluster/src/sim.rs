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

use crate::autoscale::{Autoscaler, AutoscaleConfig, BrownoutLevel, FleetSample, ScaleDecision};
use crate::obs::{ObsConfig, ObsOutcome, ObsPlane};
use crate::policy::{ArrivalView, DistributionPolicy, NodeView};
use crate::topology::{generation_rank, Topology};
use analysis::stats::Summary;
use hwsim::{plan_node_faults, DutyCycle, FaultConfig, Machine, MachineSpec, NodeFaultWindow};
use ossim::{ContextId, Kernel, KernelConfig, Segment, SocketId};
use power_containers::{
    Approach, ConditioningPolicy, FacilityConfig, FacilityState, ManagerCheckpoint,
    PowerContainerFacility,
};
use simkern::{FxHashMap, SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use workloads::{
    AppEnv, Arrival, MachineCalibration, OpenLoopGen, RunStats, ServerApp, TrafficGen,
    TrafficShape, WorkloadKind,
};

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node machine specs, flat across tiers; within a tier, newer
    /// machines should come first (use [`Topology`] to build this).
    pub nodes: Vec<MachineSpec>,
    /// Tier membership: `tiers[t]` lists the flat node indices serving
    /// pipeline stage `t`. The tiers must partition `0..nodes.len()`.
    pub tiers: Vec<Vec<usize>>,
    /// Applications in the combined workload (equal load shares).
    pub apps: Vec<WorkloadKind>,
    /// Run length.
    pub duration: SimDuration,
    /// Root seed.
    pub seed: u64,
    /// Worker-pool size per core per app.
    pub workers_per_core: usize,
    /// Offered volume as a fraction of the maximum the *simple balance*
    /// policy can support (the paper's experiment runs at that maximum).
    pub volume: f64,
    /// Cluster-wide active-power cap, enforced through per-request
    /// duty-cycle conditioning of each node's proportional share
    /// ([`ConditioningPolicy::node_share`]). `None` disables capping.
    pub power_cap_w: Option<f64>,
    /// Dispatcher batching quantum: nodes advance and decisions are
    /// made once per tick.
    pub tick: SimDuration,
    /// Retain per-request energy totals in
    /// [`ClusterOutcome::energy_by_ctx`] (costs memory proportional to
    /// the request count; off by default).
    pub retain_request_energy: bool,
    /// Fault injection: machine-level faults (meters, counters, tags)
    /// are applied to every node with a node-specific seed; the
    /// node-level slowdown/blackout/crash rates drive a precomputed
    /// window plan the dispatcher must ride out.
    pub faults: FaultConfig,
    /// Request-recovery machinery (timeouts, retries, hedging,
    /// checkpoint cadence). `None` (the default) disables all of it.
    pub recovery: Option<RecoveryConfig>,
    /// Front-door admission control. `None` (the default) admits
    /// every arrival.
    pub admission: Option<AdmissionConfig>,
    /// Trace sink; dispatcher events land on track 3, node `n`'s
    /// fault windows and per-node facility events on track `10 + n`.
    /// Disabled by default.
    pub telemetry: telemetry::Telemetry,
    /// Self-calibrating model bank. When set, every node runs the
    /// `Recalibrated` approach with a per-regime [`ModelBank`]
    /// (keyed by machine generation × DVFS level × workload mix)
    /// instead of a single fixed `ChipShare` model; drift counters
    /// flow into [`ClusterOutcome::degrade`].
    ///
    /// [`ModelBank`]: power_containers::ModelBank
    pub model_bank: Option<power_containers::BankConfig>,
    /// Always-on observability plane: streaming sketches/rollups, the
    /// energy-SLO burn-rate monitor, and (opt-in) per-request energy
    /// provenance, delivered in [`ClusterOutcome::obs`]. `None` — the
    /// default — runs the engine byte-identically to before the plane
    /// existed.
    pub obs: Option<ObsConfig>,
    /// Kernel scheduling policy per node: entry `n % sched.len()` is
    /// used for node `n`, so a single entry applies fleet-wide and a
    /// longer list interleaves policies across nodes. An empty list
    /// (never produced by the constructors) also means round-robin.
    pub sched: Vec<ossim::SchedulerKind>,
    /// Non-stationary traffic shape (diurnal × flash crowds × sessions).
    /// `None` — the default — drives the legacy stationary
    /// [`OpenLoopGen`] byte-identically to before the traffic layer
    /// existed; `Some` swaps in a [`TrafficGen`] at the same mean
    /// per-app rates.
    pub traffic: Option<TrafficShape>,
    /// Elastic autoscaling (requires a single-tier cluster). `None` —
    /// the default — keeps the whole topology active for the entire
    /// run, byte-identically to the pre-elasticity engine.
    pub autoscale: Option<AutoscaleConfig>,
}

impl ClusterConfig {
    /// The paper's setup: SandyBridge + Woodcrest in a single tier,
    /// GAE-Vosao + RSA-crypto at the simple-balance maximum volume.
    pub fn paper_setup() -> ClusterConfig {
        ClusterConfig {
            nodes: vec![MachineSpec::sandybridge(), MachineSpec::woodcrest()],
            tiers: vec![vec![0, 1]],
            apps: vec![WorkloadKind::GaeVosao, WorkloadKind::RsaCrypto],
            duration: SimDuration::from_secs(10),
            seed: 42,
            workers_per_core: 4,
            volume: 1.0,
            power_cap_w: None,
            tick: SimDuration::from_millis(1),
            retain_request_energy: false,
            faults: FaultConfig::none(),
            recovery: None,
            admission: None,
            telemetry: telemetry::Telemetry::disabled(),
            model_bank: None,
            obs: None,
            sched: vec![ossim::SchedulerKind::RoundRobin],
            traffic: None,
            autoscale: None,
        }
    }

    /// A config for any [`Topology`], serving the paper's GAE-Vosao +
    /// RSA-crypto mix.
    pub fn sharded(topology: &Topology) -> ClusterConfig {
        ClusterConfig {
            nodes: topology.flat_specs(),
            tiers: topology.tier_indices(),
            ..ClusterConfig::paper_setup()
        }
    }

    /// The scheduling policy node `n` boots with (see
    /// [`ClusterConfig::sched`] for the cycling rule).
    pub fn sched_for(&self, node: usize) -> ossim::SchedulerKind {
        if self.sched.is_empty() {
            return ossim::SchedulerKind::RoundRobin;
        }
        self.sched[node % self.sched.len()].clone()
    }
}

/// Per-hop timeout, retry, hedging, and checkpoint-cadence knobs of the
/// dispatcher's request-recovery machinery.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// A hop's deadline is `hop_timeout_mult ×` its expected service
    /// seconds on the chosen node (floored by
    /// [`RecoveryConfig::min_timeout`]).
    pub hop_timeout_mult: f64,
    /// Deadline floor, so sub-millisecond services do not time out on
    /// ordinary queueing.
    pub min_timeout: SimDuration,
    /// Re-dispatch budget per hop; a request that exhausts it is shed
    /// with [`ShedReason::RetriesExhausted`] (or counted
    /// [`ClusterOutcome::lost_in_crash`] when a crash killed it).
    pub max_retries: u32,
    /// First-retry backoff; attempt `k` waits `2^(k-1) ×` this plus a
    /// seeded jitter below one base unit.
    pub backoff_base: SimDuration,
    /// Send a hedged duplicate to a second node once a hop has waited
    /// this long without reply. `None` disables hedging.
    pub hedge_after: Option<SimDuration>,
    /// Cadence of the per-node container-state checkpoint journal
    /// (only taken when crash faults are configured).
    pub checkpoint_every: SimDuration,
}

impl RecoveryConfig {
    /// Defaults tuned for the chaos sweep: generous per-hop deadlines,
    /// three retries, ~20 ms first backoff, hedging off.
    pub fn standard() -> RecoveryConfig {
        RecoveryConfig {
            hop_timeout_mult: 60.0,
            min_timeout: SimDuration::from_millis(250),
            max_retries: 3,
            backoff_base: SimDuration::from_millis(20),
            hedge_after: None,
            checkpoint_every: SimDuration::from_millis(50),
        }
    }
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig::standard()
    }
}

/// Front-door load-shedding thresholds.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Shed new arrivals while tier 0's summed outstanding-work
    /// estimate exceeds this many requests per tier-0 core.
    pub max_queue_per_core: f64,
    /// With a power cap configured, shed new arrivals while the
    /// fleet's instantaneous active power exceeds this fraction of the
    /// cap.
    pub power_headroom: f64,
}

impl AdmissionConfig {
    /// Defaults: eight queued requests per core, 97 % of the cap.
    pub fn standard() -> AdmissionConfig {
        AdmissionConfig { max_queue_per_core: 8.0, power_headroom: 0.97 }
    }
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig::standard()
    }
}

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

    /// Index into [`ClusterOutcome::shed`].
    pub fn index(self) -> usize {
        match self {
            ShedReason::NoHealthyNode => 0,
            ShedReason::QueueDepth => 1,
            ShedReason::PowerHeadroom => 2,
            ShedReason::RetriesExhausted => 3,
            ShedReason::BrownoutOptional => 4,
        }
    }

    /// The pc-telemetry counter this reason increments.
    fn counter(self) -> &'static str {
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

/// Elasticity state of one node, orthogonal to [`Lifecycle`] (which
/// keeps tracking crash/restart health): a node's kernel only runs
/// while `Active` or `Draining`; `Standby` and `Provisioning` hold it
/// frozen and out of every routing view.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ScaleState {
    /// In the routing views, serving load.
    Active,
    /// Frozen, out of the views, available to provision.
    Standby,
    /// Bought but not yet landed: boot latency until `ready`, then the
    /// node rebuilds, restores its journal and starts warming up.
    Provisioning { decided_at: SimTime, ready: SimTime, kind: ScaleKind },
    /// Out of the views, finishing its outstanding work; force-retired
    /// at `deadline` if stragglers remain.
    Draining { decided_at: SimTime, deadline: SimTime, kind: ScaleKind },
}

/// The dispatcher's trace track.
pub(crate) const DISPATCHER_TRACK: u32 = 3;

/// Health-check period of the dispatcher's degraded-node detector.
const HEALTH_CHECK_EVERY: SimDuration = SimDuration::from_millis(100);
/// Initial breaker-open duration when a node is detected degraded.
const PENALTY_BASE: SimDuration = SimDuration::from_millis(200);
/// Breaker-open ceiling under exponential backoff.
const PENALTY_MAX: SimDuration = SimDuration::from_millis(1600);
/// Checkpoint cadence when crash faults are on but no
/// [`RecoveryConfig`] overrides it.
const DEFAULT_CHECKPOINT_EVERY: SimDuration = SimDuration::from_millis(50);

/// Per-node circuit breaker. Closed admits; a detected stall trips it
/// Open for an exponentially backed-off window; once the window
/// passes it half-opens (admitting probes) and the next clean health
/// check closes it again.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    Closed,
    Open { until: SimTime },
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
struct Breaker {
    state: BreakerState,
    backoff: SimDuration,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker { state: BreakerState::Closed, backoff: PENALTY_BASE }
    }

    fn admits(&self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Open { until } => now >= until,
            _ => true,
        }
    }

    fn tick(&mut self, now: SimTime) {
        if let BreakerState::Open { until } = self.state {
            if now >= until {
                self.state = BreakerState::HalfOpen;
            }
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open { until: now + self.backoff };
        self.backoff = (self.backoff + self.backoff).min(PENALTY_MAX);
    }

    fn note_progress(&mut self) {
        self.state = BreakerState::Closed;
        self.backoff = PENALTY_BASE;
    }
}

/// Crash/restart state machine of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lifecycle {
    Healthy,
    /// The kernel is dead; nothing runs until `until`.
    Down { until: SimTime },
    /// Restarted, admitting a bounded probe load until `until`.
    WarmingUp { until: SimTime },
}

/// One incarnation of a node: the kernel with the facility hooked in,
/// the app worker pools, and the dispatcher's reply socket. A crash
/// restart or a scale-out landing replaces it wholesale; everything
/// that outlives an incarnation stays on [`Node`].
struct Runtime {
    kernel: Kernel,
    facility: Rc<RefCell<FacilityState>>,
    /// Per-app worker inboxes, with a round-robin cursor each.
    inboxes: Vec<(Vec<SocketId>, usize)>,
    /// Dispatcher-side endpoint of this node's completion channel; the
    /// worker pools respond here while still bound, so replies carry
    /// the request tag back across the node boundary (§3.4).
    reply_rx: SocketId,
}

impl Runtime {
    /// Boots incarnation `incarnation` of node `n` at `start`. The
    /// incarnation salts every seed; incarnation 0 reduces exactly to
    /// the legacy seed derivation, so crash-free runs are
    /// byte-identical to the pre-recovery engine. `stats` and `tele`
    /// are the node's, shared by all its incarnations.
    fn boot(
        bp: &Blueprint,
        n: usize,
        incarnation: u32,
        start: SimTime,
        stats: &Rc<RefCell<RunStats>>,
        tele: &telemetry::Telemetry,
    ) -> Runtime {
        let cfg = bp.cfg;
        let cal = &bp.cals[n];
        let spec = &cfg.nodes[n];
        let inc = incarnation as u64;
        // With a model bank the node runs the full recalibration loop
        // (meter alignment + per-regime refits); otherwise the legacy
        // fixed ChipShare model, byte-identical to pre-bank runs.
        let approach =
            if cfg.model_bank.is_some() { Approach::Recalibrated } else { Approach::ChipShare };
        let meter = (approach == Approach::Recalibrated).then(|| {
            if spec.meters.iter().any(|m| m.name == "on-chip") { "on-chip" } else { "wattsup" }
        });
        let recalibrate_every = if meter == Some("wattsup") { 2 } else { 16 };
        let model_bank = cfg.model_bank.clone().map(|mut bank| {
            // Keep the bank's per-slot refit cadence in lockstep with the
            // facility's per-meter cadence, as the workloads harness does.
            bank.recalibrate_every = recalibrate_every;
            bank
        });
        let facility = PowerContainerFacility::new(
            cal.model_for(approach),
            (approach == Approach::Recalibrated).then_some(&cal.set),
            spec,
            FacilityConfig {
                approach,
                meter,
                meter_idle_w: meter.map(|m| cal.meter_idle(m)).unwrap_or(0.0),
                align_every: if meter == Some("wattsup") { 4 } else { 16 },
                recalibrate_every,
                model_bank,
                // Records feed the §3.4 response tagging: each completed
                // request's cumulative energy flows back to the
                // dispatcher for comprehensive accounting.
                retain_records: true,
                // A cluster-wide cap decomposes into per-node shares
                // enforced by ordinary per-request conditioning.
                conditioning: cfg.power_cap_w.map(|cap| {
                    ConditioningPolicy::node_share(cap, spec.total_cores(), bp.total_cores)
                }),
                // The node's private sink, merged into the main one in
                // node order at each tick barrier. (Kernel-level tracing
                // stays off here: per-tick switch events across N nodes
                // would dwarf the facility signal.)
                telemetry: tele.clone(),
                ..FacilityConfig::default()
            },
        );
        let state = facility.state();
        let mut machine = Machine::new(
            spec.clone(),
            cfg.seed.wrapping_add(n as u64).wrapping_add(inc.wrapping_mul(0xA076_1D64_78BD_642F)),
        );
        if cfg.faults.is_active() {
            // Same fault profile on every node, decorrelated by seed.
            machine.set_fault_config(FaultConfig {
                seed: (cfg.faults.seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(inc.wrapping_mul(0xE703_7ED1_A0B4_28DB)),
                ..cfg.faults.clone()
            });
        }
        // Kernel-level tracing stays off in cluster nodes; only the
        // scheduling policy is taken from the cluster config.
        let kernel_config = KernelConfig { sched: cfg.sched_for(n), ..KernelConfig::default() };
        let mut kernel = Kernel::new(machine, kernel_config);
        // A restarted incarnation boots at the crash instant: the empty
        // kernel fast-forwards to `start` *before* the facility or any app
        // task exists, so no incarnation ever replays (or re-accrues energy
        // for) the interval it was dead. Incarnation 0 starts at zero and
        // this is a no-op.
        kernel.run_until(start);
        kernel.install_hooks(Box::new(facility));
        let (notify_tx, reply_rx) = kernel.new_socket_pair();
        let mut inboxes = Vec::new();
        for app in &bp.apps {
            let env = AppEnv {
                stats: Rc::clone(stats),
                workers: cfg.workers_per_core * spec.total_cores(),
                spec: spec.clone(),
                seed: cfg
                    .seed
                    .wrapping_add(1000 + n as u64)
                    .wrapping_add(inc.wrapping_mul(0x2545_F491_4F6C_DD1D)),
                notify: Some(notify_tx),
            };
            inboxes.push((app.setup(&mut kernel, &env), 0usize));
        }
        Runtime { kernel, facility: state, inboxes, reply_rx }
    }
}

/// One node across its whole life: the current incarnation's
/// [`Runtime`] plus everything the dispatcher keeps across crash
/// restarts and resizes.
struct Node {
    rt: Runtime,
    /// Flat node index.
    index: usize,
    stats: Rc<RefCell<RunStats>>,
    /// Expected service seconds of each outstanding request, by serial.
    /// Keyed through the deterministic [`FxHashMap`]; every reader that
    /// iterates it sorts first.
    outstanding: FxHashMap<u64, f64>,
    outstanding_std: f64,
    /// Mean service seconds across the offered mix on this node.
    mean_service: f64,
    /// Requests injected into this node (initial dispatches + hops +
    /// retries + hedges).
    injected: u64,
    /// Stage completions drained from this node.
    responses: u64,
    /// Which tier this node serves.
    tier: usize,
    /// This node's slowdown/blackout/crash windows, in start order.
    fault_windows: Vec<NodeFaultWindow>,
    next_window: usize,
    /// The window currently in force, if any.
    active_window: Option<NodeFaultWindow>,
    /// Dispatcher-side health state.
    breaker: Breaker,
    lifecycle: Lifecycle,
    /// Warm-up length applied after each restart.
    warmup: SimDuration,
    /// Set when `advance_to` hits a crash-window start; the engine
    /// rebuilds the node (journaling the loss) before anything else
    /// touches it.
    pending_crash: bool,
    /// Incarnations booted after the first (crash restarts and
    /// scale-out landings); salts the rebuilt kernel's seeds so
    /// incarnations draw decorrelated randomness.
    incarnation: u32,
    crashes: u32,
    /// Active energy of dead incarnations, Joules.
    carried_energy_j: f64,
    /// Machine-fault counts of dead incarnations.
    carried_fault_counts: [u64; hwsim::FaultKind::ALL.len()],
    carried_tags_lost: u64,
    carried_tags_corrupted: u64,
    /// Graceful-degradation counters of dead incarnations.
    carried_degrade: power_containers::DegradeStats,
    /// Attributed energy lost in crash loss windows, Joules.
    lost_energy_j: f64,
    /// In-flight requests killed by crashes (or forced drains) on this
    /// node.
    lost_requests: u64,
    /// Latest container-state journal entry.
    last_checkpoint: ManagerCheckpoint,
    next_checkpoint_at: SimTime,
    checkpoints: u64,
    last_health_check: SimTime,
    responses_at_check: u64,
    /// Elasticity state; always `Active` without [`ClusterConfig::autoscale`].
    scale: ScaleState,
    /// When the current active stretch began (`None` while frozen).
    active_since: Option<SimTime>,
    /// Seconds spent active (or draining) across every stretch; the
    /// idle-energy burden is `machine_idle_w × uptime_s`.
    uptime_s: f64,
    /// This node's private trace sink, shared only with this node's
    /// facility. The engine drains it into the main sink in node order
    /// at every tick barrier and folds its metrics registry in at the
    /// end. The per-node sinks define the trace contract: within a
    /// tick, node events appear grouped by node index ahead of the
    /// dispatcher's own, and a gauge that every node sets (the
    /// facility sets some on each PMU interrupt) ends the run holding
    /// the last node's value.
    tele: telemetry::Telemetry,
}

impl Node {
    /// Boots node `n` of tier `tier` for the start of the run:
    /// incarnation 0 at time zero, active unless autoscaling holds it
    /// in standby.
    fn boot(bp: &Blueprint, n: usize, tier: usize, active: bool) -> Node {
        let stats = Rc::new(RefCell::new(RunStats::new()));
        let tele = if bp.cfg.telemetry.enabled() {
            telemetry::Telemetry::recording()
        } else {
            telemetry::Telemetry::disabled()
        };
        let rt = Runtime::boot(bp, n, 0, SimTime::ZERO, &stats, &tele);
        Node {
            rt,
            index: n,
            stats,
            outstanding: FxHashMap::default(),
            outstanding_std: 0.0,
            mean_service: bp.service[n].iter().sum::<f64>() / bp.apps.len() as f64,
            injected: 0,
            responses: 0,
            tier,
            fault_windows: Vec::new(),
            next_window: 0,
            active_window: None,
            breaker: Breaker::new(),
            lifecycle: Lifecycle::Healthy,
            warmup: bp.cfg.faults.node_warmup_len,
            pending_crash: false,
            incarnation: 0,
            crashes: 0,
            carried_energy_j: 0.0,
            carried_fault_counts: [0; hwsim::FaultKind::ALL.len()],
            carried_tags_lost: 0,
            carried_tags_corrupted: 0,
            carried_degrade: power_containers::DegradeStats::default(),
            lost_energy_j: 0.0,
            lost_requests: 0,
            last_checkpoint: ManagerCheckpoint::empty(),
            next_checkpoint_at: bp.next_checkpoint(SimTime::ZERO),
            checkpoints: 0,
            last_health_check: SimTime::ZERO,
            responses_at_check: 0,
            scale: if active { ScaleState::Active } else { ScaleState::Standby },
            active_since: active.then_some(SimTime::ZERO),
            uptime_s: 0.0,
            tele,
        }
    }

    /// This node's trace track (fault windows, per-node markers):
    /// `10 + node index`.
    fn track(&self) -> u32 {
        10 + self.index as u32
    }

    /// Replaces the dead or frozen incarnation with a fresh one booted
    /// at `at`: carries its energy, fault, tag and degradation counters
    /// over, restores the container journal and re-journals it at once
    /// (so a back-to-back crash cannot lose the same window twice), and
    /// restarts the health probe at `now`. Returns the live containers
    /// the restore force-released.
    fn reincarnate(&mut self, bp: &Blueprint, at: SimTime, now: SimTime) -> u64 {
        let m = self.rt.kernel.machine();
        self.carried_energy_j += m.true_active_energy_j();
        for (tot, c) in self.carried_fault_counts.iter_mut().zip(m.fault_log().counts()) {
            *tot += c;
        }
        let ks = self.rt.kernel.stats();
        self.carried_tags_lost += ks.tags_lost;
        self.carried_tags_corrupted += ks.tags_corrupted;
        self.carried_degrade += self.rt.facility.borrow().degrade_stats();
        self.incarnation += 1;
        self.rt = Runtime::boot(bp, self.index, self.incarnation, at, &self.stats, &self.tele);
        let restored =
            self.rt.facility.borrow_mut().containers_mut().restore(&self.last_checkpoint, at);
        self.journal(at);
        self.next_checkpoint_at = bp.next_checkpoint(now);
        self.responses_at_check = self.responses;
        self.last_health_check = now;
        restored
    }

    /// Journals the container state at `at`.
    fn journal(&mut self, at: SimTime) {
        self.last_checkpoint = self.rt.facility.borrow().containers().checkpoint(at);
        self.checkpoints += 1;
    }

    /// Kills every outstanding request (a crash or a forced drain):
    /// returns their serials in order, empties the load estimate and
    /// books them lost.
    fn kill_outstanding(&mut self) -> Vec<u64> {
        let mut killed: Vec<u64> = self.outstanding.keys().copied().collect();
        killed.sort_unstable();
        self.outstanding.clear();
        self.outstanding_std = 0.0;
        self.lost_requests += killed.len() as u64;
        killed
    }

    /// Handles the crash window `w` that stopped this node's advance:
    /// books the loss window (attributed energy since the last
    /// checkpoint), kills the in-flight requests, reboots at the crash
    /// instant and holds the breaker open until the window ends.
    /// Returns the killed serials and the crash record.
    fn restart_after_crash(
        &mut self,
        bp: &Blueprint,
        w: NodeFaultWindow,
        now: SimTime,
    ) -> (Vec<u64>, CrashRecord) {
        let checkpoint_age = w.start.duration_since(self.last_checkpoint.taken_at);
        let lost_energy_j =
            (self.attributed_energy_j() - self.last_checkpoint.attributed_energy_j()).max(0.0);
        self.lost_energy_j += lost_energy_j;
        let killed = self.kill_outstanding();
        self.crashes += 1;
        let restored_containers = self.reincarnate(bp, w.start, now);
        self.breaker =
            Breaker { state: BreakerState::Open { until: w.end }, backoff: PENALTY_BASE };
        self.pending_crash = false;
        let record = CrashRecord {
            node: self.index,
            at: w.start,
            restarted_at: w.end,
            lost_energy_j,
            lost_requests: killed.len() as u64,
            restored_containers,
            checkpoint_age,
        };
        (killed, record)
    }

    /// Lands a provisioned node at `now`: the crash-restart path minus
    /// the loss window. Fault windows that opened while the node was
    /// frozen never happened for it; it warms up for `warmup`.
    fn land(&mut self, bp: &Blueprint, now: SimTime, warmup: SimDuration) {
        self.reincarnate(bp, now, now);
        while self.next_window < self.fault_windows.len()
            && self.fault_windows[self.next_window].start < now
        {
            self.next_window += 1;
        }
        self.active_window = None;
        self.breaker = Breaker::new();
        self.lifecycle = Lifecycle::WarmingUp { until: now + warmup };
        self.scale = ScaleState::Active;
        self.active_since = Some(now);
    }

    /// Freezes a draining node to standby at `now`, first killing its
    /// stragglers when the drain is `forced`. The final checkpoint is
    /// taken at the freeze instant, so the journaled loss is *exactly*
    /// zero (attribution accrues into the same totals the checkpoint
    /// snapshots — unlike a crash, which loses everything since the
    /// last periodic journal entry); a forced drain's killed requests
    /// keep their partial work attributed, so it loses requests but not
    /// energy. Returns the killed serials and the journaled loss.
    fn retire(&mut self, now: SimTime, forced: bool) -> (Vec<u64>, f64) {
        let killed = if forced { self.kill_outstanding() } else { Vec::new() };
        if self.active_window.take().is_some() {
            self.tele.end_span(now, self.track());
        }
        self.journal(now);
        self.next_checkpoint_at = SimTime::MAX;
        // The live totals and the checkpoint sum the same per-container
        // energies in different association orders, so a clean drain
        // can read a few ULPs apart; below a nanojoule the checkpoint IS
        // the state (a real crash loss window is joules).
        let raw = self.attributed_energy_j() - self.last_checkpoint.attributed_energy_j();
        let lost_energy_j = if raw < 1e-9 { 0.0 } else { raw };
        self.close_uptime(now);
        self.lifecycle = Lifecycle::Healthy;
        self.breaker = Breaker::new();
        self.scale = ScaleState::Standby;
        (killed, lost_energy_j)
    }

    /// Ends the current active stretch (if any) at `now`.
    fn close_uptime(&mut self, now: SimTime) {
        if let Some(s) = self.active_since.take() {
            self.uptime_s += now.duration_since(s).as_secs_f64();
        }
    }

    /// `true` when the autoscaler may drain this node: active, healthy
    /// and not mid-crash.
    fn drainable(&self) -> bool {
        self.scale == ScaleState::Active
            && self.lifecycle == Lifecycle::Healthy
            && !self.pending_crash
    }

    /// Removes `serial` from the outstanding estimate.
    fn settle(&mut self, serial: u64) {
        if let Some(secs) = self.outstanding.remove(&serial) {
            self.outstanding_std -= secs / self.mean_service;
        }
        self.responses += 1;
    }

    /// Injects one stage of `fl` into this node as wire serial `serial`
    /// (expected service `secs`), carrying `fl.wire` as the context tag:
    /// the true identity at dispatch, whatever tag the previous stage's
    /// reply carried at a hop.
    fn inject(&mut self, fl: &InFlight, serial: u64, secs: f64, t: SimTime) {
        if let Some(ctx) = fl.wire {
            self.stats.borrow_mut().record_arrival(ctx, fl.label, t);
            self.rt.facility.borrow_mut().containers_mut().set_label(ctx, fl.label, t);
        }
        self.outstanding.insert(serial, secs);
        self.outstanding_std += secs / self.mean_service;
        self.injected += 1;
        let (inbox_list, cursor) = &mut self.rt.inboxes[fl.app];
        let inbox = inbox_list[*cursor % inbox_list.len()];
        *cursor += 1;
        let payload = (serial << 32) | fl.label as u64;
        self.rt.kernel.inject_message(inbox, 512, fl.wire, payload);
    }

    /// Advances the node's kernel to `t`, applying any fault-window
    /// transitions exactly at their boundaries. A slowdown caps every
    /// core's duty cycle at the window's DVFS fraction; a blackout
    /// freezes the node outright — its kernel does not advance (so no
    /// request completes and no message is processed) until the window
    /// passes, after which it works through the backlog. A crash stops
    /// the advance at the window start with [`Node::pending_crash`]
    /// set; the engine journals the loss and rebuilds the node before
    /// calling again.
    fn advance_to(&mut self, t: SimTime) {
        if self.pending_crash || !self.participates() {
            return;
        }
        loop {
            let boundary = match (&self.active_window, self.fault_windows.get(self.next_window))
            {
                (Some(w), _) => w.end,
                (None, Some(w)) => w.start,
                (None, None) => break,
            };
            if boundary > t {
                break;
            }
            match self.active_window.take() {
                Some(w) => {
                    match w.kind {
                        hwsim::FaultKind::NodeSlowdown => {
                            self.rt.kernel.run_until(boundary);
                            self.set_all_duty(DutyCycle::FULL);
                        }
                        hwsim::FaultKind::NodeCrash => {
                            // The rebuilt kernel comes back here and
                            // warms up before taking full load.
                            self.lifecycle =
                                Lifecycle::WarmingUp { until: w.end + self.warmup };
                            self.breaker.state = BreakerState::HalfOpen;
                        }
                        // A blackout held the kernel frozen; the
                        // run_until below (or the next call) replays
                        // the backlog.
                        _ => {}
                    }
                    self.tele.end_span(w.end, self.track());
                }
                None => {
                    let w = self.fault_windows[self.next_window];
                    self.next_window += 1;
                    self.rt.kernel.run_until(w.start);
                    match w.kind {
                        hwsim::FaultKind::NodeSlowdown => {
                            self.set_all_duty(DutyCycle::at_most(w.factor));
                            self.tele.begin_span(
                                w.start,
                                "cluster",
                                "slowdown",
                                self.track(),
                                &[("factor", w.factor.into())],
                            );
                        }
                        hwsim::FaultKind::NodeCrash => {
                            self.tele.begin_span(w.start, "cluster", "crash", self.track(), &[]);
                            self.lifecycle = Lifecycle::Down { until: w.end };
                            self.pending_crash = true;
                            self.active_window = Some(w);
                            return;
                        }
                        _ => {
                            self.tele.begin_span(
                                w.start,
                                "cluster",
                                "blackout",
                                self.track(),
                                &[],
                            );
                        }
                    }
                    self.active_window = Some(w);
                }
            }
        }
        // Blackout and (post-rebuild) crash windows both hold the
        // kernel frozen until the window passes.
        let frozen = matches!(
            &self.active_window,
            Some(w) if w.kind != hwsim::FaultKind::NodeSlowdown
        );
        if !frozen {
            self.rt.kernel.run_until(t);
        }
    }

    fn set_all_duty(&mut self, duty: DutyCycle) {
        for c in 0..self.rt.kernel.machine().spec().total_cores() {
            self.rt.kernel.machine_mut().set_duty_cycle(hwsim::CoreId(c), duty);
        }
    }

    /// `true` when the dispatcher may send this node work: not down,
    /// not inside a blackout/crash window (a connection attempt would
    /// observably fail), breaker admitting, and — while warming up —
    /// below a one-request-per-core probe load.
    fn available(&self, now: SimTime) -> bool {
        if self.pending_crash || self.scale != ScaleState::Active {
            return false;
        }
        if let Some(w) = &self.active_window {
            if w.kind != hwsim::FaultKind::NodeSlowdown {
                return false;
            }
        }
        match self.lifecycle {
            Lifecycle::Down { .. } => false,
            Lifecycle::WarmingUp { .. } => {
                self.outstanding_std < self.rt.kernel.machine().spec().total_cores() as f64
                    && self.breaker.admits(now)
            }
            Lifecycle::Healthy => self.breaker.admits(now),
        }
    }

    /// Restart-aware timers: warm-up expiry and breaker half-opening.
    fn lifecycle_tick(&mut self, now: SimTime) {
        if let Lifecycle::WarmingUp { until } = self.lifecycle {
            if now >= until {
                self.lifecycle = Lifecycle::Healthy;
            }
        }
        self.breaker.tick(now);
    }

    /// Periodic liveness probe: outstanding work with no stage
    /// completions since the last check trips the breaker (open window
    /// doubles up to [`PENALTY_MAX`]); progress closes it. Returns
    /// `true` when a new degradation was detected.
    fn health_check(&mut self, now: SimTime) -> bool {
        if now.duration_since(self.last_health_check) < HEALTH_CHECK_EVERY {
            return false;
        }
        let down = matches!(self.lifecycle, Lifecycle::Down { .. });
        let stalled = !down
            && !self.outstanding.is_empty()
            && self.responses == self.responses_at_check;
        self.last_health_check = now;
        self.responses_at_check = self.responses;
        if stalled {
            self.breaker.trip(now);
            true
        } else {
            if !down {
                self.breaker.note_progress();
            }
            false
        }
    }

    /// `true` while the node's kernel runs (active or draining); a
    /// frozen standby/provisioning node neither advances nor accrues.
    fn participates(&self) -> bool {
        matches!(self.scale, ScaleState::Active | ScaleState::Draining { .. })
    }

    /// Graceful-degradation counters across every incarnation, so the
    /// fleet totals stay cumulative through crash restarts.
    fn degrade_stats(&self) -> power_containers::DegradeStats {
        self.carried_degrade + self.rt.facility.borrow().degrade_stats()
    }

    /// Energy the facility attributed on this node (requests +
    /// background, CPU + I/O) — mirrors
    /// `workloads::RunOutcome::attributed_energy_j`. After a restart
    /// this reads the restored-checkpoint totals plus everything since.
    fn attributed_energy_j(&self) -> f64 {
        let f = self.rt.facility.borrow();
        let c = f.containers();
        c.total_energy_with_background_j()
            + c.total_request_io_energy_j()
            + c.background().io_energy_j()
    }

    /// Active energy drawn across every incarnation, Joules.
    fn active_energy_j(&self) -> f64 {
        self.carried_energy_j + self.rt.kernel.machine().true_active_energy_j()
    }

    /// This node's share of the run's outcome (`secs` is the run
    /// length).
    fn outcome(&self, secs: f64) -> NodeOutcome {
        let m = self.rt.kernel.machine();
        let cores = m.spec().total_cores();
        let util = (0..cores)
            .map(|c| m.counters(hwsim::CoreId(c)).core_utilization())
            .sum::<f64>()
            / cores as f64;
        let active_energy_j = self.active_energy_j();
        NodeOutcome {
            machine: m.spec().name,
            tier: self.tier,
            active_energy_j,
            attributed_energy_j: self.attributed_energy_j(),
            energy_rate_w: active_energy_j / secs,
            dispatched: self.injected,
            completions: self.responses as usize,
            in_flight: self.outstanding.len() as u64,
            lost_requests: self.lost_requests,
            lost_energy_j: self.lost_energy_j,
            crashes: self.crashes as u64,
            utilization: util,
            uptime_s: self.uptime_s,
            idle_energy_j: m.spec().truth.machine_idle_w() * self.uptime_s,
        }
    }
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
/// [`ClusterConfig::retain_request_energy`]).
#[derive(Debug, Clone, Copy)]
pub struct CtxEnergy {
    /// The request's true context id (as allocated at dispatch).
    pub ctx: u64,
    /// Energy attributed to that identity across the fleet, Joules.
    pub energy_j: f64,
    /// How many distinct nodes attributed energy to it.
    pub nodes: u32,
}

/// Results of one cluster run.
#[derive(Debug, Clone)]
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
    /// [`ClusterConfig::retain_request_energy`] is set).
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
    /// provenance). `None` unless [`ClusterConfig::obs`] was set.
    pub obs: Option<Box<ObsOutcome>>,
    /// One entry per completed resize transition, in completion order
    /// (empty without [`ClusterConfig::autoscale`]).
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
}

/// Service seconds of one request of `app`/`label` on `spec`.
fn service_secs(app: &dyn ServerApp, spec: &MachineSpec) -> f64 {
    let scale = spec.work_scale(&app.representative_profile());
    app.mean_request_cycles() * scale / (spec.freq_ghz * 1e9)
}

/// The per-app arrival rate giving an equal cycle split at the maximum
/// volume the simple-balance policy sustains: the bottleneck node —
/// across every tier, since each request visits each tier once — is the
/// slowest one receiving its tier's equal share of every stream.
fn per_app_rate(cfg: &ClusterConfig) -> f64 {
    let apps: Vec<Box<dyn ServerApp>> = cfg.apps.iter().map(|k| k.app()).collect();
    let mut worst = 0.0_f64;
    for tier in &cfg.tiers {
        let share = 1.0 / tier.len() as f64;
        for &ni in tier {
            let spec = &cfg.nodes[ni];
            let cores = spec.total_cores() as f64;
            let util_per_rate: f64 = apps
                .iter()
                .map(|a| share * service_secs(a.as_ref(), spec) / cores)
                .sum();
            worst = worst.max(util_per_rate);
        }
    }
    // Target ~88% utilization on the constrained node at volume 1.0.
    0.88 * cfg.volume / worst
}

/// Total request arrivals per simulated second the configuration offers
/// (all apps combined) — what experiments use to size run durations for
/// a target request count.
pub fn offered_cluster_rate(cfg: &ClusterConfig) -> f64 {
    per_app_rate(cfg) * cfg.apps.len() as f64
}

/// One live request's dispatcher-side state, keyed by a stable request
/// id. Every send (dispatch, hop, retry, hedge) uses a fresh wire
/// serial, so the dispatcher can tell a live attempt's reply from a
/// superseded one.
struct InFlight {
    app: usize,
    label: u32,
    arrived: SimTime,
    /// Tier currently serving the request.
    stage: usize,
    /// Tag to put on the wire for (re)sends of the current stage: the
    /// true identity at stage 0, the tag observed on the previous
    /// stage's reply afterwards (§3.4 — loss and corruption propagate).
    wire: Option<ContextId>,
    /// Node serving the primary attempt.
    node: usize,
    /// Wire serial of the primary attempt.
    serial: u64,
    /// Re-dispatches consumed on the current hop.
    attempt: u32,
    sent_at: SimTime,
    /// Primary attempt's deadline ([`SimTime::MAX`] with recovery off).
    deadline: SimTime,
    /// Outstanding hedge, as `(node, serial)`.
    hedge: Option<(usize, u64)>,
    /// Parked in the retry queue (no live attempt on any node).
    waiting: bool,
}

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

/// Incrementally maintained per-tier routing views: one dense
/// `Vec<NodeView>` per tier, updated in place whenever a node's
/// outstanding estimate changes, plus a static node → (tier, position)
/// map. Routing a request therefore reads the tier's ready-made slice
/// instead of materializing a tier-sized `Vec` per decision — which at
/// megafleet scale (10³ nodes × 10⁶ requests) was the dominant
/// dispatcher cost.
struct TierViews {
    views: Vec<Vec<NodeView>>,
    /// Flat node indices of each tier's *active* members, in config
    /// order (`views[t]` is parallel to `members[t]`). Without
    /// autoscaling every node is active and this is exactly
    /// `cfg.tiers`.
    members: Vec<Vec<usize>>,
    pos: Vec<(usize, usize)>,
    active: Vec<bool>,
}

impl TierViews {
    fn new(cfg: &ClusterConfig, active: Vec<bool>, nodes: &[Node]) -> TierViews {
        let mut tv = TierViews {
            views: vec![Vec::new(); cfg.tiers.len()],
            members: vec![Vec::new(); cfg.tiers.len()],
            pos: vec![(0usize, 0usize); cfg.nodes.len()],
            active,
        };
        for t in 0..cfg.tiers.len() {
            tv.rebuild_tier(t, cfg, nodes);
        }
        tv
    }

    /// Rebuilds one tier's member list and views from the activity
    /// mask, preserving config order (so the all-active mask reproduces
    /// the legacy views byte-identically).
    fn rebuild_tier(&mut self, t: usize, cfg: &ClusterConfig, nodes: &[Node]) {
        self.members[t] = cfg.tiers[t].iter().copied().filter(|&i| self.active[i]).collect();
        self.views[t] = self.members[t]
            .iter()
            .map(|&i| NodeView {
                outstanding: nodes[i].outstanding_std,
                cores: cfg.nodes[i].total_cores(),
                rank: generation_rank(&cfg.nodes[i]),
            })
            .collect();
        for (p, &i) in self.members[t].iter().enumerate() {
            self.pos[i] = (t, p);
        }
    }

    /// Adds or removes node `n` from its tier's routing membership.
    fn set_active(&mut self, n: usize, tier: usize, on: bool, cfg: &ClusterConfig, nodes: &[Node]) {
        if self.active[n] == on {
            return;
        }
        self.active[n] = on;
        self.rebuild_tier(tier, cfg, nodes);
    }

    /// Refreshes node `n`'s view after its outstanding estimate changed
    /// (no-op for a node outside the routing membership).
    #[inline]
    fn sync(&mut self, n: usize, outstanding_std: f64) {
        if !self.active[n] {
            return;
        }
        let (t, p) = self.pos[n];
        self.views[t][p].outstanding = outstanding_std;
    }

    #[inline]
    fn tier(&self, t: usize) -> &[NodeView] {
        &self.views[t]
    }

    #[inline]
    fn members(&self, t: usize) -> &[usize] {
        &self.members[t]
    }
}

/// The engine's arrival source: the legacy stationary Poisson generator,
/// or the diurnal/flash-crowd/session-structured [`TrafficGen`] when
/// [`ClusterConfig::traffic`] is set.
enum ArrivalGen {
    Open(OpenLoopGen),
    Traffic(Box<TrafficGen>),
}

impl ArrivalGen {
    fn next(&mut self, apps: &[Box<dyn ServerApp>]) -> Option<Arrival> {
        match self {
            ArrivalGen::Open(g) => g.next(apps),
            ArrivalGen::Traffic(g) => g.next(apps),
        }
    }
}

/// Wire serial → request id, as a slab indexed by the (sequential)
/// serial instead of a hash map: O(1) with no hashing or tombstone
/// churn on the dispatch/settle hot path. `u64::MAX` marks a serial
/// with no live request (stale).
struct SerialMap {
    slots: Vec<u64>,
}

impl SerialMap {
    const NONE: u64 = u64::MAX;

    fn new() -> SerialMap {
        SerialMap { slots: Vec::new() }
    }

    #[inline]
    fn insert(&mut self, serial: u64, req_id: u64) {
        let i = serial as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Self::NONE);
        }
        self.slots[i] = req_id;
    }

    #[inline]
    fn get(&self, serial: u64) -> Option<u64> {
        match self.slots.get(serial as usize) {
            Some(&r) if r != Self::NONE => Some(r),
            _ => None,
        }
    }

    #[inline]
    fn remove(&mut self, serial: u64) -> Option<u64> {
        match self.slots.get_mut(serial as usize) {
            Some(r) if *r != Self::NONE => Some(std::mem::replace(r, Self::NONE)),
            _ => None,
        }
    }
}

/// Looks up the app index for a request context in the sequential
/// context→app slab (contexts are allocated from 1, so slot `ctx-1`).
/// Out-of-range (corrupted or background) contexts miss, exactly as
/// the old hash-map lookup did.
#[inline]
fn app_of(ctx_app: &[u8], ctx: ossim::ContextId) -> Option<usize> {
    ctx_app
        .get((ctx.0 as usize).wrapping_sub(1))
        .map(|&a| a as usize)
}

/// Deadline of one hop with expected service time `secs`.
fn hop_deadline(rec: &RecoveryConfig, secs: f64) -> SimDuration {
    SimDuration::from_secs_f64(secs * rec.hop_timeout_mult).max(rec.min_timeout)
}

/// Seeded exponential backoff with jitter for retry `attempt` of
/// `req_id` (deterministic in the root seed, the request and the
/// attempt — independent of scheduling order).
fn retry_backoff(rec: &RecoveryConfig, seed: u64, req_id: u64, attempt: u32) -> SimDuration {
    let base = rec.backoff_base.as_nanos().max(1);
    let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(6));
    let mut rng = SimRng::new(
        seed ^ req_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((attempt as u64) << 48),
    );
    SimDuration::from_nanos(exp.saturating_add(rng.next_below(base)))
}

/// The available node of `members` other than `except` with the least
/// outstanding work, if any.
fn least_loaded(members: &[usize], nodes: &[Node], except: usize, t: SimTime) -> Option<usize> {
    members
        .iter()
        .copied()
        .filter(|&i| i != except && nodes[i].available(t))
        .min_by(|&a, &b| nodes[a].outstanding_std.total_cmp(&nodes[b].outstanding_std))
}

/// Drains every node's private event log into the main sink, in node
/// order — the barrier merge. Within a tick, node events therefore
/// appear grouped by node index, followed by the dispatcher's own
/// events for that tick.
fn merge_node_events(main: &telemetry::Telemetry, nodes: &[Node]) {
    if !main.enabled() {
        return;
    }
    for node in nodes {
        main.append_events(node.tele.drain_events());
    }
}

/// What every node incarnation boots from and the dispatcher prices
/// requests with: the run's config and calibrations, the app mix, and
/// constants derived from them once.
struct Blueprint<'a> {
    cfg: &'a ClusterConfig,
    cals: &'a [MachineCalibration],
    apps: Vec<Box<dyn ServerApp>>,
    total_cores: usize,
    /// Per-node service estimate per app, so dispatch does not clone
    /// machine specs on the hot path.
    service: Vec<Vec<f64>>,
    checkpoint_every: SimDuration,
    /// Crash faults are configured, so nodes journal checkpoints.
    crashes_possible: bool,
}

impl Blueprint<'_> {
    /// When a node that journaled (or rebooted) at `now` next
    /// checkpoints: never without crash faults.
    fn next_checkpoint(&self, now: SimTime) -> SimTime {
        if self.crashes_possible {
            now + self.checkpoint_every
        } else {
            SimTime::MAX
        }
    }
}

/// The dispatcher's live requests, keyed by a stable request id. Every
/// send (dispatch, hop, retry, hedge) uses a fresh wire serial, and
/// `serial_req` resolves a serial back to its request (a serial absent
/// there is stale). `inflight` iterations (timeouts, hedging) sort
/// their harvest, so the deterministic FxHashMap is safe here.
struct RequestBook {
    inflight: FxHashMap<u64, InFlight>,
    serial_req: SerialMap,
    /// Requests parked for re-dispatch, by (due time, request id).
    retry_queue: BTreeMap<(SimTime, u64), ()>,
    /// Context ids are allocated sequentially from 1, so ctx → app is a
    /// dense slab: `ctx_app[ctx - 1]`. A corrupted wire tag outside the
    /// allocated range simply misses, exactly as with a map.
    ctx_app: Vec<u8>,
    next_serial: u64,
    next_req: u64,
    next_ctx: u64,
}

impl RequestBook {
    fn new() -> RequestBook {
        RequestBook {
            inflight: FxHashMap::default(),
            serial_req: SerialMap::new(),
            retry_queue: BTreeMap::new(),
            ctx_app: Vec::new(),
            next_serial: 0,
            next_req: 0,
            next_ctx: 1,
        }
    }

    fn fresh_serial(&mut self) -> u64 {
        let serial = self.next_serial;
        self.next_serial += 1;
        debug_assert!(serial < u32::MAX as u64, "serial space exhausted");
        serial
    }

    /// Opens the book on admitted arrival `a`: a fresh request id and a
    /// fresh true context id, with no attempt sent yet.
    fn open(&mut self, a: &Arrival) -> u64 {
        let req_id = self.next_req;
        self.next_req += 1;
        let ctx = ContextId(self.next_ctx);
        self.next_ctx += 1;
        // `ctx` is exactly `ctx_app.len() + 1`, so a push keeps the
        // slab aligned with the sequential id space.
        debug_assert_eq!(self.next_ctx as usize, self.ctx_app.len() + 2);
        self.ctx_app.push(a.app as u8);
        self.inflight.insert(
            req_id,
            InFlight {
                app: a.app,
                label: a.label,
                arrived: a.at,
                stage: 0,
                wire: Some(ctx),
                node: 0,
                serial: 0,
                attempt: 0,
                sent_at: a.at,
                deadline: SimTime::MAX,
                hedge: None,
                waiting: false,
            },
        );
        req_id
    }
}

/// The run's counters and journals; each field lands in the
/// [`ClusterOutcome`] field of the same name.
#[derive(Default)]
struct Ledger {
    /// Per-app end-to-end response times, seconds.
    response_by_app: Vec<Summary>,
    dispatched: u64,
    completed: usize,
    rerouted: u64,
    dropped: u64,
    shed: [u64; ShedReason::ALL.len()],
    lost_in_crash: u64,
    retried: u64,
    hedged: u64,
    stale_replies: u64,
    crash_log: Vec<CrashRecord>,
    decisions: u64,
    degradations_detected: u64,
    scale_log: Vec<ScaleEvent>,
    scale_outs: u64,
    scale_ins: u64,
    upgrades: u64,
    brownout_engagements: u64,
    brownout_releases: u64,
    provisioning_energy_j: f64,
    peak_power_w: f64,
}

impl Ledger {
    /// Counts and traces one typed shed.
    fn shed(&mut self, tele: &telemetry::Telemetry, t: SimTime, reason: ShedReason) {
        self.shed[reason.index()] += 1;
        self.dropped += 1;
        tele.instant_on(
            t,
            "cluster",
            "shed",
            DISPATCHER_TRACK,
            &[("reason", (reason.index() as u64).into())],
        );
        tele.add_count("cluster.dropped", 1);
        tele.add_count(reason.counter(), 1);
    }
}

/// The elasticity controller and its rolling-upgrade schedule.
struct Elastic {
    scaler: Autoscaler,
    next_upgrade_at: Option<SimTime>,
    upgrades_left: usize,
}

/// The cluster engine: nodes and their tier views, the request book,
/// and the outcome ledger, advanced one dispatcher tick at a time on
/// the calling thread ([`Fleet::tick`] lists the phases).
struct Fleet<'a, 'p> {
    bp: Blueprint<'a>,
    /// One routing policy per tier.
    policies: &'a mut [&'p mut dyn DistributionPolicy],
    nodes: Vec<Node>,
    views: TierViews,
    /// Admission reads the *active* tier-0 core count, maintained
    /// across resizes (equal to the static total without autoscaling).
    tier0_active_cores: usize,
    book: RequestBook,
    ledger: Ledger,
    arrivals: ArrivalGen,
    /// The next arrival, not yet admitted.
    pending: Option<Arrival>,
    elastic: Option<Elastic>,
    /// The observability plane; its window samples are read at tick
    /// barriers in node order.
    obs: Option<ObsPlane>,
    /// Fleet active power sampled at this tick's barrier (0 unless a
    /// power cap with admission control or autoscaling reads it).
    fleet_power_w: f64,
    /// Reusable scratch: drained segments, due-request harvests and obs
    /// window samples live across ticks instead of being reallocated
    /// per node per tick.
    seg_buf: Vec<Segment>,
    due_buf: Vec<u64>,
    obs_samples: Vec<(f64, f64)>,
}

/// Checks the config against the calibrations and policies it runs
/// with.
fn validate(cfg: &ClusterConfig, cals: &[MachineCalibration], policies: usize) {
    assert_eq!(cals.len(), cfg.nodes.len(), "one calibration per node");
    assert_eq!(policies, cfg.tiers.len(), "one policy per tier");
    assert!(!cfg.tick.is_zero(), "dispatcher tick must be positive");
    // The tiers must partition the flat node list.
    let mut seen = vec![false; cfg.nodes.len()];
    for &i in cfg.tiers.iter().flatten() {
        assert!(i < cfg.nodes.len(), "tier references unknown node {i}");
        assert!(!seen[i], "node {i} appears in two tiers");
        seen[i] = true;
    }
    assert!(seen.iter().all(|&s| s), "every node must belong to a tier");
    assert!(cfg.tiers.iter().all(|t| !t.is_empty()), "tiers must be nonempty");
    if let Some(ac) = cfg.autoscale.as_ref() {
        assert_eq!(cfg.tiers.len(), 1, "autoscaling drives a single-tier cluster");
        assert!(ac.initial_nodes <= cfg.tiers[0].len(), "initial fleet larger than the topology");
    }
    assert!(cfg.apps.len() <= u8::MAX as usize, "app index must fit u8");
}

impl<'a, 'p> Fleet<'a, 'p> {
    fn new(
        policies: &'a mut [&'p mut dyn DistributionPolicy],
        cfg: &'a ClusterConfig,
        cals: &'a [MachineCalibration],
    ) -> Fleet<'a, 'p> {
        validate(cfg, cals, policies.len());
        let apps: Vec<Box<dyn ServerApp>> = cfg.apps.iter().map(|k| k.app()).collect();
        let service = cfg
            .nodes
            .iter()
            .map(|spec| apps.iter().map(|a| service_secs(a.as_ref(), spec)).collect())
            .collect();
        let bp = Blueprint {
            cfg,
            cals,
            total_cores: cfg.nodes.iter().map(MachineSpec::total_cores).sum(),
            apps,
            service,
            checkpoint_every: cfg
                .recovery
                .as_ref()
                .map(|r| r.checkpoint_every)
                .unwrap_or(DEFAULT_CHECKPOINT_EVERY),
            crashes_possible: cfg.faults.node_crash_hz > 0.0,
        };
        // Initially active set: everything without autoscaling; the
        // first `initial_nodes` flat indices with it. The topology sorts
        // newest generation first, so the initial fleet is the newest
        // machines and scale-out walks toward older standbys.
        let initially_active: Vec<bool> = match cfg.autoscale.as_ref() {
            Some(ac) => (0..cfg.nodes.len()).map(|n| n < ac.initial_nodes).collect(),
            None => vec![true; cfg.nodes.len()],
        };
        let mut tier_of = vec![0usize; cfg.nodes.len()];
        for (t, members) in cfg.tiers.iter().enumerate() {
            for &i in members {
                tier_of[i] = t;
            }
        }
        let mut nodes: Vec<Node> = (0..cfg.nodes.len())
            .map(|n| Node::boot(&bp, n, tier_of[n], initially_active[n]))
            .collect();
        for w in plan_node_faults(&cfg.faults, nodes.len(), cfg.duration) {
            nodes[w.node].fault_windows.push(w);
        }
        let tier0_active_cores = cfg.tiers[0]
            .iter()
            .filter(|&&i| initially_active[i])
            .map(|&i| cfg.nodes[i].total_cores())
            .sum();
        let rate = per_app_rate(cfg);
        let end = SimTime::ZERO + cfg.duration;
        // Both arrival sources offer the same mean per-app rates, so a
        // fixed-fleet and an autoscaled run of one config face identical
        // traffic (the traffic generator is itself deterministic in the
        // seed alone).
        let rates = vec![rate; bp.apps.len()];
        let mut arrivals = match cfg.traffic.as_ref() {
            Some(shape) => {
                ArrivalGen::Traffic(Box::new(TrafficGen::new(cfg.seed, &rates, end, shape)))
            }
            None => ArrivalGen::Open(OpenLoopGen::new(cfg.seed, &rates, end)),
        };
        let pending = arrivals.next(&bp.apps);
        let views = TierViews::new(cfg, initially_active, &nodes);
        let elastic = cfg.autoscale.map(|ac| Elastic {
            scaler: Autoscaler::new(ac),
            next_upgrade_at: ac.upgrade.as_ref().map(|up| SimTime::ZERO + up.start),
            upgrades_left: ac.upgrade.as_ref().map_or(0, |up| up.count),
        });
        let obs = cfg.obs.as_ref().map(|oc| {
            ObsPlane::new(
                oc,
                cfg.nodes.len(),
                cfg.apps.iter().map(|k| k.name()).collect(),
                cfg.power_cap_w,
                cfg.duration,
            )
        });
        let ledger =
            Ledger { response_by_app: vec![Summary::new(); bp.apps.len()], ..Ledger::default() };
        Fleet {
            bp,
            policies,
            nodes,
            views,
            tier0_active_cores,
            book: RequestBook::new(),
            ledger,
            arrivals,
            pending,
            elastic,
            obs,
            fleet_power_w: 0.0,
            seg_buf: Vec::new(),
            due_buf: Vec::new(),
            obs_samples: Vec::new(),
        }
    }

    /// Runs the configured duration tick by tick, then settles and
    /// closes the books.
    fn run(mut self) -> ClusterOutcome {
        let cfg = self.bp.cfg;
        let end = SimTime::ZERO + cfg.duration;
        let mut t = SimTime::ZERO;
        loop {
            t = (t + cfg.tick).min(end);
            self.tick(t);
            if t >= end {
                break;
            }
        }
        self.settle(end);
        self.finish(end)
    }

    /// One dispatcher tick ending at the barrier `t`. The phases run in
    /// this order, each seeing the state the previous ones left:
    ///
    /// 1. [`advance`](Fleet::advance) every node to `t`, then merge the
    ///    per-node event logs;
    /// 2. with crash faults on, [`restart_crashed`](Fleet::restart_crashed)
    ///    nodes and [`journal_checkpoints`](Fleet::journal_checkpoints);
    /// 3. [`drain_replies`](Fleet::drain_replies), forwarding
    ///    mid-pipeline requests and completing the rest;
    /// 4. with recovery on, [`expire_timeouts`](Fleet::expire_timeouts)
    ///    and [`send_hedges`](Fleet::send_hedges);
    /// 5. [`check_health`](Fleet::check_health);
    /// 6. with recovery on, [`redispatch_retries`](Fleet::redispatch_retries);
    /// 7. [`sample_fleet_power`](Fleet::sample_fleet_power), then with
    ///    autoscaling on, elasticity:
    ///    [`land_provisioned`](Fleet::land_provisioned),
    ///    [`progress_drains`](Fleet::progress_drains),
    ///    [`start_upgrades`](Fleet::start_upgrades),
    ///    [`evaluate_scaler`](Fleet::evaluate_scaler);
    /// 8. [`admit_arrivals`](Fleet::admit_arrivals) due by `t` and
    ///    dispatch them into tier 0;
    /// 9. [`close_obs_window`](Fleet::close_obs_window) when one is due.
    fn tick(&mut self, t: SimTime) {
        let cfg = self.bp.cfg;
        self.advance(t);
        if self.bp.crashes_possible {
            self.restart_crashed(t);
            self.journal_checkpoints(t);
        }
        self.drain_replies(t, Self::on_reply);
        if let Some(rec) = cfg.recovery.as_ref() {
            self.expire_timeouts(t);
            if let Some(after) = rec.hedge_after {
                self.send_hedges(after, t);
            }
        }
        self.check_health(t);
        if cfg.recovery.is_some() {
            self.redispatch_retries(t);
        }
        self.sample_fleet_power();
        if let Some(ac) = self.elastic.as_ref().map(|el| *el.scaler.config()) {
            self.land_provisioned(&ac, t);
            self.progress_drains(t);
            self.start_upgrades(&ac, t);
            self.evaluate_scaler(&ac, t);
        }
        self.admit_arrivals(t);
        self.close_obs_window(t);
    }

    /// Advances every node to the tick boundary — once per tick, not
    /// once per arrival, the batching that keeps dispatcher work flat
    /// as the fleet grows — and merges their event logs. A node hitting
    /// a crash-window start stops there with `pending_crash` set.
    fn advance(&mut self, t: SimTime) {
        for node in &mut self.nodes {
            node.advance_to(t);
        }
        merge_node_events(&self.bp.cfg.telemetry, &self.nodes);
    }

    /// Crash processing: journals each crashed node's loss window,
    /// reboots it, restores its checkpoint, and requeues (or loses) the
    /// requests it killed.
    fn restart_crashed(&mut self, t: SimTime) {
        let cfg = self.bp.cfg;
        for n in 0..self.nodes.len() {
            let node = &mut self.nodes[n];
            if !node.pending_crash {
                continue;
            }
            let Some(w) = node.active_window else { continue };
            let (killed, record) = node.restart_after_crash(&self.bp, w, t);
            self.views.sync(n, 0.0);
            cfg.telemetry.instant_on(
                t,
                "cluster",
                "restore",
                self.nodes[n].track(),
                &[
                    ("restored", record.restored_containers.into()),
                    ("lost_j", record.lost_energy_j.into()),
                ],
            );
            cfg.telemetry.add_count("cluster.crashes", 1);
            self.ledger.crash_log.push(record);
            self.requeue_killed(killed, t);
        }
    }

    /// Checkpoint journal: periodically snapshots every live node's
    /// container state.
    fn journal_checkpoints(&mut self, t: SimTime) {
        for node in &mut self.nodes {
            if t < node.next_checkpoint_at
                || matches!(node.lifecycle, Lifecycle::Down { .. })
                || !node.participates()
            {
                continue;
            }
            node.journal(t);
            node.next_checkpoint_at = self.bp.next_checkpoint(t);
        }
    }

    /// Requeues requests killed on a node by a crash or a forced drain:
    /// a hedge copy dies silently, a primary promotes its hedge or
    /// retries, and a request out of budget is lost to the crash.
    fn requeue_killed(&mut self, killed: Vec<u64>, t: SimTime) {
        for serial in killed {
            let Some(req_id) = self.book.serial_req.remove(serial) else { continue };
            let Some(fl) = self.book.inflight.get_mut(&req_id) else { continue };
            if fl.serial != serial {
                if fl.hedge.map(|(_, s)| s) == Some(serial) {
                    fl.hedge = None;
                }
                continue;
            }
            if let Some((hn, hs)) = fl.hedge.take() {
                fl.node = hn;
                fl.serial = hs;
                continue;
            }
            self.retry_or_drop(req_id, None, t);
        }
    }

    /// Drains every node's reply socket in node order, handing each
    /// stage completion to `f` with the node that served it.
    fn drain_replies(&mut self, t: SimTime, mut f: impl FnMut(&mut Self, usize, Segment, SimTime)) {
        let mut segs = std::mem::take(&mut self.seg_buf);
        for n in 0..self.nodes.len() {
            let rx = self.nodes[n].rt.reply_rx;
            segs.clear();
            self.nodes[n].rt.kernel.drain_messages_into(rx, &mut segs);
            for seg in segs.drain(..) {
                f(self, n, seg, t);
            }
        }
        self.seg_buf = segs;
    }

    /// One stage completion from node `n`: forwards a mid-pipeline
    /// request to the next tier and completes one leaving the last.
    /// A reply from a superseded attempt is recognized by its stale
    /// serial and dropped (still settling the node's books).
    fn on_reply(&mut self, n: usize, seg: Segment, t: SimTime) {
        let serial = seg.payload >> 32;
        self.nodes[n].settle(serial);
        self.views.sync(n, self.nodes[n].outstanding_std);
        let Some(req_id) = self.book.serial_req.get(serial) else {
            self.ledger.stale_replies += 1;
            return;
        };
        self.book.serial_req.remove(serial);
        let Some(fl) = self.book.inflight.get_mut(&req_id) else { return };
        if fl.serial == serial {
            // Primary won; a hedge still out becomes stale.
            if let Some((_, hs)) = fl.hedge.take() {
                self.book.serial_req.remove(hs);
            }
        } else if fl.hedge.map(|(_, s)| s) == Some(serial) {
            // Hedge won; the primary's late reply becomes stale.
            self.book.serial_req.remove(fl.serial);
            fl.hedge = None;
        } else {
            self.ledger.stale_replies += 1;
            return;
        }
        fl.waiting = false;
        let next_stage = fl.stage + 1;
        if next_stage < self.bp.cfg.tiers.len() {
            self.forward(req_id, next_stage, seg.ctx, t);
        } else {
            let (app, arrived) = (fl.app, fl.arrived);
            self.note_completion(app, t.duration_since(arrived).as_secs_f64());
            self.book.inflight.remove(&req_id);
        }
    }

    /// Sends request `req_id` on to tier `stage`, carrying `wire`, the
    /// tag observed on the previous stage's reply: a lost tag stays
    /// lost, a corrupted one misattributes downstream stages. A dark
    /// tier retries or sheds the request.
    fn forward(&mut self, req_id: u64, stage: usize, wire: Option<ContextId>, t: SimTime) {
        let cfg = self.bp.cfg;
        cfg.telemetry.instant_on(
            t,
            "cluster",
            "hop",
            DISPATCHER_TRACK,
            &[("to_tier", (stage as u64).into())],
        );
        let fl = &self.book.inflight[&req_id];
        let req = ArrivalView { app: cfg.apps[fl.app], label: fl.label };
        let target = self.route(stage, req, t);
        let fl = self.book.inflight.get_mut(&req_id).expect("forwarded request is live");
        fl.stage = stage;
        fl.wire = wire;
        match target {
            Some(target) => {
                fl.attempt = 0;
                self.dispatch_attempt(req_id, target, t);
            }
            None => self.retry_or_drop(req_id, Some(ShedReason::NoHealthyNode), t),
        }
    }

    /// Books one request through the last tier.
    fn note_completion(&mut self, app: usize, latency_s: f64) {
        self.ledger.response_by_app[app].record(latency_s);
        if let Some(o) = self.obs.as_mut() {
            o.note_completion(app, latency_s);
        }
        self.ledger.completed += 1;
    }

    /// Chooses a node of tier `stage` for `req` through the tier's
    /// policy; an unavailable pick is steered to the least-loaded
    /// available node of the tier. `None` when every node of the tier
    /// is unavailable (the caller sheds or retries).
    fn route(&mut self, stage: usize, req: ArrivalView, t: SimTime) -> Option<usize> {
        let members = self.views.members(stage);
        if members.is_empty() {
            // A fully drained tier (possible only transiently under
            // autoscaling) routes nowhere.
            return None;
        }
        self.ledger.decisions += 1;
        let chosen = members[self.policies[stage].choose(req, self.views.tier(stage))];
        if self.nodes[chosen].available(t) {
            return Some(chosen);
        }
        let alt = least_loaded(members, &self.nodes, chosen, t)?;
        let tele = &self.bp.cfg.telemetry;
        tele.instant_on(
            t,
            "cluster",
            "reroute",
            DISPATCHER_TRACK,
            &[("from", (chosen as u64).into()), ("to", (alt as u64).into())],
        );
        tele.add_count("cluster.rerouted", 1);
        self.ledger.rerouted += 1;
        Some(alt)
    }

    /// Sends request `req_id`'s current stage to `target` as its
    /// primary attempt, under a fresh wire serial: arms the per-hop
    /// deadline and refreshes the node's routing view.
    fn dispatch_attempt(&mut self, req_id: u64, target: usize, t: SimTime) {
        let serial = self.book.fresh_serial();
        let fl = self.book.inflight.get_mut(&req_id).expect("dispatched request is live");
        let secs = self.bp.service[target][fl.app];
        fl.node = target;
        fl.serial = serial;
        fl.sent_at = t;
        fl.waiting = false;
        fl.deadline = match self.bp.cfg.recovery.as_ref() {
            Some(rec) => t + hop_deadline(rec, secs),
            None => SimTime::MAX,
        };
        self.book.serial_req.insert(serial, req_id);
        let node = &mut self.nodes[target];
        node.inject(fl, serial, secs, t);
        self.views.sync(target, node.outstanding_std);
    }

    /// Retries request `req_id` while its hop budget lasts; otherwise
    /// gives it up: shed for `reason`, or lost to a crash when `reason`
    /// is `None`.
    fn retry_or_drop(&mut self, req_id: u64, reason: Option<ShedReason>, t: SimTime) {
        let cfg = self.bp.cfg;
        match cfg.recovery.as_ref() {
            Some(rec) if self.book.inflight[&req_id].attempt < rec.max_retries => {
                let fl = self.book.inflight.get_mut(&req_id).expect("retried request is live");
                fl.attempt += 1;
                fl.waiting = true;
                self.ledger.retried += 1;
                let delay = retry_backoff(rec, cfg.seed, req_id, fl.attempt);
                self.book.retry_queue.insert((t + delay, req_id), ());
                cfg.telemetry.instant_on(
                    t,
                    "cluster",
                    "retry",
                    DISPATCHER_TRACK,
                    &[("attempt", (fl.attempt as u64).into())],
                );
                cfg.telemetry.add_count("cluster.retried", 1);
            }
            _ => {
                self.book.inflight.remove(&req_id);
                match reason {
                    Some(reason) => self.ledger.shed(&cfg.telemetry, t, reason),
                    None => {
                        self.ledger.dropped += 1;
                        self.ledger.lost_in_crash += 1;
                        cfg.telemetry.add_count("cluster.lost_in_crash", 1);
                    }
                }
            }
        }
    }

    /// The ids of live requests matching `due`, sorted (the map's order
    /// is not part of the contract), in the reused scratch buffer; the
    /// caller hands the buffer back to `due_buf` when done.
    fn harvest_due(&mut self, due: impl Fn(&InFlight) -> bool) -> Vec<u64> {
        let mut ids = std::mem::take(&mut self.due_buf);
        ids.clear();
        ids.extend(self.book.inflight.iter().filter(|(_, fl)| due(fl)).map(|(&id, _)| id));
        ids.sort_unstable();
        ids
    }

    /// Timeouts: a primary past its deadline invalidates its live
    /// serials (late replies become stale — the dedup guarantee) and
    /// retries or is shed.
    fn expire_timeouts(&mut self, t: SimTime) {
        let due = self.harvest_due(|fl| !fl.waiting && fl.deadline <= t);
        for &req_id in &due {
            let Some(fl) = self.book.inflight.get_mut(&req_id) else { continue };
            self.book.serial_req.remove(fl.serial);
            if let Some((_, hs)) = fl.hedge.take() {
                self.book.serial_req.remove(hs);
            }
            self.retry_or_drop(req_id, Some(ShedReason::RetriesExhausted), t);
        }
        self.due_buf = due;
    }

    /// Hedged sends: duplicates a hop that has waited `after` without
    /// reply onto the least-loaded other node of its tier; the first
    /// reply wins.
    fn send_hedges(&mut self, after: SimDuration, t: SimTime) {
        let cfg = self.bp.cfg;
        let due = self.harvest_due(|fl| {
            !fl.waiting
                && fl.hedge.is_none()
                && fl.deadline > t
                && t.duration_since(fl.sent_at) >= after
        });
        for &req_id in &due {
            let Some(fl) = self.book.inflight.get(&req_id) else { continue };
            let Some(alt) = least_loaded(self.views.members(fl.stage), &self.nodes, fl.node, t)
            else {
                continue;
            };
            let serial = self.book.fresh_serial();
            let fl = self.book.inflight.get_mut(&req_id).expect("hedged request is live");
            fl.hedge = Some((alt, serial));
            self.book.serial_req.insert(serial, req_id);
            let node = &mut self.nodes[alt];
            node.inject(fl, serial, self.bp.service[alt][fl.app], t);
            self.views.sync(alt, node.outstanding_std);
            self.ledger.hedged += 1;
            cfg.telemetry.instant_on(
                t,
                "cluster",
                "hedge",
                DISPATCHER_TRACK,
                &[("to", (alt as u64).into())],
            );
            cfg.telemetry.add_count("cluster.hedged", 1);
        }
        self.due_buf = due;
    }

    /// Health checks and lifecycle timers (frozen standby and
    /// provisioning nodes hold no work and skip both).
    fn check_health(&mut self, t: SimTime) {
        let cfg = self.bp.cfg;
        for (n, node) in self.nodes.iter_mut().enumerate() {
            if !node.participates() {
                continue;
            }
            node.lifecycle_tick(t);
            if node.health_check(t) {
                self.ledger.degradations_detected += 1;
                let open_ms = match node.breaker.state {
                    BreakerState::Open { until } => until.duration_since(t).as_secs_f64() * 1e3,
                    _ => 0.0,
                };
                cfg.telemetry.instant_on(
                    t,
                    "cluster",
                    "degraded",
                    DISPATCHER_TRACK,
                    &[("node", (n as u64).into()), ("penalty_ms", open_ms.into())],
                );
                cfg.telemetry.add_count("cluster.degradations", 1);
            }
        }
    }

    /// Re-dispatches requests whose retry backoff expired by `t`.
    fn redispatch_retries(&mut self, t: SimTime) {
        let cfg = self.bp.cfg;
        while let Some((&(at, req_id), _)) = self.book.retry_queue.first_key_value() {
            if at > t {
                break;
            }
            self.book.retry_queue.pop_first();
            let Some(fl) = self.book.inflight.get(&req_id) else { continue };
            if !fl.waiting {
                continue;
            }
            let (stage, req) = (fl.stage, ArrivalView { app: cfg.apps[fl.app], label: fl.label });
            match self.route(stage, req, t) {
                Some(target) => self.dispatch_attempt(req_id, target, t),
                None => self.retry_or_drop(req_id, Some(ShedReason::NoHealthyNode), t),
            }
        }
    }

    /// Samples the fleet's active power for the cap-aware phases. Only
    /// kernels that advance draw power: a frozen standby's machine
    /// still *reports* the instantaneous state it was built with
    /// (worker pools parked on cores), which would read as a
    /// permanently busy fleet.
    fn sample_fleet_power(&mut self) {
        let cfg = self.bp.cfg;
        self.fleet_power_w =
            if cfg.power_cap_w.is_some() && (cfg.admission.is_some() || self.elastic.is_some()) {
                self.nodes
                    .iter()
                    .filter(|nd| nd.participates())
                    .map(|nd| nd.rt.kernel.machine().true_active_power_watts())
                    .sum()
            } else {
                0.0
            };
        self.ledger.peak_power_w = self.ledger.peak_power_w.max(self.fleet_power_w);
    }

    /// Lands provisioned nodes whose boot latency expired: a fresh
    /// incarnation restores the retirement checkpoint and starts
    /// warming up, and the boot + warm-up idle draw is charged to the
    /// provisioning transition.
    fn land_provisioned(&mut self, ac: &AutoscaleConfig, t: SimTime) {
        let cfg = self.bp.cfg;
        for n in 0..self.nodes.len() {
            let ScaleState::Provisioning { decided_at, ready, kind } = self.nodes[n].scale else {
                continue;
            };
            if t < ready {
                continue;
            }
            self.nodes[n].land(&self.bp, t, ac.warmup);
            let spec = &cfg.nodes[n];
            let boot_j =
                spec.truth.machine_idle_w() * (ac.provision_delay + ac.warmup).as_secs_f64();
            self.ledger.provisioning_energy_j += boot_j;
            self.tier0_active_cores += spec.total_cores();
            self.views.set_active(n, self.nodes[n].tier, true, cfg, &self.nodes);
            self.ledger.scale_outs += 1;
            self.ledger.scale_log.push(ScaleEvent {
                node: n,
                kind,
                decided_at,
                completed_at: t,
                lost_energy_j: 0.0,
                lost_requests: 0,
                forced: false,
                provision_energy_j: boot_j,
            });
            cfg.telemetry.instant_on(
                t,
                "cluster",
                kind.name(),
                DISPATCHER_TRACK,
                &[("node", (n as u64).into()), ("boot_j", boot_j.into())],
            );
            cfg.telemetry.add_count("autoscale.scale_out", 1);
        }
    }

    /// Progresses draining nodes: one whose outstanding work emptied
    /// retires cleanly; one past its drain deadline force-kills its
    /// stragglers, which re-enter the retry machinery like crash
    /// victims, and retires anyway (see [`Node::retire`]).
    fn progress_drains(&mut self, t: SimTime) {
        let cfg = self.bp.cfg;
        for n in 0..self.nodes.len() {
            let node = &mut self.nodes[n];
            let ScaleState::Draining { decided_at, deadline, kind } = node.scale else {
                continue;
            };
            if node.pending_crash {
                // The crash machinery owns this node this tick; the
                // rebooted (emptied) node retires on a later tick.
                continue;
            }
            let forced = t >= deadline && !node.outstanding.is_empty();
            if !node.outstanding.is_empty() && !forced {
                continue;
            }
            let (killed, lost_energy_j) = node.retire(t, forced);
            let lost_requests = killed.len() as u64;
            self.requeue_killed(killed, t);
            self.ledger.scale_ins += 1;
            self.ledger.scale_log.push(ScaleEvent {
                node: n,
                kind,
                decided_at,
                completed_at: t,
                lost_energy_j,
                lost_requests,
                forced,
                provision_energy_j: 0.0,
            });
            cfg.telemetry.instant_on(
                t,
                "cluster",
                kind.name(),
                DISPATCHER_TRACK,
                &[
                    ("node", (n as u64).into()),
                    ("forced", (forced as u64).into()),
                    ("lost_j", lost_energy_j.into()),
                ],
            );
            cfg.telemetry.add_count("autoscale.scale_in", 1);
        }
    }

    /// Takes active node `n` out of the routing views and starts
    /// draining it.
    fn start_drain(&mut self, n: usize, kind: ScaleKind, ac: &AutoscaleConfig, t: SimTime) {
        let cfg = self.bp.cfg;
        self.nodes[n].scale =
            ScaleState::Draining { decided_at: t, deadline: t + ac.drain_deadline, kind };
        self.tier0_active_cores -= cfg.nodes[n].total_cores();
        self.views.set_active(n, self.nodes[n].tier, false, cfg, &self.nodes);
    }

    /// Starts provisioning standby node `n`.
    fn start_provision(&mut self, n: usize, kind: ScaleKind, ac: &AutoscaleConfig, t: SimTime) {
        self.nodes[n].scale =
            ScaleState::Provisioning { decided_at: t, ready: t + ac.provision_delay, kind };
    }

    /// Rolling generation upgrades: at each scheduled slot, drains the
    /// oldest active node (highest flat index — the topology sorts
    /// newest first) and provisions the newest standby, as one paired
    /// swap. A slot with no standby (elasticity bought them all) or no
    /// healthy victim holds its place and retries next tick rather than
    /// skipping the swap.
    fn start_upgrades(&mut self, ac: &AutoscaleConfig, t: SimTime) {
        let Some(up) = ac.upgrade else { return };
        let cfg = self.bp.cfg;
        while let Some(el) = self.elastic.as_mut() {
            let due = el.upgrades_left > 0 && el.next_upgrade_at.is_some_and(|at| t >= at);
            if !due {
                break;
            }
            let victim = (0..self.nodes.len()).rev().find(|&i| self.nodes[i].drainable());
            let fresh = (0..self.nodes.len()).find(|&i| self.nodes[i].scale == ScaleState::Standby);
            let (Some(victim), Some(fresh)) = (victim, fresh) else { break };
            el.next_upgrade_at = el.next_upgrade_at.map(|at| at + up.every);
            el.upgrades_left -= 1;
            self.start_drain(victim, ScaleKind::UpgradeIn, ac, t);
            self.start_provision(fresh, ScaleKind::UpgradeOut, ac, t);
            self.ledger.upgrades += 1;
            cfg.telemetry.instant_on(
                t,
                "cluster",
                "upgrade",
                DISPATCHER_TRACK,
                &[("out", (victim as u64).into()), ("in", (fresh as u64).into())],
            );
            cfg.telemetry.add_count("autoscale.upgrade", 1);
        }
    }

    /// What the controller sees at `t`: node counts by elasticity
    /// state, per-core outstanding work, and the power fraction of the
    /// cap.
    fn fleet_sample(&self, t: SimTime) -> FleetSample {
        let (mut active, mut landing, mut draining, mut standby) = (0, 0, 0, 0);
        let mut out_std = 0.0f64;
        for node in &self.nodes {
            match node.scale {
                ScaleState::Active => {
                    active += 1;
                    out_std += node.outstanding_std;
                    if matches!(node.lifecycle, Lifecycle::WarmingUp { .. }) {
                        landing += 1;
                    }
                }
                ScaleState::Provisioning { .. } => landing += 1,
                ScaleState::Draining { .. } => draining += 1,
                ScaleState::Standby => standby += 1,
            }
        }
        FleetSample {
            now: t,
            active,
            landing,
            draining,
            standby,
            util: if self.tier0_active_cores > 0 {
                out_std / self.tier0_active_cores as f64
            } else {
                f64::INFINITY
            },
            power_frac: self.bp.cfg.power_cap_w.map_or(0.0, |cap| self.fleet_power_w / cap),
        }
    }

    /// One controller evaluation when due: moves the brownout ladder
    /// and starts the resize the controller decided.
    fn evaluate_scaler(&mut self, ac: &AutoscaleConfig, t: SimTime) {
        let cfg = self.bp.cfg;
        if !self.elastic.as_ref().is_some_and(|el| el.scaler.due(t)) {
            return;
        }
        let sample = self.fleet_sample(t);
        let Some(el) = self.elastic.as_mut() else { return };
        let prev_level = el.scaler.level();
        let (decision, level) = el.scaler.decide(&sample);
        if level != prev_level {
            if level > prev_level {
                self.ledger.brownout_engagements += 1;
                cfg.telemetry.add_count("autoscale.brownout.engage", 1);
            } else {
                self.ledger.brownout_releases += 1;
                cfg.telemetry.add_count("autoscale.brownout.release", 1);
            }
            cfg.telemetry.instant_on(
                t,
                "cluster",
                "brownout",
                DISPATCHER_TRACK,
                &[("level", (level.index() as u64).into())],
            );
        }
        // DVFS clamp: re-asserted on every active node each evaluation
        // while the top rung holds (covering nodes that landed since),
        // restored to full duty on release. A slowdown fault window in
        // force is overridden until its own end boundary; the chaos
        // rungs tolerate that interplay.
        if level == BrownoutLevel::DvfsClamp {
            for node in self.nodes.iter_mut().filter(|nd| nd.scale == ScaleState::Active) {
                node.set_all_duty(DutyCycle::at_most(ac.brownout.dvfs_clamp));
            }
        } else if prev_level == BrownoutLevel::DvfsClamp {
            for node in self.nodes.iter_mut().filter(|nd| nd.participates()) {
                node.set_all_duty(DutyCycle::FULL);
            }
        }
        match decision {
            ScaleDecision::Out(k) => {
                let mut started = 0usize;
                for n in 0..self.nodes.len() {
                    if started == k {
                        break;
                    }
                    if self.nodes[n].scale != ScaleState::Standby {
                        continue;
                    }
                    self.start_provision(n, ScaleKind::Out, ac, t);
                    started += 1;
                    cfg.telemetry.instant_on(
                        t,
                        "cluster",
                        "provision",
                        DISPATCHER_TRACK,
                        &[("node", (n as u64).into())],
                    );
                }
            }
            ScaleDecision::In(k) => {
                let mut started = 0usize;
                for n in (0..self.nodes.len()).rev() {
                    if started == k {
                        break;
                    }
                    if !self.nodes[n].drainable() {
                        continue;
                    }
                    self.start_drain(n, ScaleKind::In, ac, t);
                    started += 1;
                    cfg.telemetry.instant_on(
                        t,
                        "cluster",
                        "drain",
                        DISPATCHER_TRACK,
                        &[("node", (n as u64).into())],
                    );
                }
            }
            ScaleDecision::Hold => {}
        }
    }

    /// Admission control and dispatch of every arrival due by `t` into
    /// tier 0. Brownout-aware: the ladder sheds optional sessions
    /// first, then tightens the queue bound.
    fn admit_arrivals(&mut self, t: SimTime) {
        let cfg = self.bp.cfg;
        let brownout = self.elastic.as_ref().map_or(BrownoutLevel::Normal, |el| el.scaler.level());
        let admission_scale = if brownout >= BrownoutLevel::TightenAdmission {
            cfg.autoscale.as_ref().map_or(1.0, |ac| ac.brownout.admission_tighten)
        } else {
            1.0
        };
        while let Some(a) = self.pending {
            if a.at > t {
                break;
            }
            self.pending = self.arrivals.next(&self.bp.apps);
            self.ledger.dispatched += 1;
            cfg.telemetry.add_count("cluster.dispatched", 1);
            if let Some(reason) = self.refusal(&a, brownout, admission_scale) {
                self.ledger.shed(&cfg.telemetry, a.at, reason);
                continue;
            }
            let req = ArrivalView { app: cfg.apps[a.app], label: a.label };
            let Some(target) = self.route(0, req, a.at) else {
                self.ledger.shed(&cfg.telemetry, a.at, ShedReason::NoHealthyNode);
                continue;
            };
            let req_id = self.book.open(&a);
            self.dispatch_attempt(req_id, target, a.at);
        }
    }

    /// Why the front door refuses arrival `a`, if it does: an optional
    /// session under brownout, tier-0 queue depth past the (possibly
    /// tightened) bound, or fleet power past the cap headroom.
    fn refusal(&self, a: &Arrival, brownout: BrownoutLevel, scale: f64) -> Option<ShedReason> {
        if brownout >= BrownoutLevel::ShedOptional && a.optional {
            return Some(ShedReason::BrownoutOptional);
        }
        let cfg = self.bp.cfg;
        let adm = cfg.admission.as_ref()?;
        let depth: f64 = self.views.members(0).iter().map(|&i| self.nodes[i].outstanding_std).sum();
        if depth > adm.max_queue_per_core * self.tier0_active_cores as f64 * scale {
            return Some(ShedReason::QueueDepth);
        }
        match cfg.power_cap_w {
            Some(cap) if self.fleet_power_w > adm.power_headroom * cap => {
                Some(ShedReason::PowerHeadroom)
            }
            _ => None,
        }
    }

    /// Observability window close: at the first tick at or past a
    /// window boundary, reads every node's cumulative energy in node
    /// order and feeds the rollups and burn-rate monitor. Only full
    /// windows close; a trailing partial window is dropped.
    fn close_obs_window(&mut self, t: SimTime) {
        let Some(o) = self.obs.as_mut() else { return };
        if !o.due(t) {
            return;
        }
        self.obs_samples.clear();
        self.obs_samples
            .extend(self.nodes.iter().map(|n| (n.active_energy_j(), n.attributed_energy_j())));
        let degrade: u64 = self.nodes.iter().map(|n| n.degrade_stats().drift_total()).sum();
        o.close_window(
            t,
            &self.obs_samples,
            self.ledger.completed as u64,
            self.ledger.dropped,
            degrade,
            &self.bp.cfg.telemetry,
        );
    }

    /// Final settle after the last tick: closes any fault window still
    /// open, replays frozen backlogs so energy accounting covers the
    /// whole run, and drains the last replies. Frozen standby and
    /// provisioning nodes stay frozen: their kernels hold the state
    /// journaled at retirement and accrue nothing.
    fn settle(&mut self, end: SimTime) {
        for node in &mut self.nodes {
            node.advance_to(end);
        }
        for node in self.nodes.iter_mut().filter(|nd| nd.participates()) {
            if node.active_window.take().is_some() {
                node.tele.end_span(end, node.track());
            }
            node.rt.kernel.run_until(end);
        }
        merge_node_events(&self.bp.cfg.telemetry, &self.nodes);
        self.drain_replies(end, Self::on_final_reply);
    }

    /// A reply drained after the last tick: completes a request leaving
    /// the last tier; a mid-pipeline one can no longer run its next
    /// stage and stays accounted as in flight.
    fn on_final_reply(&mut self, n: usize, seg: Segment, end: SimTime) {
        let serial = seg.payload >> 32;
        self.nodes[n].settle(serial);
        let Some(req_id) = self.book.serial_req.get(serial) else {
            self.ledger.stale_replies += 1;
            return;
        };
        let Some(fl) = self.book.inflight.get(&req_id) else { return };
        if fl.serial != serial && fl.hedge.map(|(_, s)| s) != Some(serial) {
            self.ledger.stale_replies += 1;
            return;
        }
        self.book.serial_req.remove(serial);
        if fl.stage + 1 < self.bp.cfg.tiers.len() {
            return;
        }
        let (app, arrived) = (fl.app, fl.arrived);
        self.note_completion(app, end.duration_since(arrived).as_secs_f64());
        if let Some(fl) = self.book.inflight.remove(&req_id) {
            self.book.serial_req.remove(fl.serial);
            if let Some((_, hs)) = fl.hedge {
                self.book.serial_req.remove(hs);
            }
        }
    }

    /// Closes the books: folds the per-node metrics into the main sink,
    /// reports to the experiment harness ledgers, and assembles the
    /// outcome.
    fn finish(mut self, end: SimTime) -> ClusterOutcome {
        let cfg = self.bp.cfg;
        // Fold each node's private metrics registry (facility counters,
        // gauges, histograms, span bookkeeping) into the main sink, in
        // node order.
        if cfg.telemetry.enabled() {
            for node in &self.nodes {
                cfg.telemetry.absorb(&node.tele);
            }
        }
        self.report_to_harness();
        // Nodes still active (or draining) at the end accrue uptime
        // through `end`; a fixed fleet therefore reads exactly the run
        // duration per node.
        for node in &mut self.nodes {
            node.close_uptime(end);
        }
        let secs = cfg.duration.as_secs_f64();
        let per_node: Vec<NodeOutcome> = self.nodes.iter().map(|n| n.outcome(secs)).collect();
        let idle_energy_j = per_node.iter().map(|n| n.idle_energy_j).sum();
        let (energies, energy_by_ctx) = self.attribute_energy();
        let mut fault_counts = [0u64; hwsim::FaultKind::ALL.len()];
        let (mut tags_lost, mut tags_corrupted, mut crashes, mut checkpoints) = (0, 0, 0u64, 0);
        for node in &self.nodes {
            let live = node.rt.kernel.machine().fault_log().counts();
            for (total, n) in fault_counts.iter_mut().zip(live) {
                *total += n;
            }
            for (total, n) in fault_counts.iter_mut().zip(node.carried_fault_counts) {
                *total += n;
            }
            let ks = node.rt.kernel.stats();
            tags_lost += ks.tags_lost + node.carried_tags_lost;
            tags_corrupted += ks.tags_corrupted + node.carried_tags_corrupted;
            crashes += node.crashes as u64;
            checkpoints += node.checkpoints;
        }
        if let Some(ix) =
            hwsim::FaultKind::ALL.iter().position(|k| *k == hwsim::FaultKind::NodeCrash)
        {
            fault_counts[ix] += crashes;
        }
        let provenance = self.provenance();
        let obs = self.obs.take().map(|o| Box::new(o.finish(provenance)));
        if let Some(o) = obs.as_ref() {
            workloads::note_obs(workloads::ObsDigest {
                alerts: o.report.alerts.len() as u64,
                p99_j_per_req: o
                    .report
                    .sketches
                    .get("energy_j_per_req/fleet")
                    .map(|s| s.quantile(0.99))
                    .unwrap_or(0.0),
            });
        }
        let l = self.ledger;
        ClusterOutcome {
            policy: self.policies[0].name(),
            per_node,
            response_by_app: cfg.apps.iter().copied().zip(l.response_by_app).collect(),
            energy_by_app_j: cfg.apps.iter().copied().zip(energies).collect(),
            energy_by_ctx,
            dispatched: l.dispatched,
            completed: l.completed,
            rerouted: l.rerouted,
            dropped: l.dropped,
            shed: l.shed,
            lost_in_crash: l.lost_in_crash,
            retried: l.retried,
            hedged: l.hedged,
            stale_replies: l.stale_replies,
            crashes,
            checkpoints,
            crash_log: l.crash_log,
            in_flight: self.book.inflight.len() as u64,
            decisions: l.decisions,
            degradations_detected: l.degradations_detected,
            tags_lost,
            tags_corrupted,
            fault_counts,
            obs,
            scale_log: l.scale_log,
            scale_outs: l.scale_outs,
            scale_ins: l.scale_ins,
            upgrades: l.upgrades,
            brownout_engagements: l.brownout_engagements,
            brownout_releases: l.brownout_releases,
            autoscale_evals: self.elastic.as_ref().map_or(0, |el| el.scaler.evals()),
            provisioning_energy_j: l.provisioning_energy_j,
            idle_energy_j,
            peak_power_w: l.peak_power_w,
        }
    }

    /// Reports the run's degradation decisions, offered requests and
    /// elasticity digest to the experiment harness ledgers.
    fn report_to_harness(&self) {
        let l = &self.ledger;
        let mut degrade = self
            .nodes
            .iter()
            .map(Node::degrade_stats)
            .fold(power_containers::DegradeStats::default(), |acc, d| acc + d);
        degrade.requests_retried += l.retried;
        degrade.requests_shed += l.dropped;
        workloads::note_degrade(degrade);
        workloads::note_requests(l.dispatched);
        workloads::note_autoscale(workloads::AutoscaleDigest {
            scale_outs: l.scale_outs,
            scale_ins: l.scale_ins,
            upgrades: l.upgrades,
            brownout_engagements: l.brownout_engagements,
            shed_optional: l.shed[ShedReason::BrownoutOptional.index()],
        });
    }

    /// The comprehensive per-app energy accounting, resolved through
    /// the dispatcher's ctx→app map over every node's container records
    /// and still-live containers (labels are app-local and may collide
    /// across apps). The energy per identity is exactly what the §3.4
    /// response tag carries back from each serving machine; records
    /// created under lost or corrupted identities simply fall out of
    /// the per-app sums. Also feeds the obs plane's energy-per-request
    /// sketches, and returns the per-request ledger when
    /// [`ClusterConfig::retain_request_energy`] asks for it.
    fn attribute_energy(&mut self) -> (Vec<f64>, Vec<CtxEnergy>) {
        let ctx_app = &self.book.ctx_app;
        let mut energies = vec![0.0f64; self.bp.apps.len()];
        // ctx → (energy, node count, app index) — the app rides along so
        // the obs feed below needs no second identity lookup per request.
        let mut by_ctx: FxHashMap<u64, (f64, u32, u32)> = FxHashMap::default();
        // The obs plane's energy-per-request sketches need the same
        // per-ctx assembly `retain_request_energy` builds; without either
        // consumer the per-ctx maps are skipped entirely.
        let want_ctx = self.bp.cfg.retain_request_energy || self.obs.is_some();
        if want_ctx {
            let records = |n: &Node| n.rt.facility.borrow().containers().records().len();
            by_ctx.reserve(self.nodes.iter().map(records).sum());
        }
        let mut seen_here: FxHashMap<u64, (f64, u32)> = FxHashMap::default();
        for node in &self.nodes {
            let facility = node.rt.facility.borrow();
            seen_here.clear();
            for r in facility.containers().records() {
                if let Some(app_idx) = app_of(ctx_app, r.ctx) {
                    energies[app_idx] += r.energy_j + r.io_energy_j;
                    if want_ctx {
                        seen_here.entry(r.ctx.0).or_insert((0.0, app_idx as u32)).0 +=
                            r.energy_j + r.io_energy_j;
                    }
                }
            }
            for (ctx, c) in facility.containers().iter_live() {
                if let Some(app_idx) = app_of(ctx_app, ctx) {
                    energies[app_idx] += c.total_energy_j();
                    if want_ctx {
                        seen_here.entry(ctx.0).or_insert((0.0, app_idx as u32)).0 +=
                            c.total_energy_j();
                    }
                }
            }
            for (&ctx, &(e, app_idx)) in seen_here.iter() {
                let entry = by_ctx.entry(ctx).or_insert((0.0, 0, app_idx));
                entry.0 += e;
                entry.1 += 1;
            }
        }
        if let Some(o) = self.obs.as_mut() {
            // Sketch observation is commutative (integer bucket adds), so
            // the map's iteration order is fine here — no sort needed.
            for (_, &(energy_j, _, app_idx)) in by_ctx.iter() {
                o.note_request_energy(Some(app_idx as usize), energy_j);
            }
        }
        let mut energy_by_ctx: Vec<CtxEnergy> = Vec::new();
        if self.bp.cfg.retain_request_energy {
            energy_by_ctx = by_ctx
                .into_iter()
                .map(|(ctx, (energy_j, nodes, _))| CtxEnergy { ctx, energy_j, nodes })
                .collect();
            energy_by_ctx.sort_by_key(|c| c.ctx);
        }
        (energies, energy_by_ctx)
    }

    /// Per-request energy provenance (empty unless the obs plane asks
    /// for it): every retained container record and still-live
    /// container becomes one node → incarnation → container leaf with
    /// cpu/throttled/io segments. A record's incarnation is the number
    /// of this node's crashes at or before its creation, so records
    /// restored from a crash journal keep the incarnation they accrued
    /// in.
    fn provenance(&self) -> Vec<telemetry::obs::ProvenanceEntry> {
        if !self.obs.as_ref().is_some_and(ObsPlane::wants_provenance) {
            return Vec::new();
        }
        let mut crash_times: Vec<Vec<SimTime>> = vec![Vec::new(); self.nodes.len()];
        for cr in &self.ledger.crash_log {
            crash_times[cr.node].push(cr.at);
        }
        let mut out = Vec::new();
        for (n, node) in self.nodes.iter().enumerate() {
            let f = node.rt.facility.borrow();
            let inc_of = |created: SimTime| {
                crash_times[n].iter().take_while(|&&ct| ct <= created).count() as u32
            };
            for r in f.containers().records() {
                out.push(telemetry::obs::ProvenanceEntry {
                    node: n as u32,
                    incarnation: inc_of(r.created_at),
                    ctx: r.ctx.0,
                    label: r.label.map(i64::from).unwrap_or(-1),
                    cpu_j: (r.energy_j - r.throttled_j).max(0.0),
                    throttled_j: r.throttled_j,
                    io_j: r.io_energy_j,
                });
            }
            for (ctx, c) in f.containers().iter_live() {
                out.push(telemetry::obs::ProvenanceEntry {
                    node: n as u32,
                    incarnation: node.crashes,
                    ctx: ctx.0,
                    label: c.label().map(i64::from).unwrap_or(-1),
                    cpu_j: (c.energy_j() - c.throttled_j()).max(0.0),
                    throttled_j: c.throttled_j(),
                    io_j: c.io_energy_j(),
                });
            }
        }
        out
    }
}
