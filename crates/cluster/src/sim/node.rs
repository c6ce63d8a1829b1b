//! One simulated node across its whole life: the circuit breaker,
//! crash/restart lifecycle and elasticity state the dispatcher tracks,
//! the [`Runtime`] of its current incarnation, and the [`Blueprint`]
//! every incarnation boots from.

use super::book::InFlight;
use super::{ClusterConfig, CrashRecord, NodeOutcome, ScaleKind};
use hwsim::{DutyCycle, FaultConfig, NodeFaultWindow};
use ossim::{Kernel, KernelConfig, SocketId};
use power_containers::{
    Approach, ConditioningPolicy, FacilityConfig, FacilityState, ManagerCheckpoint, RecordRetention,
};
use simkern::{FxHashMap, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{AppEnv, MachineCalibration, RunStats, ServerApp};

/// Elasticity state of one node, orthogonal to [`Lifecycle`] (which
/// keeps tracking crash/restart health): a node's kernel only runs
/// while `Active` or `Draining`; `Standby` and `Provisioning` hold it
/// frozen and out of every routing view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum ScaleState {
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

/// Health-check period of the dispatcher's degraded-node detector.
const HEALTH_CHECK_EVERY: SimDuration = SimDuration::from_millis(100);
/// Initial breaker-open duration when a node is detected degraded.
const PENALTY_BASE: SimDuration = SimDuration::from_millis(200);
/// Breaker-open ceiling under exponential backoff.
const PENALTY_MAX: SimDuration = SimDuration::from_millis(1600);

/// Per-node circuit breaker. Closed admits; a detected stall trips it
/// Open for an exponentially backed-off window; once the window
/// passes it half-opens (admitting probes) and the next clean health
/// check closes it again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum BreakerState {
    Closed,
    Open { until: SimTime },
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
pub(super) struct Breaker {
    pub(super) state: BreakerState,
    pub(super) backoff: SimDuration,
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
pub(super) enum Lifecycle {
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
pub(super) struct Runtime {
    pub(super) kernel: Kernel,
    pub(super) facility: Rc<RefCell<FacilityState>>,
    /// Per-app worker inboxes, with a round-robin cursor each.
    pub(super) inboxes: Vec<(Vec<SocketId>, usize)>,
    /// Dispatcher-side endpoint of this node's completion channel; the
    /// worker pools respond here while still bound, so replies carry
    /// the request tag back across the node boundary (§3.4).
    pub(super) reply_rx: SocketId,
}

impl Runtime {
    /// Boots incarnation `incarnation` of node `n` at `start`. The
    /// incarnation salts every seed; incarnation 0 reduces exactly to
    /// the legacy seed derivation, so crash-free runs are
    /// byte-identical to the pre-recovery engine. `tele` is the node's,
    /// shared by all its incarnations.
    pub(super) fn boot(
        bp: &Blueprint,
        n: usize,
        incarnation: u32,
        start: SimTime,
        tele: &telemetry::Telemetry,
    ) -> Runtime {
        let cfg = bp.cfg;
        let spec = &cfg.nodes[n];
        let inc = incarnation as u64;
        // With a model bank the node runs the full recalibration loop
        // (meter alignment + per-regime refits); otherwise the legacy
        // fixed ChipShare model, byte-identical to pre-bank runs.
        let approach =
            if cfg.model_bank.is_some() { Approach::Recalibrated } else { Approach::ChipShare };
        let facility = FacilityConfig {
            approach,
            model_bank: cfg.model_bank.clone(),
            // The log feeds the §3.4 response tagging: each completed
            // request's cumulative energy flows back to the dispatcher
            // for comprehensive accounting, which reads only its context
            // and joules. Energy provenance also reads labels, creation
            // times and throttled joules, so it keeps full records.
            retain_records: if cfg.obs.as_ref().is_some_and(|o| o.provenance) {
                RecordRetention::Full
            } else {
                RecordRetention::RequestEnergy
            },
            // A cluster-wide cap decomposes into per-node shares
            // enforced by ordinary per-request conditioning.
            conditioning: cfg.power_cap_w.map(|cap| {
                ConditioningPolicy::node_share(cap, spec.total_cores(), bp.total_cores)
            }),
            // The node's private sink, merged into the main one in node
            // order at each tick barrier. (Kernel-level tracing stays off
            // here: per-tick switch events across N nodes would dwarf the
            // facility signal.)
            telemetry: tele.clone(),
            ..FacilityConfig::default()
        };
        // Same fault profile on every node, decorrelated by seed.
        let faults = FaultConfig {
            seed: (cfg.faults.seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(inc.wrapping_mul(0xE703_7ED1_A0B4_28DB)),
            ..cfg.faults.clone()
        };
        let (mut kernel, facility) = workloads::node::boot(
            spec,
            &bp.cals[n],
            facility,
            KernelConfig { sched: cfg.sched.clone(), ..KernelConfig::default() },
            cfg.seed.wrapping_add(n as u64).wrapping_add(inc.wrapping_mul(0xA076_1D64_78BD_642F)),
            faults,
            start,
        );
        let (notify_tx, reply_rx) = kernel.new_socket_pair();
        // The apps' run statistics stay empty: the dispatcher times
        // requests itself, and pool workers skip completions whose
        // arrival was never recorded.
        let stats = Rc::new(RefCell::new(RunStats::new()));
        let mut inboxes = Vec::new();
        for app in &bp.apps {
            let env = AppEnv {
                stats: Rc::clone(&stats),
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
        Runtime { kernel, facility, inboxes, reply_rx }
    }
}

/// One node across its whole life: the current incarnation's
/// [`Runtime`] plus everything the dispatcher keeps across crash
/// restarts and resizes.
pub(super) struct Node {
    pub(super) rt: Runtime,
    /// Flat node index.
    pub(super) index: usize,
    /// Expected service seconds of each outstanding request, by serial.
    /// Keyed through the deterministic [`FxHashMap`]; every reader that
    /// iterates it sorts first.
    pub(super) outstanding: FxHashMap<u64, f64>,
    pub(super) outstanding_std: f64,
    /// Mean service seconds across the offered mix on this node.
    pub(super) mean_service: f64,
    /// Requests injected into this node (initial dispatches + hops +
    /// retries + hedges).
    pub(super) injected: u64,
    /// Stage completions drained from this node.
    pub(super) responses: u64,
    /// Which tier this node serves.
    pub(super) tier: usize,
    /// This node's slowdown/blackout/crash windows, in start order.
    pub(super) fault_windows: Vec<NodeFaultWindow>,
    pub(super) next_window: usize,
    /// The window currently in force, if any.
    pub(super) active_window: Option<NodeFaultWindow>,
    /// Dispatcher-side health state.
    pub(super) breaker: Breaker,
    pub(super) lifecycle: Lifecycle,
    /// Warm-up length applied after each restart.
    pub(super) warmup: SimDuration,
    /// Set when `advance_to` hits a crash-window start; the engine
    /// rebuilds the node (journaling the loss) before anything else
    /// touches it.
    pub(super) pending_crash: bool,
    /// Incarnations booted after the first (crash restarts and
    /// scale-out landings); salts the rebuilt kernel's seeds so
    /// incarnations draw decorrelated randomness.
    pub(super) incarnation: u32,
    pub(super) crashes: u32,
    /// Active energy of dead incarnations, Joules.
    pub(super) carried_energy_j: f64,
    /// Machine-fault counts of dead incarnations.
    pub(super) carried_fault_counts: [u64; hwsim::FaultKind::ALL.len()],
    pub(super) carried_tags_lost: u64,
    pub(super) carried_tags_corrupted: u64,
    /// Graceful-degradation counters of dead incarnations.
    pub(super) carried_degrade: power_containers::DegradeStats,
    /// Attributed energy lost in crash loss windows, Joules.
    pub(super) lost_energy_j: f64,
    /// In-flight requests killed by crashes (or forced drains) on this
    /// node.
    pub(super) lost_requests: u64,
    /// Latest container-state journal entry.
    pub(super) last_checkpoint: ManagerCheckpoint,
    pub(super) next_checkpoint_at: SimTime,
    pub(super) checkpoints: u64,
    pub(super) last_health_check: SimTime,
    pub(super) responses_at_check: u64,
    /// Elasticity state; always `Active` without [`ClusterConfig::autoscale`].
    pub(super) scale: ScaleState,
    /// When the current active stretch began (`None` while frozen).
    pub(super) active_since: Option<SimTime>,
    /// Seconds spent active (or draining) across every stretch; the
    /// idle-energy burden is `machine_idle_w × uptime_s`.
    pub(super) uptime_s: f64,
    /// This node's private trace sink, shared only with this node's
    /// facility. The engine drains it into the main sink in node order
    /// at every tick barrier and folds its metrics registry in at the
    /// end. The per-node sinks define the trace contract: within a
    /// tick, node events appear grouped by node index ahead of the
    /// dispatcher's own, and a gauge that every node sets (the
    /// facility sets some on each PMU interrupt) ends the run holding
    /// the last node's value.
    pub(super) tele: telemetry::Telemetry,
}

impl Node {
    /// Boots node `n` of tier `tier` for the start of the run:
    /// incarnation 0 at time zero, active unless autoscaling holds it
    /// in standby.
    pub(super) fn boot(bp: &Blueprint, n: usize, tier: usize, active: bool) -> Node {
        let tele = if bp.cfg.telemetry.enabled() {
            telemetry::Telemetry::recording()
        } else {
            telemetry::Telemetry::disabled()
        };
        let rt = Runtime::boot(bp, n, 0, SimTime::ZERO, &tele);
        Node {
            rt,
            index: n,
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
    pub(super) fn track(&self) -> u32 {
        10 + self.index as u32
    }

    /// Replaces the dead or frozen incarnation with a fresh one booted
    /// at `at`: carries its energy, fault, tag and degradation counters
    /// over, hands its record log to the new incarnation, restores the
    /// container journal and re-journals it at once (so a back-to-back
    /// crash cannot lose the same window twice), and restarts the health
    /// probe at `now`. Returns the live containers the restore
    /// force-released.
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
        // The journal was taken from this incarnation, and its log only
        // grows, so the log carries over by move and the restore cuts it
        // back to the journaled length.
        let log = self.rt.facility.borrow_mut().containers_mut().take_records();
        self.incarnation += 1;
        self.rt = Runtime::boot(bp, self.index, self.incarnation, at, &self.tele);
        let restored =
            self.rt.facility.borrow_mut().containers_mut().restore(&self.last_checkpoint, log, at);
        self.journal(at);
        self.next_checkpoint_at = bp.next_checkpoint(now);
        self.responses_at_check = self.responses;
        self.last_health_check = now;
        restored
    }

    /// Journals the container state at `at`.
    pub(super) fn journal(&mut self, at: SimTime) {
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
    pub(super) fn restart_after_crash(
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
    pub(super) fn land(&mut self, bp: &Blueprint, now: SimTime, warmup: SimDuration) {
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
    pub(super) fn retire(&mut self, now: SimTime, forced: bool) -> (Vec<u64>, f64) {
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
    pub(super) fn close_uptime(&mut self, now: SimTime) {
        if let Some(s) = self.active_since.take() {
            self.uptime_s += now.duration_since(s).as_secs_f64();
        }
    }

    /// `true` when the autoscaler may drain this node: active, healthy
    /// and not mid-crash.
    pub(super) fn drainable(&self) -> bool {
        self.scale == ScaleState::Active
            && self.lifecycle == Lifecycle::Healthy
            && !self.pending_crash
    }

    /// Removes `serial` from the outstanding estimate.
    pub(super) fn settle(&mut self, serial: u64) {
        if let Some(secs) = self.outstanding.remove(&serial) {
            self.outstanding_std -= secs / self.mean_service;
        }
        self.responses += 1;
    }

    /// Injects one stage of `fl` into this node as wire serial `serial`
    /// (expected service `secs`), carrying `fl.wire` as the context tag:
    /// the true identity at dispatch, whatever tag the previous stage's
    /// reply carried at a hop.
    pub(super) fn inject(&mut self, fl: &InFlight, serial: u64, secs: f64, t: SimTime) {
        if let Some(ctx) = fl.wire {
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
    pub(super) fn advance_to(&mut self, t: SimTime) {
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

    pub(super) fn set_all_duty(&mut self, duty: DutyCycle) {
        for c in 0..self.rt.kernel.machine().spec().total_cores() {
            self.rt.kernel.machine_mut().set_duty_cycle(hwsim::CoreId(c), duty);
        }
    }

    /// `true` when the dispatcher may send this node work: not down,
    /// not inside a blackout/crash window (a connection attempt would
    /// observably fail), breaker admitting, and — while warming up —
    /// below a one-request-per-core probe load.
    pub(super) fn available(&self, now: SimTime) -> bool {
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
    pub(super) fn lifecycle_tick(&mut self, now: SimTime) {
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
    pub(super) fn health_check(&mut self, now: SimTime) -> bool {
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
    pub(super) fn participates(&self) -> bool {
        matches!(self.scale, ScaleState::Active | ScaleState::Draining { .. })
    }

    /// Graceful-degradation counters across every incarnation, so the
    /// fleet totals stay cumulative through crash restarts.
    pub(super) fn degrade_stats(&self) -> power_containers::DegradeStats {
        self.carried_degrade + self.rt.facility.borrow().degrade_stats()
    }

    /// Energy the facility attributed on this node (requests +
    /// background, CPU + I/O) — mirrors
    /// `workloads::RunOutcome::attributed_energy_j`. After a restart
    /// this reads the restored-checkpoint totals plus everything since.
    pub(super) fn attributed_energy_j(&self) -> f64 {
        self.rt.facility.borrow().containers().attributed_energy_j()
    }

    /// Active energy drawn across every incarnation, Joules.
    pub(super) fn active_energy_j(&self) -> f64 {
        self.carried_energy_j + self.rt.kernel.machine().true_active_energy_j()
    }

    /// This node's share of the run's outcome (`secs` is the run
    /// length).
    pub(super) fn outcome(&self, secs: f64) -> NodeOutcome {
        let m = self.rt.kernel.machine();
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
            utilization: m.mean_utilization(),
            uptime_s: self.uptime_s,
            idle_energy_j: m.spec().truth.machine_idle_w() * self.uptime_s,
        }
    }
}

/// What every node incarnation boots from and the dispatcher prices
/// requests with: the run's config and calibrations, the app mix, and
/// constants derived from them once.
pub(super) struct Blueprint<'a> {
    pub(super) cfg: &'a ClusterConfig,
    pub(super) cals: &'a [MachineCalibration],
    pub(super) apps: Vec<Box<dyn ServerApp>>,
    pub(super) total_cores: usize,
    /// Per-node service estimate per app, so dispatch does not clone
    /// machine specs on the hot path.
    pub(super) service: Vec<Vec<f64>>,
    pub(super) checkpoint_every: SimDuration,
    /// Crash faults are configured, so nodes journal checkpoints.
    pub(super) crashes_possible: bool,
}

impl Blueprint<'_> {
    /// When a node that journaled (or rebooted) at `now` next
    /// checkpoints: never without crash faults.
    pub(super) fn next_checkpoint(&self, now: SimTime) -> SimTime {
        if self.crashes_possible {
            now + self.checkpoint_every
        } else {
            SimTime::MAX
        }
    }
}
