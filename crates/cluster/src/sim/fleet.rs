//! The cluster engine: [`Fleet`] advances every node one dispatcher
//! tick at a time and runs the named phases of [`Fleet::tick`].

use super::book::{
    app_of, hop_deadline, least_loaded, retry_backoff, ArrivalGen, CtxSums, InFlight, RequestBook,
    TierViews,
};
use super::config::{per_app_rate, service_secs, validate};
use super::node::{Blueprint, BreakerState, Lifecycle, Node, ScaleState};
use super::{
    ClusterConfig, ClusterOutcome, CtxEnergy, NodeOutcome, ScaleEvent, ScaleKind, ShedReason,
};
use crate::autoscale::{Autoscaler, AutoscaleConfig, BrownoutLevel, FleetSample, ScaleDecision};
use crate::obs::ObsPlane;
use crate::policy::{ArrivalView, DistributionPolicy};
use analysis::stats::Summary;
use hwsim::{plan_node_faults, DutyCycle, MachineSpec};
use ossim::{ContextId, Segment};
use simkern::{SimDuration, SimTime};
use workloads::tally::{self, AutoscaleDigest, ObsDigest, Tally};
use workloads::{Arrival, MachineCalibration, OpenLoopGen, ServerApp, TrafficGen};

/// The dispatcher's trace track.
pub(crate) const DISPATCHER_TRACK: u32 = 3;

/// Dispatcher batching quantum: nodes advance and decisions are made
/// once per tick.
const TICK: SimDuration = SimDuration::from_millis(1);

/// Checkpoint cadence when crash faults are on but no
/// [`RecoveryConfig`](super::RecoveryConfig) overrides it.
const DEFAULT_CHECKPOINT_EVERY: SimDuration = SimDuration::from_millis(50);

/// Admission control sheds new arrivals while the fleet's active power
/// exceeds this fraction of the cap.
const POWER_HEADROOM: f64 = 0.97;

/// Boot latency of a scale-out: a provisioned node spends this long
/// powered but useless before its warm-up starts.
const PROVISION_DELAY: SimDuration = SimDuration::from_millis(150);
/// Warm-up after provisioning, during which the node admits only a
/// bounded probe load (the crash-restart mechanism).
const WARMUP: SimDuration = SimDuration::from_millis(100);

/// At [`BrownoutLevel::TightenAdmission`] the admission queue bound is
/// multiplied by this factor.
const ADMISSION_TIGHTEN: f64 = 0.35;
/// At [`BrownoutLevel::DvfsClamp`] every active node's duty cycle is
/// capped at this fraction.
const DVFS_CLAMP: f64 = 0.6;

/// Records the dispatcher event `name` at `t` on the dispatcher's track.
fn dispatcher_event(
    tele: &telemetry::Telemetry,
    t: SimTime,
    name: &'static str,
    fields: &[(&'static str, telemetry::FieldValue)],
) {
    tele.instant_on(t, "cluster", name, DISPATCHER_TRACK, fields);
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

/// The elasticity controller and its rolling-upgrade schedule.
struct Elastic {
    scaler: Autoscaler,
    next_upgrade_at: Option<SimTime>,
    upgrades_left: usize,
}

/// The cluster engine: nodes and their tier views, the request book,
/// and the outcome it counts into, advanced one dispatcher tick at a
/// time on the calling thread ([`Fleet::tick`] lists the phases).
pub(super) struct Fleet<'a, 'p> {
    bp: Blueprint<'a>,
    /// One routing policy per tier.
    policies: &'a mut [&'p mut dyn DistributionPolicy],
    nodes: Vec<Node>,
    views: TierViews,
    /// Admission reads the *active* tier-0 core count, maintained
    /// across resizes (equal to the static total without autoscaling).
    tier0_active_cores: usize,
    book: RequestBook,
    /// The run's counters and journals, counted in place; the per-node,
    /// energy and fault fields are filled in at [`Fleet::finish`].
    out: ClusterOutcome,
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

impl<'a, 'p> Fleet<'a, 'p> {
    pub(super) fn new(
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
        let out = ClusterOutcome {
            policy: policies[0].name(),
            response_by_app: cfg.apps.iter().map(|&k| (k, Summary::new())).collect(),
            ..ClusterOutcome::default()
        };
        Fleet {
            bp,
            policies,
            nodes,
            views,
            tier0_active_cores,
            book: RequestBook::new(),
            out,
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
    pub(super) fn run(mut self) -> ClusterOutcome {
        let end = SimTime::ZERO + self.bp.cfg.duration;
        let mut t = SimTime::ZERO;
        loop {
            t = (t + TICK).min(end);
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
            self.land_provisioned(t);
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
            self.out.crash_log.push(record);
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
            self.out.stale_replies += 1;
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
            self.out.stale_replies += 1;
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
        dispatcher_event(&cfg.telemetry, t, "hop", &[("to_tier", (stage as u64).into())]);
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
        self.out.response_by_app[app].1.record(latency_s);
        if let Some(o) = self.obs.as_mut() {
            o.note_completion(app, latency_s);
        }
        self.out.completed += 1;
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
        self.out.decisions += 1;
        let chosen = members[self.policies[stage].choose(req, self.views.tier(stage))];
        if self.nodes[chosen].available(t) {
            return Some(chosen);
        }
        let alt = least_loaded(members, &self.nodes, chosen, t)?;
        let tele = &self.bp.cfg.telemetry;
        dispatcher_event(
            tele,
            t,
            "reroute",
            &[("from", (chosen as u64).into()), ("to", (alt as u64).into())],
        );
        tele.add_count("cluster.rerouted", 1);
        self.out.rerouted += 1;
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
                self.out.retried += 1;
                let delay = retry_backoff(rec, cfg.seed, req_id, fl.attempt);
                self.book.retry_queue.insert((t + delay, req_id), ());
                dispatcher_event(
                    &cfg.telemetry,
                    t,
                    "retry",
                    &[("attempt", (fl.attempt as u64).into())],
                );
                cfg.telemetry.add_count("cluster.retried", 1);
            }
            _ => {
                self.book.inflight.remove(&req_id);
                match reason {
                    Some(reason) => self.shed(t, reason),
                    None => {
                        self.out.dropped += 1;
                        self.out.lost_in_crash += 1;
                        cfg.telemetry.add_count("cluster.lost_in_crash", 1);
                    }
                }
            }
        }
    }

    /// Counts and traces one typed shed.
    fn shed(&mut self, t: SimTime, reason: ShedReason) {
        self.out.shed[reason.index()] += 1;
        self.out.dropped += 1;
        let tele = &self.bp.cfg.telemetry;
        dispatcher_event(tele, t, "shed", &[("reason", (reason.index() as u64).into())]);
        tele.add_count("cluster.dropped", 1);
        tele.add_count(reason.counter(), 1);
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
            self.out.hedged += 1;
            dispatcher_event(&cfg.telemetry, t, "hedge", &[("to", (alt as u64).into())]);
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
                self.out.degradations_detected += 1;
                let open_ms = match node.breaker.state {
                    BreakerState::Open { until } => until.duration_since(t).as_secs_f64() * 1e3,
                    _ => 0.0,
                };
                dispatcher_event(
                    &cfg.telemetry,
                    t,
                    "degraded",
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
        self.out.peak_power_w = self.out.peak_power_w.max(self.fleet_power_w);
    }

    /// Lands provisioned nodes whose boot latency expired: a fresh
    /// incarnation restores the retirement checkpoint and starts
    /// warming up, and the boot + warm-up idle draw is charged to the
    /// provisioning transition.
    fn land_provisioned(&mut self, t: SimTime) {
        let cfg = self.bp.cfg;
        for n in 0..self.nodes.len() {
            let ScaleState::Provisioning { decided_at, ready, kind } = self.nodes[n].scale else {
                continue;
            };
            if t < ready {
                continue;
            }
            self.nodes[n].land(&self.bp, t, WARMUP);
            let spec = &cfg.nodes[n];
            let boot_j = spec.truth.machine_idle_w() * (PROVISION_DELAY + WARMUP).as_secs_f64();
            self.out.provisioning_energy_j += boot_j;
            self.tier0_active_cores += spec.total_cores();
            self.views.set_active(n, self.nodes[n].tier, true, cfg, &self.nodes);
            self.out.scale_outs += 1;
            self.out.scale_log.push(ScaleEvent {
                node: n,
                kind,
                decided_at,
                completed_at: t,
                lost_energy_j: 0.0,
                lost_requests: 0,
                forced: false,
                provision_energy_j: boot_j,
            });
            dispatcher_event(
                &cfg.telemetry,
                t,
                kind.name(),
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
            self.out.scale_ins += 1;
            self.out.scale_log.push(ScaleEvent {
                node: n,
                kind,
                decided_at,
                completed_at: t,
                lost_energy_j,
                lost_requests,
                forced,
                provision_energy_j: 0.0,
            });
            dispatcher_event(
                &cfg.telemetry,
                t,
                kind.name(),
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
    fn start_provision(&mut self, n: usize, kind: ScaleKind, t: SimTime) {
        self.nodes[n].scale =
            ScaleState::Provisioning { decided_at: t, ready: t + PROVISION_DELAY, kind };
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
            self.start_provision(fresh, ScaleKind::UpgradeOut, t);
            self.out.upgrades += 1;
            dispatcher_event(
                &cfg.telemetry,
                t,
                "upgrade",
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
        let tele = &self.bp.cfg.telemetry;
        if !self.elastic.as_ref().is_some_and(|el| el.scaler.due(t)) {
            return;
        }
        let sample = self.fleet_sample(t);
        let Some(el) = self.elastic.as_mut() else { return };
        let prev_level = el.scaler.level();
        let (decision, level) = el.scaler.decide(&sample);
        if level != prev_level {
            if level > prev_level {
                self.out.brownout_engagements += 1;
                tele.add_count("autoscale.brownout.engage", 1);
            } else {
                self.out.brownout_releases += 1;
                tele.add_count("autoscale.brownout.release", 1);
            }
            dispatcher_event(tele, t, "brownout", &[("level", (level.index() as u64).into())]);
        }
        // DVFS clamp: re-asserted on every active node each evaluation
        // while the top rung holds (covering nodes that landed since),
        // restored to full duty on release. A slowdown fault window in
        // force is overridden until its own end boundary; the chaos
        // rungs tolerate that interplay.
        if level == BrownoutLevel::DvfsClamp {
            for node in self.nodes.iter_mut().filter(|nd| nd.scale == ScaleState::Active) {
                node.set_all_duty(DutyCycle::at_most(DVFS_CLAMP));
            }
        } else if prev_level == BrownoutLevel::DvfsClamp {
            for node in self.nodes.iter_mut().filter(|nd| nd.participates()) {
                node.set_all_duty(DutyCycle::FULL);
            }
        }
        match decision {
            ScaleDecision::Out(k) => {
                let standbys: Vec<usize> = (0..self.nodes.len())
                    .filter(|&n| self.nodes[n].scale == ScaleState::Standby)
                    .take(k)
                    .collect();
                for n in standbys {
                    self.start_provision(n, ScaleKind::Out, t);
                    dispatcher_event(tele, t, "provision", &[("node", (n as u64).into())]);
                }
            }
            ScaleDecision::In(k) => {
                let victims: Vec<usize> = (0..self.nodes.len())
                    .rev()
                    .filter(|&n| self.nodes[n].drainable())
                    .take(k)
                    .collect();
                for n in victims {
                    self.start_drain(n, ScaleKind::In, ac, t);
                    dispatcher_event(tele, t, "drain", &[("node", (n as u64).into())]);
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
        let admission_scale =
            if brownout >= BrownoutLevel::TightenAdmission { ADMISSION_TIGHTEN } else { 1.0 };
        while let Some(a) = self.pending {
            if a.at > t {
                break;
            }
            self.pending = self.arrivals.next(&self.bp.apps);
            self.out.dispatched += 1;
            cfg.telemetry.add_count("cluster.dispatched", 1);
            if let Some(reason) = self.refusal(&a, brownout, admission_scale) {
                self.shed(a.at, reason);
                continue;
            }
            let req = ArrivalView { app: cfg.apps[a.app], label: a.label };
            let Some(target) = self.route(0, req, a.at) else {
                self.shed(a.at, ShedReason::NoHealthyNode);
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
            Some(cap) if self.fleet_power_w > POWER_HEADROOM * cap => {
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
            self.out.completed as u64,
            self.out.dropped,
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
            self.out.stale_replies += 1;
            return;
        };
        let Some(fl) = self.book.inflight.get(&req_id) else { return };
        if fl.serial != serial && fl.hedge.map(|(_, s)| s) != Some(serial) {
            self.out.stale_replies += 1;
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
    /// assembles the outcome, and notes the run in the calling thread's
    /// `workloads::tally`.
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
        // Nodes still active (or draining) at the end accrue uptime
        // through `end`; a fixed fleet therefore reads exactly the run
        // duration per node.
        for node in &mut self.nodes {
            node.close_uptime(end);
        }
        let secs = cfg.duration.as_secs_f64();
        let per_node: Vec<NodeOutcome> = self.nodes.iter().map(|n| n.outcome(secs)).collect();
        self.out.idle_energy_j = per_node.iter().map(|n| n.idle_energy_j).sum();
        self.out.per_node = per_node;
        let (energies, energy_by_ctx) = self.attribute_energy();
        self.out.energy_by_app_j = cfg.apps.iter().copied().zip(energies).collect();
        self.out.energy_by_ctx = energy_by_ctx;
        let out = &mut self.out;
        for node in &self.nodes {
            let live = node.rt.kernel.machine().fault_log().counts();
            for (total, n) in out.fault_counts.iter_mut().zip(live) {
                *total += n;
            }
            for (total, n) in out.fault_counts.iter_mut().zip(node.carried_fault_counts) {
                *total += n;
            }
            let ks = node.rt.kernel.stats();
            out.tags_lost += ks.tags_lost + node.carried_tags_lost;
            out.tags_corrupted += ks.tags_corrupted + node.carried_tags_corrupted;
            out.crashes += node.crashes as u64;
            out.checkpoints += node.checkpoints;
        }
        if let Some(ix) =
            hwsim::FaultKind::ALL.iter().position(|k| *k == hwsim::FaultKind::NodeCrash)
        {
            out.fault_counts[ix] += out.crashes;
        }
        out.in_flight = self.book.inflight.len() as u64;
        out.autoscale_evals = self.elastic.as_ref().map_or(0, |el| el.scaler.evals());
        let provenance = self.provenance();
        let obs = self.obs.take().map(|o| Box::new(o.finish(provenance)));
        let degrade =
            self.nodes.iter().map(Node::degrade_stats).fold(Default::default(), |a, d| a + d);
        let out = &self.out;
        tally::note(Tally {
            degrade: Some(degrade),
            retried: out.retried,
            shed: out.dropped,
            requests: out.dispatched,
            obs: obs.as_ref().map(|o| ObsDigest {
                alerts: o.report.alerts.len() as u64,
                p99_j_per_req: o
                    .report
                    .sketches
                    .get("energy_j_per_req/fleet")
                    .map_or(0.0, |s| s.quantile(0.99)),
            }),
            autoscale: AutoscaleDigest {
                scale_outs: out.scale_outs,
                scale_ins: out.scale_ins,
                upgrades: out.upgrades,
                brownout_engagements: out.brownout_engagements,
                shed_optional: out.shed[ShedReason::BrownoutOptional.index()],
            },
        });
        self.out.obs = obs;
        self.out
    }

    /// The comprehensive per-app energy accounting, resolved through
    /// the dispatcher's ctx→app map over every node's record log entries
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
        // The obs plane's energy-per-request sketches need the same
        // per-ctx assembly `retain_request_energy` builds; without either
        // consumer the per-ctx slabs are skipped entirely.
        let want_ctx = self.bp.cfg.retain_request_energy || self.obs.is_some();
        let mut by_ctx = CtxSums::new(if want_ctx { ctx_app.len() } else { 0 });
        for node in &self.nodes {
            let facility = node.rt.facility.borrow();
            for e in facility.containers().log().request_energies() {
                if let Some(app_idx) = app_of(ctx_app, e.ctx) {
                    energies[app_idx] += e.joules;
                    if want_ctx {
                        by_ctx.add(e.ctx.0 as usize - 1, e.joules);
                    }
                }
            }
            for (ctx, c) in facility.containers().iter_live() {
                if let Some(app_idx) = app_of(ctx_app, ctx) {
                    energies[app_idx] += c.total_energy_j();
                    if want_ctx {
                        by_ctx.add(ctx.0 as usize - 1, c.total_energy_j());
                    }
                }
            }
            by_ctx.close_node();
        }
        if let Some(o) = self.obs.as_mut() {
            // Sketch observation is commutative (integer bucket adds), so
            // any order would do; this is context order.
            for (i, energy_j, _) in by_ctx.rows() {
                o.note_request_energy(Some(ctx_app[i] as usize), energy_j);
            }
        }
        let mut energy_by_ctx: Vec<CtxEnergy> = Vec::new();
        if self.bp.cfg.retain_request_energy {
            energy_by_ctx.reserve_exact(by_ctx.rows().count());
            energy_by_ctx.extend(
                by_ctx
                    .rows()
                    .map(|(i, energy_j, nodes)| CtxEnergy { ctx: i as u64 + 1, energy_j, nodes }),
            );
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
        for cr in &self.out.crash_log {
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
