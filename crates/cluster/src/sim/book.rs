//! The dispatcher's books beside the nodes: live requests and their
//! wire serials, the per-tier routing views, the arrival source, and
//! the per-context energy sums assembled at the end of a run.

use super::node::Node;
use super::serials::SerialMap;
use super::RecoveryConfig;
use crate::policy::NodeView;
use crate::topology::generation_rank;
use super::ClusterConfig;
use ossim::ContextId;
use simkern::{FxHashMap, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use workloads::{Arrival, OpenLoopGen, ServerApp, TrafficGen};

/// One live request's dispatcher-side state, keyed by a stable request
/// id. Every send (dispatch, hop, retry, hedge) uses a fresh wire
/// serial, so the dispatcher can tell a live attempt's reply from a
/// superseded one.
pub(super) struct InFlight {
    pub(super) app: usize,
    pub(super) label: u32,
    pub(super) arrived: SimTime,
    /// Tier currently serving the request.
    pub(super) stage: usize,
    /// Tag to put on the wire for (re)sends of the current stage: the
    /// true identity at stage 0, the tag observed on the previous
    /// stage's reply afterwards (§3.4 — loss and corruption propagate).
    pub(super) wire: Option<ContextId>,
    /// Node serving the primary attempt.
    pub(super) node: usize,
    /// Wire serial of the primary attempt.
    pub(super) serial: u64,
    /// Re-dispatches consumed on the current hop.
    pub(super) attempt: u32,
    pub(super) sent_at: SimTime,
    /// Primary attempt's deadline ([`SimTime::MAX`] with recovery off).
    pub(super) deadline: SimTime,
    /// Outstanding hedge, as `(node, serial)`.
    pub(super) hedge: Option<(usize, u64)>,
    /// Parked in the retry queue (no live attempt on any node).
    pub(super) waiting: bool,
}

/// Incrementally maintained per-tier routing views: one dense
/// `Vec<NodeView>` per tier, updated in place whenever a node's
/// outstanding estimate changes, plus a static node → (tier, position)
/// map. Routing a request therefore reads the tier's ready-made slice
/// instead of materializing a tier-sized `Vec` per decision — which at
/// megafleet scale (10³ nodes × 10⁶ requests) was the dominant
/// dispatcher cost.
pub(super) struct TierViews {
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
    pub(super) fn new(cfg: &ClusterConfig, active: Vec<bool>, nodes: &[Node]) -> TierViews {
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
    pub(super) fn set_active(
        &mut self,
        n: usize,
        tier: usize,
        on: bool,
        cfg: &ClusterConfig,
        nodes: &[Node],
    ) {
        if self.active[n] == on {
            return;
        }
        self.active[n] = on;
        self.rebuild_tier(tier, cfg, nodes);
    }

    /// Refreshes node `n`'s view after its outstanding estimate changed
    /// (no-op for a node outside the routing membership).
    #[inline]
    pub(super) fn sync(&mut self, n: usize, outstanding_std: f64) {
        if !self.active[n] {
            return;
        }
        let (t, p) = self.pos[n];
        self.views[t][p].outstanding = outstanding_std;
    }

    #[inline]
    pub(super) fn tier(&self, t: usize) -> &[NodeView] {
        &self.views[t]
    }

    #[inline]
    pub(super) fn members(&self, t: usize) -> &[usize] {
        &self.members[t]
    }
}

/// The engine's arrival source: the legacy stationary Poisson generator,
/// or the diurnal/flash-crowd/session-structured [`TrafficGen`] when
/// [`ClusterConfig::traffic`] is set.
pub(super) enum ArrivalGen {
    Open(OpenLoopGen),
    Traffic(Box<TrafficGen>),
}

impl ArrivalGen {
    pub(super) fn next(&mut self, apps: &[Box<dyn ServerApp>]) -> Option<Arrival> {
        match self {
            ArrivalGen::Open(g) => g.next(apps),
            ArrivalGen::Traffic(g) => g.next(apps),
        }
    }
}

/// Looks up the app index for a request context in the sequential
/// context→app slab (contexts are allocated from 1, so slot `ctx-1`).
/// Out-of-range (corrupted or background) contexts miss, exactly as
/// the old hash-map lookup did.
#[inline]
pub(super) fn app_of(ctx_app: &[u8], ctx: ossim::ContextId) -> Option<usize> {
    ctx_app
        .get((ctx.0 as usize).wrapping_sub(1))
        .map(|&a| a as usize)
}

/// Per-request energy assembled at the end of a run, on slabs indexed
/// like `ctx_app` by the sequential context id (slot `ctx - 1`), so its
/// cost is a few bytes per request the run opened whatever the length
/// of the nodes' logs. Nodes are added one at a time: a node's entries
/// sum into its partial per context, and closing the node adds each
/// partial it touched to that context's fleet sum. Every sum starts at
/// 0.0 and adds in node, then log, then live-container order.
pub(super) struct CtxSums {
    /// Fleet-wide energy per context, Joules.
    fleet: Vec<f64>,
    /// Nodes that attributed energy to each context.
    nodes: Vec<u32>,
    /// The open node's partial sum per context (valid where `here_seen`).
    here: Vec<f64>,
    here_seen: Vec<bool>,
    /// Slots the open node touched, in first-touch order.
    touched: Vec<u32>,
}

impl CtxSums {
    pub(super) fn new(contexts: usize) -> CtxSums {
        CtxSums {
            fleet: vec![0.0; contexts],
            nodes: vec![0; contexts],
            here: vec![0.0; contexts],
            here_seen: vec![false; contexts],
            touched: Vec::new(),
        }
    }

    /// Adds `joules` to slot `i`'s partial on the open node.
    #[inline]
    pub(super) fn add(&mut self, i: usize, joules: f64) {
        if !self.here_seen[i] {
            self.here_seen[i] = true;
            self.here[i] = 0.0;
            self.touched.push(i as u32);
        }
        self.here[i] += joules;
    }

    /// Folds the open node's partials into the fleet sums.
    pub(super) fn close_node(&mut self) {
        for &i in &self.touched {
            let i = i as usize;
            self.fleet[i] += self.here[i];
            self.nodes[i] += 1;
            self.here_seen[i] = false;
        }
        self.touched.clear();
    }

    /// `(slot, energy, nodes)` of every context some node touched, in
    /// context order.
    pub(super) fn rows(&self) -> impl Iterator<Item = (usize, f64, u32)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, self.fleet[i], n))
    }
}

/// Deadline of one hop with expected service time `secs`.
pub(super) fn hop_deadline(rec: &RecoveryConfig, secs: f64) -> SimDuration {
    SimDuration::from_secs_f64(secs * rec.hop_timeout_mult).max(rec.min_timeout)
}

/// Seeded exponential backoff with jitter for retry `attempt` of
/// `req_id` (deterministic in the root seed, the request and the
/// attempt — independent of scheduling order).
pub(super) fn retry_backoff(
    rec: &RecoveryConfig,
    seed: u64,
    req_id: u64,
    attempt: u32,
) -> SimDuration {
    let base = rec.backoff_base.as_nanos().max(1);
    let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(6));
    let mut rng = SimRng::new(
        seed ^ req_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((attempt as u64) << 48),
    );
    SimDuration::from_nanos(exp.saturating_add(rng.next_below(base)))
}

/// The available node of `members` other than `except` with the least
/// outstanding work, if any.
pub(super) fn least_loaded(
    members: &[usize],
    nodes: &[Node],
    except: usize,
    t: SimTime,
) -> Option<usize> {
    members
        .iter()
        .copied()
        .filter(|&i| i != except && nodes[i].available(t))
        .min_by(|&a, &b| nodes[a].outstanding_std.total_cmp(&nodes[b].outstanding_std))
}

/// The dispatcher's live requests, keyed by a stable request id. Every
/// send (dispatch, hop, retry, hedge) uses a fresh wire serial, and
/// `serial_req` resolves a serial back to its request (a serial absent
/// there is stale). `inflight` iterations (timeouts, hedging) sort
/// their harvest, so the deterministic FxHashMap is safe here.
pub(super) struct RequestBook {
    pub(super) inflight: FxHashMap<u64, InFlight>,
    pub(super) serial_req: SerialMap,
    /// Requests parked for re-dispatch, by (due time, request id).
    pub(super) retry_queue: BTreeMap<(SimTime, u64), ()>,
    /// Context ids are allocated sequentially from 1, so ctx → app is a
    /// dense slab: `ctx_app[ctx - 1]`. A corrupted wire tag outside the
    /// allocated range simply misses, exactly as with a map.
    pub(super) ctx_app: Vec<u8>,
    pub(super) next_serial: u64,
    pub(super) next_req: u64,
    pub(super) next_ctx: u64,
}

impl RequestBook {
    pub(super) fn new() -> RequestBook {
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

    pub(super) fn fresh_serial(&mut self) -> u64 {
        let serial = self.next_serial;
        self.next_serial += 1;
        debug_assert!(serial < u32::MAX as u64, "serial space exhausted");
        serial
    }

    /// Opens the book on admitted arrival `a`: a fresh request id and a
    /// fresh true context id, with no attempt sent yet.
    pub(super) fn open(&mut self, a: &Arrival) -> u64 {
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
