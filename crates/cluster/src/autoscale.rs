//! The power-aware elastic autoscaler and its graceful-brownout ladder.
//!
//! [`Autoscaler`] is a *pure* controller: the engine hands it one
//! [`FleetSample`] per evaluation interval at a tick barrier (so
//! decisions are a deterministic function of the seeded run, identical
//! at every `--jobs` count) and receives back a [`ScaleDecision`] plus the
//! [`BrownoutLevel`] to hold. All actuation — provisioning standby
//! nodes through the Down→WarmingUp→Healthy lifecycle, draining
//! scale-in victims, shedding optional sessions, tightening admission,
//! clamping duty cycles — lives in the engine (`sim.rs`); the
//! controller only ever sees aggregate load and power.
//!
//! The objective is joules per request under the cluster cap: the fleet
//! should hold just enough capacity that the offered load runs near the
//! utilization set-point (amortizing each node's large idle draw over
//! more requests), while the brownout ladder absorbs headroom collapses
//! that arrive faster than a scale-out can land — degrade, never
//! violate the cap.

use simkern::{SimDuration, SimTime};

/// Elasticity-controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct AutoscaleConfig {
    /// Fleet floor: scale-in never drains below this many active nodes.
    pub min_nodes: usize,
    /// Nodes active at t = 0 (the rest of the topology starts standby).
    pub initial_nodes: usize,
    /// Controller evaluation cadence (decisions happen only at the
    /// first tick barrier at or past each boundary).
    pub eval_every: SimDuration,
    /// Minimum spacing between consecutive resize decisions (in either
    /// direction) — the anti-flap half of the hysteresis pair.
    pub cooldown: SimDuration,
    /// Scale out while per-core outstanding work exceeds this.
    pub high_util: f64,
    /// Scale in while per-core outstanding work is below this (must sit
    /// well under [`AutoscaleConfig::high_util`] — the deadband is the
    /// other half of the hysteresis pair).
    pub low_util: f64,
    /// Most nodes resized by a single decision.
    pub max_step: usize,
    /// Boot latency of a scale-out: a provisioned node spends this long
    /// powered but useless before its warm-up starts.
    pub provision_delay: SimDuration,
    /// Warm-up window after provisioning, during which the node admits
    /// only a bounded probe load (same mechanism as crash restarts).
    pub warmup: SimDuration,
    /// A draining node that still holds requests past this deadline is
    /// force-retired (its stragglers re-enter the retry machinery).
    pub drain_deadline: SimDuration,
    /// The brownout ladder.
    pub brownout: BrownoutConfig,
    /// Rolling generation-upgrade schedule, or `None`.
    pub upgrade: Option<RollingUpgrade>,
}

impl AutoscaleConfig {
    /// Defaults tuned for the diurnal sweep: ~1.8 outstanding per core
    /// scale-out trigger, 0.55 scale-in, 400 ms cooldown, two-node
    /// steps, 150 ms boot + 100 ms warm-up, 500 ms drain deadline.
    pub fn standard(min_nodes: usize, initial_nodes: usize) -> AutoscaleConfig {
        AutoscaleConfig {
            min_nodes,
            initial_nodes,
            eval_every: SimDuration::from_millis(50),
            cooldown: SimDuration::from_millis(400),
            high_util: 1.8,
            low_util: 0.55,
            max_step: 2,
            provision_delay: SimDuration::from_millis(150),
            warmup: SimDuration::from_millis(100),
            drain_deadline: SimDuration::from_millis(500),
            brownout: BrownoutConfig::standard(),
            upgrade: None,
        }
    }
}

/// Brownout-ladder thresholds. The ladder is typed and ordered:
/// `Normal < ShedOptional < TightenAdmission < DvfsClamp`; the
/// controller climbs one level per evaluation while the fleet power
/// sits above the engage fraction of the cap, and descends one level
/// per evaluation once it has held below the release fraction for the
/// hold window.
#[derive(Debug, Clone, Copy)]
pub struct BrownoutConfig {
    /// Climb while fleet active power exceeds this fraction of the cap.
    pub engage_frac: f64,
    /// Descend only while below this fraction (engage > release —
    /// the ladder's own hysteresis deadband).
    pub release_frac: f64,
    /// Minimum dwell at a level before descending.
    pub hold: SimDuration,
    /// At [`BrownoutLevel::TightenAdmission`]: multiply the admission
    /// queue bound by this factor (< 1).
    pub admission_tighten: f64,
    /// At [`BrownoutLevel::DvfsClamp`]: cap every active node's duty
    /// cycle at this fraction.
    pub dvfs_clamp: f64,
}

impl BrownoutConfig {
    /// Defaults: engage at 92 % of cap, release below 82 %, 100 ms
    /// dwell, 0.35× admission bound, 0.6 duty clamp.
    pub fn standard() -> BrownoutConfig {
        BrownoutConfig {
            engage_frac: 0.92,
            release_frac: 0.82,
            hold: SimDuration::from_millis(100),
            admission_tighten: 0.35,
            dvfs_clamp: 0.6,
        }
    }
}

/// Rolling generation upgrade: every `every` starting at `start`, the
/// engine pairs one scale-in of the oldest-generation active node with
/// one scale-out of the newest-generation standby node, `count` times.
#[derive(Debug, Clone, Copy)]
pub struct RollingUpgrade {
    /// Offset of the first paired swap.
    pub start: SimDuration,
    /// Spacing between swaps.
    pub every: SimDuration,
    /// Total swaps to perform.
    pub count: usize,
}

/// The graceful-degradation ladder, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutLevel {
    /// No degradation.
    Normal,
    /// Shed arrivals whose session is marked optional.
    ShedOptional,
    /// Also multiply the admission queue bound by
    /// [`BrownoutConfig::admission_tighten`].
    TightenAdmission,
    /// Also clamp every active node's duty cycle at
    /// [`BrownoutConfig::dvfs_clamp`].
    DvfsClamp,
}

impl BrownoutLevel {
    /// Ladder order, mildest first.
    pub const ALL: [BrownoutLevel; 4] = [
        BrownoutLevel::Normal,
        BrownoutLevel::ShedOptional,
        BrownoutLevel::TightenAdmission,
        BrownoutLevel::DvfsClamp,
    ];

    /// Ladder rung index (0 = Normal).
    pub fn index(self) -> usize {
        match self {
            BrownoutLevel::Normal => 0,
            BrownoutLevel::ShedOptional => 1,
            BrownoutLevel::TightenAdmission => 2,
            BrownoutLevel::DvfsClamp => 3,
        }
    }

    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            BrownoutLevel::Normal => "normal",
            BrownoutLevel::ShedOptional => "shed-optional",
            BrownoutLevel::TightenAdmission => "tighten-admission",
            BrownoutLevel::DvfsClamp => "dvfs-clamp",
        }
    }

    fn up(self) -> BrownoutLevel {
        Self::ALL[(self.index() + 1).min(Self::ALL.len() - 1)]
    }

    fn down(self) -> BrownoutLevel {
        Self::ALL[self.index().saturating_sub(1)]
    }
}

/// What the engine tells the controller at each evaluation.
#[derive(Debug, Clone, Copy)]
pub struct FleetSample {
    /// Evaluation time (a tick barrier).
    pub now: SimTime,
    /// Active (healthy/warming/degraded, routable) nodes.
    pub active: usize,
    /// Nodes provisioning or warming up — capacity already bought but
    /// not fully landed; counted against further scale-outs.
    pub landing: usize,
    /// Nodes draining toward standby.
    pub draining: usize,
    /// Standby nodes still available to provision.
    pub standby: usize,
    /// Outstanding standard requests per active core (the same signal
    /// admission control reads).
    pub util: f64,
    /// Fleet active power as a fraction of the cap (0 when uncapped).
    pub power_frac: f64,
}

/// A resize decision: how many nodes to provision or drain this
/// evaluation. The engine picks the concrete victims (newest standby
/// first out, oldest active first in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// No resize.
    Hold,
    /// Provision this many standby nodes.
    Out(usize),
    /// Drain this many active nodes.
    In(usize),
}

/// The elasticity controller. See the module docs for the objective.
#[derive(Debug)]
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    next_eval: SimTime,
    last_resize: SimTime,
    has_resized: bool,
    level: BrownoutLevel,
    /// When the ladder last moved (either direction).
    level_since: SimTime,
    /// Time power last sat at or above the release fraction.
    last_hot: SimTime,
    evals: u64,
}

impl Autoscaler {
    /// A controller starting at fleet birth: first evaluation one
    /// interval in, ladder at [`BrownoutLevel::Normal`].
    pub fn new(cfg: AutoscaleConfig) -> Autoscaler {
        assert!(cfg.min_nodes >= 1, "fleet floor must be at least one node");
        assert!(cfg.initial_nodes >= cfg.min_nodes, "initial fleet below the floor");
        assert!(cfg.high_util > cfg.low_util, "hysteresis band must be positive");
        assert!(cfg.max_step >= 1, "resize step must be positive");
        assert!(
            cfg.brownout.engage_frac > cfg.brownout.release_frac,
            "brownout deadband must be positive"
        );
        Autoscaler {
            next_eval: SimTime::ZERO + cfg.eval_every,
            last_resize: SimTime::ZERO,
            has_resized: false,
            level: BrownoutLevel::Normal,
            level_since: SimTime::ZERO,
            last_hot: SimTime::ZERO,
            evals: 0,
            cfg,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    /// `true` when an evaluation is due at tick barrier `now`.
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_eval
    }

    /// Evaluations performed so far (the perf_report divides controller
    /// wall cost by this).
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// The brownout level currently held.
    pub fn level(&self) -> BrownoutLevel {
        self.level
    }

    /// One controller evaluation: returns the resize decision and the
    /// brownout level to hold until the next evaluation. Pure in the
    /// sample and the controller's own state — no clocks, no RNG.
    pub fn decide(&mut self, s: &FleetSample) -> (ScaleDecision, BrownoutLevel) {
        self.evals += 1;
        self.next_eval = s.now + self.cfg.eval_every;

        // Brownout ladder first: cap protection outranks elasticity.
        let b = &self.cfg.brownout;
        if s.power_frac >= b.release_frac {
            self.last_hot = s.now;
        }
        if s.power_frac >= b.engage_frac {
            let next = self.level.up();
            if next != self.level {
                self.level = next;
                self.level_since = s.now;
            }
        } else if self.level != BrownoutLevel::Normal
            && s.power_frac < b.release_frac
            && s.now.duration_since(self.level_since) >= b.hold
            && s.now.duration_since(self.last_hot) >= b.hold
        {
            self.level = self.level.down();
            self.level_since = s.now;
        }

        // Elasticity: hysteresis band on per-core outstanding work, a
        // cooldown between resizes, and capacity still landing counted
        // as already bought.
        let decision = if self.has_resized
            && s.now.duration_since(self.last_resize) < self.cfg.cooldown
        {
            ScaleDecision::Hold
        } else if s.util > self.cfg.high_util && s.landing == 0 && s.standby > 0 {
            // Size the step to the overshoot: a flash crowd doubling
            // util buys more than one node at a time.
            let overshoot = (s.util / self.cfg.high_util - 1.0).max(0.0);
            let want = ((s.active.max(1) as f64 * overshoot).ceil() as usize).max(1);
            ScaleDecision::Out(want.min(self.cfg.max_step).min(s.standby))
        } else if s.util < self.cfg.low_util
            && self.level == BrownoutLevel::Normal
            && s.power_frac < b.release_frac
            && s.active > self.cfg.min_nodes + s.draining
        {
            let room = s.active - self.cfg.min_nodes - s.draining;
            // Scale-in stays gentle: one node per decision, so a
            // mis-read trough never collapses the fleet.
            ScaleDecision::In(room.min(1))
        } else {
            ScaleDecision::Hold
        };
        if decision != ScaleDecision::Hold {
            self.last_resize = s.now;
            self.has_resized = true;
        }
        (decision, self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(now_ms: u64, util: f64, power_frac: f64) -> FleetSample {
        FleetSample {
            now: SimTime::from_millis(now_ms),
            active: 8,
            landing: 0,
            draining: 0,
            standby: 8,
            util,
            power_frac,
        }
    }

    fn scaler() -> Autoscaler {
        Autoscaler::new(AutoscaleConfig::standard(2, 8))
    }

    #[test]
    fn holds_inside_the_hysteresis_band() {
        let mut a = scaler();
        for ms in [50u64, 500, 1000, 1500] {
            let (d, level) = a.decide(&sample(ms, 1.0, 0.3));
            assert_eq!(d, ScaleDecision::Hold);
            assert_eq!(level, BrownoutLevel::Normal);
        }
    }

    #[test]
    fn scales_out_on_high_util_and_respects_cooldown() {
        let mut a = scaler();
        let (d, _) = a.decide(&sample(50, 3.0, 0.3));
        assert_eq!(d, ScaleDecision::Out(2), "overshoot sizes the step up to max_step");
        // Inside the cooldown: hold even though util is still high.
        let (d, _) = a.decide(&sample(100, 3.0, 0.3));
        assert_eq!(d, ScaleDecision::Hold);
        // Past the cooldown: buys again.
        let (d, _) = a.decide(&sample(500, 3.0, 0.3));
        assert!(matches!(d, ScaleDecision::Out(_)));
    }

    #[test]
    fn landing_capacity_blocks_further_buys() {
        let mut a = scaler();
        let s = FleetSample { landing: 2, ..sample(500, 3.0, 0.3) };
        assert_eq!(a.decide(&s).0, ScaleDecision::Hold);
    }

    #[test]
    fn scales_in_gently_and_never_below_floor() {
        let mut a = scaler();
        let (d, _) = a.decide(&sample(500, 0.2, 0.2));
        assert_eq!(d, ScaleDecision::In(1), "scale-in is one node per decision");
        let mut at_floor = FleetSample { active: 2, ..sample(1000, 0.1, 0.1) };
        assert_eq!(a.decide(&at_floor).0, ScaleDecision::Hold);
        at_floor.active = 3;
        at_floor.draining = 1;
        at_floor.now = SimTime::from_millis(1500);
        assert_eq!(
            a.decide(&at_floor).0,
            ScaleDecision::Hold,
            "draining nodes count against the floor"
        );
    }

    #[test]
    fn brownout_climbs_one_level_per_eval_and_releases_with_hold() {
        let mut a = scaler();
        assert_eq!(a.decide(&sample(50, 1.0, 0.95)).1, BrownoutLevel::ShedOptional);
        assert_eq!(a.decide(&sample(100, 1.0, 0.95)).1, BrownoutLevel::TightenAdmission);
        assert_eq!(a.decide(&sample(150, 1.0, 0.95)).1, BrownoutLevel::DvfsClamp);
        // Stays clamped while hot, even between the thresholds.
        assert_eq!(a.decide(&sample(200, 1.0, 0.88)).1, BrownoutLevel::DvfsClamp);
        // Cool, but inside the hold window: no release yet.
        assert_eq!(a.decide(&sample(250, 1.0, 0.5)).1, BrownoutLevel::DvfsClamp);
        // Past the hold: descends one level per eval.
        assert_eq!(a.decide(&sample(360, 1.0, 0.5)).1, BrownoutLevel::TightenAdmission);
        assert_eq!(a.decide(&sample(470, 1.0, 0.5)).1, BrownoutLevel::ShedOptional);
        assert_eq!(a.decide(&sample(580, 1.0, 0.5)).1, BrownoutLevel::Normal);
    }

    #[test]
    fn brownout_blocks_scale_in() {
        let mut a = scaler();
        let _ = a.decide(&sample(50, 1.0, 0.95));
        // Util reads low (the shed is working) but the ladder is
        // engaged: the fleet must not shrink under a cap emergency.
        let (d, level) = a.decide(&sample(500, 0.2, 0.95));
        assert_ne!(level, BrownoutLevel::Normal);
        assert_eq!(d, ScaleDecision::Hold);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut a = scaler();
            let mut out = Vec::new();
            for i in 0..200u64 {
                let util = 0.3 + 2.0 * ((i as f64) / 13.0).sin().abs();
                let power = 0.5 + 0.5 * ((i as f64) / 7.0).cos().abs();
                let (d, l) = a.decide(&sample(50 * (i + 1), util, power));
                out.push((d, l));
            }
            out
        };
        assert_eq!(run(), run());
    }
}
