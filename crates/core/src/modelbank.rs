//! Self-calibrating multi-model metering: a bank of per-regime
//! recalibrators with drift detection, error-driven retraining, and
//! hysteresis slot selection.
//!
//! The paper's online recalibration (§3.2) keeps a single rolling model
//! per node. That model chases every operating-regime change — a DVFS
//! step, a hardware generation swap, a workload phase flip — through the
//! same rolling window, paying the full re-adaptation cost on each shift
//! and contaminating the window with cross-regime samples while it
//! relearns. A [`ModelBank`] instead keys one [`Recalibrator`] per
//! *operating regime* (machine generation × DVFS level × workload-mix
//! bucket): a revisited regime is served instantly by the model it
//! trained last time, and samples from different regimes never share a
//! window.
//!
//! Three mechanisms keep the bank honest:
//!
//! * **Drift detection** — a per-slot CUSUM over the absolute
//!   estimate-vs-meter residual trips once sustained divergence
//!   accumulates past a threshold, triggering a targeted refit of that
//!   slot alone ([`DriftPolicy`]).
//! * **Quarantine** — a slot whose drift-triggered retrains keep being
//!   rejected is quarantined: it keeps accumulating samples but its fit
//!   is bypassed in favour of the bank-wide last-good fallback until a
//!   retrain is accepted again.
//! * **Hysteresis selection** — the served slot only switches after the
//!   observed regime key has persisted for a configured number of
//!   consecutive observations, so regime flapping (a key oscillating at
//!   the edge of a bucket) never thrashes the served model.

use crate::calibrate::CalibrationSet;
use crate::error::FacilityError;
use crate::metrics::MetricVector;
use crate::model::{ModelKind, PowerModel};
use crate::recalibrate::{Recalibrator, RefitPolicy};
use simkern::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// Bounded length of the drift-event and model-switch logs.
const EVENT_CAP: usize = 1024;

/// EWMA weight of the newest window in the bank's smoothed workload-mix
/// signal. Per-window mix is bursty (one write request can spike a 1 ms
/// window across a bucket boundary); the regime is the *sustained* mix,
/// so classification smooths over ~2/α windows before bucketing.
const MIX_EWMA_ALPHA: f64 = 0.1;

/// An operating regime: the discrete bucket a measurement window falls
/// into. One [`ModelBank`] slot exists per distinct key observed.
///
/// Keys order lexicographically (generation, then DVFS, then mix), which
/// fixes the bank's iteration order and keeps runs deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegimeKey {
    /// Hardware generation rank (see `hwsim::Machine::generation`).
    pub generation: u32,
    /// DVFS bucket: the mean frequency fraction in 5% steps
    /// (`round(fraction · 20)`, so nominal = 20, the 0.5 floor = 10).
    pub dvfs: u8,
    /// Workload-mix bucket: 0 = compute-heavy, 1 = mixed, 2 =
    /// memory-heavy, classified by memory transactions per busy cycle.
    pub mix: u8,
}

impl RegimeKey {
    /// Buckets raw regime signals into a key. `freq_fraction` is the
    /// machine's mean DVFS fraction; the workload mix is classified from
    /// `metrics` by memory transactions per *busy* cycle against
    /// `mix_thresholds` (two ascending cut points).
    pub fn classify(
        generation: u32,
        freq_fraction: f64,
        metrics: &MetricVector,
        mix_thresholds: [f64; 2],
    ) -> RegimeKey {
        RegimeKey {
            generation,
            dvfs: Self::dvfs_bucket(freq_fraction),
            mix: Self::mix_bucket(Self::mix_signal(metrics), mix_thresholds),
        }
    }

    /// The DVFS bucket for a mean frequency fraction (5% steps).
    pub fn dvfs_bucket(freq_fraction: f64) -> u8 {
        (freq_fraction.clamp(0.0, 1.0) * 20.0).round() as u8
    }

    /// The raw workload-mix signal of one window: memory transactions
    /// per busy cycle. `None` for an idle window (no busy cycles).
    pub fn mix_signal(metrics: &MetricVector) -> Option<f64> {
        (metrics.core > 1e-6).then(|| metrics.mem / metrics.core)
    }

    /// Buckets a mix signal against two ascending cut points.
    pub fn mix_bucket(signal: Option<f64>, mix_thresholds: [f64; 2]) -> u8 {
        let mem_per_busy = signal.unwrap_or(0.0);
        if mem_per_busy < mix_thresholds[0] {
            0
        } else if mem_per_busy < mix_thresholds[1] {
            1
        } else {
            2
        }
    }
}

impl fmt::Display for RegimeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}/f{}/m{}", self.generation, self.dvfs, self.mix)
    }
}

/// Drift-detection and slot-management policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftPolicy {
    /// CUSUM slack in Watts: residual magnitude below this is treated as
    /// measurement noise and decays the statistic.
    pub slack_w: f64,
    /// CUSUM trip threshold in Watt-windows: sustained divergence must
    /// accumulate this much excess residual before drift is declared.
    pub threshold_w: f64,
    /// Minimum samples in the slot's window before a drift trip may
    /// trigger a targeted retrain (a near-empty window cannot produce a
    /// meaningful fit).
    pub min_retrain_samples: usize,
    /// Consecutive rejected drift retrains after which the slot is
    /// quarantined behind the last-good fallback.
    pub quarantine_after: u32,
    /// Consecutive observations of a different regime key required
    /// before the bank switches its served slot.
    pub switch_hysteresis: u32,
}

impl Default for DriftPolicy {
    fn default() -> DriftPolicy {
        DriftPolicy {
            slack_w: 10.0,
            threshold_w: 60.0,
            min_retrain_samples: 8,
            quarantine_after: 3,
            switch_hysteresis: 3,
        }
    }
}

/// Model-bank configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BankConfig {
    /// Refit acceptance policy installed into every slot's recalibrator.
    pub refit_policy: RefitPolicy,
    /// Drift detection and selection policy.
    pub drift: DriftPolicy,
    /// Ascending cut points for the workload-mix bucket, in memory
    /// transactions per busy cycle (hardware caps at 0.05).
    pub mix_thresholds: [f64; 2],
    /// Largest number of live slots; creating one beyond this evicts the
    /// least-recently-used non-active slot.
    pub max_slots: usize,
}

impl Default for BankConfig {
    fn default() -> BankConfig {
        BankConfig {
            refit_policy: RefitPolicy::default(),
            drift: DriftPolicy::default(),
            mix_thresholds: [0.01, 0.04],
            max_slots: 16,
        }
    }
}

/// A drift detection: the CUSUM tripped on one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// When the trip was observed.
    pub at: SimTime,
    /// The diverging slot.
    pub slot: RegimeKey,
    /// The CUSUM statistic at the trip, in Watt-windows.
    pub cusum_w: f64,
    /// Whether a targeted retrain was attempted (it is skipped when the
    /// slot's window is still below `min_retrain_samples`).
    pub retrained: bool,
    /// Whether the targeted retrain produced an accepted fit.
    pub accepted: bool,
}

/// A served-slot switch after hysteresis confirmed a regime change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSwitch {
    /// When the switch took effect.
    pub at: SimTime,
    /// The previously served regime.
    pub from: RegimeKey,
    /// The newly served regime.
    pub to: RegimeKey,
    /// `true` when the target slot had no accepted fit yet (the bank
    /// serves the fallback until the fresh slot trains).
    pub to_fresh: bool,
}

/// Lifetime counters of the bank's adaptation actions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// CUSUM drift trips.
    pub drift_events: u64,
    /// Drift-triggered retrains that produced an accepted fit.
    pub drift_retrains: u64,
    /// Served-slot switches.
    pub model_switches: u64,
    /// Slots quarantined.
    pub models_quarantined: u64,
    /// Quarantined slots restored by an accepted retrain.
    pub models_restored: u64,
    /// Slots evicted by the LRU cap.
    pub slots_evicted: u64,
}

/// What one [`ModelBank::observe`] call did, for the caller to mirror
/// into degradation counters and telemetry.
#[derive(Debug, Default)]
pub struct BankOutcome {
    /// The served slot switched.
    pub switched: Option<ModelSwitch>,
    /// Drift was detected on the observed slot.
    pub drift: Option<DriftEvent>,
    /// A refit (periodic or drift-triggered) was accepted.
    pub refit_accepted: bool,
    /// A refit was attempted and rejected.
    pub refit_error: Option<FacilityError>,
    /// The rejected refit left a last-good model serving (the fallback
    /// path, mirroring the single-model `refit_fallbacks` counter).
    pub refit_fallback: bool,
    /// The observed slot was quarantined by this observation.
    pub quarantined: bool,
    /// The observed slot was restored from quarantine by an accepted
    /// retrain.
    pub restored: bool,
    /// The slot's online window was reset for staleness; carries the
    /// number of discarded samples.
    pub stale_reset_discarded: Option<usize>,
}

#[derive(Debug, Clone)]
struct BankSlot {
    recal: Recalibrator,
    quarantined: bool,
    cusum_w: f64,
    failed_retrains: u32,
    last_used: u64,
}

/// A bank of per-regime [`Recalibrator`]s with drift detection and
/// hysteresis selection. See the module docs for the design.
///
/// # Example
///
/// ```
/// use power_containers::{
///     BankConfig, CalibrationSample, CalibrationSet, MetricVector, ModelBank, ModelKind,
/// };
/// use simkern::SimTime;
///
/// let mut set = CalibrationSet::new(26.1);
/// for i in 1..=10 {
///     let u = i as f64 / 10.0;
///     set.push(CalibrationSample {
///         metrics: MetricVector { core: u, chipshare: 1.0, ..Default::default() },
///         active_watts: 8.0 * u + 5.6,
///     });
/// }
/// let initial = set.fit(ModelKind::WithChipShare).unwrap();
/// let mut bank =
///     ModelBank::new(&set, ModelKind::WithChipShare, initial, BankConfig::default(), 16);
/// let m = MetricVector { core: 1.0, chipshare: 1.0, ..Default::default() };
/// let key = bank.classify(0, 1.0, &m);
/// bank.observe(key, m, 13.6, SimTime::from_millis(1));
/// assert_eq!(bank.active(), Some(key));
/// assert_eq!(bank.slot_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ModelBank {
    calibration: CalibrationSet,
    kind: ModelKind,
    initial: PowerModel,
    config: BankConfig,
    recalibrate_every: usize,
    slots: BTreeMap<RegimeKey, BankSlot>,
    active: Option<RegimeKey>,
    candidate: Option<(RegimeKey, u32)>,
    global_last_good: Option<PowerModel>,
    mix_ewma: Option<f64>,
    events: Vec<DriftEvent>,
    switches: Vec<ModelSwitch>,
    stats: BankStats,
    tick: u64,
}

impl ModelBank {
    /// Creates an empty bank. `initial` (typically the offline fit) is
    /// served until any slot produces an accepted refit, and remains the
    /// fallback of last resort. A slot refits periodically after every
    /// `recalibrate_every` online samples; the facility passes its own
    /// [`crate::Cadence::recalibrate_every`].
    pub fn new(
        calibration: &CalibrationSet,
        kind: ModelKind,
        initial: PowerModel,
        config: BankConfig,
        recalibrate_every: usize,
    ) -> ModelBank {
        ModelBank {
            calibration: calibration.clone(),
            kind,
            initial,
            config,
            recalibrate_every,
            slots: BTreeMap::new(),
            active: None,
            candidate: None,
            global_last_good: None,
            mix_ewma: None,
            events: Vec::new(),
            switches: Vec::new(),
            stats: BankStats::default(),
            tick: 0,
        }
    }

    /// The bank's configuration.
    pub fn config(&self) -> &BankConfig {
        &self.config
    }

    /// Online samples between a slot's periodic (non-drift) refits.
    pub fn recalibrate_every(&self) -> usize {
        self.recalibrate_every
    }

    /// Buckets raw regime signals with this bank's mix thresholds. The
    /// workload-mix signal is smoothed with an EWMA across calls before
    /// bucketing (weight 0.1 per window: the regime is the sustained mix,
    /// not one bursty window); idle windows
    /// hold the previous smoothed value instead of dragging it to zero.
    pub fn classify(
        &mut self,
        generation: u32,
        freq_fraction: f64,
        metrics: &MetricVector,
    ) -> RegimeKey {
        let smoothed = match RegimeKey::mix_signal(metrics) {
            Some(raw) => {
                let s = match self.mix_ewma {
                    Some(prev) => prev + MIX_EWMA_ALPHA * (raw - prev),
                    None => raw,
                };
                self.mix_ewma = Some(s);
                Some(s)
            }
            None => self.mix_ewma,
        };
        RegimeKey {
            generation,
            dvfs: RegimeKey::dvfs_bucket(freq_fraction),
            mix: RegimeKey::mix_bucket(smoothed, self.config.mix_thresholds),
        }
    }

    /// The currently served regime, if any observation has arrived.
    pub fn active(&self) -> Option<RegimeKey> {
        self.active
    }

    /// Number of live slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// `true` when `key` has a slot that is currently quarantined.
    pub fn is_quarantined(&self, key: RegimeKey) -> bool {
        self.slots.get(&key).is_some_and(|s| s.quarantined)
    }

    /// The live regime keys, in deterministic (sorted) order.
    pub fn keys(&self) -> Vec<RegimeKey> {
        self.slots.keys().copied().collect()
    }

    /// Lifetime adaptation counters.
    pub fn stats(&self) -> BankStats {
        self.stats
    }

    /// The bounded drift-event log, oldest first.
    pub fn drift_events(&self) -> &[DriftEvent] {
        &self.events
    }

    /// The bounded model-switch log, oldest first.
    pub fn switches(&self) -> &[ModelSwitch] {
        &self.switches
    }

    /// The model the bank currently serves: the active slot's last
    /// accepted fit, unless that slot is quarantined or untrained, in
    /// which case the bank-wide last-good model (else the initial model)
    /// serves instead. A quarantined slot's own fit is never returned.
    pub fn current_model(&self) -> &PowerModel {
        match self.active {
            Some(key) => self.serving_model_for(key),
            None => &self.initial,
        }
    }

    fn serving_model_for(&self, key: RegimeKey) -> &PowerModel {
        if let Some(slot) = self.slots.get(&key) {
            if !slot.quarantined {
                if let Some(m) = slot.recal.last_good() {
                    return m;
                }
            }
        }
        self.global_last_good.as_ref().unwrap_or(&self.initial)
    }

    /// Feeds one aligned measurement window to the bank: updates the
    /// hysteresis selector with the observed `key`, routes the sample to
    /// `key`'s slot (creating it on first sight), advances that slot's
    /// drift CUSUM, and runs any due retrain. Samples always train the
    /// slot of the *observed* regime, even while hysteresis still serves
    /// the previous one — cross-regime windows never share an
    /// accumulator.
    pub fn observe(
        &mut self,
        key: RegimeKey,
        metrics: MetricVector,
        active_watts: f64,
        now: SimTime,
    ) -> BankOutcome {
        let mut out = BankOutcome::default();
        self.tick += 1;
        self.update_selection(key, now, &mut out);

        // Residual against the model this regime would be served by,
        // measured before the sample can influence any fit.
        let masked = PowerModel::mask_metrics(self.kind, metrics);
        let predicted = self.serving_model_for(key).active_power(&masked);
        let residual = (active_watts.max(0.0) - predicted).abs();

        self.ensure_slot(key);
        let policy = self.config.drift;
        let recalibrate_every = self.recalibrate_every;
        let Some(slot) = self.slots.get_mut(&key) else {
            return out; // unreachable: ensure_slot just inserted it
        };
        slot.last_used = self.tick;
        slot.recal.add_online_sample(metrics, active_watts);
        slot.cusum_w = (slot.cusum_w + residual - policy.slack_w).max(0.0);

        let drift_tripped = slot.cusum_w >= policy.threshold_w;
        let can_retrain = slot.recal.window_len() >= policy.min_retrain_samples;
        let periodic_due = slot.recal.samples_since_fit() >= recalibrate_every;
        if drift_tripped {
            let mut event = DriftEvent {
                at: now,
                slot: key,
                cusum_w: slot.cusum_w,
                retrained: can_retrain,
                accepted: false,
            };
            self.stats.drift_events += 1;
            if can_retrain {
                event.accepted = Self::retrain_slot(
                    &mut self.stats,
                    &mut self.global_last_good,
                    slot,
                    &policy,
                    true,
                    &mut out,
                );
                slot.cusum_w = 0.0;
            }
            out.drift = Some(event);
            push_bounded(&mut self.events, event);
        } else if periodic_due && can_retrain {
            Self::retrain_slot(
                &mut self.stats,
                &mut self.global_last_good,
                slot,
                &policy,
                false,
                &mut out,
            );
        }
        out
    }

    /// Runs one refit on `slot`, folding the result into `out`. Returns
    /// `true` when the fit was accepted.
    fn retrain_slot(
        stats: &mut BankStats,
        global_last_good: &mut Option<PowerModel>,
        slot: &mut BankSlot,
        policy: &DriftPolicy,
        drift_triggered: bool,
        out: &mut BankOutcome,
    ) -> bool {
        match slot.recal.refit() {
            Ok(model) => {
                slot.failed_retrains = 0;
                if slot.quarantined {
                    slot.quarantined = false;
                    out.restored = true;
                    stats.models_restored += 1;
                }
                if drift_triggered {
                    stats.drift_retrains += 1;
                }
                *global_last_good = Some(model);
                out.refit_accepted = true;
                true
            }
            Err(e) => {
                slot.failed_retrains += 1;
                out.refit_fallback =
                    slot.recal.last_good().is_some() || global_last_good.is_some();
                if drift_triggered
                    && !slot.quarantined
                    && slot.failed_retrains >= policy.quarantine_after
                {
                    slot.quarantined = true;
                    slot.cusum_w = 0.0;
                    out.quarantined = true;
                    stats.models_quarantined += 1;
                }
                if slot.recal.is_stale() {
                    out.stale_reset_discarded = Some(slot.recal.reset_online());
                }
                out.refit_error = Some(e);
                false
            }
        }
    }

    /// Hysteresis slot selection: the served slot only changes once the
    /// observed key has persisted for `switch_hysteresis` consecutive
    /// observations. The first observation ever adopts its key directly
    /// (there is nothing to protect yet).
    fn update_selection(&mut self, key: RegimeKey, now: SimTime, out: &mut BankOutcome) {
        let Some(active) = self.active else {
            self.active = Some(key);
            self.candidate = None;
            return;
        };
        if active == key {
            self.candidate = None;
            return;
        }
        let streak = match self.candidate {
            Some((cand, n)) if cand == key => n + 1,
            _ => 1,
        };
        if streak >= self.config.drift.switch_hysteresis {
            let to_fresh = self
                .slots
                .get(&key)
                .is_none_or(|s| s.quarantined || s.recal.last_good().is_none());
            let switch = ModelSwitch { at: now, from: active, to: key, to_fresh };
            self.active = Some(key);
            self.candidate = None;
            self.stats.model_switches += 1;
            out.switched = Some(switch);
            push_bounded(&mut self.switches, switch);
        } else {
            self.candidate = Some((key, streak));
        }
    }

    /// Creates `key`'s slot if absent, evicting the least-recently-used
    /// non-active slot when the bank is at capacity.
    fn ensure_slot(&mut self, key: RegimeKey) {
        if self.slots.contains_key(&key) {
            return;
        }
        if self.slots.len() >= self.config.max_slots.max(1) {
            let victim = self
                .slots
                .iter()
                .filter(|(k, _)| Some(**k) != self.active)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k);
            if let Some(v) = victim {
                self.slots.remove(&v);
                self.stats.slots_evicted += 1;
            }
        }
        let mut recal = Recalibrator::new(&self.calibration, self.kind);
        recal.set_policy(self.config.refit_policy);
        self.slots.insert(
            key,
            BankSlot {
                recal,
                quarantined: false,
                cusum_w: 0.0,
                failed_retrains: 0,
                last_used: self.tick,
            },
        );
    }
}

fn push_bounded<T>(log: &mut Vec<T>, item: T) {
    if log.len() >= EVENT_CAP {
        log.remove(0);
    }
    log.push(item);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::CalibrationSample;
    use crate::metrics::FEATURES;

    fn offline_set() -> CalibrationSet {
        let mut set = CalibrationSet::new(26.1);
        for level in [0.25, 0.5, 0.75, 1.0f64] {
            for f in 0..6 {
                let mut a = [0.0; FEATURES];
                a[0] = level;
                a[f] = level;
                a[5] = 1.0;
                let truth = [8.0, 3.0, 1.5, 3.5, 2.0, 5.6, 0.0, 0.0];
                let watts: f64 = a.iter().zip(truth).map(|(x, c)| x * c).sum();
                set.push(CalibrationSample {
                    metrics: MetricVector::from_slice(&a),
                    active_watts: watts,
                });
            }
        }
        set
    }

    fn bank(config: BankConfig) -> ModelBank {
        let set = offline_set();
        let initial = set.fit(ModelKind::WithChipShare).unwrap();
        ModelBank::new(&set, ModelKind::WithChipShare, initial, config, 8)
    }

    fn busy_metrics() -> MetricVector {
        MetricVector { core: 1.0, ins: 2.0, chipshare: 1.0, ..Default::default() }
    }

    /// True power for `busy_metrics` under the calibration-time law.
    fn busy_watts() -> f64 {
        8.0 + 2.0 * 3.0 + 5.6
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn classify_buckets_regimes() {
        let m = busy_metrics();
        let k = RegimeKey::classify(0, 1.0, &m, [0.01, 0.03]);
        assert_eq!(k, RegimeKey { generation: 0, dvfs: 20, mix: 0 });
        let k = RegimeKey::classify(1, 0.75, &m, [0.01, 0.03]);
        assert_eq!((k.generation, k.dvfs), (1, 15));
        // Memory-heavy: 0.04 mem txns per busy cycle exceeds both cuts.
        let mem = MetricVector { core: 0.5, mem: 0.02, ..Default::default() };
        assert_eq!(RegimeKey::classify(0, 1.0, &mem, [0.01, 0.03]).mix, 2);
        // Mixed band.
        let mixed = MetricVector { core: 1.0, mem: 0.02, ..Default::default() };
        assert_eq!(RegimeKey::classify(0, 1.0, &mixed, [0.01, 0.03]).mix, 1);
        // Idle window defaults to compute bucket.
        let idle = MetricVector::default();
        assert_eq!(RegimeKey::classify(0, 1.0, &idle, [0.01, 0.03]).mix, 0);
        assert_eq!(k.to_string(), "g1/f15/m0");
    }

    #[test]
    fn first_observation_adopts_without_switch_event() {
        let mut b = bank(BankConfig::default());
        let key = b.classify(0, 1.0, &busy_metrics());
        let out = b.observe(key, busy_metrics(), busy_watts(), t(1));
        assert!(out.switched.is_none());
        assert_eq!(b.active(), Some(key));
        assert_eq!(b.stats().model_switches, 0);
    }

    #[test]
    fn hysteresis_suppresses_flapping_but_confirms_real_shifts() {
        let mut b = bank(BankConfig::default());
        let a = RegimeKey { generation: 0, dvfs: 20, mix: 0 };
        let z = RegimeKey { generation: 0, dvfs: 15, mix: 0 };
        b.observe(a, busy_metrics(), busy_watts(), t(1));
        // Alternating keys never persist: no switch however long it runs.
        for i in 0..40 {
            let k = if i % 2 == 0 { z } else { a };
            let out = b.observe(k, busy_metrics(), busy_watts(), t(2 + i));
            assert!(out.switched.is_none(), "flapping must not switch");
        }
        assert_eq!(b.active(), Some(a));
        // A persistent shift switches after exactly `switch_hysteresis`
        // consecutive observations.
        let h = b.config().drift.switch_hysteresis;
        let mut switched_at = None;
        for i in 0..h {
            let out = b.observe(z, busy_metrics(), busy_watts(), t(100 + u64::from(i)));
            if out.switched.is_some() {
                switched_at = Some(i + 1);
            }
        }
        assert_eq!(switched_at, Some(h));
        assert_eq!(b.active(), Some(z));
        assert_eq!(b.stats().model_switches, 1);
        assert_eq!(b.switches().len(), 1);
        assert_eq!(b.switches()[0].from, a);
        assert_eq!(b.switches()[0].to, z);
    }

    #[test]
    fn periodic_refit_trains_the_active_slot() {
        let mut b = bank(BankConfig::default());
        let key = b.classify(0, 1.0, &busy_metrics());
        // Production power runs 6 W above the calibration law.
        let truth = busy_watts() + 6.0;
        let mut accepted = 0;
        for i in 0..40 {
            let out = b.observe(key, busy_metrics(), truth, t(1 + i));
            if out.refit_accepted {
                accepted += 1;
            }
        }
        assert!(accepted > 0, "periodic refits must fire");
        let masked = PowerModel::mask_metrics(ModelKind::WithChipShare, busy_metrics());
        let served = b.current_model().active_power(&masked);
        assert!(
            (served - truth).abs() / truth < 0.05,
            "served {served:.1} vs truth {truth:.1}"
        );
    }

    #[test]
    fn drift_trips_and_retrains_targeted_slot() {
        let mut b = bank(BankConfig::default());
        let key = b.classify(0, 1.0, &busy_metrics());
        // Train the slot at calibration-law power first.
        for i in 0..20 {
            b.observe(key, busy_metrics(), busy_watts(), t(1 + i));
        }
        assert_eq!(b.stats().drift_events, 0, "steady state must not trip");
        // The regime's physics change in place: +20 W sustained.
        let mut tripped = false;
        for i in 0..30 {
            let out = b.observe(key, busy_metrics(), busy_watts() + 20.0, t(100 + i));
            if let Some(ev) = out.drift {
                assert_eq!(ev.slot, key);
                assert!(ev.cusum_w >= b.config().drift.threshold_w);
                tripped = true;
                break;
            }
        }
        assert!(tripped, "sustained 20 W divergence must trip the CUSUM");
        assert!(b.stats().drift_events >= 1);
        assert_eq!(b.drift_events().len(), b.stats().drift_events as usize);
    }

    #[test]
    fn quarantine_engages_on_persistent_rejection_and_restores() {
        let mut cfg = BankConfig::default();
        // Make every refit rejectable: a condition limit of 1 fails all.
        cfg.refit_policy.max_condition = 1.0;
        cfg.drift.quarantine_after = 2;
        let mut b = bank(cfg);
        let key = b.classify(0, 1.0, &busy_metrics());
        let mut quarantined = false;
        for i in 0..200 {
            // Wild oscillation keeps the CUSUM tripping.
            let w = if i % 2 == 0 { 0.0 } else { 120.0 };
            let out = b.observe(key, busy_metrics(), w, t(1 + i));
            if out.quarantined {
                quarantined = true;
                break;
            }
        }
        assert!(quarantined, "persistent rejection must quarantine");
        assert!(b.is_quarantined(key));
        assert_eq!(b.stats().models_quarantined, 1);
        // Quarantined slot serves the fallback (initial model here: no
        // fit was ever accepted).
        let masked = PowerModel::mask_metrics(ModelKind::WithChipShare, busy_metrics());
        let served = b.current_model().active_power(&masked);
        assert!((served - busy_watts()).abs() < 1.0, "fallback must serve");
        // The fault clears and refits are acceptable again: the slot
        // restores on the next accepted retrain.
        let mut relaxed = b.config().clone();
        relaxed.refit_policy.max_condition = 1e10;
        let policy = relaxed.refit_policy;
        b.config = relaxed;
        if let Some(slot) = b.slots.get_mut(&key) {
            slot.recal.set_policy(policy);
            slot.recal.reset_online();
        }
        let mut restored = false;
        for i in 0..60 {
            let out = b.observe(key, busy_metrics(), busy_watts(), t(1000 + i));
            if out.restored {
                restored = true;
                break;
            }
        }
        assert!(restored, "accepted retrain must lift quarantine");
        assert!(!b.is_quarantined(key));
        assert_eq!(b.stats().models_restored, 1);
    }

    #[test]
    fn lru_cap_evicts_oldest_non_active_slot() {
        let cfg = BankConfig { max_slots: 2, ..BankConfig::default() };
        let mut b = bank(cfg);
        let k = |d: u8| RegimeKey { generation: 0, dvfs: d, mix: 0 };
        b.observe(k(20), busy_metrics(), busy_watts(), t(1));
        b.observe(k(19), busy_metrics(), busy_watts(), t(2));
        assert_eq!(b.slot_count(), 2);
        // Third regime evicts k(20)? No: k(20) is still active (hysteresis
        // hasn't switched), so the LRU *non-active* victim is k(19).
        b.observe(k(18), busy_metrics(), busy_watts(), t(3));
        assert_eq!(b.slot_count(), 2);
        assert_eq!(b.keys(), vec![k(18), k(20)]);
        assert_eq!(b.stats().slots_evicted, 1);
    }

    #[test]
    fn revisited_regime_is_served_instantly() {
        let mut b = bank(BankConfig::default());
        let fast = RegimeKey { generation: 0, dvfs: 20, mix: 0 };
        let slow = RegimeKey { generation: 0, dvfs: 15, mix: 0 };
        // Train both regimes with different laws.
        for i in 0..40 {
            b.observe(fast, busy_metrics(), busy_watts() + 6.0, t(1 + i));
        }
        for i in 0..40 {
            b.observe(slow, busy_metrics(), busy_watts() - 6.0, t(100 + i));
        }
        assert_eq!(b.active(), Some(slow));
        // Coming back to `fast`: after the hysteresis window the slot's
        // trained model serves immediately, no retraining needed.
        let before = b.stats();
        for i in 0..4 {
            b.observe(fast, busy_metrics(), busy_watts() + 6.0, t(200 + i));
        }
        assert_eq!(b.active(), Some(fast));
        let masked = PowerModel::mask_metrics(ModelKind::WithChipShare, busy_metrics());
        let served = b.current_model().active_power(&masked);
        let truth = busy_watts() + 6.0;
        assert!(
            (served - truth).abs() / truth < 0.05,
            "revisit must serve the trained model: {served:.1} vs {truth:.1}"
        );
        assert_eq!(b.stats().drift_events, before.drift_events, "no drift on revisit");
    }

    #[test]
    fn event_logs_stay_bounded() {
        let mut log = Vec::new();
        for i in 0..(EVENT_CAP + 10) {
            push_bounded(&mut log, i);
        }
        assert_eq!(log.len(), EVENT_CAP);
        assert_eq!(log[0], 10);
    }
}
