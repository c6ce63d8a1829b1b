//! The power-container facility: the paper's kernel modification, as an
//! [`ossim::KernelHooks`] implementation.
//!
//! The facility composes everything in this crate:
//!
//! * per-core counter sampling at context switches, PMU overflow
//!   interrupts, and request-context binding changes (§3.3);
//! * the Eq. 2 power model with Eq. 3 chip-share estimation (§3.1);
//! * measurement alignment and online least-squares recalibration (§3.2);
//! * per-request energy accounting in reference-counted containers, with
//!   a special background container for untagged activity;
//! * fair power conditioning through per-core duty-cycle modulation
//!   (§3.4) and per-request I/O energy attribution.
//!
//! Experiments keep an `Rc<RefCell<FacilityState>>` handle to read
//! containers and model state after (or during) a run.

use crate::align::{AlignmentResult, DelayEstimator, Reading, ALIGN_WINDOW};
use crate::calibrate::CalibrationSet;
use crate::chipshare::SampleBoard;
use crate::conditioning::ConditioningPolicy;
use crate::container::{ContainerManager, RecordRetention};
use crate::error::FacilityError;
use crate::metrics::{DegradeStats, MetricVector};
use crate::model::{ModelKind, PowerModel};
use crate::modelbank::{BankConfig, ModelBank};
use crate::recalibrate::Recalibrator;
use crate::trace::TraceRing;
use hwsim::{CoreId, CounterBlock, DeviceKind, MachineSpec, MeterId};
use ossim::{ContextId, KernelApi, KernelHooks, TaskId};
use simkern::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use telemetry::FieldValue;

/// The event cost of one container-maintenance operation (§3.5): counter
/// reads, model evaluation, and statistics updates perturb the very
/// counters being sampled. The paper measures 2948 cycles, 1656
/// instructions, 16 floating-point operations, 3 LLC references and no
/// measurable memory transactions per operation.
pub const MAINTENANCE_BUNDLE: CounterBlock = CounterBlock {
    elapsed_cycles: 0.0,
    nonhalt_cycles: 2948.0,
    instructions: 1656.0,
    flops: 16.0,
    cache_refs: 3.0,
    mem_txns: 0.0,
};

/// Grid resolution of the facility's model and metrics history traces.
pub const TRACE_SLOT: SimDuration = SimDuration::from_millis(1);

/// How often the facility acts on the reports of the meter it polls: an
/// alignment scan after every [`Cadence::align_every`] reports, a model
/// refit after every [`Cadence::recalibrate_every`] aligned samples.
///
/// The paper aligns and refits against its 1 ms on-chip meter and its
/// 1 s Wattsup with one algorithm (§3.2, Eq. 4); only these two counts
/// depend on the meter, through its report period. A scan waits for 4 s
/// of reports and a refit for 2 s of samples, but neither for more than
/// 16: a 1 s meter scans every 4 reports and refits every 2, since 16 of
/// its reports would leave the model unaligned and unrefit for 16 s; a
/// 1 ms meter does both every 16, since scanning each new reading would
/// repeat the cross-correlation over nearly the same window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cadence {
    /// Meter reports between alignment scans.
    pub align_every: usize,
    /// Aligned online samples between model refits (the model bank's
    /// per-slot periodic refits included).
    pub recalibrate_every: usize,
}

impl Cadence {
    /// The cadence for a meter that reports every `period`.
    ///
    /// ```
    /// use power_containers::Cadence;
    /// use simkern::SimDuration;
    ///
    /// let wattsup = Cadence::for_meter(SimDuration::from_secs(1));
    /// assert_eq!((wattsup.align_every, wattsup.recalibrate_every), (4, 2));
    /// let on_chip = Cadence::for_meter(SimDuration::from_millis(1));
    /// assert_eq!((on_chip.align_every, on_chip.recalibrate_every), (16, 16));
    /// ```
    pub fn for_meter(period: SimDuration) -> Cadence {
        let reports_in = |span: SimDuration| {
            (span.as_nanos() / period.as_nanos().max(1)).clamp(1, 16) as usize
        };
        Cadence {
            align_every: reports_in(SimDuration::from_secs(4)),
            recalibrate_every: reports_in(SimDuration::from_secs(2)),
        }
    }
}

/// The three accounting approaches compared in the paper's Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// #1: linear model on core-level events only (Eq. 1).
    CoreEventsOnly,
    /// #2: adds shared chip maintenance power attribution (Eq. 2/3).
    ChipShare,
    /// #3: #2 plus measurement-aligned online recalibration (§3.2).
    Recalibrated,
}

impl Approach {
    /// The model structure this approach uses.
    pub fn model_kind(self) -> ModelKind {
        match self {
            Approach::CoreEventsOnly => ModelKind::CoreEventsOnly,
            Approach::ChipShare | Approach::Recalibrated => ModelKind::WithChipShare,
        }
    }

    /// All approaches, in the paper's order.
    pub const ALL: [Approach; 3] =
        [Approach::CoreEventsOnly, Approach::ChipShare, Approach::Recalibrated];
}

/// Facility configuration.
#[derive(Debug, Clone)]
pub struct FacilityConfig {
    /// Which accounting approach to run.
    pub approach: Approach,
    /// Periodic sampling interval, expressed as non-halt CPU time (the
    /// PMU threshold is this many cycles at full speed). Default 1 ms.
    pub sample_period: SimDuration,
    /// Model the observer effect: inject [`MAINTENANCE_BUNDLE`] per
    /// maintenance operation into the hardware counters.
    pub observer_effect: bool,
    /// Compensate for the observer effect by subtracting injected events
    /// from sampled deltas (§3.5).
    pub compensate_observer: bool,
    /// Apply the paper's stale-record correction in Eq. 3: treat a
    /// sibling core as inactive when the scheduler currently runs its
    /// idle task. Disabling this is the staleness ablation — idle
    /// siblings' last (possibly old) samples then dilute the share.
    pub sibling_idle_check: bool,
    /// Fair power conditioning policy, if enabled.
    pub conditioning: Option<ConditioningPolicy>,
    /// Name of the meter used for alignment/recalibration (e.g.
    /// `"on-chip"` or `"wattsup"`); `None` disables both. Its report
    /// period sets the facility's [`Cadence`].
    pub meter: Option<&'static str>,
    /// The meter's reading on an idle machine, measured at calibration
    /// time; subtracted to obtain active power.
    pub meter_idle_w: f64,
    /// Largest measurement delay scanned.
    pub max_meter_delay: SimDuration,
    /// Delay scan resolution.
    pub align_step: SimDuration,
    /// Self-calibrating model bank: when set (and the approach is
    /// [`Approach::Recalibrated`]), online samples train one model per
    /// operating regime with drift detection instead of the single
    /// rolling recalibrator. See [`crate::ModelBank`].
    pub model_bank: Option<BankConfig>,
    /// What the container manager keeps of each completed request (see
    /// [`RecordRetention`]). The default keeps a full
    /// [`crate::ContainerRecord`], which the single-machine experiments
    /// and examples read. Fleet nodes keep the 16-byte
    /// [`crate::RequestEnergy`] their dispatcher's end-of-run accounting
    /// reads, or full records when energy provenance asks for labels,
    /// creation times and throttled joules. Calibration and overhead
    /// runs keep nothing.
    pub retain_records: RecordRetention,
    /// Additionally track modeled energy per task — used by the Fig. 4
    /// stage-breakdown analysis of a multi-stage request.
    pub track_per_task: bool,
    /// History trace capacity in [`TRACE_SLOT`]s. The history feeds
    /// only meter alignment, recalibration and the `*_between` queries,
    /// so 0 keeps none: the facility then skips the trace writes
    /// altogether, and [`FacilityState::modeled_power_between`] and
    /// [`FacilityState::metrics_between`] answer `None`. A facility with
    /// a [`FacilityConfig::meter`] needs history to align against, so
    /// [`PowerContainerFacility::try_new`] rejects 0 there.
    pub trace_capacity: usize,
    /// Trace recorder for attribution, alignment, recalibration,
    /// conditioning and degradation events. Disabled by default; every
    /// emission site is guarded so the disabled path costs one branch.
    pub telemetry: telemetry::Telemetry,
}

impl Default for FacilityConfig {
    fn default() -> FacilityConfig {
        FacilityConfig {
            approach: Approach::ChipShare,
            sample_period: SimDuration::from_millis(1),
            observer_effect: true,
            compensate_observer: true,
            sibling_idle_check: true,
            conditioning: None,
            meter: None,
            meter_idle_w: 0.0,
            max_meter_delay: SimDuration::from_millis(2000),
            align_step: SimDuration::from_millis(1),
            model_bank: None,
            retain_records: RecordRetention::Full,
            track_per_task: false,
            trace_capacity: 8192,
            telemetry: telemetry::Telemetry::disabled(),
        }
    }
}

#[derive(Debug, Clone, Default)]
struct CoreSampler {
    last: CounterBlock,
    pending_maint: u32,
}

/// The online-recalibration engine behind [`Approach::Recalibrated`]:
/// either the paper's single rolling recalibrator, or the
/// regime-keyed model bank with drift detection.
#[derive(Debug, Clone)]
enum RecalEngine {
    Single(Recalibrator),
    Bank(ModelBank),
}

/// `true` when a counter delta is physically impossible: negative event
/// counts (an overflow wrap ran backwards), busy time exceeding wall
/// time, or per-cycle event rates beyond what any core can retire (a
/// glitch injected phantom events). The additive slack absorbs injected
/// maintenance bundles on short intervals; real faults overshoot these
/// bounds by orders of magnitude.
fn counter_anomaly(delta: &CounterBlock) -> bool {
    const SLACK: f64 = 1e5;
    let e = delta.elapsed_cycles;
    delta.nonhalt_cycles < 0.0
        || delta.instructions < 0.0
        || delta.flops < 0.0
        || delta.cache_refs < 0.0
        || delta.mem_txns < 0.0
        || delta.nonhalt_cycles > e + SLACK
        || delta.instructions > 16.0 * e + SLACK
        || delta.flops > 16.0 * e + SLACK
        || delta.cache_refs > 4.0 * e + SLACK
        || delta.mem_txns > 4.0 * e + SLACK
}

/// Shared facility state; experiments hold a handle via
/// [`PowerContainerFacility::state`].
pub struct FacilityState {
    config: FacilityConfig,
    cadence: Cadence,
    spec: MachineSpec,
    model: PowerModel,
    containers: ContainerManager,
    board: SampleBoard,
    cores: Vec<CoreSampler>,
    model_trace: TraceRing<f64>,
    metrics_trace: TraceRing<MetricVector>,
    estimator: Option<DelayEstimator>,
    recalibrator: Option<RecalEngine>,
    meter_id: Option<MeterId>,
    meter_period: SimDuration,
    aligned_delay: Option<SimDuration>,
    last_alignment: Option<AlignmentResult>,
    pending_readings: Vec<Reading>,
    reports_since_align: usize,
    last_window_end: Option<SimTime>,
    maintenance_ops: u64,
    refits: u64,
    degrade: DegradeStats,
    last_degradation: Option<FacilityError>,
    per_task_energy: std::collections::HashMap<TaskId, (f64, f64)>,
}

impl FacilityState {
    /// The configuration the facility was built with.
    pub fn config(&self) -> &FacilityConfig {
        &self.config
    }

    /// The current power model (offline or recalibrated).
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// The container manager (live containers, records, totals).
    pub fn containers(&self) -> &ContainerManager {
        &self.containers
    }

    /// Mutable container access (labels, per-request caps).
    pub fn containers_mut(&mut self) -> &mut ContainerManager {
        &mut self.containers
    }

    /// The most recent alignment scan result (Fig. 2's curve).
    pub fn last_alignment(&self) -> Option<&AlignmentResult> {
        self.last_alignment.as_ref()
    }

    /// The currently estimated measurement delay.
    pub fn aligned_delay(&self) -> Option<SimDuration> {
        self.aligned_delay
    }

    /// The recent meter readings retained for alignment (oldest first).
    pub fn recent_readings(&self) -> Vec<crate::align::Reading> {
        self.estimator
            .as_ref()
            .map(|e| e.readings().copied().collect())
            .unwrap_or_default()
    }

    /// The recalibration meter's window length, when a meter is attached.
    pub fn meter_period(&self) -> SimDuration {
        self.meter_period
    }

    /// A live operator report of where power is going right now.
    pub fn power_report(&self) -> crate::report::PowerReport {
        crate::report::PowerReport::capture(&self.containers)
    }

    /// Total container-maintenance operations performed.
    pub fn maintenance_ops(&self) -> u64 {
        self.maintenance_ops
    }

    /// Number of online model refits performed.
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Counters of every graceful-degradation decision taken so far.
    pub fn degrade_stats(&self) -> DegradeStats {
        self.degrade
    }

    /// The self-calibrating model bank, when
    /// [`FacilityConfig::model_bank`] selected the bank engine.
    pub fn model_bank(&self) -> Option<&ModelBank> {
        match &self.recalibrator {
            Some(RecalEngine::Bank(b)) => Some(b),
            _ => None,
        }
    }

    /// The most recent recoverable failure the facility degraded around.
    pub fn last_degradation(&self) -> Option<&FacilityError> {
        self.last_degradation.as_ref()
    }

    /// Modeled machine active power averaged over `[t0, t1)` (Fig. 3's
    /// model series).
    pub fn modeled_power_between(&self, t0: SimTime, t1: SimTime) -> Option<f64> {
        self.model_trace.mean_over_wall(t0, t1)
    }

    /// Modeled `(energy_j, busy_seconds)` attributed to one task; only
    /// populated when [`FacilityConfig::track_per_task`] is on.
    pub fn task_energy(&self, task: TaskId) -> Option<(f64, f64)> {
        self.per_task_energy.get(&task).copied()
    }

    /// Machine-level metric vector averaged over `[t0, t1)` — used by the
    /// offline calibration procedure to pair counter metrics with
    /// measured power windows.
    pub fn metrics_between(&self, t0: SimTime, t1: SimTime) -> Option<MetricVector> {
        self.metrics_trace.mean_over_wall(t0, t1)
    }

    /// One container-maintenance operation for `core` (§3.3): read
    /// counters, compute the interval metrics and chip share, evaluate the
    /// model, and attribute energy to `principal`'s container.
    ///
    /// `principal` is `None` when the interval was idle (snapshot reset
    /// only); `Some(None)` attributes to the background container.
    fn sample_core(
        &mut self,
        api: &mut KernelApi<'_>,
        core: CoreId,
        principal: Option<Option<ContextId>>,
        task: Option<TaskId>,
    ) {
        let now = api.now;
        let cum = api.machine.counters(core);
        let mut delta = cum - self.cores[core.0].last;
        self.cores[core.0].last = cum;
        let pending = std::mem::take(&mut self.cores[core.0].pending_maint);
        if delta.elapsed_cycles <= 0.0 {
            return;
        }
        let Some(ctx) = principal else {
            // Idle interval: publish zero activity for Eq. 3 readers.
            self.board.publish(core, 0.0, now);
            return;
        };
        if counter_anomaly(&delta) {
            // A glitched or wrapped counter corrupted this interval: the
            // snapshot above already resynchronized to the new cumulative
            // values, so drop the window instead of attributing garbage
            // energy (and keep it out of the alignment traces).
            self.degrade.samples_rejected += 1;
            self.last_degradation = Some(FacilityError::CounterAnomaly { core: core.0 });
            if self.config.telemetry.enabled() {
                self.config.telemetry.instant(
                    now,
                    "degrade",
                    "counter_anomaly",
                    &[("core", FieldValue::U64(core.0 as u64))],
                );
                self.config.telemetry.add_count("degrade.samples_rejected", 1);
            }
            return;
        }
        if self.config.compensate_observer && pending > 0 {
            let mut bundle = MAINTENANCE_BUNDLE;
            let n = pending as f64;
            bundle.nonhalt_cycles *= n;
            bundle.instructions *= n;
            bundle.flops *= n;
            bundle.cache_refs *= n;
            bundle.mem_txns *= n;
            delta = delta.saturating_sub_events(&bundle);
        }
        let dt_secs = delta.elapsed_cycles / (self.spec.freq_ghz * 1e9);
        let mut metrics = MetricVector::from_counters(&delta);
        self.board.publish(core, metrics.core, now);
        let idle_check = self.config.sibling_idle_check;
        metrics.chipshare = self.board.chipshare(core, metrics.core, |c| idle_check && api.is_idle(c));
        let watts = self.model.active_power(&metrics);
        let duty = api.machine.duty_cycle(core).fraction();
        self.containers.attribute(ctx, watts, duty, dt_secs, &delta, now);
        if self.config.telemetry.enabled() {
            let energy_j = match ctx {
                Some(c) => self.containers.get(c).map_or(0.0, |p| p.energy_j()),
                None => self.containers.background().energy_j(),
            };
            self.config.telemetry.instant(
                now,
                "attr",
                "sample",
                &[
                    ("core", FieldValue::U64(core.0 as u64)),
                    ("ctx", FieldValue::I64(ctx.map_or(-1, |c| c.0 as i64))),
                    ("watts", FieldValue::F64(watts)),
                    ("dt_ms", FieldValue::F64(dt_secs * 1e3)),
                    ("energy_j", FieldValue::F64(energy_j)),
                ],
            );
            self.config.telemetry.observe("attr.watts", watts);
            self.config.telemetry.add_count("attr.samples", 1);
        }
        if self.config.track_per_task {
            if let Some(t) = task {
                let e = self.per_task_energy.entry(t).or_insert((0.0, 0.0));
                e.0 += watts * dt_secs;
                e.1 += dt_secs;
            }
        }
        // Machine-level traces for alignment/recalibration. Peripheral
        // device activity is folded in separately at I/O completion.
        if self.keeps_history() {
            let dt = SimDuration::from_secs_f64(dt_secs);
            self.model_trace.add(now, watts, dt);
            self.metrics_trace.add(now, metrics, dt);
        }
        // The maintenance operation itself perturbs the counters (§3.5).
        if self.config.observer_effect {
            api.machine.inject_events(core, &MAINTENANCE_BUNDLE);
            self.cores[core.0].pending_maint += 1;
        }
        self.maintenance_ops += 1;
    }

    /// `false` when [`FacilityConfig::trace_capacity`] is 0: the history
    /// rings keep nothing, so nothing needs writing to them.
    fn keeps_history(&self) -> bool {
        self.config.trace_capacity > 0
    }

    /// Applies the conditioning policy to `core` for the request `ctx`
    /// about to run (or running) there. `extra_busy` accounts for a task
    /// being dispatched in the same instant that the scheduler view does
    /// not yet reflect.
    fn condition(
        &mut self,
        api: &mut KernelApi<'_>,
        core: CoreId,
        ctx: Option<ContextId>,
        extra_busy: usize,
    ) {
        let Some(policy) = self.config.conditioning else { return };
        let busy = (0..api.core_count())
            .filter(|&c| api.running_task(CoreId(c)).is_some())
            .count()
            + extra_busy;
        let (unthrottled, cap, exhausted) = match ctx.and_then(|c| self.containers.get(c)) {
            Some(cont) => (
                cont.unthrottled_power_w(),
                cont.power_cap_w(),
                cont.over_energy_budget(),
            ),
            None => (0.0, None, false),
        };
        let duty = if exhausted {
            // Out of energy budget: run at the hardware floor until done.
            hwsim::DutyCycle::MIN
        } else {
            policy.duty_for(unthrottled, busy, cap)
        };
        if duty != hwsim::DutyCycle::FULL && self.config.telemetry.enabled() {
            self.config.telemetry.instant_on(
                api.now,
                "cond",
                "throttle",
                2,
                &[
                    ("core", FieldValue::U64(core.0 as u64)),
                    ("ctx", FieldValue::I64(ctx.map_or(-1, |c| c.0 as i64))),
                    ("eighths", FieldValue::U64(u64::from(duty.eighths()))),
                    ("budget_exhausted", FieldValue::Str(if exhausted { "yes" } else { "no" })),
                ],
            );
            self.config.telemetry.add_count("cond.throttles", 1);
        }
        api.machine.set_duty_cycle(core, duty);
    }

    fn arm_pmu(&self, api: &mut KernelApi<'_>, core: CoreId) {
        let cycles = self.spec.cycles_in(self.config.sample_period);
        api.machine.set_pmu_threshold(core, Some(cycles));
    }

    /// Drains newly visible meter reports, re-estimates the measurement
    /// delay periodically, and feeds aligned windows to the recalibrator.
    ///
    /// Reports leave the meter's queue one at a time, so a poll collects
    /// nothing but the readings it feeds on; every reading is drained by
    /// the end of the poll, and a rebooted node's fast-forward backlog
    /// hands its room back under the meter queue's own rule.
    ///
    /// Every step degrades gracefully: dropped meter windows are counted
    /// as gaps, a low-scoring or ambiguous alignment scan keeps the
    /// previous delay estimate, and a rejected refit keeps serving the
    /// last good model (resetting the online accumulator once the
    /// rejection streak exceeds the staleness bound).
    fn poll_meter(&mut self, api: &mut KernelApi<'_>) {
        let Some(id) = self.meter_id else { return };
        for r in api.machine.drain_meter_reports(id) {
            // A hole between consecutive report windows means the meter
            // dropped at least one window.
            if let Some(end) = self.last_window_end {
                if r.window_start > end {
                    self.degrade.meter_gaps += 1;
                    if self.config.telemetry.enabled() {
                        let gap = r.window_start.duration_since(end);
                        self.config.telemetry.instant(
                            r.visible_at,
                            "degrade",
                            "meter_gap",
                            &[("gap_ms", FieldValue::F64(gap.as_millis_f64()))],
                        );
                        self.config.telemetry.add_count("degrade.meter_gaps", 1);
                    }
                }
            }
            self.last_window_end = Some(r.window_end);
            let reading = Reading { arrived_at: r.visible_at, watts: r.avg_watts };
            if let Some(e) = &mut self.estimator {
                e.push(reading);
            }
            self.pending_readings.push(reading);
            self.reports_since_align += 1;
        }
        // The buffer is empty between polls, so empty here means no
        // report arrived.
        if self.pending_readings.is_empty() {
            return;
        }
        if self.reports_since_align >= self.cadence.align_every {
            self.reports_since_align = 0;
            if let Some(e) = &mut self.estimator {
                match e.estimate_checked(&self.model_trace) {
                    Ok(result) => {
                        if self.config.telemetry.enabled() {
                            self.config.telemetry.instant(
                                api.now,
                                "align",
                                "scan",
                                &[
                                    ("delay_ms", FieldValue::F64(result.delay.as_millis_f64())),
                                    ("score", FieldValue::F64(result.score)),
                                ],
                            );
                            self.config.telemetry.observe("align.score", result.score);
                            self.config.telemetry.add_count("align.scans", 1);
                        }
                        self.aligned_delay = Some(result.delay);
                        self.last_alignment = Some(result);
                    }
                    Err(e) => {
                        // Keep the previous delay estimate (if any).
                        self.degrade.align_fallbacks += 1;
                        if self.config.telemetry.enabled() {
                            self.config.telemetry.instant(
                                api.now,
                                "degrade",
                                "align_fallback",
                                &[("kind", FieldValue::Str(e.kind()))],
                            );
                            self.config.telemetry.add_count("degrade.align_fallbacks", 1);
                        }
                        self.last_degradation = Some(e);
                    }
                }
            }
        }
        self.feed_recalibrator(api);
        let readings = &mut self.pending_readings;
        if let Some(keep) = hwsim::meter::room_after_drain(readings.capacity(), readings.len()) {
            readings.shrink_to(keep);
        }
    }

    /// Feeds the poll's readings, aligned by the current delay estimate,
    /// to the recalibrator and refits when one is due. Every path drains
    /// the readings.
    fn feed_recalibrator(&mut self, api: &mut KernelApi<'_>) {
        let (Some(delay), Some(engine)) = (self.aligned_delay, self.recalibrator.as_mut())
        else {
            self.pending_readings.clear();
            return;
        };
        match engine {
            RecalEngine::Single(recal) => {
                let mut refit_due = false;
                for r in self.pending_readings.drain(..) {
                    let end = r.arrived_at - delay;
                    let start = end - self.meter_period;
                    if let Some(metrics) = self.metrics_trace.mean_over_wall(start, end) {
                        recal.add_online_sample(metrics, r.watts - self.config.meter_idle_w);
                        if recal.samples_since_fit() >= self.cadence.recalibrate_every {
                            refit_due = true;
                        }
                    }
                }
                if !refit_due {
                    return;
                }
                match recal.refit() {
                    Ok(model) => {
                        self.model = model;
                        self.refits += 1;
                        if self.config.telemetry.enabled() {
                            self.config.telemetry.instant(
                                api.now,
                                "recal",
                                "refit",
                                &[("n", FieldValue::U64(self.refits))],
                            );
                            self.config.telemetry.add_count("recal.refits", 1);
                        }
                    }
                    Err(e) => {
                        // The served model is whatever was accepted last, so
                        // rejecting the candidate *is* the fallback.
                        self.degrade.refits_rejected += 1;
                        if self.config.telemetry.enabled() {
                            self.config.telemetry.instant(
                                api.now,
                                "degrade",
                                "refit_rejected",
                                &[("kind", FieldValue::Str(e.kind()))],
                            );
                            self.config.telemetry.add_count("degrade.refits_rejected", 1);
                        }
                        if recal.last_good().is_some() {
                            self.degrade.refit_fallbacks += 1;
                            if self.config.telemetry.enabled() {
                                self.config.telemetry.instant(
                                    api.now,
                                    "degrade",
                                    "refit_fallback",
                                    &[],
                                );
                            }
                        }
                        if recal.is_stale() {
                            // Bounded staleness: the online accumulator is
                            // poisoned beyond recovery — rebuild it from a
                            // clean window.
                            let discarded = recal.reset_online();
                            self.degrade.stale_model_resets += 1;
                            if self.config.telemetry.enabled() {
                                self.config.telemetry.instant(
                                    api.now,
                                    "degrade",
                                    "stale_reset",
                                    &[("discarded", FieldValue::U64(discarded as u64))],
                                );
                                self.config.telemetry.add_count("degrade.stale_resets", 1);
                            }
                        }
                        self.last_degradation = Some(e);
                    }
                }
            }
            RecalEngine::Bank(bank) => {
                // Regime signals: generation and DVFS come from the
                // machine at poll time, the workload-mix bucket from each
                // window's own metrics inside `classify`.
                let generation = api.machine.generation();
                let freq = api.machine.mean_freq_fraction();
                let tele_on = self.config.telemetry.enabled();
                for r in self.pending_readings.drain(..) {
                    let end = r.arrived_at - delay;
                    let start = end - self.meter_period;
                    let Some(metrics) = self.metrics_trace.mean_over_wall(start, end)
                    else {
                        continue;
                    };
                    let key = bank.classify(generation, freq, &metrics);
                    let out = bank.observe(
                        key,
                        metrics,
                        r.watts - self.config.meter_idle_w,
                        api.now,
                    );
                    if let Some(sw) = out.switched {
                        self.degrade.model_switches += 1;
                        if tele_on {
                            self.config.telemetry.instant(
                                api.now,
                                "bank",
                                "switch",
                                &[
                                    ("from_gen", FieldValue::U64(u64::from(sw.from.generation))),
                                    ("from_dvfs", FieldValue::U64(u64::from(sw.from.dvfs))),
                                    ("from_mix", FieldValue::U64(u64::from(sw.from.mix))),
                                    ("to_gen", FieldValue::U64(u64::from(sw.to.generation))),
                                    ("to_dvfs", FieldValue::U64(u64::from(sw.to.dvfs))),
                                    ("to_mix", FieldValue::U64(u64::from(sw.to.mix))),
                                    ("fresh", FieldValue::Str(if sw.to_fresh { "yes" } else { "no" })),
                                ],
                            );
                            self.config.telemetry.add_count("bank.switches", 1);
                        }
                    }
                    if let Some(ev) = out.drift {
                        self.degrade.drift_events += 1;
                        if tele_on {
                            self.config.telemetry.instant(
                                api.now,
                                "drift",
                                "detect",
                                &[
                                    ("gen", FieldValue::U64(u64::from(ev.slot.generation))),
                                    ("dvfs", FieldValue::U64(u64::from(ev.slot.dvfs))),
                                    ("mix", FieldValue::U64(u64::from(ev.slot.mix))),
                                    ("cusum_w", FieldValue::F64(ev.cusum_w)),
                                    ("retrained", FieldValue::Str(if ev.retrained { "yes" } else { "no" })),
                                ],
                            );
                            self.config.telemetry.add_count("drift.detects", 1);
                        }
                        if ev.retrained {
                            if ev.accepted {
                                self.degrade.drift_retrains += 1;
                            }
                            if tele_on {
                                self.config.telemetry.instant(
                                    api.now,
                                    "drift",
                                    "retrain",
                                    &[
                                        ("gen", FieldValue::U64(u64::from(ev.slot.generation))),
                                        ("dvfs", FieldValue::U64(u64::from(ev.slot.dvfs))),
                                        ("mix", FieldValue::U64(u64::from(ev.slot.mix))),
                                        ("accepted", FieldValue::Str(if ev.accepted { "yes" } else { "no" })),
                                    ],
                                );
                                self.config.telemetry.add_count("drift.retrains", 1);
                            }
                        }
                    }
                    if out.refit_accepted {
                        self.refits += 1;
                        if tele_on {
                            self.config.telemetry.instant(
                                api.now,
                                "recal",
                                "refit",
                                &[("n", FieldValue::U64(self.refits))],
                            );
                            self.config.telemetry.add_count("recal.refits", 1);
                        }
                    }
                    if let Some(e) = out.refit_error {
                        self.degrade.refits_rejected += 1;
                        if tele_on {
                            self.config.telemetry.instant(
                                api.now,
                                "degrade",
                                "refit_rejected",
                                &[("kind", FieldValue::Str(e.kind()))],
                            );
                            self.config.telemetry.add_count("degrade.refits_rejected", 1);
                        }
                        if out.refit_fallback {
                            self.degrade.refit_fallbacks += 1;
                            if tele_on {
                                self.config.telemetry.instant(
                                    api.now,
                                    "degrade",
                                    "refit_fallback",
                                    &[],
                                );
                            }
                        }
                        self.last_degradation = Some(e);
                    }
                    if out.quarantined {
                        self.degrade.models_quarantined += 1;
                        if tele_on {
                            self.config.telemetry.instant(
                                api.now,
                                "bank",
                                "quarantine",
                                &[
                                    ("gen", FieldValue::U64(u64::from(key.generation))),
                                    ("dvfs", FieldValue::U64(u64::from(key.dvfs))),
                                    ("mix", FieldValue::U64(u64::from(key.mix))),
                                ],
                            );
                            self.config.telemetry.add_count("bank.quarantines", 1);
                        }
                    }
                    if out.restored && tele_on {
                        self.config.telemetry.instant(
                            api.now,
                            "bank",
                            "restore",
                            &[
                                ("gen", FieldValue::U64(u64::from(key.generation))),
                                ("dvfs", FieldValue::U64(u64::from(key.dvfs))),
                                ("mix", FieldValue::U64(u64::from(key.mix))),
                            ],
                        );
                        self.config.telemetry.add_count("bank.restores", 1);
                    }
                    if let Some(discarded) = out.stale_reset_discarded {
                        self.degrade.stale_model_resets += 1;
                        if tele_on {
                            self.config.telemetry.instant(
                                api.now,
                                "degrade",
                                "stale_reset",
                                &[("discarded", FieldValue::U64(discarded as u64))],
                            );
                            self.config.telemetry.add_count("degrade.stale_resets", 1);
                        }
                    }
                }
                // Serve whatever the bank now holds for the active regime
                // (slot fit, last-good fallback, or the offline model).
                self.model = bank.current_model().clone();
            }
        }
    }
}

impl std::fmt::Debug for FacilityState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FacilityState")
            .field("approach", &self.config.approach)
            .field("maintenance_ops", &self.maintenance_ops)
            .field("refits", &self.refits)
            .field("live_containers", &self.containers.live_count())
            .finish()
    }
}

/// The installable facility. Construct with
/// [`PowerContainerFacility::new`], keep the [`state`] handle, and pass
/// the facility to [`ossim::Kernel::install_hooks`].
///
/// [`state`]: PowerContainerFacility::state
///
/// # Example
///
/// ```
/// use hwsim::{Machine, MachineSpec};
/// use ossim::{Kernel, KernelConfig};
/// use power_containers::{
///     CalibrationSet, FacilityConfig, ModelKind, PowerContainerFacility, PowerModel,
/// };
///
/// let spec = MachineSpec::sandybridge();
/// let model = PowerModel::new(ModelKind::WithChipShare, 26.1, [8.0; 8]);
/// let facility = PowerContainerFacility::new(model, None, &spec, FacilityConfig::default());
/// let state = facility.state();
/// let mut kernel = Kernel::new(Machine::new(spec, 1), KernelConfig::default());
/// kernel.install_hooks(Box::new(facility));
/// assert_eq!(state.borrow().maintenance_ops(), 0);
/// ```
pub struct PowerContainerFacility {
    state: Rc<RefCell<FacilityState>>,
}

impl PowerContainerFacility {
    /// Creates a facility for a machine with `spec`, starting from
    /// `model`. `calibration` supplies the offline sample set needed when
    /// the approach is [`Approach::Recalibrated`].
    ///
    /// # Panics
    ///
    /// Panics if the approach is `Recalibrated` but no calibration set or
    /// meter was provided; [`PowerContainerFacility::try_new`] returns
    /// the misconfiguration as an error instead.
    pub fn new(
        model: PowerModel,
        calibration: Option<&CalibrationSet>,
        spec: &MachineSpec,
        config: FacilityConfig,
    ) -> PowerContainerFacility {
        match Self::try_new(model, calibration, spec, config) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// [`FacilityError::CalibrationMissing`] /
    /// [`FacilityError::MeterMissing`] when the approach is
    /// [`Approach::Recalibrated`] but the offline calibration set or the
    /// meter name was not provided;
    /// [`FacilityError::MeterWithoutHistory`] when a meter is named but
    /// [`FacilityConfig::trace_capacity`] is 0, which would leave
    /// alignment an empty trace to scan forever.
    pub fn try_new(
        model: PowerModel,
        calibration: Option<&CalibrationSet>,
        spec: &MachineSpec,
        config: FacilityConfig,
    ) -> Result<PowerContainerFacility, FacilityError> {
        let meter_period = spec
            .meters
            .iter()
            .find(|m| Some(m.name) == config.meter)
            .map_or(SimDuration::from_millis(1), |m| m.period);
        let cadence = Cadence::for_meter(meter_period);
        let recalibrator = if config.approach == Approach::Recalibrated {
            let cal = calibration.ok_or(FacilityError::CalibrationMissing)?;
            if config.meter.is_none() {
                return Err(FacilityError::MeterMissing);
            }
            let kind = config.approach.model_kind();
            Some(match &config.model_bank {
                Some(bank_cfg) => RecalEngine::Bank(ModelBank::new(
                    cal,
                    kind,
                    model.clone(),
                    bank_cfg.clone(),
                    cadence.recalibrate_every,
                )),
                None => RecalEngine::Single(Recalibrator::new(cal, kind)),
            })
        } else {
            None
        };
        if let (Some(meter), 0) = (config.meter, config.trace_capacity) {
            return Err(FacilityError::MeterWithoutHistory { meter });
        }
        let cores = spec.total_cores();
        let state = FacilityState {
            cadence,
            spec: spec.clone(),
            model,
            containers: ContainerManager::new(config.retain_records),
            board: SampleBoard::new(spec),
            cores: vec![CoreSampler::default(); cores],
            model_trace: TraceRing::new(TRACE_SLOT, config.trace_capacity),
            metrics_trace: TraceRing::new(TRACE_SLOT, config.trace_capacity),
            estimator: None, // needs the meter period, resolved at boot
            recalibrator,
            meter_id: None,
            meter_period,
            aligned_delay: None,
            last_alignment: None,
            pending_readings: Vec::new(),
            reports_since_align: 0,
            last_window_end: None,
            maintenance_ops: 0,
            refits: 0,
            degrade: DegradeStats::default(),
            last_degradation: None,
            per_task_energy: std::collections::HashMap::new(),
            config,
        };
        Ok(PowerContainerFacility { state: Rc::new(RefCell::new(state)) })
    }

    /// A shared handle onto the facility's state.
    pub fn state(&self) -> Rc<RefCell<FacilityState>> {
        Rc::clone(&self.state)
    }
}

impl KernelHooks for PowerContainerFacility {
    fn on_boot(&mut self, api: &mut KernelApi<'_>) {
        let mut s = self.state.borrow_mut();
        if s.config.telemetry.enabled() {
            s.config
                .telemetry
                .register_histogram("attr.watts", &[1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0]);
            s.config
                .telemetry
                .register_histogram("align.score", &[0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99]);
        }
        for c in 0..api.core_count() {
            s.cores[c].last = api.machine.counters(CoreId(c));
            s.arm_pmu(api, CoreId(c));
        }
        if let Some(name) = s.config.meter {
            s.meter_id = api.machine.find_meter(name);
            if let Some(id) = s.meter_id {
                let spec = api.machine.meter_spec(id).clone();
                s.meter_period = spec.period;
                s.estimator = Some(DelayEstimator::new(
                    spec.period,
                    s.config.max_meter_delay,
                    s.config.align_step,
                    ALIGN_WINDOW,
                ));
            }
        }
    }

    fn on_context_switch(
        &mut self,
        api: &mut KernelApi<'_>,
        core: CoreId,
        prev: Option<TaskId>,
        next: Option<TaskId>,
    ) {
        let mut s = self.state.borrow_mut();
        let principal = prev.map(|t| api.context_of(t));
        s.sample_core(api, core, principal, prev);
        if next.is_some() {
            let next_ctx = next.and_then(|t| api.context_of(t));
            s.condition(api, core, next_ctx, 1);
        } else if s.config.conditioning.is_some() {
            // Idle cores return to full speed for the next dispatch.
            api.machine.set_duty_cycle(core, hwsim::DutyCycle::FULL);
        }
    }

    fn on_pmu_interrupt(&mut self, api: &mut KernelApi<'_>, core: CoreId, task: TaskId) {
        let mut s = self.state.borrow_mut();
        let ctx = api.context_of(task);
        s.sample_core(api, core, Some(ctx), Some(task));
        s.arm_pmu(api, core);
        s.condition(api, core, ctx, 0);
        s.poll_meter(api);
        if s.config.telemetry.enabled() {
            // Satellite of §10 telemetry: kernel and facility activity
            // counters are queryable mid-run (not only at teardown), so
            // each PMU interrupt refreshes the live gauges.
            let ks = api.kernel_stats();
            let tele = &s.config.telemetry;
            tele.set_gauge("kernel.context_switches", ks.context_switches as f64);
            tele.set_gauge("kernel.pmu_interrupts", ks.pmu_interrupts as f64);
            tele.set_gauge("kernel.messages", ks.messages as f64);
            tele.set_gauge("facility.maintenance_ops", s.maintenance_ops as f64);
            tele.set_gauge("facility.live_containers", s.containers.live_count() as f64);
            tele.set_gauge("facility.refits", s.refits as f64);
            tele.set_gauge("facility.degrade_total", s.degrade.total() as f64);
        }
    }

    fn on_context_bound(
        &mut self,
        api: &mut KernelApi<'_>,
        task: TaskId,
        old: Option<ContextId>,
        new: Option<ContextId>,
        core: Option<CoreId>,
    ) {
        let mut s = self.state.borrow_mut();
        // The pre-binding slice belongs to the old context.
        if let Some(core) = core {
            s.sample_core(api, core, Some(old), Some(task));
        }
        let now = api.now;
        if let Some(o) = old {
            s.containers.unbind(o, now);
        }
        if let Some(n) = new {
            s.containers.bind(n, now);
        }
    }

    fn on_task_created(
        &mut self,
        api: &mut KernelApi<'_>,
        _task: TaskId,
        _parent: Option<TaskId>,
        ctx: Option<ContextId>,
    ) {
        if let Some(c) = ctx {
            self.state.borrow_mut().containers.bind(c, api.now);
        }
    }

    fn on_task_exit(&mut self, api: &mut KernelApi<'_>, task: TaskId, ctx: Option<ContextId>) {
        let mut s = self.state.borrow_mut();
        // Attribute the exiting task's final CPU slice *before* releasing
        // its container; the context-switch hook that follows would
        // otherwise attribute it to a fresh, orphaned container.
        let core = (0..api.core_count())
            .map(CoreId)
            .find(|&c| api.running_task(c) == Some(task));
        if let Some(core) = core {
            s.sample_core(api, core, Some(ctx), Some(task));
        }
        if let Some(c) = ctx {
            s.containers.unbind(c, api.now);
        }
    }

    fn on_io_complete(
        &mut self,
        api: &mut KernelApi<'_>,
        device: DeviceKind,
        _task: TaskId,
        ctx: Option<ContextId>,
        _bytes: u64,
        seconds: f64,
    ) {
        let mut s = self.state.borrow_mut();
        let coeff = match device {
            DeviceKind::Disk => s.model.coefficients()[6],
            DeviceKind::Net => s.model.coefficients()[7],
        };
        s.containers.attribute_io(ctx, coeff * seconds, api.now);
        if !s.keeps_history() {
            return;
        }
        // Backfill the device's active span into the machine-level
        // traces, slot by slot, so alignment/recalibration sees it.
        let now = api.now;
        let slot = TRACE_SLOT;
        let mut t = now - SimDuration::from_secs_f64(seconds);
        let mut unit = MetricVector::default();
        match device {
            DeviceKind::Disk => unit.disk = 1.0,
            DeviceKind::Net => unit.net = 1.0,
        }
        while t < now {
            let slot_end = SimTime::from_nanos(
                (t.as_nanos() / slot.as_nanos() + 1) * slot.as_nanos(),
            );
            let chunk_end = slot_end.min(now);
            let dt = chunk_end.duration_since(t);
            s.metrics_trace.add(chunk_end, unit, dt);
            s.model_trace.add(chunk_end, coeff, dt);
            t = chunk_end;
        }
    }
}

impl std::fmt::Debug for PowerContainerFacility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.state.borrow().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facility(meter: Option<&'static str>, trace_capacity: usize) -> Result<(), FacilityError> {
        let spec = MachineSpec::sandybridge();
        let model = PowerModel::new(crate::ModelKind::WithChipShare, 26.1, [8.0; 8]);
        let config = FacilityConfig { meter, trace_capacity, ..FacilityConfig::default() };
        PowerContainerFacility::try_new(model, None, &spec, config).map(|_| ())
    }

    #[test]
    fn a_meter_needs_history() {
        let err = facility(Some("on-chip"), 0).expect_err("no history to align against");
        assert_eq!(err, FacilityError::MeterWithoutHistory { meter: "on-chip" });
        assert_eq!(err.kind(), "meter_without_history");
        // Without a meter nothing reads the history, so none is fine; a
        // meter with any history at all is too.
        assert_eq!(facility(None, 0), Ok(()));
        assert_eq!(facility(Some("on-chip"), 1), Ok(()));
    }
}
