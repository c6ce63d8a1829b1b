//! The simulated machine: cores, counters, meters, devices.

use crate::activity::{caps, ActivityProfile, DeviceKind};
use crate::counters::CounterBlock;
use crate::faults::{CounterFault, FaultConfig, FaultInjector, FaultLog, MeterFault};
use crate::meter::{MeterId, MeterReport, MeterScope, MeterState};
use crate::spec::MachineSpec;
use crate::DutyCycle;
use simkern::work::{self, Work};
use simkern::{SimDuration, SimRng, SimTime};

/// Identifies one CPU core on a machine (flat index across chips).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

#[derive(Debug, Clone)]
struct CoreState {
    /// The chip this core sits on, kept so the per-event rate lookup
    /// needs no division.
    chip: usize,
    running: Option<ActivityProfile>,
    duty: DutyCycle,
    counters: CounterBlock,
    /// PMU overflow threshold in non-halt cycles, if armed.
    pmu_threshold: Option<f64>,
    /// Non-halt cycles accumulated since the PMU was last reset.
    pmu_count: f64,
}

impl CoreState {
    fn new(chip: crate::ChipId) -> CoreState {
        CoreState {
            chip: chip.0,
            running: None,
            duty: DutyCycle::FULL,
            counters: CounterBlock::default(),
            pmu_threshold: None,
            pmu_count: 0.0,
        }
    }
}

#[derive(Debug, Clone)]
struct DeviceState {
    active: bool,
    busy_seconds: f64,
}

/// A chip-wide DVFS operating point: the fraction of nominal frequency a
/// package runs at. Unlike duty-cycle modulation (per-core, linear in
/// power), DVFS applies to the whole chip and scales active power
/// super-linearly (`P ∝ f·V²` with voltage tracking frequency) — the
/// paper picks duty-cycling for per-request control precisely because
/// DVFS on its machines was not per-core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqScale(f64);

impl FreqScale {
    /// Nominal frequency.
    pub const NOMINAL: FreqScale = FreqScale(1.0);

    /// Creates an operating point; `None` unless `0.5 <= scale <= 1.0`
    /// (the typical DVFS range).
    pub fn new(scale: f64) -> Option<FreqScale> {
        (0.5..=1.0).contains(&scale).then_some(FreqScale(scale))
    }

    /// The frequency fraction.
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// The active-power multiplier at this point: `f · V(f)²` with a
    /// linear voltage/frequency relation `V = 0.6 + 0.4·f` (normalized).
    pub fn power_factor(self) -> f64 {
        let v = 0.6 + 0.4 * self.0;
        self.0 * v * v
    }

    /// One step (5%) slower, saturating at the 0.5 floor.
    pub fn slower(self) -> FreqScale {
        FreqScale((self.0 - 0.05).max(0.5))
    }

    /// One step (5%) faster, saturating at nominal.
    pub fn faster(self) -> FreqScale {
        FreqScale((self.0 + 0.05).min(1.0))
    }
}

impl Default for FreqScale {
    fn default() -> FreqScale {
        FreqScale::NOMINAL
    }
}

/// A simulated multicore machine.
///
/// The machine is passive: the OS layer calls [`Machine::set_running`] /
/// [`Machine::set_duty_cycle`] at scheduling points and
/// [`Machine::advance_to`] to integrate hardware state forward in time.
/// Within one advance interval, per-core state is constant, so integration
/// is exact.
///
/// # Example
///
/// ```
/// use hwsim::{ActivityProfile, CoreId, Machine, MachineSpec};
/// use simkern::SimTime;
///
/// let mut m = Machine::new(MachineSpec::sandybridge(), 7);
/// m.set_running(CoreId(0), Some(ActivityProfile::high_ipc()));
/// m.advance_to(SimTime::from_millis(5));
/// assert!(m.counters(CoreId(0)).instructions > 0.0);
/// // An idle sibling accumulated elapsed cycles but no busy cycles.
/// assert_eq!(m.counters(CoreId(1)).nonhalt_cycles, 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    spec: MachineSpec,
    cores: Vec<CoreState>,
    meters: Vec<MeterState>,
    devices: [DeviceState; 2],
    chip_freq: Vec<FreqScale>,
    /// Hardware generation rank, exposed to the OS as a regime signal
    /// (think DMI product identification). Starts at the spec's rank and
    /// is bumped by [`Machine::swap_truth`] on an in-place upgrade.
    generation: u32,
    now: SimTime,
    rng: SimRng,
    /// Fault injection (inert by default); draws from its own seeded
    /// streams so the fault-free simulation is bit-identical with or
    /// without it.
    faults: FaultInjector,
    /// Lifetime true energy drawn by the whole machine, in Joules
    /// (noise-free; used by experiments as the "perfect" reference).
    true_energy_j: f64,
    /// Lifetime true energy excluding idle power, in Joules.
    true_active_energy_j: f64,
    /// True `(active, package)` power for the current core, chip and
    /// device state, once computed. A setter that changes that state
    /// clears it; the next integrated segment refills it.
    power: Option<(f64, f64)>,
}

impl Machine {
    /// Creates a machine at time zero.
    pub fn new(spec: MachineSpec, seed: u64) -> Machine {
        let cores = (0..spec.total_cores())
            .map(|c| CoreState::new(spec.chip_of(c)))
            .collect();
        let meters = spec.meters.iter().cloned().map(MeterState::new).collect();
        Machine {
            cores,
            meters,
            devices: [
                DeviceState { active: false, busy_seconds: 0.0 },
                DeviceState { active: false, busy_seconds: 0.0 },
            ],
            chip_freq: vec![FreqScale::NOMINAL; spec.chips],
            generation: spec.generation_rank(),
            now: SimTime::ZERO,
            rng: SimRng::new(seed).split(0x4D45_5452), // "METR"
            faults: FaultInjector::disabled(),
            true_energy_j: 0.0,
            true_active_energy_j: 0.0,
            power: None,
            spec,
        }
    }

    /// The machine's static specification.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sets what `core` is running (`None` = halted/idle). Takes effect for
    /// all subsequently integrated time.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_running(&mut self, core: CoreId, profile: Option<ActivityProfile>) {
        let c = &mut self.cores[core.0];
        if c.running != profile {
            self.power = None;
        }
        c.running = profile;
    }

    /// The profile `core` is currently running, if any.
    pub fn running(&self, core: CoreId) -> Option<ActivityProfile> {
        self.cores[core.0].running
    }

    /// `true` when `core` currently has work.
    pub fn is_busy(&self, core: CoreId) -> bool {
        self.cores[core.0].running.is_some()
    }

    /// Sets `core`'s duty-cycle modulation level.
    pub fn set_duty_cycle(&mut self, core: CoreId, duty: DutyCycle) {
        let c = &mut self.cores[core.0];
        if c.duty != duty {
            self.power = None;
            c.duty = duty;
        }
    }

    /// `core`'s current duty-cycle level.
    pub fn duty_cycle(&self, core: CoreId) -> DutyCycle {
        self.cores[core.0].duty
    }

    /// Sets a chip's DVFS operating point; affects every core on it.
    pub fn set_chip_freq(&mut self, chip: crate::ChipId, scale: FreqScale) {
        self.chip_freq[chip.0] = scale;
        self.power = None;
    }

    /// A chip's current DVFS operating point.
    pub fn chip_freq(&self, chip: crate::ChipId) -> FreqScale {
        self.chip_freq[chip.0]
    }

    /// Mean frequency fraction across all chips — the machine-level DVFS
    /// regime signal the metering layer keys models on.
    pub fn mean_freq_fraction(&self) -> f64 {
        let sum: f64 = self.chip_freq.iter().map(|f| f.fraction()).sum();
        sum / self.chip_freq.len() as f64
    }

    /// The machine's hardware generation rank (0 = newest preset). The
    /// OS reads this as a regime signal; it carries no physical behaviour
    /// by itself.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Overrides the generation rank without touching physical behaviour
    /// (e.g. a cluster topology assigning fleet-wide ranks).
    pub fn set_generation(&mut self, generation: u32) {
        self.generation = generation;
    }

    /// Replaces the hidden ground-truth power law and generation rank in
    /// place — a rolling hardware upgrade under an unchanged workload.
    /// Counters, meters, and accumulated energy are preserved; only
    /// power drawn after the swap follows the new law. Call between
    /// [`Machine::advance_to`] segments so the old law is integrated
    /// exactly up to the swap instant.
    pub fn swap_truth(&mut self, truth: crate::GroundTruthPower, generation: u32) {
        self.spec.truth = truth;
        self.generation = generation;
        self.power = None;
    }

    /// The rate at which `core` executes non-halt cycles, in GHz,
    /// combining nominal frequency, chip DVFS, and duty-cycle modulation.
    pub fn effective_rate_ghz(&self, core: CoreId) -> f64 {
        let c = &self.cores[core.0];
        self.spec.freq_ghz * self.chip_freq[c.chip].fraction() * c.duty.fraction()
    }

    /// Cumulative hardware counters for `core`.
    pub fn counters(&self, core: CoreId) -> CounterBlock {
        self.cores[core.0].counters
    }

    /// Mean core utilization so far: busy cycles over elapsed cycles,
    /// averaged over every core.
    pub fn mean_utilization(&self) -> f64 {
        let sum: f64 = self.cores.iter().map(|c| c.counters.core_utilization()).sum();
        sum / self.cores.len() as f64
    }

    /// Arms (or with `None`, disarms) the PMU overflow interrupt on `core`
    /// and resets its overflow counter: the interrupt fires after
    /// `threshold` further non-halt cycles.
    ///
    /// # Panics
    ///
    /// Panics if a provided threshold is not strictly positive.
    pub fn set_pmu_threshold(&mut self, core: CoreId, threshold: Option<f64>) {
        if let Some(t) = threshold {
            assert!(t > 0.0, "PMU threshold must be positive");
        }
        let c = &mut self.cores[core.0];
        c.pmu_threshold = threshold;
        c.pmu_count = 0.0;
    }

    /// Wall-clock time until `core` has executed `cycles` further
    /// non-halt cycles (a compute op's remaining work; `None` for no such
    /// bound) or reached its PMU threshold, whichever comes first, given
    /// its current profile and duty cycle: the deadline of the core's
    /// next tick. The PMU bound counts only while the PMU is armed and
    /// the core is busy (non-halt cycles stop accumulating on a halted
    /// core, matching the paper's interrupt-suppression-when-idle
    /// behaviour). `None` when neither bound applies or the core runs
    /// no cycles at all.
    ///
    /// Both bounds are converted at the same rate, and dividing by a
    /// positive rate and [`SimDuration::covering_nanos`] are both
    /// monotone, so converting the smaller cycle count alone gives the
    /// nearer of the two deadlines bit for bit with one division.
    pub fn time_until_cycles_or_pmu(
        &self,
        core: CoreId,
        cycles: Option<f64>,
    ) -> Option<SimDuration> {
        let c = &self.cores[core.0];
        let pmu = match (c.pmu_threshold, c.running) {
            (Some(threshold), Some(_)) => Some((threshold - c.pmu_count).max(0.0)),
            _ => None,
        };
        let nearest = match (cycles, pmu) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => a.or(b)?,
        };
        let cycles_per_ns = self.effective_rate_ghz(core);
        if cycles_per_ns <= 0.0 {
            return None;
        }
        // Round up to whole nanoseconds (and at least one) so a scheduled
        // deadline always advances simulated time past the bound; a
        // zero-length deadline would fire without the counter moving.
        Some(SimDuration::covering_nanos(nearest / cycles_per_ns))
    }

    /// `true` if `core`'s PMU has reached its threshold.
    pub fn pmu_expired(&self, core: CoreId) -> bool {
        let c = &self.cores[core.0];
        matches!(c.pmu_threshold, Some(t) if c.pmu_count + 1e-6 >= t)
    }

    /// Marks a peripheral device active or idle.
    pub fn set_device_active(&mut self, kind: DeviceKind, active: bool) {
        let d = &mut self.devices[kind.index()];
        if d.active != active {
            self.power = None;
            d.active = active;
        }
    }

    /// `true` if the given device is currently active.
    pub fn device_active(&self, kind: DeviceKind) -> bool {
        self.devices[kind.index()].active
    }

    /// Cumulative seconds the device has spent active.
    pub fn device_busy_seconds(&self, kind: DeviceKind) -> f64 {
        self.devices[kind.index()].busy_seconds
    }

    /// Instantaneous true power of the whole machine in Watts, including
    /// idle power. Useful for tests; the model must instead use meters.
    pub fn true_power_watts(&self) -> f64 {
        self.true_active_power_watts() + self.spec.truth.machine_idle_w()
    }

    /// Instantaneous true *active* power (whole machine minus idle).
    pub fn true_active_power_watts(&self) -> f64 {
        self.true_power().0
    }

    /// Instantaneous true package power (packages only, including package
    /// idle but not platform or devices) — what an on-chip meter sees.
    pub fn true_package_power_watts(&self) -> f64 {
        self.true_power().1
    }

    /// True `(active, package)` power: the cached pair, or a fresh one.
    fn true_power(&self) -> (f64, f64) {
        self.power.unwrap_or_else(|| self.compute_true_power())
    }

    /// True `(active, package)` power from scratch, in one pass over the
    /// cores. The two sums share every per-core and per-chip term and
    /// each adds its terms in chip, then core order; active power then
    /// adds the busy devices, package power starts from package idle.
    fn compute_true_power(&self) -> (f64, f64) {
        let truth = &self.spec.truth;
        let mut active = 0.0;
        let mut pkg = truth.pkg_idle_w;
        for (chip, scale) in self.chip_freq.iter().enumerate() {
            let dvfs = scale.power_factor();
            let mut chip_busy = false;
            for c in &self.cores[self.spec.cores_of(crate::ChipId(chip))] {
                let core = dvfs * truth.core_active_power(c.running.as_ref(), c.duty);
                active += core;
                pkg += core;
                chip_busy |= c.running.is_some();
            }
            if chip_busy {
                let maintenance = dvfs * truth.chip_maintenance_w;
                active += maintenance;
                pkg += maintenance;
            }
        }
        if self.devices[DeviceKind::Disk.index()].active {
            active += truth.disk_w;
        }
        if self.devices[DeviceKind::Net.index()].active {
            active += truth.net_w;
        }
        (active, pkg)
    }

    /// Lifetime true machine energy in Joules (idle included, noise-free).
    pub fn true_energy_j(&self) -> f64 {
        self.true_energy_j
    }

    /// Lifetime true *active* machine energy in Joules.
    pub fn true_active_energy_j(&self) -> f64 {
        self.true_active_energy_j
    }

    /// Number of meters attached.
    pub fn meter_count(&self) -> usize {
        self.meters.len()
    }

    /// The spec of meter `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn meter_spec(&self, id: MeterId) -> &crate::MeterSpec {
        &self.meters[id.0].spec
    }

    /// The meter with the given name, if present.
    pub fn find_meter(&self, name: &str) -> Option<MeterId> {
        self.meters.iter().position(|m| m.spec.name == name).map(MeterId)
    }

    /// Takes the reports of meter `id` that are visible by the machine's
    /// current time out of its queue, one at a time and in window order.
    /// Nothing is collected: each report leaves the queue as the
    /// iterator yields it, and reports it has not yet yielded when
    /// dropped stay queued. Once it runs dry, a drained backlog of more
    /// than 128 reports (a rebooted node fast-forwards from time zero)
    /// hands its spare room back. A meter whose reports are not kept
    /// ([`Machine::keep_reports_of`]) yields nothing.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn drain_meter_reports(&mut self, id: MeterId) -> impl Iterator<Item = MeterReport> + '_ {
        let now = self.now;
        let meter = &mut self.meters[id.0];
        std::iter::from_fn(move || meter.pop_visible(now))
    }

    /// Keeps the reports of the meter named `meter` and of no other; with
    /// `None`, of no meter at all. A machine keeps every meter's reports
    /// until this is called. A meter nobody reads still integrates,
    /// closes every window and takes its noise and fault draws, so
    /// counters, energy, every random stream, the fault log and the kept
    /// meter's reports keep their bits; it just queues no report, and
    /// drops any it holds.
    pub fn keep_reports_of(&mut self, meter: Option<&str>) {
        for m in &mut self.meters {
            m.set_read(meter == Some(m.spec.name));
        }
    }

    /// Installs a fault-injection configuration, replacing any previous
    /// one (and resetting its fault log). A [`FaultConfig::none`] config
    /// restores fault-free operation.
    pub fn set_fault_config(&mut self, config: FaultConfig) {
        self.faults = FaultInjector::new(config, self.cores.len());
    }

    /// The log of every fault injected so far.
    pub fn fault_log(&self) -> &FaultLog {
        self.faults.log()
    }

    /// The active fault-injection configuration.
    pub fn fault_config(&self) -> &FaultConfig {
        self.faults.config()
    }

    /// Mutable access to the fault injector, for fault sites that live
    /// outside the machine proper (e.g. the OS socket layer's tag
    /// faults) so every fault lands in one log.
    pub fn faults_mut(&mut self) -> &mut FaultInjector {
        &mut self.faults
    }

    /// Advances hardware state to `t`, integrating counters, true energy,
    /// and meter windows. Per-core/device state is held constant over the
    /// interval, so the OS must call this *before* changing any state at
    /// `t`. A no-op when `t <= now`.
    pub fn advance_to(&mut self, t: SimTime) {
        while self.now < t {
            // Segment ends at the earliest meter-window boundary or `t`.
            let mut seg_end = t;
            for m in &self.meters {
                let we = m.window_end();
                if we > self.now && we < seg_end {
                    seg_end = we;
                }
            }
            self.integrate_segment(seg_end);
            self.apply_counter_faults(seg_end);
            // Close any meter windows that end exactly at seg_end.
            for i in 0..self.meters.len() {
                if self.meters[i].window_end() == seg_end {
                    let noise = 1.0 + self.meters[i].spec.noise_frac * self.rng.normal();
                    self.meters[i].close_window(seg_end, noise);
                    match self.faults.meter_window(i, seg_end) {
                        MeterFault::Deliver => {}
                        MeterFault::Drop => {
                            self.meters[i].drop_last_pending();
                        }
                        MeterFault::ExtraLag(extra) => {
                            self.meters[i].delay_last_pending(extra);
                        }
                    }
                }
            }
            self.now = seg_end;
        }
    }

    /// Applies every counter fault due by `now`. Glitches land a burst
    /// of phantom events in the event counters (the next sampled delta
    /// shows an impossibly high event rate); wraps pull one cumulative
    /// event counter backwards (the next sampled delta goes negative).
    /// Neither touches non-halt or elapsed cycles — the TSC-style fixed
    /// counters the OS relies on for time accounting don't wrap in
    /// practice.
    fn apply_counter_faults(&mut self, now: SimTime) {
        while let Some((core, fault)) = self.faults.next_counter_fault(now) {
            let counters = &mut self.cores[core].counters;
            match fault {
                CounterFault::Glitch(events) => {
                    counters.instructions += events;
                    counters.cache_refs += events * 0.25;
                }
                CounterFault::Wrap => {
                    counters.instructions -= crate::faults::COUNTER_WRAP_SPAN;
                }
            }
        }
    }

    /// Injects extra event counts into `core`'s counters, modelling
    /// software overhead (e.g. the §3.5 observer effect of container
    /// maintenance itself). Counts are added instantaneously.
    pub fn inject_events(&mut self, core: CoreId, events: &CounterBlock) {
        let c = &mut self.cores[core.0];
        c.counters.accumulate(events);
        c.pmu_count += events.nonhalt_cycles;
    }

    fn integrate_segment(&mut self, seg_end: SimTime) {
        let dt = seg_end.duration_since(self.now);
        if dt.is_zero() {
            return;
        }
        work::count(Work::Segment);
        let secs = dt.as_secs_f64();
        let elapsed = self.spec.cycles_in(dt);
        for (chip, scale) in self.chip_freq.iter().enumerate() {
            // Elapsed cycles tick at the nominal (TSC-style) clock; busy
            // cycles scale with both duty-cycle gating and chip DVFS.
            let freq = scale.fraction();
            for c in &mut self.cores[self.spec.cores_of(crate::ChipId(chip))] {
                c.counters.elapsed_cycles += elapsed;
                if let Some(p) = c.running {
                    let busy = elapsed * c.duty.fraction() * freq;
                    c.counters.nonhalt_cycles += busy;
                    c.counters.instructions += busy * p.ins * caps::INS_PER_CYCLE;
                    c.counters.flops += busy * p.flops * caps::FLOPS_PER_CYCLE;
                    c.counters.cache_refs += busy * p.cache * caps::CACHE_PER_CYCLE;
                    c.counters.mem_txns += busy * p.mem * caps::MEM_PER_CYCLE;
                    c.pmu_count += busy;
                }
            }
        }
        for d in &mut self.devices {
            if d.active {
                d.busy_seconds += secs;
            }
        }
        let (active, package) = match self.power {
            Some(pair) => pair,
            None => *self.power.insert(self.compute_true_power()),
        };
        let machine = active + self.spec.truth.machine_idle_w();
        self.true_energy_j += machine * secs;
        self.true_active_energy_j += active * secs;
        for m in &mut self.meters {
            let watts = match m.spec.scope {
                MeterScope::Package => package,
                MeterScope::Machine => machine,
            };
            m.integrate(watts, dt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MeterSpec;
    use proptest::prelude::*;

    fn machine() -> Machine {
        Machine::new(MachineSpec::sandybridge(), 1)
    }

    #[test]
    fn counters_accumulate_while_running() {
        let mut m = machine();
        m.set_running(CoreId(0), Some(ActivityProfile::high_ipc()));
        m.advance_to(SimTime::from_millis(1));
        let c = m.counters(CoreId(0));
        // 3.1 GHz for 1 ms = 3.1e6 cycles.
        assert!((c.elapsed_cycles - 3.1e6).abs() < 1.0);
        assert!((c.nonhalt_cycles - 3.1e6).abs() < 1.0);
        assert!((c.instructions - 3.1e6 * 0.95 * 4.0).abs() < 10.0);
    }

    #[test]
    fn idle_core_accumulates_only_elapsed() {
        let mut m = machine();
        m.advance_to(SimTime::from_millis(2));
        let c = m.counters(CoreId(3));
        assert!(c.elapsed_cycles > 0.0);
        assert_eq!(c.nonhalt_cycles, 0.0);
        assert_eq!(c.instructions, 0.0);
    }

    #[test]
    fn duty_cycle_halves_busy_cycles_and_events() {
        let mut m = machine();
        m.set_running(CoreId(0), Some(ActivityProfile::high_ipc()));
        m.set_duty_cycle(CoreId(0), DutyCycle::new(4).unwrap());
        m.advance_to(SimTime::from_millis(1));
        let c = m.counters(CoreId(0));
        assert!((c.core_utilization() - 0.5).abs() < 1e-9);
        assert!((c.instructions / c.nonhalt_cycles - 0.95 * 4.0).abs() < 1e-9);
    }

    #[test]
    fn idle_machine_draws_idle_power() {
        let mut m = machine();
        m.advance_to(SimTime::from_secs(1));
        assert!((m.true_energy_j() - 26.1).abs() < 1e-6);
        assert_eq!(m.true_active_energy_j(), 0.0);
    }

    #[test]
    fn first_core_costs_more_than_second() {
        // The Fig. 1 chip-maintenance step.
        let mut m = machine();
        let p0 = m.true_power_watts();
        m.set_running(CoreId(0), Some(ActivityProfile::cpu_spin()));
        let p1 = m.true_power_watts();
        m.set_running(CoreId(1), Some(ActivityProfile::cpu_spin()));
        let p2 = m.true_power_watts();
        let first_step = p1 - p0;
        let second_step = p2 - p1;
        assert!(
            first_step > second_step + 4.0,
            "maintenance step missing: {first_step:.1} vs {second_step:.1}"
        );
    }

    #[test]
    fn meter_report_matches_true_power() {
        let mut m = machine();
        m.set_running(CoreId(0), Some(ActivityProfile::stress()));
        let expected = m.true_package_power_watts();
        m.advance_to(SimTime::from_millis(3));
        let id = m.find_meter("on-chip").unwrap();
        let reports: Vec<_> = m.drain_meter_reports(id).collect();
        assert!(!reports.is_empty());
        for r in &reports {
            assert!(
                (r.avg_watts - expected).abs() / expected < 0.05,
                "report {} vs true {}",
                r.avg_watts,
                expected
            );
        }
    }

    #[test]
    fn wattsup_reports_arrive_late() {
        let mut m = machine();
        m.advance_to(SimTime::from_millis(2100));
        let id = m.find_meter("wattsup").unwrap();
        assert!(m.drain_meter_reports(id).next().is_none(), "report visible too early");
        m.advance_to(SimTime::from_millis(2300));
        let reports: Vec<_> = m.drain_meter_reports(id).collect();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].window_end, SimTime::from_secs(1));
        assert_eq!(reports[0].visible_at, SimTime::from_millis(2200));
    }

    #[test]
    fn pmu_fires_after_threshold_cycles() {
        let mut m = machine();
        m.set_running(CoreId(0), Some(ActivityProfile::cpu_spin()));
        m.set_pmu_threshold(CoreId(0), Some(3.1e6)); // 1 ms at full duty
        let dt = m.time_until_cycles_or_pmu(CoreId(0), None).unwrap();
        assert!((dt.as_millis_f64() - 1.0).abs() < 1e-6);
        m.advance_to(SimTime::ZERO + dt);
        assert!(m.pmu_expired(CoreId(0)));
        m.set_pmu_threshold(CoreId(0), Some(3.1e6));
        assert!(!m.pmu_expired(CoreId(0)));
    }

    #[test]
    fn pmu_halted_core_never_fires() {
        let mut m = machine();
        m.set_pmu_threshold(CoreId(0), Some(1000.0));
        assert_eq!(m.time_until_cycles_or_pmu(CoreId(0), None), None);
        m.advance_to(SimTime::from_millis(10));
        assert!(!m.pmu_expired(CoreId(0)));
    }

    #[test]
    fn duty_cycle_stretches_pmu_deadline() {
        let mut m = machine();
        m.set_running(CoreId(0), Some(ActivityProfile::cpu_spin()));
        m.set_pmu_threshold(CoreId(0), Some(3.1e6));
        m.set_duty_cycle(CoreId(0), DutyCycle::new(2).unwrap());
        let dt = m.time_until_cycles_or_pmu(CoreId(0), None).unwrap();
        assert!((dt.as_millis_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn devices_add_power_and_busy_time() {
        let mut m = machine();
        let idle = m.true_power_watts();
        m.set_device_active(DeviceKind::Disk, true);
        assert!((m.true_power_watts() - idle - 1.7).abs() < 1e-9);
        m.advance_to(SimTime::from_millis(500));
        m.set_device_active(DeviceKind::Disk, false);
        assert!((m.device_busy_seconds(DeviceKind::Disk) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn inject_events_feeds_counters_and_pmu() {
        let mut m = machine();
        m.set_pmu_threshold(CoreId(0), Some(1000.0));
        let bundle = CounterBlock {
            nonhalt_cycles: 2948.0,
            instructions: 1656.0,
            flops: 16.0,
            cache_refs: 3.0,
            ..CounterBlock::default()
        };
        m.inject_events(CoreId(0), &bundle);
        assert!(m.pmu_expired(CoreId(0)));
        assert_eq!(m.counters(CoreId(0)).instructions, 1656.0);
    }

    #[test]
    fn advance_is_idempotent_for_past_times() {
        let mut m = machine();
        m.advance_to(SimTime::from_millis(5));
        let e = m.true_energy_j();
        m.advance_to(SimTime::from_millis(3));
        assert_eq!(m.true_energy_j(), e);
        assert_eq!(m.now(), SimTime::from_millis(5));
    }

    #[test]
    fn multi_chip_maintenance_counts_per_chip() {
        let mut m = Machine::new(MachineSpec::woodcrest(), 3);
        m.set_running(CoreId(0), Some(ActivityProfile::cpu_spin()));
        let one_chip = m.true_active_power_watts();
        m.set_running(CoreId(2), Some(ActivityProfile::cpu_spin()));
        let two_chips = m.true_active_power_watts();
        let step = two_chips - one_chip;
        // Second chip's first core pays maintenance again.
        let truth = &m.spec().truth;
        let core_power = truth
            .core_active_power(Some(&ActivityProfile::cpu_spin()), DutyCycle::FULL);
        assert!((step - core_power - truth.chip_maintenance_w).abs() < 1e-9);
    }

    #[test]
    fn meter_dropout_loses_reports() {
        let mut faulty = machine();
        faulty.set_fault_config(FaultConfig {
            seed: 13,
            meter_dropout: 0.5,
            ..FaultConfig::none()
        });
        let mut clean = machine();
        for m in [&mut faulty, &mut clean] {
            m.set_running(CoreId(0), Some(ActivityProfile::cpu_spin()));
            m.advance_to(SimTime::from_millis(200));
        }
        let id = clean.find_meter("on-chip").unwrap();
        let n_clean = clean.drain_meter_reports(id).count();
        let n_faulty = faulty.drain_meter_reports(id).count();
        let dropped = faulty.fault_log().count(crate::FaultKind::MeterDropout) as usize;
        assert!(dropped > 50, "dropped {dropped}");
        assert_eq!(n_clean - n_faulty, dropped);
        // Surviving reports are untouched: the fault streams are
        // independent of the measurement-noise stream.
        assert_eq!(clean.true_energy_j(), faulty.true_energy_j());
    }

    #[test]
    fn extra_lag_postpones_visibility() {
        let mut m = machine();
        m.set_fault_config(FaultConfig {
            seed: 2,
            meter_extra_lag: 1.0, // every window
            meter_extra_lag_max: SimDuration::from_millis(500),
            ..FaultConfig::none()
        });
        m.advance_to(SimTime::from_millis(10));
        let id = m.find_meter("on-chip").unwrap();
        // Normally a window closed at 1 ms is visible at 2 ms; with
        // guaranteed extra lag nothing shows this early.
        assert!(m.drain_meter_reports(id).next().is_none());
        assert!(m.fault_log().count(crate::FaultKind::MeterExtraLag) > 0);
        m.advance_to(SimTime::from_millis(600));
        assert!(m.drain_meter_reports(id).next().is_some(), "reports arrive eventually");
    }

    #[test]
    fn counter_wrap_goes_backwards_and_glitch_spikes() {
        let mut m = machine();
        m.set_fault_config(FaultConfig {
            seed: 4,
            counter_glitch_hz: 50.0,
            counter_wrap_hz: 50.0,
            ..FaultConfig::none()
        });
        m.set_running(CoreId(0), Some(ActivityProfile::cpu_spin()));
        let mut last = m.counters(CoreId(0));
        let (mut saw_negative, mut saw_spike) = (false, false);
        for ms in 1..=2000u64 {
            m.advance_to(SimTime::from_millis(ms));
            let cum = m.counters(CoreId(0));
            let d_ins = cum.instructions - last.instructions;
            if d_ins < 0.0 {
                saw_negative = true;
            }
            // cpu_spin runs ≲4 instructions/cycle; a glitch burst dwarfs
            // anything one millisecond can legitimately retire.
            if d_ins > 1.0e8 {
                saw_spike = true;
            }
            last = cum;
        }
        assert!(saw_negative, "no wrap observed");
        assert!(saw_spike, "no glitch observed");
        assert!(m.fault_log().count(crate::FaultKind::CounterWrap) > 0);
        assert!(m.fault_log().count(crate::FaultKind::CounterGlitch) > 0);
    }

    #[test]
    fn fault_free_machine_is_untouched_by_inert_config() {
        let mut a = machine();
        let mut b = machine();
        b.set_fault_config(FaultConfig::none());
        for m in [&mut a, &mut b] {
            m.set_running(CoreId(0), Some(ActivityProfile::stress()));
            m.advance_to(SimTime::from_millis(50));
        }
        assert_eq!(a.counters(CoreId(0)), b.counters(CoreId(0)));
        assert_eq!(a.true_energy_j(), b.true_energy_j());
        let id = a.find_meter("on-chip").unwrap();
        assert!(a.drain_meter_reports(id).eq(b.drain_meter_reports(id)));
        assert_eq!(b.fault_log().total(), 0);
    }

    /// The two-pass sums `true_active_power_watts` and
    /// `true_package_power_watts` computed before the power pair was
    /// cached: the reference the cached pair must match bit for bit.
    fn two_pass_power(m: &Machine) -> (f64, f64) {
        let truth = &m.spec.truth;
        let mut active = 0.0;
        for chip in 0..m.spec.chips {
            let dvfs = m.chip_freq[chip].power_factor();
            let mut chip_busy = false;
            for core in m.spec.cores_of(crate::ChipId(chip)) {
                let c = &m.cores[core];
                active += dvfs * truth.core_active_power(c.running.as_ref(), c.duty);
                chip_busy |= c.running.is_some();
            }
            if chip_busy {
                active += dvfs * truth.chip_maintenance_w;
            }
        }
        if m.devices[DeviceKind::Disk.index()].active {
            active += truth.disk_w;
        }
        if m.devices[DeviceKind::Net.index()].active {
            active += truth.net_w;
        }
        let mut pkg = truth.pkg_idle_w;
        for chip in 0..m.spec.chips {
            let dvfs = m.chip_freq[chip].power_factor();
            let mut chip_busy = false;
            for core in m.spec.cores_of(crate::ChipId(chip)) {
                let c = &m.cores[core];
                pkg += dvfs * truth.core_active_power(c.running.as_ref(), c.duty);
                chip_busy |= c.running.is_some();
            }
            if chip_busy {
                pkg += dvfs * truth.chip_maintenance_w;
            }
        }
        (active, pkg)
    }

    /// One state change or advance in [`power_cache_matches_recomputation`].
    #[derive(Debug, Clone)]
    enum Step {
        Run(usize, Option<ActivityProfile>),
        Duty(usize, u8),
        Freq(usize, f64),
        Device(DeviceKind, bool),
        Swap(usize),
        Inject(usize, f64),
        Advance(u64),
    }

    fn truths() -> [crate::GroundTruthPower; 3] {
        [
            crate::GroundTruthPower::sandybridge(),
            crate::GroundTruthPower::woodcrest(),
            crate::GroundTruthPower::westmere(),
        ]
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        // Few distinct values, so setters often repeat the current one.
        let profile = prop::sample::select(vec![
            None,
            Some(ActivityProfile::cpu_spin()),
            Some(ActivityProfile::stress()),
            Some(ActivityProfile::new(0.5, -0.0, 0.25, 0.0)),
            Some(ActivityProfile::new(0.5, 0.0, 0.25, -0.0)),
        ]);
        prop_oneof![
            (0usize..8, profile).prop_map(|(c, p)| Step::Run(c, p)),
            (0usize..8, 6u8..=8).prop_map(|(c, d)| Step::Duty(c, d)),
            (0usize..2, prop::sample::select(vec![0.5, 0.75, 1.0]))
                .prop_map(|(chip, f)| Step::Freq(chip, f)),
            (any::<bool>(), any::<bool>()).prop_map(|(disk, on)| {
                Step::Device(if disk { DeviceKind::Disk } else { DeviceKind::Net }, on)
            }),
            (0usize..3).prop_map(Step::Swap),
            (0usize..8, 0.0f64..5e6).prop_map(|(c, n)| Step::Inject(c, n)),
            (0u64..3_000_000).prop_map(Step::Advance),
        ]
    }

    proptest! {
        /// After every setter, event injection and advance, the cached
        /// `(active, package)` pair, the public readers and a from-scratch
        /// recomputation all equal the two-pass sums bit for bit.
        #[test]
        fn power_cache_matches_recomputation(
            spec in prop::sample::select(vec![
                MachineSpec::sandybridge(),
                MachineSpec::woodcrest(),
                MachineSpec::westmere(),
            ]),
            steps in prop::collection::vec(arb_step(), 1..120),
        ) {
            let mut m = Machine::new(spec, 5);
            let cores = m.spec().total_cores();
            let chips = m.spec().chips;
            let mut t = SimTime::ZERO;
            for step in steps {
                match step.clone() {
                    Step::Run(c, p) => m.set_running(CoreId(c % cores), p),
                    Step::Duty(c, d) => {
                        m.set_duty_cycle(CoreId(c % cores), DutyCycle::new(d).expect("valid"));
                    }
                    Step::Freq(chip, f) => m.set_chip_freq(
                        crate::ChipId(chip % chips),
                        FreqScale::new(f).expect("valid"),
                    ),
                    Step::Device(kind, on) => m.set_device_active(kind, on),
                    Step::Swap(i) => {
                        let generation = m.generation() + 1;
                        m.swap_truth(truths()[i].clone(), generation);
                    }
                    Step::Inject(c, n) => m.inject_events(
                        CoreId(c % cores),
                        &CounterBlock { nonhalt_cycles: n, instructions: n, ..CounterBlock::default() },
                    ),
                    Step::Advance(ns) => {
                        t += SimDuration::from_nanos(ns);
                        m.advance_to(t);
                        if ns > 0 {
                            prop_assert!(m.power.is_some(), "advance left the cache empty");
                        }
                    }
                }
                let (active, pkg) = two_pass_power(&m);
                let fresh = m.compute_true_power();
                prop_assert_eq!(fresh.0.to_bits(), active.to_bits(), "recomputed active after {:?}", step);
                prop_assert_eq!(fresh.1.to_bits(), pkg.to_bits(), "recomputed package after {:?}", step);
                if let Some(cached) = m.power {
                    prop_assert_eq!(cached.0.to_bits(), active.to_bits(), "cached active after {:?}", step);
                    prop_assert_eq!(cached.1.to_bits(), pkg.to_bits(), "cached package after {:?}", step);
                }
                prop_assert_eq!(m.true_active_power_watts().to_bits(), active.to_bits());
                prop_assert_eq!(m.true_package_power_watts().to_bits(), pkg.to_bits());
            }
        }
    }

    #[test]
    fn meter_lookup_by_name() {
        let m = machine();
        assert!(m.find_meter("on-chip").is_some());
        assert!(m.find_meter("wattsup").is_some());
        assert!(m.find_meter("nope").is_none());
        assert_eq!(m.meter_count(), 2);
        assert_eq!(m.meter_spec(MeterId(0)).name, MeterSpec::on_chip().name);
    }
}
