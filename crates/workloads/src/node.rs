//! The one recipe for a simulated server node: machine, kernel and
//! power-container facility, booted at an instant.
//!
//! The single-machine harness ([`crate::prepare_app`]) and every fleet
//! node incarnation boot through [`boot`], so the choices below are
//! made in one place: which meter the facility polls, the meter's
//! calibrated idle reading, the approach's offline model and sample set,
//! and whether the facility keeps history. How often the facility scans
//! and refits follows from the polled meter inside the facility itself
//! ([`power_containers::Cadence`]). Callers keep what really differs
//! between them: seeds, record retention, conditioning and the apps.

use crate::calibration::MachineCalibration;
use hwsim::{FaultConfig, Machine, MachineSpec, MeterId};
use ossim::{Kernel, KernelConfig};
use power_containers::{Approach, FacilityConfig, FacilityState, PowerContainerFacility};
use simkern::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Boots a node on `spec` at `at`: builds the machine from `seed` (with
/// `faults` installed when any is active) and the kernel from `kernel`,
/// runs the bare kernel to `at`, then installs the facility described by
/// `facility`. Returns the kernel and the facility's state handle.
///
/// `facility` carries the caller's approach and policy. This function
/// fills in the rest:
///
/// * the polled meter: `facility.meter` when named, else, for
///   [`Approach::Recalibrated`], the machine's shortest-period meter
///   (on-chip on SandyBridge, Wattsup on Woodcrest and Westmere);
/// * that meter's idle reading from `cal`;
/// * the approach's offline model from `cal`, and `cal`'s sample set
///   when the approach recalibrates;
/// * no history without a meter: only alignment and recalibration read
///   the model and metrics traces, so a meterless node keeps none.
///
/// A node booted after time zero (a crash restart or a scale-out
/// landing) fast-forwards its empty kernel first, so it never replays
/// or re-accrues energy for the interval before `at`. While it does,
/// the reports of meters the facility will not poll are dropped
/// second by second (see [`unread_meters`]), so a late landing never
/// queues a report per millisecond since time zero.
pub fn boot(
    spec: &MachineSpec,
    cal: &MachineCalibration,
    mut facility: FacilityConfig,
    kernel: KernelConfig,
    seed: u64,
    faults: FaultConfig,
    at: SimTime,
) -> (Kernel, Rc<RefCell<FacilityState>>) {
    let approach = facility.approach;
    let recalibrated = approach == Approach::Recalibrated;
    if recalibrated && facility.meter.is_none() {
        facility.meter = spec.meters.iter().min_by_key(|m| m.period).map(|m| m.name);
    }
    let polled = facility.meter;
    facility.meter_idle_w = polled.map_or(0.0, |m| cal.meter_idle(m));
    if polled.is_none() {
        facility.trace_capacity = 0;
    }
    let facility = PowerContainerFacility::new(
        cal.model_for(approach),
        recalibrated.then_some(&cal.set),
        spec,
        facility,
    );
    let state = facility.state();
    let mut machine = Machine::new(spec.clone(), seed);
    if faults.is_active() {
        machine.set_fault_config(faults);
    }
    let mut kernel = Kernel::new(machine, kernel);
    fast_forward(&mut kernel, polled, at);
    kernel.install_hooks(Box::new(facility));
    (kernel, state)
}

/// The meters of `machine` other than the `polled` one. Nothing reads
/// their reports, yet each closes a window every period; whoever runs
/// the machine drops their visible reports after each advance
/// ([`Machine::discard_meter_reports`]) so they never pile up.
pub fn unread_meters<'a>(
    machine: &'a Machine,
    polled: Option<&'a str>,
) -> impl Iterator<Item = MeterId> + 'a {
    (0..machine.meter_count())
        .map(MeterId)
        .filter(move |&id| Some(machine.meter_spec(id).name) != polled)
}

/// Runs the bare kernel from time zero to `at`. When an unread meter
/// closes windows more often than once a second and `at` is more than
/// a second away, it runs in whole-second steps and drops the unread
/// meters' visible reports after each, so their queues hold at most a
/// second's reports. Such a meter's windows end on every whole second,
/// so the steps integrate the same segments and draw the same noise as
/// one run to `at`: no bit moves. Any other node runs to `at` in one
/// step and allocates nothing here: one more allocation per boot
/// shifts the heap's layout enough to lift a reboot-heavy fleet's peak
/// RSS by 3%.
fn fast_forward(kernel: &mut Kernel, polled: Option<&str>, at: SimTime) {
    const STEP: SimDuration = SimDuration::from_secs(1);
    let machine = kernel.machine();
    let sub_second = unread_meters(machine, polled).any(|id| {
        let period = machine.meter_spec(id).period;
        period < STEP && STEP.as_nanos().checked_rem(period.as_nanos()) == Some(0)
    });
    if !sub_second || at <= SimTime::ZERO + STEP {
        kernel.run_until(at);
        return;
    }
    let unread: Vec<MeterId> = unread_meters(machine, polled).collect();
    let mut t = SimTime::ZERO;
    while t < at {
        t = (t + STEP).min(at);
        kernel.run_until(t);
        for &id in &unread {
            kernel.machine_mut().discard_meter_reports(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::ActivityProfile;
    use ossim::{FnProgram, Op};
    use power_containers::{CalibrationSample, CalibrationSet, MetricVector, ModelKind};
    use std::collections::HashMap;

    /// A calibration with distinct idle readings per meter, fitted on a
    /// synthetic linear law (no microbenchmark runs).
    fn calibration() -> MachineCalibration {
        let mut set = CalibrationSet::new(26.1);
        for i in 1..=16 {
            let u = f64::from(i) / 16.0;
            let metrics = MetricVector {
                core: u,
                ins: 2.0 * u,
                chipshare: 1.0,
                ..Default::default()
            };
            set.push(CalibrationSample {
                metrics,
                active_watts: 12.0 * u + 5.6,
            });
        }
        MachineCalibration {
            model_core_only: set.fit(ModelKind::CoreEventsOnly).expect("fit"),
            model_chipshare: set.fit(ModelKind::WithChipShare).expect("fit"),
            idle_by_meter: HashMap::from([("on-chip", 1.5), ("wattsup", 26.1)]),
            set,
        }
    }

    /// Boots a node and keeps one core busy for 50 ms.
    fn boot_on(spec: MachineSpec, config: FacilityConfig) -> Rc<RefCell<FacilityState>> {
        let (mut kernel, state) = boot(
            &spec,
            &calibration(),
            config,
            KernelConfig::default(),
            7,
            FaultConfig::none(),
            SimTime::ZERO,
        );
        kernel.spawn(
            Box::new(FnProgram::new(|_pc| Op::Compute {
                cycles: 1.0e6,
                profile: ActivityProfile::cpu_spin(),
            })),
            None,
        );
        kernel.run_until(SimTime::from_millis(50));
        state
    }

    fn history(state: &Rc<RefCell<FacilityState>>) -> Option<f64> {
        state
            .borrow()
            .modeled_power_between(SimTime::ZERO, SimTime::from_millis(50))
    }

    fn recalibrated() -> FacilityConfig {
        FacilityConfig {
            approach: Approach::Recalibrated,
            ..FacilityConfig::default()
        }
    }

    #[test]
    fn a_recalibrating_node_polls_its_fastest_meter() {
        for (spec, meter, idle) in [
            (MachineSpec::sandybridge(), "on-chip", 1.5),
            (MachineSpec::woodcrest(), "wattsup", 26.1),
            (MachineSpec::westmere(), "wattsup", 26.1),
        ] {
            let state = boot_on(spec, recalibrated());
            assert_eq!(state.borrow().config().meter, Some(meter));
            assert_eq!(state.borrow().config().meter_idle_w, idle);
            assert!(history(&state).is_some(), "alignment needs history");
        }
    }

    #[test]
    fn a_named_meter_wins_and_a_meterless_node_keeps_no_history() {
        let named = FacilityConfig {
            meter: Some("wattsup"),
            ..recalibrated()
        };
        let state = boot_on(MachineSpec::sandybridge(), named);
        assert_eq!(state.borrow().config().meter, Some("wattsup"));
        assert_eq!(state.borrow().config().meter_idle_w, 26.1);

        let state = boot_on(MachineSpec::sandybridge(), FacilityConfig::default());
        assert_eq!(state.borrow().config().meter, None);
        assert_eq!(state.borrow().config().meter_idle_w, 0.0);
        assert_eq!(history(&state), None);
    }
}
