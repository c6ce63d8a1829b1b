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
use hwsim::{FaultConfig, Machine, MachineSpec};
use ossim::{Kernel, KernelConfig};
use power_containers::{Approach, FacilityConfig, FacilityState, PowerContainerFacility};
use simkern::SimTime;
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
/// Only the polled meter's reports are kept
/// ([`Machine::keep_reports_of`]): no other meter queues any. A node
/// booted after time zero (a crash restart or a scale-out landing)
/// fast-forwards its empty kernel first, so it never replays or
/// re-accrues energy for the interval before `at`, and a meter nobody
/// polls queues nothing while it does.
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
    machine.keep_reports_of(polled);
    let mut kernel = Kernel::new(machine, kernel);
    kernel.run_until(at);
    kernel.install_hooks(Box::new(facility));
    (kernel, state)
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
        run_busy(spec, config, SimTime::from_millis(50)).1
    }

    /// Boots a node and keeps one core busy until `until`.
    fn run_busy(
        spec: MachineSpec,
        config: FacilityConfig,
        until: SimTime,
    ) -> (Kernel, Rc<RefCell<FacilityState>>) {
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
        kernel.run_until(until);
        (kernel, state)
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

    #[test]
    fn only_the_polled_meter_queues_reports() {
        // SandyBridge's on-chip meter closes a window every millisecond,
        // but a node polling Wattsup never reads it, so it queues none.
        let polls_wattsup = FacilityConfig {
            meter: Some("wattsup"),
            ..recalibrated()
        };
        let (mut kernel, state) = run_busy(
            MachineSpec::sandybridge(),
            polls_wattsup,
            SimTime::from_millis(3_500),
        );
        // The windows [0 s, 1 s) and [1 s, 2 s) show 1.2 s after closing.
        assert_eq!(state.borrow().recent_readings().len(), 2);
        let machine = kernel.machine_mut();
        let on_chip = machine.find_meter("on-chip").expect("on-chip meter");
        assert_eq!(machine.drain_meter_reports(on_chip).count(), 0);
    }
}
