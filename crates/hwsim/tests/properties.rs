//! Property-based tests for the hardware simulation.

use hwsim::{ActivityProfile, CoreId, DutyCycle, Machine, MachineSpec};
use proptest::prelude::*;
use simkern::{SimDuration, SimTime};

fn arb_profile() -> impl Strategy<Value = ActivityProfile> {
    (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0)
        .prop_map(|(i, f, c, m)| ActivityProfile::new(i, f, c, m))
}

proptest! {
    /// Counters are monotone non-decreasing under arbitrary run/duty
    /// sequences, and utilization never exceeds 1.
    #[test]
    fn counters_monotone(
        steps in prop::collection::vec(
            (arb_profile(), 1u8..=8, 1u64..5_000_000, any::<bool>()),
            1..40
        )
    ) {
        let mut m = Machine::new(MachineSpec::sandybridge(), 1);
        let mut t = SimTime::ZERO;
        let mut prev = m.counters(CoreId(0));
        for (profile, duty, ns, busy) in steps {
            m.set_running(CoreId(0), busy.then_some(profile));
            m.set_duty_cycle(CoreId(0), DutyCycle::new(duty).expect("valid"));
            t += SimDuration::from_nanos(ns);
            m.advance_to(t);
            let cur = m.counters(CoreId(0));
            prop_assert!(cur.elapsed_cycles >= prev.elapsed_cycles);
            prop_assert!(cur.nonhalt_cycles >= prev.nonhalt_cycles);
            prop_assert!(cur.instructions >= prev.instructions);
            prop_assert!(cur.nonhalt_cycles <= cur.elapsed_cycles + 1e-6);
            prev = cur;
        }
    }

    /// Energy accounting is additive: advancing in many small steps gives
    /// the same energy as one big step.
    #[test]
    fn energy_additive_over_splits(
        profile in arb_profile(),
        parts in prop::collection::vec(1u64..2_000_000, 1..20),
    ) {
        let total_ns: u64 = parts.iter().sum();
        let mut split = Machine::new(MachineSpec::sandybridge(), 9);
        split.set_running(CoreId(0), Some(profile));
        let mut t = SimTime::ZERO;
        for ns in &parts {
            t += SimDuration::from_nanos(*ns);
            split.advance_to(t);
        }
        let mut whole = Machine::new(MachineSpec::sandybridge(), 9);
        whole.set_running(CoreId(0), Some(profile));
        whole.advance_to(SimTime::from_nanos(total_ns));
        let (a, b) = (split.true_energy_j(), whole.true_energy_j());
        prop_assert!((a - b).abs() < 1e-9 * (1.0 + b), "split {a} vs whole {b}");
    }

    /// True power is linear in the duty fraction for any profile.
    #[test]
    fn power_linear_in_duty(profile in arb_profile(), duty in 1u8..=8) {
        let truth = MachineSpec::sandybridge().truth;
        let d = DutyCycle::new(duty).expect("valid");
        let full = truth.core_active_power(Some(&profile), DutyCycle::FULL);
        let scaled = truth.core_active_power(Some(&profile), d);
        prop_assert!((scaled - full * d.fraction()).abs() < 1e-9);
    }

    /// Active power is zero iff no core runs and no device is active.
    #[test]
    fn idle_machine_draws_no_active_power(ns in 1u64..10_000_000) {
        let mut m = Machine::new(MachineSpec::westmere(), 4);
        m.advance_to(SimTime::from_nanos(ns));
        prop_assert_eq!(m.true_active_energy_j(), 0.0);
        prop_assert!(m.true_energy_j() > 0.0);
    }

    /// Meter reports bracket the true average power (within noise).
    #[test]
    fn meter_reports_track_truth(profile in arb_profile(), cores in 1usize..=4) {
        let mut m = Machine::new(MachineSpec::sandybridge(), 11);
        for c in 0..cores {
            m.set_running(CoreId(c), Some(profile));
        }
        let expected = m.true_package_power_watts();
        m.advance_to(SimTime::from_millis(20));
        let id = m.find_meter("on-chip").expect("meter");
        let reports: Vec<_> = m.drain_meter_reports(id).collect();
        prop_assert!(!reports.is_empty());
        for r in reports {
            prop_assert!(
                (r.avg_watts - expected).abs() <= expected * 0.05 + 0.5,
                "report {} vs expected {}",
                r.avg_watts,
                expected
            );
        }
    }

    /// PMU deadlines always make progress: the scheduled delay is at
    /// least one nanosecond and the threshold is reached by then.
    #[test]
    fn pmu_deadline_progresses(
        profile in arb_profile(),
        duty in 1u8..=8,
        threshold in 1.0f64..10_000_000.0,
    ) {
        let mut m = Machine::new(MachineSpec::sandybridge(), 2);
        m.set_running(CoreId(0), Some(profile));
        m.set_duty_cycle(CoreId(0), DutyCycle::new(duty).expect("valid"));
        m.set_pmu_threshold(CoreId(0), Some(threshold));
        let d = m.time_until_pmu(CoreId(0)).expect("armed and busy");
        prop_assert!(d.as_nanos() >= 1);
        m.advance_to(SimTime::ZERO + d);
        prop_assert!(m.pmu_expired(CoreId(0)), "threshold not reached after deadline");
    }
}

/// A report's fields, times in nanoseconds and the reading by bit
/// pattern.
fn report_bits(r: &hwsim::MeterReport) -> [u64; 4] {
    [
        r.window_start.as_nanos(),
        r.window_end.as_nanos(),
        r.avg_watts.to_bits(),
        r.visible_at.as_nanos(),
    ]
}

/// Every core's counters plus true and active energy, by bit pattern.
fn machine_bits(m: &Machine) -> Vec<u64> {
    let mut out = vec![m.true_energy_j().to_bits(), m.true_active_energy_j().to_bits()];
    for c in 0..m.spec().total_cores() {
        let k = m.counters(CoreId(c));
        out.extend(
            [
                k.elapsed_cycles,
                k.nonhalt_cycles,
                k.instructions,
                k.flops,
                k.cache_refs,
                k.mem_txns,
            ]
            .map(f64::to_bits),
        );
    }
    out
}

proptest! {
    /// Discarding a meter's visible reports after every advance changes
    /// nothing but the backlog, and polling takes them one at a time
    /// exactly as a bulk pop would. Three machines run the same schedule
    /// under meter dropout, extra delivery lag and counter glitches: one
    /// discards after each advance, one polls, and one never pops. Their
    /// counters, energy and fault logs stay bit-identical throughout;
    /// at the end, the reports the discarding machine still holds are
    /// exactly the polling machine's later reports, and the hoarded
    /// stream is the polled one, in order, with the same windows dropped
    /// and delayed. Each poll yields exactly what a bulk pop of the
    /// hoard at the poll's instant returns: the untaken reports at its
    /// front, up to the first one not yet visible.
    #[test]
    fn discarding_visible_reports_moves_no_bit(
        steps in prop::collection::vec(
            (arb_profile(), 1u64..4_000_000, any::<bool>(), 0usize..4),
            1..120
        ),
        fault_seed in any::<u64>(),
    ) {
        let faults = hwsim::FaultConfig {
            seed: fault_seed,
            meter_dropout: 0.2,
            meter_extra_lag: 0.3,
            meter_extra_lag_max: SimDuration::from_millis(6),
            counter_glitch_hz: 40.0,
            ..hwsim::FaultConfig::none()
        };
        let boot = || {
            let mut m = Machine::new(MachineSpec::sandybridge(), 9);
            m.set_fault_config(faults.clone());
            m
        };
        let (mut discarding, mut polling, mut hoarding) = (boot(), boot(), boot());
        let meters: Vec<hwsim::MeterId> =
            (0..discarding.meter_count()).map(hwsim::MeterId).collect();
        // Each meter's polls: the poll's instant and the reports it took.
        let mut polls: Vec<Vec<(SimTime, Vec<[u64; 4]>)>> = vec![Vec::new(); meters.len()];
        let mut t = SimTime::ZERO;
        for (profile, ns, busy, core) in steps {
            t += SimDuration::from_nanos(ns);
            for m in [&mut discarding, &mut polling, &mut hoarding] {
                m.set_running(CoreId(core), busy.then_some(profile));
                m.advance_to(t);
            }
            for (&id, meter_polls) in meters.iter().zip(&mut polls) {
                discarding.discard_meter_reports(id);
                let took = polling.drain_meter_reports(id).map(|r| report_bits(&r)).collect();
                meter_polls.push((t, took));
            }
            prop_assert_eq!(machine_bits(&discarding), machine_bits(&hoarding));
            prop_assert_eq!(machine_bits(&polling), machine_bits(&hoarding));
            prop_assert_eq!(discarding.fault_log(), hoarding.fault_log());
        }
        // Let every report still in flight arrive.
        let end = t + SimDuration::from_secs(3);
        for m in [&mut discarding, &mut polling, &mut hoarding] {
            m.advance_to(end);
        }
        prop_assert_eq!(machine_bits(&discarding), machine_bits(&hoarding));
        prop_assert_eq!(discarding.fault_log(), hoarding.fault_log());
        for (&id, meter_polls) in meters.iter().zip(&mut polls) {
            let later: Vec<[u64; 4]> =
                polling.drain_meter_reports(id).map(|r| report_bits(&r)).collect();
            let kept: Vec<[u64; 4]> =
                discarding.drain_meter_reports(id).map(|r| report_bits(&r)).collect();
            prop_assert_eq!(&kept, &later);
            meter_polls.push((end, later));
            let all: Vec<[u64; 4]> =
                hoarding.drain_meter_reports(id).map(|r| report_bits(&r)).collect();
            let seen: Vec<[u64; 4]> =
                meter_polls.iter().flat_map(|(_, took)| took.iter().copied()).collect();
            prop_assert_eq!(&all, &seen);
            let mut front = 0;
            for (at, took) in meter_polls.iter() {
                let visible = all[front..].iter().take_while(|r| r[3] <= at.as_nanos()).count();
                prop_assert_eq!(took.as_slice(), &all[front..front + visible], "poll at {:?}", at);
                front += visible;
            }
        }
    }
}

#[test]
fn in_flight_reports_survive_a_discard() {
    // Every window is delayed by up to 40 ms, on top of the on-chip
    // meter's 1 ms: a discard at 30 ms leaves the late windows queued,
    // in order, for the poll that follows.
    let boot = || {
        let mut m = Machine::new(MachineSpec::sandybridge(), 4);
        m.set_fault_config(hwsim::FaultConfig {
            seed: 21,
            meter_extra_lag: 1.0,
            meter_extra_lag_max: SimDuration::from_millis(40),
            meter_dropout: 0.1,
            ..hwsim::FaultConfig::none()
        });
        m.set_running(CoreId(0), Some(ActivityProfile::cpu_spin()));
        m
    };
    let (mut discarding, mut polling) = (boot(), boot());
    let id = discarding.find_meter("on-chip").expect("on-chip meter");
    discarding.advance_to(SimTime::from_millis(30));
    polling.advance_to(SimTime::from_millis(30));
    discarding.discard_meter_reports(id);
    let early: Vec<_> = polling.drain_meter_reports(id).collect();
    for m in [&mut discarding, &mut polling] {
        m.advance_to(SimTime::from_millis(200));
    }
    let late: Vec<_> = polling.drain_meter_reports(id).collect();
    assert!(!late.is_empty() && late[0].window_end < SimTime::from_millis(30));
    assert!(discarding.drain_meter_reports(id).eq(late.iter().copied()));
    assert!(discarding.fault_log().count(hwsim::FaultKind::MeterDropout) > 0);
    assert_eq!(discarding.fault_log(), polling.fault_log());
    assert!(early.iter().chain(&late).all(|r| r.visible_at > r.window_end));
}
