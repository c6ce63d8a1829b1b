//! Property-based tests for the hardware simulation.

use hwsim::{ActivityProfile, CoreId, DutyCycle, Machine, MachineSpec, MeterId};
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
        let d = m.time_until_cycles_or_pmu(CoreId(0), None).expect("armed and busy");
        prop_assert!(d.as_nanos() >= 1);
        m.advance_to(SimTime::ZERO + d);
        prop_assert!(m.pmu_expired(CoreId(0)), "threshold not reached after deadline");
    }

    /// The one-division tick deadline equals the nearer of the compute
    /// and PMU deadlines, each converted on its own, bit for bit: on
    /// every machine, at every DVFS point and duty level, with the PMU
    /// armed or not and part of its budget already spent, and with or
    /// without a compute bound.
    #[test]
    fn tick_deadline_is_the_nearer_of_both_bounds(
        spec in prop::sample::select(vec![
            MachineSpec::sandybridge(),
            MachineSpec::woodcrest(),
            MachineSpec::westmere(),
        ]),
        core in 0usize..12,
        freq in prop::sample::select(vec![0.5, 0.65, 0.8, 0.95, 1.0]),
        duty in 1u8..=8,
        busy in any::<bool>(),
        threshold in prop_oneof![
            Just(None),
            (1.0f64..1e8).prop_map(Some),
        ],
        spent in prop_oneof![Just(0.0), 0.0f64..2e8],
        cycles in prop_oneof![
            Just(None),
            Just(Some(0.0)),
            (0.0f64..1e8).prop_map(Some),
            (1e8f64..1e22).prop_map(Some),
        ],
    ) {
        let mut m = Machine::new(spec, 3);
        let core = CoreId(core % m.spec().total_cores());
        // Only the core's own chip runs at `freq`; any other stays nominal.
        let scale = hwsim::FreqScale::new(freq).expect("valid");
        let duty = DutyCycle::new(duty).expect("valid");
        m.set_chip_freq(m.spec().chip_of(core.0), scale);
        m.set_duty_cycle(core, duty);
        m.set_running(core, busy.then(ActivityProfile::cpu_spin));
        m.set_pmu_threshold(core, threshold);
        m.inject_events(core, &hwsim::CounterBlock { nonhalt_cycles: spent, ..Default::default() });
        // The two conversions the kernel made before, one per bound.
        let rate = m.spec().freq_ghz * scale.fraction() * duty.fraction();
        let compute = cycles.map(|c| SimDuration::covering_nanos(c / rate));
        let pmu = match threshold {
            Some(t) if busy => Some(SimDuration::covering_nanos((t - spent).max(0.0) / rate)),
            _ => None,
        };
        let nearer = match (compute, pmu) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        prop_assert_eq!(m.time_until_cycles_or_pmu(core, cycles), nearer);
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
    /// Leaving a meter unread changes nothing but what it queues, and
    /// polling takes reports one at a time exactly as a bulk pop would.
    /// Three machines run the same schedule under meter dropout, extra
    /// delivery lag and counter glitches: one keeps only the reports of
    /// the meter it does not leave unread, one polls every meter, and
    /// one never pops. Their counters, energy and fault logs stay
    /// bit-identical throughout. The unread meter yields nothing; the
    /// other meter's polls equal the polling machine's; and each hoarded
    /// stream is the polled one, in order, with the same windows dropped
    /// and delayed. Each poll yields exactly what a bulk pop of the hoard
    /// at the poll's instant returns: the untaken reports at its front,
    /// up to the first one not yet visible.
    #[test]
    fn an_unread_meter_moves_no_bit(
        steps in prop::collection::vec(
            (arb_profile(), 1u64..4_000_000, any::<bool>(), 0usize..4),
            1..120
        ),
        fault_seed in any::<u64>(),
        unread in 0usize..2,
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
        let (mut keeping, mut polling, mut hoarding) = (boot(), boot(), boot());
        let meters: Vec<MeterId> = (0..keeping.meter_count()).map(MeterId).collect();
        let unread = meters[unread];
        let other = meters.iter().find(|&&id| id != unread).map(|&id| keeping.meter_spec(id).name);
        keeping.keep_reports_of(other);
        let take = |m: &mut Machine, id| -> Vec<[u64; 4]> {
            m.drain_meter_reports(id).map(|r| report_bits(&r)).collect()
        };
        // Each meter's polls: the poll's instant and the reports it took.
        let mut polls: Vec<Vec<(SimTime, Vec<[u64; 4]>)>> = vec![Vec::new(); meters.len()];
        let mut t = SimTime::ZERO;
        // A last step of 3 s lets every report still in flight arrive.
        for step in steps.into_iter().map(Some).chain([None]) {
            match step {
                Some((profile, ns, busy, core)) => {
                    t += SimDuration::from_nanos(ns);
                    for m in [&mut keeping, &mut polling, &mut hoarding] {
                        m.set_running(CoreId(core), busy.then_some(profile));
                    }
                }
                None => t += SimDuration::from_secs(3),
            }
            for m in [&mut keeping, &mut polling, &mut hoarding] {
                m.advance_to(t);
            }
            for (&id, meter_polls) in meters.iter().zip(&mut polls) {
                let took = take(&mut polling, id);
                let kept = take(&mut keeping, id);
                if id == unread {
                    prop_assert!(kept.is_empty(), "the unread meter yielded {:?}", kept);
                } else {
                    prop_assert_eq!(&kept, &took);
                }
                meter_polls.push((t, took));
            }
            prop_assert_eq!(machine_bits(&keeping), machine_bits(&hoarding));
            prop_assert_eq!(machine_bits(&polling), machine_bits(&hoarding));
            prop_assert_eq!(keeping.fault_log(), hoarding.fault_log());
            prop_assert_eq!(polling.fault_log(), hoarding.fault_log());
        }
        for (&id, meter_polls) in meters.iter().zip(&polls) {
            let all = take(&mut hoarding, id);
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
