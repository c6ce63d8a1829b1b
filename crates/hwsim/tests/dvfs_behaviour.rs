//! DVFS (chip frequency scaling) behaviour tests.

use hwsim::{ActivityProfile, ChipId, CoreId, DutyCycle, FreqScale, Machine, MachineSpec};
use simkern::SimTime;

fn busy_machine(freq: Option<FreqScale>) -> Machine {
    let mut m = Machine::new(MachineSpec::sandybridge(), 21);
    if let Some(f) = freq {
        m.set_chip_freq(ChipId(0), f);
    }
    for c in 0..4 {
        m.set_running(CoreId(c), Some(ActivityProfile::stress()));
    }
    m
}

#[test]
fn freq_scale_validates_range() {
    assert!(FreqScale::new(0.49).is_none());
    assert!(FreqScale::new(1.01).is_none());
    assert_eq!(FreqScale::new(1.0), Some(FreqScale::NOMINAL));
    assert!(FreqScale::new(0.5).is_some());
}

#[test]
fn power_factor_is_superlinear_in_frequency() {
    let half = FreqScale::new(0.5).unwrap();
    // P ∝ f·V²: at half frequency the factor is well below half.
    assert!(half.power_factor() < 0.45, "factor {}", half.power_factor());
    assert!((FreqScale::NOMINAL.power_factor() - 1.0).abs() < 1e-12);
    // Monotone in f.
    let mut prev = 0.0;
    let mut f = FreqScale::new(0.5).unwrap();
    loop {
        assert!(f.power_factor() > prev);
        prev = f.power_factor();
        if f == FreqScale::NOMINAL {
            break;
        }
        f = f.faster();
    }
}

#[test]
fn lower_frequency_reduces_power_and_progress() {
    let mut full = busy_machine(None);
    let mut slow = busy_machine(FreqScale::new(0.6));
    let p_full = full.true_active_power_watts();
    let p_slow = slow.true_active_power_watts();
    assert!(
        p_slow < p_full * 0.55,
        "superlinear saving: {p_slow:.1} vs {p_full:.1}"
    );
    full.advance_to(SimTime::from_millis(10));
    slow.advance_to(SimTime::from_millis(10));
    let busy_full = full.counters(CoreId(0)).nonhalt_cycles;
    let busy_slow = slow.counters(CoreId(0)).nonhalt_cycles;
    assert!(
        (busy_slow / busy_full - 0.6).abs() < 1e-6,
        "progress scales with frequency: {}",
        busy_slow / busy_full
    );
}

#[test]
fn dvfs_composes_with_duty_cycle() {
    let mut m = busy_machine(FreqScale::new(0.8));
    m.set_duty_cycle(CoreId(0), DutyCycle::new(4).unwrap());
    assert!((m.effective_rate_ghz(CoreId(0)) - 3.1 * 0.8 * 0.5).abs() < 1e-9);
    m.advance_to(SimTime::from_millis(1));
    let c = m.counters(CoreId(0));
    assert!((c.core_utilization() - 0.4).abs() < 1e-9, "util {}", c.core_utilization());
}

#[test]
fn dvfs_is_per_chip_on_multisocket_machines() {
    let mut m = Machine::new(MachineSpec::woodcrest(), 5);
    for c in 0..4 {
        m.set_running(CoreId(c), Some(ActivityProfile::cpu_spin()));
    }
    m.set_chip_freq(ChipId(1), FreqScale::new(0.5).unwrap());
    m.advance_to(SimTime::from_millis(5));
    let fast = m.counters(CoreId(0)).nonhalt_cycles;
    let slow = m.counters(CoreId(2)).nonhalt_cycles;
    assert!((slow / fast - 0.5).abs() < 1e-6, "ratio {}", slow / fast);
    assert_eq!(m.chip_freq(ChipId(0)), FreqScale::NOMINAL);
}

#[test]
fn pmu_deadline_respects_dvfs() {
    let mut m = busy_machine(FreqScale::new(0.5));
    m.set_pmu_threshold(CoreId(0), Some(3.1e6));
    let d = m.time_until_cycles_or_pmu(CoreId(0), None).unwrap();
    // Half frequency → twice the wall time for the same cycle budget.
    assert!((d.as_millis_f64() - 2.0).abs() < 1e-6, "deadline {d}");
    m.advance_to(SimTime::ZERO + d);
    assert!(m.pmu_expired(CoreId(0)));
}

#[test]
fn stepping_saturates_at_bounds() {
    let mut f = FreqScale::NOMINAL;
    for _ in 0..20 {
        f = f.slower();
    }
    assert!((f.fraction() - 0.5).abs() < 1e-12);
    for _ in 0..20 {
        f = f.faster();
    }
    assert_eq!(f, FreqScale::NOMINAL);
}
