//! Facility-level integration tests: alignment, recalibration and
//! conditioning running inside a live kernel.

use hwsim::{ActivityProfile, CoreId, Machine, MachineSpec};
use ossim::{FnProgram, Kernel, KernelApi, KernelConfig, KernelHooks, Op, ScriptProgram, TaskId};
use power_containers::{
    Approach, BankConfig, CalibrationSample, CalibrationSet, ConditioningPolicy, FacilityConfig,
    MetricVector, ModelKind, PowerContainerFacility, PowerModel,
};
use simkern::{SimDuration, SimTime};

/// A deliberately *miscalibrated* set (underestimates everything by 30%)
/// so recalibration has something to fix.
fn skewed_calibration() -> CalibrationSet {
    let mut set = CalibrationSet::new(26.1);
    let truth = [8.3, 3.1, 1.5, 3.5, 2.1, 5.6, 1.7, 5.8];
    for i in 0..64 {
        let u = (i % 4 + 1) as f64 / 4.0;
        let f = i / 4 % 8;
        let mut a = [0.0; 8];
        a[0] = u;
        a[f] = u.max(a[f]);
        a[5] = 1.0;
        let watts: f64 = a.iter().zip(truth).map(|(x, c)| x * c).sum();
        set.push(CalibrationSample {
            metrics: MetricVector::from_slice(&a),
            active_watts: watts * 0.7, // systematic 30% underestimate
        });
    }
    set
}

fn spawn_spinners(kernel: &mut Kernel, n: usize, profile: ActivityProfile) {
    for _ in 0..n {
        kernel.spawn(
            Box::new(FnProgram::new(move |_pc| Op::Compute { cycles: 3.1e6, profile })),
            None,
        );
    }
}

#[test]
fn alignment_finds_the_onchip_meter_delay_in_vivo() {
    let spec = MachineSpec::sandybridge();
    let set = skewed_calibration();
    let model = set.fit(ModelKind::WithChipShare).expect("fit");
    let facility = PowerContainerFacility::new(
        model,
        Some(&set),
        &spec,
        FacilityConfig {
            approach: Approach::Recalibrated,
            meter: Some("on-chip"),
            meter_idle_w: 1.5,
            max_meter_delay: SimDuration::from_millis(20),
            ..FacilityConfig::default()
        },
    );
    let state = facility.state();
    let mut kernel = Kernel::new(Machine::new(spec, 3), KernelConfig::default());
    kernel.install_hooks(Box::new(facility));
    // A fluctuating load so the correlation has structure: two phases
    // alternating between 1 and 3 busy spinners.
    let mut phase = 0u32;
    kernel.spawn(
        Box::new(FnProgram::new(move |_pc| {
            phase += 1;
            if phase.is_multiple_of(2) {
                Op::Compute { cycles: 3.1e6 * 40.0, profile: ActivityProfile::stress() }
            } else {
                Op::Sleep { duration: SimDuration::from_millis(35) }
            }
        })),
        None,
    );
    spawn_spinners(&mut kernel, 1, ActivityProfile::cpu_spin());
    kernel.run_until(SimTime::from_secs(2));
    let s = state.borrow();
    let delay = s.aligned_delay().expect("alignment converged");
    assert_eq!(
        delay,
        SimDuration::from_millis(1),
        "on-chip meter delay is 1 ms, estimated {delay}"
    );
    assert!(s.refits() > 0, "recalibration should have run");
}

/// Drives a Recalibrated SandyBridge facility that polls `meter` by
/// hand for `millis` ms: one PMU interrupt per millisecond on core 0,
/// which idles or runs a stress load in pseudo-random stretches of
/// `stretch_ms`, so no poll drains more than one report. After every
/// report it checks the facility's cadence: the scans run so far,
/// successful or not, number `drained / scan_every`, and the refits
/// tried so far, accepted or not, number `aligned / refit_every`, where
/// `aligned` counts the reports from the one whose poll first aligned.
fn assert_cadence(
    meter: &'static str,
    scan_every: u64,
    refit_every: u64,
    stretch_ms: u64,
    millis: u64,
) {
    let spec = MachineSpec::sandybridge();
    let m = spec.meters.iter().find(|m| m.name == meter).expect("meter").clone();
    let set = skewed_calibration();
    let model = set.fit(ModelKind::WithChipShare).expect("fit");
    let config = FacilityConfig {
        approach: Approach::Recalibrated,
        meter: Some(meter),
        ..FacilityConfig::default()
    };
    let banked = FacilityConfig { model_bank: Some(BankConfig::default()), ..config.clone() };
    let bank = PowerContainerFacility::new(model.clone(), Some(&set), &spec, banked).state();
    let bank_every = bank.borrow().model_bank().map(|b| b.recalibrate_every());
    assert_eq!(bank_every, Some(refit_every as usize), "the bank refits at the facility's cadence");

    let tele = telemetry::Telemetry::recording();
    let config = FacilityConfig { telemetry: tele.clone(), ..config };
    let mut facility = PowerContainerFacility::new(model, Some(&set), &spec, config);
    let state = facility.state();
    let mut machine = Machine::new(spec, 11);
    let running = [Some(TaskId(0)), None, None, None];
    facility.on_boot(&mut KernelApi::new(SimTime::ZERO, &mut machine, &running, &[None]));
    let count = |name: &str| tele.snapshot().counter(name).unwrap_or(0);
    let (mut drained, mut first_aligned) = (0, None);
    for ms in 1..=millis {
        let busy = (ms / stretch_ms).wrapping_mul(7919) % 13 < 6;
        machine.set_running(CoreId(0), busy.then(ActivityProfile::stress));
        let now = SimTime::from_millis(ms);
        machine.advance_to(now);
        let mut api = KernelApi::new(now, &mut machine, &running, &[None]);
        facility.on_pmu_interrupt(&mut api, CoreId(0), TaskId(0));
        let visible = now.as_nanos().saturating_sub(m.delay.as_nanos()) / m.period.as_nanos();
        if visible == drained {
            continue;
        }
        assert_eq!(visible, drained + 1, "one report per poll");
        drained = visible;
        let scans = count("align.scans") + count("degrade.align_fallbacks");
        assert_eq!(scans, drained / scan_every, "{meter}: scans after {drained} reports");
        if count("align.scans") > 0 {
            let first = *first_aligned.get_or_insert(drained);
            let refits = state.borrow().refits() + count("degrade.refits_rejected");
            let aligned = drained - first + 1;
            assert_eq!(refits, aligned / refit_every, "{meter}: refits after {aligned} samples");
        }
    }
    assert!(state.borrow().refits() > 2, "{meter}: the facility aligned and refit");
}

#[test]
fn the_polled_meter_sets_how_often_the_facility_scans_and_refits() {
    assert_cadence("on-chip", 16, 16, 7, 600);
    assert_cadence("wattsup", 4, 2, 700, 40_000);
}

#[test]
fn recalibration_corrects_a_skewed_model_in_vivo() {
    let spec = MachineSpec::sandybridge();
    let set = skewed_calibration();
    let model = set.fit(ModelKind::WithChipShare).expect("fit");
    let run = |approach: Approach| -> f64 {
        let facility = PowerContainerFacility::new(
            model.clone(),
            Some(&set),
            &spec,
            FacilityConfig {
                approach,
                meter: (approach == Approach::Recalibrated).then_some("on-chip"),
                meter_idle_w: 1.5,
                max_meter_delay: SimDuration::from_millis(10),
                ..FacilityConfig::default()
            },
        );
        let state = facility.state();
        let mut kernel = Kernel::new(Machine::new(spec.clone(), 5), KernelConfig::default());
        kernel.install_hooks(Box::new(facility));
        spawn_spinners(&mut kernel, 3, ActivityProfile::cache_heavy());
        kernel.run_until(SimTime::from_secs(3));
        let measured = kernel.machine().true_active_energy_j();
        let attributed = state.borrow().containers().total_energy_with_background_j();
        (attributed - measured).abs() / measured
    };
    let skewed_err = run(Approach::ChipShare);
    let recal_err = run(Approach::Recalibrated);
    assert!(skewed_err > 0.2, "skewed model should err ~30%, got {skewed_err:.3}");
    assert!(
        recal_err < skewed_err / 2.0,
        "recalibration should halve the error: {recal_err:.3} vs {skewed_err:.3}"
    );
}

#[test]
fn conditioning_throttles_only_the_hungry_request() {
    let spec = MachineSpec::sandybridge();
    let set = skewed_calibration();
    // Use an accurate model for conditioning decisions.
    let mut accurate = CalibrationSet::new(26.1);
    for s in set.samples() {
        accurate.push(CalibrationSample {
            metrics: s.metrics,
            active_watts: s.active_watts / 0.7,
        });
    }
    let model = accurate.fit(ModelKind::WithChipShare).expect("fit");
    let facility = PowerContainerFacility::new(
        model,
        None,
        &spec,
        FacilityConfig {
            // Budget of 12 W per busy core: above the ~10 W spinners,
            // well below the ~21 W stress hog.
            conditioning: Some(ConditioningPolicy::new(48.0)),
            ..FacilityConfig::default()
        },
    );
    let state = facility.state();
    let mut kernel = Kernel::new(Machine::new(spec, 7), KernelConfig::default());
    kernel.install_hooks(Box::new(facility));
    // Four long-running requests: three modest spinners, one hog.
    let mut ctxs = Vec::new();
    for i in 0..4 {
        let ctx = kernel.alloc_context();
        ctxs.push(ctx);
        let profile = if i == 3 {
            ActivityProfile::stress()
        } else {
            ActivityProfile::cpu_spin()
        };
        kernel.spawn(
            Box::new(ScriptProgram::new(vec![Op::Compute { cycles: 3.1e9, profile }])),
            Some(ctx),
        );
    }
    kernel.run_until(SimTime::from_secs(1));
    let s = state.borrow();
    let duty_of = |ctx| {
        s.containers()
            .get(ctx)
            .map(|c| c.mean_duty())
            .or_else(|| {
                s.containers()
                    .records()
                    .iter()
                    .find(|r| r.ctx == ctx)
                    .map(|r| r.mean_duty)
            })
            .expect("container live or recorded")
    };
    for &ctx in &ctxs[..3] {
        assert!(duty_of(ctx) > 0.95, "modest request throttled: duty {}", duty_of(ctx));
    }
    assert!(
        duty_of(ctxs[3]) < 0.8,
        "hog should be throttled: duty {}",
        duty_of(ctxs[3])
    );
}

#[test]
fn per_request_power_cap_overrides_fair_share() {
    let spec = MachineSpec::sandybridge();
    let set = skewed_calibration();
    let mut accurate = CalibrationSet::new(26.1);
    for s in set.samples() {
        accurate.push(CalibrationSample {
            metrics: s.metrics,
            active_watts: s.active_watts / 0.7,
        });
    }
    let model = accurate.fit(ModelKind::WithChipShare).expect("fit");
    let facility = PowerContainerFacility::new(
        model,
        None,
        &spec,
        FacilityConfig {
            conditioning: Some(ConditioningPolicy::new(400.0)), // generous system target
            ..FacilityConfig::default()
        },
    );
    let state = facility.state();
    let mut kernel = Kernel::new(Machine::new(spec, 9), KernelConfig::default());
    kernel.install_hooks(Box::new(facility));
    let capped = kernel.alloc_context();
    let free = kernel.alloc_context();
    state
        .borrow_mut()
        .containers_mut()
        .set_power_cap(capped, Some(5.0), SimTime::ZERO);
    for &ctx in &[capped, free] {
        kernel.spawn(
            Box::new(ScriptProgram::new(vec![Op::Compute {
                cycles: 3.1e9,
                profile: ActivityProfile::high_ipc(),
            }])),
            Some(ctx),
        );
    }
    kernel.run_until(SimTime::from_secs(1));
    let s = state.borrow();
    let duty = |ctx| {
        s.containers()
            .get(ctx)
            .map(|c| c.mean_duty())
            .or_else(|| {
                s.containers()
                    .records()
                    .iter()
                    .find(|r| r.ctx == ctx)
                    .map(|r| r.mean_duty)
            })
            .expect("container live or recorded")
    };
    assert!(duty(free) > 0.95, "uncapped request at full speed, duty {}", duty(free));
    assert!(duty(capped) < 0.6, "explicit 5 W cap should bite, duty {}", duty(capped));
}

#[test]
fn sampling_scales_with_busy_time_not_task_count() {
    // §3.5: sampling cost is per CPU core, not per live request.
    let spec = MachineSpec::sandybridge();
    let set = skewed_calibration();
    let model = set.fit(ModelKind::WithChipShare).expect("fit");
    let run = |tasks: usize| -> u64 {
        let facility =
            PowerContainerFacility::new(model.clone(), None, &spec, FacilityConfig::default());
        let state = facility.state();
        let mut kernel = Kernel::new(Machine::new(spec.clone(), 11), KernelConfig::default());
        kernel.install_hooks(Box::new(facility));
        spawn_spinners(&mut kernel, tasks, ActivityProfile::cpu_spin());
        kernel.run_until(SimTime::from_secs(1));
        let ops = state.borrow().maintenance_ops();
        ops
    };
    let few = run(4);
    let many = run(64);
    // 16x the tasks must not cost anywhere near 16x the maintenance work;
    // context switches add some, but the PMU-driven floor dominates.
    assert!(
        (many as f64) < (few as f64) * 4.0,
        "maintenance ops grew too fast: {few} -> {many}"
    );
}

#[test]
fn energy_budget_forces_floor_throttling() {
    let spec = MachineSpec::sandybridge();
    let set = skewed_calibration();
    let mut accurate = CalibrationSet::new(26.1);
    for s in set.samples() {
        accurate.push(CalibrationSample {
            metrics: s.metrics,
            active_watts: s.active_watts / 0.7,
        });
    }
    let model = accurate.fit(ModelKind::WithChipShare).expect("fit");
    let facility = PowerContainerFacility::new(
        model,
        None,
        &spec,
        FacilityConfig {
            conditioning: Some(ConditioningPolicy::new(500.0)), // never binds
            ..FacilityConfig::default()
        },
    );
    let state = facility.state();
    let mut kernel = Kernel::new(Machine::new(spec, 13), KernelConfig::default());
    kernel.install_hooks(Box::new(facility));
    let budgeted = kernel.alloc_context();
    let free = kernel.alloc_context();
    // ~10 W × 50 ms = 0.5 J budget: exhausted a quarter of the way in.
    state
        .borrow_mut()
        .containers_mut()
        .set_energy_budget(budgeted, Some(0.2), SimTime::ZERO);
    for &ctx in &[budgeted, free] {
        kernel.spawn(
            Box::new(ScriptProgram::new(vec![Op::Compute {
                cycles: 3.1e9,
                profile: ActivityProfile::high_ipc(),
            }])),
            Some(ctx),
        );
    }
    kernel.run_until(SimTime::from_secs(2));
    let s = state.borrow();
    // The unbudgeted request finished at full speed and was recorded.
    let free_record = s
        .containers()
        .records()
        .iter()
        .find(|r| r.ctx == free)
        .expect("free request completed");
    assert!(
        free_record.mean_duty > 0.95,
        "unbudgeted request unaffected, duty {}",
        free_record.mean_duty
    );
    // The budgeted one is still crawling at the floor.
    let b = s.containers().get(budgeted).expect("budgeted request still live");
    assert!(
        b.mean_duty() < 0.5,
        "budget exhaustion should floor the duty cycle, duty {}",
        b.mean_duty()
    );
    assert!(b.over_energy_budget());
    assert!(
        b.energy_j() < free_record.energy_j * 0.6,
        "budgeted {} J vs free {} J",
        b.energy_j(),
        free_record.energy_j
    );
}

#[test]
fn facility_degrades_gracefully_under_injected_faults() {
    use hwsim::FaultConfig;
    let spec = MachineSpec::sandybridge();
    let set = skewed_calibration();
    let model = set.fit(ModelKind::WithChipShare).expect("fit");
    let run = |faults: Option<FaultConfig>| -> (f64, power_containers::DegradeStats) {
        let facility = PowerContainerFacility::try_new(
            model.clone(),
            Some(&set),
            &spec,
            FacilityConfig {
                approach: Approach::Recalibrated,
                meter: Some("on-chip"),
                meter_idle_w: 1.5,
                max_meter_delay: SimDuration::from_millis(10),
                ..FacilityConfig::default()
            },
        )
        .expect("valid configuration");
        let state = facility.state();
        let mut machine = Machine::new(spec.clone(), 5);
        if let Some(f) = faults {
            machine.set_fault_config(f);
        }
        let mut kernel = Kernel::new(machine, KernelConfig::default());
        kernel.install_hooks(Box::new(facility));
        spawn_spinners(&mut kernel, 3, ActivityProfile::cache_heavy());
        kernel.run_until(SimTime::from_secs(3));
        let measured = kernel.machine().true_active_energy_j();
        let attributed = state.borrow().containers().total_energy_with_background_j();
        let err = (attributed - measured).abs() / measured;
        let stats = state.borrow().degrade_stats();
        (err, stats)
    };
    let (clean_err, clean_stats) = run(None);
    assert!(clean_stats.samples_rejected == 0, "clean run rejects nothing");
    let (faulty_err, faulty_stats) = run(Some(FaultConfig {
        meter_dropout: 0.05,
        counter_glitch_hz: 2.0,
        counter_wrap_hz: 1.0,
        ..FaultConfig::none()
    }));
    // Every corrupted counter window must be caught, not attributed.
    assert!(
        faulty_stats.samples_rejected > 0,
        "glitches at 3 Hz over 3 s should reject samples: {faulty_stats:?}"
    );
    assert!(
        faulty_stats.meter_gaps > 0,
        "5% dropout over ~3000 windows should leave gaps: {faulty_stats:?}"
    );
    // Degraded, not destroyed: attribution error stays within 2x of the
    // clean run (the ISSUE acceptance bound) plus a small absolute floor
    // for runs where the clean error is itself tiny.
    assert!(
        faulty_err < (clean_err * 2.0).max(0.05) + 0.02,
        "faulty {faulty_err:.3} vs clean {clean_err:.3}"
    );
}

#[test]
fn telemetry_traces_the_whole_pipeline_deterministically() {
    let run = || {
        let tele = telemetry::Telemetry::recording();
        let spec = MachineSpec::sandybridge();
        let set = skewed_calibration();
        let model = set.fit(ModelKind::WithChipShare).expect("fit");
        let facility = PowerContainerFacility::new(
            model,
            Some(&set),
            &spec,
            FacilityConfig {
                approach: Approach::Recalibrated,
                meter: Some("on-chip"),
                meter_idle_w: 1.5,
                max_meter_delay: SimDuration::from_millis(20),
                conditioning: Some(ConditioningPolicy { system_target_w: 8.0 }),
                telemetry: tele.clone(),
                ..FacilityConfig::default()
            },
        );
        let mut kernel = Kernel::new(
            Machine::new(spec, 3),
            KernelConfig { telemetry: tele.clone(), ..KernelConfig::default() },
        );
        kernel.install_hooks(Box::new(facility));
        let mut phase = 0u32;
        kernel.spawn(
            Box::new(FnProgram::new(move |_pc| {
                phase += 1;
                if phase.is_multiple_of(2) {
                    Op::Compute { cycles: 3.1e6 * 40.0, profile: ActivityProfile::stress() }
                } else {
                    Op::Sleep { duration: SimDuration::from_millis(35) }
                }
            })),
            None,
        );
        // Tagged spinners so conditioning has containers to throttle.
        for _ in 0..2 {
            let ctx = kernel.alloc_context();
            kernel.spawn(
                Box::new(FnProgram::new(move |_pc| Op::Compute {
                    cycles: 3.1e6,
                    profile: ActivityProfile::cpu_spin(),
                })),
                Some(ctx),
            );
        }
        kernel.run_until(SimTime::from_secs(2));
        tele.to_jsonl()
    };
    let jsonl = run();
    // Every instrumented layer shows up in one trace.
    for needle in [
        "\"cat\":\"kernel\",\"name\":\"ctx_switch\"",
        "\"cat\":\"kernel\",\"name\":\"pmu_irq\"",
        "\"cat\":\"attr\",\"name\":\"sample\"",
        "\"cat\":\"align\",\"name\":\"scan\"",
        "\"cat\":\"cond\",\"name\":\"throttle\"",
        "{\"metric\":\"gauge\",\"name\":\"kernel.context_switches\"",
        "{\"metric\":\"gauge\",\"name\":\"facility.maintenance_ops\"",
        "{\"metric\":\"histogram\",\"name\":\"attr.watts\"",
    ] {
        assert!(jsonl.contains(needle), "trace missing {needle}");
    }
    // Sim-clock determinism: an identical run renders byte-identical.
    assert_eq!(jsonl, run(), "telemetry must be deterministic across runs");
    // And the summarizer agrees with the instrumentation.
    let summary = telemetry::summary::summarize(&jsonl);
    assert_eq!(summary.unparsed_lines, 0);
    assert!(!summary.containers.is_empty(), "attr samples fold into containers");
}

#[test]
fn disabled_telemetry_changes_no_simulation_output() {
    let run = |tele: telemetry::Telemetry| {
        let spec = MachineSpec::sandybridge();
        let model = PowerModel::new(ModelKind::WithChipShare, 26.1, [8.0; 8]);
        let facility = PowerContainerFacility::new(
            model,
            None,
            &spec,
            FacilityConfig { telemetry: tele.clone(), ..FacilityConfig::default() },
        );
        let state = facility.state();
        let mut kernel = Kernel::new(
            Machine::new(spec, 7),
            KernelConfig { telemetry: tele, ..KernelConfig::default() },
        );
        kernel.install_hooks(Box::new(facility));
        spawn_spinners(&mut kernel, 3, ActivityProfile::cache_heavy());
        kernel.run_until(SimTime::from_secs(1));
        let energy = state.borrow().containers().total_energy_with_background_j();
        (energy, kernel.stats())
    };
    let (e_off, stats_off) = run(telemetry::Telemetry::disabled());
    let (e_on, stats_on) = run(telemetry::Telemetry::recording());
    assert_eq!(e_off, e_on, "tracing must be a pure observer");
    assert_eq!(stats_off, stats_on);
}

#[test]
fn a_facility_without_history_attributes_the_same_bits() {
    // History feeds only alignment, recalibration and the `*_between`
    // queries: a meterless facility keeping none attributes every joule
    // exactly as one keeping the default 8,192 slots.
    let spec = MachineSpec::sandybridge();
    let model = skewed_calibration().fit(ModelKind::WithChipShare).expect("fit");
    let run = |trace_capacity: usize| {
        let facility = PowerContainerFacility::new(
            model.clone(),
            None,
            &spec,
            FacilityConfig { trace_capacity, ..FacilityConfig::default() },
        );
        let state = facility.state();
        let mut kernel = Kernel::new(Machine::new(spec.clone(), 11), KernelConfig::default());
        kernel.install_hooks(Box::new(facility));
        spawn_spinners(&mut kernel, 3, ActivityProfile::cache_heavy());
        kernel.spawn(
            Box::new(ScriptProgram::new(vec![
                Op::DiskIo { bytes: 1 << 20 },
                Op::Compute { cycles: 2e6, profile: ActivityProfile::cpu_spin() },
                Op::NetIo { bytes: 1 << 16 },
            ])),
            Some(ossim::ContextId(9)),
        );
        kernel.run_until(SimTime::from_millis(300));
        let s = state.borrow();
        let c = s.containers();
        let records: Vec<[u64; 3]> = c
            .records()
            .iter()
            .map(|r| [r.ctx.0, r.energy_j.to_bits(), r.io_energy_j.to_bits()])
            .collect();
        let totals = [
            c.total_request_energy_j(),
            c.total_request_io_energy_j(),
            c.background().energy_j(),
            c.background().io_energy_j(),
        ]
        .map(f64::to_bits);
        let window = (SimTime::from_millis(100), SimTime::from_millis(200));
        let history = (
            s.modeled_power_between(window.0, window.1),
            s.metrics_between(window.0, window.1).map(|m| m.core),
        );
        (records, totals, s.maintenance_ops(), history)
    };
    let (kept_records, kept_totals, kept_ops, kept_history) = run(8192);
    let (none_records, none_totals, none_ops, none_history) = run(0);
    assert!(
        kept_records.iter().any(|r| f64::from_bits(r[2]) > 0.0),
        "the I/O request completed with I/O energy"
    );
    assert_eq!(none_records, kept_records);
    assert_eq!(none_totals, kept_totals);
    assert_eq!(none_ops, kept_ops);
    assert!(kept_history.0.is_some() && kept_history.1.is_some());
    assert_eq!(none_history, (None, None));
}
