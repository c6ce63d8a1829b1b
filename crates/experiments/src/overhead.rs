//! §3.5 — facility overhead assessment.
//!
//! Host-time microbenchmarks of the facility's hot paths, mirroring the
//! paper's measurements: ~0.95 µs per container-maintenance operation
//! (counter read + model evaluation + statistics update), ~16 µs per
//! least-squares recalibration, sub-µs duty-cycle register writes, and a
//! 784-byte per-container state.

use crate::output::{banner, Table};
use crate::runner::RunCtx;
use crate::Scale;
use hwsim::{ActivityProfile, CoreId, DutyCycle, Machine, MachineSpec};
use ossim::{ContextId, KernelApi, KernelHooks, TaskId};
use power_containers::{
    Approach, CalibrationSample, CalibrationSet, ContainerManager, FacilityConfig,
    MetricVector, ModelKind, PowerContainerFacility, Recalibrator, RecordRetention,
};
use serde::Serialize;
use simkern::{SimDuration, SimTime};
use std::time::Instant;

/// The overhead record.
#[derive(Debug, Clone, Serialize)]
pub struct Overhead {
    /// Host nanoseconds per container-maintenance operation.
    pub maintenance_ns: f64,
    /// Host nanoseconds per model recalibration (least-squares refit).
    pub recalibration_ns: f64,
    /// Host nanoseconds per duty-cycle adjustment.
    pub duty_set_ns: f64,
    /// Bytes of live state per container.
    pub container_bytes: usize,
    /// Relative overhead at 1 kHz sampling (maintenance time per period).
    pub overhead_at_1khz: f64,
}

fn synthetic_calibration() -> CalibrationSet {
    let mut set = CalibrationSet::new(26.1);
    for i in 1..=32 {
        let u = i as f64 / 32.0;
        let m = MetricVector {
            core: u,
            ins: u * 2.0,
            float: u * 0.3,
            cache: u * 0.05,
            mem: u * 0.02,
            chipshare: 1.0,
            disk: 0.0,
            net: 0.0,
        };
        set.push(CalibrationSample { metrics: m, active_watts: 10.0 * u + 5.6 });
    }
    set
}

fn bench_maintenance(iters: u32) -> f64 {
    let spec = MachineSpec::sandybridge();
    let model = synthetic_calibration().fit(ModelKind::WithChipShare).expect("fit");
    let mut facility = PowerContainerFacility::new(
        model,
        None,
        &spec,
        FacilityConfig {
            approach: Approach::ChipShare,
            retain_records: RecordRetention::None,
            ..FacilityConfig::default()
        },
    );
    let mut machine = Machine::new(spec, 1);
    machine.set_running(CoreId(0), Some(ActivityProfile::stress()));
    let running = vec![Some(TaskId(0)), None, None, None];
    let contexts = vec![Some(ContextId(1))];
    {
        let mut api = KernelApi::new(SimTime::ZERO, &mut machine, &running, &contexts);
        facility.on_boot(&mut api);
    }
    let mut t = SimTime::ZERO;
    let start = Instant::now();
    for _ in 0..iters {
        t += SimDuration::from_millis(1);
        machine.advance_to(t);
        let mut api = KernelApi::new(t, &mut machine, &running, &contexts);
        facility.on_pmu_interrupt(&mut api, CoreId(0), TaskId(0));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn bench_recalibration(iters: u32) -> f64 {
    let set = synthetic_calibration();
    let mut r = Recalibrator::new(&set, ModelKind::WithChipShare);
    let m = MetricVector { core: 1.0, ins: 2.0, chipshare: 1.0, ..MetricVector::default() };
    for _ in 0..64 {
        r.add_online_sample(m, 18.0);
    }
    let start = Instant::now();
    for _ in 0..iters {
        let model = r.refit().expect("refit");
        std::hint::black_box(&model);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn bench_duty_set(iters: u32) -> f64 {
    let mut machine = Machine::new(MachineSpec::sandybridge(), 1);
    let levels = [DutyCycle::FULL, DutyCycle::new(4).expect("valid")];
    let start = Instant::now();
    for i in 0..iters {
        machine.set_duty_cycle(CoreId(0), levels[(i & 1) as usize]);
        std::hint::black_box(&machine);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Overhead {
    let scale = ctx.scale;
    banner("overhead", "facility overhead (host-time microbenchmarks, §3.5)");
    let iters: u32 = match scale {
        Scale::Full => 200_000,
        Scale::Quick => 20_000,
    };
    let maintenance_ns = bench_maintenance(iters);
    let recalibration_ns = bench_recalibration(iters / 50);
    let duty_set_ns = bench_duty_set(iters);
    let container_bytes = ContainerManager::container_state_bytes();
    // Paper arithmetic: one maintenance op every 1 ms of execution.
    let overhead_at_1khz = maintenance_ns / 1e6;
    let mut table = Table::new(["operation", "this repo", "paper (Intel SandyBridge)"]);
    table.row([
        "container maintenance op".to_string(),
        format!("{:.2} µs", maintenance_ns / 1e3),
        "0.95 µs".to_string(),
    ]);
    table.row([
        "model recalibration".to_string(),
        format!("{:.1} µs", recalibration_ns / 1e3),
        "16 µs".to_string(),
    ]);
    table.row([
        "duty-cycle adjustment".to_string(),
        format!("{:.3} µs", duty_set_ns / 1e3),
        "< 0.2 µs".to_string(),
    ]);
    table.row([
        "container state size".to_string(),
        format!("{container_bytes} B"),
        "784 B".to_string(),
    ]);
    table.row([
        "overhead at 1 kHz sampling".to_string(),
        format!("{:.3}%", overhead_at_1khz * 100.0),
        "~0.1%".to_string(),
    ]);
    println!("{table}");
    let record = Overhead {
        maintenance_ns,
        recalibration_ns,
        duty_set_ns,
        container_bytes,
        overhead_at_1khz,
    };
    ctx.write_record("overhead", &record);
    record
}
