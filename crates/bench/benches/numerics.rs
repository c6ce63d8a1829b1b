//! Numerical kernel costs.
//!
//! * `model_eval` — one Eq. 2 evaluation.
//! * `chipshare_eq3` — one Eq. 3 chip-share estimate.
//! * `least_squares_fit` — fitting the 8-coefficient model.
//! * `alignment_scan` — a full delay scan over a trace ring.
//! * `histogram_record` — distribution bookkeeping.

use criterion::{criterion_group, criterion_main, Criterion};
use analysis::hist::Histogram;
use hwsim::{CoreId, MachineSpec};
use pc_bench::{bench_model, synthetic_calibration};
use power_containers::{
    DelayEstimator, MetricVector, ModelKind, Reading, SampleBoard, TraceRing,
};
use simkern::{SimDuration, SimTime};
use std::hint::black_box;

fn model_eval(c: &mut Criterion) {
    let model = bench_model();
    let m = MetricVector {
        core: 1.0,
        ins: 2.2,
        float: 0.3,
        cache: 0.05,
        mem: 0.03,
        chipshare: 0.25,
        disk: 0.0,
        net: 0.0,
    };
    c.bench_function("model_eval", |b| b.iter(|| black_box(model.active_power(black_box(&m)))));
}

fn chipshare_eq3(c: &mut Criterion) {
    let mut board = SampleBoard::new(&MachineSpec::sandybridge());
    for core in 0..4 {
        board.publish(CoreId(core), 0.8, SimTime::ZERO);
    }
    c.bench_function("chipshare_eq3", |b| {
        b.iter(|| black_box(board.chipshare(CoreId(0), 0.8, |_| false)))
    });
}

fn least_squares_fit(c: &mut Criterion) {
    let set = synthetic_calibration();
    c.bench_function("least_squares_fit", |b| {
        b.iter(|| black_box(set.fit(ModelKind::WithChipShare).expect("fit")))
    });
}

fn alignment_scan(c: &mut Criterion) {
    let slot = SimDuration::from_millis(1);
    let mut model = TraceRing::new(slot, 4096);
    let mut est = DelayEstimator::new(slot, SimDuration::from_millis(20), slot, 128);
    for ms in 0..2000u64 {
        let w = if (ms / 25) % 2 == 0 { 40.0 } else { 15.0 };
        model.add(
            SimTime::from_millis(ms) + SimDuration::from_micros(500),
            w,
            SimDuration::from_millis(1),
        );
        if ms >= 1800 {
            est.push(Reading { arrived_at: SimTime::from_millis(ms + 2), watts: w });
        }
    }
    c.bench_function("alignment_scan", |b| {
        b.iter(|| black_box(est.estimate(&model).expect("alignment")))
    });
}

fn histogram_record(c: &mut Criterion) {
    let mut h = Histogram::new(0.0, 25.0, 50);
    let mut x = 0.0f64;
    c.bench_function("histogram_record", |b| {
        b.iter(|| {
            x = (x + 0.37) % 25.0;
            h.record(black_box(x));
        })
    });
}

criterion_group!(
    benches,
    model_eval,
    chipshare_eq3,
    least_squares_fit,
    alignment_scan,
    histogram_record
);
criterion_main!(benches);
