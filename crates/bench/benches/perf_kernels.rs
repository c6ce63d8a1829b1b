//! Benchmarks for the incremental hot-path kernels.
//!
//! Two pairs time a reference formulation that stays in the library (as
//! a test oracle) against the current fast path:
//!
//! * `alignment_naive` / `alignment_fast` — O(N·L) per-lag Pearson scan
//!   vs the prefix-sum + FFT correlation curve, at N=5000, L=500.
//! * `refit_batch` / `refit_incremental` — from-scratch normal-equation
//!   accumulation over all retained samples vs one rank-1 push into the
//!   rolling window followed by an O(k³) solve.
//!
//! Unpaired:
//!
//! * `event_queue_sorted` — a same-instant push/pop cascade over a
//!   backlog of future timers: the earliest-first sorted `Vec`
//!   binary-searches each push that lands between pending entries,
//!   shifts the shorter side into the room pops leave at its front,
//!   and pops by moving an index.
//! * `trace_cursor` — windowed means from the cached prefix-sum cursor on
//!   a sliding query.
//! * `facility_scan_2128_windows` / `facility_scan_700_windows` time the
//!   alignment scan the facility actually runs
//!   (`DelayEstimator::estimate_checked` at the on-chip meter's
//!   geometry), with every window of its 2,128-entry model series covered
//!   (FFT cross products) or about 700 (direct ones). Each iteration first
//!   writes the model trace and pushes the readings the facility sees
//!   between two scans.

use analysis::linreg::{LeastSquares, RollingLeastSquares};
use analysis::xcorr::{find_alignment, find_alignment_naive};
use criterion::{criterion_group, criterion_main, Criterion};
use pc_bench::{alignment_signals, refit_rows, FacilityScan};
use power_containers::TraceRing;
use simkern::{EventQueue, SimDuration, SimTime};
use std::hint::black_box;

const ALIGN_N: usize = 5000;
const ALIGN_LAG: usize = 500;

fn alignment_naive(c: &mut Criterion) {
    let (measure, model) = alignment_signals(ALIGN_N, ALIGN_LAG, 137);
    c.bench_function("alignment_naive_n5000_l500", |b| {
        b.iter(|| black_box(find_alignment_naive(&measure, &model, ALIGN_LAG)))
    });
}

fn alignment_fast(c: &mut Criterion) {
    let (measure, model) = alignment_signals(ALIGN_N, ALIGN_LAG, 137);
    c.bench_function("alignment_fast_n5000_l500", |b| {
        b.iter(|| black_box(find_alignment(&measure, &model, ALIGN_LAG)))
    });
}

fn refit_batch(c: &mut Criterion) {
    let rows = refit_rows(4096);
    c.bench_function("refit_batch_n4096", |b| {
        b.iter(|| {
            let mut ls = LeastSquares::new(8);
            for (row, y) in &rows {
                ls.add_sample(row, *y, 1.0);
            }
            black_box(ls.solve().expect("batch fit"))
        })
    });
}

fn refit_incremental(c: &mut Criterion) {
    let rows = refit_rows(4096);
    let mut win = RollingLeastSquares::new(8, 256);
    for (row, y) in &rows {
        win.push(row, *y, 1.0);
    }
    let mut i = 0usize;
    c.bench_function("refit_incremental_cap256", |b| {
        b.iter(|| {
            let (row, y) = &rows[i % rows.len()];
            i += 1;
            win.push(row, *y, 1.0);
            black_box(win.solve().expect("incremental fit"))
        })
    });
}

const BURST: usize = 64;
/// Pending future timers, like a kernel with many scheduled interrupts.
const BACKLOG: u64 = 1024;

fn event_queue_sorted(c: &mut Criterion) {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..BACKLOG {
        q.push(SimTime::from_secs(3600 + i), i);
    }
    let mut t = 0u64;
    c.bench_function("event_queue_sorted_cascade64", |b| {
        b.iter(|| {
            t += 1;
            let at = SimTime::from_micros(t);
            q.push(at, 0);
            q.push(at, 1);
            black_box(q.pop());
            for i in 0..BURST as u64 {
                q.push(at, i);
                black_box(q.pop());
            }
            black_box(q.pop());
        })
    });
}

const TRACE_SLOTS: u64 = 4096;

fn trace_cursor(c: &mut Criterion) {
    let slot = SimDuration::from_millis(1);
    let mut trace: TraceRing<f64> = TraceRing::new(slot, TRACE_SLOTS as usize + 1);
    for ms in 1..=TRACE_SLOTS {
        trace.add(SimTime::from_millis(ms), 20.0 + (ms % 7) as f64, slot);
    }
    let mut q = 0u64;
    c.bench_function("trace_cursor_window20", |b| {
        b.iter(|| {
            q = q % (TRACE_SLOTS - 20) + 1;
            let t0 = SimTime::from_millis(q);
            black_box(trace.mean_over_wall(t0, t0 + SimDuration::from_millis(20)))
        })
    });
}

fn facility_scan(c: &mut Criterion) {
    for (name, capacity) in [("facility_scan_2128_windows", 2_200), ("facility_scan_700_windows", 700)]
    {
        let mut scan = FacilityScan::new(capacity);
        c.bench_function(name, |b| {
            b.iter(|| {
                scan.advance_to_next_scan();
                black_box(scan.scan().ok())
            })
        });
    }
}

criterion_group!(
    benches,
    alignment_naive,
    alignment_fast,
    refit_batch,
    refit_incremental,
    event_queue_sorted,
    trace_cursor,
    facility_scan
);
criterion_main!(benches);
