//! Emits `BENCH_perf.json`: before/after timings for the hot-path
//! kernels plus the experiment-harness wall times.
//!
//! The kernel pairs mirror `benches/perf_kernels.rs` but are measured
//! here with median-of-samples timing so the committed numbers are less
//! noise-prone than the smoke bench's single mean. Harness wall times
//! cannot be re-measured from inside this process (a full `run_all`
//! takes minutes), so they are passed in from actual runs:
//!
//! ```text
//! perf_report [--out PATH] [--run-all-before SECS] \
//!             [--run-all-after SECS] [--run-all-jobs4 SECS] \
//!             [--run-all-jobs N] \
//!             [--scan-before-2128 NS] [--scan-before-700 NS]
//! ```
//!
//! The facility-scan section times `DelayEstimator::estimate_checked`
//! at the facility's own geometry through `pc_bench::time_facility_scan`,
//! which uses only public API; `--scan-before-*` pass in the median the
//! same function measured on an earlier build on the same host.
//!
//! The footprint section counts heap allocations, bytes allocated, the
//! peak live heap and the live heap once the call returns (what the
//! outcome holds, so a transient peak tells apart from a retained one)
//! of three cluster cells (`pc_bench::footprint_cells`, public API only)
//! with a counting global allocator that counts inside that section and
//! nowhere else. The counts are deterministic for a given build, so they
//! are recorded exactly. The calibration footprint section counts each
//! machine's seed-42 calibration the same way.
//!
//! The work section records the exact work counts of
//! `pc_bench::work_ledger`: kernel events popped, by kind, and machine
//! segments integrated, for each machine's seed-42 calibration and each
//! footprint cell.
//!
//! Every entry of those three sections also carries `before_*` fields:
//! the same entry's counts in the report at the `--out` path that this
//! run replaces (0 for an entry that report lacks), so a regenerated
//! report shows what changed since the last one. The work counters are
//! compiled in only with the `work-counts` feature, so the report needs
//! it:
//!
//! ```text
//! cargo run --release -p pc-bench --features work-counts --bin perf_report
//! ```
//!
//! The `work_gate` test fails when a count rises above its recorded
//! value.
//!
//! With no `--out`, the report is written to `BENCH_perf.json` in the
//! repository root.

use analysis::linreg::{LeastSquares, RollingLeastSquares};
use experiments::runner::RunCtx;
use analysis::xcorr::{find_alignment, find_alignment_naive};
use hwsim::MeterSpec;
use pc_bench::{
    alignment_signals, refit_rows, time_facility_scan, FacilityScan, Spread, CALIBRATION_SEED,
    FOOTPRINT_REQUESTS,
};
use power_containers::{
    BankConfig, Cadence, CalibrationSample, CalibrationSet, MetricVector, ModelBank, ModelKind,
    PowerModel, Recalibrator, RegimeKey, FEATURES,
};
use serde::Serialize;
use serde_json::Value;
use simkern::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The system allocator, counting heap traffic while [`COUNTING`] is
/// set. Disarmed, each call costs one relaxed load on top of `System`,
/// so the timed sections run as they would without it.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Books one allocation of `grow` bytes that replaced `shrink` bytes
/// (a plain allocation replaces none, a free allocates none).
fn count(grow: usize, shrink: usize) {
    if !COUNTING.load(Relaxed) {
        return;
    }
    if grow > 0 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES_ALLOCATED.fetch_add(grow as u64, Relaxed);
    }
    let live = LIVE_BYTES.fetch_add(grow as i64 - shrink as i64, Relaxed) + grow as i64
        - shrink as i64;
    PEAK_LIVE_BYTES.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping is atomics
// only and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` passes through to `System` unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` passes through to `System` unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(0, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`; the caller's `new_size` passes through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size, layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap traffic of one counted call: allocations (reallocations
/// included), bytes allocated, the peak live heap above the live heap
/// at the call, and what is still live once the call has returned.
fn count_heap<T>(f: impl FnOnce() -> T) -> (T, [u64; 4]) {
    for c in [&ALLOCATIONS, &BYTES_ALLOCATED] {
        c.store(0, Relaxed);
    }
    for c in [&LIVE_BYTES, &PEAK_LIVE_BYTES] {
        c.store(0, Relaxed);
    }
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    let peak = PEAK_LIVE_BYTES.load(Relaxed).max(0) as u64;
    let held = LIVE_BYTES.load(Relaxed).max(0) as u64;
    (out, [ALLOCATIONS.load(Relaxed), BYTES_ALLOCATED.load(Relaxed), peak, held])
}

/// One before/after kernel pair.
#[derive(Serialize)]
struct KernelPair {
    name: String,
    before: String,
    after: String,
    before_ns: u64,
    after_ns: u64,
    speedup: f64,
}

/// Incremental-refit cost at one total-samples-seen count; flat
/// `refit_ns` across rows is the acceptance criterion.
#[derive(Serialize)]
struct RefitScaling {
    samples_seen: usize,
    refit_ns: u64,
}

/// Per-window metering cost of the model bank at one live-slot count,
/// next to the single-recalibrator baseline measured with the same
/// loop shape. Flat `bank_ns` across rows is the acceptance criterion:
/// slot selection is one lookup in a capacity-capped map plus an O(1)
/// CUSUM update, so the hot path must not scale with bank occupancy,
/// and the constant overhead over `single_ns` is the whole price of
/// regime awareness.
#[derive(Serialize)]
struct BankSelection {
    live_slots: usize,
    single_ns: u64,
    bank_ns: u64,
    overhead_ns: i64,
}

/// Telemetry tax on one hot kernel: the same loop measured bare, with
/// disabled-handle instrumentation at the emission sites (the production
/// default), and with a recording handle. The disabled overhead is the
/// number that must stay under 2%: every simulation pays it whether or
/// not anyone asked for a trace.
///
/// The three variants run interleaved, sample by sample, on one shared
/// loop state, so host-speed drift hits all three alike. Each overhead is
/// the median of the per-sample ratios to the bare loop, minus one, with
/// its quartiles; the verdict reads "within noise" when the quartiles
/// span zero.
#[derive(Serialize)]
struct TelemetryTax {
    name: String,
    samples: usize,
    /// Medians per operation.
    baseline_ns: u64,
    disabled_ns: u64,
    enabled_ns: u64,
    disabled_overhead: f64,
    disabled_overhead_q1: f64,
    disabled_overhead_q3: f64,
    disabled_verdict: String,
    enabled_overhead: f64,
    enabled_overhead_q1: f64,
    enabled_overhead_q3: f64,
    enabled_verdict: String,
}

/// The facility's own alignment scan, `estimate_checked` at the on-chip
/// meter's geometry (128 readings, delays 0–2,000 ms in 1 ms steps),
/// with 16 ms of model trace and 16 readings between timed scans.
#[derive(Serialize)]
struct FacilityScanCost {
    /// Windows of the 2,128-entry model-mean series with model history.
    covered_windows: usize,
    /// The cross-product path those windows take.
    path: String,
    samples: usize,
    median_ns: u64,
    q1_ns: u64,
    q3_ns: u64,
    /// The same measurement on the build before the current one, passed
    /// in with `--scan-before-*`.
    before_median_ns: Option<u64>,
    speedup: Option<f64>,
}

/// Streaming-aggregator cost of the observability plane, per sample.
#[derive(Serialize)]
struct ObsAggregatorCost {
    name: String,
    ns_per_sample: u64,
}

/// Price of leaving the observability plane always on: per-sample
/// aggregator costs, plus the wall-time delta of a megafleet-shaped
/// cell run with the plane disabled vs enabled. `overhead_frac` under
/// 3% is the acceptance criterion — the plane must be cheap enough to
/// never turn off.
#[derive(Serialize)]
struct ObsOverhead {
    aggregators: Vec<ObsAggregatorCost>,
    megafleet_nodes: usize,
    megafleet_requests: u64,
    samples: usize,
    disabled_wall_ms: u64,
    always_on_wall_ms: u64,
    overhead_frac: f64,
}

/// Pick-next microbench for one scheduler: the cost of one dispatcher
/// decision cycle (quantum expiry → requeue → pick → run bookkeeping)
/// and of one enqueue/pick pair, both through the `Box<dyn Scheduler>`
/// the kernel actually dispatches through (so the virtual call is part
/// of the measured number).
#[derive(Serialize)]
struct SchedPickCost {
    sched: String,
    decision_ns: u64,
    enqueue_pick_ns: u64,
}

/// Megafleet-shaped cell wall time with every node's kernel booted on
/// one scheduler, next to the round-robin baseline. The RR row *is* the
/// trait-dispatch price — the same policy the kernel used to inline now
/// runs behind a vtable — and must stay within 2% of the policy rows'
/// envelope; priority/CFS deltas additionally price the policy itself
/// (different schedules do different work, so they are a report, not a
/// regression gate).
#[derive(Serialize)]
struct SchedCellWall {
    sched: String,
    cell_wall_ms: u64,
    delta_vs_rr: f64,
}

/// The scheduler-axis overhead report.
#[derive(Serialize)]
struct SchedOverhead {
    pick_cost: Vec<SchedPickCost>,
    megafleet_nodes: usize,
    megafleet_requests: u64,
    samples: usize,
    cells: Vec<SchedCellWall>,
}

/// Price of the elasticity controller when it has nothing to do: the
/// cost of one `Autoscaler::decide` on its steady-state hot path
/// (mid-band utilization, cold cap → `Hold`), and the wall-time delta
/// of a megafleet-shaped cell run fixed vs with the controller live
/// but pinned at its floor (min == initial fleet, so every evaluation
/// decides `Hold`). `overhead_frac` under 2% is the acceptance
/// criterion: elasticity must cost nothing while the fleet is
/// right-sized, because the controller runs at every tick barrier of
/// every autoscaled cell whether or not traffic ever moves.
#[derive(Serialize)]
struct AutoscaleOverhead {
    decide_ns: u64,
    megafleet_nodes: usize,
    megafleet_requests: u64,
    samples: usize,
    /// Controller evaluations the steady cell actually performed.
    cell_evals: u64,
    fixed_wall_ms: u64,
    steady_wall_ms: u64,
    /// End-to-end wall delta divided by `cell_evals` — the in-engine
    /// per-evaluation price including the fleet-power sample the
    /// controller reads (signed: scheduler noise can run negative).
    ns_per_eval_end_to_end: i64,
    overhead_frac: f64,
}

/// Heap traffic of one cluster cell, counted exactly: the cell runs
/// single-threaded and deterministically, so the counts repeat to the
/// byte on a given build.
#[derive(Serialize)]
struct FootprintCount {
    cell: String,
    simulated_s: f64,
    requests: u64,
    allocations: u64,
    bytes_allocated: u64,
    peak_live_bytes: u64,
    /// Live heap once the cell's call has returned: what its outcome
    /// holds.
    live_after_bytes: u64,
    /// The same counts in the report this one replaced.
    before_allocations: u64,
    before_bytes_allocated: u64,
    before_peak_live_bytes: u64,
    before_live_after_bytes: u64,
    peak_live_ratio: f64,
}

/// Heap traffic of one machine's seed-42 calibration, counted exactly.
#[derive(Serialize)]
struct CalibrationFootprint {
    machine: String,
    allocations: u64,
    bytes_allocated: u64,
    peak_live_bytes: u64,
    /// The same counts in the report this one replaced.
    before_allocations: u64,
    before_bytes_allocated: u64,
    before_peak_live_bytes: u64,
}

/// Exact work of one ledger entry: kernel events popped, by kind and in
/// all, and machine segments integrated.
#[derive(Serialize)]
struct WorkCount {
    name: String,
    core_ticks: u64,
    delivers: u64,
    wakes: u64,
    events: u64,
    segments: u64,
    /// The same counts in the report this one replaced.
    before_core_ticks: u64,
    before_delivers: u64,
    before_wakes: u64,
    before_events: u64,
    before_segments: u64,
}

/// Wall times for the experiment harness, from real `run_all` runs.
#[derive(Serialize)]
struct Harness {
    run_all_serial_before_s: Option<f64>,
    run_all_serial_after_s: Option<f64>,
    run_all_jobs4_s: Option<f64>,
    /// `--jobs` used for the passed-in `run_all` wall times.
    run_all_jobs: Option<usize>,
    note: String,
}

/// Where the numbers were measured. `cpus_logical` is the machine's
/// real logical-CPU count (`/proc/cpuinfo`); `cpus_available` is what
/// this process may actually use (affinity/cgroup-limited) and is the
/// number that bounds any `--jobs` wall-clock speedup.
#[derive(Serialize)]
struct HostMeta {
    cpus_logical: usize,
    cpus_available: usize,
}

/// The whole report.
#[derive(Serialize)]
struct Report {
    generated_by: String,
    host: HostMeta,
    samples_per_measurement: usize,
    kernels: Vec<KernelPair>,
    refit_cost_vs_samples_seen: Vec<RefitScaling>,
    bank_selection_vs_live_slots: Vec<BankSelection>,
    telemetry_tax: Vec<TelemetryTax>,
    facility_scan: Vec<FacilityScanCost>,
    obs_overhead: ObsOverhead,
    sched_overhead: SchedOverhead,
    autoscale_overhead: AutoscaleOverhead,
    footprint: Vec<FootprintCount>,
    calibration_footprint: Vec<CalibrationFootprint>,
    work: Vec<WorkCount>,
    harness: Harness,
}

const SAMPLES: usize = 15;

/// Median wall time of `SAMPLES` runs of `body`, in nanoseconds. `reps`
/// inner repetitions amortize timer overhead for sub-microsecond bodies.
fn median_ns<F: FnMut()>(reps: u32, mut body: F) -> u64 {
    let mut times: Vec<u128> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                body();
            }
            start.elapsed().as_nanos() / u128::from(reps)
        })
        .collect();
    times.sort_unstable();
    times[SAMPLES / 2] as u64
}

fn pair(name: &str, before: &str, after: &str, before_ns: u64, after_ns: u64) -> KernelPair {
    KernelPair {
        name: name.to_string(),
        before: before.to_string(),
        after: after.to_string(),
        before_ns,
        after_ns,
        speedup: before_ns as f64 / after_ns.max(1) as f64,
    }
}

fn alignment_pair() -> KernelPair {
    let (measure, model) = alignment_signals(5000, 500, 137);
    let naive = median_ns(1, || {
        black_box(find_alignment_naive(black_box(&measure), black_box(&model), 500));
    });
    let fast = median_ns(1, || {
        black_box(find_alignment(black_box(&measure), black_box(&model), 500));
    });
    pair(
        "alignment_n5000_l500",
        "per-lag Pearson scan, O(N*L)",
        "prefix sums + packed-real FFT cross products",
        naive,
        fast,
    )
}

fn refit_pair() -> KernelPair {
    let rows = refit_rows(4096);
    let batch = median_ns(1, || {
        let mut ls = LeastSquares::new(8);
        for (row, y) in &rows {
            ls.add_sample(row, *y, 1.0);
        }
        black_box(ls.solve().expect("batch fit"));
    });
    let mut win = RollingLeastSquares::new(8, 256);
    for (row, y) in &rows {
        win.push(row, *y, 1.0);
    }
    let mut i = 0usize;
    let incremental = median_ns(64, || {
        let (row, y) = &rows[i % rows.len()];
        i += 1;
        win.push(row, *y, 1.0);
        black_box(win.solve().expect("incremental fit"));
    });
    pair(
        "refit_after_one_sample_n4096",
        "re-accumulate normal equations over all 4096 samples",
        "rank-1 push into cap-256 rolling window + O(k^3) solve",
        batch,
        incremental,
    )
}

fn refit_scaling() -> Vec<RefitScaling> {
    // The incremental refit must cost the same whether the recalibrator
    // has seen 256 samples or 16384: the window caps the state.
    [256usize, 1024, 4096, 16384]
        .into_iter()
        .map(|n| {
            let rows = refit_rows(n);
            let mut win = RollingLeastSquares::new(8, 256);
            for (row, y) in &rows {
                win.push(row, *y, 1.0);
            }
            let mut i = 0usize;
            let refit_ns = median_ns(64, || {
                let (row, y) = &rows[i % rows.len()];
                i += 1;
                win.push(row, *y, 1.0);
                black_box(win.solve().expect("fit"));
            });
            RefitScaling { samples_seen: n, refit_ns }
        })
        .collect()
}

/// Synthetic offline calibration under an exact linear law, so steady
/// feeding at the law's power keeps residuals (and the drift CUSUM) at
/// zero and the measured loops stay on the no-drift hot path.
fn metering_calibration() -> CalibrationSet {
    let mut set = CalibrationSet::new(26.1);
    let truth = [8.0, 3.0, 1.5, 3.5, 2.0, 5.6, 0.0, 0.0];
    for level in [0.25, 0.5, 0.75, 1.0f64] {
        for f in 0..6 {
            let mut a = [0.0; FEATURES];
            a[0] = level;
            a[f] = level;
            a[5] = 1.0;
            let watts: f64 = a.iter().zip(truth).map(|(x, c)| x * c).sum();
            set.push(CalibrationSample {
                metrics: MetricVector::from_slice(&a),
                active_watts: watts,
            });
        }
    }
    set
}

fn bank_selection() -> Vec<BankSelection> {
    const KIND: ModelKind = ModelKind::WithChipShare;
    let set = metering_calibration();
    let initial = set.fit(KIND).expect("offline fit");
    let busy = MetricVector { core: 1.0, ins: 2.0, chipshare: 1.0, ..Default::default() };
    let watts = 8.0 + 2.0 * 3.0 + 5.6; // the law's power for `busy`
    // The facility's refit cadence for the on-chip meter.
    let cadence = Cadence::for_meter(MeterSpec::on_chip().period).recalibrate_every;

    // Single-model baseline: the facility's per-window path without the
    // bank — mask, predict, accumulate, periodic refit.
    let mut recal = Recalibrator::new(&set, KIND);
    let single_ns = median_ns(64, || {
        let masked = PowerModel::mask_metrics(KIND, busy);
        let model = recal.last_good().unwrap_or(&initial);
        black_box(model.active_power(&masked));
        recal.add_online_sample(busy, watts);
        if recal.samples_since_fit() >= cadence {
            black_box(recal.refit().is_ok());
        }
    });

    // The measured key must stay the regime the bank already serves, so
    // every iteration exercises selection without ever switching.
    [1usize, 4, 16]
        .into_iter()
        .map(|live_slots| {
            let mut bank =
                ModelBank::new(&set, KIND, initial.clone(), BankConfig::default(), cadence);
            let mut now = 0u64;
            let mut feed = |bank: &mut ModelBank, key: RegimeKey| {
                now += 1;
                bank.observe(key, busy, watts, SimTime::from_micros(now));
            };
            let served = RegimeKey { generation: 0, dvfs: 20, mix: 0 };
            feed(&mut bank, served); // first observation adopts the key
            for d in 0..(live_slots as u8 - 1) {
                // One observation creates a slot; alternating keys never
                // persist long enough for hysteresis to switch away.
                feed(&mut bank, RegimeKey { generation: 0, dvfs: 19 - d, mix: 0 });
                feed(&mut bank, served);
            }
            for _ in 0..40 {
                feed(&mut bank, served); // train the served slot to steady state
            }
            assert_eq!(bank.slot_count(), live_slots);
            assert_eq!(bank.active(), Some(served));
            let bank_ns = median_ns(64, || {
                now += 1;
                let key = bank.classify(0, 1.0, &busy);
                bank.observe(key, busy, watts, SimTime::from_micros(now));
                let masked = PowerModel::mask_metrics(KIND, busy);
                black_box(bank.current_model().active_power(&masked));
            });
            BankSelection {
                live_slots,
                single_ns,
                bank_ns,
                overhead_ns: bank_ns as i64 - single_ns as i64,
            }
        })
        .collect()
}

/// Interleaved samples per variant in a telemetry-tax measurement.
const TAX_SAMPLES: usize = 301;

/// How a telemetry variant is instrumented.
#[derive(Clone, Copy)]
enum Variant {
    Bare,
    Disabled,
    Recording,
}

/// Times `reps` calls of `body` per sample for each [`Variant`],
/// interleaved sample by sample with the order rotating, after an
/// untimed `prepare` before each block.
fn telemetry_tax(
    name: &str,
    reps: u32,
    mut prepare: impl FnMut(),
    mut body: impl FnMut(Variant),
) -> TelemetryTax {
    const VARIANTS: [Variant; 3] = [Variant::Bare, Variant::Disabled, Variant::Recording];
    let mut ns: [Vec<f64>; 3] = Default::default();
    for sample in 0..TAX_SAMPLES {
        for turn in 0..VARIANTS.len() {
            let v = (sample + turn) % VARIANTS.len();
            prepare();
            let start = Instant::now();
            for _ in 0..reps {
                body(VARIANTS[v]);
            }
            ns[v].push(start.elapsed().as_nanos() as f64 / f64::from(reps));
        }
    }
    let ratio = |v: usize| -> Vec<f64> {
        ns[v].iter().zip(&ns[0]).map(|(x, bare)| x / bare - 1.0).collect()
    };
    let (disabled, enabled) = (Spread::of(&ratio(1)), Spread::of(&ratio(2)));
    let verdict = |s: Spread| {
        if s.q1 <= 0.0 && s.q3 >= 0.0 {
            "within noise".to_string()
        } else {
            format!("{:+.1}%", s.median * 100.0)
        }
    };
    TelemetryTax {
        name: name.to_string(),
        samples: TAX_SAMPLES,
        baseline_ns: Spread::of(&ns[0]).median as u64,
        disabled_ns: Spread::of(&ns[1]).median as u64,
        enabled_ns: Spread::of(&ns[2]).median as u64,
        disabled_overhead: disabled.median,
        disabled_overhead_q1: disabled.q1,
        disabled_overhead_q3: disabled.q3,
        disabled_verdict: verdict(disabled),
        enabled_overhead: enabled.median,
        enabled_overhead_q1: enabled.q1,
        enabled_overhead_q3: enabled.q3,
        enabled_verdict: verdict(enabled),
    }
}

/// The facility's alignment scan instrumented exactly like
/// `PowerContainerFacility::poll_meter`: an enabled-guard around the
/// scan event, score histogram and counter. Each sample first moves the
/// meter on by one scan's worth of readings, untimed.
fn alignment_tax() -> TelemetryTax {
    let disabled = telemetry::Telemetry::disabled();
    let recording = telemetry::Telemetry::recording();
    recording.register_histogram("align.score", &[0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99]);
    let scan = std::cell::RefCell::new(FacilityScan::new(2_200));
    telemetry_tax(
        "alignment_facility_scan_2128",
        1,
        || scan.borrow_mut().advance_to_next_scan(),
        |variant| {
            let result = scan.borrow_mut().scan();
            let tele = match variant {
                Variant::Bare => {
                    black_box(result.ok());
                    return;
                }
                Variant::Disabled => &disabled,
                Variant::Recording => &recording,
            };
            if let Ok(r) = &result {
                if tele.enabled() {
                    tele.instant(
                        SimTime::from_millis(2),
                        "align",
                        "scan",
                        &[
                            ("delay_ms", r.delay.as_millis_f64().into()),
                            ("score", r.score.into()),
                        ],
                    );
                    tele.observe("align.score", r.score);
                    tele.add_count("align.scans", 1);
                }
            }
            black_box(result.ok());
        },
    )
}

/// Incremental-refit loop instrumented like the facility's refit path:
/// an enabled-guard around the refit event and counter.
fn refit_tax() -> TelemetryTax {
    let rows = refit_rows(4096);
    let mut win = RollingLeastSquares::new(8, 256);
    for (row, y) in &rows {
        win.push(row, *y, 1.0);
    }
    let disabled = telemetry::Telemetry::disabled();
    let recording = telemetry::Telemetry::recording();
    let mut i = 0usize;
    telemetry_tax(
        "refit_incremental_n4096",
        64,
        || {},
        |variant| {
            let (row, y) = &rows[i % rows.len()];
            i += 1;
            win.push(row, *y, 1.0);
            black_box(win.solve().expect("fit"));
            let tele = match variant {
                Variant::Bare => return,
                Variant::Disabled => &disabled,
                Variant::Recording => &recording,
            };
            if tele.enabled() {
                tele.instant(
                    SimTime::from_micros(i as u64),
                    "recal",
                    "refit",
                    &[("n", (i as u64).into())],
                );
                tele.add_count("recal.refits", 1);
            }
        },
    )
}

/// Samples per shape in the facility-scan measurement.
const SCAN_SAMPLES: usize = 400;

fn facility_scan(args: &[String]) -> Vec<FacilityScanCost> {
    [(2_200, 2_128, "fft", "--scan-before-2128"), (700, 700, "direct", "--scan-before-700")]
        .into_iter()
        .map(|(capacity, covered_windows, path, flag)| {
            let t = time_facility_scan(capacity, SCAN_SAMPLES);
            let before = arg_count(args, flag).map(|n| n as u64);
            FacilityScanCost {
                covered_windows,
                path: path.to_string(),
                samples: SCAN_SAMPLES,
                median_ns: t.median as u64,
                q1_ns: t.q1 as u64,
                q3_ns: t.q3 as u64,
                before_median_ns: before,
                speedup: before.map(|b| b as f64 / t.median.max(1.0)),
            }
        })
        .collect()
}

/// Measures the observability plane's price: ns/sample for each
/// bounded-memory aggregator on its hot path, and the end-to-end wall
/// delta of a megafleet-shaped cell with the plane off vs always on
/// (fastest of 9 interleaved rounds each; the enabled run must stay
/// alert-silent).
fn obs_overhead(ctx: &RunCtx) -> ObsOverhead {
    use telemetry::obs::{BurnRateMonitor, QuantileSketch, Rollup, SloRules, WindowSample};
    let mut aggregators = Vec::new();

    // Quantile sketch: the per-completion latency/energy path.
    let mut sketch = QuantileSketch::new();
    let mut i = 0u64;
    let sketch_ns = median_ns(1024, || {
        i += 1;
        sketch.observe(1e-3 * ((i % 997) + 1) as f64);
    });
    black_box(sketch.quantile(0.99));
    aggregators
        .push(ObsAggregatorCost { name: "sketch_observe".to_string(), ns_per_sample: sketch_ns });

    // Rollup: the per-window time-series path.
    let mut rollup = Rollup::new(250_000_000);
    let mut j = 0u64;
    let rollup_ns = median_ns(1024, || {
        j += 1;
        rollup.observe(j * 1_000_000, (j % 100) as f64);
    });
    black_box(rollup.total_count());
    aggregators
        .push(ObsAggregatorCost { name: "rollup_observe".to_string(), ns_per_sample: rollup_ns });

    // Burn-rate monitor: all three rules over one window sample.
    let mut monitor = BurnRateMonitor::new(SloRules::standard(), 250_000_000);
    let mut k = 0u64;
    let monitor_ns = median_ns(1024, || {
        k += 1;
        monitor.observe_window(&WindowSample {
            end_ns: k * 250_000_000,
            active_j: 50.0 + (k % 7) as f64,
            attributed_j: 49.0 + (k % 5) as f64,
            completed: 100,
            cap_w: Some(400.0),
        });
    });
    black_box(monitor.alerts().len());
    aggregators.push(ObsAggregatorCost {
        name: "monitor_observe_window".to_string(),
        ns_per_sample: monitor_ns,
    });

    // End-to-end: a 48-node megafleet cell, plane off vs on.
    // Rounds interleave the two variants and the fastest round wins:
    // min-of-N discards scheduler noise that a small-sample median would
    // fold into the ratio.
    const NODES: usize = 48;
    const REQUESTS: u64 = 30_000;
    const RUNS: usize = 9;
    let mut lab = experiments::Lab::new(ctx);
    let base = experiments::megafleet::cell_config(ctx, NODES, REQUESTS);
    let cals = experiments::megafleet::cell_calibrations(&mut lab, &base);
    let wall_us = |obs: Option<cluster::ObsConfig>| {
        let mut cfg = experiments::megafleet::cell_config(ctx, NODES, REQUESTS);
        cfg.obs = obs;
        let t0 = Instant::now();
        let outcome = cluster::run_cluster(&mut cluster::SimpleBalance::new(), &cfg, &cals);
        let wall = t0.elapsed();
        if let Some(o) = &outcome.obs {
            assert!(o.report.alerts.is_empty(), "clean cell must stay silent");
        }
        wall.as_micros()
    };
    let mut disabled_us = u128::MAX;
    let mut always_on_us = u128::MAX;
    for _ in 0..RUNS {
        disabled_us = disabled_us.min(wall_us(None));
        always_on_us = always_on_us.min(wall_us(Some(cluster::ObsConfig::standard())));
    }
    let disabled_wall_ms = (disabled_us / 1000) as u64;
    let always_on_wall_ms = (always_on_us / 1000) as u64;
    ObsOverhead {
        aggregators,
        megafleet_nodes: NODES,
        megafleet_requests: REQUESTS,
        samples: RUNS,
        disabled_wall_ms,
        always_on_wall_ms,
        overhead_frac: always_on_us as f64 / disabled_us.max(1) as f64 - 1.0,
    }
}

/// The three swept schedulers with their default configs, mirroring
/// `experiments::sched_sweep::swept_kinds` (pc-bench avoids the
/// experiments dependency cycle by listing them directly).
fn swept_kinds() -> Vec<ossim::SchedulerKind> {
    vec![
        ossim::SchedulerKind::RoundRobin,
        ossim::SchedulerKind::Priority(ossim::PriorityConfig::default()),
        ossim::SchedulerKind::Cfs(ossim::CfsConfig::default()),
    ]
}

/// Measures the scheduler axis: per-decision dispatch cost through the
/// trait object, and the megafleet-shaped cell's wall time per policy
/// (fastest of `RUNS` interleaved rounds, like the obs measurement).
fn sched_overhead(ctx: &RunCtx) -> SchedOverhead {
    use ossim::{ContextId, TaskId};
    const CORES: usize = 4;
    const QUEUED: u32 = 16;

    let pick_cost = swept_kinds()
        .into_iter()
        .map(|kind| {
            let mut sched = kind.build(CORES, telemetry::Telemetry::disabled());
            let mut now_ns = 0u64;
            // Steady state: QUEUED runnable tasks per core, one current.
            for core in 0..CORES {
                for i in 0..QUEUED {
                    let t = TaskId(core as u32 * QUEUED + i);
                    sched.enqueue(core, t, Some(ContextId(u64::from(t.0 % 3))), SimTime::ZERO);
                }
            }
            let mut current: Vec<TaskId> = (0..CORES)
                .map(|core| {
                    let t = sched.pick_next(core, SimTime::ZERO).expect("queued task");
                    sched.on_run(core, t, Some(ContextId(u64::from(t.0 % 3))), SimTime::ZERO);
                    t
                })
                .collect();
            // One dispatcher decision: the kernel's quantum-expiry path
            // (requeue current, pick, stop/run bookkeeping).
            let mut core = 0usize;
            let decision_ns = median_ns(256, || {
                now_ns += 1_000_000; // one 1 ms quantum
                let now = SimTime::from_nanos(now_ns);
                let cur = current[core];
                let ctx = Some(ContextId(u64::from(cur.0 % 3)));
                if let Some(next) = sched.on_quantum_expired(core, cur, ctx, now) {
                    sched.on_stop(core, cur, now);
                    sched.on_run(core, next, Some(ContextId(u64::from(next.0 % 3))), now);
                    current[core] = next;
                }
                core = (core + 1) % CORES;
                black_box(sched.queue_len(core));
            });
            // One wake: enqueue a task and pick it (the block/unblock path).
            let mut sched2 = kind.build(1, telemetry::Telemetry::disabled());
            let mut t = 0u64;
            let enqueue_pick_ns = median_ns(256, || {
                t += 1;
                let now = SimTime::from_nanos(t * 1000);
                sched2.enqueue(0, TaskId((t % 64) as u32), Some(ContextId(t % 3)), now);
                black_box(sched2.pick_next(0, now));
            });
            SchedPickCost { sched: kind.name().to_string(), decision_ns, enqueue_pick_ns }
        })
        .collect();

    // End-to-end: a 48-node megafleet cell under each scheduler,
    // interleaved rounds, fastest round per policy.
    const NODES: usize = 48;
    const REQUESTS: u64 = 30_000;
    const RUNS: usize = 9;
    let mut lab = experiments::Lab::new(ctx);
    let base = experiments::megafleet::cell_config(ctx, NODES, REQUESTS);
    let cals = experiments::megafleet::cell_calibrations(&mut lab, &base);
    let kinds = swept_kinds();
    let mut best: Vec<u128> = vec![u128::MAX; kinds.len()];
    for _ in 0..RUNS {
        for (i, kind) in kinds.iter().enumerate() {
            let mut cfg = experiments::megafleet::cell_config(ctx, NODES, REQUESTS);
            cfg.sched = kind.clone();
            let t0 = Instant::now();
            let outcome = cluster::run_cluster(&mut cluster::SimpleBalance::new(), &cfg, &cals);
            let wall = t0.elapsed();
            assert!(outcome.completed > 0, "sched cell must serve requests");
            best[i] = best[i].min(wall.as_micros());
        }
    }
    let rr_us = best[0];
    let cells = kinds
        .iter()
        .zip(&best)
        .map(|(kind, &us)| SchedCellWall {
            sched: kind.name().to_string(),
            cell_wall_ms: (us / 1000) as u64,
            delta_vs_rr: us as f64 / rr_us.max(1) as f64 - 1.0,
        })
        .collect();
    SchedOverhead {
        pick_cost,
        megafleet_nodes: NODES,
        megafleet_requests: REQUESTS,
        samples: RUNS,
        cells,
    }
}

/// Measures the elasticity controller's price at steady state: the
/// `decide` hot path alone, then the megafleet cell fixed vs floored
/// (interleaved rounds, fastest each, like the obs measurement).
fn autoscale_overhead(ctx: &RunCtx) -> AutoscaleOverhead {
    use cluster::{AutoscaleConfig, Autoscaler, FleetSample, ScaleDecision};
    const NODES: usize = 48;
    const REQUESTS: u64 = 30_000;
    const RUNS: usize = 9;

    // The steady-state decision: utilization inside the hysteresis
    // band, cap cold, nothing landing — every call must hold.
    let mut scaler = Autoscaler::new(AutoscaleConfig::standard(NODES, NODES));
    let every = scaler.config().eval_every;
    let mut now = SimTime::ZERO;
    let decide_ns = median_ns(256, || {
        now += every;
        let (d, _) = scaler.decide(&FleetSample {
            now,
            active: NODES,
            landing: 0,
            draining: 0,
            standby: 0,
            util: 1.0,
            power_frac: 0.0,
        });
        assert_eq!(d, ScaleDecision::Hold, "steady sample must hold");
        black_box(d);
    });

    let mut lab = experiments::Lab::new(ctx);
    let base = experiments::megafleet::cell_config(ctx, NODES, REQUESTS);
    let cals = experiments::megafleet::cell_calibrations(&mut lab, &base);
    let mut cell_evals = 0u64;
    let wall_us = |floored: bool, cell_evals: &mut u64| {
        let mut cfg = experiments::megafleet::cell_config(ctx, NODES, REQUESTS);
        if floored {
            // min == initial: no standby to provision, the floor blocks
            // every drain — the controller runs but never resizes.
            cfg.autoscale = Some(AutoscaleConfig::standard(NODES, NODES));
        }
        let t0 = Instant::now();
        let outcome = cluster::run_cluster(&mut cluster::SimpleBalance::new(), &cfg, &cals);
        let wall = t0.elapsed();
        if floored {
            assert_eq!(
                (outcome.scale_outs, outcome.scale_ins),
                (0, 0),
                "floored controller must never resize"
            );
            assert!(outcome.autoscale_evals > 0, "controller must actually run");
            *cell_evals = outcome.autoscale_evals;
        }
        wall.as_micros()
    };
    let mut fixed_us = u128::MAX;
    let mut steady_us = u128::MAX;
    for _ in 0..RUNS {
        fixed_us = fixed_us.min(wall_us(false, &mut cell_evals));
        steady_us = steady_us.min(wall_us(true, &mut cell_evals));
    }
    AutoscaleOverhead {
        decide_ns,
        megafleet_nodes: NODES,
        megafleet_requests: REQUESTS,
        samples: RUNS,
        cell_evals,
        fixed_wall_ms: (fixed_us / 1000) as u64,
        steady_wall_ms: (steady_us / 1000) as u64,
        ns_per_eval_end_to_end: (steady_us as i64 - fixed_us as i64) * 1000
            / cell_evals.max(1) as i64,
        overhead_frac: steady_us as f64 / fixed_us.max(1) as f64 - 1.0,
    }
}

/// The counts of the entry of `section` whose `key` reads `name` in
/// `before`, the report being replaced, by field; 0 where it has none.
fn recorded<'a>(
    before: &'a Value,
    section: &str,
    key: &str,
    name: &str,
) -> impl Fn(&str) -> u64 + 'a {
    let entry =
        before[section].as_array().and_then(|es| es.iter().find(|e| e[key].as_str() == Some(name)));
    move |field| entry.and_then(|e| e[field].as_u64()).unwrap_or(0)
}

fn footprint(before: &Value) -> Vec<FootprintCount> {
    pc_bench::footprint_cells(FOOTPRINT_REQUESTS)
        .iter()
        .map(|cell| {
            let (outcome, [allocations, bytes_allocated, peak_live_bytes, live_after_bytes]) =
                count_heap(|| cell.run());
            let was = recorded(before, "footprint", "cell", cell.name);
            FootprintCount {
                cell: cell.name.to_string(),
                simulated_s: cell.cfg.duration.as_secs_f64(),
                requests: outcome.dispatched,
                allocations,
                bytes_allocated,
                peak_live_bytes,
                live_after_bytes,
                before_allocations: was("allocations"),
                before_bytes_allocated: was("bytes_allocated"),
                before_peak_live_bytes: was("peak_live_bytes"),
                before_live_after_bytes: was("live_after_bytes"),
                peak_live_ratio: peak_live_bytes as f64 / was("peak_live_bytes").max(1) as f64,
            }
        })
        .collect()
}

fn calibration_footprint(before: &Value) -> Vec<CalibrationFootprint> {
    pc_bench::machines()
        .iter()
        .map(|spec| {
            let (_, [allocations, bytes_allocated, peak_live_bytes, _]) =
                count_heap(|| workloads::calibrate_machine(spec, CALIBRATION_SEED));
            let was = recorded(before, "calibration_footprint", "machine", spec.name);
            CalibrationFootprint {
                machine: spec.name.to_string(),
                allocations,
                bytes_allocated,
                peak_live_bytes,
                before_allocations: was("allocations"),
                before_bytes_allocated: was("bytes_allocated"),
                before_peak_live_bytes: was("peak_live_bytes"),
            }
        })
        .collect()
}

fn work(before: &Value) -> Vec<WorkCount> {
    pc_bench::work_ledger()
        .into_iter()
        .map(|(name, w)| {
            let was = recorded(before, "work", "name", &name);
            WorkCount {
                name,
                core_ticks: w.core_ticks,
                delivers: w.delivers,
                wakes: w.wakes,
                events: w.events(),
                segments: w.segments,
                before_core_ticks: was("core_ticks"),
                before_delivers: was("delivers"),
                before_wakes: was("wakes"),
                before_events: was("events"),
                before_segments: was("segments"),
            }
        })
        .collect()
}

fn arg_secs(args: &[String], flag: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn arg_count(args: &[String], flag: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// The machine's real logical-CPU count, from `/proc/cpuinfo`; falls
/// back to `available_parallelism` where that file doesn't exist.
fn cpus_logical() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn main() {
    if !simkern::work::ENABLED {
        eprintln!(
            "perf_report: the work section needs the counters; \
             run it with `--features work-counts`"
        );
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_perf.json")
        });
    // The report being replaced: its counts become the `before_*` fields.
    let before: Value = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .unwrap_or(Value::Null);
    // The end-to-end cells load their calibrations from (or cache them
    // in) the harness results directory.
    let results_dir = std::env::var_os("PC_RESULTS_DIR")
        .filter(|d| !d.is_empty())
        .map_or_else(|| experiments::output::DEFAULT_RESULTS_DIR.into(), PathBuf::from);
    let ctx = RunCtx::new(experiments::Scale::Full, results_dir);
    eprintln!("measuring kernels ({SAMPLES} samples each, median reported)...");
    let report = Report {
        generated_by: "pc-bench perf_report".to_string(),
        host: HostMeta {
            cpus_logical: cpus_logical(),
            cpus_available: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
        samples_per_measurement: SAMPLES,
        kernels: vec![alignment_pair(), refit_pair()],
        refit_cost_vs_samples_seen: refit_scaling(),
        bank_selection_vs_live_slots: bank_selection(),
        telemetry_tax: vec![alignment_tax(), refit_tax()],
        facility_scan: facility_scan(&args),
        obs_overhead: obs_overhead(&ctx),
        sched_overhead: sched_overhead(&ctx),
        autoscale_overhead: autoscale_overhead(&ctx),
        footprint: footprint(&before),
        calibration_footprint: calibration_footprint(&before),
        work: work(&before),
        harness: Harness {
            run_all_serial_before_s: arg_secs(&args, "--run-all-before"),
            run_all_serial_after_s: arg_secs(&args, "--run-all-after"),
            run_all_jobs4_s: arg_secs(&args, "--run-all-jobs4"),
            run_all_jobs: arg_count(&args, "--run-all-jobs"),
            note: "harness times are wall-clock runs of `run_all` at full scale, \
                   passed in with --run-all-before, --run-all-after, --run-all-jobs4 \
                   and --run-all-jobs (null when not given); \
                   --jobs speedup requires multiple hardware threads \
                   (see host.cpus_available)"
                .to_string(),
        },
    };
    for k in &report.kernels {
        eprintln!(
            "  {:<36} before {:>10} ns  after {:>10} ns  ({:.1}x)",
            k.name, k.before_ns, k.after_ns, k.speedup
        );
    }
    for r in &report.refit_cost_vs_samples_seen {
        eprintln!("  refit after {:>6} samples seen: {:>8} ns", r.samples_seen, r.refit_ns);
    }
    for b in &report.bank_selection_vs_live_slots {
        eprintln!(
            "  bank window at {:>2} live slots: {:>6} ns (single {:>6} ns, {:+} ns)",
            b.live_slots, b.bank_ns, b.single_ns, b.overhead_ns
        );
    }
    for t in &report.telemetry_tax {
        eprintln!(
            "  telemetry tax {:<30} disabled {} ({:+.2}% [{:+.2}%, {:+.2}%])  \
             enabled {} ({:+.2}% [{:+.2}%, {:+.2}%])",
            t.name,
            t.disabled_verdict,
            t.disabled_overhead * 100.0,
            t.disabled_overhead_q1 * 100.0,
            t.disabled_overhead_q3 * 100.0,
            t.enabled_verdict,
            t.enabled_overhead * 100.0,
            t.enabled_overhead_q1 * 100.0,
            t.enabled_overhead_q3 * 100.0
        );
    }
    for f in &report.facility_scan {
        eprintln!(
            "  facility scan, {:>4} covered windows ({}): {} ns [{}, {}], before {:?}",
            f.covered_windows, f.path, f.median_ns, f.q1_ns, f.q3_ns, f.before_median_ns
        );
    }
    for a in &report.obs_overhead.aggregators {
        eprintln!("  obs aggregator {:<24} {:>6} ns/sample", a.name, a.ns_per_sample);
    }
    eprintln!(
        "  obs always-on megafleet cell: {} ms vs {} ms disabled ({:+.2}%)",
        report.obs_overhead.always_on_wall_ms,
        report.obs_overhead.disabled_wall_ms,
        report.obs_overhead.overhead_frac * 100.0
    );
    for p in &report.sched_overhead.pick_cost {
        eprintln!(
            "  sched {:<8} decision {:>5} ns  enqueue+pick {:>5} ns",
            p.sched, p.decision_ns, p.enqueue_pick_ns
        );
    }
    for c in &report.sched_overhead.cells {
        eprintln!(
            "  sched megafleet cell {:<8} {:>6} ms ({:+.2}% vs rr)",
            c.sched,
            c.cell_wall_ms,
            c.delta_vs_rr * 100.0
        );
    }
    let a = &report.autoscale_overhead;
    eprintln!(
        "  autoscale decide {} ns; floored megafleet cell {} ms vs {} ms fixed \
         ({:+.2}%, {} evals, {:+} ns/eval end-to-end)",
        a.decide_ns,
        a.steady_wall_ms,
        a.fixed_wall_ms,
        a.overhead_frac * 100.0,
        a.cell_evals,
        a.ns_per_eval_end_to_end
    );
    for f in &report.footprint {
        eprintln!(
            "  footprint {:<16} {:>9} allocations  {:>11} B allocated  peak {:>10} B  \
             live after {:>8} B (before {} / {} B / {} B / {} B, peak x{:.3})",
            f.cell,
            f.allocations,
            f.bytes_allocated,
            f.peak_live_bytes,
            f.live_after_bytes,
            f.before_allocations,
            f.before_bytes_allocated,
            f.before_peak_live_bytes,
            f.before_live_after_bytes,
            f.peak_live_ratio
        );
    }
    for c in &report.calibration_footprint {
        eprintln!(
            "  calibration {:<12} {:>9} allocations  {:>11} B allocated  peak {:>10} B \
             (before {} / {} B / {} B)",
            c.machine,
            c.allocations,
            c.bytes_allocated,
            c.peak_live_bytes,
            c.before_allocations,
            c.before_bytes_allocated,
            c.before_peak_live_bytes
        );
    }
    for w in &report.work {
        eprintln!(
            "  work {:<26} {:>9} events ({} ticks, {} delivers, {} wakes)  {:>9} segments \
             (before {} events, {} segments)",
            w.name,
            w.events,
            w.core_ticks,
            w.delivers,
            w.wakes,
            w.segments,
            w.before_events,
            w.before_segments
        );
    }
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json + "\n").expect("write report");
    eprintln!("wrote {}", out.display());
}
