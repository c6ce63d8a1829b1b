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
//!             [--run-all-jobs N]
//! ```
//!
//! With no `--out`, the report is written to `BENCH_perf.json` in the
//! repository root.

use analysis::linreg::{LeastSquares, RollingLeastSquares};
use analysis::xcorr::{find_alignment, find_alignment_naive};
use ossim::ContextId;
use pc_bench::{alignment_signals, refit_rows, HeapQueue, NaiveContainers, NaiveTrace};
use power_containers::{
    BankConfig, CalibrationSample, CalibrationSet, ContainerManager, MetricVector, ModelBank,
    ModelKind, PowerModel, Recalibrator, RegimeKey, TraceRing, FEATURES,
};
use serde::Serialize;
use simkern::{EventQueue, SimDuration, SimTime};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

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
#[derive(Serialize)]
struct TelemetryTax {
    name: String,
    baseline_ns: u64,
    disabled_ns: u64,
    enabled_ns: u64,
    disabled_overhead: f64,
    enabled_overhead: f64,
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
    obs_overhead: ObsOverhead,
    sched_overhead: SchedOverhead,
    autoscale_overhead: AutoscaleOverhead,
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
    let cadence = BankConfig::default().recalibrate_every;

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
            let mut bank = ModelBank::new(&set, KIND, initial.clone(), BankConfig::default());
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

fn queue_pair() -> KernelPair {
    // A same-instant push/pop cascade (a handler scheduling follow-up
    // work at the instant being drained) over a backlog of future
    // timers: the heap pays O(log backlog) per op, the bucket O(1).
    const BURST: u64 = 64;
    const BACKLOG: u64 = 1024;
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let mut bucket: EventQueue<u64> = EventQueue::new();
    for i in 0..BACKLOG {
        heap.push(SimTime::from_secs(3600 + i), i);
        bucket.push(SimTime::from_secs(3600 + i), i);
    }
    let mut t = 0u64;
    let before = median_ns(16, || {
        t += 1;
        let at = SimTime::from_micros(t);
        heap.push(at, 0);
        heap.push(at, 1);
        black_box(heap.pop());
        for i in 0..BURST {
            heap.push(at, i);
            black_box(heap.pop());
        }
        black_box(heap.pop());
    });
    let after = median_ns(16, || {
        t += 1;
        let at = SimTime::from_micros(t);
        bucket.push(at, 0);
        bucket.push(at, 1);
        black_box(bucket.pop());
        for i in 0..BURST {
            bucket.push(at, i);
            black_box(bucket.pop());
        }
        black_box(bucket.pop());
    });
    pair(
        "event_queue_same_instant_cascade64",
        "binary heap with sequence tiebreak, O(log n) per op",
        "FIFO front bucket for the active instant, O(1) per op",
        before,
        after,
    )
}

fn trace_pair() -> KernelPair {
    const SLOTS: u64 = 4096;
    let mut naive = NaiveTrace::new();
    let slot = SimDuration::from_millis(1);
    let mut ring: TraceRing<f64> = TraceRing::new(slot, SLOTS as usize + 1);
    for ms in 1..=SLOTS {
        let w = 20.0 + (ms % 7) as f64;
        naive.add(SimTime::from_millis(ms), w, slot);
        ring.add(SimTime::from_millis(ms), w, slot);
    }
    let mut q = 0u64;
    let before = median_ns(16, || {
        q = q % (SLOTS - 20) + 1;
        let t0 = SimTime::from_millis(q);
        black_box(naive.mean_over_wall(t0, t0 + SimDuration::from_millis(20)));
    });
    let after = median_ns(16, || {
        q = q % (SLOTS - 20) + 1;
        let t0 = SimTime::from_millis(q);
        black_box(ring.mean_over_wall(t0, t0 + SimDuration::from_millis(20)));
    });
    pair(
        "trace_windowed_mean_4096_slots",
        "linear scan over retained samples per query",
        "cached prefix-sum cursor",
        before,
        after,
    )
}

fn container_pair() -> KernelPair {
    // The dispatcher's container lifecycle under churn: a working set of
    // live request containers, each op binds a fresh context, attributes
    // samples to a rotating window of live ones, and unbinds the oldest.
    // The before side pays a boxed allocation per create, a `std` hash
    // per touch and a free per release; the after side recycles slots
    // LIFO in SoA rows and hits the one-entry lookup cache on the
    // repeated-touch pattern.
    const LIVE: u64 = 1024;
    const TOUCH: u64 = 4;
    let events = hwsim::CounterBlock::default();
    let mut naive = NaiveContainers::new();
    let mut mgr = ContainerManager::new(false);
    for ctx in 0..LIVE {
        naive.bind(ctx, SimTime::ZERO);
        mgr.bind(ContextId(ctx), SimTime::ZERO);
    }
    let mut next = LIVE;
    let before = median_ns(16, || {
        let now = SimTime::from_micros(next);
        naive.bind(next, now);
        for k in 0..TOUCH {
            naive.attribute(next - k, 14.0, 1e-4, &events);
        }
        naive.unbind(next - LIVE);
        next += 1;
        black_box(naive.released());
    });
    let mut next2 = LIVE;
    let after = median_ns(16, || {
        let now = SimTime::from_micros(next2);
        mgr.bind(ContextId(next2), now);
        for k in 0..TOUCH {
            mgr.attribute(Some(ContextId(next2 - k)), 14.0, 1.0, 1e-4, &events, now);
        }
        mgr.unbind(ContextId(next2 - LIVE), now);
        next2 += 1;
        black_box(mgr.released_count());
    });
    pair(
        "container_churn_live1024",
        "boxed AoS records behind a std hash map, alloc/free per lifecycle",
        "slot-parallel SoA rows, LIFO slot recycling + lookup cache",
        before,
        after,
    )
}

fn scratch_pair() -> KernelPair {
    // The dispatcher's per-tick drain loop: collect the due subset of
    // the inflight table, then gather each request's reply segments.
    // The before shape allocates a fresh `Vec` for the due list and
    // another per request for its segments — the engine's old per-tick
    // garbage; the after shape drains into buffers reused across ticks.
    const INFLIGHT: usize = 256;
    const SEGS: usize = 4;
    let table: Vec<(u64, [u64; SEGS])> =
        (0..INFLIGHT as u64).map(|i| (i, [i, i ^ 7, i >> 1, i + 3])).collect();
    let mut tick = 0u64;
    let before = median_ns(16, || {
        tick += 1;
        let due: Vec<usize> =
            (0..INFLIGHT).filter(|i| (*i as u64 + tick).is_multiple_of(3)).collect();
        let mut sum = 0u64;
        for i in due {
            let segs: Vec<u64> = table[i].1.to_vec();
            sum += segs.iter().sum::<u64>();
        }
        black_box(sum);
    });
    let mut due_buf: Vec<usize> = Vec::new();
    let mut seg_buf: Vec<u64> = Vec::new();
    let mut tick2 = 0u64;
    let after = median_ns(16, || {
        tick2 += 1;
        due_buf.clear();
        due_buf.extend((0..INFLIGHT).filter(|i| (*i as u64 + tick2).is_multiple_of(3)));
        let mut sum = 0u64;
        for &i in &due_buf {
            seg_buf.clear();
            seg_buf.extend_from_slice(&table[i].1);
            sum += seg_buf.iter().sum::<u64>();
        }
        black_box(sum);
    });
    pair(
        "dispatch_drain_tick256",
        "fresh Vec per tick for the due list + per-request segment Vec",
        "scratch buffers cleared and reused across ticks",
        before,
        after,
    )
}

fn tax(name: &str, baseline_ns: u64, disabled_ns: u64, enabled_ns: u64) -> TelemetryTax {
    let over = |ns: u64| ns as f64 / baseline_ns.max(1) as f64 - 1.0;
    TelemetryTax {
        name: name.to_string(),
        baseline_ns,
        disabled_ns,
        enabled_ns,
        disabled_overhead: over(disabled_ns),
        enabled_overhead: over(enabled_ns),
    }
}

/// Alignment-scan loop instrumented exactly like
/// `PowerContainerFacility::poll_meter`: an enabled-guard around the
/// scan event, score histogram and counter.
fn alignment_tax() -> TelemetryTax {
    let (measure, model) = alignment_signals(5000, 500, 137);
    let scan = |tele: &telemetry::Telemetry| {
        let (peak, curve) =
            find_alignment(black_box(&measure), black_box(&model), 500).expect("peak");
        if tele.enabled() {
            tele.instant(
                SimTime::from_millis(peak.lag as u64),
                "align",
                "scan",
                &[("delay_ms", (peak.lag as u64).into()), ("score", peak.score.into())],
            );
            tele.observe("align.score", peak.score);
            tele.add_count("align.scans", 1);
        }
        black_box(curve);
    };
    let baseline = median_ns(1, || {
        black_box(find_alignment(black_box(&measure), black_box(&model), 500));
    });
    let disabled_handle = telemetry::Telemetry::disabled();
    let disabled = median_ns(1, || scan(&disabled_handle));
    let enabled_handle = telemetry::Telemetry::recording();
    enabled_handle.register_histogram("align.score", &[0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99]);
    let enabled = median_ns(1, || scan(&enabled_handle));
    tax("alignment_n5000_l500", baseline, disabled, enabled)
}

/// Incremental-refit loop instrumented like the facility's refit path:
/// an enabled-guard around the refit event and counter.
fn refit_tax() -> TelemetryTax {
    let rows = refit_rows(4096);
    let mut loops: Vec<(RollingLeastSquares, usize)> =
        (0..3).map(|_| (RollingLeastSquares::new(8, 256), 0usize)).collect();
    for (win, _) in &mut loops {
        for (row, y) in &rows {
            win.push(row, *y, 1.0);
        }
    }
    let mut step = |li: usize, tele: Option<&telemetry::Telemetry>| {
        let (win, i) = &mut loops[li];
        let (row, y) = &rows[*i % rows.len()];
        *i += 1;
        win.push(row, *y, 1.0);
        black_box(win.solve().expect("fit"));
        if let Some(tele) = tele {
            if tele.enabled() {
                tele.instant(
                    SimTime::from_micros(*i as u64),
                    "recal",
                    "refit",
                    &[("n", (*i as u64).into())],
                );
                tele.add_count("recal.refits", 1);
            }
        }
    };
    let baseline = median_ns(64, || step(0, None));
    let disabled_handle = telemetry::Telemetry::disabled();
    let disabled = median_ns(64, || step(1, Some(&disabled_handle)));
    let enabled_handle = telemetry::Telemetry::recording();
    let enabled = median_ns(64, || step(2, Some(&enabled_handle)));
    tax("refit_incremental_n4096", baseline, disabled, enabled)
}

/// Measures the observability plane's price: ns/sample for each
/// bounded-memory aggregator on its hot path, and the end-to-end wall
/// delta of a megafleet-shaped cell with the plane off vs always on
/// (fastest of 9 interleaved rounds each; the enabled run must stay
/// alert-silent).
fn obs_overhead() -> ObsOverhead {
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
    let mut lab = experiments::Lab::new();
    let base = experiments::megafleet::cell_config(NODES, REQUESTS);
    let cals = experiments::megafleet::cell_calibrations(&mut lab, &base);
    let wall_us = |obs: Option<cluster::ObsConfig>| {
        let mut cfg = experiments::megafleet::cell_config(NODES, REQUESTS);
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
fn sched_overhead() -> SchedOverhead {
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
    let mut lab = experiments::Lab::new();
    let base = experiments::megafleet::cell_config(NODES, REQUESTS);
    let cals = experiments::megafleet::cell_calibrations(&mut lab, &base);
    let kinds = swept_kinds();
    let mut best: Vec<u128> = vec![u128::MAX; kinds.len()];
    for _ in 0..RUNS {
        for (i, kind) in kinds.iter().enumerate() {
            let mut cfg = experiments::megafleet::cell_config(NODES, REQUESTS);
            cfg.sched = vec![kind.clone()];
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
fn autoscale_overhead() -> AutoscaleOverhead {
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

    let mut lab = experiments::Lab::new();
    let base = experiments::megafleet::cell_config(NODES, REQUESTS);
    let cals = experiments::megafleet::cell_calibrations(&mut lab, &base);
    let mut cell_evals = 0u64;
    let wall_us = |floored: bool, cell_evals: &mut u64| {
        let mut cfg = experiments::megafleet::cell_config(NODES, REQUESTS);
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_perf.json")
        });
    eprintln!("measuring kernels ({SAMPLES} samples each, median reported)...");
    let report = Report {
        generated_by: "pc-bench perf_report".to_string(),
        host: HostMeta {
            cpus_logical: cpus_logical(),
            cpus_available: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
        samples_per_measurement: SAMPLES,
        kernels: vec![
            alignment_pair(),
            refit_pair(),
            queue_pair(),
            trace_pair(),
            container_pair(),
            scratch_pair(),
        ],
        refit_cost_vs_samples_seen: refit_scaling(),
        bank_selection_vs_live_slots: bank_selection(),
        telemetry_tax: vec![alignment_tax(), refit_tax()],
        obs_overhead: obs_overhead(),
        sched_overhead: sched_overhead(),
        autoscale_overhead: autoscale_overhead(),
        harness: Harness {
            run_all_serial_before_s: arg_secs(&args, "--run-all-before"),
            run_all_serial_after_s: arg_secs(&args, "--run-all-after"),
            run_all_jobs4_s: arg_secs(&args, "--run-all-jobs4"),
            run_all_jobs: arg_count(&args, "--run-all-jobs"),
            note: "harness times are wall-clock runs of `run_all` at full scale; \
                   the before run predates fault_sweep (~14 s of the after total), \
                   so the like-for-like serial speedup is larger than the raw ratio; \
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
            "  telemetry tax {:<26} disabled {:>+6.2}%  enabled {:>+6.2}%",
            t.name,
            t.disabled_overhead * 100.0,
            t.enabled_overhead * 100.0
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
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json + "\n").expect("write report");
    eprintln!("wrote {}", out.display());
}
