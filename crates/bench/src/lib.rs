//! Shared fixtures for the Criterion benchmarks.
//!
//! The benches quantify the costs the paper's §3.5 reports (container
//! maintenance, recalibration, duty-cycle control) plus the simulation
//! substrate's own throughput, which bounds how fast the experiment
//! harness can regenerate figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hwsim::{ActivityProfile, CoreId, Machine, MachineSpec};
use power_containers::{
    Approach, CalibrationSample, CalibrationSet, FacilityConfig, MetricVector, ModelKind,
    PowerContainerFacility, PowerModel,
};
use simkern::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A synthetic calibration set good enough for benchmarking fits.
pub fn synthetic_calibration() -> CalibrationSet {
    let mut set = CalibrationSet::new(26.1);
    for i in 1..=48 {
        let u = i as f64 / 48.0;
        let m = MetricVector {
            core: u,
            ins: 2.0 * u,
            float: 0.4 * u,
            cache: 0.06 * u,
            mem: 0.03 * u,
            chipshare: 1.0,
            disk: 0.0,
            net: 0.0,
        };
        set.push(CalibrationSample { metrics: m, active_watts: 12.0 * u + 5.6 });
    }
    set
}

/// A calibrated chip-share model for the SandyBridge spec.
pub fn bench_model() -> PowerModel {
    synthetic_calibration()
        .fit(ModelKind::WithChipShare)
        .expect("benchmark calibration fit")
}

/// Deterministic xorshift64* stream for building bench signals without
/// pulling in an RNG crate.
pub struct XorShift(u64);

impl XorShift {
    /// Creates a stream from a non-zero seed.
    pub fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    /// Next value uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A (measure, model) signal pair with real structure and a known lag,
/// sized for the alignment microbenchmarks.
pub fn alignment_signals(n: usize, max_lag: usize, true_lag: usize) -> (Vec<f64>, Vec<f64>) {
    let mut rng = XorShift::new(0x5EED_0001);
    let model: Vec<f64> = (0..n + max_lag)
        .map(|i| {
            let square = if (i / 40) % 2 == 0 { 35.0 } else { 12.0 };
            square + 4.0 * ((i % 17) as f64 / 17.0) + rng.next_f64()
        })
        .collect();
    let measure: Vec<f64> = model[true_lag..true_lag + n].to_vec();
    (measure, model)
}

/// Random regression rows (8 features, like the Eq. 2 metric vector)
/// for the refit benchmarks.
pub fn refit_rows(n: usize) -> Vec<(Vec<f64>, f64)> {
    let mut rng = XorShift::new(0x5EED_0002);
    (0..n)
        .map(|_| {
            let row: Vec<f64> = (0..8).map(|_| rng.next_f64() * 4.0).collect();
            let y = row.iter().enumerate().map(|(j, x)| x * (j + 1) as f64).sum::<f64>()
                + rng.next_f64() * 0.1;
            (row, y)
        })
        .collect()
}

/// Reference ("before") event queue: a plain binary heap with an
/// insertion sequence number for FIFO stability, the shape the
/// simulation substrate used before its event queue became a sorted
/// `Vec`.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    events: Vec<Option<E>>,
    seq: u64,
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> HeapQueue<E> {
        HeapQueue { heap: BinaryHeap::new(), events: Vec::new(), seq: 0 }
    }

    /// Schedules `event` at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let id = self.events.len() as u64;
        self.events.push(Some(event));
        self.heap.push(Reverse((at, self.seq, id)));
        self.seq += 1;
    }

    /// Pops the earliest event, FIFO within an instant.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, id)) = self.heap.pop()?;
        Some((at, self.events[id as usize].take().expect("event present")))
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

/// Reference ("before") trace store: windowed integrals by linear scan
/// over the retained samples, the cost shape `TraceRing` had before the
/// cached prefix-sum cursor.
pub struct NaiveTrace {
    samples: Vec<(SimTime, f64, SimDuration)>,
}

impl NaiveTrace {
    /// Creates an empty trace.
    pub fn new() -> NaiveTrace {
        NaiveTrace { samples: Vec::new() }
    }

    /// Records `value` covering `[t - dt, t)`.
    pub fn add(&mut self, t: SimTime, value: f64, dt: SimDuration) {
        self.samples.push((t, value, dt));
    }

    /// Mean of the recorded values whose end times fall in `[t0, t1)`,
    /// weighted by their coverage — a full scan per query.
    pub fn mean_over_wall(&self, t0: SimTime, t1: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut wall = 0.0;
        for &(t, v, dt) in &self.samples {
            if t >= t0 && t < t1 {
                let secs = dt.as_nanos() as f64 * 1e-9;
                sum += v * secs;
                wall += secs;
            }
        }
        (wall > 0.0).then(|| sum / wall)
    }
}

impl Default for NaiveTrace {
    fn default() -> Self {
        NaiveTrace::new()
    }
}

/// Reference ("before") container store: one boxed allocation per
/// container behind a `std` hash map, released containers freed back to
/// the allocator — the cost shape `ContainerManager` had before the
/// slot-parallel SoA rows, LIFO slot recycling and the one-entry lookup
/// cache. Semantics mirror the manager's bind/attribute/unbind cycle so
/// the two sides of the kernel pair do identical accounting work.
pub struct NaiveContainers {
    map: std::collections::HashMap<u64, Box<NaiveContainer>>,
    total_request_energy_j: f64,
    released: u64,
}

/// Heap-allocated per-container state for [`NaiveContainers`] — the
/// AoS record the SoA rows replaced.
pub struct NaiveContainer {
    /// Tasks currently bound.
    pub refcount: u32,
    /// Binding time.
    pub created_at: SimTime,
    /// Attributed energy.
    pub energy_j: f64,
    /// Attributed busy time.
    pub busy_seconds: f64,
    /// Cumulative event counts.
    pub events: hwsim::CounterBlock,
}

impl NaiveContainers {
    /// Creates an empty store.
    pub fn new() -> NaiveContainers {
        NaiveContainers {
            map: std::collections::HashMap::new(),
            total_request_energy_j: 0.0,
            released: 0,
        }
    }

    /// Binds a task to `ctx`, allocating the container on first sight.
    pub fn bind(&mut self, ctx: u64, now: SimTime) {
        self.map
            .entry(ctx)
            .or_insert_with(|| {
                Box::new(NaiveContainer {
                    refcount: 0,
                    created_at: now,
                    energy_j: 0.0,
                    busy_seconds: 0.0,
                    events: hwsim::CounterBlock::default(),
                })
            })
            .refcount += 1;
    }

    /// Attributes one sampled interval to `ctx`.
    pub fn attribute(
        &mut self,
        ctx: u64,
        watts: f64,
        dt_secs: f64,
        events: &hwsim::CounterBlock,
    ) {
        if let Some(c) = self.map.get_mut(&ctx) {
            self.total_request_energy_j += watts * dt_secs;
            c.energy_j += watts * dt_secs;
            c.busy_seconds += dt_secs;
            c.events.accumulate(events);
        }
    }

    /// Unbinds one task; the container is freed when the last unbinds.
    pub fn unbind(&mut self, ctx: u64) {
        if let Some(c) = self.map.get_mut(&ctx) {
            c.refcount = c.refcount.saturating_sub(1);
            if c.refcount == 0 {
                self.map.remove(&ctx);
                self.released += 1;
            }
        }
    }

    /// Containers released so far (keeps the accounting observable).
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Total energy attributed so far.
    pub fn total_request_energy_j(&self) -> f64 {
        self.total_request_energy_j
    }
}

impl Default for NaiveContainers {
    fn default() -> Self {
        NaiveContainers::new()
    }
}

/// A facility + machine pair with core 0 busy, ready for hook-level
/// benchmarking.
pub fn facility_fixture() -> (PowerContainerFacility, Machine) {
    let spec = MachineSpec::sandybridge();
    let facility = PowerContainerFacility::new(
        bench_model(),
        None,
        &spec,
        FacilityConfig {
            approach: Approach::ChipShare,
            retain_records: false,
            ..FacilityConfig::default()
        },
    );
    let mut machine = Machine::new(spec, 1);
    machine.set_running(CoreId(0), Some(ActivityProfile::stress()));
    (facility, machine)
}
