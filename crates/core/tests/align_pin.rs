//! Pins every outcome of the alignment scan bit for bit.
//!
//! A seeded corpus of facility-like histories runs through
//! `DelayEstimator::estimate_checked`, and one FNV-1a digest covers every
//! outcome: the delay, the score's bits and every curve point's bits, or
//! the error with its fields. Between scans the model ring is written the
//! way the facility writes it: per-core samples at the current instant,
//! I/O spans backfilled slot by slot into older slots, idle stretches
//! that write nothing, enough history to evict, and reboots that start
//! a fresh ring and estimator. The corpus reaches all three scan paths:
//! the gridded scan with FFT cross products (many covered windows), the
//! gridded scan with direct ones (a young ring), and the reference scan
//! (an arrival nudged off the grid, or a non-finite reading).
//!
//! The digest was taken before the scan's kernels were optimised; any
//! change to a kernel must leave it unchanged.

use power_containers::{AlignmentResult, DelayEstimator, FacilityError, Reading, TraceRing};
use simkern::{SimDuration, SimTime};

/// The digest of the whole corpus.
const CORPUS_DIGEST: u64 = 0x52e5_0738_d257_eadd;

/// The facility's scan geometry for the on-chip meter.
const MAX_DELAY_MS: u64 = 2_000;
const HISTORY: usize = 128;
const ALIGN_EVERY: usize = 16;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// One corpus entry: a node's life under one workload shape.
struct Episode {
    seed: u64,
    /// Model ring capacity in 1 ms slots; below the scan's reach the
    /// oldest hypothesized windows are evicted.
    capacity: usize,
    /// Simulated milliseconds.
    ticks: u64,
    /// Simulated time at which the node boots.
    start_ms: u64,
    /// Meter window length in ms (the on-chip meter's is 1).
    window_ms: u64,
    /// Delivery delay past the window's end, in µs.
    delay_us: u64,
    /// Ticks at which the node reboots with an empty ring and estimator.
    reboots: &'static [u64],
    /// Ticks whose reading arrives 3 µs off the grid.
    jitter: &'static [u64],
    /// Ticks whose reading is NaN.
    nan: &'static [u64],
    /// Ticks from which the meter reads noise unrelated to the model,
    /// until the given end tick.
    garbage: Option<(u64, u64)>,
    /// Period of a square-wave workload, in ms; 0 for aperiodic levels.
    period_ms: u64,
    /// Ticks after each boot in which nothing writes the ring.
    quiet_after_boot: u64,
}

const CORPUS: &[Episode] = &[
    // A long-lived node: the series fills to 2,128 covered windows and
    // the scan takes the FFT path once ~1,100 are covered.
    Episode {
        seed: 0x9E37_79B9_7F4A_7C15,
        capacity: 8_192,
        ticks: 2_700,
        start_ms: 40_000,
        window_ms: 1,
        delay_us: 1_000,
        reboots: &[],
        jitter: &[],
        nan: &[],
        garbage: Some((2_200, 2_500)),
        period_ms: 0,
        quiet_after_boot: 0,
    },
    // A ring shorter than the scan's reach: old windows are evicted, and
    // two crashes leave young nodes on the direct path.
    Episode {
        seed: 0xD1B5_4A32_D192_ED03,
        capacity: 1_500,
        ticks: 2_600,
        start_ms: 7_000,
        window_ms: 1,
        delay_us: 1_000,
        reboots: &[300, 700],
        jitter: &[2_350],
        nan: &[],
        garbage: None,
        period_ms: 0,
        quiet_after_boot: 0,
    },
    // Booted at time zero, so early windows saturate at the origin; a
    // sub-slot delivery delay makes every window straddle two slots.
    Episode {
        seed: 0x94D0_49BB_1331_11EB,
        capacity: 4_096,
        ticks: 1_400,
        start_ms: 0,
        window_ms: 1,
        delay_us: 1_250,
        reboots: &[],
        jitter: &[],
        nan: &[900],
        garbage: None,
        period_ms: 0,
        quiet_after_boot: 0,
    },
    // A periodic workload: aliased delays tie and the scan is ambiguous.
    Episode {
        seed: 0xBF58_476D_1CE4_E5B9,
        capacity: 8_192,
        ticks: 600,
        start_ms: 90_000,
        window_ms: 1,
        delay_us: 3_000,
        reboots: &[],
        jitter: &[],
        nan: &[],
        garbage: None,
        period_ms: 10,
        quiet_after_boot: 0,
    },
    // A multi-slot meter window, so window means go through the ring's
    // prefix sums; after each boot the node stays quiet long enough for
    // a scan to find no model history at all.
    Episode {
        seed: 0x2545_F491_4F6C_DD1D,
        capacity: 2_048,
        ticks: 1_300,
        start_ms: 12_345,
        window_ms: 3,
        delay_us: 2_000,
        reboots: &[600],
        jitter: &[],
        nan: &[],
        garbage: None,
        period_ms: 0,
        quiet_after_boot: 60,
    },
];

/// Scan counts per path, from the scan's own coverage.
#[derive(Debug, Default)]
struct Reach {
    fft: usize,
    direct: usize,
    reference: usize,
    ok: usize,
    low_score: usize,
    ambiguous: usize,
    insufficient: usize,
}

fn fresh(window: SimDuration, capacity: usize) -> (TraceRing<f64>, DelayEstimator) {
    let slot = SimDuration::from_millis(1);
    let ring = TraceRing::new(slot, capacity);
    let est = DelayEstimator::new(
        window,
        SimDuration::from_millis(MAX_DELAY_MS),
        SimDuration::from_millis(1),
        HISTORY,
    );
    (ring, est)
}

/// Writes `[now − span, now)` into older slots chunk by chunk, exactly
/// as the facility backfills a device's active span at I/O completion.
fn backfill(ring: &mut TraceRing<f64>, now: SimTime, span: SimDuration, watts: f64) {
    let slot = ring.slot().as_nanos();
    let mut t = now - span;
    while t < now {
        let chunk_end = SimTime::from_nanos((t.as_nanos() / slot + 1) * slot).min(now);
        ring.add(chunk_end, watts, chunk_end.duration_since(t));
        t = chunk_end;
    }
}

fn hash_outcome(h: &mut Fnv, out: &Result<AlignmentResult, FacilityError>) {
    match out {
        Ok(r) => {
            h.write(b"ok");
            h.u64(r.delay.as_nanos());
            h.u64(r.score.to_bits());
            h.u64(r.curve.len() as u64);
            for (d, s) in &r.curve {
                h.u64(d.as_nanos());
                h.u64(s.to_bits());
            }
        }
        // Debug formats every field, and f64's Debug round-trips.
        Err(e) => h.write(format!("err {e:?}").as_bytes()),
    }
}

/// Runs one episode, folding each scan's outcome into `h`.
fn run_episode(ep: &Episode, h: &mut Fnv, reach: &mut Reach) {
    let mut rng = Rng(ep.seed);
    let window = SimDuration::from_millis(ep.window_ms);
    let (mut ring, mut est) = fresh(window, ep.capacity);
    // Per-ms modeled power, so the meter can report a window's truth.
    let mut truth: Vec<f64> = Vec::new();
    let mut level = 20.0;
    let mut idle = false;
    let mut since_scan = 0;
    let mut off_grid_until = 0u64;
    let mut booted = 0;
    for tick in 0..ep.ticks {
        if ep.reboots.contains(&tick) {
            (ring, est) = fresh(window, ep.capacity);
            since_scan = 0;
            booted = tick;
        }
        let quiet = tick < booted + ep.quiet_after_boot;
        let ms = ep.start_ms + tick;
        let tick_start = SimTime::from_millis(ms);
        let now = SimTime::from_millis(ms + 1);
        // Workload: a square wave, or aperiodic levels held 5-80 ms with
        // idle stretches that write nothing at all.
        if ep.period_ms > 0 {
            level = if (ms / (ep.period_ms / 2)).is_multiple_of(2) { 42.0 } else { 14.0 };
        } else if rng.below(40) == 0 {
            idle = rng.below(5) == 0;
            level = 8.0 + 40.0 * rng.unit();
        }
        let mut modeled = 0.0;
        if !idle && !quiet {
            // Per-core samples at instants inside this tick.
            let cores = 1 + rng.below(4);
            for _ in 0..cores {
                let at = 1 + rng.below(1_000);
                let dt = SimDuration::from_micros(50 + rng.below(950));
                let watts = level * (0.2 + 0.3 * rng.unit());
                ring.add(tick_start + SimDuration::from_micros(at), watts, dt);
                modeled += watts * dt.as_secs_f64() * 1e3;
            }
        }
        // An I/O completion backfills its device's span into older slots.
        if rng.below(12) == 0 && !quiet {
            let span = SimDuration::from_micros(200 + rng.below(40_000));
            backfill(&mut ring, now, span, 3.0 + 4.0 * rng.unit());
        }
        truth.push(modeled);
        // The reading for the window that closed `delay` ago arrives now.
        let delay_ms = ep.delay_us.div_ceil(1_000);
        if tick + 1 < delay_ms + ep.window_ms {
            continue;
        }
        let w_end = tick + 1 - delay_ms; // exclusive, in ticks
        let w_start = w_end - ep.window_ms;
        let mean =
            truth[w_start as usize..w_end as usize].iter().sum::<f64>() / ep.window_ms as f64;
        let mut watts = 12.0 + 1.03 * mean + 0.05 * rng.unit();
        if let Some((from, to)) = ep.garbage {
            if (from..to).contains(&tick) {
                watts = 10.0 + 30.0 * rng.unit();
            }
        }
        if ep.nan.contains(&tick) {
            watts = f64::NAN;
        }
        let mut arrived_at =
            SimTime::from_millis(ep.start_ms + w_end) + SimDuration::from_micros(ep.delay_us);
        if ep.jitter.contains(&tick) {
            arrived_at += SimDuration::from_micros(3);
            off_grid_until = tick + HISTORY as u64;
        }
        if ep.nan.contains(&tick) {
            off_grid_until = tick + HISTORY as u64;
        }
        est.push(Reading { arrived_at, watts });
        since_scan += 1;
        if since_scan < ALIGN_EVERY {
            continue;
        }
        since_scan = 0;
        let out = est.estimate_checked(&ring);
        hash_outcome(h, &out);
        match &out {
            Ok(_) => reach.ok += 1,
            Err(FacilityError::AlignmentLowScore { .. }) => reach.low_score += 1,
            Err(FacilityError::AlignmentAmbiguous { .. }) => reach.ambiguous += 1,
            Err(_) => reach.insufficient += 1,
        }
        // Classify the scan by the coverage it saw (1 ms windows never
        // touch the ring's prefix sums, so counting cannot perturb it).
        if tick < off_grid_until {
            reach.reference += 1;
            continue;
        }
        if ep.window_ms != 1 {
            continue;
        }
        let newest = est.readings().last().expect("readings").arrived_at;
        let total = est.len() as u64 + MAX_DELAY_MS;
        let covered = (0..total)
            .filter(|&j| {
                let end = newest - SimDuration::from_millis(j);
                ring.mean_over_wall(end - window, end).is_some()
            })
            .count();
        if covered >= 1_100 {
            reach.fft += 1;
        } else if covered <= 700 {
            reach.direct += 1;
        }
    }
}

#[test]
fn corpus_outcomes_are_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut reach = Reach::default();
    for ep in CORPUS {
        run_episode(ep, &mut h, &mut reach);
    }
    println!("corpus digest {:#018x}, reach {reach:?}", h.0);
    assert!(reach.fft >= 40, "too few FFT-path scans: {reach:?}");
    assert!(reach.direct >= 40, "too few direct-path scans: {reach:?}");
    assert!(reach.reference >= 8, "too few reference scans: {reach:?}");
    assert!(
        reach.ok >= 100
            && reach.low_score >= 5
            && reach.ambiguous >= 5
            && reach.insufficient >= 2,
        "outcome mix: {reach:?}"
    );
    assert_eq!(h.0, CORPUS_DIGEST, "an alignment outcome moved");
}
