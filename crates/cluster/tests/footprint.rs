//! Heap footprint of fleet nodes: what grows with simulated time, and
//! what a crash journal costs.
//!
//! A counting global allocator, private to this test binary, tracks the
//! allocations, bytes allocated and live heap of the calling thread, so
//! tests running in parallel do not see each other's allocations. A
//! cluster run is single-threaded, so the thread that calls it sees all
//! of its heap traffic.

use cluster::{
    run_cluster, ClusterConfig, ClusterOutcome, RecoveryConfig, SimpleBalance, Topology,
};
use hwsim::{FaultConfig, MachineSpec};
use power_containers::{ContainerRecord, RequestEnergy};
use simkern::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::{calibrate_machine, MachineCalibration};

/// Delegates to the system allocator and counts on the calling thread.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Books `grow` bytes allocated and `shrink` bytes freed. Memory freed
/// on another thread than it was allocated on skews only the threads'
/// own live counts, and no test here hands heap across threads.
fn note(grow: usize, shrink: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + grow as isize - shrink as isize;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
    if grow > 0 {
        let _ = BYTES.try_with(|b| b.set(b.get() + grow as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` passes through to `System` unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` passes through to `System` unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(0, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`; the caller's `new_size` passes through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size, layout.size());
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap use of one measured call on this thread.
#[derive(Debug)]
struct Footprint {
    /// Bytes allocated, reallocation growth included.
    bytes: u64,
    /// Peak live heap above the live heap at the call, bytes.
    peak: usize,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Footprint) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let bytes = BYTES.with(Cell::get);
    let out = f();
    let fp = Footprint {
        bytes: BYTES.with(Cell::get) - bytes,
        peak: (PEAK.with(Cell::get) - base) as usize,
    };
    (out, fp)
}

const NODES: usize = 4;

/// Four SandyBridge nodes under the fixed ChipShare model: no meter is
/// polled, so each node's on-chip meter goes unread.
fn chipshare_fleet(millis: u64, volume: f64) -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::single_tier(vec![
        MachineSpec::sandybridge();
        NODES
    ]));
    cfg.seed = 42;
    cfg.volume = volume;
    cfg.duration = SimDuration::from_millis(millis);
    cfg
}

/// The same fleet under node crashes, journaling its containers every
/// `every_ms`.
fn crash_cell(millis: u64, every_ms: u64) -> ClusterConfig {
    let mut cfg = chipshare_fleet(millis, 0.5);
    cfg.faults = FaultConfig {
        seed: 5,
        node_crash_hz: 1.0,
        node_crash_len: SimDuration::from_millis(40),
        node_warmup_len: SimDuration::from_millis(20),
        ..FaultConfig::none()
    };
    cfg.recovery = Some(RecoveryConfig {
        checkpoint_every: SimDuration::from_millis(every_ms),
        ..RecoveryConfig::standard()
    });
    cfg
}

fn calibrations() -> Vec<MachineCalibration> {
    vec![calibrate_machine(&MachineSpec::sandybridge(), 7); NODES]
}

fn run(cfg: &ClusterConfig, cals: &[MachineCalibration]) -> (ClusterOutcome, Footprint) {
    measure(|| run_cluster(&mut SimpleBalance::new(), cfg, cals))
}

#[test]
fn chipshare_fleet_grows_only_by_its_record_log() {
    // Doubling the run doubles the simulated milliseconds every node
    // lives through. Nothing on a ChipShare node reads model history or
    // meter reports, so the only state that may grow with them is the
    // record log: one 16-byte context-and-joules entry per completed
    // request, in a Vec that holds at most twice its length. A full
    // 88-byte record per request would exceed that bound, and history
    // rings that grew with simulated time would add 176 B per node per
    // simulated ms.
    let cals = calibrations();
    let (short, short_fp) = run(&chipshare_fleet(1_000, 0.2), &cals);
    let (long, long_fp) = run(&chipshare_fleet(2_000, 0.2), &cals);
    assert!(long.completed > short.completed, "the longer run completes more requests");
    let grown = long_fp.peak.saturating_sub(short_fp.peak);
    let records = long.completed - short.completed;
    let log_bound = 2 * std::mem::size_of::<RequestEnergy>() * records + 16 * 1024;
    assert!(
        grown <= log_bound,
        "peak heap grew {grown} B over 1,000 simulated ms for {records} more records \
         (at most {log_bound} B): {short_fp:?} -> {long_fp:?}"
    );
}

#[test]
fn crash_journal_costs_live_containers_not_records() {
    // Journaling ten times as often leaves the rest of what a node
    // allocates all but unchanged, so the difference in bytes
    // allocated, per extra checkpoint, is what one checkpoint costs. It must not grow as the
    // record log doubles with the run's length, and must stay far below
    // a copy of the log.
    let cals = calibrations();
    let per_checkpoint = |millis: u64| {
        let (sparse, sparse_fp) = run(&crash_cell(millis, 50), &cals);
        let (dense, dense_fp) = run(&crash_cell(millis, 5), &cals);
        assert!(sparse.crashes > 0, "no crash fired");
        assert!(dense.checkpoints > 2 * sparse.checkpoints);
        let extra = dense.checkpoints - sparse.checkpoints;
        let cost = dense_fp.bytes.saturating_sub(sparse_fp.bytes) / extra;
        let records_per_node = dense.completed / NODES;
        (cost, records_per_node)
    };
    let (short_cost, short_records) = per_checkpoint(1_000);
    let (long_cost, long_records) = per_checkpoint(2_000);
    assert!(long_records > 3 * short_records / 2, "the log grows with the run");
    assert!(
        long_cost <= short_cost + short_cost / 4 + 64,
        "a checkpoint cost {short_cost} B at {short_records} records per node but \
         {long_cost} B at {long_records}: it grows with the log"
    );
    let copy = (std::mem::size_of::<ContainerRecord>() * long_records) as u64;
    assert!(
        long_cost < copy / 8,
        "a checkpoint cost {long_cost} B, against {copy} B for a copy of the log"
    );
}
