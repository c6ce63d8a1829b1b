//! Heap footprint of fleet nodes and the dispatcher: what grows with
//! simulated time, what a crash journal costs, what a rebooted node
//! keeps of its meter backlog, and what the end-of-run per-request
//! accounting costs.
//!
//! A counting global allocator, private to this test binary, tracks the
//! allocations, bytes allocated and live heap of the calling thread, so
//! tests running in parallel do not see each other's allocations. A
//! cluster run is single-threaded, so the thread that calls it sees all
//! of its heap traffic.

use cluster::{
    run_cluster, run_pipeline, ClusterConfig, ClusterOutcome, DistributionPolicy, ObsConfig,
    RecoveryConfig, SimpleBalance, Topology,
};
use hwsim::{ActivityProfile, FaultConfig, MachineSpec};
use ossim::{FnProgram, Kernel, KernelConfig, Op};
use power_containers::{
    Approach, BankConfig, ContainerRecord, FacilityConfig, RecordRetention, RequestEnergy,
};
use simkern::{SimDuration, SimTime};
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
    /// Live heap above the live heap at the call once it has returned:
    /// what its result holds, bytes.
    held: usize,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Footprint) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let bytes = BYTES.with(Cell::get);
    let out = f();
    let fp = Footprint {
        bytes: BYTES.with(Cell::get) - bytes,
        peak: (PEAK.with(Cell::get) - base) as usize,
        held: (LIVE.with(Cell::get) - base).max(0) as usize,
    };
    (out, fp)
}

/// Bytes a `Vec` grown one push at a time holds for `len` elements of
/// `size` bytes: std doubles its room from 8 one-byte or 4 larger
/// elements.
fn pushed_room(len: usize, size: usize) -> usize {
    let least = if size == 1 { 8 } else { 4 };
    if len == 0 {
        0
    } else {
        len.next_power_of_two().max(least) * size
    }
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
    // lives through and the requests the fleet serves. Nothing on a
    // ChipShare node reads model history or meter reports, and the
    // dispatcher keeps a request's serials only while it is in flight,
    // so two things may grow with the run: each node's record log, one
    // 16-byte context-and-joules entry per request it completed, and the
    // dispatcher's context → app slab, one byte per request. Both are
    // `Vec`s grown by doubling. The peak heap may grow by their room and
    // by 8 KiB of churn besides. A slot for every wire serial ever sent
    // (8 B a request) adds 32 KiB here and fails it; a full 88-byte
    // record per request, or history rings that grow with simulated
    // time (176 B per node per simulated ms), fail it by far more.
    let cals = calibrations();
    let (short, short_fp) = run(&chipshare_fleet(2_000, 0.5), &cals);
    let (long, long_fp) = run(&chipshare_fleet(4_000, 0.5), &cals);
    assert!(long.completed > 3 * short.completed / 2, "the longer run completes more requests");
    let room = |o: &ClusterOutcome| {
        let logs: usize = o
            .per_node
            .iter()
            .map(|n| pushed_room(n.completions, std::mem::size_of::<RequestEnergy>()))
            .sum();
        logs + pushed_room(o.dispatched as usize, 1)
    };
    let grown = long_fp.peak.saturating_sub(short_fp.peak);
    let bound = room(&long) - room(&short) + 8 * 1024;
    assert!(
        grown <= bound,
        "peak heap grew {grown} B over 2,000 simulated ms for {} more requests \
         (at most {bound} B): {short_fp:?} -> {long_fp:?}",
        long.dispatched - short.dispatched
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

/// A Recalibrated SandyBridge node booted `start_ms` into a run through
/// the fleet's node recipe: the bare kernel fast-forwards from time zero
/// first, so by the time the facility is installed the polled on-chip
/// meter holds a report for every millisecond, and the first poll
/// ingests that backlog. The node then runs a CPU-bound task for a
/// second. The kernel returned owns the node's machine and facility.
fn rebooted_node(start_ms: u64, cal: &MachineCalibration) -> Kernel {
    let start = SimTime::from_millis(start_ms);
    let (mut kernel, _facility) = workloads::node::boot(
        &MachineSpec::sandybridge(),
        cal,
        FacilityConfig {
            approach: Approach::Recalibrated,
            model_bank: Some(BankConfig::default()),
            retain_records: RecordRetention::RequestEnergy,
            ..FacilityConfig::default()
        },
        KernelConfig::default(),
        3,
        FaultConfig::none(),
        start,
    );
    kernel.spawn(
        Box::new(FnProgram::new(|_pc| Op::Compute {
            cycles: 4.0e6,
            profile: ActivityProfile::cpu_spin(),
        })),
        None,
    );
    kernel.run_until(start + SimDuration::from_secs(1));
    kernel
}

#[test]
fn rebooted_recalibrated_node_keeps_no_backlog_buffer() {
    // A node rebooted 8 s into a run fast-forwards a backlog of 6,000
    // more on-chip reports than one rebooted at 2 s, and its first poll
    // ingests them all. Once drained, the meter queue and the poll's
    // reading buffer give that room back, so after the run both nodes
    // hold the same heap to within 4 KiB. A reading buffer that kept
    // its backlog's room would hold 16 B per backlog report, rounded up
    // to a power of two: 96 KiB more on the later node.
    let cal = calibrate_machine(&MachineSpec::sandybridge(), 7);
    let (_early, early) = measure(|| rebooted_node(2_000, &cal));
    let (_late, late) = measure(|| rebooted_node(8_000, &cal));
    let report = std::mem::size_of::<hwsim::MeterReport>() as u64;
    assert!(
        late.bytes >= early.bytes + report * 6_000,
        "the later reboot's backlog never queued: {early:?} vs {late:?}"
    );
    assert!(
        late.held <= early.held + 4 * 1024,
        "the node rebooted at 8 s holds {} B after the run, against {} B at 2 s",
        late.held,
        early.held
    );
}

/// A ChipShare SandyBridge node landing `start_ms` into a run through
/// the fleet's node recipe. Its facility polls no meter, so the on-chip
/// meter's report per millisecond goes unread.
fn landed_node(start_ms: u64, cal: &MachineCalibration) -> Kernel {
    let (kernel, _facility) = workloads::node::boot(
        &MachineSpec::sandybridge(),
        cal,
        FacilityConfig {
            retain_records: RecordRetention::RequestEnergy,
            ..FacilityConfig::default()
        },
        KernelConfig::default(),
        3,
        FaultConfig::none(),
        SimTime::from_millis(start_ms),
    );
    kernel
}

#[test]
fn late_landing_never_queues_its_unread_backlog() {
    // A node landing at 16 s fast-forwards through 14,000 more on-chip
    // windows than one landing at 2 s. Nobody reads that meter, so it
    // queues no report, and both boots allocate the same: the time a
    // node lands costs no heap. A meter that queued the unread reports,
    // even dropping them second by second, fails this: its queue grows
    // by 32 B of room per report, 1,023,936 B at 16 s against 135,104 B
    // at 2 s.
    let cal = calibrate_machine(&MachineSpec::sandybridge(), 7);
    let (_early, early) = measure(|| landed_node(2_000, &cal));
    let (_late, late) = measure(|| landed_node(16_000, &cal));
    assert!(
        late.bytes <= early.bytes,
        "the node landing at 16 s allocated {} B while booting, against {} B at 2 s",
        late.bytes,
        early.bytes
    );
}

/// A crash-free three-tier pipeline of six SandyBridge nodes, observed
/// or not.
fn pipeline(millis: u64, observed: bool) -> ClusterConfig {
    let tier = || vec![MachineSpec::sandybridge(); 2];
    let mut cfg = ClusterConfig::sharded(&Topology::three_tier(tier(), tier(), tier()));
    cfg.seed = 42;
    cfg.volume = 0.5;
    cfg.duration = SimDuration::from_millis(millis);
    cfg.obs = observed.then(ObsConfig::standard);
    cfg
}

#[test]
fn observed_pipeline_accounts_in_bytes_per_request() {
    // The obs plane's energy sketches read every request's energy,
    // summed over the nodes it touched, in one pass at the end of the
    // run. Observing a pipeline may lift its peak heap by the plane's own
    // state and, for that pass, by at most 32 B per request the run
    // opened (its per-context slabs take 21). So from a short run to a
    // long one the gap between the observed pipeline's peak and its
    // unobserved twin's may widen by 32 B per extra request and no
    // more. Maps reserved for every node's log entries cost some 120 B
    // per request here.
    let cal = calibrate_machine(&MachineSpec::sandybridge(), 7);
    let cals = vec![cal; 6];
    let run = |millis: u64, observed: bool| {
        let cfg = pipeline(millis, observed);
        let mut policies: Vec<Box<dyn DistributionPolicy>> = (0..cfg.tiers.len())
            .map(|_| Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>)
            .collect();
        measure(|| run_pipeline(&mut policies, &cfg, &cals))
    };
    let gap = |millis: u64| {
        let (plain, plain_fp) = run(millis, false);
        let (observed, observed_fp) = run(millis, true);
        assert_eq!(plain.dispatched, observed.dispatched, "observing moved the run");
        (observed_fp.peak.saturating_sub(plain_fp.peak), observed.dispatched)
    };
    let (short_gap, short_requests) = gap(1_000);
    let (long_gap, long_requests) = gap(4_000);
    let extra = (long_requests - short_requests) as usize;
    assert!(extra > 2_000, "the longer run opens more requests");
    assert!(
        long_gap <= short_gap + 32 * extra,
        "observing lifts the peak by {short_gap} B at {short_requests} requests but by \
         {long_gap} B at {long_requests}: more than 32 B per extra request"
    );
}
