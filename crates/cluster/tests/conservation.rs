//! The one conservation check on a finished run,
//! `ClusterOutcome::check_conservation`: it accepts a crash cell whose
//! requests were lost to crashes and an autoscaled cell with forced
//! drains, and rejects either outcome whenever any one counter it
//! balances is off by one, or its energy is.

use cluster::{
    run_cluster, AutoscaleConfig, ClusterConfig, ClusterOutcome, RecoveryConfig, ShedReason,
    SimpleBalance, Topology,
};
use hwsim::FaultConfig;
use simkern::SimDuration;
use workloads::{calibrate_machine, Diurnal, MachineCalibration, TrafficShape};

/// The energy tolerance of the fault-bearing sweeps.
const TOL: f64 = 0.45;

/// Runs `cfg` under simple balance, one calibration per generation.
fn run(cfg: &ClusterConfig) -> ClusterOutcome {
    let mut cache: Vec<(&'static str, MachineCalibration)> = Vec::new();
    let cals: Vec<MachineCalibration> = cfg
        .nodes
        .iter()
        .map(|spec| {
            if let Some((_, c)) = cache.iter().find(|(n, _)| *n == spec.name) {
                return c.clone();
            }
            let c = calibrate_machine(spec, 7);
            cache.push((spec.name, c.clone()));
            c
        })
        .collect();
    run_cluster(&mut SimpleBalance::new(), cfg, &cals)
}

/// A four-node tier under frequent crashes with request recovery off,
/// so every request a crash kills is lost to it.
fn crash_cell() -> ClusterOutcome {
    let mut cfg = ClusterConfig::sharded(&Topology::scaled_fleet(4));
    cfg.duration = SimDuration::from_millis(800);
    cfg.workers_per_core = 2;
    cfg.faults = FaultConfig {
        seed: 0xC0DE,
        node_crash_hz: 2.0,
        node_crash_len: SimDuration::from_millis(100),
        node_warmup_len: SimDuration::from_millis(50),
        ..FaultConfig::none()
    };
    run(&cfg)
}

/// A six-node tier riding a compressed diurnal day from four active
/// nodes, with a drain deadline short enough to force drains.
fn elastic_cell() -> ClusterOutcome {
    let mut cfg = ClusterConfig::sharded(&Topology::scaled_fleet(6));
    cfg.duration = SimDuration::from_secs(3);
    cfg.workers_per_core = 2;
    cfg.traffic = Some(TrafficShape {
        diurnal: Some(Diurnal { period: cfg.duration, amplitude: 0.7, phase: 0.0 }),
        ..TrafficShape::steady()
    });
    cfg.recovery = Some(RecoveryConfig::standard());
    cfg.autoscale = Some(AutoscaleConfig {
        drain_deadline: SimDuration::from_millis(3),
        ..AutoscaleConfig::standard(2, 4)
    });
    run(&cfg)
}

/// Moves `x` by `d`; `false` (leaving `x` alone) below zero.
fn shift(x: &mut u64, d: i64) -> bool {
    x.checked_add_signed(d).map(|v| *x = v).is_some()
}

fn shift_usize(x: &mut usize, d: i64) -> bool {
    x.checked_add_signed(d as isize).map(|v| *x = v).is_some()
}

/// Moves one counter of an outcome by ±1, if it can.
type Shift = Box<dyn Fn(&mut ClusterOutcome, i64) -> bool>;

fn named(name: String, f: impl Fn(&mut ClusterOutcome, i64) -> bool + 'static) -> (String, Shift) {
    (name, Box::new(f))
}

/// Every counter of `o` that the check balances, by name.
fn counters(o: &ClusterOutcome) -> Vec<(String, Shift)> {
    let mut all = vec![
        named("dispatched".into(), |o, d| shift(&mut o.dispatched, d)),
        named("completed".into(), |o, d| shift_usize(&mut o.completed, d)),
        named("dropped".into(), |o, d| shift(&mut o.dropped, d)),
        named("in_flight".into(), |o, d| shift(&mut o.in_flight, d)),
        named("lost_in_crash".into(), |o, d| shift(&mut o.lost_in_crash, d)),
        named("crashes".into(), |o, d| shift(&mut o.crashes, d)),
        named("scale_outs".into(), |o, d| shift(&mut o.scale_outs, d)),
        named("scale_ins".into(), |o, d| shift(&mut o.scale_ins, d)),
    ];
    for r in ShedReason::ALL {
        let name = format!("shed[{}]", r.name());
        all.push(named(name, move |o, d| shift(&mut o.shed[r.index()], d)));
    }
    for i in 0..o.per_node.len() {
        all.extend([
            named(format!("node {i} dispatched"), move |o, d| {
                shift(&mut o.per_node[i].dispatched, d)
            }),
            named(format!("node {i} completions"), move |o, d| {
                shift_usize(&mut o.per_node[i].completions, d)
            }),
            named(format!("node {i} in_flight"), move |o, d| {
                shift(&mut o.per_node[i].in_flight, d)
            }),
            named(format!("node {i} lost_requests"), move |o, d| {
                shift(&mut o.per_node[i].lost_requests, d)
            }),
            named(format!("node {i} crashes"), move |o, d| shift(&mut o.per_node[i].crashes, d)),
        ]);
    }
    for k in 0..o.crash_log.len() {
        all.push(named(format!("crash record {k} lost_requests"), move |o, d| {
            shift(&mut o.crash_log[k].lost_requests, d)
        }));
    }
    for k in 0..o.scale_log.len() {
        all.push(named(format!("scale event {k} lost_requests"), move |o, d| {
            shift(&mut o.scale_log[k].lost_requests, d)
        }));
    }
    all
}

/// Asserts that `o` balances and that every one-counter, off-by-one
/// variant of it does not; returns how many variants were tried.
fn assert_only_the_true_books_balance(cell: &str, o: &ClusterOutcome) -> usize {
    assert_eq!(o.check_conservation(TOL), Ok(()), "{cell}: the run's own books must balance");
    let mut tried = 0;
    for (name, shift) in counters(o) {
        for d in [1, -1] {
            let mut off = o.clone();
            if !shift(&mut off, d) {
                continue;
            }
            tried += 1;
            assert!(off.check_conservation(TOL).is_err(), "{cell}: {name} {d:+} went unnoticed");
        }
    }
    let mut off = o.clone();
    for n in &mut off.per_node {
        n.attributed_energy_j *= 2.0;
    }
    let err = off.check_conservation(TOL).expect_err("doubled attribution went unnoticed");
    assert!(err.identity.contains("active"), "{cell}: {err}");
    for k in 0..o.scale_log.len() {
        let mut off = o.clone();
        off.scale_log[k].lost_energy_j += 1.0;
        let drain = o.scale_log[k].kind.name().ends_with("-in");
        assert_eq!(off.check_conservation(TOL).is_err(), drain, "{cell}: scale event {k} lost 1 J");
    }
    tried
}

#[test]
fn a_crash_cell_balances_and_no_counter_can_be_off_by_one() {
    let o = crash_cell();
    assert!(o.crashes > 0, "no crash fired");
    assert!(o.lost_in_crash > 0, "no request was lost to a crash");
    // `dropped` already counts the crash losses, so adding them again
    // cannot balance.
    assert_ne!(o.dispatched, o.completed as u64 + o.dropped + o.in_flight + o.lost_in_crash);
    let tried = assert_only_the_true_books_balance("crash cell", &o);
    assert!(tried > 40, "only {tried} variants tried");
}

#[test]
fn an_autoscaled_cell_balances_and_no_counter_can_be_off_by_one() {
    let o = elastic_cell();
    assert!(o.scale_outs > 0 && o.scale_ins > 0, "the fleet never resized");
    assert!(o.scale_log.iter().any(|e| e.forced && e.lost_requests > 0), "no drain was forced");
    let tried = assert_only_the_true_books_balance("autoscaled cell", &o);
    assert!(tried > 40, "only {tried} variants tried");
}
