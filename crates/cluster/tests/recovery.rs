//! Crash/restart, retry, and admission-control behavior of the
//! serving engine: typed sheds when a whole tier is dark, the
//! recovery conservation laws (exact request accounting through
//! crashes, retries and hedges — the dedup guarantee), and
//! determinism with the full recovery machinery on.

use cluster::{
    run_pipeline, AdmissionConfig, ClusterConfig, ClusterOutcome, DistributionPolicy,
    RecoveryConfig, ShedReason, SimpleBalance, Topology,
};
use hwsim::FaultConfig;
use proptest::prelude::*;
use simkern::SimDuration;
use workloads::{calibrate_machine, MachineCalibration};

fn cals_for(cfg: &ClusterConfig) -> Vec<MachineCalibration> {
    let mut cache: Vec<(&'static str, MachineCalibration)> = Vec::new();
    cfg.nodes
        .iter()
        .map(|spec| {
            if let Some((_, c)) = cache.iter().find(|(n, _)| *n == spec.name) {
                return c.clone();
            }
            let c = calibrate_machine(spec, 7);
            cache.push((spec.name, c.clone()));
            c
        })
        .collect()
}

fn run(cfg: &ClusterConfig) -> ClusterOutcome {
    let cals = cals_for(cfg);
    let mut policies: Vec<Box<dyn DistributionPolicy>> = (0..cfg.tiers.len())
        .map(|_| Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>)
        .collect();
    run_pipeline(&mut policies, cfg, &cals)
}

fn small_config(n: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::serving_pipeline(n));
    cfg.seed = seed;
    cfg.duration = SimDuration::from_millis(800);
    cfg.workers_per_core = 2;
    cfg
}

/// The recovery-era conservation laws, exact at every fault mix:
///
/// * cluster-wide: `dispatched = completed + dropped + in_flight`,
///   with every drop typed (`dropped = Σ shed + lost_in_crash`);
/// * per node: `dispatched = completions + in_flight + lost_requests`.
fn assert_recovery_conservation(o: &ClusterOutcome) {
    assert_eq!(
        o.dispatched,
        o.completed as u64 + o.dropped + o.in_flight,
        "dispatched must equal completed + dropped + in_flight"
    );
    assert_eq!(
        o.dropped,
        o.total_shed() + o.lost_in_crash,
        "every dropped request must carry a typed reason"
    );
    for n in &o.per_node {
        assert_eq!(
            n.dispatched,
            n.completions as u64 + n.in_flight + n.lost_requests,
            "node conservation violated on {} (tier {})",
            n.machine,
            n.tier
        );
    }
    assert_eq!(o.crash_log.len() as u64, o.crashes, "one crash record per crash");
    let log_lost: u64 = o.crash_log.iter().map(|c| c.lost_requests).sum();
    let node_lost: u64 = o.per_node.iter().map(|n| n.lost_requests).sum();
    assert_eq!(log_lost, node_lost, "crash log and node ledgers must agree");
}

/// Regression: when every node of a tier sits inside a blackout
/// window, the dispatcher must shed arrivals with a typed
/// `NoHealthyNode` reason instead of injecting into dark nodes. The
/// blackout starts almost immediately and outlasts the run on both
/// tier nodes, so nearly everything offered must be shed — under the
/// old behavior the requests piled up in flight on the dark nodes
/// until the health checker caught up.
#[test]
fn full_tier_blackout_sheds_with_typed_reason() {
    let mut cfg = ClusterConfig::paper_setup();
    cfg.duration = SimDuration::from_millis(600);
    cfg.workers_per_core = 2;
    cfg.faults = FaultConfig {
        seed: 11,
        node_blackout_hz: 5000.0,
        node_blackout_len: SimDuration::from_secs(5),
        ..FaultConfig::none()
    };
    let o = run(&cfg);
    assert_recovery_conservation(&o);
    let shed_dark = o.shed[ShedReason::NoHealthyNode.index()];
    assert!(shed_dark > 0, "an all-dark tier must shed typed NoHealthyNode");
    assert!(
        shed_dark >= o.dispatched * 8 / 10,
        "nearly all arrivals should be shed once both nodes go dark \
         (shed {shed_dark} of {})",
        o.dispatched
    );
    assert!(
        o.completed as u64 + o.in_flight <= o.dispatched / 5,
        "dark nodes must not silently absorb the offered load \
         (completed {} + in flight {} of {})",
        o.completed,
        o.in_flight,
        o.dispatched
    );
}

/// Admission control sheds with typed reasons at the front door: an
/// absurdly low queue bound sheds essentially everything.
#[test]
fn queue_admission_sheds_typed() {
    let mut cfg = ClusterConfig::paper_setup();
    cfg.duration = SimDuration::from_millis(400);
    cfg.workers_per_core = 2;
    cfg.admission = Some(AdmissionConfig { max_queue_per_core: 0.001 });
    let o = run(&cfg);
    assert_recovery_conservation(&o);
    assert!(
        o.shed[ShedReason::QueueDepth.index()] > 0,
        "a tiny queue bound must shed on queue depth"
    );
    assert!(o.completed > 0, "admission must still let a trickle through");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Crash/restart cycles keep the exact request ledger: every
    /// request offered is completed, typed-shed, lost to a crash, or
    /// in flight; per node, every injection is served, queued, or
    /// killed by a crash. Energy is conserved modulo the journaled
    /// loss windows.
    #[test]
    fn crash_restart_conserves_requests(seed in 0u64..1000) {
        let mut cfg = small_config(3, seed);
        cfg.faults = FaultConfig {
            seed: seed ^ 0xC0_FFEE,
            node_crash_hz: 3.0,
            node_crash_len: SimDuration::from_millis(120),
            node_warmup_len: SimDuration::from_millis(80),
            ..FaultConfig::none()
        };
        cfg.recovery = Some(RecoveryConfig::standard());
        let o = run(&cfg);
        assert_recovery_conservation(&o);
        prop_assert!(o.crashes > 0, "the crash clock must fire at 3 Hz over 0.8 s");
        prop_assert!(o.checkpoints > 0, "crashes imply checkpoint journaling");
        // Restored attribution plus the journaled loss windows must
        // cover what the machines actually drew (model tolerance).
        let active: f64 = o.per_node.iter().map(|n| n.active_energy_j).sum();
        let attributed: f64 = o.per_node.iter().map(|n| n.attributed_energy_j).sum();
        let lost: f64 = o.per_node.iter().map(|n| n.lost_energy_j).sum();
        let gap = (active - (attributed + lost)).abs() / active.max(1e-9);
        prop_assert!(
            gap < 0.45,
            "energy conservation modulo loss windows: active {active:.1} J vs \
             attributed {attributed:.1} + lost {lost:.1} J (gap {:.0}%)",
            gap * 100.0
        );
    }

    /// Retry dedup: with aggressive timeouts, hedging, slowdowns and
    /// crashes all active, a request still completes at most once —
    /// the exact cluster ledger would break on any double-completion
    /// or double-drop, for any seed.
    #[test]
    fn retry_dedup_never_double_counts(seed in 0u64..1000) {
        let mut cfg = small_config(3, seed);
        cfg.faults = FaultConfig {
            seed: seed ^ 0xD00D,
            node_slowdown_hz: 4.0,
            node_slowdown_factor: 0.25,
            node_slowdown_len: SimDuration::from_millis(150),
            node_crash_hz: 2.0,
            node_crash_len: SimDuration::from_millis(100),
            node_warmup_len: SimDuration::from_millis(60),
            ..FaultConfig::none()
        };
        cfg.recovery = Some(RecoveryConfig {
            hop_timeout_mult: 2.0,
            min_timeout: SimDuration::from_millis(8),
            max_retries: 2,
            backoff_base: SimDuration::from_millis(4),
            hedge_after: Some(SimDuration::from_millis(6)),
            checkpoint_every: SimDuration::from_millis(40),
        });
        let o = run(&cfg);
        assert_recovery_conservation(&o);
        prop_assert!(o.retried > 0, "aggressive deadlines must force retries");
        prop_assert!(
            o.completed as u64 <= o.dispatched,
            "dedup: more completions than offered requests"
        );
    }

    /// The full recovery machinery stays deterministic: equal seeds
    /// give bit-identical counters and energies, retries, hedges and
    /// crash logs included.
    #[test]
    fn recovery_engine_is_deterministic(seed in 0u64..1000) {
        let mk = || {
            let mut cfg = small_config(3, seed);
            cfg.faults = FaultConfig {
                seed: seed ^ 0xFEED,
                node_slowdown_hz: 3.0,
                node_slowdown_factor: 0.3,
                node_slowdown_len: SimDuration::from_millis(120),
                node_crash_hz: 2.0,
                node_crash_len: SimDuration::from_millis(100),
                node_warmup_len: SimDuration::from_millis(60),
                tag_loss: 0.02,
                tag_corrupt: 0.02,
                ..FaultConfig::none()
            };
            cfg.recovery = Some(RecoveryConfig {
                hedge_after: Some(SimDuration::from_millis(30)),
                min_timeout: SimDuration::from_millis(40),
                ..RecoveryConfig::standard()
            });
            cfg.admission = Some(AdmissionConfig::standard());
            cfg
        };
        let (a, b) = (run(&mk()), run(&mk()));
        prop_assert_eq!(a.dispatched, b.dispatched);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.dropped, b.dropped);
        prop_assert_eq!(a.shed, b.shed);
        prop_assert_eq!(a.lost_in_crash, b.lost_in_crash);
        prop_assert_eq!(a.retried, b.retried);
        prop_assert_eq!(a.hedged, b.hedged);
        prop_assert_eq!(a.stale_replies, b.stale_replies);
        prop_assert_eq!(a.crashes, b.crashes);
        prop_assert_eq!(a.checkpoints, b.checkpoints);
        prop_assert_eq!(a.in_flight, b.in_flight);
        for (x, y) in a.crash_log.iter().zip(&b.crash_log) {
            prop_assert_eq!(x.node, y.node);
            prop_assert_eq!(x.at, y.at);
            prop_assert_eq!(x.lost_requests, y.lost_requests);
            prop_assert!(x.lost_energy_j == y.lost_energy_j, "loss windows must match bit-for-bit");
        }
        for (x, y) in a.per_node.iter().zip(&b.per_node) {
            prop_assert_eq!(x.dispatched, y.dispatched);
            prop_assert_eq!(x.lost_requests, y.lost_requests);
            prop_assert!(x.active_energy_j == y.active_energy_j);
            prop_assert!(x.attributed_energy_j == y.attributed_energy_j);
        }
    }
}

/// Crash-free configurations plan no crash windows and pay none of the
/// recovery machinery: no checkpoints, no crash records, no retries.
#[test]
fn clean_run_has_no_recovery_artifacts() {
    let cfg = small_config(3, 42);
    let o = run(&cfg);
    assert_eq!(o.crashes, 0);
    assert_eq!(o.checkpoints, 0);
    assert!(o.crash_log.is_empty());
    assert_eq!(o.retried, 0);
    assert_eq!(o.hedged, 0);
    assert_eq!(o.stale_replies, 0);
    assert_eq!(o.lost_in_crash, 0);
    assert_eq!(o.total_shed(), o.dropped);
    assert_eq!(o.dropped, 0, "a clean small run must not drop");
}
