//! Observability-plane contracts at the engine level: the plane is
//! opt-in, its report is byte-identical run to run (the window samples
//! are read at tick barriers in node order), and the alert stream is a
//! deterministic function of the seeded config — chaos cells included.

use cluster::{
    run_pipeline, ClusterConfig, DistributionPolicy, ObsConfig, ObsOutcome, RecoveryConfig,
    SimpleBalance, Topology,
};
use hwsim::FaultConfig;
use proptest::prelude::*;
use simkern::SimDuration;
use telemetry::obs::{provenance_folded, SloRules};
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

/// A small observed cell with everything the plane watches switched on:
/// a cap tight enough to matter, crashes and slowdowns past an onset,
/// provenance, and tenant grouping.
fn observed_chaos_config(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::serving_pipeline(4));
    cfg.seed = seed;
    cfg.duration = SimDuration::from_millis(900);
    cfg.workers_per_core = 2;
    let cores: usize = cfg.nodes.iter().map(hwsim::MachineSpec::total_cores).sum();
    cfg.power_cap_w = Some(5.0 * cores as f64);
    cfg.faults = FaultConfig {
        seed: seed ^ 0x0B5,
        node_slowdown_hz: 3.0,
        node_slowdown_factor: 0.5,
        node_slowdown_len: SimDuration::from_millis(150),
        node_crash_hz: 2.0,
        node_crash_len: SimDuration::from_millis(100),
        node_warmup_len: SimDuration::from_millis(60),
        node_fault_start: SimDuration::from_millis(300),
        ..FaultConfig::none()
    };
    cfg.recovery = Some(RecoveryConfig {
        checkpoint_every: SimDuration::from_millis(200),
        ..RecoveryConfig::standard()
    });
    cfg.obs = Some(ObsConfig {
        window: SimDuration::from_millis(100),
        rules: SloRules { fire_after: 1, ..SloRules::standard() },
        provenance: true,
        tenants: 2,
        ..ObsConfig::standard()
    });
    cfg
}

/// Runs `cfg` and returns the plane's outcome.
fn run_observed(cfg: &ClusterConfig) -> ObsOutcome {
    let cals = cals_for(cfg);
    let mut policies: Vec<Box<dyn DistributionPolicy>> = (0..cfg.tiers.len())
        .map(|_| Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>)
        .collect();
    let o = run_pipeline(&mut policies, cfg, &cals);
    *o.obs.expect("obs plane was enabled")
}

/// The plane is strictly opt-in: without `ClusterConfig::obs` the
/// outcome carries no report and the engine spends nothing on one.
#[test]
fn obs_is_none_unless_enabled() {
    let mut cfg = ClusterConfig::sharded(&Topology::serving_pipeline(4));
    cfg.duration = SimDuration::from_millis(300);
    let cals = cals_for(&cfg);
    let mut policies: Vec<Box<dyn DistributionPolicy>> = (0..cfg.tiers.len())
        .map(|_| Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>)
        .collect();
    let o = run_pipeline(&mut policies, &cfg, &cals);
    assert!(o.obs.is_none());
}

/// A healthy observed cell populates the report: one rollup cell per
/// full window, latency and energy sketches over every completion, and
/// no alerts.
#[test]
fn clean_cell_reports_and_stays_silent() {
    let mut cfg = ClusterConfig::sharded(&Topology::serving_pipeline(4));
    cfg.seed = 11;
    cfg.duration = SimDuration::from_millis(1000);
    cfg.obs = Some(ObsConfig {
        window: SimDuration::from_millis(100),
        provenance: true,
        tenants: 2,
        ..ObsConfig::standard()
    });
    let obs = run_observed(&cfg);
    assert!(obs.report.alerts.is_empty(), "clean cell must not alert: {:?}", obs.report.alerts);
    let windows = obs.report.series["power_w/fleet"].total_count();
    assert!(
        (9..=10).contains(&windows),
        "a 1 s run of 100 ms windows must close ~10 windows, got {windows}"
    );
    assert!(obs.report.sketches["latency_s/fleet"].count() > 0);
    assert!(obs.report.sketches["energy_j_per_req/fleet"].count() > 0);
    assert!(
        obs.report.sketches.keys().any(|k| k.starts_with("latency_s/tenant/")),
        "tenant grouping was configured"
    );
    assert!(!obs.provenance.is_empty(), "provenance was configured");
    // Bounded memory: every sketch stays within its bucket clamp.
    for (k, s) in &obs.report.sketches {
        assert!(s.bucket_count() < 1000, "sketch {k} grew unbounded");
    }
}

/// The full observability artifact — report bytes, rendered report,
/// and the folded provenance export — is byte-identical run to run on
/// a chaos cell where crashes roll attribution backwards.
#[test]
fn observed_chaos_cell_is_deterministic() {
    let cfg = observed_chaos_config(42);
    let base = run_observed(&cfg);
    assert!(
        !base.report.alerts.is_empty(),
        "the chaos cell is tuned to alert; silence means the rungs test nothing"
    );
    let run = run_observed(&cfg);
    assert_eq!(base.report.to_json(), run.report.to_json(), "obs report bytes diverged");
    assert_eq!(base.report.render(), run.report.render());
    assert_eq!(
        provenance_folded(&base.provenance),
        provenance_folded(&run.provenance),
        "provenance diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Alert determinism: for any seed, the typed alert stream (kinds,
    /// windows, sim-time stamps, values) and the report bytes are
    /// identical run to run.
    #[test]
    fn alert_stream_is_deterministic(seed in 0u64..1000) {
        let cfg = observed_chaos_config(seed);
        let a = run_observed(&cfg);
        let b = run_observed(&cfg);
        prop_assert_eq!(&a.report.alerts, &b.report.alerts, "rerun diverged");
        prop_assert_eq!(a.report.to_json(), b.report.to_json());
    }
}
