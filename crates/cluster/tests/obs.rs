//! Observability-plane contracts at the engine level: the plane is
//! opt-in, its report is byte-identical run to run (the window samples
//! are read at tick barriers in node order), and the alert stream is a
//! deterministic function of the seeded config — chaos cells included.

use cluster::{
    run_pipeline, ClusterConfig, ClusterOutcome, DistributionPolicy, ObsConfig, ObsOutcome,
    RecoveryConfig, SimpleBalance, Topology,
};
use hwsim::FaultConfig;
use proptest::prelude::*;
use simkern::SimDuration;
use std::collections::BTreeSet;
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
    });
    cfg
}

/// Runs a pipeline cell under simple balance on every tier.
fn run_cell(cfg: &ClusterConfig) -> ClusterOutcome {
    let cals = cals_for(cfg);
    let mut policies: Vec<Box<dyn DistributionPolicy>> = (0..cfg.tiers.len())
        .map(|_| Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>)
        .collect();
    run_pipeline(&mut policies, cfg, &cals)
}

/// Runs `cfg` and returns the plane's outcome.
fn run_observed(cfg: &ClusterConfig) -> ObsOutcome {
    *run_cell(cfg).obs.expect("obs plane was enabled")
}

/// The plane is strictly opt-in: without `ClusterConfig::obs` the
/// outcome carries no report and the engine spends nothing on one.
#[test]
fn obs_is_none_unless_enabled() {
    let mut cfg = ClusterConfig::sharded(&Topology::serving_pipeline(4));
    cfg.duration = SimDuration::from_millis(300);
    assert!(run_cell(&cfg).obs.is_none());
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

/// Provenance reads labels, creation times and throttled joules, so
/// only an observed cell that asks for it keeps full container records;
/// otherwise nodes keep each request's context and joules. The two
/// layouts must account alike: on a chaos cell with crashes, hedges and
/// the per-request ledger, per-app and per-context energies, every node
/// outcome and the obs report come out bit for bit the same either way.
#[test]
fn provenance_alone_keeps_full_records_and_moves_no_bit() {
    let mut cfg = observed_chaos_config(42);
    cfg.retain_request_energy = true;
    cfg.recovery = Some(RecoveryConfig {
        min_timeout: SimDuration::from_millis(8),
        hedge_after: Some(SimDuration::from_millis(6)),
        ..cfg.recovery.expect("the chaos cell recovers")
    });
    let run = |provenance: bool| {
        let mut cfg = cfg.clone();
        cfg.obs.as_mut().expect("the chaos cell is observed").provenance = provenance;
        let mut o = run_cell(&cfg);
        let obs = o.obs.take().expect("obs plane was enabled");
        (o, *obs)
    };
    let (full, full_obs) = run(true);
    let (compact, compact_obs) = run(false);
    assert!(full.crashes > 0, "no crash fired");
    assert!(full.hedged > 0, "no hedge fired");
    assert!(!full.energy_by_ctx.is_empty(), "the per-request ledger was asked for");
    let charged: BTreeSet<u64> = full.energy_by_ctx.iter().map(|c| c.ctx).collect();
    let traced: BTreeSet<u64> = full_obs.provenance.iter().map(|p| p.ctx).collect();
    assert!(charged.is_subset(&traced), "provenance needs a full record of every request");
    assert!(compact_obs.provenance.is_empty());

    let app_bits = |o: &ClusterOutcome| -> Vec<u64> {
        o.energy_by_app_j.iter().map(|(_, e)| e.to_bits()).collect()
    };
    let ctx_bits = |o: &ClusterOutcome| -> Vec<(u64, u64, u32)> {
        o.energy_by_ctx.iter().map(|c| (c.ctx, c.energy_j.to_bits(), c.nodes)).collect()
    };
    assert_eq!(app_bits(&full), app_bits(&compact), "per-app energy moved");
    assert_eq!(ctx_bits(&full), ctx_bits(&compact), "per-context energy moved");
    // `Debug` prints every float in its shortest round-trip form, so
    // equal renderings are equal bits.
    for (f, c) in full.per_node.iter().zip(&compact.per_node) {
        assert_eq!(format!("{f:?}"), format!("{c:?}"), "a node outcome moved");
    }
    assert_eq!(full_obs.report.to_json(), compact_obs.report.to_json(), "obs report moved");
    assert_eq!(format!("{full:?}"), format!("{compact:?}"), "the outcome moved");
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
