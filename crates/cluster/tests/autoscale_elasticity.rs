//! Integration tests for the elastic autoscaler: diurnal traffic drives
//! real fleet resizes through the engine, and every conservation
//! invariant the fixed-fleet engine honors must survive them.

use cluster::{
    run_cluster, AutoscaleConfig, ClusterConfig, RecoveryConfig, RollingUpgrade, ScaleKind,
    ShedReason, SimpleBalance, Topology,
};
use simkern::SimDuration;
use workloads::{calibrate_machine, Diurnal, MachineCalibration, TrafficShape};

fn calibrations(cfg: &ClusterConfig) -> Vec<MachineCalibration> {
    cfg.nodes.iter().map(|s| calibrate_machine(s, 42)).collect()
}

/// A diurnal day compressed into the run: peak ~1.7× the mean, trough
/// ~0.3× — enough swing to force both scale-outs and scale-ins against
/// the controller's 1.8 / 0.55 hysteresis band.
fn diurnal_shape(day: SimDuration) -> TrafficShape {
    TrafficShape {
        diurnal: Some(Diurnal { period: day, amplitude: 0.7, phase: 0.0 }),
        ..TrafficShape::steady()
    }
}

/// A 6-node fleet, 4 active at birth, riding one compressed day.
fn elastic_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::scaled_fleet(6));
    cfg.duration = SimDuration::from_secs(6);
    cfg.traffic = Some(diurnal_shape(cfg.duration));
    cfg.autoscale = Some(AutoscaleConfig::standard(2, 4));
    cfg.recovery = Some(RecoveryConfig::standard());
    cfg
}

#[test]
fn diurnal_day_resizes_the_fleet_and_conserves_requests() {
    let cfg = elastic_config();
    let cals = calibrations(&cfg);
    let o = run_cluster(&mut SimpleBalance::new(), &cfg, &cals);

    // The day's peak must buy nodes and its trough must return them.
    assert!(o.scale_outs > 0, "no scale-outs over a diurnal day");
    assert!(o.scale_ins > 0, "no scale-ins over a diurnal day");
    assert_eq!(
        o.scale_log.len() as u64,
        o.scale_outs + o.scale_ins,
        "every resize must be journaled"
    );
    assert!(o.autoscale_evals > 0);
    assert!(o.completed > 1000, "completed {}", o.completed);

    // Global conservation: nothing vanishes across resizes.
    assert_eq!(o.dispatched, o.completed as u64 + o.dropped + o.in_flight);
    assert_eq!(o.dropped, o.total_shed() + o.lost_in_crash);
    for n in &o.per_node {
        assert_eq!(
            n.dispatched,
            n.completions as u64 + n.in_flight + n.lost_requests,
            "per-node identity broken on {}",
            n.machine
        );
    }

    // Scale-out charges boot energy to the provisioning container;
    // uptime stays inside the run and idle burden follows it.
    assert!(o.provisioning_energy_j > 0.0);
    for n in &o.per_node {
        assert!(n.uptime_s <= cfg.duration.as_secs_f64() + 1e-9);
        let idle = n.idle_energy_j / n.uptime_s.max(f64::MIN_POSITIVE);
        assert!(idle > 0.0, "active stretches must carry idle burden");
    }
    let journaled: f64 = o.scale_log.iter().map(|e| e.provision_energy_j).sum();
    assert!((journaled - o.provisioning_energy_j).abs() < 1e-9);
}

#[test]
fn clean_drains_checkpoint_and_lose_exactly_zero_energy() {
    let cfg = elastic_config();
    let cals = calibrations(&cfg);
    let o = run_cluster(&mut SimpleBalance::new(), &cfg, &cals);

    let drains: Vec<_> = o
        .scale_log
        .iter()
        .filter(|e| matches!(e.kind, ScaleKind::In | ScaleKind::UpgradeIn))
        .collect();
    assert!(!drains.is_empty(), "expected at least one drain");
    for e in drains {
        assert!(e.completed_at >= e.decided_at);
        if e.forced {
            // A deadline expiry kills stragglers (requests), but their
            // partially-done work stays attributed — never an energy
            // loss window.
            assert!(e.lost_requests > 0);
        } else {
            assert_eq!(e.lost_requests, 0, "clean drain killed requests");
        }
        assert_eq!(
            e.lost_energy_j, 0.0,
            "drain on node {} journaled an energy loss window",
            e.node
        );
    }
    // Drains journal a final checkpoint each.
    assert!(o.checkpoints >= o.scale_ins);
}

#[test]
fn autoscaled_outcome_is_deterministic() {
    let cfg = elastic_config();
    let cals = calibrations(&cfg);
    let a = &run_cluster(&mut SimpleBalance::new(), &cfg, &cals);
    let b = &run_cluster(&mut SimpleBalance::new(), &cfg, &cals);
    assert_eq!(a.dispatched, b.dispatched);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.scale_outs, b.scale_outs);
    assert_eq!(a.scale_ins, b.scale_ins);
    assert_eq!(a.brownout_engagements, b.brownout_engagements);
    assert_eq!(format!("{:?}", a.scale_log), format!("{:?}", b.scale_log));
    assert_eq!(a.peak_power_w.to_bits(), b.peak_power_w.to_bits());
    assert_eq!(a.provisioning_energy_j.to_bits(), b.provisioning_energy_j.to_bits());
    for (x, y) in a.per_node.iter().zip(&b.per_node) {
        assert_eq!(x.active_energy_j.to_bits(), y.active_energy_j.to_bits());
        assert_eq!(x.attributed_energy_j.to_bits(), y.attributed_energy_j.to_bits());
        assert_eq!(x.uptime_s.to_bits(), y.uptime_s.to_bits());
    }
    for ((ka, ea), (kb, eb)) in a.energy_by_app_j.iter().zip(&b.energy_by_app_j) {
        assert_eq!(ka, kb);
        assert_eq!(ea.to_bits(), eb.to_bits());
    }
}

#[test]
fn brownout_ladder_engages_under_a_tight_cap_and_sheds_optional() {
    // Full fleet from birth, min == initial so elasticity cannot shrink
    // away from the cap pressure; the ladder must do the degrading.
    let mut cfg = ClusterConfig::sharded(&Topology::scaled_fleet(4));
    cfg.duration = SimDuration::from_secs(4);
    cfg.traffic = Some(TrafficShape::steady());
    cfg.autoscale = Some(AutoscaleConfig::standard(4, 4));
    cfg.recovery = Some(RecoveryConfig::standard());
    let cals = calibrations(&cfg);

    // Measure the uncapped draw, then cap well below it.
    let uncapped = run_cluster(&mut SimpleBalance::new(), &cfg, &cals);
    assert_eq!(uncapped.brownout_engagements, 0, "no cap, no ladder");
    let cap = 0.7 * uncapped.total_energy_rate_w();
    cfg.power_cap_w = Some(cap);

    let o = run_cluster(&mut SimpleBalance::new(), &cfg, &cals);
    assert!(o.brownout_engagements > 0, "tight cap never engaged the ladder");
    assert!(
        o.shed[ShedReason::BrownoutOptional.index()] > 0,
        "shed-optional rung never shed an optional session"
    );
    // Conditioning enforces the cap on *average* active power through
    // per-request duty cycling; instantaneous tick samples may spike.
    assert!(o.peak_power_w > 0.0);
    let mean_w = o.total_energy_rate_w();
    assert!(
        mean_w <= cap * 1.05,
        "mean active power {mean_w:.1} W broke the cap {cap:.1} W"
    );
    assert_eq!(o.dispatched, o.completed as u64 + o.dropped + o.in_flight);
}

#[test]
fn rolling_upgrade_swaps_old_actives_for_fresh_standbys() {
    let mut cfg = elastic_config();
    // Steady traffic keeps util inside the hysteresis band, so the
    // standby pool stays free for the scheduled swaps.
    cfg.traffic = Some(TrafficShape::steady());
    let ac = cfg.autoscale.as_mut().unwrap();
    ac.upgrade = Some(RollingUpgrade {
        start: SimDuration::from_secs(1),
        every: SimDuration::from_secs(2),
        count: 2,
    });
    let cals = calibrations(&cfg);
    let o = run_cluster(&mut SimpleBalance::new(), &cfg, &cals);

    assert_eq!(o.upgrades, 2, "both scheduled swaps must start");
    let outs: Vec<_> =
        o.scale_log.iter().filter(|e| e.kind == ScaleKind::UpgradeOut).collect();
    let ins: Vec<_> =
        o.scale_log.iter().filter(|e| e.kind == ScaleKind::UpgradeIn).collect();
    // Every started swap lands both halves: one drain of the oldest
    // active node, one provision of the freshest standby.
    assert_eq!(outs.len() as u64, o.upgrades, "provision halves missing");
    assert_eq!(ins.len() as u64, o.upgrades, "drain halves missing");
    for e in &ins {
        assert_eq!(e.lost_energy_j, 0.0, "upgrade drain lost energy");
    }
    // Each swap drains one node and provisions a *different* one (the
    // concrete indices depend on what elasticity did in between).
    for (i, e) in ins.iter().zip(&outs) {
        assert_ne!(i.node, e.node, "a swap drained the node it provisioned");
    }
    assert_eq!(o.dispatched, o.completed as u64 + o.dropped + o.in_flight);
}

#[test]
fn fixed_fleet_is_unchanged_by_the_elasticity_plumbing() {
    // traffic = None, autoscale = None must reproduce the legacy engine:
    // full uptime on every node and zero elasticity counters.
    let mut cfg = ClusterConfig::sharded(&Topology::scaled_fleet(4));
    cfg.duration = SimDuration::from_secs(3);
    let cals = calibrations(&cfg);
    let o = run_cluster(&mut SimpleBalance::new(), &cfg, &cals);
    assert_eq!(o.scale_outs + o.scale_ins + o.upgrades, 0);
    assert!(o.scale_log.is_empty());
    assert_eq!(o.autoscale_evals, 0);
    assert_eq!(o.provisioning_energy_j, 0.0);
    for n in &o.per_node {
        assert_eq!(n.uptime_s.to_bits(), cfg.duration.as_secs_f64().to_bits());
    }
}
