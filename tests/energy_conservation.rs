//! End-to-end energy conservation across every experiment cell family.
//!
//! Attribution must account for (nearly) all measured active energy in
//! every cell of the fig05 grid (machine × workload × load), every
//! fault_sweep scenario (faults may *misattribute* energy between
//! requests, but the background container catches what falls out, so
//! the total must still balance), and every node of the smallest
//! scale_sweep cell (where requests hop across nodes and a cluster cap
//! conditions duty cycles).

mod common;

use common::assert_energy_conserved;
use experiments::runner::{run_parallel, Sandbox};
use experiments::{scale_sweep, Lab, Scale};
use hwsim::FaultConfig;
use simkern::SimDuration;
use workloads::{run_app, LoadLevel, RunConfig, WorkloadKind};

/// Model error tolerance for clean runs (the paper's Fig. 8 errors are
/// single-digit percent; quick-scale runs are noisier).
const CLEAN_TOL: f64 = 0.20;
/// Tolerance with heavy fault injection riding on the measurement path.
const FAULT_TOL: f64 = 0.40;
/// Tolerance under a tight cluster power cap: conditioning pushes duty
/// cycles far below the calibration's full-duty operating point, where
/// the linear power model is least accurate (worst on the oldest
/// machines, which get throttled hardest).
const CAP_TOL: f64 = 0.35;

#[test]
fn fig05_cells_conserve_energy() {
    let sandbox = Sandbox::new(Scale::Quick);
    let ctx = &sandbox.ctx;
    let mut lab = Lab::new(ctx);
    let mut tasks = Vec::new();
    for machine in ["woodcrest", "westmere", "sandybridge"] {
        let spec = lab.spec(machine);
        let cal = lab.calibration(machine);
        for kind in WorkloadKind::ALL {
            for load in [LoadLevel::Peak, LoadLevel::Half] {
                let spec = spec.clone();
                let cal = cal.clone();
                tasks.push(move || {
                    let mut cfg = RunConfig::new(spec);
                    cfg.load = load;
                    cfg.duration = SimDuration::from_secs(Scale::Quick.run_secs() / 2 + 2);
                    let outcome = run_app(kind, &cfg, &cal);
                    (
                        format!("fig05 {machine}/{}/{}", kind.name(), load.name()),
                        outcome.attributed_energy_j(),
                        outcome.measured_active_energy_j(),
                    )
                });
            }
        }
    }
    let cells = run_parallel(ctx.jobs, tasks);
    for cell in cells {
        let (label, attributed, measured) = cell.expect("fig05 cell must not panic");
        assert_energy_conserved(&label, attributed, measured, CLEAN_TOL);
    }
}

#[test]
fn fig05_cells_conserve_energy_under_every_scheduler() {
    // The scheduler decides who runs when; attribution samples what ran.
    // Swapping the kernel's pick-next policy must not unbalance the
    // energy ledger on any workload.
    let sandbox = Sandbox::new(Scale::Quick);
    let ctx = &sandbox.ctx;
    let mut lab = Lab::new(ctx);
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let mut tasks = Vec::new();
    for kind in experiments::sched_sweep::swept_kinds() {
        for workload in WorkloadKind::ALL {
            let (kind, spec, cal) = (kind.clone(), spec.clone(), cal.clone());
            tasks.push(move || {
                let mut cfg = RunConfig::new(spec);
                cfg.sched = kind.clone();
                cfg.load = LoadLevel::Peak;
                cfg.duration = SimDuration::from_secs(Scale::Quick.run_secs() / 2 + 2);
                let outcome = run_app(workload, &cfg, &cal);
                (
                    format!("fig05 sandybridge/{}/peak sched={}", workload.name(), kind.name()),
                    outcome.attributed_energy_j(),
                    outcome.measured_active_energy_j(),
                )
            });
        }
    }
    let cells = run_parallel(ctx.jobs, tasks);
    for cell in cells {
        let (label, attributed, measured) = cell.expect("sched fig05 cell must not panic");
        assert_energy_conserved(&label, attributed, measured, CLEAN_TOL);
    }
}

#[test]
fn chaos_rung_conserves_energy_under_every_scheduler() {
    // The heaviest conservation test crossed with the scheduler axis: a
    // crash-bearing chaos rung where every node runs the swept
    // scheduler. Crashes may lose the journaled window, but the ledger
    // must still balance per node under any pick-next policy.
    let sandbox = Sandbox::new(Scale::Quick);
    let ctx = &sandbox.ctx;
    let mut lab = Lab::new(ctx);
    let sc = experiments::chaos_sweep::SCENARIOS
        .iter()
        .find(|s| s.crash_hz > 0.0)
        .expect("a crash-bearing chaos scenario");
    for kind in experiments::sched_sweep::swept_kinds() {
        let mut cfg = experiments::chaos_sweep::cell_config(ctx, sc);
        cfg.sched = kind.clone();
        let cals = experiments::chaos_sweep::cell_calibrations(&mut lab, &cfg);
        let mut policies: Vec<Box<dyn cluster::DistributionPolicy>> = (0..cfg.tiers.len())
            .map(|_| Box::new(cluster::SimpleBalance::new()) as Box<dyn cluster::DistributionPolicy>)
            .collect();
        let outcome = cluster::run_pipeline(&mut policies, &cfg, &cals);
        assert!(outcome.crashes > 0, "chaos cell `{}` must crash", sc.name);
        assert!(outcome.completed > 0, "chaos cell `{}` must keep serving", sc.name);
        for (i, node) in outcome.per_node.iter().enumerate() {
            assert_energy_conserved(
                &format!(
                    "chaos_sweep {} sched={} node {i} ({}, tier {})",
                    sc.name,
                    kind.name(),
                    node.machine,
                    node.tier
                ),
                node.attributed_energy_j + node.lost_energy_j,
                node.active_energy_j,
                FAULT_TOL,
            );
        }
    }
}

#[test]
fn fault_sweep_cells_conserve_energy() {
    let sandbox = Sandbox::new(Scale::Quick);
    let ctx = &sandbox.ctx;
    let mut lab = Lab::new(ctx);
    let spec = lab.spec("sandybridge");
    let cal = lab.calibration("sandybridge");
    let dropout = |rate: f64| FaultConfig {
        seed: 0xFA17,
        meter_dropout: rate,
        ..FaultConfig::none()
    };
    let mut points: Vec<(String, FaultConfig)> =
        vec![("clean".into(), FaultConfig::none())];
    for rate in [0.01, 0.02, 0.05] {
        points.push((format!("meter dropout {rate}"), dropout(rate)));
    }
    points.push((
        "dropout + glitches + tag faults".into(),
        FaultConfig {
            seed: 0xFA17,
            meter_dropout: 0.05,
            meter_extra_lag: 0.05,
            counter_glitch_hz: 1.0,
            counter_wrap_hz: 0.5,
            tag_loss: 0.01,
            tag_corrupt: 0.01,
            ..FaultConfig::none()
        },
    ));
    for (scenario, faults) in points {
        let clean = !faults.is_active();
        let mut cfg = RunConfig::new(spec.clone());
        cfg.approach = power_containers::Approach::Recalibrated;
        cfg.load = LoadLevel::Half;
        cfg.duration = SimDuration::from_secs(Scale::Quick.run_secs());
        cfg.faults = faults;
        let outcome = run_app(WorkloadKind::RsaCrypto, &cfg, &cal);
        assert_energy_conserved(
            &format!("fault_sweep {scenario}"),
            outcome.attributed_energy_j(),
            outcome.measured_active_energy_j(),
            if clean { CLEAN_TOL } else { FAULT_TOL },
        );
    }
}

#[test]
fn scale_sweep_cell_conserves_energy_on_every_node() {
    // The smallest sweep cell, capped: requests hop across three tiers
    // and every node conditions against its share of the cluster cap —
    // attribution must still balance per node.
    let sandbox = Sandbox::new(Scale::Quick);
    let ctx = &sandbox.ctx;
    let mut lab = Lab::new(ctx);
    for cap in [None, Some(8.0 * 20.0)] {
        let cfg = scale_sweep::cell_config(ctx, 4, cap);
        let cals = scale_sweep::cell_calibrations(&mut lab, &cfg);
        let mut policies: Vec<Box<dyn cluster::DistributionPolicy>> = (0..cfg.tiers.len())
            .map(|_| Box::new(cluster::SimpleBalance::new()) as Box<dyn cluster::DistributionPolicy>)
            .collect();
        let outcome = cluster::run_pipeline(&mut policies, &cfg, &cals);
        assert!(outcome.completed > 0, "cell must serve requests");
        for (i, node) in outcome.per_node.iter().enumerate() {
            assert_energy_conserved(
                &format!(
                    "scale_sweep 4-node cap={cap:?} node {i} ({}, tier {})",
                    node.machine, node.tier
                ),
                node.attributed_energy_j,
                node.active_energy_j,
                if cap.is_some() { CAP_TOL } else { CLEAN_TOL },
            );
        }
    }
}

#[test]
fn megafleet_cell_conserves_energy_on_every_node() {
    // The smallest megafleet cell, run twice: per-node attribution must
    // balance on every node, bit-identically run to run, and requests
    // must conserve exactly.
    let sandbox = Sandbox::new(Scale::Quick);
    let ctx = &sandbox.ctx;
    let mut lab = Lab::new(ctx);
    let mut first_energy: Option<Vec<f64>> = None;
    for run in 0..2 {
        let cfg = experiments::megafleet::cell_config(ctx, 48, 10_000);
        let cals = experiments::megafleet::cell_calibrations(&mut lab, &cfg);
        let outcome = cluster::run_cluster(&mut cluster::SimpleBalance::new(), &cfg, &cals);
        experiments::megafleet::assert_cell_conserved(
            &format!("megafleet 48-node run {run}"),
            &outcome,
        );
        for (i, node) in outcome.per_node.iter().enumerate() {
            assert_energy_conserved(
                &format!(
                    "megafleet 48-node run {run} node {i} ({}, tier {})",
                    node.machine, node.tier
                ),
                node.attributed_energy_j,
                node.active_energy_j,
                CLEAN_TOL,
            );
        }
        let energies: Vec<f64> = outcome.per_node.iter().map(|n| n.attributed_energy_j).collect();
        match &first_energy {
            None => first_energy = Some(energies),
            Some(first) => assert_eq!(
                first, &energies,
                "per-node attributed energy must be bit-identical run to run"
            ),
        }
    }
}

#[test]
fn chaos_sweep_cells_conserve_energy_modulo_loss_windows() {
    // Crash-bearing chaos cells: each node's attributed energy plus the
    // crash-journaled loss windows must cover its measured active
    // energy — crashes may *lose* attribution (the window since the
    // last checkpoint), but only the journaled amount.
    let sandbox = Sandbox::new(Scale::Quick);
    let ctx = &sandbox.ctx;
    let mut lab = Lab::new(ctx);
    for sc in experiments::chaos_sweep::SCENARIOS {
        if sc.crash_hz == 0.0 {
            continue;
        }
        let cfg = experiments::chaos_sweep::cell_config(ctx, sc);
        let cals = experiments::chaos_sweep::cell_calibrations(&mut lab, &cfg);
        let mut policies: Vec<Box<dyn cluster::DistributionPolicy>> = (0..cfg.tiers.len())
            .map(|_| Box::new(cluster::SimpleBalance::new()) as Box<dyn cluster::DistributionPolicy>)
            .collect();
        let outcome = cluster::run_pipeline(&mut policies, &cfg, &cals);
        assert!(outcome.crashes > 0, "chaos cell `{}` must crash", sc.name);
        for (i, node) in outcome.per_node.iter().enumerate() {
            assert_energy_conserved(
                &format!("chaos_sweep {} node {i} ({}, tier {})", sc.name, node.machine, node.tier),
                node.attributed_energy_j + node.lost_energy_j,
                node.active_energy_j,
                FAULT_TOL,
            );
        }
    }
}
