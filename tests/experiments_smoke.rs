//! Smoke tests for the experiment harness: quick-scale versions of the
//! cheaper figures must run and satisfy the paper's qualitative claims.
//! Each runs in its own sandbox, so records never land in `results/`.

use experiments::runner::Sandbox;
use experiments::Scale;

#[test]
fn fig1_shows_maintenance_step_on_both_machines() {
    let record = experiments::fig01::run(&Sandbox::new(Scale::Quick).ctx);
    let sb = &record.machines[0];
    assert_eq!(sb.machine, "sandybridge");
    assert!(
        sb.increments_w[0] > sb.increments_w[1] + 3.0,
        "SandyBridge first-core step missing: {:?}",
        sb.increments_w
    );
    let wc = &record.machines[1];
    assert!(
        wc.increments_w[1] > wc.increments_w[3] + 3.0,
        "Woodcrest second-socket step missing: {:?}",
        wc.increments_w
    );
}

#[test]
fn fig4_attributes_every_stage() {
    let record = experiments::fig04::run(&Sandbox::new(Scale::Quick).ctx);
    assert_eq!(record.stages.len(), 5);
    for s in &record.stages {
        assert!(s.energy_j > 0.0, "stage {} got no energy", s.stage);
        assert!(s.power_w > 5.0, "stage {} power {:.1} W implausible", s.stage, s.power_w);
    }
    // httpd does the most work in this request.
    let httpd = &record.stages[0];
    assert!(httpd.stage.contains("httpd"));
    let max_energy = record
        .stages
        .iter()
        .map(|s| s.energy_j)
        .fold(0.0, f64::max);
    assert_eq!(httpd.energy_j, max_energy, "httpd should dominate");
    // Stage energies are close to (less than) the container total, which
    // also includes I/O attribution.
    let stage_sum: f64 = record.stages.iter().map(|s| s.energy_j).sum();
    assert!(
        stage_sum <= record.total_energy_j * 1.02,
        "stage sum {stage_sum} vs total {}",
        record.total_energy_j
    );
    assert!(stage_sum > record.total_energy_j * 0.7);
}

#[test]
fn overhead_is_sub_10_microseconds_per_op() {
    let record = experiments::overhead::run(&Sandbox::new(Scale::Quick).ctx);
    // The paper measures 0.95 µs on 2011 hardware; allow generous slack
    // for debug builds and CI noise, but the op must stay cheap.
    assert!(
        record.maintenance_ns < 100_000.0,
        "maintenance op {} ns",
        record.maintenance_ns
    );
    assert!(record.container_bytes < 1024);
}
