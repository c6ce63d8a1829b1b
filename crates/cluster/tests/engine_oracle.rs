//! Engine oracle: five small cells whose full outcome rendering and
//! exported trace are pinned by committed digests.
//!
//! Between them the cells drive every path of the cluster engine: a
//! three-tier chaos pipeline (crashes, retries, hedges, checkpoints,
//! the model bank and the observability plane), the same pipeline
//! keeping a per-request energy ledger over compact logs, an autoscaled diurnal
//! tier (provisioning, clean and forced drains, a rolling upgrade),
//! a capped flash crowd that climbs the brownout ladder, and a fixed
//! CFS-scheduled tier riding node blackouts under a power cap and
//! admission control with recovery off. Each digest is
//! FNV-1a over `format!("{outcome:?}")` followed by the JSONL trace, so
//! a refactor that moves any simulated value, any event or any event's
//! order moves a digest. The per-cell asserts check that each path the
//! digest is meant to pin actually ran.

use cluster::{
    run_pipeline, AdmissionConfig, AutoscaleConfig, ClusterConfig, ClusterOutcome,
    DistributionPolicy, ObsConfig, RecoveryConfig, RollingUpgrade, ScaleKind, ShedReason,
    SimpleBalance, Topology,
};
use hwsim::FaultConfig;
use ossim::{CfsConfig, SchedulerKind};
use simkern::SimDuration;
use telemetry::obs::SloRules;
use workloads::{calibrate_machine, Diurnal, FlashCrowds, MachineCalibration, TrafficShape};

/// FNV-1a, the digest idiom of the benchmark's outcome check.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// One calibration per machine generation (seed 7), shared by its nodes.
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

/// Runs `cfg` with a recording sink under simple balance on every tier;
/// returns the outcome, the trace sink and the digest of both.
fn run_traced(cfg: &ClusterConfig) -> (ClusterOutcome, telemetry::Telemetry, u64) {
    let mut cfg = cfg.clone();
    cfg.telemetry = telemetry::Telemetry::recording();
    let cals = cals_for(&cfg);
    let mut policies: Vec<Box<dyn DistributionPolicy>> = (0..cfg.tiers.len())
        .map(|_| Box::new(SimpleBalance::new()) as Box<dyn DistributionPolicy>)
        .collect();
    let o = run_pipeline(&mut policies, &cfg, &cals);
    // The one conservation check, at the fault-bearing sweeps' bound.
    if let Err(e) = o.check_conservation(0.45) {
        panic!("{e}");
    }
    let h = fnv1a(0xcbf2_9ce4_8422_2325, format!("{o:?}").as_bytes());
    let h = fnv1a(h, cfg.telemetry.to_jsonl().as_bytes());
    (o, cfg.telemetry, h)
}

fn assert_digest(cell: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{cell}: engine digest moved (got {got:#018x}, want {want:#018x})");
}

/// Three-tier pipeline under crash, slowdown and tag chaos with tight
/// deadlines and hedging, the model bank and the observability plane.
fn chaos_pipeline() -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::serving_pipeline(6));
    cfg.seed = 11;
    cfg.duration = SimDuration::from_millis(700);
    cfg.workers_per_core = 2;
    cfg.faults = FaultConfig {
        seed: 0xC4A0,
        node_crash_hz: 2.0,
        node_crash_len: SimDuration::from_millis(100),
        node_warmup_len: SimDuration::from_millis(60),
        node_slowdown_hz: 3.0,
        node_slowdown_factor: 0.3,
        node_slowdown_len: SimDuration::from_millis(120),
        tag_loss: 0.03,
        tag_corrupt: 0.03,
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
    cfg.admission = Some(AdmissionConfig::standard());
    cfg.model_bank = Some(power_containers::BankConfig::default());
    cfg.obs = Some(ObsConfig {
        window: SimDuration::from_millis(100),
        rules: SloRules { fire_after: 1, ..SloRules::standard() },
        provenance: true,
        tenants: 2,
    });
    cfg
}

/// The chaos pipeline with the per-request energy ledger on and
/// provenance off, so its nodes keep 16-byte context-and-joules log
/// entries and the digest covers every context's summed energy and node
/// count.
fn chaos_ledger() -> ClusterConfig {
    let mut cfg = chaos_pipeline();
    cfg.retain_request_energy = true;
    cfg.obs.as_mut().expect("the chaos pipeline observes").provenance = false;
    cfg
}

/// A six-node tier riding one compressed diurnal day from four active
/// nodes, with a short drain deadline (so some drains are forced) and
/// a two-swap rolling upgrade.
fn elastic_tier() -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::scaled_fleet(6));
    cfg.seed = 42;
    cfg.duration = SimDuration::from_secs(3);
    cfg.workers_per_core = 2;
    cfg.traffic = Some(TrafficShape {
        diurnal: Some(Diurnal { period: cfg.duration, amplitude: 0.7, phase: 0.0 }),
        ..TrafficShape::steady()
    });
    cfg.recovery = Some(RecoveryConfig::standard());
    let mut ac = AutoscaleConfig::standard(2, 4);
    ac.drain_deadline = SimDuration::from_millis(3);
    ac.upgrade = Some(RollingUpgrade {
        start: SimDuration::from_millis(600),
        every: SimDuration::from_millis(900),
        count: 2,
    });
    cfg.autoscale = Some(ac);
    cfg
}

/// A four-node tier under flash crowds and a power cap well below its
/// peak draw, so the brownout ladder engages and sheds optional work.
fn capped_flash() -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::scaled_fleet(4));
    cfg.seed = 42;
    cfg.duration = SimDuration::from_secs(2);
    cfg.workers_per_core = 2;
    cfg.traffic = Some(TrafficShape {
        flash: Some(FlashCrowds {
            spikes_per_sec: 2.0,
            ramp: SimDuration::from_millis(40),
            hold: SimDuration::from_millis(200),
            decay: SimDuration::from_millis(60),
            peak_excess: 1.3,
        }),
        ..TrafficShape::steady()
    });
    cfg.recovery = Some(RecoveryConfig::standard());
    let cores: usize = cfg.nodes.iter().map(hwsim::MachineSpec::total_cores).sum();
    cfg.power_cap_w = Some(4.0 * cores as f64);
    cfg.admission = Some(AdmissionConfig::standard());
    cfg.autoscale = Some(AutoscaleConfig::standard(4, 4));
    cfg
}

/// A fixed four-node tier, scheduled by CFS, riding node blackouts
/// under a power cap with admission control and no request recovery: a
/// frozen kernel replaying its backlog, requests steered around dark
/// nodes, the power-headroom front door and shedding without retries.
fn blackout_capped() -> ClusterConfig {
    let mut cfg = ClusterConfig::sharded(&Topology::scaled_fleet(4));
    cfg.seed = 42;
    cfg.duration = SimDuration::from_millis(1500);
    cfg.workers_per_core = 2;
    cfg.sched = SchedulerKind::Cfs(CfsConfig::default());
    cfg.faults = FaultConfig {
        seed: 0xB1AC,
        node_blackout_hz: 2.0,
        node_blackout_len: SimDuration::from_millis(150),
        ..FaultConfig::none()
    };
    let cores: usize = cfg.nodes.iter().map(hwsim::MachineSpec::total_cores).sum();
    cfg.power_cap_w = Some(7.0 * cores as f64);
    cfg.admission = Some(AdmissionConfig::standard());
    cfg
}

#[test]
fn chaos_pipeline_matches_engine_oracle() {
    let (o, tele, h) = run_traced(&chaos_pipeline());
    assert!(o.crashes > 0, "no crash fired");
    assert!(o.retried > 0, "no retry fired");
    assert!(o.hedged > 0, "no hedge fired");
    assert!(o.checkpoints > 0, "no checkpoint journaled");
    assert!(o.stale_replies > 0, "no stale reply deduplicated");
    let snap = tele.snapshot();
    assert!(snap.counter("recal.refits").unwrap_or(0) > 0, "the model bank never refit");
    let obs = o.obs.as_ref().expect("obs plane enabled");
    assert!(!obs.provenance.is_empty(), "no provenance collected");
    assert_digest("chaos_pipeline", h, 0xc99f_8df6_65d8_4ab2);
}

#[test]
fn chaos_ledger_matches_engine_oracle() {
    let (o, _, h) = run_traced(&chaos_ledger());
    assert!(o.stale_replies > 0, "no stale reply deduplicated");
    let obs = o.obs.as_ref().expect("obs plane enabled");
    assert!(obs.provenance.is_empty(), "provenance collected with provenance off");
    assert!(
        o.energy_by_ctx.iter().any(|c| c.nodes >= 2),
        "no context's energy landed on two or more nodes"
    );
    assert_digest("chaos_ledger", h, 0x1611_ebf5_c284_afe9);
}

#[test]
fn elastic_tier_matches_engine_oracle() {
    let (o, _, h) = run_traced(&elastic_tier());
    let count = |kind: ScaleKind, forced: bool| {
        o.scale_log.iter().filter(|e| e.kind == kind && e.forced == forced).count()
    };
    assert!(count(ScaleKind::Out, false) > 0, "no scale-out landed");
    let drains = |forced| count(ScaleKind::In, forced) + count(ScaleKind::UpgradeIn, forced);
    assert!(drains(false) > 0, "no clean drain");
    assert!(drains(true) > 0, "no forced drain");
    assert!(o.upgrades > 0, "no rolling upgrade started");
    assert!(count(ScaleKind::UpgradeOut, false) > 0, "no upgrade provision landed");
    assert_digest("elastic_tier", h, 0x5ad1_ea18_c8c8_9745);
}

#[test]
fn capped_flash_matches_engine_oracle() {
    let (o, _, h) = run_traced(&capped_flash());
    assert!(o.brownout_engagements > 0, "the brownout ladder never engaged");
    assert!(o.shed[ShedReason::BrownoutOptional.index()] > 0, "no optional session shed");
    assert_digest("capped_flash", h, 0xc98a_f8b7_f361_e72d);
}

#[test]
fn blackout_capped_matches_engine_oracle() {
    let cfg = blackout_capped();
    let (o, tele, h) = run_traced(&cfg);
    let blackouts = tele.to_jsonl().matches(r#""name":"blackout","ph":"B""#).count();
    assert!(blackouts > 0, "no blackout window opened");
    assert!(o.rerouted > 0, "no request steered around a dark node");
    assert!(o.degradations_detected > 0, "no stalled node detected");
    assert!(o.peak_power_w > 0.0, "fleet power never sampled");
    assert!(o.shed[ShedReason::PowerHeadroom.index()] > 0, "no power-headroom shed");
    assert_eq!(o.retried, 0, "a retry ran with recovery off");
    assert_eq!(o.crashes + o.scale_outs + o.scale_ins, 0, "the tier crashed or resized");
    let rr = ClusterConfig { sched: SchedulerKind::RoundRobin, ..cfg };
    assert_ne!(run_traced(&rr).2, h, "the scheduler never reached the nodes");
    assert_digest("blackout_capped", h, 0x8771_67de_461c_5dce);
}
