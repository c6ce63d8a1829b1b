//! What makes a simulated outcome count: exact request conservation,
//! energy conservation modulo journaled loss, and a digest of every
//! deterministic field.

use crate::workload::{Workload, DEFAULT_SEED, EPISODES};
use cluster::ClusterOutcome;

/// Digests of each episode of the full-length workloads at
/// [`DEFAULT_SEED`], recorded with the benchmark. A change that moves
/// any simulated result moves a digest, so a speed-only change must
/// leave these untouched.
const RECORDED: &[(Workload, [u64; EPISODES])] = &[
    (
        Workload::FleetSteady,
        [
            0x0d55_3a48_510b_9298,
            0xa63e_adef_dcfc_a99f,
            0xc3ba_a967_634c_ce8c,
            0xa41f_5c66_4e59_77d2,
            0xca50_9eaf_ce53_2d31,
            0x1980_7ee0_52e1_085a,
            0xeea6_ff90_cafd_2ccc,
            0xe14d_8bfc_92cf_b8d0,
        ],
    ),
    (
        Workload::DiurnalElastic,
        [
            0x3042_3597_ee1d_c5f3,
            0xc0d2_6b7f_db24_5ea7,
            0x1b17_c719_ea48_06c7,
            0x6a7f_07df_bed2_e77d,
            0x098b_1bbc_d705_6ec8,
            0x207b_ae87_eda7_4389,
            0x104c_2e54_785a_2456,
            0xd534_6015_1e41_acee,
        ],
    ),
    (
        Workload::PipelineChaos,
        [
            0x8649_542d_15a1_efc5,
            0xeafb_7537_9381_0a52,
            0x831a_2238_bb2f_c29c,
            0xce99_201f_e89f_620f,
            0x9697_3e26_508e_c4ac,
            0x9479_8cc6_978a_a3e1,
            0x9217_27fd_e425_cc9d,
            0xc32e_6dc8_0fce_ece6,
        ],
    ),
];

/// The digest recorded for `episode` of the full-length `workload` at
/// `seed`, if any.
pub fn recorded_digest(workload: Workload, seed: u64, episode: usize) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    RECORDED.iter().find(|(w, _)| *w == workload).map(|(_, d)| d[episode])
}

/// Fleet totals of one or more outcomes, from which the fidelity
/// metrics follow; summed in node order as the experiments sum them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    active_j: f64,
    attributed_j: f64,
    lost_j: f64,
    /// Idle and provisioning energy, J.
    standing_j: f64,
    dispatched: u64,
    completed: u64,
    dropped: u64,
    resp_count: u64,
    resp_sum_s: f64,
}

impl Totals {
    /// Adds the totals of `o`.
    pub fn add(&mut self, o: &ClusterOutcome) {
        for n in &o.per_node {
            self.active_j += n.active_energy_j;
            self.attributed_j += n.attributed_energy_j;
            self.lost_j += n.lost_energy_j;
        }
        self.standing_j += o.idle_energy_j + o.provisioning_energy_j;
        self.dispatched += o.dispatched;
        self.completed += o.completed as u64;
        self.dropped += o.dropped;
        for (_, r) in &o.response_by_app {
            self.resp_count += r.count();
            self.resp_sum_s += r.sum();
        }
    }

    /// The fidelity metrics of everything added.
    pub fn metrics(&self) -> SimMetrics {
        SimMetrics {
            attr_err: (self.attributed_j - (self.active_j - self.lost_j)).abs() / self.active_j,
            j_per_req: (self.active_j + self.standing_j) / self.completed as f64,
            fail_frac: self.dropped as f64 / self.dispatched as f64,
            resp_mean_ms: self.resp_sum_s / self.resp_count as f64 * 1e3,
        }
    }
}

/// The simulated fidelity metrics. They are deterministic in the
/// configurations simulated, so they repeat bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// |Σ attributed − (Σ active − Σ journaled loss)| / Σ active, against
    /// the simulator's hidden ground truth.
    pub attr_err: f64,
    /// (active + idle + provisioning energy) per completed request, J.
    pub j_per_req: f64,
    /// Dropped over dispatched requests: shed, retries exhausted, or
    /// lost in a crash.
    pub fail_frac: f64,
    /// Completion-weighted mean end-to-end response time, ms.
    pub resp_mean_ms: f64,
}

impl SimMetrics {
    /// Every metric NaN: what a run with no passing outcome reports.
    pub const NAN: SimMetrics =
        SimMetrics { attr_err: f64::NAN, j_per_req: f64::NAN, fail_frac: f64::NAN, resp_mean_ms: f64::NAN };

    /// The metrics of `o` alone.
    pub fn of(o: &ClusterOutcome) -> SimMetrics {
        let mut t = Totals::default();
        t.add(o);
        t.metrics()
    }
}

/// Checks exact request conservation (fleet-wide, per node, and against
/// the crash and resize logs) and energy conservation modulo journaled
/// loss within `energy_tol`.
pub fn check(o: &ClusterOutcome, energy_tol: f64) -> Result<(), String> {
    if o.completed == 0 {
        return Err("no request completed".into());
    }
    if o.dispatched != o.completed as u64 + o.dropped + o.in_flight {
        return Err(format!(
            "fleet request conservation: dispatched {} != completed {} + dropped {} + in flight {}",
            o.dispatched, o.completed, o.dropped, o.in_flight
        ));
    }
    if o.dropped != o.total_shed() + o.lost_in_crash {
        return Err(format!(
            "dropped {} != shed {} + lost in crash {}",
            o.dropped,
            o.total_shed(),
            o.lost_in_crash
        ));
    }
    for (i, n) in o.per_node.iter().enumerate() {
        if n.dispatched != n.completions as u64 + n.in_flight + n.lost_requests {
            return Err(format!(
                "node {i} ({}) request conservation: dispatched {} != completions {} + in flight {} + lost {}",
                n.machine, n.dispatched, n.completions, n.in_flight, n.lost_requests
            ));
        }
    }
    if o.crash_log.len() as u64 != o.crashes
        || o.scale_log.len() as u64 != o.scale_outs + o.scale_ins
    {
        return Err("the crash or resize log disagrees with its counter".into());
    }
    let mut t = Totals::default();
    t.add(o);
    let err = t.metrics().attr_err;
    if !(t.active_j > 0.0 && err <= energy_tol) {
        return Err(format!(
            "energy conservation: active {:.1} J vs attributed {:.1} + lost {:.1} J, error \
             {err:.3} over {energy_tol}",
            t.active_j, t.attributed_j, t.lost_j
        ));
    }
    Ok(())
}

/// FNV-1a over the outcome's deterministic fields: counts as integers,
/// energies and times by their bit patterns.
pub fn digest(o: &ClusterOutcome) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for x in [
        o.dispatched,
        o.completed as u64,
        o.rerouted,
        o.dropped,
        o.lost_in_crash,
        o.retried,
        o.hedged,
        o.stale_replies,
        o.crashes,
        o.checkpoints,
        o.in_flight,
        o.decisions,
        o.degradations_detected,
        o.tags_lost,
        o.tags_corrupted,
        o.scale_outs,
        o.scale_ins,
        o.upgrades,
        o.brownout_engagements,
        o.brownout_releases,
        o.autoscale_evals,
    ] {
        h.u(x);
    }
    o.shed.iter().chain(&o.fault_counts).for_each(|&x| h.u(x));
    for x in [o.provisioning_energy_j, o.idle_energy_j, o.peak_power_w] {
        h.f(x);
    }
    for n in &o.per_node {
        h.bytes(n.machine.as_bytes());
        for x in [n.tier as u64, n.dispatched, n.completions as u64, n.in_flight] {
            h.u(x);
        }
        h.u(n.lost_requests);
        h.u(n.crashes);
        for x in [
            n.active_energy_j,
            n.attributed_energy_j,
            n.energy_rate_w,
            n.lost_energy_j,
            n.utilization,
            n.uptime_s,
            n.idle_energy_j,
        ] {
            h.f(x);
        }
    }
    for (_, r) in &o.response_by_app {
        h.u(r.count());
        h.f(r.sum());
        h.f(r.min());
        h.f(r.max());
    }
    for (_, e) in &o.energy_by_app_j {
        h.f(*e);
    }
    for c in &o.crash_log {
        for x in [c.node as u64, c.at.as_nanos(), c.restarted_at.as_nanos()] {
            h.u(x);
        }
        h.f(c.lost_energy_j);
        h.u(c.lost_requests);
        h.u(c.restored_containers);
    }
    for e in &o.scale_log {
        h.u(e.node as u64);
        h.bytes(e.kind.name().as_bytes());
        h.u(e.decided_at.as_nanos());
        h.u(e.completed_at.as_nanos());
        h.f(e.lost_energy_j);
        h.u(e.lost_requests);
        h.u(e.forced as u64);
        h.f(e.provision_energy_j);
    }
    if let Some(obs) = &o.obs {
        h.u(obs.alert_count() as u64);
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f(&mut self, x: f64) {
        self.u(x.to_bits());
    }
}
