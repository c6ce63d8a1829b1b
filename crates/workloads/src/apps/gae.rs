//! Google App Engine workloads: Vosao CMS and the hybrid with power
//! viruses (paper §4.2).
//!
//! * **GAE-Vosao** models collaborative web-content editing on the Vosao
//!   CMS over the GAE Java runtime: servlet-pool requests with a 9:1
//!   read/write mix, plus substantial *background processing* by the GAE
//!   runtime itself (suspected security management in the paper) that has
//!   no traceable request context — it lands in the facility's special
//!   background container and accounts for roughly a third of active
//!   power (Fig. 9).
//! * **GAE-Hybrid** adds the paper's simple power virus: ~200 lines of
//!   Java repeatedly writing one of every four bytes over a 16 MB block,
//!   keeping cache/memory and the instruction pipeline simultaneously
//!   busy. Viruses contribute about half the *load* (not half the
//!   request count).

use crate::apps::{AppEnv, ServerApp, WorkloadKind};
use crate::driver::{scaled_compute, spawn_pool};
use hwsim::{ActivityProfile, MachineSpec};
use ossim::{FnProgram, Kernel, Op, SocketId};
use simkern::{SimDuration, SimRng};
use std::collections::VecDeque;
use std::rc::Rc;

/// Request label of the synthetic power virus in [`GaeHybrid`].
pub const POWER_VIRUS_LABEL: u32 = 100;

/// Read-request cycles (label 0).
const READ_CYCLES: f64 = 14.0e6;
/// Write-request compute cycles before/after the datastore write.
const WRITE_CYCLES: (f64, f64) = (20.0e6, 8.0e6);
/// Power-virus burst cycles (~100 ms).
const VIRUS_CYCLES: f64 = 310.0e6;

/// JVM servlet read profile: datastore reads churn the managed heap, so
/// memory traffic is substantial.
fn read_profile() -> ActivityProfile {
    ActivityProfile::new(0.50, 0.05, 0.62, 0.50)
}

/// JVM servlet write profile.
fn write_profile() -> ActivityProfile {
    ActivityProfile::new(0.55, 0.05, 0.68, 0.60)
}

/// GAE runtime background-processing profile.
fn background_profile() -> ActivityProfile {
    ActivityProfile::new(0.50, 0.10, 0.50, 0.35)
}

/// The 16 MB-block byte-writer: cache/memory and pipeline both saturated.
pub(crate) fn virus_profile() -> ActivityProfile {
    ActivityProfile::new(0.90, 0.10, 0.95, 1.00)
}

fn request_ops(spec: &MachineSpec, label: u32, ops: &mut VecDeque<Op>) {
    match label {
        POWER_VIRUS_LABEL => ops.push_back(scaled_compute(spec, VIRUS_CYCLES, virus_profile())),
        1 => ops.extend([
            scaled_compute(spec, WRITE_CYCLES.0, write_profile()),
            Op::DiskIo { bytes: 120_000 },
            scaled_compute(spec, WRITE_CYCLES.1, write_profile()),
            Op::NetIo { bytes: 4_000 },
        ]),
        _ => ops.extend([
            scaled_compute(spec, READ_CYCLES, read_profile()),
            Op::NetIo { bytes: 8_000 },
        ]),
    }
}

fn spawn_gae_background(kernel: &mut Kernel, spec: &Rc<MachineSpec>) {
    // The GAE runtime's untagged housekeeping: bursts of JVM work with no
    // request context, sized to roughly a third of active power at peak.
    let tasks = (spec.total_cores() * 3 / 4).max(2);
    for i in 0..tasks {
        let spec = Rc::clone(spec);
        let mut computing = false;
        let phase_ms = 3 + 2 * (i as u64 % 4);
        kernel.spawn(
            Box::new(FnProgram::new(move |_pc| {
                computing = !computing;
                if computing {
                    scaled_compute(&spec, 11.0e6, background_profile())
                } else {
                    Op::Sleep { duration: SimDuration::from_millis(phase_ms + 3) }
                }
            })),
            None,
        );
    }
}

fn setup_gae(kernel: &mut Kernel, env: &AppEnv) -> Vec<SocketId> {
    let spec = Rc::new(env.spec.clone());
    spawn_gae_background(kernel, &spec);
    spawn_pool(kernel, env.workers, &env.stats, env.notify, move |_w| {
        let spec = Rc::clone(&spec);
        Box::new(move |label, _pc, ops| request_ops(&spec, label, ops))
    })
}

/// The GAE-Vosao content-management workload.
#[derive(Debug, Clone, Default)]
pub struct GaeVosao;

impl GaeVosao {
    /// Creates the app.
    pub fn new() -> GaeVosao {
        GaeVosao
    }
}

impl ServerApp for GaeVosao {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::GaeVosao
    }

    fn setup(&self, kernel: &mut Kernel, env: &AppEnv) -> Vec<SocketId> {
        setup_gae(kernel, env)
    }

    fn mean_request_cycles(&self) -> f64 {
        0.9 * READ_CYCLES + 0.1 * (WRITE_CYCLES.0 + WRITE_CYCLES.1)
    }

    fn representative_profile(&self) -> ActivityProfile {
        read_profile()
    }

    fn pick_label(&self, rng: &mut SimRng) -> u32 {
        // The paper's 9:1 read/write mix.
        u32::from(rng.chance(0.1))
    }

    fn peak_utilization(&self) -> f64 {
        0.62 // leave room for the background processing
    }
}

/// GAE-Vosao mixed with sporadic power viruses (≈half the load each).
#[derive(Debug, Clone, Default)]
pub struct GaeHybrid;

impl GaeHybrid {
    /// Creates the app.
    pub fn new() -> GaeHybrid {
        GaeHybrid
    }

    /// Probability that an arrival is a power virus, chosen so viruses
    /// carry about half the *cycles* despite being long and rare.
    pub fn virus_probability() -> f64 {
        let vosao = GaeVosao::new().mean_request_cycles();
        vosao / (vosao + VIRUS_CYCLES)
    }
}

impl ServerApp for GaeHybrid {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::GaeHybrid
    }

    fn setup(&self, kernel: &mut Kernel, env: &AppEnv) -> Vec<SocketId> {
        setup_gae(kernel, env)
    }

    fn mean_request_cycles(&self) -> f64 {
        let p = GaeHybrid::virus_probability();
        (1.0 - p) * GaeVosao::new().mean_request_cycles() + p * VIRUS_CYCLES
    }

    fn representative_profile(&self) -> ActivityProfile {
        // Half the cycles come from each side.
        read_profile().blend(&virus_profile(), 0.5)
    }

    fn pick_label(&self, rng: &mut SimRng) -> u32 {
        if rng.chance(GaeHybrid::virus_probability()) {
            POWER_VIRUS_LABEL
        } else {
            u32::from(rng.chance(0.1))
        }
    }

    fn peak_utilization(&self) -> f64 {
        0.62
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_mix_is_nine_to_one() {
        let app = GaeVosao::new();
        let mut rng = SimRng::new(1);
        let writes = (0..10_000).filter(|_| app.pick_label(&mut rng) == 1).count();
        assert!((800..1200).contains(&writes), "writes {writes}/10000");
    }

    #[test]
    fn virus_probability_balances_load() {
        let p = GaeHybrid::virus_probability();
        let vosao = GaeVosao::new().mean_request_cycles();
        // Expected virus cycles ≈ expected Vosao cycles per arrival.
        let virus_share = p * VIRUS_CYCLES;
        let vosao_share = (1.0 - p) * vosao;
        assert!((virus_share / vosao_share - 1.0).abs() < 0.1);
    }

    #[test]
    fn virus_is_higher_power_shape_than_vosao() {
        let v = virus_profile();
        let r = read_profile();
        assert!(v.mem > r.mem && v.cache > r.cache);
        // The co-activity product that drives ground-truth power.
        assert!(v.mem * v.ins.max(v.flops) > 2.0 * (r.mem * r.ins.max(r.flops)));
    }
}
