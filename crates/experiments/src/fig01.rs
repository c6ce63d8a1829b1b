//! Fig. 1 — incremental (per-core) power consumption.
//!
//! The paper spins `k` CPU-bound tasks on the SandyBridge and Woodcrest
//! machines and plots the power *increment* of each additional busy
//! core. The first busy core on a chip pays the shared maintenance power
//! (on Woodcrest, the first *two* tasks each wake a socket because the
//! Linux scheduler spreads for performance), so early increments are
//! visibly larger — the motivation for Eq. 2's `M_chipshare` term.

use crate::output::{banner, Table};
use crate::runner::RunCtx;
use hwsim::{ActivityProfile, Machine, MachineSpec};
use ossim::{Kernel, KernelConfig, Op, ScriptProgram};
use serde::Serialize;
use simkern::SimTime;

/// One machine's incremental-power series.
#[derive(Debug, Clone, Serialize)]
pub struct MachineSteps {
    /// Machine name.
    pub machine: String,
    /// Power increment of busy core k over k−1, Watts (index 0 = idle→1).
    pub increments_w: Vec<f64>,
}

/// The Fig. 1 record.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1 {
    /// Per-machine series (SandyBridge, Woodcrest).
    pub machines: Vec<MachineSteps>,
}

fn power_with_k_spinners(spec: &MachineSpec, k: usize, seed: u64) -> f64 {
    let mut kernel = Kernel::new(Machine::new(spec.clone(), seed), KernelConfig::default());
    for _ in 0..k {
        kernel.spawn(
            Box::new(ScriptProgram::new(vec![Op::Compute {
                cycles: 1e15,
                profile: ActivityProfile::cpu_spin(),
            }])),
            None,
        );
    }
    // Let placement settle, then measure steady power over an interval.
    kernel.run_until(SimTime::from_millis(50));
    let e0 = kernel.machine().true_energy_j();
    kernel.run_until(SimTime::from_millis(250));
    let e1 = kernel.machine().true_energy_j();
    (e1 - e0) / 0.2
}

/// Runs the experiment.
pub fn run(ctx: &RunCtx) -> Fig1 {
    banner("fig1", "incremental per-core power (chip maintenance step)");
    let mut machines = Vec::new();
    for spec in [MachineSpec::sandybridge(), MachineSpec::woodcrest()] {
        let powers: Vec<f64> = (0..=spec.total_cores())
            .map(|k| power_with_k_spinners(&spec, k, crate::SEED))
            .collect();
        let increments: Vec<f64> = powers.windows(2).map(|w| w[1] - w[0]).collect();
        let mut table = Table::new(["transition", "increment (W)"]);
        for (i, inc) in increments.iter().enumerate() {
            let from = if i == 0 { "idle".to_string() } else { format!("{i} core(s)") };
            table.row([format!("{from} -> {} core(s)", i + 1), format!("{inc:.1}")]);
        }
        println!("machine: {}", spec.name);
        println!("{table}");
        machines.push(MachineSteps { machine: spec.name.to_string(), increments_w: increments });
    }
    let record = Fig1 { machines };
    ctx.write_record("fig1", &record);
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sandybridge_first_core_costs_extra() {
        let spec = MachineSpec::sandybridge();
        let p0 = power_with_k_spinners(&spec, 0, 1);
        let p1 = power_with_k_spinners(&spec, 1, 1);
        let p2 = power_with_k_spinners(&spec, 2, 1);
        assert!((p1 - p0) > (p2 - p1) + 3.0, "steps {} vs {}", p1 - p0, p2 - p1);
    }

    #[test]
    fn woodcrest_first_two_cores_cost_extra() {
        // Spreading wakes both sockets for the first two tasks.
        let spec = MachineSpec::woodcrest();
        let powers: Vec<f64> =
            (0..=4).map(|k| power_with_k_spinners(&spec, k, 1)).collect();
        let inc: Vec<f64> = powers.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(inc[0] > inc[2] + 3.0, "increments {inc:?}");
        assert!(inc[1] > inc[3] + 3.0, "increments {inc:?}");
    }
}
