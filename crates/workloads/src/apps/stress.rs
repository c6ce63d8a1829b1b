//! Stress: the Stressful Application Test model (paper §4.2).
//!
//! Adler-32 checksums over a large memory segment with added floating-
//! point work keep the core pipeline, FP unit, and cache/memory system
//! simultaneously busy — exactly the co-activity pattern the offline
//! linear model was never calibrated on, which is why Stress dominates
//! the Fig. 8 validation error until online recalibration kicks in. The
//! paper adapted it to a server-style workload of ~100 ms requests.

use crate::apps::{AppEnv, ServerApp, WorkloadKind};
use crate::driver::{scaled_compute, spawn_pool};
use hwsim::ActivityProfile;
use ossim::{Kernel, SocketId};
use simkern::SimRng;
use std::rc::Rc;

/// One request's busy cycles (~100 ms at 3.1 GHz).
const REQUEST_CYCLES: f64 = 310.0e6;

/// The Stress application.
#[derive(Debug, Clone, Default)]
pub struct Stress;

impl Stress {
    /// Creates the app.
    pub fn new() -> Stress {
        Stress
    }
}

impl ServerApp for Stress {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Stress
    }

    fn setup(&self, kernel: &mut Kernel, env: &AppEnv) -> Vec<SocketId> {
        let spec = Rc::new(env.spec.clone());
        spawn_pool(kernel, env.workers, &env.stats, env.notify, move |_w| {
            let spec = Rc::clone(&spec);
            Box::new(move |_label, _pc, ops| {
                ops.push_back(scaled_compute(&spec, REQUEST_CYCLES, ActivityProfile::stress()));
            })
        })
    }

    fn mean_request_cycles(&self) -> f64 {
        REQUEST_CYCLES
    }

    fn representative_profile(&self) -> ActivityProfile {
        ActivityProfile::stress()
    }

    fn pick_label(&self, _rng: &mut SimRng) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_long_and_all_units_busy() {
        let app = Stress::new();
        assert!(app.mean_request_cycles() >= 3.0e8);
        let p = app.representative_profile();
        assert!(p.ins > 0.5 && p.flops > 0.5 && p.cache > 0.5 && p.mem > 0.5);
    }
}
