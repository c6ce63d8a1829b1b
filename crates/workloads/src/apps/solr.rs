//! Solr: full-text search over a Wikipedia index (paper §4.2).
//!
//! The index fits in memory, so a query is last-level-cache-heavy with
//! moderate memory traffic, and query cost is long-tailed (article titles
//! of wildly differing selectivity) — the paper's Fig. 7 shows Solr's
//! request-energy spread comes mostly from execution-time variance.

use crate::apps::{AppEnv, ServerApp, WorkloadKind};
use crate::driver::{scaled_compute, spawn_pool};
use hwsim::ActivityProfile;
use ossim::{Kernel, Op, SocketId};
use simkern::SimRng;
use std::rc::Rc;

/// Median query cost on the reference machine.
const MEDIAN_CYCLES: f64 = 16.0e6;
/// Log-normal sigma of query cost.
const SIGMA: f64 = 0.65;

/// The Solr search application.
#[derive(Debug, Clone, Default)]
pub struct Solr;

impl Solr {
    /// Creates the app.
    pub fn new() -> Solr {
        Solr
    }

    /// The Lucene search activity profile.
    pub fn profile() -> ActivityProfile {
        ActivityProfile::new(0.55, 0.02, 0.75, 0.25)
    }
}

impl ServerApp for Solr {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Solr
    }

    fn setup(&self, kernel: &mut Kernel, env: &AppEnv) -> Vec<SocketId> {
        let spec = Rc::new(env.spec.clone());
        spawn_pool(kernel, env.workers, &env.stats, env.notify, move |_w| {
            let spec = Rc::clone(&spec);
            Box::new(move |_label, pc, ops| {
                let cycles = (MEDIAN_CYCLES
                    * pc.rng.log_normal(0.0, SIGMA))
                .clamp(1.5e6, 250.0e6);
                ops.extend([
                    scaled_compute(&spec, cycles, Solr::profile()),
                    Op::NetIo { bytes: 20_000 },
                ]);
            })
        })
    }

    fn mean_request_cycles(&self) -> f64 {
        // Log-normal mean: median · exp(σ²/2).
        MEDIAN_CYCLES * (SIGMA * SIGMA / 2.0).exp()
    }

    fn representative_profile(&self) -> ActivityProfile {
        Solr::profile()
    }

    fn pick_label(&self, _rng: &mut SimRng) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_exceeds_median_for_long_tail() {
        let app = Solr::new();
        assert!(app.mean_request_cycles() > MEDIAN_CYCLES);
    }

    #[test]
    fn profile_is_cache_heavy() {
        let p = Solr::profile();
        assert!(p.cache > 0.5);
        assert!(p.flops < 0.1);
    }
}
