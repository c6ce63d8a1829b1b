//! RSA-crypto: the paper's synthetic security-processing workload.
//!
//! Each request runs RSA encryption/decryption with one of three keys
//! (OpenSSL's example keys); request cost grows steeply with key size,
//! giving a trimodal request-length distribution. The work is almost
//! purely integer compute — the workload with the strongest affinity for
//! the newest machine in Fig. 13.

use crate::apps::{AppEnv, ServerApp, WorkloadKind};
use crate::driver::{scaled_compute, spawn_pool};
use hwsim::ActivityProfile;
use ossim::{Kernel, Op, SocketId};
use simkern::SimRng;
use std::rc::Rc;

/// Cycle cost per key label on the reference machine.
const KEY_CYCLES: [f64; 3] = [4.5e6, 10.0e6, 27.0e6];

/// The RSA-crypto application.
#[derive(Debug, Clone, Default)]
pub struct RsaCrypto;

impl RsaCrypto {
    /// Creates the app.
    pub fn new() -> RsaCrypto {
        RsaCrypto
    }

    /// The integer-crypto activity profile.
    pub fn profile() -> ActivityProfile {
        ActivityProfile::new(0.92, 0.04, 0.02, 0.0)
    }

    /// Cycles for a given key label (labels beyond 2 use the largest key).
    pub fn cycles_for(label: u32) -> f64 {
        KEY_CYCLES[(label as usize).min(KEY_CYCLES.len() - 1)]
    }
}

impl ServerApp for RsaCrypto {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::RsaCrypto
    }

    fn setup(&self, kernel: &mut Kernel, env: &AppEnv) -> Vec<SocketId> {
        let spec = Rc::new(env.spec.clone());
        spawn_pool(kernel, env.workers, &env.stats, env.notify, move |_w| {
            let spec = Rc::clone(&spec);
            Box::new(move |label, _pc, ops| {
                ops.extend([
                    scaled_compute(&spec, RsaCrypto::cycles_for(label), RsaCrypto::profile()),
                    Op::NetIo { bytes: 2_000 },
                ]);
            })
        })
    }

    fn mean_request_cycles(&self) -> f64 {
        KEY_CYCLES.iter().sum::<f64>() / KEY_CYCLES.len() as f64
    }

    fn representative_profile(&self) -> ActivityProfile {
        RsaCrypto::profile()
    }

    fn pick_label(&self, rng: &mut SimRng) -> u32 {
        rng.next_below(3) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_keys_cost_more() {
        assert!(RsaCrypto::cycles_for(0) < RsaCrypto::cycles_for(1));
        assert!(RsaCrypto::cycles_for(1) < RsaCrypto::cycles_for(2));
        assert_eq!(RsaCrypto::cycles_for(99), RsaCrypto::cycles_for(2));
    }

    #[test]
    fn profile_is_compute_dominated() {
        let p = RsaCrypto::profile();
        assert!(p.ins > 0.8);
        assert!(p.mem < 0.05);
    }
}
