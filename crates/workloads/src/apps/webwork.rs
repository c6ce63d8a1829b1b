//! WeBWorK: the multi-stage web-application model (paper §4.2, Fig. 4).
//!
//! A request flows through the stages the paper's Fig. 4 captures:
//!
//! ```text
//! client → httpd (PHP) → MySQL thread → httpd → shell → latex
//!                                              ↘ (wait)  dvipng
//!        → httpd (render) → disk/net I/O → response
//! ```
//!
//! The httpd worker is a pooled process serving many requests over its
//! lifetime; the MySQL thread is a single persistent task reached over a
//! shared socket (the request context rides each message); the external
//! `latex`/`dvipng` programs are forked children inheriting the context.
//! Requests are drawn from ~3,000 teacher-created problem sets with a
//! popularity skew and per-set difficulty.

use crate::apps::{AppEnv, ServerApp, WorkloadKind};
use crate::driver::{scaled_compute, spawn_pool};
use hwsim::ActivityProfile;
use ossim::{Kernel, Op, ProcCtx, Program, Resume, ScriptProgram, SocketId};
use simkern::SimRng;
use std::rc::Rc;

/// Number of distinct problem sets.
pub const PROBLEM_SETS: u32 = 3000;

/// The WeBWorK application.
#[derive(Debug, Clone, Default)]
pub struct WeBWorK;

impl WeBWorK {
    /// Creates the app.
    pub fn new() -> WeBWorK {
        WeBWorK
    }

    /// PHP request-processing profile (instruction heavy).
    pub fn php_profile() -> ActivityProfile {
        ActivityProfile::new(0.75, 0.05, 0.25, 0.05)
    }

    /// MySQL query profile (cache/memory).
    pub fn mysql_profile() -> ActivityProfile {
        ActivityProfile::new(0.45, 0.01, 0.65, 0.35)
    }

    /// latex typesetting profile (integer + floating point).
    pub fn latex_profile() -> ActivityProfile {
        ActivityProfile::new(0.80, 0.45, 0.15, 0.02)
    }

    /// dvipng rasterization profile.
    pub fn dvipng_profile() -> ActivityProfile {
        ActivityProfile::new(0.60, 0.20, 0.55, 0.20)
    }

    /// Per-problem-set difficulty multiplier in `[0.5, 2.5)`,
    /// deterministic in the set id.
    pub fn difficulty(label: u32) -> f64 {
        let h = (label as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
        0.5 + (h % 1000) as f64 / 500.0
    }

    /// Mean busy cycles per request for a given difficulty (all stages).
    fn cycles_at(d: f64) -> f64 {
        // php1 + php2 + render scale with difficulty; mysql, shell,
        // latex, dvipng partially.
        d * (7.0e6 + 5.0e6 + 4.0e6) + 2.5e6 + 0.8e6 + d * (5.0e6 + 3.0e6)
    }
}

/// The persistent MySQL service thread: receives queries on a shared
/// socket (inheriting each query's request context), executes them, and
/// replies to the per-worker reply socket named in the payload.
struct MysqlThread {
    rx: SocketId,
    spec: Rc<hwsim::MachineSpec>,
    reply_to: Option<SocketId>,
    phase: MysqlPhase,
}

enum MysqlPhase {
    Await,
    Computing,
    Replied,
}

impl Program for MysqlThread {
    fn next_op(&mut self, pc: &mut ProcCtx<'_>) -> Op {
        if pc.resume == Resume::Received {
            let payload = pc.last_msg.map(|m| m.payload).unwrap_or(0);
            self.reply_to = Some(SocketId(payload as u32));
            self.phase = MysqlPhase::Computing;
            return scaled_compute(&self.spec, 2.5e6, WeBWorK::mysql_profile());
        }
        match self.phase {
            MysqlPhase::Computing => {
                self.phase = MysqlPhase::Replied;
                let dst = self.reply_to.take().expect("reply destination recorded");
                Op::Send { socket: dst, bytes: 4_096, payload: 0 }
            }
            MysqlPhase::Replied => {
                // Release the request context before idling so the
                // container's reference count can reach zero (§3.5).
                self.phase = MysqlPhase::Await;
                Op::BindContext(None)
            }
            MysqlPhase::Await => Op::Recv { socket: self.rx },
        }
    }
}

impl ServerApp for WeBWorK {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::WeBWorK
    }

    fn setup(&self, kernel: &mut Kernel, env: &AppEnv) -> Vec<SocketId> {
        let spec = Rc::new(env.spec.clone());
        // One shared MySQL inbox; every httpd worker sends into it.
        let (mysql_tx, mysql_rx) = kernel.new_socket_pair();
        kernel.spawn(
            Box::new(MysqlThread {
                rx: mysql_rx,
                spec: Rc::clone(&spec),
                reply_to: None,
                phase: MysqlPhase::Await,
            }),
            None,
        );
        spawn_pool(kernel, env.workers, &env.stats, env.notify, move |_w| {
            let spec = Rc::clone(&spec);
            let mut reply_pair: Option<(SocketId, SocketId)> = None;
            Box::new(move |label, pc, ops| {
                // Each worker keeps one persistent reply connection from
                // MySQL (created lazily on first request).
                let (reply_tx, reply_rx) =
                    *reply_pair.get_or_insert_with(|| pc.new_socket_pair());
                let d = WeBWorK::difficulty(label);
                let shell: Box<ScriptProgram> = Box::new(ScriptProgram::new(vec![
                    scaled_compute(&spec, 0.8e6, ActivityProfile::cpu_spin()),
                    Op::Fork {
                        child: Box::new(ScriptProgram::new(vec![scaled_compute(
                            &spec,
                            d * 5.0e6,
                            WeBWorK::latex_profile(),
                        )])),
                        ctx: None,
                        detached: false,
                    },
                    Op::WaitChild,
                    Op::Fork {
                        child: Box::new(ScriptProgram::new(vec![scaled_compute(
                            &spec,
                            d * 3.0e6,
                            WeBWorK::dvipng_profile(),
                        )])),
                        ctx: None,
                        detached: false,
                    },
                    Op::WaitChild,
                ]));
                ops.extend([
                    // PHP parses and prepares the problem.
                    scaled_compute(&spec, d * 7.0e6, WeBWorK::php_profile()),
                    // Query the database; the context tag rides the message.
                    Op::Send { socket: mysql_tx, bytes: 1_024, payload: reply_tx.0 as u64 },
                    Op::Recv { socket: reply_rx },
                    scaled_compute(&spec, d * 5.0e6, WeBWorK::php_profile()),
                    // External content rendering: shell → latex → dvipng.
                    Op::Fork { child: shell, ctx: None, detached: false },
                    Op::WaitChild,
                    // Problem assets from disk, final render, response.
                    Op::DiskIo { bytes: 40_000 },
                    scaled_compute(&spec, d * 4.0e6, WeBWorK::php_profile()),
                    Op::NetIo { bytes: 30_000 },
                ]);
            })
        })
    }

    fn mean_request_cycles(&self) -> f64 {
        WeBWorK::cycles_at(1.5)
    }

    fn representative_profile(&self) -> ActivityProfile {
        WeBWorK::php_profile()
    }

    fn pick_label(&self, rng: &mut SimRng) -> u32 {
        // Popularity skew: low-numbered problem sets dominate.
        let u = rng.next_f64();
        ((u * u * u * PROBLEM_SETS as f64) as u32).min(PROBLEM_SETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difficulty_is_deterministic_and_bounded() {
        for label in [0u32, 1, 17, 2999] {
            let d1 = WeBWorK::difficulty(label);
            let d2 = WeBWorK::difficulty(label);
            assert_eq!(d1, d2);
            assert!((0.5..2.5).contains(&d1), "difficulty {d1}");
        }
    }

    #[test]
    fn popularity_skew_prefers_low_labels() {
        let app = WeBWorK::new();
        let mut rng = SimRng::new(3);
        let labels: Vec<u32> = (0..2000).map(|_| app.pick_label(&mut rng)).collect();
        let low = labels.iter().filter(|&&l| l < 300).count();
        assert!(low > 800, "expected >40% of picks in the top-10% sets, got {low}");
        assert!(labels.iter().all(|&l| l < PROBLEM_SETS));
    }

    #[test]
    fn mean_cycles_cover_all_stages() {
        let app = WeBWorK::new();
        assert!(app.mean_request_cycles() > 20.0e6);
    }
}
