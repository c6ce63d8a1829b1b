//! Cross-crate integration: trace-driven replay determinism and the
//! closed-loop load generator.

use hwsim::{ActivityProfile, Machine, MachineSpec};
use ossim::{Kernel, KernelConfig, Op};
use simkern::{SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{
    spawn_pool, spawn_trace_driver, CtxAlloc, RequestTrace, RunStats,
};

fn run_trace(trace: RequestTrace, seed: u64) -> Vec<(u64, u64)> {
    let mut kernel = Kernel::new(
        Machine::new(MachineSpec::sandybridge(), seed),
        KernelConfig::default(),
    );
    let stats = Rc::new(RefCell::new(RunStats::new()));
    let inboxes = spawn_pool(&mut kernel, 8, &stats, None, |_w| {
        Box::new(|label, _pc, ops| {
            ops.push_back(Op::Compute {
                cycles: 2e6 * (label as f64 + 1.0),
                profile: ActivityProfile::cache_heavy(),
            });
        })
    });
    spawn_trace_driver(
        &mut kernel,
        trace,
        inboxes,
        Rc::clone(&stats),
        None,
        CtxAlloc::new(1),
    );
    kernel.run_until(SimTime::from_secs(2));
    let stats = stats.borrow();
    stats
        .completions()
        .iter()
        .map(|c| (c.ctx.0, c.finished.as_nanos()))
        .collect()
}

#[test]
fn trace_replay_is_bit_for_bit_deterministic() {
    let mut rng = SimRng::new(5);
    let trace = RequestTrace::synthesize(
        300.0,
        SimDuration::from_secs(1),
        &mut rng,
        |rng| rng.next_below(3) as u32,
    );
    let a = run_trace(trace.clone(), 42);
    let b = run_trace(trace, 42);
    assert_eq!(a, b, "same trace + same seed must replay identically");
    assert!(!a.is_empty());
}

#[test]
fn same_trace_different_machine_state_still_serves_everything() {
    let mut rng = SimRng::new(6);
    let trace = RequestTrace::synthesize(
        200.0,
        SimDuration::from_secs(1),
        &mut rng,
        |_| 1,
    );
    let n = trace.len();
    // A different hardware seed only changes meter noise, not scheduling.
    let a = run_trace(trace.clone(), 1);
    let b = run_trace(trace, 2);
    assert_eq!(a.len(), n);
    assert_eq!(b.len(), n);
    assert_eq!(a, b, "meter noise must not affect execution");
}

#[test]
fn closed_loop_holds_concurrency_and_saturates() {
    use workloads::{calibrate_machine, run_app, LoadLevel, RunConfig, WorkloadKind};
    let spec = MachineSpec::sandybridge();
    let cal = calibrate_machine(&spec, 42);
    let mut cfg = RunConfig::new(spec);
    cfg.closed_loop = Some(8);
    cfg.load = LoadLevel::Peak; // rate ignored in closed-loop mode
    cfg.duration = SimDuration::from_secs(3);
    let outcome = run_app(WorkloadKind::RsaCrypto, &cfg, &cal);
    let stats = outcome.stats.borrow();
    // With 8 slots on 4 cores and CPU-bound requests, the machine should
    // be almost fully busy.
    assert!(
        outcome.mean_utilization() > 0.9,
        "closed loop should saturate: util {:.2}",
        outcome.mean_utilization()
    );
    // In-flight never exceeds the concurrency limit.
    let issued = stats.issued();
    let completed = stats.completions().len() as u64;
    assert!(issued - completed <= 8, "in flight {}", issued - completed);
    assert!(completed > 1000, "completed {completed}");
}

#[test]
fn captured_trace_replays_a_live_run() {
    use workloads::{calibrate_machine, run_app, LoadLevel, RunConfig, WorkloadKind};
    let spec = MachineSpec::sandybridge();
    let cal = calibrate_machine(&spec, 42);
    let mut cfg = RunConfig::new(spec);
    cfg.load = LoadLevel::Half;
    cfg.duration = SimDuration::from_secs(2);
    let live = run_app(WorkloadKind::RsaCrypto, &cfg, &cal);
    let trace = RequestTrace::from_run(&live.stats.borrow());
    assert!(trace.len() > 100);
    // Round-trip through the JSON-lines format, then replay.
    let text = trace.to_jsonl();
    let restored = RequestTrace::from_jsonl(&text).expect("parse");
    let completions = run_trace(restored, 42);
    assert_eq!(completions.len(), trace.len());
}
