//! Property-based tests for the power-containers core.

use hwsim::{CoreId, MachineSpec};
use ossim::ContextId;
use power_containers::{
    BankConfig, CalibrationSample, CalibrationSet, ConditioningPolicy, ContainerManager,
    MetricVector, ModelBank, ModelKind, PowerModel, RecordRetention, SampleBoard, TraceRing,
};
use proptest::prelude::*;
use simkern::{SimDuration, SimTime};

/// Online samples between periodic refits of the stand-alone banks below.
const BANK_REFIT_EVERY: usize = 8;

/// A small offline calibration set under a fixed linear power law, for
/// the model-bank properties.
fn bank_offline_set() -> CalibrationSet {
    let mut set = CalibrationSet::new(26.1);
    for level in [0.25, 0.5, 0.75, 1.0f64] {
        for f in 0..6 {
            let mut a = [0.0; 8];
            a[0] = level;
            a[f] = level;
            a[5] = 1.0;
            let truth = [8.0, 3.0, 1.5, 3.5, 2.0, 5.6, 0.0, 0.0];
            let watts: f64 = a.iter().zip(truth).map(|(x, c)| x * c).sum();
            set.push(CalibrationSample {
                metrics: MetricVector::from_slice(&a),
                active_watts: watts,
            });
        }
    }
    set
}

/// The reference window the bank properties observe and predict on.
fn bank_busy() -> MetricVector {
    MetricVector { core: 1.0, ins: 2.0, chipshare: 1.0, ..Default::default() }
}

/// True active power of [`bank_busy`] under the calibration-time law.
const BANK_BUSY_W: f64 = 8.0 + 2.0 * 3.0 + 5.6;

proptest! {
    /// Eq. 3 chip shares are in [0, 1] and sum to at most ~1 per chip for
    /// any utilization pattern, on every machine, and each equals the
    /// sum over the core's chip siblings that `MachineSpec` spells out,
    /// bit for bit.
    #[test]
    fn chipshare_bounded_and_conserving(
        spec in prop::sample::select(vec![
            MachineSpec::sandybridge(),
            MachineSpec::woodcrest(),
            MachineSpec::westmere(),
        ]),
        utils in prop::collection::vec(0.0f64..=1.0, 12),
        idle in prop::collection::vec(any::<bool>(), 12),
    ) {
        let cores = spec.total_cores();
        let (utils, idle) = (&utils[..cores], &idle[..cores]);
        let mut board = SampleBoard::new(&spec);
        for (c, &u) in utils.iter().enumerate() {
            board.publish(CoreId(c), u, SimTime::ZERO);
        }
        let mut total = 0.0;
        for (c, &u) in utils.iter().enumerate() {
            let share = board.chipshare(CoreId(c), u, |s| idle[s.0]);
            prop_assert!((0.0..=1.0).contains(&share));
            let mut siblings = 0.0;
            for s in spec.cores_of(spec.chip_of(c)) {
                if s != c && !idle[s] {
                    siblings += utils[s];
                }
            }
            let eq3 = (u / (1.0 + siblings)).clamp(0.0, 1.0);
            prop_assert_eq!(share.to_bits(), eq3.to_bits(), "core {} of {}", c, spec.name);
            total += share;
        }
        // With the idle-sibling correction the shares can over-count only
        // when records are stale; with fresh records they stay ≤ ~1 plus
        // the idle-masking effect.
        let awake: f64 = utils
            .iter()
            .zip(idle)
            .filter(|(_, &i)| !i)
            .map(|(u, _)| *u)
            .sum();
        if awake > 0.0 {
            prop_assert!(total <= cores as f64, "share total {total}");
        }
    }

    /// Model predictions are non-negative and linear in the metrics.
    #[test]
    fn model_nonnegative_and_linear(
        coeffs in prop::collection::vec(0.0f64..20.0, 8),
        metrics in prop::collection::vec(0.0f64..2.0, 8),
        scale in 0.0f64..4.0,
    ) {
        let mut c = [0.0; 8];
        c.copy_from_slice(&coeffs);
        let model = PowerModel::new(ModelKind::WithChipShare, 26.1, c);
        let m = MetricVector::from_slice(&metrics);
        let p1 = model.active_power(&m);
        let p2 = model.active_power(&(m * scale));
        prop_assert!(p1 >= 0.0);
        prop_assert!((p2 - p1 * scale).abs() < 1e-9 * (1.0 + p2));
    }

    /// Container energy bookkeeping conserves attributed energy across
    /// arbitrary bind/attribute/unbind interleavings.
    #[test]
    fn container_energy_conserved(
        ops in prop::collection::vec((0u64..8, 0.0f64..50.0, 0.001f64..0.01), 1..100)
    ) {
        let mut mgr = ContainerManager::new(RecordRetention::Full);
        let mut expected = 0.0;
        for (ctx, watts, dt) in &ops {
            let ctx = ContextId(*ctx);
            mgr.bind(ctx, SimTime::ZERO);
            mgr.attribute(
                Some(ctx),
                *watts,
                1.0,
                *dt,
                &hwsim::CounterBlock::default(),
                SimTime::ZERO,
            );
            expected += watts * dt;
        }
        // Release everything.
        for (ctx, _, _) in &ops {
            mgr.unbind(ContextId(*ctx), SimTime::from_millis(1));
        }
        let live: f64 = mgr.iter_live().map(|(_, c)| c.energy_j()).sum();
        let recorded: f64 = mgr.records().iter().map(|r| r.energy_j).sum();
        prop_assert!(
            (live + recorded - expected).abs() < 1e-9 * (1.0 + expected),
            "live {live} + recorded {recorded} != attributed {expected}"
        );
        prop_assert!((mgr.total_request_energy_j() - expected).abs() < 1e-9 * (1.0 + expected));
    }

    /// TraceRing integrals are additive over adjacent intervals.
    #[test]
    fn trace_integral_additive(
        samples in prop::collection::vec((0u64..20_000_000, 0.0f64..100.0), 1..100),
        cut in 1u64..20,
    ) {
        let mut ring: TraceRing<f64> = TraceRing::new(SimDuration::from_millis(1), 64);
        for (ns, w) in &samples {
            ring.add(SimTime::from_nanos(*ns), *w, SimDuration::from_micros(100));
        }
        let t0 = SimTime::ZERO;
        let tm = SimTime::from_millis(cut);
        let t1 = SimTime::from_millis(40);
        let (full, secs_full) = ring.integral_between(t0, t1);
        let (a, sa) = ring.integral_between(t0, tm);
        let (b, sb) = ring.integral_between(tm, t1);
        prop_assert!((full - (a + b)).abs() < 1e-9 * (1.0 + full.abs()));
        prop_assert!((secs_full - (sa + sb)).abs() < 1e-12 + 1e-9 * secs_full);
    }

    /// The conditioning policy never throttles within-budget requests and
    /// never produces a duty level whose projected power exceeds budget
    /// (modulo the 1/8 hardware floor).
    #[test]
    fn conditioning_respects_budget(
        target in 1.0f64..200.0,
        unthrottled in 0.0f64..100.0,
        busy in 1usize..16,
    ) {
        let policy = ConditioningPolicy::new(target);
        let duty = policy.duty_for(unthrottled, busy, None);
        let budget = policy.per_request_budget_w(busy);
        if unthrottled <= budget {
            prop_assert_eq!(duty, hwsim::DutyCycle::FULL);
        } else {
            let projected = unthrottled * duty.fraction();
            prop_assert!(
                projected <= budget + 1e-9 || duty == hwsim::DutyCycle::MIN,
                "projected {projected} over budget {budget} at duty {duty}"
            );
        }
    }
}

proptest! {
    /// Checkpointing a manager and restoring it into a fresh (post-crash)
    /// incarnation conserves refcounted container state exactly: every
    /// journaled live container is force-released into a record exactly
    /// once (none leaked, none double-freed), already-released records
    /// carry over verbatim, and the cumulative energy totals survive.
    #[test]
    fn checkpoint_restore_conserves_refcounts(
        ops in prop::collection::vec(
            (0u64..6, 1u32..3, 0.0f64..20.0, 0.001f64..0.01, any::<bool>()),
            1..60,
        )
    ) {
        let mut mgr = ContainerManager::new(RecordRetention::Full);
        for (ctx, binds, watts, dt, unbind_one) in &ops {
            let ctx = ContextId(*ctx);
            for _ in 0..*binds {
                mgr.bind(ctx, SimTime::ZERO);
            }
            mgr.attribute(
                Some(ctx),
                *watts,
                1.0,
                *dt,
                &hwsim::CounterBlock::default(),
                SimTime::ZERO,
            );
            if *unbind_one {
                mgr.unbind(ctx, SimTime::from_millis(1));
            }
        }
        let t = SimTime::from_millis(2);
        let cp = mgr.checkpoint(t);
        // The journal is deterministic: same state, same digest.
        prop_assert_eq!(cp.digest(), mgr.checkpoint(t).digest());
        let live_before = mgr.live_count();
        let released_before = mgr.released_count();
        let records_before = mgr.records().len();
        let total_before = mgr.total_request_energy_j();

        let mut fresh = ContainerManager::new(RecordRetention::Full);
        let restored = fresh.restore(&cp, mgr.take_records(), t);
        // Every journaled live container was force-released exactly once.
        prop_assert_eq!(restored as usize, live_before);
        prop_assert_eq!(fresh.live_count(), 0);
        prop_assert_eq!(fresh.released_count(), released_before + live_before as u64);
        prop_assert_eq!(fresh.records().len(), records_before + live_before);
        // Cumulative attribution survives the restart bit-for-bit.
        prop_assert!(
            (fresh.total_request_energy_j() - total_before).abs()
                < 1e-9 * (1.0 + total_before),
            "restored totals {} != checkpointed totals {}",
            fresh.total_request_energy_j(),
            total_before
        );
    }

    /// Refcounts never leak across repeated crash/restart cycles: after
    /// each restore the record ledger and the release counter agree
    /// (every container created was dropped or restored, none
    /// double-freed), and the cumulative energy attributed across the
    /// whole history survives every cycle (the checkpoint is taken at
    /// the crash instant, so the loss window is empty).
    #[test]
    fn crash_cycles_never_leak_containers(
        cycles in prop::collection::vec(
            prop::collection::vec(
                (0u64..8, 0.0f64..10.0, 0.001f64..0.01, any::<bool>()),
                1..20,
            ),
            1..5,
        )
    ) {
        let mut mgr = ContainerManager::new(RecordRetention::Full);
        let mut expected = 0.0;
        let mut now_ms = 1u64;
        for ops in &cycles {
            for (ctx, watts, dt, unbind) in ops {
                let ctx = ContextId(*ctx);
                mgr.bind(ctx, SimTime::from_millis(now_ms));
                mgr.attribute(
                    Some(ctx),
                    *watts,
                    1.0,
                    *dt,
                    &hwsim::CounterBlock::default(),
                    SimTime::from_millis(now_ms),
                );
                expected += watts * dt;
                if *unbind {
                    mgr.unbind(ctx, SimTime::from_millis(now_ms));
                }
                now_ms += 1;
            }
            let cp = mgr.checkpoint(SimTime::from_millis(now_ms));
            let mut fresh = ContainerManager::new(RecordRetention::Full);
            let restored = fresh.restore(&cp, mgr.take_records(), SimTime::from_millis(now_ms));
            prop_assert_eq!(restored as usize, cp.live.len());
            prop_assert_eq!(fresh.live_count(), 0, "all journaled containers resolved");
            prop_assert_eq!(
                fresh.records().len() as u64,
                fresh.released_count(),
                "record ledger and release counter must agree after restore"
            );
            mgr = fresh;
        }
        prop_assert!(
            (mgr.total_request_energy_j() - expected).abs() < 1e-9 * (1.0 + expected),
            "cumulative energy {} must survive every crash/restart cycle (want {})",
            mgr.total_request_energy_j(),
            expected
        );
    }
}

proptest! {
    /// A quarantined slot's fit is never served, no matter what its
    /// window accumulates afterwards: once persistent rejection
    /// quarantines the slot, arbitrary further samples leave the served
    /// model pinned to the bank-wide fallback, and only an accepted
    /// retrain (impossible here — the acceptance screen rejects every
    /// fit) could lift the quarantine.
    #[test]
    fn quarantined_slot_never_serves(
        garbage in prop::collection::vec(0.0f64..500.0, 20..120),
    ) {
        let set = bank_offline_set();
        let initial = set.fit(ModelKind::WithChipShare).unwrap();
        let mut cfg = BankConfig::default();
        cfg.refit_policy.max_condition = 1.0; // every refit rejects
        cfg.drift.quarantine_after = 1;
        let mut bank =
            ModelBank::new(&set, ModelKind::WithChipShare, initial, cfg, BANK_REFIT_EVERY);
        let key = bank.classify(0, 1.0, &bank_busy());
        // Wild residual oscillation trips the CUSUM until the rejected
        // drift retrain quarantines the slot.
        let mut quarantined = false;
        for i in 0..400u64 {
            let w = if i % 2 == 0 { 0.0 } else { 300.0 };
            if bank.observe(key, bank_busy(), w, SimTime::from_millis(1 + i)).quarantined {
                quarantined = true;
                break;
            }
        }
        prop_assert!(quarantined, "persistent rejection must quarantine");
        let masked = PowerModel::mask_metrics(ModelKind::WithChipShare, bank_busy());
        let fallback = bank.current_model().active_power(&masked);
        for (i, w) in garbage.iter().enumerate() {
            bank.observe(key, bank_busy(), *w, SimTime::from_millis(1000 + i as u64));
            prop_assert!(bank.is_quarantined(key), "nothing may lift the quarantine");
            let served = bank.current_model().active_power(&masked);
            prop_assert!(
                (served - fallback).abs() < 1e-9,
                "quarantined window leaked into serving: {served} vs {fallback}"
            );
        }
    }

    /// The bank reconverges after a fault burst clears: an arbitrary
    /// stretch of corrupt meter readings (any length, any values) may
    /// trip drift retrains, rejections, staleness resets, even
    /// quarantine — but once clean readings resume, the served model
    /// returns to within 5% of the true law.
    #[test]
    fn bank_reconverges_after_fault_burst(
        burst in prop::collection::vec(0.0f64..200.0, 10..100),
    ) {
        let set = bank_offline_set();
        let initial = set.fit(ModelKind::WithChipShare).unwrap();
        let mut bank = ModelBank::new(
            &set,
            ModelKind::WithChipShare,
            initial,
            BankConfig::default(),
            BANK_REFIT_EVERY,
        );
        let key = bank.classify(0, 1.0, &bank_busy());
        let mut t = 1u64;
        let mut feed = |bank: &mut ModelBank, w: f64| {
            let now = SimTime::from_millis(t);
            t += 1;
            bank.observe(key, bank_busy(), w, now);
        };
        for _ in 0..50 {
            feed(&mut bank, BANK_BUSY_W);
        }
        for w in &burst {
            feed(&mut bank, *w);
        }
        // Clean readings resume for two window lengths.
        for _ in 0..600 {
            feed(&mut bank, BANK_BUSY_W);
        }
        prop_assert!(!bank.is_quarantined(key), "accepted retrain must restore");
        let masked = PowerModel::mask_metrics(ModelKind::WithChipShare, bank_busy());
        let served = bank.current_model().active_power(&masked);
        prop_assert!(
            (served - BANK_BUSY_W).abs() / BANK_BUSY_W < 0.05,
            "served {served} must reconverge to {BANK_BUSY_W}"
        );
    }
}

proptest! {
    /// Graceful drain vs crash: the elastic autoscaler's scale-in path
    /// journals its final [`ManagerCheckpoint`] at the freeze instant,
    /// so the drain's loss window — `attributed − checkpointed` — is
    /// *exactly* zero for any attribution history; a crash restoring a
    /// stale periodic checkpoint loses exactly the energy attributed
    /// after it, and nothing else.
    #[test]
    fn drain_checkpoint_loses_exactly_zero_energy(
        // (cpu_j, io_j, to_background) attribution steps, one per ms.
        steps in prop::collection::vec(
            (0.0f64..5.0, 0.0f64..1.0, any::<bool>()),
            2..60,
        ),
        // The stale periodic checkpoint sits this many steps before the
        // end — the crash's loss window.
        stale_by in 1usize..40,
    ) {
        use power_containers::ManagerCheckpoint;

        let mut mgr = ContainerManager::new(RecordRetention::Full);
        let events = hwsim::CounterBlock::default();
        let mut stale = ManagerCheckpoint::empty();
        let stale_at = steps.len().saturating_sub(stale_by);
        let mut lost_after_stale = 0.0;
        for (i, &(cpu_j, io_j, bg)) in steps.iter().enumerate() {
            if i == stale_at {
                stale = mgr.checkpoint(SimTime::from_millis(i as u64));
            }
            let now = SimTime::from_millis(1 + i as u64);
            let ctx = if bg { None } else { Some(ContextId(1 + i as u64)) };
            if let Some(c) = ctx {
                mgr.bind(c, now);
            }
            // One 1 ms sample at `cpu_j * 1e3` watts attributes cpu_j.
            mgr.attribute(ctx, cpu_j * 1e3, 1.0, 1e-3, &events, now);
            mgr.attribute_io(ctx, io_j, now);
            if i >= stale_at {
                lost_after_stale += cpu_j * 1e-3 * 1e3 + io_j;
            }
        }
        let live_total = mgr.attributed_energy_j();

        // Graceful drain: checkpoint taken at the freeze instant. Every
        // journaled total is a copy of the live cumulative counter, so
        // each component of the loss window is exactly 0.0 — not merely
        // small. (The aggregate `attributed_energy_j()` sums the same
        // components in a different association order than a live read,
        // so the engine's drain path clamps that sub-nanojoule residue;
        // component-wise the checkpoint is bit-exact.)
        let drain = mgr.checkpoint(SimTime::from_millis(steps.len() as u64));
        prop_assert_eq!(
            drain.total_request_energy_j.to_bits(),
            mgr.total_request_energy_j().to_bits(),
            "clean drain must journal the exact request-energy total"
        );
        prop_assert_eq!(
            drain.total_request_io_energy_j.to_bits(),
            mgr.total_request_io_energy_j().to_bits(),
            "clean drain must journal the exact request-I/O total"
        );
        prop_assert_eq!(
            drain.background_energy_j.to_bits(),
            mgr.background().energy_j().to_bits(),
            "clean drain must journal the exact background energy"
        );
        prop_assert_eq!(
            drain.background_io_energy_j.to_bits(),
            mgr.background().io_energy_j().to_bits(),
            "clean drain must journal the exact background I/O energy"
        );

        // Crash: the stale checkpoint misses exactly the attribution
        // performed after it was taken — a positive loss window
        // whenever any energy landed after the checkpoint.
        let crash_loss = live_total - stale.attributed_energy_j();
        prop_assert!(
            (crash_loss - lost_after_stale).abs() < 1e-9 * (1.0 + lost_after_stale),
            "crash loss window {} must equal post-checkpoint attribution {}",
            crash_loss,
            lost_after_stale
        );
        if lost_after_stale > 0.0 {
            prop_assert!(crash_loss > 0.0, "a crash with post-checkpoint work loses energy");
        }

        // Restoring the drain checkpoint hands the totals to the next
        // incarnation exactly.
        let mut fresh = ContainerManager::new(RecordRetention::Full);
        fresh.restore(&drain, mgr.take_records(), SimTime::from_millis(1 + steps.len() as u64));
        let restored = fresh.attributed_energy_j();
        prop_assert_eq!(
            restored, live_total,
            "restored incarnation must carry the drained node's exact totals"
        );
    }
}

/// Writes `[now − span, now)` slot by slot, as the facility backfills a
/// device's active span at I/O completion.
fn backfill(ring: &mut TraceRing<f64>, now: SimTime, span: SimDuration, watts: f64) {
    let slot = ring.slot().as_nanos();
    let mut t = now - span;
    while t < now {
        let chunk_end = SimTime::from_nanos((t.as_nanos() / slot + 1) * slot).min(now);
        ring.add(chunk_end, watts, chunk_end.duration_since(t));
        t = chunk_end;
    }
}

proptest! {
    /// The ring's remembered window means are bit for bit what fresh
    /// `mean_over_wall` calls return, under the facility's write mix:
    /// samples at the current instant, I/O backfills into older slots,
    /// idle gaps and jumps long enough to evict. Successive series move
    /// by whole steps, by a fraction of a step, or backwards.
    #[test]
    fn remembered_window_means_match_fresh_queries(
        seed in any::<u64>(),
        capacity in 8usize..300,
        width_us in prop::sample::select(vec![400u64, 1_000, 1_500, 3_000, 7_000]),
        step_us in prop::sample::select(vec![250u64, 500, 1_000, 2_000]),
        start_ms in 0u64..3_000,
    ) {
        let mut rng = seed | 1;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut ring: TraceRing<f64> = TraceRing::new(SimDuration::from_millis(1), capacity);
        let (width, step) = (SimDuration::from_micros(width_us), SimDuration::from_micros(step_us));
        let mut now = SimTime::from_millis(start_ms);
        let mut newest = now;
        for _ in 0..160 {
            match next(10) {
                0..=4 => {
                    now += SimDuration::from_micros(next(2_000));
                    let dt = SimDuration::from_micros(1 + next(1_000));
                    ring.add(now, next(50) as f64 + 0.25, dt);
                }
                5 => {
                    let span = SimDuration::from_micros(1 + next(40_000));
                    backfill(&mut ring, now, span, 1.0 + next(7) as f64 * 0.5);
                }
                6 => now += SimDuration::from_millis(next(2 * capacity as u64)),
                _ => {
                    newest = match next(6) {
                        0 => newest + SimDuration::from_micros(next(3 * step_us) + 1),
                        1 => newest - step * next(8),
                        _ => newest + step * next(24),
                    };
                    let count = 1 + next(400) as usize;
                    let series = ring.mean_over_wall_series(newest, width, step, count).to_vec();
                    prop_assert_eq!(series.len(), count);
                    for (j, got) in series.iter().enumerate() {
                        let end = newest - step * j as u64;
                        let want = ring.mean_over_wall(end - width, end);
                        prop_assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "window {} ending {:?}: remembered {:?}, fresh {:?}",
                            j, end, got, want
                        );
                    }
                }
            }
        }
    }
}

/// One manager operation of the checkpoint-contract property:
/// `(kind, ctx, watts, dt, label)`.
type ManagerOp = (u8, u64, f64, f64, u32);

/// Applies `op` at `now`: bind, attribute to a request or to the
/// background, I/O attribution, labelling, or one unbind (a release when
/// the last binding goes).
fn apply_op(mgr: &mut ContainerManager, &(kind, ctx, watts, dt, label): &ManagerOp, now: SimTime) {
    let ctx = ContextId(ctx);
    let events = hwsim::CounterBlock {
        elapsed_cycles: dt * 1e9,
        nonhalt_cycles: dt * 1e9,
        instructions: watts * 1e6,
        ..hwsim::CounterBlock::default()
    };
    match kind {
        0 => mgr.bind(ctx, now),
        1 => mgr.attribute(Some(ctx), watts, 1.0 - (label % 4) as f64 * 0.2, dt, &events, now),
        2 => mgr.attribute(None, watts, 1.0, dt, &events, now),
        3 => mgr.attribute_io(if label % 3 == 0 { None } else { Some(ctx) }, watts * dt, now),
        4 => mgr.set_label(ctx, label, now),
        _ => mgr.unbind(ctx, now),
    }
}

/// Every field of a record, floats by bit pattern.
fn record_bits(r: &power_containers::ContainerRecord) -> [u64; 11] {
    [
        r.ctx.0,
        r.label.map_or(u64::MAX, u64::from),
        r.created_at.as_nanos(),
        r.finished_at.as_nanos(),
        r.energy_j.to_bits(),
        r.io_energy_j.to_bits(),
        r.throttled_j.to_bits(),
        r.busy_seconds.to_bits(),
        r.mean_power_w.to_bits(),
        r.unthrottled_power_w.to_bits(),
        r.mean_duty.to_bits(),
    ]
}

/// The record a restore makes of a container that was live at the
/// checkpoint: its journaled energy, finished at the restart instant.
fn force_released(
    s: &power_containers::ContainerSnapshot,
    now: SimTime,
) -> power_containers::ContainerRecord {
    power_containers::ContainerRecord {
        ctx: s.ctx,
        label: s.label,
        created_at: s.created_at,
        finished_at: now,
        energy_j: s.energy_j,
        io_energy_j: s.io_energy_j,
        throttled_j: s.throttled_j,
        busy_seconds: s.busy_seconds,
        mean_power_w: if s.busy_seconds > 0.0 { s.energy_j / s.busy_seconds } else { 0.0 },
        unthrottled_power_w: 0.0,
        mean_duty: 1.0,
    }
}

/// One live container as a checkpoint prints it: context, refcount,
/// label, energy, I/O energy and busy seconds.
type LiveLine = (u64, u32, Option<u32>, f64, f64, f64);

/// The checkpoint text of a manager with these totals and live
/// containers, written out field by field.
fn digest_reference(
    at: SimTime,
    released: u64,
    records: usize,
    totals: [f64; 4],
    live: &[LiveLine],
) -> String {
    let [req, io, bg, bgio] = totals;
    let mut out = format!(
        "ckpt at={} live={} released={released} records={records} req={req:.9} io={io:.9} \
         bg={bg:.9} bgio={bgio:.9}\n",
        at.as_nanos(),
        live.len(),
    );
    for (ctx, refs, label, e, io, busy) in live {
        out.push_str(&format!(
            "live ctx={ctx} refs={refs} label={} e={e:.9} io={io:.9} busy={busy:.9}\n",
            label.map(i64::from).unwrap_or(-1),
        ));
    }
    out
}

/// A manager's four cumulative totals: request CPU, request I/O,
/// background CPU, background I/O.
fn manager_totals(m: &ContainerManager) -> [f64; 4] {
    [
        m.total_request_energy_j(),
        m.total_request_io_energy_j(),
        m.background().energy_j(),
        m.background().io_energy_j(),
    ]
}

fn manager_op() -> impl Strategy<Value = ManagerOp> {
    (0u8..7, 0u64..10, 0.0f64..40.0, 0.0001f64..0.01, 0u32..9)
}

proptest! {
    /// The journal contract a crash restart relies on. A checkpoint is
    /// taken mid-history, the manager carries on (binding, attributing
    /// and releasing more), and a fresh manager restores the checkpoint
    /// at a later instant. The restored records are the dead manager's
    /// first journaled records followed by one force-released record
    /// per container live at the checkpoint, in context order; its
    /// totals, released count and checkpoint text are the journaled
    /// ones. Everything is compared bit for bit.
    #[test]
    fn restore_matches_journal_reference(
        before in prop::collection::vec(manager_op(), 0..80),
        after in prop::collection::vec(manager_op(), 0..80),
        retain in any::<bool>(),
    ) {
        let retention = if retain { RecordRetention::Full } else { RecordRetention::None };
        let mut mgr = ContainerManager::new(retention);
        let mut now_us = 0u64;
        for op in &before {
            now_us += 137;
            apply_op(&mut mgr, op, SimTime::from_micros(now_us));
        }
        let taken_at = SimTime::from_micros(now_us + 50);
        let cp = mgr.checkpoint(taken_at);
        let journaled = cp.records;

        // The checkpoint is the manager's state at `taken_at`.
        let mut live: Vec<LiveLine> = mgr
            .iter_live()
            .map(|(ctx, c)| {
                (ctx.0, c.refcount(), c.label(), c.energy_j(), c.io_energy_j(), c.busy_seconds())
            })
            .collect();
        live.sort_by_key(|l| l.0);
        let totals = manager_totals(&mgr);
        prop_assert_eq!(journaled, mgr.records().len());
        prop_assert_eq!(cp.released, mgr.released_count());
        prop_assert_eq!(cp.live.len(), mgr.live_count());
        prop_assert_eq!(
            cp.digest(),
            digest_reference(taken_at, mgr.released_count(), journaled, totals, &live)
        );
        let at_checkpoint: Vec<[u64; 11]> = mgr.records().iter().map(record_bits).collect();

        for op in &after {
            now_us += 137;
            apply_op(&mut mgr, op, SimTime::from_micros(now_us));
        }
        // The log only grows: what the checkpoint counted is untouched.
        let dead: Vec<[u64; 11]> = mgr.records().iter().map(record_bits).collect();
        prop_assert_eq!(&dead[..journaled], &at_checkpoint[..]);

        let restart = SimTime::from_micros(now_us + 500);
        let mut fresh = ContainerManager::new(retention);
        let forced = fresh.restore(&cp, mgr.take_records(), restart);
        prop_assert_eq!(forced, cp.live.len() as u64);

        let mut want = dead[..journaled].to_vec();
        if retain {
            want.extend(cp.live.iter().map(|s| record_bits(&force_released(s, restart))));
        }
        let got: Vec<[u64; 11]> = fresh.records().iter().map(record_bits).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(fresh.live_count(), 0);
        prop_assert_eq!(fresh.released_count(), cp.released + cp.live.len() as u64);
        prop_assert_eq!(
            manager_totals(&fresh).map(f64::to_bits),
            totals.map(f64::to_bits)
        );
        let again = SimTime::from_micros(now_us + 900);
        prop_assert_eq!(
            fresh.checkpoint(again).digest(),
            digest_reference(
                again,
                cp.released + cp.live.len() as u64,
                fresh.records().len(),
                totals,
                &[],
            )
        );
    }
}

/// A manager's log as (context, joules) pairs, joules by bit pattern,
/// read through the accessor that serves every layout.
fn logged_energy(m: &ContainerManager) -> Vec<(u64, u64)> {
    m.log().request_energies().map(|e| (e.ctx.0, e.joules.to_bits())).collect()
}

/// The pairs a per-request-energy log must hold for a manager's full
/// records, summed here from each record's two fields.
fn full_record_energy(m: &ContainerManager) -> Vec<(u64, u64)> {
    m.records().iter().map(|r| (r.ctx.0, (r.energy_j + r.io_energy_j).to_bits())).collect()
}

proptest! {
    /// The two layouts of the record log against each other. A
    /// full-retention manager and a per-request-energy manager live
    /// through the same random history, are checkpointed mid-history,
    /// carry on, and are each restored into a fresh manager. At every
    /// stage entry *i* of the compact log is `(r.ctx, r.energy_j +
    /// r.io_energy_j)` of full record *i*, bit for bit, and the totals,
    /// released counts and checkpoint text are the same.
    #[test]
    fn request_energy_log_matches_full_records(
        before in prop::collection::vec(manager_op(), 0..80),
        after in prop::collection::vec(manager_op(), 0..80),
    ) {
        let retentions = [RecordRetention::Full, RecordRetention::RequestEnergy];
        let mut mgrs = retentions.map(ContainerManager::new);
        let mut now_us = 0u64;
        for op in &before {
            now_us += 137;
            for m in &mut mgrs {
                apply_op(m, op, SimTime::from_micros(now_us));
            }
        }
        let taken_at = SimTime::from_micros(now_us + 50);
        let [full_cp, compact_cp] = [&mgrs[0], &mgrs[1]].map(|m| m.checkpoint(taken_at));
        prop_assert_eq!(full_cp.digest(), compact_cp.digest());
        prop_assert_eq!(&full_cp, &compact_cp);
        prop_assert!(mgrs[1].records().is_empty(), "the compact manager keeps no full record");
        prop_assert_eq!(logged_energy(&mgrs[1]), full_record_energy(&mgrs[0]));

        for op in &after {
            now_us += 137;
            for m in &mut mgrs {
                apply_op(m, op, SimTime::from_micros(now_us));
            }
        }
        prop_assert_eq!(logged_energy(&mgrs[1]), full_record_energy(&mgrs[0]));
        prop_assert_eq!(logged_energy(&mgrs[0]), full_record_energy(&mgrs[0]));

        let restart = SimTime::from_micros(now_us + 500);
        let mut fresh = retentions.map(ContainerManager::new);
        let mut forced = [0u64; 2];
        for (i, cp) in [&full_cp, &compact_cp].into_iter().enumerate() {
            forced[i] = fresh[i].restore(cp, mgrs[i].take_records(), restart);
        }
        prop_assert_eq!(forced[0], forced[1]);
        prop_assert_eq!(fresh[1].log().retention(), RecordRetention::RequestEnergy);
        prop_assert_eq!(fresh[0].records().len(), fresh[1].log().len());
        prop_assert_eq!(logged_energy(&fresh[1]), full_record_energy(&fresh[0]));
        prop_assert_eq!(fresh[0].released_count(), fresh[1].released_count());
        prop_assert_eq!(fresh[0].live_count(), fresh[1].live_count());
        prop_assert_eq!(
            manager_totals(&fresh[0]).map(f64::to_bits),
            manager_totals(&fresh[1]).map(f64::to_bits)
        );
        let again = SimTime::from_micros(now_us + 900);
        prop_assert_eq!(fresh[0].checkpoint(again).digest(), fresh[1].checkpoint(again).digest());
    }
}
