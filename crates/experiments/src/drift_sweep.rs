//! Drift study: the self-calibrating model bank under a ladder of
//! regime shifts.
//!
//! The paper's online recalibration (§3.2) keeps one rolling model per
//! node. That model is only as good as its recent window: the moment the
//! operating regime shifts — a DVFS step the counters cannot see, a
//! rolling hardware upgrade that changes the silicon's power law, a
//! workload phase flip into power-virus territory — the window mixes two
//! regimes and every refit splits the difference. The
//! [`power_containers::ModelBank`] answers with one model per regime
//! (machine generation × DVFS level × workload-mix bucket), CUSUM drift
//! detection, error-driven retraining and hysteresis slot switching.
//!
//! This experiment proves the bank out on a seeded ladder of regime
//! shifts. Every rung runs twice from the same seed — single rolling
//! model vs model bank — while the harness steps the run in 100 ms
//! buckets and records the attribution error (attributed vs true active
//! energy) per bucket. The acceptance bar: after **every** shift the
//! bank's error returns to within 1.2× its steady-state level inside a
//! bounded window, while the single-model baseline's post-shift error
//! stays diverged (above that bound on average). Rungs are independent
//! seeded simulations fanned out across [`RunCtx::jobs`] workers;
//! records and traces carry only simulated timestamps, so results are
//! byte-identical at any `--jobs` count.

use crate::output::{banner, pct, Table};
use crate::runner::RunCtx;
use crate::{Lab, Scale};
use hwsim::{ChipId, FaultConfig, FreqScale, GroundTruthPower};
use power_containers::{Approach, BankConfig};
use serde::Serialize;
use simkern::{SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;
use workloads::{
    prepare_app, spawn_driver, CtxAlloc, DriverEnv, LoadLevel, PreparedRun, RunConfig,
    WorkloadKind, POWER_VIRUS_LABEL,
};

/// Accuracy-curve bucket width, milliseconds.
pub const BUCKET_MS: u64 = 100;

/// Buckets allowed from a shift edge until the error must be back under
/// the recovery bound (next-edge-limited for fast square waves).
pub const RECOVERY_BUCKETS: usize = 8;

/// Recovered means: error ≤ `RECOVERY_FACTOR` × steady-state error.
pub const RECOVERY_FACTOR: f64 = 1.2;

/// Absolute floor under the recovery bound: per-bucket attribution noise
/// (request granularity, 1 ms sampling skew) makes tighter bounds
/// meaningless.
pub const ERR_FLOOR: f64 = 0.05;

/// Per-bucket errors are normalized by the cell's *mean* per-bucket true
/// active energy, not each bucket's own. Local normalization makes
/// quiet buckets spiky and — worse — deflates the error of a diverged
/// model during high-power phases (a power-virus bucket has a huge
/// denominator), hiding exactly the divergence this sweep measures.
///
/// The baseline counts as diverged when its post-shift mean error is at
/// least this factor above the bank's on the same rung. Head-to-head
/// beats an absolute bound here: the two cells share a seed and an
/// arrival stream, so every noise source cancels and the ratio isolates
/// what the metering engine itself contributes.
pub const DIVERGE_FACTOR: f64 = 1.5;

/// The generation rank the synthetic next-gen silicon reports (base
/// SandyBridge is rank 0; 1 and 2 belong to the real older presets).
const NEXTGEN_RANK: u32 = 3;

/// One rung of the drift ladder: which regime shifts it exercises.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DriftScenario {
    /// Rung name (also the trace stem).
    pub name: &'static str,
    /// Recurring DVFS square wave (nominal ↔ 0.6) the counters cannot
    /// see — the superlinear `FreqScale::power_factor` breaks the
    /// counter-linear model.
    pub dvfs: bool,
    /// Rolling generation upgrade: the hidden ground-truth power law is
    /// swapped for next-gen silicon mid-run, rolled back, and swapped
    /// again.
    pub generation: bool,
    /// Workload phase flips: a second driver toggles between normal
    /// reads and power viruses, moving the memory-mix bucket — with the
    /// governor's thermal-throttle response riding along (virus phases
    /// run power-capped at 0.6× frequency, which the counters cannot
    /// see).
    pub phase: bool,
    /// PR-1 meter faults riding along (5% wall-meter dropout).
    pub meter_faults: bool,
}

impl DriftScenario {
    /// `true` when the rung shifts regime at all (the control rung
    /// does not).
    pub fn shifting(&self) -> bool {
        self.dvfs || self.generation || self.phase
    }
}

/// The canonical drift ladder, in escalating order. Both scales run the
/// same rungs; `Quick` only shortens them.
pub const SCENARIOS: &[DriftScenario] = &[
    DriftScenario { name: "steady", dvfs: false, generation: false, phase: false, meter_faults: false },
    DriftScenario { name: "dvfs-square", dvfs: true, generation: false, phase: false, meter_faults: false },
    DriftScenario { name: "gen-rolling", dvfs: false, generation: true, phase: false, meter_faults: false },
    DriftScenario { name: "phase-flip", dvfs: false, generation: false, phase: true, meter_faults: false },
    DriftScenario { name: "chaos-combined", dvfs: true, generation: true, phase: false, meter_faults: true },
];

/// One mid-run regime shift.
#[derive(Debug, Clone, Copy)]
enum Shift {
    /// Step every chip to this frequency fraction.
    Freq(f64),
    /// Swap the hidden ground-truth power law (`true` = next-gen).
    Truth(bool),
    /// Toggle the second driver's virus phase.
    Phase(bool),
}

/// Synthetic next-generation SandyBridge: a die shrink with much
/// cheaper cores and a stronger co-activity (turbo) term. Counters are
/// unchanged, so a model trained on the old silicon misattributes until
/// it retrains.
fn nextgen_truth() -> GroundTruthPower {
    let mut t = GroundTruthPower::sandybridge();
    t.pkg_idle_w *= 0.7;
    t.core_w *= 0.50;
    t.ins_w *= 0.60;
    t.cache_w *= 0.60;
    t.mem_w *= 0.70;
    t.coact_w *= 1.8;
    t
}

/// The rung's shift schedule as `(bucket, shift)` pairs, sorted by
/// bucket. Shifts start at the quarter mark so every cell has a clean
/// steady-state reference window first, then **recur** as square waves:
/// a one-off shift lets the single model quietly re-adapt between
/// edges, while recurring shifts — the realistic shape of governor
/// activity, rolling upgrades and phase-alternating workloads — keep
/// its rolling window permanently contaminated. The bank, holding one
/// slot per regime, is indifferent to the recurrence rate.
fn schedule(sc: &DriftScenario, buckets: usize) -> Vec<(usize, Shift)> {
    let first = buckets / 4;
    // Fixed 0.5 s edge period at every scale: the single model's
    // re-adaptation time is a wall-clock property (rolling window ÷
    // sampling rate), so scaling the period with the run length would
    // quietly hand it recovery room at full scale.
    let step = (500 / BUCKET_MS).max(2) as usize;
    let mut ev: Vec<(usize, Shift)> = Vec::new();
    if sc.dvfs {
        // Deep square wave (nominal ↔ 0.6): the superlinear
        // `FreqScale::power_factor` is far off counter-linear there.
        let mut slow = true;
        let mut b = first;
        while b + 2 < buckets {
            ev.push((b, Shift::Freq(if slow { 0.6 } else { 1.0 })));
            slow = !slow;
            b += step;
        }
    }
    if sc.generation {
        // Rolling upgrade and rollback at twice the DVFS period.
        let mut next = true;
        let mut b = first;
        while b + 2 < buckets {
            ev.push((b, Shift::Truth(next)));
            next = !next;
            b += 2 * step;
        }
    }
    if sc.phase {
        // The governor's thermal-throttle response arrives with the
        // phase: virus phases run power-capped.
        let mut on = true;
        let mut b = first;
        while b + 2 < buckets {
            ev.push((b, Shift::Phase(on)));
            ev.push((b, Shift::Freq(if on { 0.6 } else { 1.0 })));
            on = !on;
            b += step;
        }
    }
    ev.sort_by_key(|e| e.0);
    ev
}

/// Applies one shift to the prepared run.
fn apply(prepared: &mut PreparedRun, shift: Shift, phase: &Rc<Cell<bool>>) {
    match shift {
        Shift::Freq(fr) => {
            let point = FreqScale::new(fr).expect("ladder frequencies are in [0.5, 1.0]");
            let chips = prepared.kernel.machine().spec().chips;
            for chip in 0..chips {
                prepared.kernel.machine_mut().set_chip_freq(ChipId(chip), point);
            }
        }
        Shift::Truth(next) => {
            let (truth, rank) = if next {
                (nextgen_truth(), NEXTGEN_RANK)
            } else {
                (GroundTruthPower::sandybridge(), 0)
            };
            prepared.kernel.machine_mut().swap_truth(truth, rank);
        }
        Shift::Phase(on) => phase.set(on),
    }
}

/// One (rung × metering engine) cell.
#[derive(Debug, Clone, Serialize)]
pub struct DriftCell {
    /// Rung name.
    pub scenario: String,
    /// `true` = model bank, `false` = single rolling model.
    pub banked: bool,
    /// Mean per-bucket attribution error over the pre-shift steady
    /// window.
    pub steady_err: f64,
    /// Mean per-bucket attribution error over everything after the
    /// first shift (equals the steady tail on the control rung).
    pub post_err: f64,
    /// The recovery bound this cell was held to (shared across the
    /// rung's two cells; filled in by [`apply_bound`]).
    pub bound: f64,
    /// Shift-edge times, simulated seconds.
    pub edges: Vec<f64>,
    /// Shift-edge bucket indices into `err_curve`.
    pub edge_buckets: Vec<usize>,
    /// Per edge: buckets until the error was back under the bound,
    /// `None` if it never was before the next edge (or window end).
    /// Filled in by [`apply_bound`].
    pub recovery_buckets: Vec<Option<usize>>,
    /// Every edge recovered within [`RECOVERY_BUCKETS`].
    pub recovered_all: bool,
    /// The full accuracy-over-time curve (per-bucket relative error).
    pub err_curve: Vec<f64>,
    /// Drift detections (CUSUM trips) the facility logged.
    pub drift_events: u64,
    /// Bank slot switches.
    pub model_switches: u64,
    /// Slots quarantined.
    pub quarantines: u64,
    /// Refits the acceptance screen rejected.
    pub refits_rejected: u64,
    /// Staleness resets (rolling window discarded).
    pub stale_resets: u64,
    /// Hardware faults the machine injected.
    pub faults_injected: u64,
    /// Requests completed.
    pub completions: usize,
}

/// One rung: the single-model and banked cells side by side.
#[derive(Debug, Clone, Serialize)]
pub struct DriftRungRow {
    /// Rung name.
    pub scenario: String,
    /// Number of shift edges in the rung.
    pub shifts: usize,
    /// Single rolling-model baseline.
    pub single: DriftCell,
    /// Model-bank cell.
    pub bank: DriftCell,
    /// The bank recovered within bound after every shift.
    pub bank_recovered: bool,
    /// The baseline stayed diverged: its post-shift mean error is at
    /// least [`DIVERGE_FACTOR`] × the bank's.
    pub single_diverged: bool,
}

/// The sweep record.
#[derive(Debug, Clone, Serialize)]
pub struct DriftSweep {
    /// All rungs, in canonical ladder order.
    pub rows: Vec<DriftRungRow>,
    /// Every shifting rung's bank recovered after every edge.
    pub bank_recovered_all: bool,
    /// Every shifting rung's baseline stayed diverged post-shift.
    pub single_stayed_diverged: bool,
    /// On the control rung the bank's steady error stays comparable to
    /// the single model's (the bank costs nothing when nothing drifts).
    pub bank_steady_ok: bool,
}

/// Simulated seconds per cell. `Quick` is longer than the usual 4 s
/// smoke scale: the steady-state reference window needs ~10 buckets for
/// a stable recovery bound.
fn cell_secs(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 12,
        Scale::Quick => 6,
    }
}

/// Deterministic rung-name hash (FNV-1a) for per-rung seeding.
fn fxhash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Builds one cell's run config (shared with the test suites, so the CI
/// smoke cell is exactly a sweep cell). The single and banked variants
/// of a rung share a seed: identical arrival streams, only the metering
/// engine differs.
pub fn cell_config(ctx: &RunCtx, scenario: &DriftScenario, banked: bool) -> RunConfig {
    let mut cfg = RunConfig::new(hwsim::MachineSpec::sandybridge());
    cfg.sched = ctx.sched.clone();
    cfg.approach = Approach::Recalibrated;
    cfg.load = LoadLevel::Half;
    cfg.duration = SimDuration::from_secs(cell_secs(ctx.scale));
    cfg.seed = crate::SEED ^ fxhash(scenario.name);
    if banked {
        cfg.model_bank = Some(BankConfig::default());
    }
    if scenario.meter_faults {
        cfg.faults = FaultConfig { seed: 0xD21F7, meter_dropout: 0.05, ..FaultConfig::none() };
    }
    cfg
}

/// Runs one (rung × engine) cell: steps the kernel in [`BUCKET_MS`]
/// buckets, applies the rung's shifts at bucket boundaries, and records
/// the per-bucket attribution error. Shared with the CI smoke test.
pub fn run_cell(
    ctx: &RunCtx,
    scenario: &DriftScenario,
    banked: bool,
    cal: &workloads::MachineCalibration,
) -> DriftCell {
    let mut cfg = cell_config(ctx, scenario, banked);
    cfg.telemetry = ctx.trace_handle();
    let buckets = (cell_secs(ctx.scale) * 1000 / BUCKET_MS) as usize;
    let mut prepared = prepare_app(Rc::from(WorkloadKind::GaeVosao.app()), &cfg, cal);

    // The phase driver runs for the whole cell at a constant rate; only
    // its request *type* flips (normal reads ↔ power viruses), so the
    // arrival stream — and with it the byte-identical determinism — is
    // independent of the phase schedule. The gap keeps viruses mostly
    // non-overlapping: stacked viruses saturate the co-activity term
    // into territory *no* linear model spans, which would measure
    // model-class mismatch instead of drift.
    let phase = Rc::new(Cell::new(false));
    if scenario.phase {
        let p = Rc::clone(&phase);
        spawn_driver(
            &mut prepared.kernel,
            DriverEnv {
                inboxes: prepared.inboxes.clone(),
                mean_gap: SimDuration::from_millis(400),
                pick_label: Box::new(move |_| if p.get() { POWER_VIRUS_LABEL } else { 0 }),
                stats: Rc::clone(&prepared.stats),
                facility: Some(Rc::clone(&prepared.facility)),
                ctxs: CtxAlloc::new(1_000_000_000),
                max_requests: None,
                start_after: SimDuration::ZERO,
            },
        );
    }

    let sched = schedule(scenario, buckets);
    let mut edge_buckets: Vec<usize> = sched.iter().map(|e| e.0).collect();
    edge_buckets.dedup();

    let mut deltas: Vec<(f64, f64)> = Vec::with_capacity(buckets);
    let (mut last_true, mut last_attr) = (0.0_f64, 0.0_f64);
    let mut si = 0;
    for b in 0..buckets {
        while si < sched.len() && sched[si].0 == b {
            apply(&mut prepared, sched[si].1, &phase);
            si += 1;
        }
        let t = SimTime::ZERO + SimDuration::from_millis(BUCKET_MS * (b as u64 + 1));
        prepared.kernel.run_until(t);
        let te = prepared.kernel.machine().true_active_energy_j();
        // Everything attributed so far: the cumulative series the
        // per-bucket accuracy curve differentiates.
        let ae = prepared.facility.borrow().containers().attributed_energy_j();
        deltas.push((ae - last_attr, te - last_true));
        (last_true, last_attr) = (te, ae);
    }
    let outcome = prepared.finish();
    ctx.write_trace(
        "drift_sweep",
        &format!(
            "{}-{}",
            crate::runner::slug(scenario.name),
            if banked { "bank" } else { "single" }
        ),
        &cfg.telemetry,
    );

    // Per-bucket error, normalized by the cell's mean true delta (see
    // the note next to [`ERR_FLOOR`] for why not each bucket's own).
    let mean_dt = deltas.iter().map(|d| d.1).sum::<f64>() / buckets.max(1) as f64;
    let errs: Vec<f64> = deltas
        .iter()
        .map(|&(da, dt)| if mean_dt > 1e-9 { (da - dt).abs() / mean_dt } else { 0.0 })
        .collect();

    // Steady window: after model warm-up, before the first shift.
    let first = edge_buckets.first().copied().unwrap_or(buckets);
    let warm = (first / 3).max(2).min(first);
    let mean = |r: &[f64]| {
        if r.is_empty() { 0.0 } else { r.iter().sum::<f64>() / r.len() as f64 }
    };
    let steady_err =
        if warm < first { mean(&errs[warm..first]) } else { mean(&errs[..first.max(1)]) };
    let post_err = if first < buckets { mean(&errs[first..]) } else { steady_err };

    let degrade = outcome.degrade_stats();
    let completions = outcome.stats.borrow().completions().len();
    DriftCell {
        scenario: scenario.name.to_string(),
        banked,
        steady_err,
        post_err,
        bound: 0.0,
        edges: edge_buckets.iter().map(|&b| b as f64 * BUCKET_MS as f64 / 1e3).collect(),
        edge_buckets,
        recovery_buckets: Vec::new(),
        recovered_all: false,
        err_curve: errs,
        drift_events: degrade.drift_events,
        model_switches: degrade.model_switches,
        quarantines: degrade.models_quarantined,
        refits_rejected: degrade.refits_rejected,
        stale_resets: degrade.stale_model_resets,
        faults_injected: outcome.fault_counts().iter().sum(),
        completions,
    }
}

/// Grades a cell against the rung's shared recovery bound: per edge,
/// the first bucket at or after the edge back under the bound, searched
/// up to the next edge (fast square waves) or the recovery budget,
/// whichever is shorter. Both cells of a rung are graded against the
/// same bound so "the bank recovers, the baseline does not" is a
/// statement about the models, not about two different yardsticks.
pub fn apply_bound(cell: &mut DriftCell, bound: f64) {
    let buckets = cell.err_curve.len();
    cell.bound = bound;
    cell.recovery_buckets = cell
        .edge_buckets
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            let window_end = cell
                .edge_buckets
                .get(i + 1)
                .copied()
                .unwrap_or(buckets)
                .min(e + RECOVERY_BUCKETS + 1)
                .min(buckets);
            (e..window_end).position(|b| cell.err_curve[b] <= bound)
        })
        .collect();
    cell.recovered_all = cell.recovery_buckets.iter().all(Option::is_some);
}

/// Runs the ladder and prints the grid.
pub fn run(ctx: &RunCtx) -> DriftSweep {
    banner("drift-sweep", "model bank vs single model across a regime-shift ladder");
    let mut lab = Lab::new(ctx);
    let cal = lab.calibration("sandybridge");

    // Every (rung × engine) pair is an independent seeded simulation.
    let tasks: Vec<_> = SCENARIOS
        .iter()
        .flat_map(|sc| [(sc, false), (sc, true)])
        .map(|(sc, banked)| {
            let cal = cal.clone();
            move || run_cell(ctx, sc, banked, &cal)
        })
        .collect();
    let cells: Vec<DriftCell> = crate::runner::run_parallel(ctx.jobs, tasks)
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("drift-sweep cell failed: {e}"));

    let rows: Vec<DriftRungRow> = SCENARIOS
        .iter()
        .zip(cells.chunks_exact(2))
        .map(|(sc, pair)| {
            let (mut single, mut bank) = (pair[0].clone(), pair[1].clone());
            // Shared bound from the pooled pre-shift steady error: both
            // engines see identical arrivals until the first shift, so
            // pooling halves the estimator noise without favoring either.
            let steady = 0.5 * (single.steady_err + bank.steady_err);
            let bound = (RECOVERY_FACTOR * steady).max(ERR_FLOOR);
            apply_bound(&mut single, bound);
            apply_bound(&mut bank, bound);
            let bank_recovered = bank.recovered_all;
            let single_diverged =
                !sc.shifting() || single.post_err >= DIVERGE_FACTOR * bank.post_err;
            DriftRungRow {
                scenario: sc.name.to_string(),
                shifts: single.edges.len(),
                single,
                bank,
                bank_recovered,
                single_diverged,
            }
        })
        .collect();

    let mut table = Table::new([
        "scenario", "shifts", "steady 1m/bank", "post 1m/bank", "bank recovery", "1m diverged",
        "bank det/sw/q",
    ]);
    for r in &rows {
        let worst = r
            .bank
            .recovery_buckets
            .iter()
            .map(|o| o.map_or("x".to_string(), |n| n.to_string()))
            .collect::<Vec<_>>()
            .join(",");
        table.row([
            r.scenario.clone(),
            r.shifts.to_string(),
            format!("{} / {}", pct(r.single.steady_err), pct(r.bank.steady_err)),
            format!("{} / {}", pct(r.single.post_err), pct(r.bank.post_err)),
            if r.shifts == 0 { "-".to_string() } else { format!("[{worst}] buckets") },
            if r.shifts == 0 {
                "-".to_string()
            } else if r.single_diverged {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
            format!(
                "{}/{}/{}",
                r.bank.drift_events, r.bank.model_switches, r.bank.quarantines
            ),
        ]);
    }
    println!("{table}");

    let bank_recovered_all = rows.iter().all(|r| r.bank_recovered);
    let single_stayed_diverged = rows.iter().all(|r| r.single_diverged);
    let bank_steady_ok = rows
        .iter()
        .find(|r| r.shifts == 0)
        .is_none_or(|r| r.bank.steady_err <= (r.single.steady_err * 1.5).max(ERR_FLOOR));
    println!(
        "bank recovery (≤{RECOVERY_BUCKETS} buckets, {RECOVERY_FACTOR}x steady): {} | \
         single-model divergence: {} | steady overhead: {}",
        if bank_recovered_all { "HELD" } else { "MISSED" },
        if single_stayed_diverged { "DIVERGED (as expected)" } else { "RECOVERED (unexpected)" },
        if bank_steady_ok { "NONE" } else { "REGRESSED" },
    );
    // Written before the acceptance asserts: a failed run still dumps
    // its full error curves for post-mortem inspection.
    let record = DriftSweep { rows, bank_recovered_all, single_stayed_diverged, bank_steady_ok };
    ctx.write_record("drift_sweep", &record);
    assert!(bank_recovered_all, "model bank failed to recover after a regime shift");
    assert!(
        single_stayed_diverged,
        "single-model baseline unexpectedly matched the bank — the ladder is not shifting regimes"
    );
    assert!(bank_steady_ok, "model bank regressed steady-state accuracy");
    record
}
