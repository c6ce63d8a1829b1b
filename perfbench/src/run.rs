//! One benchmark run: set-up, the measured simulations, their checks,
//! and the metrics they yield.

use crate::check::{check, digest, recorded_digest, SimMetrics, Totals};
use crate::trace::Tracer;
use crate::workload::{episode_seed, simulate, Lab, Workload, EPISODES};
use crate::{layers, median, timed};
use cluster::{offered_cluster_rate, ClusterConfig, ClusterOutcome, ObsConfig};
use serde_json::Value;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workloads::MachineCalibration;

/// What one run measures.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: every episode's arrivals, node streams and fault
    /// schedules derive from it.
    pub seed: u64,
    /// Host seconds of measured simulations; every episode runs at least
    /// once, and every timing episode at least once, whatever this says.
    pub seconds: f64,
    /// Requests each episode offers ([`Workload::requests`] for a
    /// full-length run, the only length with recorded digests).
    pub requests: f64,
}

/// Share of a full-length episode's requests that a timing episode
/// offers: short enough that a run repeats each timing episode many times.
const TIMING_SHARE: f64 = 0.125;
/// Least set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Host seconds of measurement between two set-ups.
const SETUP_EVERY_S: f64 = 5.0;
/// Requests offered by the telemetry probe: short enough that a
/// recording sink holds every event in memory.
const TELEMETRY_REQUESTS: f64 = 10_000.0;

/// A run's verdict and its metrics as (name, unit, value).
#[derive(Debug)]
pub struct Report {
    /// Every simulated outcome passed its checks.
    pub correct: bool,
    /// Simulations run and checks made.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// The metrics, by name and unit.
    pub metrics: Vec<(String, &'static str, f64)>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let m = Value::Object(vec![
                    ("value".into(), Value::Float(*value)),
                    ("unit".into(), Value::Str(unit.to_string())),
                ]);
                (name.clone(), m)
            })
            .collect();
        let report = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&report).expect("reports serialize")
    }
}

fn put(m: &mut Vec<(String, &'static str, f64)>, name: impl Into<String>, unit: &'static str, v: f64) {
    m.push((name.into(), unit, v));
}

/// Checks every simulated outcome of one run and counts the failures.
/// Slots `0..EPISODES` are the full-length episodes, the slots after them
/// the timing episodes.
struct Verifier {
    opts: Options,
    /// Digest of each slot's first passing outcome.
    digests: [Option<u64>; 2 * EPISODES],
    /// Totals over each full-length episode's first passing outcome.
    totals: Totals,
    /// Mean response time of each full-length episode's first passing
    /// outcome, ms.
    resp_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Verifier {
    fn new(opts: &Options) -> Verifier {
        Verifier { opts: *opts, digests: [None; 2 * EPISODES], totals: Totals::default(), resp_ms: Vec::new(), attempted: 0, failed: 0 }
    }

    /// Counts one check; a failure is reported on standard error.
    fn tally(&mut self, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(e) = &verdict {
            eprintln!("perfbench: check failed: {e}");
            self.failed += 1;
        }
        verdict.is_ok()
    }

    /// Checks conservation and, for a `slot`, that the digest equals the
    /// slot's first passing outcome's and the recorded one. `None` stands
    /// for a simulation that panicked.
    fn accept(&mut self, slot: Option<usize>, outcome: Option<&ClusterOutcome>) -> bool {
        let verdict = match outcome {
            None => Err("the simulation panicked".to_string()),
            Some(o) => check(o, self.opts.workload.energy_tol()).and_then(|()| match slot {
                Some(slot) => self.pin(slot, o),
                None => Ok(()),
            }),
        };
        self.tally(verdict)
    }

    fn pin(&mut self, slot: usize, o: &ClusterOutcome) -> Result<(), String> {
        let d = digest(o);
        let full_length = slot < EPISODES && self.opts.requests == self.opts.workload.requests();
        let recorded = full_length.then(|| recorded_digest(self.opts.workload, self.opts.seed, slot)).flatten();
        match self.digests[slot].or(recorded) {
            Some(want) if want != d => {
                Err(format!("slot {slot} outcome digest {d:#018x}, expected {want:#018x}"))
            }
            _ => {
                if self.digests[slot].is_none() {
                    self.digests[slot] = Some(d);
                    if slot < EPISODES {
                        self.totals.add(o);
                        self.resp_ms.push(SimMetrics::of(o).resp_mean_ms);
                    }
                }
                Ok(())
            }
        }
    }

    /// No check failed and every slot below `slots` passed once.
    fn correct(&self, slots: usize) -> bool {
        self.failed == 0 && self.digests[..slots].iter().all(Option::is_some)
    }

    fn report(&self, slots: usize, metrics: Vec<(String, &'static str, f64)>) -> Report {
        Report { correct: self.correct(slots), attempted: self.attempted, failed: self.failed, metrics }
    }
}

fn simulate_caught(cfg: &ClusterConfig, cals: &[MachineCalibration]) -> Option<ClusterOutcome> {
    catch_unwind(AssertUnwindSafe(|| simulate(cfg, cals))).ok()
}

/// Calibrates every generation and builds each episode's configuration.
fn set_up(opts: &Options, tracer: &mut Tracer) -> (Lab, Vec<ClusterConfig>) {
    let lab = Lab::calibrate(tracer);
    let cfgs = (0..EPISODES)
        .map(|ep| opts.workload.config(episode_seed(opts.seed, ep), opts.requests))
        .collect();
    (lab, cfgs)
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set. Where the kernel refuses, the peak stays the process's.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: every full-length episode once, for the fidelity
/// metrics, then the timing episodes in turn until `opts.seconds` are up
/// (each at least once), with set-ups in between; reports every
/// end-to-end metric. The first set-up is timed from `process_start`.
pub fn untraced(opts: &Options, process_start: Instant) -> Report {
    let mut tracer = Tracer::new(false);
    let (lab, cfgs) = set_up(opts, &mut tracer);
    let mut setup_s = vec![process_start.elapsed().as_secs_f64()];
    let timing: Vec<ClusterConfig> = (0..EPISODES)
        .map(|ep| opts.workload.config(episode_seed(opts.seed, ep), opts.requests * TIMING_SHARE))
        .collect();
    let cals = lab.for_config(&cfgs[0]);
    let mut set_up_again = |setup_s: &mut Vec<f64>| {
        let (again, secs) = timed(|| set_up(opts, &mut tracer));
        black_box(again);
        setup_s.push(secs);
    };

    // Host speed on shared machines switches between a fast and a slow
    // phase (up to 2x slower) that lasts from seconds to minutes. The
    // timing episodes are short, so each repeats across many phases, and
    // throughput is one timing pass's offered requests over the sum of
    // each timing episode's fastest host seconds: the run's best phase,
    // whatever phase the rest of it met. Set-ups are spread across the
    // run so that their median sees the drift too.
    let mut v = Verifier::new(opts);
    let mut best_s = [f64::INFINITY; EPISODES];
    let mut episode_rss_mb = Vec::new();
    let mut offered = [0u64; EPISODES];
    let t0 = Instant::now();
    let mut last_setup = t0;
    let mut sims = 0;
    while sims < 2 * EPISODES || t0.elapsed().as_secs_f64() < opts.seconds {
        if last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            set_up_again(&mut setup_s);
            last_setup = Instant::now();
        }
        if sims < EPISODES {
            reset_peak_rss();
            let o = simulate_caught(&cfgs[sims], &cals);
            episode_rss_mb.push(peak_rss_mb());
            v.accept(Some(sims), o.as_ref());
        } else {
            let ep = sims % EPISODES;
            let (o, secs) = timed(|| simulate_caught(&timing[ep], &cals));
            if v.accept(Some(EPISODES + ep), o.as_ref()) {
                offered[ep] = o.map_or(0, |o| o.dispatched);
                best_s[ep] = best_s[ep].min(secs);
            }
        }
        sims += 1;
    }
    while setup_s.len() < MIN_SETUPS {
        set_up_again(&mut setup_s);
    }
    let pass_s: f64 = best_s.iter().sum();

    let sim = v.totals.metrics();
    let digests: Vec<String> =
        v.digests.iter().map(|d| d.map_or("failed".into(), |d| format!("{d:#018x}"))).collect();
    println!(
        "perfbench {} seed {}: {EPISODES} episodes of {} simulated s, then {} simulations of \
         {EPISODES} timing episodes of {} simulated s; digests {}; fail_frac {} (reported as \
         ok_frac = 1 - fail_frac)",
        opts.workload.name(),
        opts.seed,
        cfgs[0].duration.as_secs_f64(),
        sims - EPISODES,
        timing[0].duration.as_secs_f64(),
        digests.join(" "),
        sim.fail_frac,
    );
    let mut m = Vec::new();
    put(&mut m, "sim_req_per_host_s", "req/s", offered.iter().sum::<u64>() as f64 / pass_s);
    put(&mut m, "setup_s", "s", median(&setup_s));
    put(&mut m, "peak_rss_mb", "MB", median(&episode_rss_mb));
    put(&mut m, "attr_err", "fraction", sim.attr_err);
    put(&mut m, "j_per_req", "J", sim.j_per_req);
    put(&mut m, "ok_frac", "fraction", 1.0 - sim.fail_frac);
    put(&mut m, "sim_resp_mean_ms", "ms", median(&v.resp_ms));
    v.report(2 * EPISODES, m)
}

/// The traced run on episode 0 (the workload seed itself): every
/// per-layer metric, with a span around each layer call. Returns the
/// tracer so the caller can write the spans.
pub fn traced(opts: &Options) -> (Report, Tracer) {
    let mut tr = Tracer::new(true);
    tr.begin("perfbench.traced");
    tr.begin("setup");
    let (lab, cfgs) = set_up(opts, &mut tr);
    tr.end();
    let cfg = &cfgs[0];
    let cals = lab.for_config(cfg);
    let mut m = Vec::new();
    for (spec, _, secs) in &lab.gens {
        put(&mut m, format!("calibration_s.{}", spec.name), "s", *secs);
    }

    // Each round runs the workload without a span, with a span around the
    // call, and with the obs plane flipped on or off. Overheads are
    // medians of per-round ratios, since host speed drifts between rounds.
    let flipped = ClusterConfig {
        obs: if cfg.obs.is_some() { None } else { Some(ObsConfig::standard()) },
        ..cfg.clone()
    };
    let mut v = Verifier::new(opts);
    let (mut plain_s, mut span_ratio, mut obs_ratio, mut outcome) = (Vec::new(), Vec::new(), Vec::new(), None);
    let t0 = Instant::now();
    // The rounds take half the run; the layer probes after them, the rest.
    while plain_s.len() < 2 || t0.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        let (a, plain) = timed(|| simulate_caught(cfg, &cals));
        let (b, spanned) = tr.timed("cluster.simulate", || simulate_caught(cfg, &cals));
        let (f, flip) = tr.timed("cluster.simulate.obs_flipped", || simulate_caught(&flipped, &cals));
        plain_s.push(plain);
        span_ratio.push(spanned / plain);
        obs_ratio.push(if cfg.obs.is_some() { plain / flip } else { flip / plain });
        if v.accept(Some(0), a.as_ref()) && outcome.is_none() {
            outcome = a;
        }
        v.accept(Some(0), b.as_ref());
        v.accept(None, f.as_ref());
    }
    let Some(o) = outcome else {
        tr.end();
        return (v.report(1, m), tr);
    };

    // Traffic: the workload's own generator, drained alone.
    let ((ns, arrivals), _) = tr.timed("workloads.traffic", || layers::traffic(cfg));
    put(&mut m, "traffic.ns_per_arrival", "ns", ns);
    put(&mut m, "traffic.arrivals", "count", arrivals as f64);
    v.tally(if arrivals == o.dispatched {
        Ok(())
    } else {
        Err(format!("the generator offers {arrivals} arrivals, the engine dispatched {}", o.dispatched))
    });

    // Node stack: one node per generation at the workload's mean
    // per-node load (each request visits every tier once).
    let node_s: f64 = o.per_node.iter().map(|n| n.uptime_s).sum();
    let mean_active = node_s / cfg.duration.as_secs_f64();
    let rate_per_app =
        offered_cluster_rate(cfg) / cfg.apps.len() as f64 * cfg.tiers.len() as f64 / mean_active;
    let (mut switches, mut served) = (0u64, 0u64);
    for (spec, cal, _) in &lab.gens {
        let span = format!("node.replay.{}", spec.name);
        let (c, _) = tr.timed(&span, || layers::node_cost(spec, cal, cfg, rate_per_app));
        put(&mut m, format!("node.busy_us_per_req.{}", spec.name), "us", c.busy_us_per_req);
        put(&mut m, format!("node.idle_ms_per_sim_s.{}", spec.name), "ms/s", c.idle_ms_per_sim_s);
        put(&mut m, format!("node.recal_extra_us_per_req.{}", spec.name), "us", c.recal_extra_us_per_req);
        switches += c.ctx_switches;
        served += c.completions;
    }
    put(&mut m, "ossim.ctx_switches_per_req", "1/req", switches as f64 / served as f64);

    // Telemetry: a recording sink against a disabled one on a shortened
    // copy of the workload; its metrics snapshot gives the program's own
    // recalibration counters.
    let short = opts.workload.config(opts.seed, TELEMETRY_REQUESTS.min(opts.requests));
    let (mut tele_ratio, mut probe) = (Vec::new(), None);
    for _ in 0..3 {
        let tele = telemetry::Telemetry::recording();
        let rec = ClusterConfig { telemetry: tele.clone(), ..short.clone() };
        let (r, recording) = tr.timed("cluster.simulate.telemetry_recording", || simulate_caught(&rec, &cals));
        let (q, disabled) = tr.timed("cluster.simulate.telemetry_disabled", || simulate_caught(&short, &cals));
        tele_ratio.push(recording / disabled);
        if v.accept(None, r.as_ref()) {
            probe = Some((tele.event_count(), tele.snapshot(), r.map_or(0, |r| r.dispatched)));
        }
        v.accept(None, q.as_ref());
    }
    let counter = |name: &str| probe.as_ref().map_or(f64::NAN, |(_, s, _)| s.counter(name).unwrap_or(0) as f64);
    put(&mut m, "core.refits", "count", counter("recal.refits"));
    put(&mut m, "core.drift_detects", "count", counter("drift.detects"));
    put(&mut m, "core.bank_switches", "count", counter("bank.switches"));
    put(&mut m, "telemetry.events", "count", probe.as_ref().map_or(f64::NAN, |p| p.0 as f64));
    put(&mut m, "telemetry.requests", "count", probe.as_ref().map_or(f64::NAN, |p| p.2 as f64));
    put(&mut m, "telemetry.trace_overhead_frac", "fraction", median(&tele_ratio) - 1.0);

    // Dispatcher and recovery counts, exact from the outcome.
    let decisions = o.decisions as f64;
    put(&mut m, "cluster.decisions_per_req", "1/req", decisions / o.dispatched as f64);
    put(&mut m, "cluster.useful_decision_ratio", "ratio", o.completed as f64 * cfg.tiers.len() as f64 / decisions);
    put(&mut m, "cluster.retried", "count", o.retried as f64);
    put(&mut m, "cluster.hedged", "count", o.hedged as f64);
    put(&mut m, "cluster.stale_replies", "count", o.stale_replies as f64);
    put(&mut m, "cluster.crashes", "count", o.crashes as f64);
    put(&mut m, "cluster.checkpoints", "count", o.checkpoints as f64);
    put(&mut m, "cluster.fail_frac", "fraction", o.dropped as f64 / o.dispatched as f64);
    let (ns, _) = tr.timed("cluster.policy", || layers::policy_choose_ns(cfg));
    put(&mut m, "policy.choose_ns", "ns", ns);

    // Autoscaler: the controller alone, then the outcome's counts.
    let (ns, _) = tr.timed("cluster.autoscale", || layers::autoscale_decide_ns(cfg));
    put(&mut m, "autoscale.decide_ns", "ns", ns);
    put(&mut m, "autoscale.evals", "count", o.autoscale_evals as f64);
    put(&mut m, "autoscale.scale_outs", "count", o.scale_outs as f64);
    put(&mut m, "autoscale.scale_ins", "count", o.scale_ins as f64);
    put(&mut m, "fleet.node_s_powered", "s", node_s);

    put(&mut m, "obs.overhead_frac", "fraction", median(&obs_ratio) - 1.0);
    put(&mut m, "bench.sim_call_s", "s", median(&plain_s));
    put(&mut m, "bench.trace_overhead_frac", "fraction", median(&span_ratio) - 1.0);
    tr.end();
    (v.report(1, m), tr)
}
