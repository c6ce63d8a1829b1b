//! Trace-driven request replay.
//!
//! The paper drives WeBWorK with "user requests logged at the real site".
//! This module provides the equivalent facility: a [`RequestTrace`] is a
//! time-stamped sequence of labeled arrivals that can be captured from a
//! live run, synthesized from a mix model, saved/loaded as JSON lines,
//! and replayed through a trace driver — so an experiment can be repeated
//! against the *identical* request sequence while varying machine,
//! approach, or policy.

use crate::driver::CtxAlloc;
use crate::stats::RunStats;
use ossim::{FnProgram, Kernel, Op, SocketId};
use power_containers::FacilityState;
use simkern::{SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// One traced arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Arrival time relative to the trace start.
    pub at: SimTime,
    /// Request-type label.
    pub label: u32,
}

/// A replayable request trace (arrivals sorted by time).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestTrace {
    entries: Vec<TraceEntry>,
}

impl RequestTrace {
    /// Creates a trace from entries, sorting them by arrival time.
    pub fn new(mut entries: Vec<TraceEntry>) -> RequestTrace {
        entries.sort_by_key(|e| e.at);
        RequestTrace { entries }
    }

    /// The arrivals, in time order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the trace holds no arrivals.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total span from the first to the last arrival.
    pub fn span(&self) -> SimDuration {
        match (self.entries.first(), self.entries.last()) {
            (Some(a), Some(b)) => b.at.duration_since(a.at),
            _ => SimDuration::ZERO,
        }
    }

    /// Synthesizes a Poisson trace: `rate` arrivals/second over
    /// `duration`, labels drawn from `pick_label`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn synthesize(
        rate: f64,
        duration: SimDuration,
        rng: &mut SimRng,
        mut pick_label: impl FnMut(&mut SimRng) -> u32,
    ) -> RequestTrace {
        assert!(rate > 0.0, "rate must be positive");
        let mut entries = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            t += SimDuration::from_secs_f64(rng.exponential(1.0 / rate));
            if t >= SimTime::ZERO + duration {
                break;
            }
            entries.push(TraceEntry { at: t, label: pick_label(rng) });
        }
        RequestTrace { entries }
    }

    /// Captures a trace from a finished run's arrival log (completions
    /// carry the original arrival instants).
    pub fn from_run(stats: &RunStats) -> RequestTrace {
        RequestTrace::new(
            stats
                .completions()
                .iter()
                .map(|c| TraceEntry { at: c.arrived, label: c.label })
                .collect(),
        )
    }

    /// Serializes as JSON lines (`{"at_ns":…,"label":…}` per arrival).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "{{\"at_ns\":{},\"label\":{}}}\n",
                e.at.as_nanos(),
                e.label
            ));
        }
        out
    }

    /// Parses the JSON-lines form produced by [`RequestTrace::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<RequestTrace, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parsed: serde_json::Value = serde_json::from_str(line)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
            let at = parsed["at_ns"]
                .as_u64()
                .ok_or_else(|| format!("line {}: missing at_ns", i + 1))?;
            let label = parsed["label"]
                .as_u64()
                .ok_or_else(|| format!("line {}: missing label", i + 1))?;
            entries.push(TraceEntry { at: SimTime::from_nanos(at), label: label as u32 });
        }
        Ok(RequestTrace::new(entries))
    }

    /// Keeps only arrivals inside `[from, to)`, re-based to start at zero.
    pub fn window(&self, from: SimTime, to: SimTime) -> RequestTrace {
        RequestTrace {
            entries: self
                .entries
                .iter()
                .filter(|e| e.at >= from && e.at < to)
                .map(|e| TraceEntry { at: SimTime::ZERO + e.at.duration_since(from), label: e.label })
                .collect(),
        }
    }
}

/// Spawns a driver that replays `trace` into the worker `inboxes`
/// (round-robin), recording arrivals exactly like the Poisson driver.
pub fn spawn_trace_driver(
    kernel: &mut Kernel,
    trace: RequestTrace,
    inboxes: Vec<SocketId>,
    stats: Rc<RefCell<RunStats>>,
    facility: Option<Rc<RefCell<FacilityState>>>,
    ctxs: CtxAlloc,
) {
    assert!(!inboxes.is_empty(), "trace driver needs at least one inbox");
    let mut idx = 0usize;
    let mut rr = 0usize;
    let mut pending_send: Option<u32> = None;
    kernel.spawn(
        Box::new(FnProgram::new(move |pc| {
            if let Some(label) = pending_send.take() {
                let ctx = ctxs.alloc();
                stats.borrow_mut().record_arrival(ctx, label, pc.now);
                if let Some(f) = &facility {
                    f.borrow_mut().containers_mut().set_label(ctx, label, pc.now);
                }
                let inbox = inboxes[rr % inboxes.len()];
                rr += 1;
                return Op::SendTagged {
                    socket: inbox,
                    bytes: 512,
                    payload: label as u64,
                    ctx: Some(ctx),
                };
            }
            let Some(entry) = trace.entries().get(idx) else {
                return Op::Exit;
            };
            idx += 1;
            pending_send = Some(entry.label);
            let gap = entry.at.duration_since(pc.now);
            if gap.is_zero() {
                // Issue immediately on the next call.
                Op::BindContext(None)
            } else {
                Op::Sleep { duration: gap }
            }
        })),
        None,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> RequestTrace {
        RequestTrace::new(vec![
            TraceEntry { at: SimTime::from_millis(5), label: 2 },
            TraceEntry { at: SimTime::from_millis(1), label: 0 },
            TraceEntry { at: SimTime::from_millis(3), label: 1 },
        ])
    }

    #[test]
    fn new_sorts_by_time() {
        let t = sample_trace();
        let labels: Vec<u32> = t.entries().iter().map(|e| e.label).collect();
        assert_eq!(labels, vec![0, 1, 2]);
        assert_eq!(t.span(), SimDuration::from_millis(4));
    }

    #[test]
    fn jsonl_round_trips() {
        let t = sample_trace();
        let text = t.to_jsonl();
        let back = RequestTrace::from_jsonl(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn from_jsonl_reports_bad_lines() {
        assert!(RequestTrace::from_jsonl("not json").is_err());
        assert!(RequestTrace::from_jsonl("{\"at_ns\":1}").is_err());
        // Blank lines are fine.
        let ok = RequestTrace::from_jsonl("\n{\"at_ns\":5,\"label\":1}\n\n").unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn synthesize_respects_rate_and_duration() {
        let mut rng = SimRng::new(3);
        let t = RequestTrace::synthesize(
            1000.0,
            SimDuration::from_secs(2),
            &mut rng,
            |rng| rng.next_below(3) as u32,
        );
        assert!((1700..2300).contains(&t.len()), "arrivals {}", t.len());
        assert!(t.entries().iter().all(|e| e.at < SimTime::from_secs(2)));
        assert!(t.entries().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn window_rebases_to_zero() {
        let t = sample_trace();
        let w = t.window(SimTime::from_millis(2), SimTime::from_millis(4));
        assert_eq!(w.len(), 1);
        assert_eq!(w.entries()[0].at, SimTime::from_millis(1));
        assert_eq!(w.entries()[0].label, 1);
    }

    #[test]
    fn replay_delivers_every_request() {
        use crate::driver::spawn_pool;
        use hwsim::{ActivityProfile, Machine, MachineSpec};
        use ossim::KernelConfig;

        let mut rng = SimRng::new(9);
        let trace = RequestTrace::synthesize(
            200.0,
            SimDuration::from_secs(1),
            &mut rng,
            |_| 0,
        );
        let expected = trace.len();
        let mut kernel =
            Kernel::new(Machine::new(MachineSpec::sandybridge(), 4), KernelConfig::default());
        let stats = Rc::new(RefCell::new(RunStats::new()));
        let inboxes = spawn_pool(&mut kernel, 8, &stats, None, |_w| {
            Box::new(|_label, _pc, ops| {
                ops.push_back(Op::Compute { cycles: 1e6, profile: ActivityProfile::cpu_spin() });
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
        kernel.run_until(SimTime::from_millis(1500));
        assert_eq!(stats.borrow().completions().len(), expected);
        // Replay is deterministic: arrival times in stats equal the trace.
        let replayed = RequestTrace::from_run(&stats.borrow());
        assert_eq!(replayed.len(), expected);
    }
}
