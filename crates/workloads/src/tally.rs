//! What the runs on one thread did on the way: the facility's
//! graceful-degradation decisions, the cluster's retries and sheds,
//! requests offered, and the obs and elasticity digests.
//!
//! Every harness run ([`crate::PreparedRun::finish`]) and every cluster
//! run adds its figures to a tally private to the calling thread with
//! one [`note`], and [`take`] hands the sum back and clears it, as
//! `simkern::work` does for work counts. `run_all` takes the tally
//! around each experiment to render its summary columns;
//! `experiments::runner::run_parallel` adds each worker's tally to its
//! caller's when the worker ends, so a sweep's cells count towards the
//! experiment that fanned them out. Threads never see each other's
//! notes, and a tally nobody takes is dropped with its thread.
//!
//! # Example
//!
//! ```
//! use workloads::tally::{self, Tally};
//!
//! tally::take();
//! tally::note(Tally { requests: 3, ..Tally::default() });
//! tally::note(Tally { requests: 4, retried: 1, ..Tally::default() });
//! let t = tally::take();
//! assert_eq!((t.requests, t.retried), (7, 1));
//! assert_eq!(tally::take(), Tally::default());
//! ```

use power_containers::DegradeStats;
use std::cell::Cell;
use std::ops::Add;

/// What one cluster run reports about its elasticity controller: resize
/// transitions completed, brownout-ladder movements, and optional
/// arrivals shed by the ladder. A fixed-fleet run reports zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutoscaleDigest {
    /// Completed scale-outs (including upgrade provision halves).
    pub scale_outs: u64,
    /// Completed scale-ins (including upgrade drain halves).
    pub scale_ins: u64,
    /// Rolling-upgrade pairs started.
    pub upgrades: u64,
    /// Brownout-ladder climbs.
    pub brownout_engagements: u64,
    /// Arrivals shed because their session was optional while the
    /// ladder held at shed-optional or above.
    pub shed_optional: u64,
}

impl AutoscaleDigest {
    /// `true` when every counter is zero (nothing worth a column).
    pub fn is_empty(&self) -> bool {
        *self == AutoscaleDigest::default()
    }
}

/// What one observability-enabled run reports: the typed-alert count
/// and the p99 of its per-request attributed-energy sketch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ObsDigest {
    /// Energy-SLO alerts fired over the run.
    pub alerts: u64,
    /// p99 attributed energy per request, Joules.
    pub p99_j_per_req: f64,
}

/// The figures runs report, summed. Adding sums every counter, keeps
/// the worst (highest) obs p99, and leaves `degrade` and `obs` `None`
/// only while no run reported one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Facility degradation decisions, summed over every run's nodes.
    pub degrade: Option<DegradeStats>,
    /// Cluster requests re-dispatched after a per-hop timeout or a
    /// node crash.
    pub retried: u64,
    /// Cluster requests shed by admission control or given up after
    /// exhausting their retry budget.
    pub shed: u64,
    /// Requests the load generators offered.
    pub requests: u64,
    /// Observability digest of the runs with the obs plane on.
    pub obs: Option<ObsDigest>,
    /// Elasticity digest of the cluster runs.
    pub autoscale: AutoscaleDigest,
}

impl Add for Tally {
    type Output = Tally;
    fn add(mut self, o: Tally) -> Tally {
        self.degrade = match (self.degrade, o.degrade) {
            (Some(x), Some(y)) => Some(x + y),
            (x, y) => x.or(y),
        };
        self.retried += o.retried;
        self.shed += o.shed;
        self.requests += o.requests;
        self.obs = match (self.obs, o.obs) {
            (Some(x), Some(y)) => Some(ObsDigest {
                alerts: x.alerts + y.alerts,
                p99_j_per_req: x.p99_j_per_req.max(y.p99_j_per_req),
            }),
            (x, y) => x.or(y),
        };
        let (a, b) = (&mut self.autoscale, o.autoscale);
        a.scale_outs += b.scale_outs;
        a.scale_ins += b.scale_ins;
        a.upgrades += b.upgrades;
        a.brownout_engagements += b.brownout_engagements;
        a.shed_optional += b.shed_optional;
        self
    }
}

thread_local! {
    static TALLY: Cell<Tally> = Cell::new(Tally::default());
}

/// Adds `t` to this thread's tally.
pub fn note(t: Tally) {
    TALLY.with(|c| c.set(c.get() + t));
}

/// This thread's tally since the last `take`, clearing it.
pub fn take() -> Tally {
    TALLY.with(Cell::take)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaps(n: u64) -> Option<DegradeStats> {
        Some(DegradeStats { meter_gaps: n, ..DegradeStats::default() })
    }

    #[test]
    fn notes_add() {
        take();
        note(Tally { degrade: gaps(1), retried: 2, requests: 100, ..Tally::default() });
        note(Tally { shed: 3, requests: 20, ..Tally::default() });
        note(Tally { degrade: gaps(2), retried: 1, ..Tally::default() });
        assert_eq!(
            take(),
            Tally { degrade: gaps(3), retried: 3, shed: 3, requests: 120, ..Tally::default() }
        );
    }

    #[test]
    fn take_clears() {
        take();
        note(Tally { degrade: Some(DegradeStats::default()), requests: 5, ..Tally::default() });
        let t = take();
        assert_eq!(t.degrade, Some(DegradeStats::default()), "a clean run still reports");
        assert_eq!(t.requests, 5);
        assert_eq!(take(), Tally::default());
    }

    #[test]
    fn obs_sums_alerts_and_keeps_the_worst_p99() {
        take();
        note(Tally { requests: 1, ..Tally::default() });
        assert_eq!(take().obs, None, "a run without the obs plane reports no digest");
        for (alerts, p99_j_per_req) in [(2, 0.8), (1, 0.3), (0, 0.5)] {
            note(Tally { obs: Some(ObsDigest { alerts, p99_j_per_req }), ..Tally::default() });
        }
        note(Tally::default());
        assert_eq!(take().obs, Some(ObsDigest { alerts: 3, p99_j_per_req: 0.8 }));
    }

    #[test]
    fn autoscale_digests_add() {
        take();
        note(Tally::default());
        assert!(take().autoscale.is_empty());
        note(Tally {
            autoscale: AutoscaleDigest {
                scale_outs: 3,
                scale_ins: 2,
                upgrades: 1,
                brownout_engagements: 4,
                shed_optional: 7,
            },
            ..Tally::default()
        });
        note(Tally {
            autoscale: AutoscaleDigest {
                scale_outs: 1,
                shed_optional: 1,
                ..AutoscaleDigest::default()
            },
            ..Tally::default()
        });
        assert_eq!(
            take().autoscale,
            AutoscaleDigest {
                scale_outs: 4,
                scale_ins: 2,
                upgrades: 1,
                brownout_engagements: 4,
                shed_optional: 8,
            }
        );
    }

    #[test]
    fn notes_stay_on_their_thread() {
        take();
        note(Tally { requests: 1, ..Tally::default() });
        let other = std::thread::spawn(|| {
            let before = take();
            note(Tally { requests: 10, ..Tally::default() });
            (before, take())
        })
        .join()
        .expect("noting thread");
        assert_eq!(other.0, Tally::default(), "a new thread starts empty");
        assert_eq!(other.1.requests, 10);
        assert_eq!(take().requests, 1);
    }
}
