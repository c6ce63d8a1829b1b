//! A process-wide ledger of graceful-degradation decisions, keyed by
//! experiment scope.
//!
//! Every harness run ends by folding its facility's
//! [`DegradeStats`] into the ledger under
//! the scope the calling thread entered with [`DegradeScope::enter`].
//! The experiment driver enters one scope per experiment inside its
//! worker closure, then reads the whole ledger back with
//! [`degrade_ledger`] to render a status column — without threading a
//! side channel through every experiment's return type.
//!
//! Runs on threads that never entered a scope (unit tests, ad-hoc
//! callers) are deliberately not recorded.

use power_containers::DegradeStats;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;

static LEDGER: Mutex<BTreeMap<String, DegradeStats>> = Mutex::new(BTreeMap::new());

/// Requests served per scope, for the driver's throughput column.
static REQUESTS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Observability digests per scope, for the driver's p99-energy and
/// alert columns.
static OBS: Mutex<BTreeMap<String, ObsDigest>> = Mutex::new(BTreeMap::new());

/// Elasticity digests per scope, for the driver's resize and brownout
/// columns.
static AUTOSCALE: Mutex<BTreeMap<String, AutoscaleDigest>> = Mutex::new(BTreeMap::new());

/// What one cluster run reports about its elasticity controller: resize
/// transitions completed, brownout-ladder movements, and optional
/// arrivals shed by the ladder. All counters accumulate across a
/// scope's cells; a fixed-fleet run reports zeros.
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
    /// `true` when every counter is zero (nothing worth a ledger row).
    pub fn is_empty(&self) -> bool {
        *self == AutoscaleDigest::default()
    }
}

/// What one observability-enabled run reports into the ledger: the
/// typed-alert count and the p99 of its per-request attributed-energy
/// sketch. Folding keeps the alert sum and the worst (highest) p99
/// across a scope's cells.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ObsDigest {
    /// Energy-SLO alerts fired over the run.
    pub alerts: u64,
    /// p99 attributed energy per request, Joules.
    pub p99_j_per_req: f64,
}

thread_local! {
    static CURRENT: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// RAII guard naming the degrade-ledger scope for the current thread;
/// dropping it restores the previous scope (scopes nest).
#[derive(Debug)]
pub struct DegradeScope {
    prev: Option<String>,
}

impl DegradeScope {
    /// Makes `name` the current thread's ledger scope until the guard
    /// drops.
    pub fn enter(name: &str) -> DegradeScope {
        let prev = CURRENT.with(|c| c.replace(Some(name.to_string())));
        DegradeScope { prev }
    }
}

impl Drop for DegradeScope {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// The current thread's ledger scope, if any — lets a thread pool
/// re-enter the scope of the thread that spawned its tasks.
pub fn current_degrade_scope() -> Option<String> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Folds `stats` into the ledger under the current thread's scope; a
/// no-op when no [`DegradeScope`] is active.
pub fn note_degrade(stats: DegradeStats) {
    let Some(scope) = CURRENT.with(|c| c.borrow().clone()) else {
        return;
    };
    let mut ledger = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    *ledger.entry(scope).or_default() += stats;
}

/// A snapshot of the ledger, sorted by scope name.
pub fn degrade_ledger() -> Vec<(String, DegradeStats)> {
    let ledger = LEDGER.lock().unwrap_or_else(|e| e.into_inner());
    ledger.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Adds `count` served requests to the current scope's throughput
/// ledger; a no-op when no [`DegradeScope`] is active. Simulation
/// engines call this once per run with the number of requests the
/// load generator offered, so the experiment driver can render a
/// requests-per-wall-second column without a side channel through
/// every experiment's return type.
pub fn note_requests(count: u64) {
    if count == 0 {
        return;
    }
    let Some(scope) = CURRENT.with(|c| c.borrow().clone()) else {
        return;
    };
    let mut ledger = REQUESTS.lock().unwrap_or_else(|e| e.into_inner());
    *ledger.entry(scope).or_default() += count;
}

/// A snapshot of the per-scope request counts, sorted by scope name.
pub fn request_ledger() -> Vec<(String, u64)> {
    let ledger = REQUESTS.lock().unwrap_or_else(|e| e.into_inner());
    ledger.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Folds one run's observability digest into the ledger under the
/// current thread's scope; a no-op when no [`DegradeScope`] is active.
/// Alerts accumulate; the p99 keeps the scope's worst cell.
pub fn note_obs(digest: ObsDigest) {
    let Some(scope) = CURRENT.with(|c| c.borrow().clone()) else {
        return;
    };
    let mut ledger = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let entry = ledger.entry(scope).or_default();
    entry.alerts += digest.alerts;
    entry.p99_j_per_req = entry.p99_j_per_req.max(digest.p99_j_per_req);
}

/// A snapshot of the per-scope observability digests, sorted by scope
/// name.
pub fn obs_ledger() -> Vec<(String, ObsDigest)> {
    let ledger = OBS.lock().unwrap_or_else(|e| e.into_inner());
    ledger.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Folds one cluster run's elasticity digest into the ledger under the
/// current thread's scope. Empty digests (fixed-fleet runs) never
/// create entries, and runs without a [`DegradeScope`] are dropped.
pub fn note_autoscale(digest: AutoscaleDigest) {
    if digest.is_empty() {
        return;
    }
    let Some(scope) = CURRENT.with(|c| c.borrow().clone()) else {
        return;
    };
    let mut ledger = AUTOSCALE.lock().unwrap_or_else(|e| e.into_inner());
    let entry = ledger.entry(scope).or_default();
    entry.scale_outs += digest.scale_outs;
    entry.scale_ins += digest.scale_ins;
    entry.upgrades += digest.upgrades;
    entry.brownout_engagements += digest.brownout_engagements;
    entry.shed_optional += digest.shed_optional;
}

/// A snapshot of the per-scope elasticity digests, sorted by scope
/// name.
pub fn autoscale_ledger() -> Vec<(String, AutoscaleDigest)> {
    let ledger = AUTOSCALE.lock().unwrap_or_else(|e| e.into_inner());
    ledger.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Clears all ledgers (start of a fresh experiment batch).
pub fn reset_degrade_ledger() {
    LEDGER.lock().unwrap_or_else(|e| e.into_inner()).clear();
    REQUESTS.lock().unwrap_or_else(|e| e.into_inner()).clear();
    OBS.lock().unwrap_or_else(|e| e.into_inner()).clear();
    AUTOSCALE.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole module: the ledger is process-global,
    // so independent #[test]s would race each other's resets.
    #[test]
    fn scopes_accumulate_nest_and_reset() {
        reset_degrade_ledger();
        let hit = DegradeStats { meter_gaps: 1, ..DegradeStats::default() };

        // No scope: dropped.
        note_degrade(hit);
        assert!(degrade_ledger().is_empty());

        {
            let _outer = DegradeScope::enter("outer");
            note_degrade(hit);
            note_degrade(hit);
            {
                let _inner = DegradeScope::enter("inner");
                note_degrade(hit);
            }
            // Back to the outer scope after the inner guard drops.
            note_degrade(hit);
        }
        let ledger = degrade_ledger();
        assert_eq!(
            ledger.iter().map(|(k, v)| (k.as_str(), v.meter_gaps)).collect::<Vec<_>>(),
            vec![("inner", 1), ("outer", 3)]
        );

        // The request ledger shares the scope machinery.
        note_requests(5); // no scope: dropped
        {
            let _outer = DegradeScope::enter("outer");
            note_requests(100);
            note_requests(0); // zero counts never create entries
            note_requests(20);
        }
        assert_eq!(
            request_ledger()
                .iter()
                .map(|(k, v)| (k.as_str(), *v))
                .collect::<Vec<_>>(),
            vec![("outer", 120)]
        );

        // The autoscale ledger accumulates and drops empty digests.
        note_autoscale(AutoscaleDigest { scale_outs: 1, ..AutoscaleDigest::default() }); // no scope
        {
            let _outer = DegradeScope::enter("outer");
            note_autoscale(AutoscaleDigest::default()); // empty: no entry
            note_autoscale(AutoscaleDigest {
                scale_outs: 3,
                scale_ins: 2,
                upgrades: 1,
                brownout_engagements: 4,
                shed_optional: 7,
            });
            note_autoscale(AutoscaleDigest { scale_outs: 1, ..AutoscaleDigest::default() });
        }
        assert_eq!(
            autoscale_ledger(),
            vec![(
                "outer".to_string(),
                AutoscaleDigest {
                    scale_outs: 4,
                    scale_ins: 2,
                    upgrades: 1,
                    brownout_engagements: 4,
                    shed_optional: 7,
                }
            )]
        );

        // The obs ledger sums alerts and keeps the worst p99.
        note_obs(ObsDigest { alerts: 1, p99_j_per_req: 0.5 }); // no scope: dropped
        {
            let _outer = DegradeScope::enter("outer");
            note_obs(ObsDigest { alerts: 2, p99_j_per_req: 0.8 });
            note_obs(ObsDigest { alerts: 1, p99_j_per_req: 0.3 });
        }
        assert_eq!(
            obs_ledger(),
            vec![("outer".to_string(), ObsDigest { alerts: 3, p99_j_per_req: 0.8 })]
        );

        reset_degrade_ledger();
        assert!(degrade_ledger().is_empty());
        assert!(request_ledger().is_empty());
        assert!(obs_ledger().is_empty());
        assert!(autoscale_ledger().is_empty());
    }
}
