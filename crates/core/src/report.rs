//! Live power reports and anomaly flagging.
//!
//! The paper's introduction motivates power containers with operators'
//! need to "pinpoint the sources of power spikes and anomalies". This
//! module turns the facility's live container state into an operator
//! report: who is consuming power right now, how much of it is
//! background, and which requests look like power viruses relative to
//! the population.

use crate::container::ContainerManager;
use ossim::ContextId;

/// One live consumer in a report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsumerLine {
    /// The request context.
    pub ctx: ContextId,
    /// Workload-assigned label, if any.
    pub label: Option<u32>,
    /// Recent sampled power (EWMA), Watts.
    pub recent_power_w: f64,
    /// Unthrottled power estimate, Watts.
    pub unthrottled_power_w: f64,
    /// Energy accumulated so far, Joules.
    pub energy_j: f64,
}

/// A point-in-time view of where power is going.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Live request consumers, highest recent power first.
    pub consumers: Vec<ConsumerLine>,
    /// Background container's recent power, Watts.
    pub background_w: f64,
    /// Sum of live consumers' recent power, Watts.
    pub total_request_w: f64,
}

impl PowerReport {
    /// Builds a report from the container manager's live state.
    pub fn capture(containers: &ContainerManager) -> PowerReport {
        let mut consumers: Vec<ConsumerLine> = containers
            .iter_live()
            .map(|(ctx, c)| ConsumerLine {
                ctx,
                label: c.label(),
                recent_power_w: c.recent_power_w(),
                unthrottled_power_w: c.unthrottled_power_w(),
                energy_j: c.total_energy_j(),
            })
            .collect();
        consumers.sort_by(|a, b| b.recent_power_w.total_cmp(&a.recent_power_w));
        let total_request_w = consumers.iter().map(|c| c.recent_power_w).sum();
        PowerReport {
            consumers,
            background_w: containers.background().recent_power_w(),
            total_request_w,
        }
    }

    /// The top `n` consumers.
    pub fn top(&self, n: usize) -> &[ConsumerLine] {
        &self.consumers[..n.min(self.consumers.len())]
    }

    /// Flags consumers whose recent power exceeds the population median
    /// by `factor` — the report's power-anomaly ("virus") candidates.
    /// Returns an empty list when fewer than four consumers are live
    /// (no meaningful population to compare against).
    pub fn anomalies(&self, factor: f64) -> Vec<ConsumerLine> {
        if self.consumers.len() < 4 {
            return Vec::new();
        }
        let powers: Vec<f64> = self.consumers.iter().map(|c| c.recent_power_w).collect();
        let median = analysis::stats::quantile(&powers, 0.5).unwrap_or(0.0);
        if median <= 0.0 {
            return Vec::new();
        }
        self.consumers
            .iter()
            .filter(|c| c.recent_power_w > median * factor)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::RecordRetention;
    use hwsim::CounterBlock;
    use simkern::SimTime;

    fn manager_with(powers: &[(u64, f64)]) -> ContainerManager {
        let mut m = ContainerManager::new(RecordRetention::None);
        for &(id, watts) in powers {
            let ctx = ContextId(id);
            m.bind(ctx, SimTime::ZERO);
            m.set_label(ctx, id as u32, SimTime::ZERO);
            // Repeat so the EWMA converges to `watts`.
            for _ in 0..20 {
                m.attribute(
                    Some(ctx),
                    watts,
                    1.0,
                    0.001,
                    &CounterBlock::default(),
                    SimTime::ZERO,
                );
            }
        }
        m
    }

    #[test]
    fn report_sorts_by_recent_power() {
        let m = manager_with(&[(1, 10.0), (2, 30.0), (3, 20.0)]);
        let r = PowerReport::capture(&m);
        let order: Vec<u64> = r.consumers.iter().map(|c| c.ctx.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert!((r.total_request_w - 60.0).abs() < 0.1);
        assert_eq!(r.top(2).len(), 2);
        assert_eq!(r.top(99).len(), 3);
    }

    #[test]
    fn anomalies_flag_only_outliers() {
        let m = manager_with(&[
            (1, 10.0),
            (2, 10.5),
            (3, 9.5),
            (4, 10.2),
            (5, 21.0), // the virus
        ]);
        let r = PowerReport::capture(&m);
        let flagged = r.anomalies(1.5);
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].ctx, ContextId(5));
    }

    #[test]
    fn tiny_populations_are_not_flagged() {
        let m = manager_with(&[(1, 5.0), (2, 50.0)]);
        let r = PowerReport::capture(&m);
        assert!(r.anomalies(1.5).is_empty());
    }

    #[test]
    fn background_power_is_reported() {
        let mut m = manager_with(&[(1, 10.0), (2, 10.0), (3, 10.0), (4, 10.0)]);
        for _ in 0..20 {
            m.attribute(None, 7.0, 1.0, 0.001, &CounterBlock::default(), SimTime::ZERO);
        }
        let r = PowerReport::capture(&m);
        assert!((r.background_w - 7.0).abs() < 0.1);
    }
}
