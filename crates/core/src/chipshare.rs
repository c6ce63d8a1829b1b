//! Estimating each task's share of chip maintenance power (paper Eq. 3).
//!
//! `M_chipshare` has no hardware counter. Each core estimates it locally:
//! the task running on core *c* gets
//!
//! ```text
//! M_chipshare(c) = M_core(c) · 1 / (1 + Σ_{siblings i} M_core(i))
//! ```
//!
//! where sibling utilizations are read from each sibling's most recent
//! sample record *without any synchronization*. A sibling that has gone
//! idle stops sampling (non-halt-triggered interrupts cease), so its
//! record may be stale; the paper's fix — checking whether the OS is
//! currently scheduling the idle task on that sibling and treating its
//! activity as zero if so — is reproduced here.

use hwsim::{CoreId, MachineSpec};
use simkern::SimTime;

/// One core's most recent published sample, as its siblings see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRecord {
    /// The core utilization (`M_core`) observed over the core's last
    /// sampling period.
    pub core_util: f64,
    /// When the record was written.
    pub written_at: SimTime,
}

impl Default for SampleRecord {
    fn default() -> SampleRecord {
        SampleRecord { core_util: 0.0, written_at: SimTime::ZERO }
    }
}

/// The per-machine board of per-core sample records. Writes and reads are
/// unsynchronized by design (each core owns its slot; readers tolerate
/// staleness).
///
/// The board learns the machine's chip layout when it is built, so
/// finding a core's siblings costs no division per sample.
#[derive(Debug, Clone)]
pub struct SampleBoard {
    records: Vec<SampleRecord>,
    /// The first core of each core's chip.
    chip_start: Vec<usize>,
    cores_per_chip: usize,
}

impl SampleBoard {
    /// Creates a board for every core of a machine built to `spec`.
    pub fn new(spec: &MachineSpec) -> SampleBoard {
        let cores = spec.total_cores();
        SampleBoard {
            records: vec![SampleRecord::default(); cores],
            chip_start: (0..cores)
                .map(|c| spec.cores_of(spec.chip_of(c)).start)
                .collect(),
            cores_per_chip: spec.cores_per_chip,
        }
    }

    /// Publishes `core`'s latest sample.
    pub fn publish(&mut self, core: CoreId, core_util: f64, now: SimTime) {
        self.records[core.0] = SampleRecord { core_util: core_util.clamp(0.0, 1.0), written_at: now };
    }

    /// The last published record for `core`.
    pub fn record(&self, core: CoreId) -> SampleRecord {
        self.records[core.0]
    }

    /// Estimates Eq. 3's `M_chipshare` for the task on `core`, whose own
    /// utilization over the period was `my_util`. `is_idle(c)` must report
    /// whether the scheduler currently runs the idle task on core `c` (the
    /// stale-record correction).
    pub fn chipshare(
        &self,
        core: CoreId,
        my_util: f64,
        mut is_idle: impl FnMut(CoreId) -> bool,
    ) -> f64 {
        let start = self.chip_start[core.0];
        let mut sibling_sum = 0.0;
        for sib in start..start + self.cores_per_chip {
            if sib == core.0 {
                continue;
            }
            let sib = CoreId(sib);
            if is_idle(sib) {
                continue; // stale record: treat current activity as zero
            }
            sibling_sum += self.records[sib.0].core_util;
        }
        (my_util / (1.0 + sibling_sum)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::MachineSpec;

    fn board4() -> SampleBoard {
        SampleBoard::new(&MachineSpec::sandybridge())
    }

    #[test]
    fn lone_busy_core_owns_full_chip_share() {
        let board = board4();
        let s = board.chipshare(CoreId(0), 1.0, |_| true);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn k_busy_cores_split_evenly() {
        let mut board = board4();
        let now = SimTime::from_millis(1);
        for c in 0..4 {
            board.publish(CoreId(c), 1.0, now);
        }
        let s = board.chipshare(CoreId(0), 1.0, |_| false);
        assert!((s - 0.25).abs() < 1e-12, "four busy cores → 1/4 each, got {s}");
    }

    #[test]
    fn idle_sibling_records_are_ignored() {
        let mut board = board4();
        // Sibling 1 published full utilization long ago but is idle now.
        board.publish(CoreId(1), 1.0, SimTime::ZERO);
        let s = board.chipshare(CoreId(0), 1.0, |c| c != CoreId(0));
        assert_eq!(s, 1.0, "stale idle sibling must not dilute the share");
    }

    #[test]
    fn partial_utilizations_follow_equation_3() {
        let mut board = board4();
        board.publish(CoreId(1), 0.5, SimTime::ZERO);
        board.publish(CoreId(2), 0.25, SimTime::ZERO);
        let s = board.chipshare(CoreId(0), 0.8, |c| c == CoreId(3));
        let expected = 0.8 / (1.0 + 0.5 + 0.25);
        assert!((s - expected).abs() < 1e-12);
    }

    #[test]
    fn only_same_chip_siblings_count() {
        // Woodcrest: cores 0,1 on chip 0; cores 2,3 on chip 1.
        let mut board = SampleBoard::new(&MachineSpec::woodcrest());
        board.publish(CoreId(2), 1.0, SimTime::ZERO);
        board.publish(CoreId(3), 1.0, SimTime::ZERO);
        let s = board.chipshare(CoreId(0), 1.0, |_| false);
        assert_eq!(s, 1.0, "other-chip cores must not affect this chip's share");
        let s = board.chipshare(CoreId(3), 1.0, |_| false);
        assert_eq!(s, 0.5, "core 3's sibling on chip 1 is core 2");
    }

    #[test]
    fn publish_clamps_utilization() {
        let mut board = board4();
        board.publish(CoreId(0), 7.5, SimTime::ZERO);
        assert_eq!(board.record(CoreId(0)).core_util, 1.0);
    }

    #[test]
    fn shares_sum_to_at_most_one_per_chip() {
        let mut board = board4();
        let utils = [0.9, 0.6, 0.3, 0.0];
        for (c, u) in utils.iter().enumerate() {
            board.publish(CoreId(c), *u, SimTime::ZERO);
        }
        let total: f64 = (0..4)
            .map(|c| board.chipshare(CoreId(c), utils[c], |s| utils[s.0] == 0.0))
            .sum();
        assert!(total <= 1.0 + 1e-9, "shares must not over-attribute: {total}");
    }
}
