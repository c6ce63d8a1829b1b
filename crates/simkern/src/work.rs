//! Exact work counts: kernel events popped, by kind, and machine
//! segments integrated.
//!
//! Wall time on a shared host drifts too much to gate on; these counts
//! do not. With the `work-counts` feature, `ossim`'s event loop and
//! `hwsim`'s power integration [`count`] each unit of work they do into
//! counters private to the calling thread, and [`take`] reads them. A
//! simulation runs on one thread, so that thread sees all of its work,
//! and tests running in parallel never see each other's. Without the
//! feature, off by default, [`count`] compiles to nothing and [`take`]
//! reads zero.
//!
//! # Example
//!
//! ```
//! use simkern::work::{self, Work};
//!
//! work::take();
//! work::count(Work::Wake);
//! let counts = work::take();
//! assert_eq!(counts.wakes, u64::from(work::ENABLED));
//! assert_eq!(work::take(), work::WorkCounts::default());
//! ```

/// Whether this build counts (the `work-counts` feature).
pub const ENABLED: bool = cfg!(feature = "work-counts");

/// One unit of counted work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// The kernel popped a core-tick event.
    CoreTick,
    /// The kernel popped a socket-delivery event.
    Deliver,
    /// The kernel popped a task-wake event.
    Wake,
    /// The machine integrated one segment of constant state.
    Segment,
}

/// Work counted on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Core-tick events popped.
    pub core_ticks: u64,
    /// Socket-delivery events popped.
    pub delivers: u64,
    /// Task-wake events popped.
    pub wakes: u64,
    /// Machine segments integrated.
    pub segments: u64,
}

impl WorkCounts {
    /// Kernel events popped, of every kind.
    pub fn events(&self) -> u64 {
        self.core_ticks + self.delivers + self.wakes
    }
}

#[cfg(feature = "work-counts")]
thread_local! {
    static COUNTS: std::cell::Cell<WorkCounts> = const {
        std::cell::Cell::new(WorkCounts { core_ticks: 0, delivers: 0, wakes: 0, segments: 0 })
    };
}

/// Counts one unit of `work` on this thread.
#[inline(always)]
pub fn count(work: Work) {
    #[cfg(feature = "work-counts")]
    COUNTS.with(|c| {
        let mut n = c.get();
        match work {
            Work::CoreTick => n.core_ticks += 1,
            Work::Deliver => n.delivers += 1,
            Work::Wake => n.wakes += 1,
            Work::Segment => n.segments += 1,
        }
        c.set(n);
    });
    #[cfg(not(feature = "work-counts"))]
    let _ = work;
}

/// The work counted on this thread since the last `take`, resetting
/// the counts to zero.
pub fn take() -> WorkCounts {
    #[cfg(feature = "work-counts")]
    return COUNTS.with(|c| c.take());
    #[cfg(not(feature = "work-counts"))]
    WorkCounts::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_private_to_their_thread() {
        take();
        count(Work::Segment);
        count(Work::CoreTick);
        let other = std::thread::spawn(|| {
            count(Work::Wake);
            take()
        })
        .join()
        .expect("counting thread");
        let mine = take();
        let n = u64::from(ENABLED);
        assert_eq!(
            other,
            WorkCounts {
                wakes: n,
                ..WorkCounts::default()
            }
        );
        assert_eq!(
            mine,
            WorkCounts {
                core_ticks: n,
                segments: n,
                ..WorkCounts::default()
            }
        );
        assert_eq!(mine.events(), n);
        assert_eq!(take(), WorkCounts::default(), "take resets");
    }
}
