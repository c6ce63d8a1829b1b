//! Discrete-event simulation kernel for the Power Containers reproduction.
//!
//! This crate is deliberately tiny and dependency-free: it provides the three
//! primitives every other simulation crate in the workspace builds on.
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated clock
//!   values with saturating, unit-safe arithmetic.
//! * [`EventQueue`] — a stable (FIFO-within-timestamp) priority queue of
//!   timestamped events, the heart of the discrete-event loop.
//! * [`SimRng`] — a seedable, splittable xoshiro256** random number
//!   generator so that every experiment in the repository is reproducible
//!   bit-for-bit from its seed.
//!
//! Beside them, [`work`] holds the exact work counters (kernel events,
//! machine segments) that the performance ledger gates on, compiled in
//! only with the `work-counts` feature.
//!
//! # Example
//!
//! ```
//! use simkern::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_millis(2), "later");
//! queue.push(SimTime::ZERO + SimDuration::from_millis(1), "sooner");
//!
//! let (when, what) = queue.pop().unwrap();
//! assert_eq!(what, "sooner");
//! assert_eq!(when.as_millis_f64(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fxhash;
mod queue;
mod rng;
mod time;
pub mod work;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
