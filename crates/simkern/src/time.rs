//! Simulated clock values.
//!
//! All simulation time in the workspace is expressed in integer nanoseconds.
//! [`SimTime`] is an absolute instant on the simulated clock and
//! [`SimDuration`] is a span between instants. Both are newtypes over `u64`
//! so that raw integers, cycle counts, and wall-clock values cannot be mixed
//! up by accident.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in nanoseconds since the
/// start of the simulation.
///
/// # Example
///
/// ```
/// use simkern::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_micros(1500);
/// assert_eq!(t.as_nanos(), 1_500_000);
/// assert_eq!(t.as_millis_f64(), 1.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use simkern::SimDuration;
///
/// let d = SimDuration::from_millis(3) + SimDuration::from_micros(250);
/// assert_eq!(d.as_nanos(), 3_250_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel for events that are not currently scheduled.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since the simulation origin.
    pub const fn from_nanos(nanos: u64) -> SimTime {
        SimTime(nanos)
    }

    /// Creates an instant from microseconds since the simulation origin.
    pub const fn from_micros(micros: u64) -> SimTime {
        SimTime(micros * 1_000)
    }

    /// Creates an instant from milliseconds since the simulation origin.
    pub const fn from_millis(millis: u64) -> SimTime {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant from whole seconds since the simulation origin.
    pub const fn from_secs(secs: u64) -> SimTime {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the simulation origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> SimDuration {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> SimDuration {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> SimDuration {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> SimDuration {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond and saturating at the representable range.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN.
    pub fn from_secs_f64(secs: f64) -> SimDuration {
        assert!(secs >= 0.0, "duration must be non-negative, got {secs}");
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos.round() as u64)
        }
    }

    /// The whole-nanosecond deadline covering `nanos` fractional
    /// nanoseconds: `nanos.ceil().max(1.0) as u64` nanoseconds, computed
    /// with exact integer arithmetic instead of `f64::ceil`. Saturates at
    /// [`SimDuration::MAX`]; NaN and non-positive inputs give one
    /// nanosecond, so a deadline built from it always advances time.
    ///
    /// ```
    /// use simkern::SimDuration;
    ///
    /// assert_eq!(SimDuration::covering_nanos(2.0), SimDuration::from_nanos(2));
    /// assert_eq!(SimDuration::covering_nanos(2.01), SimDuration::from_nanos(3));
    /// assert_eq!(SimDuration::covering_nanos(0.0), SimDuration::from_nanos(1));
    /// ```
    #[inline]
    pub fn covering_nanos(nanos: f64) -> SimDuration {
        // The saturating cast truncates toward zero; one more nanosecond
        // covers a fractional rest. The comparison is exact: below 2^53
        // the cast round-trips, and from 2^53 up every f64 is integral.
        let whole = nanos as u64;
        let ceil = if (whole as f64) < nanos { whole.saturating_add(1) } else { whole };
        SimDuration(ceil.max(1))
    }

    /// Raw nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This duration expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` when this duration is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a non-negative factor, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor >= 0.0, "factor must be non-negative, got {factor}");
        let nanos = self.0 as f64 * factor;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos.round() as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.6}ms)", self.as_millis_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({:.6}ms)", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_nanos(2_000_000_000));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_millis(5);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_since_saturates() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early.duration_since(late), SimDuration::ZERO);
        assert_eq!(late.duration_since(early), SimDuration::from_millis(1));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1e-9), SimDuration::from_nanos(1));
        assert_eq!(SimDuration::from_secs_f64(0.5), SimDuration::from_millis(500));
        assert_eq!(SimDuration::from_secs_f64(f64::MAX), SimDuration::MAX);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn covering_nanos_matches_float_ceil() {
        let ceil = |x: f64| SimDuration(x.ceil().max(1.0) as u64);
        let two_53 = (1u64 << 53) as f64;
        let below_two_64 = f64::from_bits((u64::MAX as f64).to_bits() - 1);
        let cases = [
            -1.5, -0.0, 0.0, 1e-300, 0.25, 1.0, 1.0 + f64::EPSILON, 1.5, 2.0, 1e6 + 0.5,
            4_503_599_627_370_495.5, two_53, two_53 + 2.0, below_two_64,
            u64::MAX as f64, 1e30, f64::MAX, f64::INFINITY, f64::NEG_INFINITY, f64::NAN,
        ];
        for x in cases {
            assert_eq!(SimDuration::covering_nanos(x), ceil(x), "at {x:e}");
        }
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(f64::MAX), SimDuration::MAX);
    }

    #[test]
    fn saturating_behaviour_at_extremes() {
        assert_eq!(SimTime::MAX + SimDuration::from_nanos(1), SimTime::MAX);
        assert_eq!(SimDuration::MAX + SimDuration::from_nanos(1), SimDuration::MAX);
        assert_eq!(SimTime::ZERO - SimDuration::from_nanos(1), SimTime::ZERO);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{:?}", SimDuration::ZERO).is_empty());
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }
}
