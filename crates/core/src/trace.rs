//! Time-sliced history rings for model estimates and metrics.
//!
//! Measurement alignment (§3.2) compares a *series* of model estimates
//! against delayed meter readings, and recalibration needs the metric
//! vector that was live during each (re-aligned) measurement window. Both
//! need a bounded history of time-integrated values on a fixed grid;
//! [`TraceRing`] provides it.
//!
//! Interval queries are the alignment scan's inner loop, so the ring keeps
//! a lazily-maintained prefix-sum cursor over its slots: an interval
//! integral is two partial edge slots plus one prefix-sum difference,
//! `O(1)` amortized, instead of a walk over every covered slot. The scan
//! asks for the same sliding windows again after every few readings, so
//! the ring also remembers its last window series
//! ([`TraceRing::mean_over_wall_series`]) and re-queries only the windows
//! a later write may have changed.

use simkern::{SimDuration, SimTime};
use std::cell::{Ref, RefCell};
use std::collections::VecDeque;
use std::ops::{AddAssign, Mul, Range};

/// A bounded ring of per-slot time integrals on a fixed time grid.
///
/// `add(t, value, dt)` accumulates `value · dt` into the slot containing
/// `t`; queries return integrals (and covered seconds) over arbitrary
/// intervals, approximating partial slots by linear fraction.
///
/// # Example
///
/// ```
/// use power_containers::TraceRing;
/// use simkern::{SimDuration, SimTime};
///
/// let mut ring: TraceRing<f64> = TraceRing::new(SimDuration::from_millis(1), 100);
/// ring.add(SimTime::from_micros(500), 40.0, SimDuration::from_millis(1));
/// let (integral, secs) = ring.integral_between(SimTime::ZERO, SimTime::from_millis(1));
/// assert!((integral / secs - 40.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct TraceRing<T> {
    slot: SimDuration,
    capacity: usize,
    /// Index of the first retained slot.
    base: u64,
    values: VecDeque<(T, f64)>,
    /// Prefix-sum cursor, rebuilt lazily after out-of-order writes.
    cursor: RefCell<Cursor<T>>,
    /// The last window-mean series and the writes since it was read.
    series: RefCell<SeriesMemo<T>>,
}

/// Cached cumulative sums over the retained slots.
///
/// `cum[i]` is `anchor + Σ values[0..=i]`; only entries `0..cum.len()` are
/// valid (writes truncate the suffix they dirty). `anchor` carries the
/// total of evicted slots so entries never need rewriting on eviction:
/// window sums are differences of `cum` entries, which cancel it.
#[derive(Debug, Clone)]
struct Cursor<T> {
    cum: VecDeque<(T, f64)>,
    anchor: (T, f64),
}

/// The series [`TraceRing::mean_over_wall_series`] returned last.
///
/// Entry `j` is the mean over the window ending `j` steps of `step`
/// before `newest_end`. `dirty_from` is the lowest slot any write changed
/// since the entries were read (`u64::MAX` when none did).
#[derive(Debug, Clone)]
struct SeriesMemo<T> {
    width: SimDuration,
    step: SimDuration,
    newest_end: SimTime,
    means: Vec<Option<T>>,
    dirty_from: u64,
}

impl<T: Default + Copy + AddAssign + Mul<f64, Output = T>> TraceRing<T> {
    /// Creates a ring of `capacity` slots of length `slot`.
    ///
    /// A `capacity` of 0 keeps no history at all: [`TraceRing::add`]
    /// returns at once, and every query answers as an empty ring does.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is zero.
    pub fn new(slot: SimDuration, capacity: usize) -> TraceRing<T> {
        assert!(!slot.is_zero(), "slot length must be positive");
        TraceRing {
            slot,
            capacity,
            base: 0,
            values: VecDeque::new(),
            cursor: RefCell::new(Cursor { cum: VecDeque::new(), anchor: (T::default(), 0.0) }),
            series: RefCell::new(SeriesMemo {
                width: SimDuration::ZERO,
                step: SimDuration::ZERO,
                newest_end: SimTime::ZERO,
                means: Vec::new(),
                dirty_from: u64::MAX,
            }),
        }
    }

    /// The slot length.
    pub fn slot(&self) -> SimDuration {
        self.slot
    }

    fn slot_of(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.slot.as_nanos()
    }

    /// [`TraceRing::slot_of`] for a write. Nearly every write lands in
    /// the newest slot or the one after it, which the ring finds from
    /// the newest slot's start without dividing.
    fn slot_of_write(&self, t: SimTime) -> u64 {
        if !self.values.is_empty() {
            let newest = self.base + self.values.len() as u64 - 1;
            let slot_ns = self.slot.as_nanos();
            if let Some(into) = t.as_nanos().checked_sub(newest * slot_ns) {
                if into < slot_ns {
                    return newest;
                }
                if into - slot_ns < slot_ns {
                    return newest + 1;
                }
            }
        }
        self.slot_of(t)
    }

    /// Accumulates `value · dt` into the slot containing `t` (typically
    /// the *end* of the sampled interval; sampling periods are much
    /// shorter than slots, so the approximation is tight).
    pub fn add(&mut self, t: SimTime, value: T, dt: SimDuration) {
        if self.capacity == 0 {
            return;
        }
        let idx = self.slot_of_write(t.saturating_sub_for_slot(self.slot));
        let cursor = self.cursor.get_mut();
        // Growing forward turns the slots from here on from absent to
        // empty, which changes what a query over them returns.
        let old_end = self.base + self.values.len() as u64;
        // Grow forward to include idx.
        if self.values.is_empty() {
            self.base = idx;
            self.values.push_back((T::default(), 0.0));
        }
        while self.base + (self.values.len() as u64) <= idx {
            self.values.push_back((T::default(), 0.0));
            if self.values.len() > self.capacity {
                self.values.pop_front();
                self.base += 1;
                // Roll the evicted slot's total into the anchor so the
                // remaining prefix sums stay valid untouched.
                if let Some(front) = cursor.cum.pop_front() {
                    cursor.anchor = front;
                }
            }
        }
        if idx < self.base {
            return; // too old; history already evicted
        }
        let memo = self.series.get_mut();
        memo.dirty_from = memo.dirty_from.min(idx.min(old_end));
        let off = (idx - self.base) as usize;
        let secs = dt.as_secs_f64();
        let entry = &mut self.values[off];
        entry.0 += value * secs;
        entry.1 += secs;
        // The common case is a write to the newest slot; folding it into
        // the cursor keeps queries O(1) without ever rebuilding.
        if off + 1 == cursor.cum.len() {
            let back = cursor.cum.back_mut().expect("non-empty cum");
            back.0 += value * secs;
            back.1 += secs;
        } else {
            cursor.cum.truncate(off.min(cursor.cum.len()));
        }
    }

    /// Extends the cursor so slots `0..upto` have valid prefix sums.
    fn ensure_cum(&self, upto: usize) {
        let mut cursor = self.cursor.borrow_mut();
        if cursor.cum.len() >= upto {
            return;
        }
        if cursor.cum.is_empty() {
            cursor.anchor = (T::default(), 0.0);
        }
        let mut total = *cursor.cum.back().unwrap_or(&cursor.anchor);
        for i in cursor.cum.len()..upto {
            let (v, s) = self.values[i];
            total.0 += v;
            total.1 += s;
            cursor.cum.push_back(total);
        }
    }

    /// `cum[hi] − cum[lo]`: the exact sum of slots `lo+1..=hi`.
    fn cum_diff(&self, lo: usize, hi: usize) -> (T, f64) {
        let cursor = self.cursor.borrow();
        let (hv, hs) = cursor.cum[hi];
        let (lv, ls) = cursor.cum[lo];
        let mut v = hv;
        v += lv * -1.0;
        (v, hs - ls)
    }

    /// The integral and covered seconds over `[t0, t1)`, weighting partial
    /// slots by overlap fraction. Returns zeros when the interval predates
    /// retained history.
    pub fn integral_between(&self, t0: SimTime, t1: SimTime) -> (T, f64) {
        let mut total = T::default();
        let mut secs = 0.0;
        if t1 <= t0 || self.values.is_empty() {
            return (total, secs);
        }
        let slot_ns = self.slot.as_nanos();
        // Clamp to retained slots up front: queries anchored at old times
        // must not walk (or build sums for) evicted history.
        let first = self.slot_of(t0).max(self.base);
        let last = self
            .slot_of(t1 - SimDuration::from_nanos(1))
            .min(self.base + self.values.len() as u64 - 1);
        if first > last {
            return (total, secs);
        }
        let frac_of = |idx: u64| {
            let slot_start = idx * slot_ns;
            let slot_end = slot_start + slot_ns;
            let lo = slot_start.max(t0.as_nanos());
            let hi = slot_end.min(t1.as_nanos());
            (hi.saturating_sub(lo)) as f64 / slot_ns as f64
        };
        let off_first = (first - self.base) as usize;
        let off_last = (last - self.base) as usize;
        if off_first == off_last {
            let (v, s) = self.values[off_first];
            let frac = frac_of(first);
            total += v * frac;
            secs += s * frac;
            return (total, secs);
        }
        // First and last slots may be partial; everything between them is
        // covered in full and comes from the prefix-sum cursor.
        let (v, s) = self.values[off_first];
        let frac = frac_of(first);
        total += v * frac;
        secs += s * frac;
        if off_last - off_first >= 2 {
            self.ensure_cum(off_last);
            let (mv, ms) = self.cum_diff(off_first, off_last - 1);
            total += mv;
            secs += ms;
        }
        let (v, s) = self.values[off_last];
        let frac = frac_of(last);
        total += v * frac;
        secs += s * frac;
        (total, secs)
    }

    /// Average value over `[t0, t1)`, or `None` when (almost) no time was
    /// recorded there.
    pub fn average_between(&self, t0: SimTime, t1: SimTime) -> Option<T> {
        let (integral, secs) = self.integral_between(t0, t1);
        (secs > 1e-9).then(|| integral * (1.0 / secs))
    }

    /// The integral over `[t0, t1)` divided by the *wall-clock* length of
    /// the interval, treating unrecorded slots as zero. This is the right
    /// normalization for machine-level quantities built from per-core
    /// contributions (each core adds its own `value·dt`; idle cores add
    /// nothing).
    ///
    /// Returns `None` for an empty interval, an empty ring, or an
    /// interval that ends at or before the start of the first retained
    /// slot (evicted history). An interval that straddles the first
    /// retained slot averages its retained part over the full wall
    /// length, and one after the newest written slot is `Some(zero)`: a
    /// machine that recorded nothing there was idle.
    pub fn mean_over_wall(&self, t0: SimTime, t1: SimTime) -> Option<T> {
        if t1 <= t0 || self.values.is_empty() || self.ends_before_history(t1) {
            return None;
        }
        let (integral, _) = self.integral_between(t0, t1);
        let wall = t1.duration_since(t0).as_secs_f64();
        Some(integral * (1.0 / wall))
    }

    /// `true` when an interval ending at `t1` ends at or before the start
    /// of the first retained slot.
    fn ends_before_history(&self, t1: SimTime) -> bool {
        t1.as_nanos() <= self.base * self.slot.as_nanos()
    }

    /// [`TraceRing::mean_over_wall`] over `count` windows of length
    /// `width` whose ends step back from `newest_end`: entry `j` covers
    /// `[e − width, e)` with `e = newest_end − j·step`, both subtractions
    /// saturating at zero as `SimTime` arithmetic does. Every entry is bit
    /// for bit what a separate `mean_over_wall` call returns now.
    ///
    /// The ring remembers the series it returned last. When this call's
    /// windows are the remembered ones moved by whole steps, a remembered
    /// mean is reused while no write since it was read landed on a slot
    /// at or before the window's last slot, and the window's first slot
    /// is still retained. A write inside the window changes its sum; one
    /// before it rebuilds the prefix sums the mean came from, which can
    /// move its rounding; growing the ring counts as a write to each new
    /// slot. Windows that end before retained history are `None` without
    /// a query.
    ///
    /// # Panics
    ///
    /// Panics if the returned series is still borrowed when this is
    /// called again.
    pub fn mean_over_wall_series(
        &self,
        newest_end: SimTime,
        width: SimDuration,
        step: SimDuration,
        count: usize,
    ) -> Ref<'_, [Option<T>]> {
        {
            let mut memo = self.series.borrow_mut();
            let reuse = self.reusable(&memo, newest_end, width, step, count);
            let newest = newest_end.as_nanos();
            let retained_from = self.base * self.slot.as_nanos();
            // Entries from here on end at or before the first retained slot.
            let tail = match newest.checked_sub(retained_from) {
                Some(room) if !step.is_zero() => room.div_ceil(step.as_nanos()),
                Some(_) => u64::MAX,
                None => 0,
            };
            let fresh = |j: usize| {
                if j as u64 >= tail {
                    return None;
                }
                let end = newest_end - step * j as u64;
                self.mean_over_wall(end - width, end)
            };
            let means = &mut memo.means;
            match reuse {
                Some((kept, from)) => {
                    if means.len() < count {
                        means.resize(count, None);
                    }
                    means.copy_within(from..from + kept.len(), kept.start);
                    means.truncate(count);
                    for j in (0..kept.start).chain(kept.end..count) {
                        means[j] = fresh(j);
                    }
                }
                None => {
                    means.clear();
                    means.extend((0..count).map(fresh));
                }
            }
            memo.width = width;
            memo.step = step;
            memo.newest_end = newest_end;
            memo.dirty_from = u64::MAX;
        }
        Ref::map(self.series.borrow(), |m| m.means.as_slice())
    }

    /// The entries of the remembered series a call with these arguments
    /// may take over unchanged: the range of its own indices, and the
    /// remembered index the first of them maps to.
    fn reusable(
        &self,
        memo: &SeriesMemo<T>,
        newest_end: SimTime,
        width: SimDuration,
        step: SimDuration,
        count: usize,
    ) -> Option<(Range<usize>, usize)> {
        if memo.width != width || memo.step != step || step.is_zero() || memo.means.is_empty() {
            return None;
        }
        let step_ns = step.as_nanos();
        let moved = i128::from(newest_end.as_nanos()) - i128::from(memo.newest_end.as_nanos());
        if moved % i128::from(step_ns) != 0 {
            return None;
        }
        // This call's entry `j` is the remembered entry `j − shift`.
        let shift = moved / i128::from(step_ns);
        let newest = newest_end.as_nanos();
        let slot_ns = self.slot.as_nanos();
        // From entry `first` on, a window's last slot precedes every
        // write since the series was read...
        let clean_until = memo.dirty_from.saturating_mul(slot_ns);
        let first = newest.saturating_sub(clean_until).div_ceil(step_ns);
        // ...and up to entry `last`, its first slot is still retained.
        let retained_from = self.base * slot_ns;
        let last = if retained_from == 0 {
            u64::MAX
        } else {
            newest.checked_sub(width.as_nanos().checked_add(retained_from)?)? / step_ns
        };
        let lo = i128::from(first).max(shift);
        let hi = (i128::from(last) + 1)
            .min(shift + memo.means.len() as i128)
            .min(count as i128);
        (lo < hi).then(|| (lo as usize..hi as usize, (lo - shift) as usize))
    }

    /// The most recent `n` completed slot averages ending at the slot
    /// containing `now` (exclusive), most recent first. Slots with no
    /// recorded time yield `T::default()`.
    pub fn recent_series(&self, now: SimTime, n: usize) -> Vec<T> {
        let current = self.slot_of(now);
        let mut out = Vec::with_capacity(n);
        for k in 1..=n as u64 {
            if current < k {
                break;
            }
            let idx = current - k;
            let v = if idx >= self.base {
                self.values
                    .get((idx - self.base) as usize)
                    .map(|&(v, s)| if s > 1e-12 { v * (1.0 / s) } else { T::default() })
                    .unwrap_or_default()
            } else {
                T::default()
            };
            out.push(v);
        }
        out
    }
}

/// Helper so `add(t, ...)` attributes to the slot the interval *ended* in
/// rather than spilling into the next slot when `t` lands exactly on a
/// boundary.
trait SlotAnchor {
    fn saturating_sub_for_slot(self, slot: SimDuration) -> Self;
}

impl SlotAnchor for SimTime {
    fn saturating_sub_for_slot(self, slot: SimDuration) -> SimTime {
        let _ = slot;
        if self.as_nanos() == 0 {
            self
        } else {
            self - SimDuration::from_nanos(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> TraceRing<f64> {
        TraceRing::new(SimDuration::from_millis(1), 16)
    }

    #[test]
    fn single_slot_average() {
        let mut r = ring();
        r.add(SimTime::from_micros(300), 10.0, SimDuration::from_micros(300));
        r.add(SimTime::from_micros(900), 30.0, SimDuration::from_micros(600));
        let avg = r.average_between(SimTime::ZERO, SimTime::from_millis(1)).unwrap();
        // (10*0.3 + 30*0.6) / 0.9
        assert!((avg - 23.333333).abs() < 1e-3, "avg {avg}");
    }

    #[test]
    fn boundary_sample_lands_in_ending_slot() {
        let mut r = ring();
        r.add(SimTime::from_millis(1), 42.0, SimDuration::from_millis(1));
        let avg = r.average_between(SimTime::ZERO, SimTime::from_millis(1)).unwrap();
        assert!((avg - 42.0).abs() < 1e-9);
        assert!(r.average_between(SimTime::from_millis(1), SimTime::from_millis(2)).is_none());
    }

    #[test]
    fn multi_slot_query_sums_partials() {
        let mut r = ring();
        r.add(SimTime::from_micros(500), 10.0, SimDuration::from_millis(1));
        r.add(SimTime::from_micros(1500), 20.0, SimDuration::from_millis(1));
        // Query covering second half of slot 0 and first half of slot 1.
        let (integral, secs) =
            r.integral_between(SimTime::from_micros(500), SimTime::from_micros(1500));
        assert!((secs - 1e-3).abs() < 1e-9);
        assert!((integral - (10.0e-3 * 0.5 + 20.0e-3 * 0.5)).abs() < 1e-9);
    }

    #[test]
    fn eviction_forgets_old_slots() {
        let mut r = ring();
        r.add(SimTime::from_micros(100), 5.0, SimDuration::from_micros(100));
        for ms in 1..40u64 {
            r.add(
                SimTime::from_millis(ms) + SimDuration::from_micros(100),
                1.0,
                SimDuration::from_micros(100),
            );
        }
        let (_, secs) = r.integral_between(SimTime::ZERO, SimTime::from_millis(1));
        assert_eq!(secs, 0.0, "slot 0 must be evicted");
    }

    #[test]
    fn recent_series_is_most_recent_first() {
        let mut r = ring();
        for ms in 0..5u64 {
            r.add(
                SimTime::from_millis(ms) + SimDuration::from_micros(500),
                ms as f64,
                SimDuration::from_millis(1),
            );
        }
        let series = r.recent_series(SimTime::from_millis(5), 3);
        assert_eq!(series, vec![4.0, 3.0, 2.0]);
    }

    #[test]
    fn empty_interval_yields_none() {
        let r = ring();
        assert!(r.average_between(SimTime::ZERO, SimTime::from_millis(1)).is_none());
        let mut r2 = ring();
        r2.add(SimTime::from_micros(1), 1.0, SimDuration::from_micros(1));
        assert!(r2
            .average_between(SimTime::from_millis(5), SimTime::from_millis(6))
            .is_none());
    }

    #[test]
    fn works_with_metric_vectors() {
        use crate::metrics::MetricVector;
        let mut r: TraceRing<MetricVector> = TraceRing::new(SimDuration::from_millis(1), 8);
        let m = MetricVector { core: 1.0, ins: 2.0, ..MetricVector::default() };
        r.add(SimTime::from_micros(400), m, SimDuration::from_micros(400));
        let avg = r.average_between(SimTime::ZERO, SimTime::from_millis(1)).unwrap();
        assert!((avg.core - 1.0).abs() < 1e-9);
        assert!((avg.ins - 2.0).abs() < 1e-9);
    }

    /// Walk-based reference for [`TraceRing::integral_between`], the
    /// pre-cursor implementation.
    fn integral_walk(r: &TraceRing<f64>, t0: SimTime, t1: SimTime) -> (f64, f64) {
        let mut total = 0.0;
        let mut secs = 0.0;
        if t1 <= t0 || r.values.is_empty() {
            return (total, secs);
        }
        let slot_ns = r.slot.as_nanos();
        let first = r.slot_of(t0);
        let last = r.slot_of(t1 - SimDuration::from_nanos(1));
        for idx in first..=last {
            if idx < r.base {
                continue;
            }
            let off = (idx - r.base) as usize;
            let Some(&(v, s)) = r.values.get(off) else { continue };
            let slot_start = idx * slot_ns;
            let slot_end = slot_start + slot_ns;
            let lo = slot_start.max(t0.as_nanos());
            let hi = slot_end.min(t1.as_nanos());
            let frac = (hi.saturating_sub(lo)) as f64 / slot_ns as f64;
            total += v * frac;
            secs += s * frac;
        }
        (total, secs)
    }

    #[test]
    fn cursor_matches_walk_under_mixed_traffic() {
        // Deterministic mix of in-order writes, occasional out-of-order
        // writes (dirtying the cursor), evictions, and interleaved
        // queries of every shape.
        let mut r: TraceRing<f64> = TraceRing::new(SimDuration::from_millis(1), 16);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..400u64 {
            let t = SimTime::from_micros(step * 400 + rng() % 300);
            r.add(t, (rng() % 100) as f64, SimDuration::from_micros(100 + rng() % 400));
            if step % 7 == 0 && step > 20 {
                // Out-of-order write a few slots back.
                let back = SimTime::from_micros((step - 10) * 400);
                r.add(back, 3.0, SimDuration::from_micros(50));
            }
            if step % 3 == 0 {
                let a = rng() % (step * 400 + 1);
                let b = a + rng() % 5_000;
                let (t0, t1) = (SimTime::from_micros(a), SimTime::from_micros(b));
                let (fast_v, fast_s) = r.integral_between(t0, t1);
                let (ref_v, ref_s) = integral_walk(&r, t0, t1);
                assert!(
                    (fast_v - ref_v).abs() < 1e-9 && (fast_s - ref_s).abs() < 1e-12,
                    "step {step}: cursor ({fast_v}, {fast_s}) vs walk ({ref_v}, {ref_s})"
                );
            }
        }
    }

    #[test]
    fn write_slot_matches_division() {
        // Writes in order, into the next slot, across gaps, far back and
        // before evicted history, on rings of two slot lengths: the slot
        // found from the newest one always equals the quotient.
        for slot_ns in [1_000_000u64, 7] {
            let mut r: TraceRing<f64> = TraceRing::new(SimDuration::from_nanos(slot_ns), 16);
            let t = |ns: u64| SimTime::from_nanos(ns);
            assert_eq!(r.slot_of_write(t(5 * slot_ns)), 5, "empty ring");
            let mut state = 0x2545F4914F6CDD1Du64;
            let mut now = 0u64;
            for step in 0..2_000u64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                now += match step % 5 {
                    0 => 0,
                    1 => state % slot_ns,
                    2 => slot_ns - 1 + state % 3,
                    3 => state % (2 * slot_ns + 2),
                    _ => state % (40 * slot_ns),
                };
                let back = now.saturating_sub(state % (30 * slot_ns));
                for ns in [now, now + 1, back, now + 2 * slot_ns - 1, now + 2 * slot_ns] {
                    assert_eq!(
                        r.slot_of_write(t(ns)),
                        r.slot_of(t(ns)),
                        "slot {slot_ns} ns, t {ns} ns"
                    );
                }
                r.add(t(now), 1.0, SimDuration::from_nanos(1));
            }
        }
    }

    #[test]
    fn mean_over_wall_contract() {
        // Retain slots 10..=13 of a four-slot ring: 40 W in each.
        let mut r: TraceRing<f64> = TraceRing::new(SimDuration::from_millis(1), 4);
        for ms in 0..14u64 {
            r.add(SimTime::from_millis(ms + 1), 40.0, SimDuration::from_millis(1));
        }
        let ms = SimTime::from_millis;
        // Ends at or before the first retained slot: evicted history.
        assert_eq!(r.mean_over_wall(ms(7), ms(10)), None);
        assert_eq!(r.mean_over_wall(ms(9), ms(10)), None);
        // Straddles it: the retained part over the whole wall length.
        let straddle = r.mean_over_wall(ms(9), ms(11)).expect("straddles history");
        assert!((straddle - 20.0).abs() < 1e-9, "{straddle}");
        // After the newest slot: nothing recorded there, so idle.
        assert_eq!(r.mean_over_wall(ms(15), ms(20)), Some(0.0));
        // Empty intervals and empty rings have no mean.
        assert_eq!(r.mean_over_wall(ms(12), ms(12)), None);
        let empty: TraceRing<f64> = TraceRing::new(SimDuration::from_millis(1), 4);
        assert_eq!(empty.mean_over_wall(ms(0), ms(5)), None);
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let mut r: TraceRing<f64> = TraceRing::new(SimDuration::from_millis(1), 0);
        let empty: TraceRing<f64> = TraceRing::new(SimDuration::from_millis(1), 4);
        for ms in 0..20u64 {
            r.add(SimTime::from_millis(ms + 1), 40.0, SimDuration::from_millis(1));
        }
        assert!(r.values.is_empty());
        let ms = SimTime::from_millis;
        for (t0, t1) in [(ms(0), ms(5)), (ms(3), ms(30)), (ms(7), ms(7))] {
            assert_eq!(r.integral_between(t0, t1), empty.integral_between(t0, t1));
            assert_eq!(r.average_between(t0, t1), empty.average_between(t0, t1));
            assert_eq!(r.mean_over_wall(t0, t1), empty.mean_over_wall(t0, t1));
        }
        let step = SimDuration::from_millis(1);
        assert_eq!(
            r.mean_over_wall_series(ms(20), step * 4, step, 6).to_vec(),
            empty.mean_over_wall_series(ms(20), step * 4, step, 6).to_vec()
        );
        assert_eq!(r.recent_series(ms(20), 3), empty.recent_series(ms(20), 3));
    }

    #[test]
    fn query_before_history_is_cheap_and_zero() {
        // A ring whose base has advanced far: a query anchored at t=0 must
        // clamp to retained history rather than walking every slot since
        // the origin (and must still report nothing).
        let mut r = ring();
        let far = 1_000_000u64;
        r.add(SimTime::from_millis(far), 7.0, SimDuration::from_millis(1));
        let (v, s) = r.integral_between(SimTime::ZERO, SimTime::from_millis(1));
        assert_eq!(v, 0.0);
        assert_eq!(s, 0.0);
        let (v, s) = r.integral_between(SimTime::ZERO, SimTime::from_millis(far + 1));
        assert!((v - 7.0e-3).abs() < 1e-12);
        assert!((s - 1e-3).abs() < 1e-12);
    }
}
