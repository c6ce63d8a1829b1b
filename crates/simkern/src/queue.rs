//! A stable timestamped event queue.
//!
//! Discrete-event simulations keep few events pending at a time — a
//! simulated kernel holds about one per busy core plus a few in-flight
//! deliveries and wake-ups — but push and pop them at a high rate, many
//! at the instant currently being drained (a core tick fires and its
//! handler schedules follow-up work at the same instant). The queue is
//! therefore one `Vec` kept sorted earliest-first, with the room of
//! popped entries left at its front: a pop moves an index, a push later
//! than everything pending appends, and any other push binary-searches
//! its slot and shifts the shorter side, into that room when it lies
//! nearer the front. No operation scans linearly and no entry carries a
//! sequence number.

use crate::SimTime;

/// A push drops the queue's popped room once it spans at least this many
/// entries and at least as many as are pending, so the room costs O(1)
/// amortized moves and never outgrows the pending events by much.
const ROOM: usize = 32;

/// A priority queue of `(SimTime, E)` pairs that pops events in
/// non-decreasing timestamp order.
///
/// Events that share a timestamp are popped in the order they were pushed
/// (FIFO), which keeps discrete-event simulations deterministic even when
/// many subsystems schedule work for the same instant.
///
/// Internally the pending entries are sorted by timestamp, earliest
/// first, behind the room popped entries left. A push goes behind every
/// entry at its own timestamp (in front of every later one); a pop takes
/// the first pending entry. Among equal timestamps the oldest push
/// therefore sits in front and pops first, so push position alone
/// carries the FIFO tie-break. A pop moves nothing, and neither does a
/// push at or after the latest pending timestamp, which appends, nor one
/// before the earliest, which takes the room the last pop left. Any
/// other push shifts the entries on its shorter side by one. Events are
/// small `Copy` handles (a kernel event is 16 bytes), so a pop copies its
/// entry out and leaves the slot as room.
///
/// # Example
///
/// ```
/// use simkern::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(1), "a");
/// q.push(SimTime::from_millis(1), "b");
/// q.push(SimTime::ZERO, "first");
///
/// assert_eq!(q.pop().unwrap().1, "first");
/// assert_eq!(q.pop().unwrap().1, "a");
/// assert_eq!(q.pop().unwrap().1, "b");
/// assert!(q.pop().is_none());
/// ```
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Popped room, then the pending events from `head` on, earliest
    /// timestamp first; equal timestamps oldest push first.
    entries: Vec<(SimTime, E)>,
    /// Index of the next event to pop.
    head: usize,
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            entries: Vec::new(),
            head: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        if self.head == self.entries.len() {
            self.entries.clear();
            self.head = 0;
        } else if self.head >= ROOM && 2 * self.head >= self.entries.len() {
            self.entries.drain(..self.head);
            self.head = 0;
        }
        let pending = &self.entries[self.head..];
        if pending.last().is_none_or(|&(t, _)| t <= at) {
            // At or after every pending event, as nearly every core tick
            // in calibration is.
            self.entries.push((at, event));
        } else if self.head > 0 && pending[0].0 > at {
            // Before every pending event: into the room the last pop left.
            self.head -= 1;
            self.entries[self.head] = (at, event);
        } else {
            // Every pending entry was pushed earlier, so the new one
            // sorts after all entries at its timestamp: it goes right in
            // front of the strictly later ones.
            let slot = self.head + pending.partition_point(|&(t, _)| t <= at);
            if self.head > 0 && slot - self.head <= self.entries.len() - slot {
                self.entries.copy_within(self.head..slot, self.head - 1);
                self.head -= 1;
                self.entries[slot - 1] = (at, event);
            } else {
                self.entries.insert(slot, (at, event));
            }
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let next = *self.entries.get(self.head)?;
        self.head += 1;
        Some(next)
    }

    /// Removes and returns the earliest event if its timestamp is at or
    /// before `t_end`. A fused `peek_time` + `pop` for simulation run
    /// loops.
    pub fn pop_if_at_or_before(&mut self, t_end: SimTime) -> Option<(SimTime, E)> {
        let next = *self.entries.get(self.head)?;
        if next.0 > t_end {
            return None;
        }
        self.head += 1;
        Some(next)
    }

    /// Removes and returns every event with a timestamp at or before `t`,
    /// in pop order. Batched variant of [`EventQueue::pop`] for callers
    /// that advance simulated time in strides.
    pub fn pop_until(&mut self, t: SimTime) -> Vec<(SimTime, E)> {
        let mut out = Vec::new();
        while let Some(ev) = self.pop_if_at_or_before(t) {
            out.push(ev);
        }
        out
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.entries.get(self.head).map(|&(t, _)| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.entries.len() - self.head
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.head == self.entries.len()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(&self.entries[self.head..]).finish()
    }
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

impl<E: Copy> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (at, event) in iter {
            self.push(at, event);
        }
    }
}

impl<E: Copy> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> EventQueue<E> {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3), 3);
        q.push(SimTime::from_millis(1), 1);
        q.push(SimTime::from_millis(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_millis(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(5), ());
        q.push(SimTime::from_micros(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
        let (t, ()) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(2));
    }

    #[test]
    fn len_and_clear() {
        let mut q: EventQueue<u8> = (0..5).map(|i| (SimTime::from_nanos(i), i as u8)).collect();
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "c");
        q.push(SimTime::from_nanos(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_nanos(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn same_instant_cascade_stays_fifo() {
        // A handler that pushes follow-up work at the instant being
        // drained must see it pop after everything already queued there.
        let t = SimTime::from_millis(4);
        let mut q = EventQueue::new();
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        q.push(t, 2); // cascade push queues behind `1`
        q.push(SimTime::from_millis(9), 9);
        q.push(t, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 9]);
    }

    #[test]
    fn earlier_push_preempts_the_instant_being_drained() {
        let t = SimTime::from_millis(4);
        let mut q = EventQueue::new();
        q.push(t, "x");
        q.push(t, "y");
        assert_eq!(q.pop(), Some((t, "x")));
        // A straggler scheduled before the instant being drained must
        // still pop first.
        q.push(SimTime::from_millis(1), "early");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "early")));
        assert_eq!(q.pop(), Some((t, "y")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn groups_drain_in_push_order() {
        let mut q = EventQueue::new();
        for round in 0..3u64 {
            let t = SimTime::from_millis(round);
            for i in 0..10 {
                q.push(t, (round, i));
            }
        }
        for round in 0..3u64 {
            for i in 0..10 {
                assert_eq!(q.pop(), Some((SimTime::from_millis(round), (round, i))));
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn pop_if_at_or_before_respects_bound() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(2), "late");
        q.push(SimTime::from_millis(1), "ok");
        assert_eq!(q.pop_if_at_or_before(SimTime::from_millis(1)), Some((SimTime::from_millis(1), "ok")));
        assert_eq!(q.pop_if_at_or_before(SimTime::from_millis(1)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_if_at_or_before(SimTime::from_millis(2)), Some((SimTime::from_millis(2), "late")));
    }

    #[test]
    fn pop_until_drains_in_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3), 3);
        q.push(SimTime::from_millis(1), 1);
        q.push(SimTime::from_millis(1), 10);
        q.push(SimTime::from_millis(2), 2);
        q.push(SimTime::from_millis(5), 5);
        let drained = q.pop_until(SimTime::from_millis(3));
        let events: Vec<i32> = drained.iter().map(|&(_, e)| e).collect();
        assert_eq!(events, vec![1, 10, 2, 3]);
        assert!(drained.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pushes_before_a_far_timer_keep_the_room_bounded() {
        // A sleeper far in the future and four cores ticking in front of
        // it: every push lands between pending events, nothing appends,
        // and the popped room is still dropped as it grows.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3600), u64::MAX);
        for core in 0..4 {
            q.push(SimTime::from_micros(core), core);
        }
        for i in 4..100_000u64 {
            let (t, core) = q.pop().expect("a tick is pending");
            assert_eq!(t, SimTime::from_micros(i - 4));
            assert_eq!(core, (i - 4) % 4);
            q.push(SimTime::from_micros(i), i % 4);
            assert!(
                q.entries.len() <= 2 * ROOM + q.len(),
                "room grew to {}",
                q.entries.len()
            );
        }
        assert_eq!(q.len(), 5);
        assert_eq!(
            q.entries.last(),
            Some(&(SimTime::from_secs(3600), u64::MAX))
        );
    }

    #[test]
    fn pushes_near_the_front_shift_into_the_room() {
        let ms = SimTime::from_millis;
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.push(ms(10 + i), i);
        }
        assert_eq!(q.pop(), Some((ms(10), 0)));
        assert_eq!(q.pop(), Some((ms(11), 1)));
        // Behind the front entry, before the rest: shifts one entry left.
        q.push(ms(12), 100);
        // Before every pending entry: takes the room.
        q.push(ms(5), 101);
        // Near the back: shifts the later entries right.
        q.push(ms(16), 102);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![101, 2, 100, 3, 4, 5, 6, 102, 7]);
    }

    #[test]
    fn len_counts_every_pending_event() {
        let t = SimTime::from_millis(1);
        let mut q = EventQueue::new();
        q.push(t, 0);
        q.push(t, 1);
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 0)));
        q.push(SimTime::from_millis(2), 3);
        assert_eq!(q.len(), 3);
        q.clear();
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
    }
}
