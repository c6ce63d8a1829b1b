//! The dispatcher's wire-serial index.

use std::collections::VecDeque;

/// Wire serial → request id for the live serials: a window of slots
/// from the oldest live serial to the newest, indexed by a serial's
/// offset from the window's base. O(1) with no hashing or tombstone
/// churn on the dispatch/settle hot path. A serial lives from its send
/// to its reply, timeout or crash, so the window holds the serials of
/// the requests in flight rather than a slot for every serial the run
/// ever sent. `u64::MAX` marks a slot inside the window with no live
/// request; a serial outside the window (stale or never sent) misses
/// just as one inside it does.
pub(super) struct SerialMap {
    /// Serial of `slots[0]`.
    base: u64,
    slots: VecDeque<u64>,
}

impl SerialMap {
    const NONE: u64 = u64::MAX;

    pub(super) fn new() -> SerialMap {
        SerialMap { base: 0, slots: VecDeque::new() }
    }

    /// Maps `serial` to `req_id`. Serials are inserted fresh: each is
    /// newer than every serial inserted before it.
    #[inline]
    pub(super) fn insert(&mut self, serial: u64, req_id: u64) {
        if self.slots.is_empty() {
            self.base = serial;
        }
        let end = self.base + self.slots.len() as u64;
        assert!(serial >= end, "serial {serial} inserted behind the window's end {end}");
        // Serials skipped since the newest live one were never sent or
        // are no longer live.
        self.slots.resize((serial - self.base) as usize, Self::NONE);
        self.slots.push_back(req_id);
    }

    #[inline]
    pub(super) fn get(&self, serial: u64) -> Option<u64> {
        // A serial below the base wraps to an offset past the window.
        match self.slots.get(serial.wrapping_sub(self.base) as usize) {
            Some(&r) if r != Self::NONE => Some(r),
            _ => None,
        }
    }

    /// Unmaps `serial`, returning its request if it was live, and
    /// narrows the window to the live serials left at its ends.
    #[inline]
    pub(super) fn remove(&mut self, serial: u64) -> Option<u64> {
        let slot = self.slots.get_mut(serial.wrapping_sub(self.base) as usize)?;
        if *slot == Self::NONE {
            return None;
        }
        let req_id = std::mem::replace(slot, Self::NONE);
        while self.slots.front() == Some(&Self::NONE) {
            self.slots.pop_front();
            self.base += 1;
        }
        while self.slots.back() == Some(&Self::NONE) {
            self.slots.pop_back();
        }
        Some(req_id)
    }

    /// The oldest and newest serial the window spans, if any.
    #[cfg(test)]
    fn span(&self) -> Option<(u64, u64)> {
        let len = self.slots.len() as u64;
        (len > 0).then(|| (self.base, self.base + len - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::SerialMap;
    use proptest::prelude::*;

    /// The reference: a slot for every serial ever sent.
    #[derive(Default)]
    struct DenseSlab(Vec<Option<u64>>);

    impl DenseSlab {
        fn insert(&mut self, serial: u64, req_id: u64) {
            let i = serial as usize;
            if i >= self.0.len() {
                self.0.resize(i + 1, None);
            }
            self.0[i] = Some(req_id);
        }

        fn get(&self, serial: u64) -> Option<u64> {
            self.0.get(serial as usize).copied().flatten()
        }

        fn remove(&mut self, serial: u64) -> Option<u64> {
            self.0.get_mut(serial as usize).and_then(Option::take)
        }

        fn live(&self) -> Vec<u64> {
            (0..self.0.len() as u64).filter(|&s| self.get(s).is_some()).collect()
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Sends a fresh serial `skip` serials past the previous one;
        /// the skipped serials are never sent.
        Send { skip: u64 },
        /// Removes the serial `back` below the next fresh one: live,
        /// already removed or never sent.
        Remove { back: u64 },
        /// Removes every live serial, in an order drawn from `seed`.
        Drain { seed: u64 },
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..3).prop_map(|skip| Op::Send { skip }),
            (0u64..3).prop_map(|skip| Op::Send { skip }),
            (0u64..40).prop_map(|back| Op::Remove { back }),
            (0u64..40).prop_map(|back| Op::Remove { back }),
            any::<u64>().prop_map(|seed| Op::Drain { seed }),
        ]
    }

    proptest! {
        /// Every lookup and removal answers as a slot-per-serial slab
        /// does, and the window spans exactly the oldest live serial to
        /// the newest (nothing once all are removed).
        #[test]
        fn serial_map_matches_a_dense_slab(ops in prop::collection::vec(op(), 0..300)) {
            let (mut map, mut slab) = (SerialMap::new(), DenseSlab::default());
            let mut next = 0u64;
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Send { skip } => {
                        let serial = next + skip;
                        next = serial + 1;
                        let req_id = step as u64;
                        map.insert(serial, req_id);
                        slab.insert(serial, req_id);
                    }
                    Op::Remove { back } => {
                        let serial = next.saturating_sub(1 + back);
                        let (got, want) = (map.remove(serial), slab.remove(serial));
                        prop_assert_eq!(got, want, "remove {}", serial);
                    }
                    Op::Drain { seed } => {
                        let mut live = slab.live();
                        live.sort_by_key(|&s| (s ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                        for serial in live {
                            let (got, want) = (map.remove(serial), slab.remove(serial));
                            prop_assert_eq!(got, want, "drain {}", serial);
                        }
                    }
                }
                for serial in (0..next + 3).chain([u64::from(u32::MAX), u64::MAX]) {
                    let (got, want) = (map.get(serial), slab.get(serial));
                    prop_assert_eq!(got, want, "get {} after {:?}", serial, op);
                }
                let live = slab.live();
                let want = live.first().zip(live.last()).map(|(&lo, &hi)| (lo, hi));
                prop_assert_eq!(map.span(), want, "window after {:?}", op);
            }
        }
    }
}
