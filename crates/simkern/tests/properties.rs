//! Property-based tests for the simulation kernel primitives.

use proptest::prelude::*;
use simkern::{EventQueue, SimDuration, SimRng, SimTime};

proptest! {
    /// Pops always come out in non-decreasing timestamp order, regardless
    /// of push order.
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last, "out of order: {t} after {last}");
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Events with equal timestamps preserve push order (stability).
    #[test]
    fn event_queue_is_stable(groups in prop::collection::vec(0u64..50, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &g) in groups.iter().enumerate() {
            q.push(SimTime::from_nanos(g), i);
        }
        let mut last_per_time: std::collections::HashMap<u64, usize> = Default::default();
        while let Some((t, i)) = q.pop() {
            if let Some(&prev) = last_per_time.get(&t.as_nanos()) {
                prop_assert!(i > prev, "instability within timestamp {t}");
            }
            last_per_time.insert(t.as_nanos(), i);
        }
    }

    /// Random interleavings of `push`, `pop` and `pop_if_at_or_before`
    /// match a reference that always pops the minimum (time, push index).
    /// Push times are offsets from the instant last popped, so cases mix
    /// same-instant cascades (offset 0), stragglers earlier than the
    /// instant being drained (negative offsets) and, at high push
    /// weights, backlogs of a few hundred events.
    #[test]
    fn event_queue_matches_reference_model(
        ops in prop::collection::vec((0u8..10, -3i64..12), 1..400),
        push_weight in 2u8..9,
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(SimTime, usize)> = Vec::new();
        let mut pushed = 0usize;
        let mut now = 1_000i64;
        for (kind, offset) in ops {
            let at = SimTime::from_nanos((now + offset) as u64);
            if kind < push_weight {
                q.push(at, pushed);
                model.push((at, pushed));
                pushed += 1;
            } else {
                // Odd kinds pop unconditionally, even kinds only up to `at`.
                let bound = (kind % 2 == 0).then_some(at);
                let got = match bound {
                    Some(b) => q.pop_if_at_or_before(b),
                    None => q.pop(),
                };
                let min = (0..model.len()).min_by_key(|&i| model[i]);
                let want = min
                    .filter(|&i| bound.is_none_or(|b| model[i].0 <= b))
                    .map(|i| model.remove(i));
                prop_assert_eq!(got, want);
                if let Some((t, _)) = got {
                    now = t.as_nanos() as i64;
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time(), model.iter().map(|e| e.0).min());
        }
        model.sort();
        let rest: Vec<(SimTime, usize)> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(rest, model);
    }

    /// Time arithmetic round-trips: (t + d) - t == d.
    #[test]
    fn time_add_sub_round_trip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(t);
        let d = SimDuration::from_nanos(d);
        prop_assert_eq!((t + d).duration_since(t), d);
        prop_assert_eq!((t + d) - d, t);
    }

    /// Durations scale consistently: mul_f64 by a rational matches
    /// integer arithmetic within rounding.
    #[test]
    fn duration_scaling_consistent(ns in 1u64..1_000_000_000, k in 1u64..16) {
        let d = SimDuration::from_nanos(ns);
        let scaled = d.mul_f64(k as f64);
        prop_assert_eq!(scaled, d * k);
    }

    /// Uniform draws respect their bounds.
    #[test]
    fn rng_uniform_in_bounds(seed in any::<u64>(), lo in -1e6f64..1e6, width in 0.0f64..1e6) {
        let mut rng = SimRng::new(seed);
        let hi = lo + width;
        for _ in 0..32 {
            let x = rng.uniform(lo, hi);
            prop_assert!(x >= lo && (x < hi || width == 0.0), "{x} outside [{lo},{hi})");
        }
    }

    /// `next_below` never reaches its bound and the stream is
    /// reproducible from the seed.
    #[test]
    fn rng_bounded_and_reproducible(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            let x = a.next_below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.next_below(bound));
        }
    }

    /// Splitting by distinct labels yields streams that differ somewhere
    /// early (collision would break workload independence).
    #[test]
    fn rng_split_labels_distinct(seed in any::<u64>(), l1 in 0u64..1000, l2 in 0u64..1000) {
        prop_assume!(l1 != l2);
        let parent = SimRng::new(seed);
        let mut a = parent.split(l1);
        let mut b = parent.split(l2);
        let same = (0..16).all(|_| a.next_u64() == b.next_u64());
        prop_assert!(!same, "distinct labels produced identical streams");
    }

    /// Exponential samples are non-negative and finite.
    #[test]
    fn rng_exponential_valid(seed in any::<u64>(), mean in 1e-6f64..1e6) {
        let mut rng = SimRng::new(seed);
        for _ in 0..16 {
            let x = rng.exponential(mean);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }
}

/// Non-negative nanosecond or cycle counts, weighted to the edges of
/// [`SimDuration::covering_nanos`]: zero, subnormals, the neighbours of
/// 2^53 (where every larger `f64` is integral), the neighbours of 2^64
/// (where the cast to `u64` saturates), values far past it, infinity,
/// and the ordinary range of a tick deadline.
fn edge_nanos() -> impl Strategy<Value = f64> {
    let near = |x: f64| {
        (-2_000i64..=2_000).prop_map(move |k| f64::from_bits((x.to_bits() as i64 + k) as u64))
    };
    prop_oneof![
        Just(0.0),
        (1u64..1 << 52).prop_map(f64::from_bits),
        near((1u64 << 53) as f64),
        near(u64::MAX as f64),
        1e20f64..1e300,
        Just(f64::MAX),
        Just(f64::INFINITY),
        0.0f64..1e7,
        1e7f64..1e16,
    ]
}

/// Finite positive rates, from subnormal through ordinary clock rates
/// in GHz to the largest `f64`.
fn edge_rate() -> impl Strategy<Value = f64> {
    prop_oneof![
        (1u64..1 << 52).prop_map(f64::from_bits),
        Just(f64::MIN_POSITIVE),
        1e-300f64..1e-3,
        0.1f64..10.0,
        1e3f64..1e300,
        Just(f64::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// Dividing by a positive rate and `covering_nanos` are both
    /// monotone, so the deadline of the nearer of two cycle counts is
    /// the nearer of their two deadlines, bit for bit: one division
    /// instead of two. `b` is drawn independently or as a close
    /// neighbour of `a`, so both orders and near-ties occur.
    #[test]
    fn covering_nanos_of_the_smaller_count_is_the_nearer_deadline(
        a in edge_nanos(),
        b in edge_nanos(),
        step in prop_oneof![Just(None), (-3i64..=3).prop_map(Some)],
        rate in edge_rate(),
    ) {
        let b = match step {
            Some(k) => f64::from_bits((a.to_bits() as i64 + k).max(0) as u64),
            None => b,
        };
        prop_assume!(b >= 0.0);
        let cover = SimDuration::covering_nanos;
        prop_assert_eq!(
            cover(a.min(b) / rate),
            cover(a / rate).min(cover(b / rate)),
            "a = {:e}, b = {:e}, rate = {:e}", a, b, rate
        );
    }
}
