//! Property-based tests of the simulation substrate against reference
//! models.

use std::collections::BTreeSet;

use proptest::prelude::*;
use vr_simcore::bitset::BitSet;
use vr_simcore::event::EventQueue;
use vr_simcore::rng::SimRng;
use vr_simcore::series::TimeSeries;
use vr_simcore::stats::{percentile, OnlineStats};
use vr_simcore::time::{SimSpan, SimTime};

proptest! {
    /// Model-based check of the sweep-set type: random insert / remove /
    /// clear sequences on two sets behave exactly like `BTreeSet<u32>` —
    /// same return values, membership, length, emptiness and ascending
    /// `iter` after every step, and the same `union` at the end.
    #[test]
    fn bitset_matches_btreeset_model(
        capacity in 1usize..300,
        ops in prop::collection::vec((any::<bool>(), 0u8..16, 0u32..300), 1..400),
    ) {
        let mut sets = [BitSet::new(capacity), BitSet::new(capacity)];
        let mut models = [BTreeSet::new(), BTreeSet::new()];
        for (second, op, id) in ops {
            let k = usize::from(second);
            let id = id % capacity as u32;
            match op {
                // Clears are rare so sets grow large between them.
                0 => {
                    sets[k].clear();
                    models[k].clear();
                }
                1..=9 => prop_assert_eq!(sets[k].insert(id), models[k].insert(id)),
                _ => prop_assert_eq!(sets[k].remove(id), models[k].remove(&id)),
            }
            prop_assert_eq!(sets[k].contains(id), models[k].contains(&id));
            prop_assert_eq!(sets[k].len(), models[k].len());
            prop_assert_eq!(sets[k].is_empty(), models[k].is_empty());
            let got: Vec<u32> = sets[k].iter().collect();
            let want: Vec<u32> = models[k].iter().copied().collect();
            prop_assert_eq!(got, want);
        }
        let got: Vec<u32> = sets[0].union(&sets[1]).collect();
        let want: Vec<u32> = models[0].union(&models[1]).copied().collect();
        prop_assert_eq!(got, want);
    }

    /// The event queue pops in exactly the order a stable sort by
    /// (time, insertion index) would produce.
    #[test]
    fn queue_matches_stable_sort(times in prop::collection::vec(0u64..1_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(*t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, t)| (*t, i)).collect();
        expected.sort(); // stable by (time, seq)
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_micros(), i))).collect();
        prop_assert_eq!(got, expected);
    }

    /// Model-based check: random interleavings of schedule/pop/peek behave
    /// exactly like a naive sorted-`Vec` reference model.
    #[test]
    fn queue_matches_vec_model(ops in prop::collection::vec((0u8..3, 0u64..500u64), 1..300)) {
        let mut q = EventQueue::new();
        // Reference model: pending events as (time, seq, payload), scanned
        // linearly for the (time, seq) minimum.
        let mut model: Vec<(u64, u64, usize)> = Vec::new();
        let mut next_payload = 0usize;
        for (op, arg) in ops {
            match op {
                0 => {
                    q.schedule(SimTime::from_micros(arg), next_payload);
                    model.push((arg, next_payload as u64, next_payload));
                    next_payload += 1;
                }
                1 => {
                    let expected = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(t, s, _))| (t, s))
                        .map(|(i, _)| i);
                    let expected = expected.map(|i| {
                        let (t, _, p) = model.remove(i);
                        (SimTime::from_micros(t), p)
                    });
                    prop_assert_eq!(q.pop(), expected);
                }
                _ => {
                    let expected = model.iter().map(|&(t, s, _)| (t, s)).min().map(|(t, _)| {
                        SimTime::from_micros(t)
                    });
                    prop_assert_eq!(q.peek_time(), expected);
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        // Drain: whatever is left pops in exact (time, seq) order.
        model.sort_by_key(|&(t, s, _)| (t, s));
        let drained: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, p)| (t.as_micros(), p))).collect();
        let expected: Vec<(u64, usize)> = model.iter().map(|&(t, _, p)| (t, p)).collect();
        prop_assert_eq!(drained, expected);
    }

    /// Calendar-specific model check: scheduled times span many bucket
    /// rotations of the calendar queue and repeat exactly, so one sequence
    /// of operations drives equal-key FIFO ordering, same-bucket slot
    /// collisions (times one full rotation apart), cursor rewinds
    /// (scheduling earlier than the last pop) and the sparse far-future
    /// jump — all against the naive sorted-Vec model.
    #[test]
    fn calendar_queue_matches_vec_model_across_rotations(
        ops in prop::collection::vec((0u8..3, 0u64..u64::MAX), 1..400)
    ) {
        // Slot width and rotation period of the calendar layout (1024
        // buckets of 2^20 µs); exercised as plain times here — the queue's
        // observable contract stays pure (time, seq) ordering.
        const W: u64 = 1 << 20;
        const ROT: u64 = 1024 * W;
        const TIMES: [u64; 12] = [
            0,
            5,
            5, // exact duplicate: FIFO tie-break
            W - 1,
            W, // adjacent slots
            3 * W + 7,
            ROT + 5,     // same bucket as 5, one rotation later
            ROT + 5,     // duplicate of the collision too
            2 * ROT + 3 * W + 7, // same bucket as 3W+7, two rotations later
            7 * ROT + 1, // sparse far future: forces the min-scan jump
            19 * ROT + W + 9,
            19 * ROT + W + 9,
        ];
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64, usize)> = Vec::new();
        let mut next_payload = 0usize;
        for (op, arg) in ops {
            match op {
                0 => {
                    let time = TIMES[(arg % TIMES.len() as u64) as usize];
                    q.schedule(SimTime::from_micros(time), next_payload);
                    model.push((time, next_payload as u64, next_payload));
                    next_payload += 1;
                }
                1 => {
                    let expected = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(t, s, _))| (t, s))
                        .map(|(i, _)| i);
                    let expected = expected.map(|i| {
                        let (t, _, p) = model.remove(i);
                        (SimTime::from_micros(t), p)
                    });
                    prop_assert_eq!(q.pop(), expected);
                }
                _ => {
                    let expected = model.iter().map(|&(t, s, _)| (t, s)).min().map(|(t, _)| {
                        SimTime::from_micros(t)
                    });
                    prop_assert_eq!(q.peek_time(), expected);
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        model.sort_by_key(|&(t, s, _)| (t, s));
        let drained: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, p)| (t.as_micros(), p))).collect();
        let expected: Vec<(u64, usize)> = model.iter().map(|&(t, _, p)| (t, p)).collect();
        prop_assert_eq!(drained, expected);
    }

    /// Welford statistics agree with the naive two-pass computation.
    #[test]
    fn welford_matches_naive(values in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let acc: OnlineStats = values.iter().copied().collect();
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((acc.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((acc.population_variance() - var).abs() <= 1e-4 * (1.0 + var));
        prop_assert_eq!(acc.count(), values.len() as u64);
    }

    /// Merging arbitrary splits equals sequential accumulation.
    #[test]
    fn welford_merge_is_associative(
        values in prop::collection::vec(-1e3f64..1e3, 2..200),
        split in 0usize..200,
    ) {
        let split = split % values.len();
        let sequential: OnlineStats = values.iter().copied().collect();
        let mut left: OnlineStats = values[..split].iter().copied().collect();
        let right: OnlineStats = values[split..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), sequential.count());
        prop_assert!((left.mean() - sequential.mean()).abs() < 1e-9);
        prop_assert!(
            (left.population_variance() - sequential.population_variance()).abs() < 1e-6
        );
    }

    /// Percentiles are monotone in the quantile and bounded by min/max.
    #[test]
    fn percentiles_are_monotone(mut values in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        let ps: Vec<f64> = qs.iter().map(|q| percentile(&values, *q)).collect();
        for w in ps.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        prop_assert!(ps[0] >= values[0] - 1e-12);
        prop_assert!(*ps.last().unwrap() <= values[values.len() - 1] + 1e-12);
    }

    /// Resampling at the original interval reproduces the sample average,
    /// and any resampling stays within the series' min/max.
    #[test]
    fn resample_is_bounded(values in prop::collection::vec(0.0f64..1e6, 2..200)) {
        let series: TimeSeries = values
            .iter()
            .enumerate()
            .map(|(i, v)| (SimTime::from_secs(i as u64), *v))
            .collect();
        let identical = series.resample(SimSpan::from_secs(1));
        prop_assert!((identical.sample_average() - series.sample_average()).abs() < 1e-9);
        let coarse = series.resample(SimSpan::from_secs(7));
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(coarse.sample_average() >= lo - 1e-9);
        prop_assert!(coarse.sample_average() <= hi + 1e-9);
    }

    /// Forked RNG streams are reproducible and uncorrelated with their
    /// siblings.
    #[test]
    fn rng_forks_reproduce(seed in any::<u64>(), stream in 0u64..1_000) {
        let parent = SimRng::seed_from(seed);
        let mut a = parent.fork(stream);
        let mut b = parent.fork(stream);
        let mut c = parent.fork(stream.wrapping_add(1));
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        prop_assert_eq!(&xs, &ys);
        prop_assert_ne!(&xs, &zs);
    }

    /// Jittered values stay within the configured band.
    #[test]
    fn jitter_stays_in_band(
        seed in any::<u64>(),
        value in 1e-3f64..1e6,
        spread in 0.0f64..0.99,
    ) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..32 {
            let v = rng.jitter(value, spread);
            prop_assert!(v >= value * (1.0 - spread) - 1e-9);
            prop_assert!(v <= value * (1.0 + spread) + 1e-9);
        }
    }
}
