//! Property-based tests of the simulation substrate against reference
//! models. Case `i` of a property draws its inputs from
//! `SimRng::seed_from(K).fork(i)`, so every run explores the same inputs.

use std::collections::BTreeSet;

use vr_simcore::bitset::BitSet;
use vr_simcore::event::EventQueue;
use vr_simcore::rng::SimRng;
use vr_simcore::series::TimeSeries;
use vr_simcore::stats::{percentile, OnlineStats};
use vr_simcore::time::{SimSpan, SimTime};

/// Model-based check of the sweep-set type: random insert / remove /
/// clear sequences on two sets behave exactly like `BTreeSet<u32>` —
/// same return values, membership, length, emptiness and ascending
/// `iter` after every step, and the same `union` at the end.
#[test]
fn bitset_matches_btreeset_model() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(1).fork(case);
        let capacity = 1 + rng.index(299);
        let ops: Vec<(bool, usize, usize)> = (0..1 + rng.index(399))
            .map(|_| (rng.next_u64() & 1 == 1, rng.index(16), rng.index(300)))
            .collect();
        let mut sets = [BitSet::new(capacity), BitSet::new(capacity)];
        let mut models = [BTreeSet::new(), BTreeSet::new()];
        for (second, op, id) in ops {
            let k = usize::from(second);
            let id = (id % capacity) as u32;
            match op {
                // Clears are rare so sets grow large between them.
                0 => {
                    sets[k].clear();
                    models[k].clear();
                }
                1..=9 => assert_eq!(sets[k].insert(id), models[k].insert(id)),
                _ => assert_eq!(sets[k].remove(id), models[k].remove(&id)),
            }
            assert_eq!(sets[k].contains(id), models[k].contains(&id));
            assert_eq!(sets[k].len(), models[k].len());
            assert_eq!(sets[k].is_empty(), models[k].is_empty());
            let got: Vec<u32> = sets[k].iter().collect();
            let want: Vec<u32> = models[k].iter().copied().collect();
            assert_eq!(got, want);
        }
        let got: Vec<u32> = sets[0].union(&sets[1]).collect();
        let want: Vec<u32> = models[0].union(&models[1]).copied().collect();
        assert_eq!(got, want);
    }
}

/// The event queue pops in exactly the order a stable sort by
/// (time, insertion index) would produce.
#[test]
fn queue_matches_stable_sort() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(2).fork(case);
        let times: Vec<u64> = (0..rng.index(200))
            .map(|_| rng.index(1_000) as u64)
            .collect();
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(*t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, t)| (*t, i)).collect();
        expected.sort(); // stable by (time, seq)
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_micros(), i))).collect();
        assert_eq!(got, expected);
    }
}

/// Model-based check: random interleavings of schedule/pop/peek behave
/// exactly like a naive sorted-`Vec` reference model.
#[test]
fn queue_matches_vec_model() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(3).fork(case);
        let ops: Vec<(usize, u64)> = (0..1 + rng.index(299))
            .map(|_| (rng.index(3), rng.index(500) as u64))
            .collect();
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
                    assert_eq!(q.pop(), expected);
                }
                _ => {
                    let expected = model
                        .iter()
                        .map(|&(t, s, _)| (t, s))
                        .min()
                        .map(|(t, _)| SimTime::from_micros(t));
                    assert_eq!(q.peek_time(), expected);
                }
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.is_empty(), model.is_empty());
        }
        // Drain: whatever is left pops in exact (time, seq) order.
        model.sort_by_key(|&(t, s, _)| (t, s));
        let drained: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, p)| (t.as_micros(), p))).collect();
        let expected: Vec<(u64, usize)> = model.iter().map(|&(t, _, p)| (t, p)).collect();
        assert_eq!(drained, expected);
    }
}

/// Calendar-specific model check: scheduled times span many bucket
/// rotations of the calendar queue and repeat exactly, so one sequence
/// of operations drives equal-key FIFO ordering, same-bucket slot
/// collisions (times one full rotation apart), cursor rewinds
/// (scheduling earlier than the last pop) and the sparse far-future
/// jump — all against the naive sorted-Vec model.
#[test]
fn calendar_queue_matches_vec_model_across_rotations() {
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
        ROT + 5,             // same bucket as 5, one rotation later
        ROT + 5,             // duplicate of the collision too
        2 * ROT + 3 * W + 7, // same bucket as 3W+7, two rotations later
        7 * ROT + 1,         // sparse far future: forces the min-scan jump
        19 * ROT + W + 9,
        19 * ROT + W + 9,
    ];
    for case in 0..256 {
        let mut rng = SimRng::seed_from(4).fork(case);
        let ops: Vec<(usize, u64)> = (0..1 + rng.index(399))
            .map(|_| (rng.index(3), rng.next_u64() % u64::MAX))
            .collect();
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
                    assert_eq!(q.pop(), expected);
                }
                _ => {
                    let expected = model
                        .iter()
                        .map(|&(t, s, _)| (t, s))
                        .min()
                        .map(|(t, _)| SimTime::from_micros(t));
                    assert_eq!(q.peek_time(), expected);
                }
            }
            assert_eq!(q.len(), model.len());
        }
        model.sort_by_key(|&(t, s, _)| (t, s));
        let drained: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, p)| (t.as_micros(), p))).collect();
        let expected: Vec<(u64, usize)> = model.iter().map(|&(t, _, p)| (t, p)).collect();
        assert_eq!(drained, expected);
    }
}

/// Welford statistics agree with the naive two-pass computation.
#[test]
fn welford_matches_naive() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(5).fork(case);
        let values: Vec<f64> = (0..1 + rng.index(299))
            .map(|_| rng.uniform_range(-1e6, 1e6))
            .collect();
        let acc: OnlineStats = values.iter().copied().collect();
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((acc.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        assert!((acc.population_variance() - var).abs() <= 1e-4 * (1.0 + var));
        assert_eq!(acc.count(), values.len() as u64);
    }
}

/// Merging arbitrary splits equals sequential accumulation.
#[test]
fn welford_merge_is_associative() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(6).fork(case);
        let values: Vec<f64> = (0..2 + rng.index(198))
            .map(|_| rng.uniform_range(-1e3, 1e3))
            .collect();
        let split = rng.index(200) % values.len();
        let sequential: OnlineStats = values.iter().copied().collect();
        let mut left: OnlineStats = values[..split].iter().copied().collect();
        let right: OnlineStats = values[split..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), sequential.count());
        assert!((left.mean() - sequential.mean()).abs() < 1e-9);
        assert!((left.population_variance() - sequential.population_variance()).abs() < 1e-6);
    }
}

/// Percentiles are monotone in the quantile and bounded by min/max.
#[test]
fn percentiles_are_monotone() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(7).fork(case);
        let mut values: Vec<f64> = (0..1 + rng.index(99))
            .map(|_| rng.uniform_range(-1e6, 1e6))
            .collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        let ps: Vec<f64> = qs.iter().map(|q| percentile(&values, *q)).collect();
        for w in ps.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        assert!(ps[0] >= values[0] - 1e-12);
        assert!(*ps.last().unwrap() <= values[values.len() - 1] + 1e-12);
    }
}

/// Resampling at the original interval reproduces the sample average,
/// and any resampling stays within the series' min/max.
#[test]
fn resample_is_bounded() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(8).fork(case);
        let values: Vec<f64> = (0..2 + rng.index(198))
            .map(|_| rng.uniform_range(0.0, 1e6))
            .collect();
        let series: TimeSeries = values
            .iter()
            .enumerate()
            .map(|(i, v)| (SimTime::from_secs(i as u64), *v))
            .collect();
        let identical = series.resample(SimSpan::from_secs(1));
        assert!((identical.sample_average() - series.sample_average()).abs() < 1e-9);
        let coarse = series.resample(SimSpan::from_secs(7));
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(coarse.sample_average() >= lo - 1e-9);
        assert!(coarse.sample_average() <= hi + 1e-9);
    }
}

/// Forked RNG streams are reproducible and uncorrelated with their
/// siblings.
#[test]
fn rng_forks_reproduce() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(9).fork(case);
        let seed = rng.next_u64();
        let stream = rng.index(1_000) as u64;
        let parent = SimRng::seed_from(seed);
        let mut a = parent.fork(stream);
        let mut b = parent.fork(stream);
        let mut c = parent.fork(stream.wrapping_add(1));
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(&xs, &ys);
        assert_ne!(&xs, &zs);
    }
}

/// Jittered values stay within the configured band.
#[test]
fn jitter_stays_in_band() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(10).fork(case);
        let seed = rng.next_u64();
        let value = rng.uniform_range(1e-3, 1e6);
        let spread = rng.uniform_range(0.0, 0.99);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..32 {
            let v = rng.jitter(value, spread);
            assert!(v >= value * (1.0 - spread) - 1e-9);
            assert!(v <= value * (1.0 + spread) + 1e-9);
        }
    }
}
