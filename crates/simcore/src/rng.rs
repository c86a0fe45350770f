//! Deterministic random numbers and distribution samplers.
//!
//! Every source of randomness in a simulation flows through one seeded
//! [`SimRng`], so an identical configuration and seed reproduce an identical
//! run. Independent deterministic streams can be split off with
//! [`SimRng::fork`] (e.g. one stream per workload trace) so that adding draws
//! to one component does not perturb another.
//!
//! The generator is self-contained (xoshiro256++ seeded through splitmix64,
//! no external crates — the build environment has no registry access), and
//! the exponential sampler the workload generators need is implemented here
//! (an inverse-CDF transform).
//!
//! ```
//! use vr_simcore::rng::SimRng;
//!
//! let mut a = SimRng::seed_from(42);
//! let mut b = SimRng::seed_from(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//!
//! let x = a.exponential(0.5);
//! assert!(x > 0.0);
//! ```

/// xoshiro256++ core: fast, tiny-state, and entirely deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Expands a 64-bit seed into the 256-bit state via splitmix64, per the
    /// reference implementation's seeding recommendation.
    fn seeded(seed: u64) -> Self {
        let mut x = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            x = splitmix64(x);
            *slot = x;
        }
        // The all-zero state is the one fixed point; unreachable from
        // splitmix64 outputs in practice, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        Xoshiro256PlusPlus { s }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A seeded random-number generator with the distribution samplers the
/// simulator needs.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Xoshiro256PlusPlus,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256PlusPlus::seeded(seed),
        }
    }

    /// Splits off an independent deterministic stream.
    ///
    /// The child stream is a pure function of this generator's seed history
    /// and `stream`; forking with different `stream` values yields unrelated
    /// sequences without consuming draws from `self`'s future.
    // vr-analyze::rng-authority(reason = "this file defines SimRng; fork() is the sanctioned stream splitter everyone else is told to use")
    pub fn fork(&self, stream: u64) -> SimRng {
        // Mix the parent's current state fingerprint with the stream id via
        // splitmix64 so child streams are decorrelated.
        let mut cloned = self.inner.clone();
        let fingerprint = cloned.next_u64();
        SimRng::seed_from(splitmix64(fingerprint ^ splitmix64(stream)))
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform in `[0, 1)`: the top 53 bits of a draw, scaled.
    pub fn uniform(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_range requires lo < hi, got [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        // 128-bit multiply-shift maps the draw to [0, n) without the low-bit
        // bias of a plain modulus.
        ((u128::from(self.inner.next_u64()) * n as u128) >> 64) as usize
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Exponential deviate with the given rate (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential requires rate > 0, got {rate}");
        let u = 1.0 - self.uniform(); // (0, 1]
        -u.ln() / rate
    }

    /// Multiplies `value` by a uniform jitter factor in
    /// `[1 - spread, 1 + spread]`.
    ///
    /// # Panics
    ///
    /// Panics if `spread` is not in `[0, 1)`.
    pub fn jitter(&mut self, value: f64, spread: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&spread),
            "jitter spread must be in [0, 1), got {spread}"
        );
        // vr-lint::allow(float-eq, reason = "exact zero fast-path: spread 0.0 disables jitter by contract")
        if spread == 0.0 {
            return value;
        }
        value * self.uniform_range(1.0 - spread, 1.0 + spread)
    }

    /// Fisher–Yates shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

/// splitmix64 finalizer, used to decorrelate fork streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let parent = SimRng::seed_from(99);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(0);
        let mut c3 = parent.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_matches_mean() {
        let mut rng = SimRng::seed_from(17);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(0.25)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn jitter_bounds_hold() {
        let mut rng = SimRng::seed_from(23);
        for _ in 0..1000 {
            let v = rng.jitter(100.0, 0.2);
            assert!((80.0..=120.0).contains(&v), "{v}");
        }
        assert_eq!(rng.jitter(100.0, 0.0), 100.0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(29);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_range_validates() {
        SimRng::seed_from(0).uniform_range(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "rate > 0")]
    fn exponential_validates() {
        SimRng::seed_from(0).exponential(0.0);
    }
}
