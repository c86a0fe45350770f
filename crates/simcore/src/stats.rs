//! Online and batch summary statistics.
//!
//! [`OnlineStats`] is a Welford accumulator: numerically stable single-pass
//! mean/variance with min/max tracking. [`Summary`] is the frozen result,
//! also computable from a batch via [`Summary::of`]. Percentiles operate on
//! an explicitly sorted slice to keep the cost visible at the call site.

use serde::{Deserialize, Serialize};

/// Single-pass (Welford) accumulator for mean, variance, min, and max.
///
/// ```
/// use vr_simcore::stats::OnlineStats;
///
/// let mut acc = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.mean(), 5.0);
/// assert_eq!(acc.population_std_dev(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN; a NaN observation would silently poison every
    /// downstream statistic.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "OnlineStats observed NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divide by n), or 0 when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation, or +∞ when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or −∞ when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Freezes the accumulator into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.population_std_dev(),
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
        }
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = OnlineStats::new();
        acc.extend(iter);
        acc
    }
}

/// Frozen summary statistics of a batch of observations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl Summary {
    /// Summarizes a batch in one pass.
    ///
    /// ```
    /// use vr_simcore::stats::Summary;
    ///
    /// let s = Summary::of([1.0, 2.0, 3.0]);
    /// assert_eq!(s.mean, 2.0);
    /// assert_eq!(s.count, 3);
    /// ```
    pub fn of<I: IntoIterator<Item = f64>>(values: I) -> Summary {
        values.into_iter().collect::<OnlineStats>().summary()
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
///
/// `q` is in `[0, 1]`; `percentile(&v, 0.5)` is the median.
///
/// # Panics
///
/// Panics if `sorted` is empty, `q` is outside `[0, 1]`, or (in debug builds)
/// the slice is not sorted.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile requires an ascending-sorted slice"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Relative reduction `(base − improved) / base`, in percent.
///
/// This is the metric the paper reports throughout §4 ("reduced the execution
/// times by 29.3%"). Returns 0 when `base` is 0.
pub fn reduction_pct(base: f64, improved: f64) -> f64 {
    // vr-lint::allow(float-eq, reason = "documented contract: returns 0 when base is exactly 0")
    if base == 0.0 {
        0.0
    } else {
        (base - improved) / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_is_zeroed() {
        let acc = OnlineStats::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.population_variance(), 0.0);
        assert_eq!(acc.summary().min, 0.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        let data = [3.1, -2.0, 14.5, 0.0, 7.7, 7.7, -9.3];
        let acc: OnlineStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((acc.mean() - mean).abs() < 1e-12);
        assert!((acc.population_variance() - var).abs() < 1e-12);
        assert_eq!(acc.min(), -9.3);
        assert_eq!(acc.max(), 14.5);
    }

    #[test]
    fn population_variance_divides_by_n() {
        let acc: OnlineStats = [1.0, 3.0].into_iter().collect();
        assert_eq!(acc.population_variance(), 1.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let sequential: OnlineStats = data.iter().copied().collect();
        let mut left: OnlineStats = data[..37].iter().copied().collect();
        let right: OnlineStats = data[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), sequential.count());
        assert!((left.mean() - sequential.mean()).abs() < 1e-12);
        assert!((left.population_variance() - sequential.population_variance()).abs() < 1e-9);
        assert_eq!(left.min(), sequential.min());
        assert_eq!(left.max(), sequential.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut acc: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = acc;
        acc.merge(&OnlineStats::new());
        assert_eq!(acc, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_observation_panics() {
        OnlineStats::new().push(f64::NAN);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.5), 25.0);
        assert_eq!(percentile(&[5.0], 0.7), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_empty_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    fn reduction_pct_matches_paper_convention() {
        assert!((reduction_pct(100.0, 70.7) - 29.3).abs() < 1e-9);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
        assert!(reduction_pct(50.0, 60.0) < 0.0); // regression shows negative
    }

    #[test]
    fn summary_of_batch() {
        let s = Summary::of([2.0, 4.0, 6.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
    }
}
