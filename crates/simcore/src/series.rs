//! Time-stamped measurement series.
//!
//! The paper samples cluster-wide gauges (total idle memory, per-node active
//! job counts) every second and averages them over the whole run, noting that
//! the averages are insensitive to the sampling interval (§4.1). [`TimeSeries`]
//! stores such samples and provides the plain sample average the paper uses.

use serde::{Deserialize, Serialize};

use crate::stats::Summary;
use crate::time::{SimSpan, SimTime};

/// An append-only series of `(time, value)` samples with non-decreasing
/// timestamps.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous sample or `value` is NaN.
    pub fn push(&mut self, time: SimTime, value: f64) {
        assert!(!value.is_nan(), "TimeSeries observed NaN at {time}");
        if let Some(&(last, _)) = self.points.last() {
            assert!(
                time >= last,
                "TimeSeries samples must be time-ordered: {time} after {last}"
            );
        }
        self.points.push((time, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over `(time, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }

    /// The values only.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, v)| v)
    }

    /// Plain arithmetic mean of the sampled values (the paper's measurement).
    pub fn sample_average(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.values().sum::<f64>() / self.points.len() as f64
        }
    }

    /// Re-samples the step function at a fixed `interval`, starting at the
    /// first sample's timestamp.
    ///
    /// Used to reproduce the paper's interval-insensitivity check (1 s vs
    /// 10 s vs 30 s vs 1 min give "almost identical average values").
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn resample(&self, interval: SimSpan) -> TimeSeries {
        assert!(!interval.is_zero(), "resample interval must be non-zero");
        let mut out = TimeSeries::new();
        let Some(&(start, _)) = self.points.first() else {
            return out;
        };
        // vr-lint::allow(panic-in-lib, reason = "guarded by the let-else on first() above")
        let end = self.points.last().unwrap().0;
        let mut t = start;
        let mut idx = 0;
        while t <= end {
            while idx + 1 < self.points.len() && self.points[idx + 1].0 <= t {
                idx += 1;
            }
            out.push(t, self.points[idx].1);
            match t.checked_add(interval) {
                Some(next) => t = next,
                None => break,
            }
        }
        out
    }

    /// Summary statistics over the sampled values.
    pub fn summary(&self) -> Summary {
        Summary::of(self.values())
    }

    /// The last sample, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (SimTime, f64)>>(iter: I) -> Self {
        let mut s = TimeSeries::new();
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn sample_average_is_plain_mean() {
        let s: TimeSeries = [(t(0), 2.0), (t(1), 4.0), (t(2), 6.0)]
            .into_iter()
            .collect();
        assert_eq!(s.sample_average(), 4.0);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_series_averages_zero() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.sample_average(), 0.0);
        assert!(s.last().is_none());
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::new();
        s.push(t(5), 1.0);
        s.push(t(4), 1.0);
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let mut s = TimeSeries::new();
        s.push(t(5), 1.0);
        s.push(t(5), 2.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn resample_holds_step_values() {
        let s: TimeSeries = [(t(0), 1.0), (t(3), 5.0), (t(10), 9.0)]
            .into_iter()
            .collect();
        let r = s.resample(SimSpan::from_secs(2));
        let got: Vec<(u64, f64)> = r
            .iter()
            .map(|(tt, v)| (tt.as_micros() / 1_000_000, v))
            .collect();
        assert_eq!(
            got,
            vec![(0, 1.0), (2, 1.0), (4, 5.0), (6, 5.0), (8, 5.0), (10, 9.0)]
        );
    }

    #[test]
    fn resample_interval_insensitivity_on_smooth_series() {
        // A densely sampled, slowly varying gauge: coarser resampling should
        // barely move the average — the property the paper relies on.
        let s: TimeSeries = (0..3600)
            .map(|i| (t(i), 100.0 + (i as f64 / 600.0).sin()))
            .collect();
        let fine = s.sample_average();
        for secs in [10u64, 30, 60] {
            let coarse = s.resample(SimSpan::from_secs(secs)).sample_average();
            assert!(
                (fine - coarse).abs() / fine < 0.001,
                "interval {secs}s moved the average from {fine} to {coarse}"
            );
        }
    }

    #[test]
    fn summary_and_last() {
        let s: TimeSeries = [(t(0), 1.0), (t(1), 3.0)].into_iter().collect();
        assert_eq!(s.summary().max, 3.0);
        assert_eq!(s.last(), Some((t(1), 3.0)));
    }
}
