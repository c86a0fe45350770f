//! Fixed-bucket histograms for distribution reporting.
//!
//! Slowdowns in a blocked cluster are heavy-tailed (a few starved jobs, a
//! mass of mildly delayed ones), so averages hide the story; the evaluation
//! binaries use [`Histogram`] to show the shape. Buckets are fixed at
//! construction — [`Histogram::linear`] or [`Histogram::logarithmic`] — and
//! out-of-range observations land in dedicated under/overflow buckets
//! rather than being dropped.

use serde::{Deserialize, Serialize};

/// A histogram with fixed bucket edges plus under/overflow buckets.
///
/// ```
/// use vr_simcore::histogram::Histogram;
///
/// let mut h = Histogram::logarithmic(1.0, 100.0, 4);
/// for v in [1.5, 2.0, 30.0, 500.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.overflow(), 1); // 500 is beyond the last edge
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Bucket edges, ascending; bucket `i` covers `[edges[i], edges[i+1])`.
    edges: Vec<f64>,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// `buckets` equal-width buckets covering `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and `buckets > 0`.
    pub fn linear(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        let width = (hi - lo) / buckets as f64;
        let edges = (0..=buckets).map(|i| lo + width * i as f64).collect();
        Histogram::from_edges(edges)
    }

    /// `buckets` geometrically growing buckets covering `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `buckets > 0`.
    pub fn logarithmic(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo > 0.0 && lo < hi, "log histogram needs 0 < lo < hi");
        assert!(buckets > 0, "histogram needs at least one bucket");
        let ratio = (hi / lo).powf(1.0 / buckets as f64);
        let edges = (0..=buckets).map(|i| lo * ratio.powi(i as i32)).collect();
        Histogram::from_edges(edges)
    }

    fn from_edges(edges: Vec<f64>) -> Self {
        let buckets = edges.len() - 1;
        Histogram {
            edges,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "histogram observed NaN");
        let lo = self.edges[0];
        // vr-lint::allow(panic-in-lib, reason = "the constructor rejects empty edge lists")
        let hi = *self.edges.last().expect("edges are non-empty");
        if value < lo {
            self.underflow += 1;
        } else if value >= hi {
            self.overflow += 1;
        } else {
            // Binary search for the bucket whose range contains the value.
            let idx = match self
                .edges
                // vr-lint::allow(panic-in-lib, reason = "the constructor rejects NaN edges and record() asserts the value is not NaN")
                .binary_search_by(|e| e.partial_cmp(&value).expect("edges are not NaN"))
            {
                Ok(i) => i.min(self.counts.len() - 1),
                Err(i) => i - 1,
            };
            self.counts[idx] += 1;
        }
    }

    /// Total observations, including under/overflow.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Observations below the first edge.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the last edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// `(lower edge, upper edge, count)` per bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.edges
            .windows(2)
            .zip(self.counts.iter())
            .map(|(w, c)| (w[0], w[1], *c))
    }

    /// A compact multi-line ASCII rendering, one bucket per line, bars
    /// scaled to `width` characters. The `<min` / `>=max` flow lines get
    /// bars on the same scale, so a heavy tail beyond the last edge is as
    /// visible as any in-range bucket.
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self
            .counts
            .iter()
            .copied()
            .chain([self.underflow, self.overflow])
            .max()
            .unwrap_or(0)
            .max(1);
        let bar = |count: u64| {
            let len = (count as f64 / max as f64 * width as f64).round() as usize;
            "#".repeat(len)
        };
        let mut out = String::new();
        if self.underflow > 0 {
            out.push_str(&format!(
                "{:>15} |{} {}\n",
                "<min",
                bar(self.underflow),
                self.underflow
            ));
        }
        for (lo, hi, count) in self.buckets() {
            out.push_str(&format!("{lo:>7.2}-{hi:<7.2} |{} {count}\n", bar(count)));
        }
        if self.overflow > 0 {
            out.push_str(&format!(
                "{:>15} |{} {}\n",
                ">=max",
                bar(self.overflow),
                self.overflow
            ));
        }
        out
    }
}

/// Builds a log-scale slowdown histogram (1× to 1000×, 12 buckets) from
/// per-job slowdowns — the shape the evaluation binaries print.
// vr-analyze::allow(panic-path, reason = "the bucket shape is the constant (1.0, 1000.0, 12), which logarithmic() accepts")
pub fn slowdown_histogram<I: IntoIterator<Item = f64>>(slowdowns: I) -> Histogram {
    let mut h = Histogram::logarithmic(1.0, 1000.0, 12);
    for s in slowdowns {
        h.record(s);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_buckets_cover_range() {
        let mut h = Histogram::linear(0.0, 10.0, 5);
        for v in [0.0, 1.9, 2.0, 9.99] {
            h.record(v);
        }
        let counts: Vec<u64> = h.buckets().map(|(_, _, c)| c).collect();
        assert_eq!(counts, vec![2, 1, 0, 0, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn out_of_range_goes_to_flows() {
        let mut h = Histogram::linear(1.0, 2.0, 1);
        h.record(0.5);
        h.record(2.0); // at the top edge: overflow (half-open buckets)
        h.record(1.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn logarithmic_buckets_grow_geometrically() {
        let h = Histogram::logarithmic(1.0, 16.0, 4);
        let edges: Vec<f64> = h.buckets().map(|(lo, _, _)| lo).collect();
        for (i, e) in [1.0, 2.0, 4.0, 8.0].iter().enumerate() {
            assert!((edges[i] - e).abs() < 1e-9, "edge {i}: {}", edges[i]);
        }
    }

    #[test]
    fn values_land_on_exact_edges_correctly() {
        let mut h = Histogram::linear(0.0, 4.0, 4);
        for v in [0.0, 1.0, 2.0, 3.0] {
            h.record(v);
        }
        let counts: Vec<u64> = h.buckets().map(|(_, _, c)| c).collect();
        assert_eq!(counts, vec![1, 1, 1, 1]);
    }

    #[test]
    fn ascii_render_shows_bars_and_flows() {
        let mut h = Histogram::linear(0.0, 2.0, 2);
        h.record(0.5);
        h.record(0.6);
        h.record(1.5);
        h.record(5.0);
        let s = h.render_ascii(10);
        assert!(s.contains("##"), "{s}");
        assert!(s.contains(">=max"), "{s}");
    }

    #[test]
    fn ascii_render_snapshot() {
        // Pins the exact layout: flow lines aligned with bucket labels,
        // bars on flow lines, and the bar scale derived from the largest
        // count anywhere — including a dominant overflow tail.
        let mut h = Histogram::linear(0.0, 2.0, 2);
        h.record(-1.0);
        h.record(0.5);
        h.record(1.5);
        h.record(1.6);
        for _ in 0..4 {
            h.record(9.0); // heavy tail: overflow is the tallest bar
        }
        let s = h.render_ascii(8);
        let expected = concat!(
            "           <min |## 1\n",
            "   0.00-1.00    |## 1\n",
            "   1.00-2.00    |#### 2\n",
            "          >=max |######## 4\n",
        );
        assert_eq!(s, expected, "got:\n{s}");
    }

    #[test]
    fn slowdown_histogram_covers_typical_range() {
        let h = slowdown_histogram([1.0, 2.5, 40.0, 900.0, 2000.0]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_panics() {
        Histogram::linear(0.0, 1.0, 1).record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_panics() {
        Histogram::linear(1.0, 1.0, 1);
    }
}
