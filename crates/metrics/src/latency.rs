//! Request-latency accounting for the serving tier.
//!
//! `vrecon loadgen` measures per-request wall-clock latencies against a
//! running `vrecon serve` instance and reduces them here into the figures
//! reported in its document: p50/p99 milliseconds, mean, max, and
//! queries per second. Percentiles use the same interpolated-rank
//! convention as every other distribution in the workspace
//! ([`vr_simcore::stats::percentile`]), so a serve latency table reads
//! like a slowdown table.

use vr_simcore::stats::percentile;

/// Reduced latency distribution of one load-generation phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of requests measured.
    pub count: usize,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Mean request latency, milliseconds.
    pub mean_ms: f64,
    /// Worst request latency, milliseconds.
    pub max_ms: f64,
    /// Completed requests per second of the phase's wall-clock window.
    pub qps: f64,
}

impl LatencySummary {
    /// Reduces per-request latencies (milliseconds) plus the phase's total
    /// wall-clock seconds. An empty phase is all zeros rather than NaN so
    /// the JSON stays comparable field-by-field.
    // vr-analyze::allow(panic-path, reason = "empty input early-returns before percentile(), and the quantiles are the constants 0.50/0.99")
    pub fn of(latencies_ms: &[f64], wall_secs: f64) -> LatencySummary {
        if latencies_ms.is_empty() {
            return LatencySummary {
                count: 0,
                p50_ms: 0.0,
                p99_ms: 0.0,
                mean_ms: 0.0,
                max_ms: 0.0,
                qps: 0.0,
            };
        }
        let mut sorted = latencies_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let mean_ms = sorted.iter().sum::<f64>() / count as f64;
        let qps = if wall_secs > 0.0 {
            count as f64 / wall_secs
        } else {
            0.0
        };
        LatencySummary {
            count,
            p50_ms: percentile(&sorted, 0.50),
            p99_ms: percentile(&sorted, 0.99),
            mean_ms,
            max_ms: sorted[count - 1],
            qps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_percentiles_mean_max_and_qps() {
        let lat: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = LatencySummary::of(&lat, 10.0);
        assert_eq!(s.count, 100);
        assert!((s.p50_ms - 50.5).abs() < 1e-9);
        assert!((s.p99_ms - 99.01).abs() < 1e-9);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        assert!((s.max_ms - 100.0).abs() < 1e-9);
        assert!((s.qps - 10.0).abs() < 1e-9);
    }

    #[test]
    fn unsorted_input_is_sorted_before_ranking() {
        let s = LatencySummary::of(&[9.0, 1.0, 5.0], 1.0);
        assert!((s.p50_ms - 5.0).abs() < 1e-9);
        assert!((s.max_ms - 9.0).abs() < 1e-9);
    }

    #[test]
    fn empty_phase_is_zeros_not_nan() {
        let s = LatencySummary::of(&[], 3.0);
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_ms, 0.0);
        assert_eq!(s.qps, 0.0);
    }

    #[test]
    fn zero_wall_window_yields_zero_qps() {
        let s = LatencySummary::of(&[1.0], 0.0);
        assert_eq!(s.qps, 0.0);
        assert_eq!(s.count, 1);
    }
}
