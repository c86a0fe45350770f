//! Order statistics over timing samples.
//!
//! Every tail percentile the benchmark prints is backed by at least
//! [`MIN_BEYOND`] samples above it, so a p99 never silently degrades to
//! "the largest of a handful of runs".

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p < 100) of `samples` by the nearest-rank
/// method, or an error when fewer than [`MIN_BEYOND`] samples lie beyond
/// it. The median (`p = 50`) is exempt: it needs one sample.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("no samples".to_owned());
    }
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    if p > 50.0 && beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has only {beyond} beyond it; need {MIN_BEYOND}"
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them,
/// so the steadiness report matches how the figures are judged. With
/// fewer than two samples every quartile is the single value.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0], sorted[0]),
        n => {
            // Python's exclusive method, in its exact integer arithmetic.
            let q = |i: i64| {
                let (ld, m) = (n as i64, n as i64 + 1);
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m - j * 4) as f64;
                let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
                (lo * (4.0 - delta) + hi * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 beyond: allowed.
        assert_eq!(percentile(&samples, 90.0), Ok(90.0));
        // p95 leaves 5 beyond: refused.
        assert!(percentile(&samples, 95.0).is_err());
        // p99 needs 1,000 samples.
        assert!(percentile(&samples, 99.0).is_err());
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 99.0), Ok(990.0));
        // The median needs no tail.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Ok(2.0));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
    }
}
