//! Job-arrival processes.
//!
//! §3.3.2 of the paper generates submission times from a lognormal rate
//! function
//!
//! ```text
//! R_ln(t) = 1 / (sqrt(2π)·σ·t) · exp(−(ln t − μ)² / (2σ²)),   t > 0
//! ```
//!
//! (the printed formula's `2μ²` denominator is the well-known typo for the
//! standard lognormal `2σ²`), observed in production workloads
//! [Feitelson & Nitzberg 1995; Squillante et al. 1999]. Each of the paper's
//! five traces fixes `(σ, μ)` and a target job count over a ~3,585 s horizon.
//!
//! [`LognormalArrivals`] samples exactly `count` arrival instants whose
//! density over `(0, horizon]` is proportional to `R_ln`, via a numerically
//! tabulated inverse CDF. A homogeneous [`PoissonArrivals`] process is
//! provided for synthetic workloads.

use serde::{Deserialize, Serialize};
use vr_simcore::rng::SimRng;
use vr_simcore::time::{SimSpan, SimTime};

/// Resolution of the tabulated CDF.
const GRID: usize = 4096;

/// The paper's lognormal arrival-rate process, truncated to `(0, horizon]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LognormalArrivals {
    /// Shape parameter σ of the underlying normal.
    pub sigma: f64,
    /// Location parameter μ of the underlying normal.
    pub mu: f64,
    /// Number of arrivals to generate.
    pub count: usize,
    /// Submission window.
    pub horizon: SimSpan,
}

impl LognormalArrivals {
    /// The rate-shape function `R_ln(t)` (unnormalized density at `t`
    /// seconds).
    pub fn rate(&self, t_secs: f64) -> f64 {
        if t_secs <= 0.0 {
            return 0.0;
        }
        let z = (t_secs.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / ((2.0 * std::f64::consts::PI).sqrt() * self.sigma * t_secs)
    }

    /// Generates `count` arrival instants, sorted ascending.
    ///
    /// Sampling is inverse-CDF over a tabulated integral of [`rate`]
    /// (trapezoid rule on a `GRID`-point grid), so the result is exact up to
    /// grid resolution and fully deterministic for a given `rng` state.
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0`, the horizon is zero, or `count == 0`.
    ///
    /// [`rate`]: LognormalArrivals::rate
    pub fn generate(&self, rng: &mut SimRng) -> Vec<SimTime> {
        assert!(self.sigma > 0.0, "lognormal sigma must be positive");
        assert!(!self.horizon.is_zero(), "arrival horizon must be non-zero");
        assert!(self.count > 0, "arrival count must be positive");
        let t_max = self.horizon.as_secs_f64();
        // Tabulate the CDF of rate() over (0, t_max].
        let dt = t_max / GRID as f64;
        let mut cdf = Vec::with_capacity(GRID + 1);
        cdf.push(0.0);
        let mut acc = 0.0;
        let mut prev = self.rate(1e-9);
        for i in 1..=GRID {
            let t = i as f64 * dt;
            let cur = self.rate(t);
            acc += 0.5 * (prev + cur) * dt;
            cdf.push(acc);
            prev = cur;
        }
        // vr-lint::allow(panic-in-lib, reason = "the loop above pushes one cdf entry per class and classes were checked non-empty")
        let total = *cdf.last().expect("cdf is non-empty");
        assert!(
            total > 0.0,
            "lognormal rate integrates to zero over the horizon; check sigma/mu"
        );
        // Inverse-CDF sample `count` points.
        let mut times: Vec<SimTime> = (0..self.count)
            .map(|_| {
                let target = rng.uniform() * total;
                let idx = cdf.partition_point(|c| *c < target).min(GRID);
                let lo = idx.saturating_sub(1);
                let seg = cdf[idx] - cdf[lo];
                let frac = if seg > 0.0 {
                    (target - cdf[lo]) / seg
                } else {
                    0.0
                };
                let t = (lo as f64 + frac) * dt;
                SimTime::from_secs_f64(t.clamp(0.0, t_max))
            })
            .collect();
        times.sort_unstable();
        times
    }
}

/// A bursty ON/OFF arrival process: alternating busy and quiet phases with
/// Poisson arrivals during the busy phases. Models the "expected and
/// unexpected workload fluctuation of service demands" the conclusion says
/// clusters must accommodate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstyArrivals {
    /// Arrival rate during ON phases, per second.
    pub on_rate_per_sec: f64,
    /// Mean ON-phase length in seconds (exponentially distributed).
    pub mean_on_secs: f64,
    /// Mean OFF-phase length in seconds (exponentially distributed).
    pub mean_off_secs: f64,
    /// Number of arrivals to generate.
    pub count: usize,
}

impl BurstyArrivals {
    /// Generates `count` arrival instants, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if any rate or mean is not strictly positive.
    pub fn generate(&self, rng: &mut SimRng) -> Vec<SimTime> {
        assert!(self.on_rate_per_sec > 0.0, "on rate must be positive");
        assert!(
            self.mean_on_secs > 0.0 && self.mean_off_secs > 0.0,
            "phase means must be positive"
        );
        let mut out = Vec::with_capacity(self.count);
        let mut t = 0.0f64;
        'outer: loop {
            // ON phase.
            let on_end = t + rng.exponential(1.0 / self.mean_on_secs);
            loop {
                t += rng.exponential(self.on_rate_per_sec);
                if t > on_end {
                    t = on_end;
                    break;
                }
                out.push(SimTime::from_secs_f64(t));
                if out.len() == self.count {
                    break 'outer;
                }
            }
            // OFF phase.
            t += rng.exponential(1.0 / self.mean_off_secs);
        }
        out
    }
}

/// A homogeneous Poisson arrival process (for synthetic workloads).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoissonArrivals {
    /// Mean arrivals per second.
    pub rate_per_sec: f64,
    /// Number of arrivals to generate.
    pub count: usize,
}

impl PoissonArrivals {
    /// Generates `count` arrival instants with exponential inter-arrival
    /// gaps.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive.
    pub fn generate(&self, rng: &mut SimRng) -> Vec<SimTime> {
        let mut t = 0.0;
        (0..self.count)
            .map(|_| {
                t += rng.exponential(self.rate_per_sec);
                SimTime::from_secs_f64(t)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace3() -> LognormalArrivals {
        LognormalArrivals {
            sigma: 3.0,
            mu: 3.0,
            count: 578,
            horizon: SimSpan::from_secs(3581),
        }
    }

    #[test]
    fn generates_exactly_count_sorted_in_window() {
        let mut rng = SimRng::seed_from(1);
        let arr = trace3();
        let times = arr.generate(&mut rng);
        assert_eq!(times.len(), 578);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|t| *t <= SimTime::from_secs(3581)));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = trace3().generate(&mut SimRng::seed_from(9));
        let b = trace3().generate(&mut SimRng::seed_from(9));
        let c = trace3().generate(&mut SimRng::seed_from(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rate_is_zero_at_or_before_time_zero() {
        let arr = trace3();
        assert_eq!(arr.rate(0.0), 0.0);
        assert_eq!(arr.rate(-5.0), 0.0);
        assert!(arr.rate(20.0) > 0.0);
    }

    #[test]
    fn rate_peaks_near_lognormal_mode() {
        // Mode of lognormal(mu, sigma) is exp(mu - sigma^2).
        let arr = LognormalArrivals {
            sigma: 0.5,
            mu: 5.0,
            count: 10,
            horizon: SimSpan::from_secs(3600),
        };
        let mode = (5.0f64 - 0.25).exp();
        let at_mode = arr.rate(mode);
        for t in [mode * 0.5, mode * 2.0] {
            assert!(arr.rate(t) < at_mode, "rate not peaked at mode");
        }
    }

    #[test]
    fn smaller_sigma_mu_concentrates_arrivals_earlier() {
        // Trace-5 (sigma=mu=1.5, "highly intensive") front-loads arrivals
        // compared to trace-1 (sigma=mu=4.0, "light").
        let rng = SimRng::seed_from(3);
        let light = LognormalArrivals {
            sigma: 4.0,
            mu: 4.0,
            count: 359,
            horizon: SimSpan::from_secs(3586),
        }
        .generate(&mut rng.fork(1));
        let intense = LognormalArrivals {
            sigma: 1.5,
            mu: 1.5,
            count: 777,
            horizon: SimSpan::from_secs(3582),
        }
        .generate(&mut rng.fork(2));
        let median = |v: &[SimTime]| v[v.len() / 2].as_secs_f64();
        assert!(
            median(&intense) < median(&light),
            "intense median {} should precede light median {}",
            median(&intense),
            median(&light)
        );
    }

    #[test]
    fn poisson_interarrivals_have_the_right_mean() {
        let mut rng = SimRng::seed_from(4);
        let times = PoissonArrivals {
            rate_per_sec: 2.0,
            count: 20_000,
        }
        .generate(&mut rng);
        assert_eq!(times.len(), 20_000);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let total = times.last().unwrap().as_secs_f64();
        let mean_gap = total / 20_000.0;
        assert!((mean_gap - 0.5).abs() < 0.02, "mean gap {mean_gap}");
    }

    #[test]
    fn bursty_arrivals_cluster_in_on_phases() {
        let mut rng = SimRng::seed_from(11);
        let times = BurstyArrivals {
            on_rate_per_sec: 5.0,
            mean_on_secs: 10.0,
            mean_off_secs: 100.0,
            count: 400,
        }
        .generate(&mut rng);
        assert_eq!(times.len(), 400);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Burstiness: the coefficient of variation of inter-arrival gaps
        // exceeds 1 (a Poisson process would sit at ~1).
        let gaps: Vec<f64> = times
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 1.3, "cv {cv} not bursty");
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn invalid_sigma_panics() {
        LognormalArrivals {
            sigma: 0.0,
            mu: 1.0,
            count: 1,
            horizon: SimSpan::from_secs(10),
        }
        .generate(&mut SimRng::seed_from(0));
    }
}
