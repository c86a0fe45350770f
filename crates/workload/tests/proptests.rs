//! Property-based tests of workload generation. Case `i` of a property
//! draws its inputs from `SimRng::seed_from(K).fork(i)`.

use vr_simcore::rng::SimRng;
use vr_simcore::time::{SimSpan, SimTime};
use vr_workload::arrival::{LognormalArrivals, PoissonArrivals};
use vr_workload::trace::{app_trace_scaled, spec_trace_scaled, TraceLevel};

/// Lognormal arrivals always produce exactly the requested count,
/// sorted, inside the window, for any reasonable (σ, μ).
#[test]
fn lognormal_arrivals_are_well_formed() {
    for case in 0..32 {
        let mut rng = SimRng::seed_from(1).fork(case);
        let sigma = rng.uniform_range(0.2, 5.0);
        let mu = rng.uniform_range(0.2, 5.0);
        let count = 1 + rng.index(399);
        let horizon = 60 + rng.index(7_140) as u64;
        let seed = rng.next_u64();
        let gen = LognormalArrivals {
            sigma,
            mu,
            count,
            horizon: SimSpan::from_secs(horizon),
        };
        let times = gen.generate(&mut SimRng::seed_from(seed));
        assert_eq!(times.len(), count);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|t| *t <= SimTime::from_secs(horizon)));
    }
}

/// Poisson arrivals are sorted and strictly positive.
#[test]
fn poisson_arrivals_are_well_formed() {
    for case in 0..32 {
        let mut rng = SimRng::seed_from(2).fork(case);
        let rate = rng.uniform_range(0.01, 10.0);
        let count = 1 + rng.index(299);
        let seed = rng.next_u64();
        let times = PoissonArrivals {
            rate_per_sec: rate,
            count,
        }
        .generate(&mut SimRng::seed_from(seed));
        assert_eq!(times.len(), count);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times[0] > SimTime::ZERO);
    }
}

/// Every generated paper trace validates, has the paper's job count,
/// and scales its CPU work linearly with the lifetime scale.
#[test]
fn paper_traces_scale_linearly() {
    for case in 0..32 {
        let mut rng = SimRng::seed_from(3).fork(case);
        let level = *rng.choose(&TraceLevel::ALL);
        let seed = rng.next_u64();
        let scale = rng.uniform_range(0.05, 1.0);
        let spec_group = rng.next_u64() & 1 == 1;
        let build = |s: f64| {
            if spec_group {
                spec_trace_scaled(level, &mut SimRng::seed_from(seed), s)
            } else {
                app_trace_scaled(level, &mut SimRng::seed_from(seed), s)
            }
        };
        let base = build(scale);
        assert!(base.validate().is_ok());
        assert_eq!(base.len(), level.jobs());
        let doubled = build(scale * 2.0);
        let ratio = doubled.total_cpu_work_secs() / base.total_cpu_work_secs();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
        // Working sets are unaffected by lifetime scaling.
        for (a, b) in base.jobs.iter().zip(doubled.jobs.iter()) {
            assert_eq!(a.max_working_set(), b.max_working_set());
        }
    }
}
