//! Memory capacity and the page-fault model.
//!
//! The original system used an "experiment-based" page-fault model fed by
//! kernel traces (ICDCS 2001, ref \[3] of the paper). We substitute an
//! explicit analytic model (see `DESIGN.md` §2): when the resident working
//! sets oversubscribe user memory, each job runs with a *stall factor* —
//! page-fault stall seconds per second of CPU progress — proportional to the
//! relative overflow and to the job's share of memory demand.
//!
//! The model reproduces the two behaviours the paper's argument rests on:
//!
//! 1. jobs with large memory demands fault more and are therefore *less
//!    competitive* than small jobs under global page replacement, and
//! 2. paging overhead rises smoothly (linearly or quadratically, selectable)
//!    with oversubscription, so one oversized job degrades everyone on the
//!    node.

use serde::{Deserialize, Serialize};
use vr_simcore::time::SimSpan;

use crate::units::Bytes;

/// Memory capacities of a workstation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryParams {
    /// User memory space available to jobs.
    pub user: Bytes,
    /// Swap space; jobs may oversubscribe up to `user + swap` in total.
    pub swap: Bytes,
    /// Page size (4 KB in the paper).
    pub page_size: Bytes,
    /// Service time of one page fault (10 ms in the paper).
    pub fault_service: SimSpan,
    /// Sequential swap bandwidth in bytes per second, used to cost whole-
    /// image swap-out/swap-in (the suspension strawman of §1). Era-typical
    /// disks sustain ~10 MB/s sequentially.
    pub swap_bandwidth: Bytes,
}

impl MemoryParams {
    /// The paper's common memory constants with the given capacities.
    pub fn with_capacity(user: Bytes, swap: Bytes) -> Self {
        MemoryParams {
            user,
            swap,
            page_size: Bytes::from_kb(4),
            fault_service: SimSpan::from_millis(10),
            swap_bandwidth: Bytes::from_mb(10),
        }
    }

    /// Time to swap a whole `image` out to (or in from) disk sequentially.
    ///
    /// # Panics
    ///
    /// Panics if the swap bandwidth is zero.
    pub fn swap_transfer_time(&self, image: Bytes) -> SimSpan {
        assert!(
            !self.swap_bandwidth.is_zero(),
            "swap bandwidth must be positive"
        );
        SimSpan::from_secs_f64(image.as_u64() as f64 / self.swap_bandwidth.as_u64() as f64)
    }

    /// Hard ceiling on total resident demand: user memory plus swap.
    pub fn capacity_limit(&self) -> Bytes {
        self.user + self.swap
    }
}

/// Selects how page-fault stalls scale with memory oversubscription.
///
/// All variants produce a per-job **stall factor** `s_j`: seconds of
/// page-fault stall per second of CPU progress. Given resident working sets
/// `w_1..w_k` with total `W` over user memory `U` (overflow `O = W − U`):
///
/// * [`LinearOverflow`](FaultModel::LinearOverflow):
///   `s_j = κ · (O/U) · (w_j / w̄)` where `w̄ = W/k`. Average stall across
///   the node is `κ · O/U`; with the default `κ = 4` a node oversubscribed
///   by 25 % doubles its jobs' latency on average.
/// * [`QuadraticOverflow`](FaultModel::QuadraticOverflow):
///   `s_j = κ · (O/U)² · (w_j / w̄)` — gentler near the knee, harsher deep
///   in thrash. Used for sensitivity ablations.
/// * [`Off`](FaultModel::Off): no faults ever (idealized infinite memory).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultModel {
    /// Stall grows linearly with relative overflow.
    LinearOverflow {
        /// Aggressiveness: average node stall factor at 100 % overflow.
        kappa: f64,
    },
    /// Stall grows with the square of relative overflow.
    QuadraticOverflow {
        /// Aggressiveness: average node stall factor at 100 % overflow.
        kappa: f64,
    },
    /// Paging disabled (idealized memory).
    Off,
}

impl Default for FaultModel {
    /// The calibration described in `DESIGN.md`: linear with κ = 4.
    fn default() -> Self {
        FaultModel::LinearOverflow { kappa: 4.0 }
    }
}

impl FaultModel {
    /// Computes each resident job's stall factor (stall seconds per CPU
    /// second) given its working set and the node's user memory.
    ///
    /// Returns an empty vector for an empty node. Working sets of zero are
    /// tolerated (stall 0 for those jobs).
    pub fn stall_factors(&self, working_sets: &[Bytes], user: Bytes) -> Vec<f64> {
        let total: Bytes = working_sets.iter().copied().sum();
        let curve = self.stall_curve(total, working_sets.len(), user);
        working_sets.iter().map(|w| curve.stall(*w)).collect()
    }

    /// The node-wide stall curve for one integration segment: the scalars of
    /// the per-job formula `s_j = κ_eff · (w_j / w̄)` precomputed from the
    /// total demand `total` of `k` resident working sets. A workstation's
    /// rate pass evaluates [`StallCurve::stall`] per job;
    /// [`FaultModel::stall_factors`] is defined over the same curve, so the
    /// two cannot drift.
    pub fn stall_curve(&self, total: Bytes, k: usize, user: Bytes) -> StallCurve {
        const FLAT: StallCurve = StallCurve {
            kappa_eff: 0.0,
            mean_ws: 1.0,
            flat_zero: true,
        };
        let overflow = total.saturating_sub(user);
        if overflow.is_zero() || total.is_zero() {
            return FLAT;
        }
        let kappa_eff = match self {
            FaultModel::Off => return FLAT,
            FaultModel::LinearOverflow { kappa } => {
                kappa * (overflow.as_u64() as f64 / user.as_u64() as f64)
            }
            FaultModel::QuadraticOverflow { kappa } => {
                let rho = overflow.as_u64() as f64 / user.as_u64() as f64;
                kappa * rho * rho
            }
        };
        StallCurve {
            kappa_eff,
            mean_ws: total.as_u64() as f64 / k as f64,
            flat_zero: false,
        }
    }
}

/// Per-segment stall scalars built by [`FaultModel::stall_curve`]. Within
/// one integration segment the job population and total demand are constant,
/// so the per-job stall factor reduces to a job-independent scale applied to
/// each working set.
#[derive(Debug, Clone, Copy)]
pub struct StallCurve {
    kappa_eff: f64,
    mean_ws: f64,
    /// `true` when the node is not oversubscribed (or faulting is disabled):
    /// every job stalls exactly 0.0 regardless of its working set.
    flat_zero: bool,
}

impl StallCurve {
    /// Stall factor (stall seconds per CPU second) for one job with working
    /// set `w` under this curve.
    #[inline]
    pub fn stall(&self, w: Bytes) -> f64 {
        if self.flat_zero {
            0.0
        } else {
            self.kappa_eff * (w.as_u64() as f64 / self.mean_ws)
        }
    }
}

/// Snapshot of one node's memory occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryUsage {
    /// Sum of resident working sets.
    pub demand: Bytes,
    /// User memory space.
    pub user: Bytes,
}

impl MemoryUsage {
    /// Idle memory: user space not claimed by any working set.
    pub fn idle(&self) -> Bytes {
        self.user.saturating_sub(self.demand)
    }

    /// Overflow: demand beyond user space (being paged).
    pub fn overflow(&self) -> Bytes {
        self.demand.saturating_sub(self.user)
    }

    /// `true` if demand exceeds user space (the node is faulting).
    pub fn is_oversubscribed(&self) -> bool {
        self.demand > self.user
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(n: u64) -> Bytes {
        Bytes::from_mb(n)
    }

    #[test]
    fn no_overflow_means_no_stall() {
        let model = FaultModel::default();
        let factors = model.stall_factors(&[mb(50), mb(60)], mb(128));
        assert_eq!(factors, vec![0.0, 0.0]);
    }

    #[test]
    fn empty_node_yields_empty_factors() {
        assert!(FaultModel::default().stall_factors(&[], mb(128)).is_empty());
    }

    #[test]
    fn linear_calibration_point() {
        // 25% oversubscription with equal jobs: each job's stall factor is
        // kappa * 0.25 = 1.0, i.e. latency doubles.
        let model = FaultModel::LinearOverflow { kappa: 4.0 };
        let factors = model.stall_factors(&[mb(80), mb(80)], mb(128));
        for f in factors {
            assert!((f - 1.0).abs() < 1e-9, "factor {f}");
        }
    }

    #[test]
    fn big_jobs_stall_proportionally_more() {
        let model = FaultModel::LinearOverflow { kappa: 4.0 };
        let factors = model.stall_factors(&[mb(30), mb(90)], mb(100));
        // 120MB demand on 100MB: overflow ratio 0.2, kappa_eff 0.8.
        // mean ws 60MB: small job 0.8*0.5=0.4, big job 0.8*1.5=1.2.
        assert!((factors[0] - 0.4).abs() < 1e-9);
        assert!((factors[1] - 1.2).abs() < 1e-9);
        assert!((factors[1] / factors[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn quadratic_is_gentler_below_full_overflow() {
        let lin = FaultModel::LinearOverflow { kappa: 4.0 };
        let quad = FaultModel::QuadraticOverflow { kappa: 4.0 };
        let ws = [mb(80), mb(80)];
        let fl = lin.stall_factors(&ws, mb(128))[0];
        let fq = quad.stall_factors(&ws, mb(128))[0];
        assert!(fq < fl, "quadratic {fq} should be below linear {fl}");
        assert!((fq - 0.25 * fl).abs() < 1e-9); // rho = 0.25
    }

    #[test]
    fn off_model_never_stalls() {
        let factors = FaultModel::Off.stall_factors(&[mb(500)], mb(10));
        assert_eq!(factors, vec![0.0]);
    }

    #[test]
    fn memory_usage_gauges() {
        let u = MemoryUsage {
            demand: mb(150),
            user: mb(128),
        };
        assert_eq!(u.idle(), Bytes::ZERO);
        assert_eq!(u.overflow(), mb(22));
        assert!(u.is_oversubscribed());
        let u2 = MemoryUsage {
            demand: mb(100),
            user: mb(128),
        };
        assert_eq!(u2.idle(), mb(28));
        assert_eq!(u2.overflow(), Bytes::ZERO);
        assert!(!u2.is_oversubscribed());
    }

    #[test]
    fn with_capacity_uses_paper_constants() {
        let p = MemoryParams::with_capacity(mb(384), mb(380));
        assert_eq!(p.page_size.as_u64(), 4096);
        assert_eq!(p.fault_service, SimSpan::from_millis(10));
        assert_eq!(p.capacity_limit(), mb(764));
    }

    #[test]
    fn swap_transfer_time_scales_with_image() {
        let p = MemoryParams::with_capacity(mb(384), mb(380));
        // 10 MB/s: a 100 MB image takes 10 s.
        assert_eq!(p.swap_transfer_time(mb(100)), SimSpan::from_secs(10));
        assert_eq!(p.swap_transfer_time(Bytes::ZERO), SimSpan::ZERO);
    }
}
