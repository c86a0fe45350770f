//! Processor model: round-robin multiprogramming as processor sharing.
//!
//! Each conventional workstation schedules its resident jobs round-robin
//! ("intra-workstation scheduling", §1 of the paper). Over intervals much
//! longer than the quantum, round-robin is statistically identical to
//! processor sharing: with `k` runnable jobs each receives a `1/k` CPU share,
//! degraded by the context-switch overhead (0.1 ms per switch) and by
//! page-fault stalls from the memory model.
//!
//! For a job with stall factor `s` (stall seconds per CPU second) on a node
//! with `k` jobs and context-switch efficiency `ε(k)`:
//!
//! ```text
//! progress rate  r = speed · ε(k) / k / (1 + s)     (CPU seconds per wall second)
//! ```
//!
//! and one wall-clock second decomposes exactly as the paper's §5 model
//! requires: `cpu += r`, `page += r·s`, `queue += 1 − r·(1+s)`.

use serde::{Deserialize, Serialize};
use vr_simcore::time::SimSpan;

/// CPU configuration of a workstation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuParams {
    /// Execution speed relative to the reference node that trace CPU work is
    /// expressed in (1.0 = trace-native speed).
    pub speed: f64,
    /// Round-robin time slice.
    pub quantum: SimSpan,
    /// Cost of one context switch (0.1 ms in the paper).
    pub context_switch: SimSpan,
    /// The CPU threshold: the maximum number of job slots the CPU is willing
    /// to take (§1 of the paper).
    pub slots: u32,
}

impl CpuParams {
    /// Paper-standard CPU: native speed, 100 ms quantum, 0.1 ms context
    /// switch, and the given CPU threshold.
    pub fn with_slots(slots: u32) -> Self {
        CpuParams {
            speed: 1.0,
            quantum: SimSpan::from_millis(100),
            context_switch: SimSpan::from_micros(100),
            slots,
        }
    }

    /// Fraction of the CPU left after context-switch overhead when `k` jobs
    /// are multiprogrammed. One job runs switch-free.
    pub fn efficiency(&self, k: usize) -> f64 {
        if k <= 1 {
            return 1.0;
        }
        let q = self.quantum.as_secs_f64();
        let cs = self.context_switch.as_secs_f64();
        // vr-lint::allow(float-eq, reason = "exact zero-guard: both durations are non-negative, so the sum is zero only when preemption costs are disabled outright")
        if q + cs == 0.0 {
            1.0
        } else {
            q / (q + cs)
        }
    }

    /// Per-job progress rates (CPU seconds per wall second) for a node with
    /// the given per-job stall factors.
    ///
    /// The returned rates satisfy `Σ rᵢ·(1+sᵢ) ≤ speed` (the CPU cannot be
    /// more than fully used).
    pub fn progress_rates(&self, stall_factors: &[f64]) -> Vec<f64> {
        let share = self.progress_share(stall_factors.len());
        stall_factors.iter().map(|s| share / (1.0 + s)).collect()
    }

    /// The per-job CPU share `speed · ε(k) / k` (CPU seconds per wall second
    /// before stalls) when `k` jobs are multiprogrammed — the job-independent
    /// scalar of [`CpuParams::progress_rates`]. A workstation's rate pass
    /// takes it over the sum of its jobs' slot widths and gives a width-`w`
    /// job `w` shares.
    pub fn progress_share(&self, k: usize) -> f64 {
        self.speed * self.efficiency(k) / k as f64
    }
}

/// How one wall-clock interval splits for a single job.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceSlice {
    /// CPU progress gained, in seconds.
    pub cpu: f64,
    /// Page-fault stall, in seconds.
    pub page: f64,
    /// Time spent waiting for the CPU, in seconds.
    pub queue: f64,
}

impl ServiceSlice {
    /// Splits a wall interval `dt` (seconds) for a job progressing at `rate`
    /// with stall factor `stall`.
    ///
    /// The three components always sum to exactly `dt`.
    pub fn split(dt: f64, rate: f64, stall: f64) -> ServiceSlice {
        let cpu = rate * dt;
        let page = cpu * stall;
        ServiceSlice {
            cpu,
            page,
            queue: (dt - cpu - page).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> CpuParams {
        CpuParams::with_slots(8)
    }

    #[test]
    fn single_job_runs_at_full_speed() {
        let rates = cpu().progress_rates(&[0.0]);
        assert_eq!(rates, vec![1.0]);
    }

    #[test]
    fn efficiency_is_one_for_single_job() {
        assert_eq!(cpu().efficiency(0), 1.0);
        assert_eq!(cpu().efficiency(1), 1.0);
    }

    #[test]
    fn context_switch_overhead_kicks_in_with_multiprogramming() {
        let e = cpu().efficiency(2);
        // quantum 100ms, switch 0.1ms: eff = 100 / 100.1.
        assert!((e - 100.0 / 100.1).abs() < 1e-12);
        assert!(e < 1.0);
    }

    #[test]
    fn equal_jobs_share_equally() {
        let rates = cpu().progress_rates(&[0.0, 0.0, 0.0, 0.0]);
        let expected = cpu().efficiency(4) / 4.0;
        for r in rates {
            assert!((r - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn stalled_jobs_progress_slower() {
        let rates = cpu().progress_rates(&[0.0, 1.0]);
        // The stalled job progresses at half the pace of the clean one.
        assert!((rates[1] - rates[0] / 2.0).abs() < 1e-12);
    }

    #[test]
    fn total_cpu_use_never_exceeds_speed() {
        let stalls = [0.0, 0.5, 3.0, 10.0];
        let rates = cpu().progress_rates(&stalls);
        let used: f64 = rates
            .iter()
            .zip(stalls.iter())
            .map(|(r, s)| r * (1.0 + s))
            .sum();
        assert!(used <= 1.0 + 1e-12, "used {used}");
    }

    #[test]
    fn slower_node_scales_rates() {
        let slow = CpuParams {
            speed: 0.5,
            ..cpu()
        };
        assert_eq!(slow.progress_rates(&[0.0]), vec![0.5]);
    }

    #[test]
    fn service_slice_sums_to_dt() {
        let dt = 7.0;
        let s = ServiceSlice::split(dt, 0.25, 1.5);
        assert!((s.cpu + s.page + s.queue - dt).abs() < 1e-12);
        assert!((s.cpu - 1.75).abs() < 1e-12);
        assert!((s.page - 2.625).abs() < 1e-12);
    }

    #[test]
    fn lone_clean_job_accrues_no_queue_time() {
        let s = ServiceSlice::split(10.0, 1.0, 0.0);
        assert_eq!(s.cpu, 10.0);
        assert_eq!(s.page, 0.0);
        assert_eq!(s.queue, 0.0);
    }

    #[test]
    fn empty_node_has_no_rates() {
        assert!(cpu().progress_rates(&[]).is_empty());
    }
}
