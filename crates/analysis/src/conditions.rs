//! Predicates for when virtual reconfiguration helps — and when it cannot.
//!
//! §5 lists three conditions under which "virtual reconfiguration can be
//! potentially unsuccessful":
//!
//! 1. the cluster is lightly loaded (dynamic load sharing alone suffices);
//! 2. the majority of jobs are equally sized in their memory demands
//!    (unsuitable placements become unlikely);
//! 3. the migrated job is larger than the reserved workstation's user space
//!    (its faults merely move).
//!
//! §2.3 adds the precondition that the *accumulated* idle memory must exceed
//! the user space of a single workstation for a reservation to be worth
//! making; the engine checks it before beginning a reservation.

use serde::{Deserialize, Serialize};
use vr_cluster::params::ClusterParams;
use vr_cluster::units::Bytes;
use vr_workload::trace::Trace;

/// Assessment of a workload/cluster pairing for virtual reconfiguration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Applicability {
    /// Offered CPU load: total dedicated CPU work over cluster capacity for
    /// the submission window.
    pub offered_load: f64,
    /// Coefficient of variation of peak working sets (σ/μ). Low values mean
    /// "equally sized memory demands" (§5 condition 2).
    pub memory_demand_cv: f64,
    /// Fraction of jobs whose peak demand exceeds half a workstation's user
    /// memory — the candidates that can block nodes.
    pub large_job_fraction: f64,
    /// `true` if some job's peak demand exceeds the largest workstation's
    /// user memory (§5 condition 3 / §2.3 network-RAM caveat).
    pub oversized_jobs: bool,
}

/// Below this offered load the cluster counts as lightly loaded (§5
/// condition 1).
pub const LIGHT_LOAD_THRESHOLD: f64 = 0.35;

/// Below this coefficient of variation, memory demands count as equally
/// sized (§5 condition 2).
pub const EQUAL_DEMAND_CV_THRESHOLD: f64 = 0.15;

impl Applicability {
    /// Assesses `trace` against `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn assess(trace: &Trace, cluster: &ClusterParams) -> Applicability {
        assert!(!trace.is_empty(), "cannot assess an empty trace");
        let window = trace.last_submission().as_secs_f64().max(1.0);
        let offered_load = trace.total_cpu_work_secs() / (cluster.size() as f64 * window);
        let demands: Vec<f64> = trace
            .jobs
            .iter()
            .map(|j| j.max_working_set().as_mb_f64())
            .collect();
        let mean = demands.iter().sum::<f64>() / demands.len() as f64;
        let var = demands.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / demands.len() as f64;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        let avg_user = cluster.average_user_memory();
        let half_node = avg_user.mul_f64(0.5);
        let large = trace
            .jobs
            .iter()
            .filter(|j| j.max_working_set() > half_node)
            .count();
        let max_user = cluster
            .nodes
            .iter()
            .map(|n| n.memory.user)
            .max()
            .unwrap_or(Bytes::ZERO);
        let oversized = trace.jobs.iter().any(|j| j.max_working_set() > max_user);
        Applicability {
            offered_load,
            memory_demand_cv: cv,
            large_job_fraction: large as f64 / trace.len() as f64,
            oversized_jobs: oversized,
        }
    }

    /// §5 condition 1: the cluster is lightly loaded.
    pub fn is_lightly_loaded(&self) -> bool {
        self.offered_load < LIGHT_LOAD_THRESHOLD
    }

    /// §5 condition 2: memory demands are (nearly) equally sized.
    pub fn has_equal_memory_demands(&self) -> bool {
        self.memory_demand_cv < EQUAL_DEMAND_CV_THRESHOLD
    }

    /// §2.2 point 4: big jobs dominate, so reserving would starve normal
    /// jobs (reservation caps must bind).
    pub fn big_jobs_dominant(&self) -> bool {
        self.large_job_fraction > 0.5
    }

    /// Overall §5 expectation: reconfiguration should pay off.
    pub fn expects_gain(&self) -> bool {
        !self.is_lightly_loaded()
            && !self.has_equal_memory_demands()
            && !self.big_jobs_dominant()
            && self.large_job_fraction > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_simcore::rng::SimRng;
    use vr_workload::synth;
    use vr_workload::trace::{app_trace, spec_trace, TraceLevel};

    #[test]
    fn spec_traces_expect_gain() {
        let trace = spec_trace(TraceLevel::Normal, &mut SimRng::seed_from(1));
        let a = Applicability::assess(&trace, &ClusterParams::cluster1());
        assert!(!a.is_lightly_loaded(), "offered load {}", a.offered_load);
        assert!(!a.has_equal_memory_demands(), "cv {}", a.memory_demand_cv);
        assert!(!a.oversized_jobs);
        assert!(a.expects_gain(), "{a:?}");
    }

    #[test]
    fn app_traces_expect_gain_with_moderate_large_fraction() {
        let app = Applicability::assess(
            &app_trace(TraceLevel::Normal, &mut SimRng::seed_from(1)),
            &ClusterParams::cluster2(),
        );
        assert!(app.expects_gain(), "{app:?}");
        // Roughly 3 of 7 group-2 programs exceed half a 128 MB node.
        assert!(
            (0.2..0.5).contains(&app.large_job_fraction),
            "large fraction {}",
            app.large_job_fraction
        );
    }

    #[test]
    fn equal_memory_workload_is_recognized() {
        let trace = synth::equal_memory(100, Bytes::from_mb(64), &mut SimRng::seed_from(2));
        let a = Applicability::assess(&trace, &ClusterParams::cluster2());
        assert!(a.has_equal_memory_demands(), "cv {}", a.memory_demand_cv);
        assert!(!a.expects_gain());
    }

    #[test]
    fn light_load_is_recognized() {
        let trace = synth::light_load(20, &mut SimRng::seed_from(3));
        let a = Applicability::assess(&trace, &ClusterParams::cluster2());
        assert!(a.is_lightly_loaded(), "offered load {}", a.offered_load);
        assert!(!a.expects_gain());
    }

    #[test]
    fn big_dominant_workload_is_recognized() {
        let trace =
            synth::big_job_dominant(200, Bytes::from_mb(128), 0.8, &mut SimRng::seed_from(4));
        let a = Applicability::assess(&trace, &ClusterParams::cluster2());
        assert!(a.big_jobs_dominant(), "{a:?}");
        assert!(!a.expects_gain());
    }
}
