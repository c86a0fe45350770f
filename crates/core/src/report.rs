//! The result of one simulation run.

use serde::{Deserialize, Serialize};
use vr_cluster::job::RunningJob;
use vr_cluster::node::NodeCounters;
use vr_faults::FaultCounters;
use vr_metrics::sampler::ClusterGauges;
use vr_metrics::summary::WorkloadSummary;
use vr_simcore::engine::RunStats;
use vr_simcore::time::SimTime;

use crate::events::EventLog;
use crate::policy::PolicyKind;
use crate::reservation::ReservationStats;

/// Scheduler-level counters over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerCounters {
    /// Jobs placed on their home workstation at first attempt.
    pub local_submissions: u64,
    /// Jobs remote-submitted (at first attempt or after pending).
    pub remote_submissions: u64,
    /// Jobs that entered the cluster pending queue at least once.
    pub blocked_submissions: u64,
    /// Fault-driven preemptive migrations (not counting reserved-service
    /// migrations).
    pub overload_migrations: u64,
    /// Migrations into reserved workstations (special service).
    pub reserved_migrations: u64,
    /// Blocking episodes detected: counted when a node newly enters the
    /// blocked state (edge-triggered), not on every scan tick it stays
    /// there.
    pub blocking_detections: u64,
    /// Placements bounced by a node because the load index was stale.
    pub stale_rejections: u64,
    /// Jobs suspended (swapped out) by the Suspend-Largest strawman.
    pub suspensions: u64,
    /// Suspended jobs resumed.
    pub resumes: u64,
    /// Malleable jobs grown to a wider slot width.
    pub grows: u64,
    /// Malleable jobs shrunk to a narrower slot width.
    pub shrinks: u64,
}

/// Everything measured during one run.
///
/// Derives `PartialEq` so tests can assert the determinism contract
/// directly: same config, same seed, same fault plan ⇒ equal reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// The trace that was executed.
    pub trace_name: String,
    /// The policy that scheduled it.
    pub policy: PolicyKind,
    /// RNG seed of the run.
    pub seed: u64,
    /// Every job with its final breakdown, ordered by id.
    pub jobs: Vec<RunningJob>,
    /// Aggregated §4/§5 measurements.
    pub summary: WorkloadSummary,
    /// Periodic cluster gauges (idle memory, balance skew, …).
    pub gauges: ClusterGauges,
    /// Scheduler counters.
    pub counters: SchedulerCounters,
    /// Reservation activity (all zeros for non-reconfiguring policies).
    pub reservations: ReservationStats,
    /// Per-node utilization counters.
    pub node_counters: Vec<NodeCounters>,
    /// The full scheduler event log (submissions, placements, migrations,
    /// reservations, completions).
    pub events: EventLog,
    /// When the last job completed (the makespan).
    pub finished_at: SimTime,
    /// Engine counters for the run. `run_stats.drained == false` means the
    /// run hit the `max_sim_time` horizon with events still queued — its
    /// measurements are truncated, not converged, and every consumer
    /// (CLI, experiment binaries) must flag it loudly.
    pub run_stats: RunStats,
    /// Jobs that had not completed when the safety horizon was hit.
    pub unfinished_jobs: usize,
    /// Injected faults and the scheduler's recovery actions (all zeros when
    /// the run had no fault plan).
    pub faults: FaultCounters,
    /// Invariant violations found by the auditor (empty when auditing was
    /// off — or, as it should be, when it found nothing).
    pub audit_violations: Vec<String>,
}

impl RunReport {
    /// The paper's primary metric: mean slowdown over all jobs.
    pub fn avg_slowdown(&self) -> f64 {
        self.summary.avg_slowdown
    }

    /// Total execution time `T_exe` (seconds) summed over all jobs.
    pub fn total_execution_secs(&self) -> f64 {
        self.summary.total_execution_secs()
    }

    /// Total queuing time `T_que` (seconds) summed over all jobs.
    pub fn total_queue_secs(&self) -> f64 {
        self.summary.total_queue_secs()
    }

    /// Average idle memory volume (MB) over the run.
    pub fn avg_idle_memory_mb(&self) -> f64 {
        self.gauges.avg_idle_memory_mb()
    }

    /// Average job balance skew over the run.
    pub fn avg_balance_skew(&self) -> f64 {
        self.gauges.avg_balance_skew()
    }

    /// `true` if every job completed.
    pub fn all_completed(&self) -> bool {
        self.unfinished_jobs == 0
    }

    /// Verifies the §5 identity for every completed job: wall-clock time
    /// (completion − submission) equals `cpu + page + queue + migration`
    /// within `tolerance_secs`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violating job.
    pub fn check_breakdown_identity(&self, tolerance_secs: f64) -> Result<(), String> {
        for job in &self.jobs {
            let Some(done) = job.completed_at else {
                continue;
            };
            let elapsed = done.saturating_since(job.spec.submit).as_secs_f64();
            let wall = job.breakdown.wall();
            if (elapsed - wall).abs() > tolerance_secs {
                return Err(format!(
                    "{}: elapsed {elapsed:.6}s != breakdown {wall:.6}s",
                    job.id()
                ));
            }
        }
        Ok(())
    }

    /// One-paragraph human summary.
    ///
    /// ```
    /// # use vrecon::report::RunReport;
    /// # fn demo(report: &RunReport) {
    /// println!("{}", report.brief());
    /// # }
    /// ```
    pub fn brief(&self) -> String {
        format!(
            "{} under {}: {} jobs, avg slowdown {:.2}, T_exe {:.0}s, T_que {:.0}s, \
             avg idle mem {:.0}MB, skew {:.2}, {} migrations, {} reservations",
            self.trace_name,
            self.policy,
            self.summary.jobs,
            self.avg_slowdown(),
            self.total_execution_secs(),
            self.total_queue_secs(),
            self.avg_idle_memory_mb(),
            self.avg_balance_skew(),
            self.counters.overload_migrations + self.counters.reserved_migrations,
            self.reservations.started,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_cluster::job::{JobClass, JobId, JobSpec, MemoryProfile, RunningJob, TimeBreakdown};
    use vr_cluster::units::Bytes;
    use vr_simcore::time::{SimSpan, SimTime};

    fn job(id: u64, name: &str, cpu: f64, queue: f64) -> RunningJob {
        let mut j = RunningJob::new(JobSpec {
            id: JobId(id),
            name: name.to_owned(),
            class: JobClass::CpuIntensive,
            submit: SimTime::ZERO,
            cpu_work: SimSpan::from_secs_f64(cpu),
            memory: MemoryProfile::constant(Bytes::from_mb(10)),
            io_rate: 0.0,
            malleable: None,
        });
        j.breakdown = TimeBreakdown {
            cpu,
            page: 0.0,
            queue,
            migration: 0.0,
        };
        j.completed_at = Some(SimTime::from_secs_f64(cpu + queue));
        j
    }

    fn report(jobs: Vec<RunningJob>) -> RunReport {
        let summary = vr_metrics::summary::WorkloadSummary::of_jobs(jobs.iter());
        RunReport {
            trace_name: "test".into(),
            policy: crate::policy::PolicyKind::GLoadSharing,
            seed: 0,
            summary,
            gauges: Default::default(),
            counters: Default::default(),
            reservations: Default::default(),
            node_counters: vec![vr_cluster::node::NodeCounters {
                delivered_cpu: 50.0,
                page_stall: 5.0,
                admitted: 2,
                completed: 2,
                migrated_out: 0,
                io_ops: 12.0,
            }],
            events: Default::default(),
            finished_at: SimTime::from_secs(100),
            run_stats: Default::default(),
            unfinished_jobs: 0,
            faults: Default::default(),
            audit_violations: Vec::new(),
            jobs,
        }
    }

    #[test]
    fn breakdown_identity_detects_mismatch() {
        let mut bad = job(0, "a", 10.0, 10.0);
        bad.completed_at = Some(SimTime::from_secs(99)); // wall says 20
        let r = report(vec![bad]);
        assert!(r.check_breakdown_identity(0.01).is_err());
        let good = report(vec![job(0, "a", 10.0, 10.0)]);
        good.check_breakdown_identity(0.01).unwrap();
    }

    #[test]
    fn brief_mentions_the_essentials() {
        let r = report(vec![job(0, "a", 10.0, 10.0)]);
        let text = r.brief();
        assert!(text.contains("test"));
        assert!(text.contains("G-Loadsharing"));
        assert!(text.contains("slowdown"));
    }
}
