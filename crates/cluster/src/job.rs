//! Jobs: what they demand and how their execution time decomposes.
//!
//! A [`JobSpec`] is the static description taken from a workload trace:
//! total CPU work, a [`MemoryProfile`] describing how the working set evolves
//! with execution *progress* (not wall time — memory phases are tied to what
//! the program has computed so far), and metadata. A [`RunningJob`] wraps a
//! spec with dynamic state: progress, the wall-clock
//! [`TimeBreakdown`], and migration history.
//!
//! The breakdown mirrors the paper's §5 model exactly:
//! `t_exe(i) = t_cpu(i) + t_page(i) + t_que(i) + t_mig(i)`.

use std::fmt;

use serde::{Deserialize, Serialize};
use vr_simcore::time::{SimSpan, SimTime};

use crate::units::Bytes;

/// Identifies a job within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Broad workload class of a program, recorded for reporting; the simulator's
/// timing model is driven by the CPU work and memory profile, not the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobClass {
    /// Dominated by computation with a modest working set.
    CpuIntensive,
    /// Dominated by memory footprint.
    MemoryIntensive,
    /// Both CPU- and memory-intensive (the SPEC 2000 group).
    CpuMemoryIntensive,
    /// Performs significant file I/O.
    IoActive,
}

impl fmt::Display for JobClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobClass::CpuIntensive => "cpu-intensive",
            JobClass::MemoryIntensive => "memory-intensive",
            JobClass::CpuMemoryIntensive => "cpu+memory-intensive",
            JobClass::IoActive => "io-active",
        };
        f.write_str(s)
    }
}

/// One constant-working-set segment of a job's memory demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemPhase {
    /// The phase is active while the job's progress is below this many
    /// microseconds of consumed CPU work.
    pub until_progress: SimSpan,
    /// Working-set size during the phase.
    pub working_set: Bytes,
}

/// Piecewise-constant working-set demand as a function of execution progress.
///
/// The final phase's `until_progress` may be [`SimSpan::MAX`]; it covers the
/// remainder of the job regardless.
///
/// ```
/// use vr_cluster::job::MemoryProfile;
/// use vr_cluster::units::Bytes;
/// use vr_simcore::time::SimSpan;
///
/// // Ramp: 10MB for the first 5s of progress, then 100MB.
/// let profile = MemoryProfile::from_phases(vec![
///     (SimSpan::from_secs(5), Bytes::from_mb(10)),
///     (SimSpan::MAX, Bytes::from_mb(100)),
/// ])?;
/// assert_eq!(profile.working_set_at(SimSpan::from_secs(2)), Bytes::from_mb(10));
/// assert_eq!(profile.working_set_at(SimSpan::from_secs(7)), Bytes::from_mb(100));
/// assert_eq!(profile.max_working_set(), Bytes::from_mb(100));
/// # Ok::<(), vr_cluster::job::InvalidProfile>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryProfile {
    phases: Vec<MemPhase>,
}

/// Error constructing a [`MemoryProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidProfile {
    /// No phases were supplied.
    Empty,
    /// Phase boundaries are not strictly increasing.
    NonMonotonic,
}

impl fmt::Display for InvalidProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidProfile::Empty => f.write_str("memory profile has no phases"),
            InvalidProfile::NonMonotonic => {
                f.write_str("memory profile phase boundaries must be strictly increasing")
            }
        }
    }
}

impl std::error::Error for InvalidProfile {}

impl MemoryProfile {
    /// A profile with a single constant working set.
    pub fn constant(working_set: Bytes) -> Self {
        MemoryProfile {
            phases: vec![MemPhase {
                until_progress: SimSpan::MAX,
                working_set,
            }],
        }
    }

    /// Builds a profile from `(until_progress, working_set)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProfile`] if the list is empty or the boundaries are
    /// not strictly increasing.
    pub fn from_phases(phases: Vec<(SimSpan, Bytes)>) -> Result<Self, InvalidProfile> {
        if phases.is_empty() {
            return Err(InvalidProfile::Empty);
        }
        for w in phases.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(InvalidProfile::NonMonotonic);
            }
        }
        Ok(MemoryProfile {
            phases: phases
                .into_iter()
                .map(|(until_progress, working_set)| MemPhase {
                    until_progress,
                    working_set,
                })
                .collect(),
        })
    }

    /// The working set demanded at a given progress point.
    pub fn working_set_at(&self, progress: SimSpan) -> Bytes {
        for phase in &self.phases {
            if progress < phase.until_progress {
                return phase.working_set;
            }
        }
        // Progress past the last boundary: the final phase extends forever.
        self.phases
            .last()
            // vr-lint::allow(panic-in-lib, reason = "MemoryProfile construction rejects empty phase lists")
            .expect("profile is never empty")
            .working_set
    }

    /// The first phase boundary strictly after `progress`, if any phase
    /// change remains.
    pub fn next_boundary_after(&self, progress: SimSpan) -> Option<SimSpan> {
        self.phases
            .iter()
            .map(|p| p.until_progress)
            .find(|b| *b > progress && *b != SimSpan::MAX)
    }

    /// The phase containing `progress`, as `(phase end, working set)` —
    /// `working_set_at` and its validity horizon in one walk. Boundaries are
    /// strictly increasing, so the first phase with `progress` strictly
    /// before its end is the active one; past the last boundary the final
    /// phase extends forever.
    pub fn phase_at(&self, progress: SimSpan) -> (SimSpan, Bytes) {
        for phase in &self.phases {
            if progress < phase.until_progress {
                return (phase.until_progress, phase.working_set);
            }
        }
        let last = self
            .phases
            .last()
            // vr-lint::allow(panic-in-lib, reason = "MemoryProfile construction rejects empty phase lists")
            .expect("profile is never empty");
        (SimSpan::MAX, last.working_set)
    }

    /// The largest working set over the whole profile (the "working set"
    /// column of the paper's Tables 1–2).
    pub fn max_working_set(&self) -> Bytes {
        self.phases
            .iter()
            .map(|p| p.working_set)
            .max()
            // vr-lint::allow(panic-in-lib, reason = "MemoryProfile construction rejects empty phase lists")
            .expect("profile is never empty")
    }

    /// The phases, in order.
    pub fn phases(&self) -> &[MemPhase] {
        &self.phases
    }
}

/// A malleable job's declared slot-width range.
///
/// A malleable job starts at `min_width` slots and may be grown or shrunk
/// by the scheduler within `min_width..=max_width` at load-exchange ticks;
/// a job running at width `w` holds `w` job slots and receives `w`
/// processor-sharing shares. Non-malleable jobs (the default) are
/// equivalent to `min_width == max_width == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MalleableSpec {
    /// Smallest width the job can run at (≥ 1).
    pub min_width: u32,
    /// Largest width the job may be grown to (≥ `min_width`).
    pub max_width: u32,
}

impl MalleableSpec {
    /// Checks `1 <= min_width <= max_width`.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_width == 0 {
            return Err("malleable min_width must be at least 1".into());
        }
        if self.max_width < self.min_width {
            return Err(format!(
                "malleable max_width {} is below min_width {}",
                self.max_width, self.min_width
            ));
        }
        Ok(())
    }
}

/// Static description of a job, as read from a workload trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique id within the trace.
    pub id: JobId,
    /// Program name (e.g. `"mcf"`, `"r-wing"`).
    pub name: String,
    /// Workload class, for reporting.
    pub class: JobClass,
    /// When the job is submitted to the cluster.
    pub submit: SimTime,
    /// Total CPU work, expressed as seconds on a dedicated reference node of
    /// the cluster the trace targets.
    pub cpu_work: SimSpan,
    /// Working-set demand as a function of progress.
    pub memory: MemoryProfile,
    /// Average I/O operations per second of progress. Metadata only: the
    /// ICDCS 2002 execution-time model has no I/O term (§5 decomposes wall
    /// time into cpu + page + queue + migration), so I/O intensity is carried
    /// through to reports but does not perturb timing.
    pub io_rate: f64,
    /// Optional malleable slot-width range. `None` (the common case) means
    /// a rigid single-slot job; only the malleable scheduling family reads
    /// it.
    #[serde(default)]
    pub malleable: Option<MalleableSpec>,
}

impl JobSpec {
    /// The job's peak memory demand.
    pub fn max_working_set(&self) -> Bytes {
        self.memory.max_working_set()
    }

    /// The slot width the job starts at (its declared minimum, or 1).
    pub fn initial_width(&self) -> u32 {
        self.malleable.map_or(1, |m| m.min_width)
    }
}

/// Wall-clock decomposition of a job's execution, in seconds.
///
/// Matches §5 of the paper: wall time = cpu + page + queue + migration.
/// Components accumulate as `f64` seconds because processor-sharing rates
/// split microseconds fractionally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// CPU service received.
    pub cpu: f64,
    /// Stall time due to page faults.
    pub page: f64,
    /// Time waiting for CPU service (in the multiprogramming round-robin or
    /// in the cluster's pending queue).
    pub queue: f64,
    /// Time frozen during preemptive migrations and remote-submission setup.
    pub migration: f64,
}

impl TimeBreakdown {
    /// Total wall-clock time.
    pub fn wall(&self) -> f64 {
        self.cpu + self.page + self.queue + self.migration
    }

    /// The paper's slowdown metric: wall-clock time over CPU execution time.
    ///
    /// Returns 1.0 for jobs that received no CPU service (degenerate).
    pub fn slowdown(&self) -> f64 {
        if self.cpu <= 0.0 {
            1.0
        } else {
            self.wall() / self.cpu
        }
    }

    /// Component-wise sum.
    pub fn add(&self, other: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            cpu: self.cpu + other.cpu,
            page: self.page + other.page,
            queue: self.queue + other.queue,
            migration: self.migration + other.migration,
        }
    }
}

/// Why a job is not currently progressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting in the cluster-level pending queue for a placement.
    Pending,
    /// Resident on a node, sharing its CPU.
    Running,
    /// Frozen mid-transfer to another node.
    Migrating,
    /// Swapped out entirely by the scheduler (the suspension strawman of
    /// the paper's §1); holds no memory and makes no progress.
    Suspended,
    /// Finished.
    Completed,
}

/// Memo of the memory phase a job's progress currently sits in, as
/// `(phase end, working set)`, together with the exact `progress_secs` bits
/// it was last validated at. Purely derived state: progress is monotonic
/// and phases are piecewise-constant with strictly increasing ends, so a
/// cached phase stays the correct answer for every later progress value
/// below its end, and a read at the validated bits needs no check at all —
/// not even the rounding of progress to a span. Interior-mutable so `&self`
/// readers can fill it; skipped by serde (re-derived on demand) and inert
/// under `PartialEq` (it is not part of the job's value).
#[derive(Debug, Clone, Default)]
pub struct PhaseMemo(std::cell::Cell<Option<ValidatedPhase>>);

/// A [`PhaseMemo`] entry.
#[derive(Debug, Clone, Copy)]
struct ValidatedPhase {
    progress_bits: u64,
    until: SimSpan,
    working_set: Bytes,
}

impl PartialEq for PhaseMemo {
    fn eq(&self, _: &Self) -> bool {
        true // a cache never distinguishes two jobs
    }
}

/// A job in flight: spec plus dynamic execution state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningJob {
    /// The static description.
    pub spec: JobSpec,
    /// CPU work consumed so far, in seconds (f64 to avoid integer rounding
    /// drift under fractional processor-sharing rates).
    pub progress_secs: f64,
    /// Wall-clock decomposition so far.
    pub breakdown: TimeBreakdown,
    /// Current lifecycle state.
    pub state: JobState,
    /// Number of preemptive migrations endured.
    pub migrations: u32,
    /// `true` if the first placement was a remote submission.
    pub remote_submitted: bool,
    /// When the job finished, if it has.
    pub completed_at: Option<SimTime>,
    /// Current slot width (processor-sharing weight). Always 1 for rigid
    /// jobs; the malleable family moves it within the job's declared
    /// [`MalleableSpec`] range.
    pub width: u32,
    /// Current-memory-phase memo (see [`PhaseMemo`]).
    #[serde(skip)]
    pub phase_memo: PhaseMemo,
}

impl RunningJob {
    /// Wraps a spec in its initial (pending) state.
    pub fn new(spec: JobSpec) -> Self {
        let width = spec.initial_width();
        RunningJob {
            spec,
            progress_secs: 0.0,
            breakdown: TimeBreakdown::default(),
            state: JobState::Pending,
            migrations: 0,
            remote_submitted: false,
            completed_at: None,
            width,
            phase_memo: PhaseMemo::default(),
        }
    }

    /// Shorthand for the job id.
    pub fn id(&self) -> JobId {
        self.spec.id
    }

    /// Progress expressed as a span.
    // vr-analyze::allow(panic-path, reason = "progress_secs is clamped non-negative and bounded by cpu_work, which already round-tripped through a span")
    pub fn progress(&self) -> SimSpan {
        SimSpan::from_secs_f64(self.progress_secs.max(0.0))
    }

    /// CPU work still to be done, in seconds.
    pub fn remaining_secs(&self) -> f64 {
        (self.spec.cpu_work.as_secs_f64() - self.progress_secs).max(0.0)
    }

    /// `true` once all CPU work is consumed.
    pub fn is_complete(&self) -> bool {
        self.remaining_secs() <= 0.0
    }

    /// The working set the job demands right now.
    pub fn current_working_set(&self) -> Bytes {
        self.current_phase().1
    }

    /// The first memory-phase boundary strictly after the current progress,
    /// if any phase change remains. Equivalent to
    /// `spec.memory.next_boundary_after(progress())`, served from the memo.
    pub fn next_phase_boundary(&self) -> Option<SimSpan> {
        let (until, _) = self.current_phase();
        (until != SimSpan::MAX).then_some(until)
    }

    /// The memoised `(phase end, working set)` for the current progress.
    fn current_phase(&self) -> (SimSpan, Bytes) {
        let progress_bits = self.progress_secs.to_bits();
        let memo = self.phase_memo.0.get();
        if let Some(m) = memo.filter(|m| m.progress_bits == progress_bits) {
            return (m.until, m.working_set);
        }
        let progress = self.progress();
        let (until, working_set) = match memo {
            Some(m) if progress < m.until => (m.until, m.working_set),
            _ => self.spec.memory.phase_at(progress),
        };
        self.phase_memo.0.set(Some(ValidatedPhase {
            progress_bits,
            until,
            working_set,
        }));
        (until, working_set)
    }

    /// The paper's slowdown metric for this job.
    pub fn slowdown(&self) -> f64 {
        self.breakdown.slowdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ws_mb: u64, cpu_secs: u64) -> JobSpec {
        JobSpec {
            id: JobId(1),
            name: "test".to_owned(),
            class: JobClass::CpuIntensive,
            submit: SimTime::ZERO,
            cpu_work: SimSpan::from_secs(cpu_secs),
            memory: MemoryProfile::constant(Bytes::from_mb(ws_mb)),
            io_rate: 0.0,
            malleable: None,
        }
    }

    #[test]
    fn constant_profile_is_flat() {
        let p = MemoryProfile::constant(Bytes::from_mb(50));
        assert_eq!(p.working_set_at(SimSpan::ZERO), Bytes::from_mb(50));
        assert_eq!(
            p.working_set_at(SimSpan::from_secs(999)),
            Bytes::from_mb(50)
        );
        assert_eq!(p.max_working_set(), Bytes::from_mb(50));
        assert_eq!(p.next_boundary_after(SimSpan::ZERO), None);
    }

    #[test]
    fn phased_profile_lookup_and_boundaries() {
        let p = MemoryProfile::from_phases(vec![
            (SimSpan::from_secs(10), Bytes::from_mb(20)),
            (SimSpan::from_secs(30), Bytes::from_mb(80)),
            (SimSpan::MAX, Bytes::from_mb(40)),
        ])
        .unwrap();
        assert_eq!(p.working_set_at(SimSpan::from_secs(5)), Bytes::from_mb(20));
        assert_eq!(p.working_set_at(SimSpan::from_secs(10)), Bytes::from_mb(80));
        assert_eq!(p.working_set_at(SimSpan::from_secs(29)), Bytes::from_mb(80));
        assert_eq!(p.working_set_at(SimSpan::from_secs(31)), Bytes::from_mb(40));
        assert_eq!(p.max_working_set(), Bytes::from_mb(80));
        assert_eq!(
            p.next_boundary_after(SimSpan::ZERO),
            Some(SimSpan::from_secs(10))
        );
        assert_eq!(
            p.next_boundary_after(SimSpan::from_secs(10)),
            Some(SimSpan::from_secs(30))
        );
        assert_eq!(p.next_boundary_after(SimSpan::from_secs(30)), None);
    }

    #[test]
    fn profile_validation() {
        assert_eq!(
            MemoryProfile::from_phases(vec![]).unwrap_err(),
            InvalidProfile::Empty
        );
        let err = MemoryProfile::from_phases(vec![
            (SimSpan::from_secs(10), Bytes::from_mb(1)),
            (SimSpan::from_secs(10), Bytes::from_mb(2)),
        ])
        .unwrap_err();
        assert_eq!(err, InvalidProfile::NonMonotonic);
    }

    #[test]
    fn breakdown_decomposition_and_slowdown() {
        let b = TimeBreakdown {
            cpu: 100.0,
            page: 20.0,
            queue: 70.0,
            migration: 10.0,
        };
        assert_eq!(b.wall(), 200.0);
        assert_eq!(b.slowdown(), 2.0);
        let sum = b.add(&b);
        assert_eq!(sum.wall(), 400.0);
    }

    #[test]
    fn degenerate_slowdown_is_one() {
        assert_eq!(TimeBreakdown::default().slowdown(), 1.0);
    }

    #[test]
    fn running_job_lifecycle_fields() {
        let mut job = RunningJob::new(spec(100, 60));
        assert_eq!(job.state, JobState::Pending);
        assert_eq!(job.remaining_secs(), 60.0);
        assert!(!job.is_complete());
        assert_eq!(job.current_working_set(), Bytes::from_mb(100));
        job.progress_secs = 60.0;
        assert!(job.is_complete());
        assert_eq!(job.remaining_secs(), 0.0);
    }

    #[test]
    fn current_working_set_follows_progress() {
        let mut job = RunningJob::new(JobSpec {
            memory: MemoryProfile::from_phases(vec![
                (SimSpan::from_secs(5), Bytes::from_mb(10)),
                (SimSpan::MAX, Bytes::from_mb(200)),
            ])
            .unwrap(),
            ..spec(0, 100)
        });
        assert_eq!(job.current_working_set(), Bytes::from_mb(10));
        job.progress_secs = 6.0;
        assert_eq!(job.current_working_set(), Bytes::from_mb(200));
    }
}
