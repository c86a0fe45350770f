//! The scheduler event log.
//!
//! Every scheduling decision of a run is recorded as a
//! [`SchedulerEvent`] — submissions, placements, blocks, migrations,
//! suspensions, and the reservation lifecycle — so post-hoc analysis (and
//! `vrecon run --log`) can reconstruct exactly how the cluster reacted to
//! the workload. The log is append-only and time-ordered.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use vr_cluster::job::JobId;
use vr_cluster::node::NodeId;
use vr_simcore::time::SimTime;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerEventKind {
    /// A job arrived at the cluster (its home workstation attached).
    Submitted,
    /// A job was admitted to a workstation (locally or after transit).
    Placed,
    /// A job entered the cluster pending queue.
    Blocked,
    /// A remote submission or migration left for its destination.
    TransitStarted,
    /// The blocking problem was detected at a workstation.
    BlockingDetected,
    /// A preemptive (overload) migration began (node = destination).
    MigrationStarted,
    /// A job left its workstation for a migration or special service
    /// (node = source) — the departure side of
    /// [`MigrationStarted`](SchedulerEventKind::MigrationStarted) /
    /// [`SpecialServiceStarted`](SchedulerEventKind::SpecialServiceStarted),
    /// recorded so per-node occupancy can be reconstructed from the log.
    MigratedOut,
    /// A job was migrated into a reserved workstation for special service.
    SpecialServiceStarted,
    /// A job was suspended (swapped out) by the Suspend-Largest strawman.
    Suspended,
    /// A suspended job was resumed.
    Resumed,
    /// A reserving period began on a workstation.
    ReservationBegan,
    /// A reservation was released (service complete, unused, or timeout).
    ReservationReleased,
    /// A job completed.
    Completed,
    /// A workstation crashed (fault injection); resident jobs drain back to
    /// the pending queue.
    NodeCrashed,
    /// A crashed workstation came back up.
    NodeRestarted,
    /// An in-flight migration failed in transit (fault injection).
    MigrationFailed,
    /// A job was re-queued by fault recovery (crash drain or abandoned
    /// migration).
    Requeued,
    /// A malleable job's slot width was changed (grown or shrunk) in place.
    JobResized,
}

impl SchedulerEventKind {
    /// Every kind, in declaration order.
    pub const ALL: [SchedulerEventKind; 18] = [
        SchedulerEventKind::Submitted,
        SchedulerEventKind::Placed,
        SchedulerEventKind::Blocked,
        SchedulerEventKind::TransitStarted,
        SchedulerEventKind::BlockingDetected,
        SchedulerEventKind::MigrationStarted,
        SchedulerEventKind::MigratedOut,
        SchedulerEventKind::SpecialServiceStarted,
        SchedulerEventKind::Suspended,
        SchedulerEventKind::Resumed,
        SchedulerEventKind::ReservationBegan,
        SchedulerEventKind::ReservationReleased,
        SchedulerEventKind::Completed,
        SchedulerEventKind::NodeCrashed,
        SchedulerEventKind::NodeRestarted,
        SchedulerEventKind::MigrationFailed,
        SchedulerEventKind::Requeued,
        SchedulerEventKind::JobResized,
    ];

    /// The stable string token for this kind — the `Display` form, the
    /// JSON encoding, and the trace-record `kind`, all from one table.
    /// Tokens are lowercase ASCII words joined by `-`, so they need no
    /// escaping in JSON.
    pub fn token(self) -> &'static str {
        match self {
            SchedulerEventKind::Submitted => "submitted",
            SchedulerEventKind::Placed => "placed",
            SchedulerEventKind::Blocked => "blocked",
            SchedulerEventKind::TransitStarted => "transit-started",
            SchedulerEventKind::BlockingDetected => "blocking-detected",
            SchedulerEventKind::MigrationStarted => "migration-started",
            SchedulerEventKind::MigratedOut => "migrated-out",
            SchedulerEventKind::SpecialServiceStarted => "special-service-started",
            SchedulerEventKind::Suspended => "suspended",
            SchedulerEventKind::Resumed => "resumed",
            SchedulerEventKind::ReservationBegan => "reservation-began",
            SchedulerEventKind::ReservationReleased => "reservation-released",
            SchedulerEventKind::Completed => "completed",
            SchedulerEventKind::NodeCrashed => "node-crashed",
            SchedulerEventKind::NodeRestarted => "node-restarted",
            SchedulerEventKind::MigrationFailed => "migration-failed",
            SchedulerEventKind::Requeued => "requeued",
            SchedulerEventKind::JobResized => "job-resized",
        }
    }
}

impl fmt::Display for SchedulerEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One entry of the scheduler event log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerEvent {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub kind: SchedulerEventKind,
    /// The job involved, if any.
    pub job: Option<JobId>,
    /// The workstation involved, if any.
    pub node: Option<NodeId>,
}

impl fmt::Display for SchedulerEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12.3}s  {:<24}",
            self.time.as_secs_f64(),
            self.kind.to_string()
        )?;
        if let Some(job) = self.job {
            write!(f, " {job}")?;
        }
        if let Some(node) = self.node {
            write!(f, " @ {node}")?;
        }
        Ok(())
    }
}

/// An append-only, time-ordered scheduler event log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    entries: Vec<SchedulerEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `time` precedes the last entry.
    pub fn record(
        &mut self,
        time: SimTime,
        kind: SchedulerEventKind,
        job: Option<JobId>,
        node: Option<NodeId>,
    ) {
        debug_assert!(
            self.entries.last().is_none_or(|e| e.time <= time),
            "event log must be time-ordered"
        );
        self.entries.push(SchedulerEvent {
            time,
            kind,
            job,
            node,
        });
    }

    /// All entries, in order.
    pub fn entries(&self) -> &[SchedulerEvent] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries concerning one job, in order.
    pub fn for_job(&self, job: JobId) -> impl Iterator<Item = &SchedulerEvent> {
        self.entries.iter().filter(move |e| e.job == Some(job))
    }

    /// Entries of one kind, in order.
    pub fn of_kind(&self, kind: SchedulerEventKind) -> impl Iterator<Item = &SchedulerEvent> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// Entries per kind, keyed by [`SchedulerEventKind::token`]; kinds that
    /// never occur are absent.
    pub fn kind_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for e in &self.entries {
            *counts.entry(e.kind.token()).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_filters() {
        let mut log = EventLog::new();
        log.record(
            SimTime::from_secs(1),
            SchedulerEventKind::Submitted,
            Some(JobId(1)),
            Some(NodeId(3)),
        );
        log.record(
            SimTime::from_secs(1),
            SchedulerEventKind::Placed,
            Some(JobId(1)),
            Some(NodeId(3)),
        );
        log.record(
            SimTime::from_secs(5),
            SchedulerEventKind::ReservationBegan,
            None,
            Some(NodeId(7)),
        );
        log.record(
            SimTime::from_secs(9),
            SchedulerEventKind::Completed,
            Some(JobId(1)),
            Some(NodeId(3)),
        );
        assert_eq!(log.len(), 4);
        assert_eq!(log.for_job(JobId(1)).count(), 3);
        assert_eq!(log.of_kind(SchedulerEventKind::ReservationBegan).count(), 1);
        assert_eq!(log.for_job(JobId(99)).count(), 0);
        assert_eq!(
            log.kind_counts(),
            BTreeMap::from([
                ("completed", 1),
                ("placed", 1),
                ("reservation-began", 1),
                ("submitted", 1),
            ])
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_panics_in_debug() {
        let mut log = EventLog::new();
        log.record(
            SimTime::from_secs(5),
            SchedulerEventKind::Submitted,
            None,
            None,
        );
        log.record(
            SimTime::from_secs(1),
            SchedulerEventKind::Completed,
            None,
            None,
        );
    }

    #[test]
    fn display_is_informative() {
        let e = SchedulerEvent {
            time: SimTime::from_millis(1500),
            kind: SchedulerEventKind::MigrationStarted,
            job: Some(JobId(4)),
            node: Some(NodeId(2)),
        };
        let s = e.to_string();
        assert!(s.contains("1.500"), "{s}");
        assert!(s.contains("migration-started"), "{s}");
        assert!(s.contains("job#4"), "{s}");
        assert!(s.contains("node#2"), "{s}");
    }
}
