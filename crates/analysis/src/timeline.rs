//! Time-resolved views derived from the scheduler event log.
//!
//! The paper's figures report aggregates; these helpers reconstruct the
//! underlying dynamics from a run's [`EventLog`]: how the blocked-submission
//! queue grew and drained, when workstations were reserved, and how job
//! completions flowed. They are what the blocking problem *looks like* in a
//! run, and what the adaptive reconfiguration's "quick resolution" claim
//! means operationally.

use std::collections::{BTreeMap, BTreeSet};

use vr_cluster::job::JobId;
use vr_simcore::time::{SimSpan, SimTime};
use vrecon::events::{EventLog, SchedulerEventKind};

/// Step series of the blocked-submission queue length over time.
///
/// A job joins on [`SchedulerEventKind::Blocked`] and leaves on its next
/// [`Placed`](SchedulerEventKind::Placed),
/// [`TransitStarted`](SchedulerEventKind::TransitStarted) or
/// [`Resumed`](SchedulerEventKind::Resumed).
pub fn pending_queue_timeline(log: &EventLog) -> Vec<(SimTime, usize)> {
    let mut waiting: BTreeSet<JobId> = BTreeSet::new();
    let mut out: Vec<(SimTime, usize)> = Vec::new();
    for event in log.entries() {
        let Some(job) = event.job else { continue };
        let changed = match event.kind {
            SchedulerEventKind::Blocked => waiting.insert(job),
            SchedulerEventKind::Placed
            | SchedulerEventKind::TransitStarted
            | SchedulerEventKind::Resumed => waiting.remove(&job),
            _ => false,
        };
        if changed {
            out.push((event.time, waiting.len()));
        }
    }
    out
}

/// Step series of the number of reserved workstations over time.
pub fn reservation_timeline(log: &EventLog) -> Vec<(SimTime, usize)> {
    let mut reserved = 0usize;
    let mut out = Vec::new();
    for event in log.entries() {
        match event.kind {
            SchedulerEventKind::ReservationBegan => {
                reserved += 1;
                out.push((event.time, reserved));
            }
            SchedulerEventKind::ReservationReleased => {
                reserved = reserved.saturating_sub(1);
                out.push((event.time, reserved));
            }
            _ => {}
        }
    }
    out
}

/// Per-episode waiting times in the blocked-submission queue, in seconds.
/// A job blocked multiple times contributes multiple episodes; an episode
/// still open at the end of the log is dropped.
pub fn blocked_episode_durations(log: &EventLog) -> Vec<f64> {
    let mut since: BTreeMap<JobId, SimTime> = BTreeMap::new();
    let mut out = Vec::new();
    for event in log.entries() {
        let Some(job) = event.job else { continue };
        match event.kind {
            SchedulerEventKind::Blocked => {
                since.entry(job).or_insert(event.time);
            }
            SchedulerEventKind::Placed
            | SchedulerEventKind::TransitStarted
            | SchedulerEventKind::Resumed => {
                if let Some(start) = since.remove(&job) {
                    out.push(event.time.saturating_since(start).as_secs_f64());
                }
            }
            _ => {}
        }
    }
    out
}

/// Completions per window, as `(window start, jobs completed)` pairs
/// covering the whole log span.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn completion_throughput(log: &EventLog, window: SimSpan) -> Vec<(SimTime, u64)> {
    assert!(!window.is_zero(), "throughput window must be non-zero");
    let completions: Vec<SimTime> = log
        .of_kind(SchedulerEventKind::Completed)
        .map(|e| e.time)
        .collect();
    let Some(&last) = completions.last() else {
        return Vec::new();
    };
    let buckets = last.as_micros() / window.as_micros() + 1;
    let mut out: Vec<(SimTime, u64)> = (0..buckets)
        .map(|i| (SimTime::from_micros(i * window.as_micros()), 0))
        .collect();
    for t in completions {
        let idx = (t.as_micros() / window.as_micros()) as usize;
        out[idx].1 += 1;
    }
    out
}

/// How long each blocking episode at the *cluster* level lasted: the spans
/// during which the pending queue was non-empty. The paper's "quickly
/// resolving the job blocking problem" claim is about shortening exactly
/// these.
pub fn cluster_blocking_episodes(log: &EventLog) -> Vec<(SimTime, SimSpan)> {
    let timeline = pending_queue_timeline(log);
    let mut episodes = Vec::new();
    let mut open_since: Option<SimTime> = None;
    for (t, len) in timeline {
        match (open_since, len) {
            (None, n) if n > 0 => open_since = Some(t),
            (Some(start), 0) => {
                episodes.push((start, t.saturating_since(start)));
                open_since = None;
            }
            _ => {}
        }
    }
    episodes
}

/// Per-node resident-job counts over time, reconstructed from the event
/// log: `+1` on a placement, `−1` on completion, migration departure, or
/// suspension. Returns change-points `(time, counts-per-node)`.
///
/// # Panics
///
/// Panics if the log references a node index `>= nodes` or occupancy would
/// go negative (which would mean the log is inconsistent).
pub fn node_occupancy_timeline(log: &EventLog, nodes: usize) -> Vec<(SimTime, Vec<usize>)> {
    let mut counts = vec![0usize; nodes];
    let mut out = Vec::new();
    for event in log.entries() {
        let Some(node) = event.node else { continue };
        let idx = node.0 as usize;
        assert!(idx < nodes, "event references unknown {node}");
        let changed = match event.kind {
            SchedulerEventKind::Placed => {
                counts[idx] += 1;
                true
            }
            SchedulerEventKind::Completed
            | SchedulerEventKind::MigratedOut
            | SchedulerEventKind::Suspended => {
                assert!(counts[idx] > 0, "occupancy underflow at {node}");
                counts[idx] -= 1;
                true
            }
            _ => false,
        };
        if changed {
            out.push((event.time, counts.clone()));
        }
    }
    out
}

/// The jobs served by each reservation episode, in arrival order:
/// `(node's episode, [(job, service start, completion)])`. Episodes are
/// delimited by [`ReservationBegan`](SchedulerEventKind::ReservationBegan) /
/// [`ReservationReleased`](SchedulerEventKind::ReservationReleased) pairs on
/// the same workstation; a served job's completion falls back to the log's
/// end when it never completed. Episodes come in release order, followed
/// by those still open at the log's end in node order.
pub fn reserved_service_episodes(log: &EventLog) -> Vec<Vec<(JobId, SimTime, SimTime)>> {
    use vr_cluster::node::NodeId;
    let log_end = log
        .entries()
        .last()
        .map(|e| e.time)
        .unwrap_or(SimTime::ZERO);
    // Completion time per job.
    let mut completed: BTreeMap<JobId, SimTime> = BTreeMap::new();
    for e in log.of_kind(SchedulerEventKind::Completed) {
        if let Some(job) = e.job {
            completed.insert(job, e.time);
        }
    }
    let mut open: BTreeMap<NodeId, Vec<(JobId, SimTime, SimTime)>> = BTreeMap::new();
    let mut episodes = Vec::new();
    for event in log.entries() {
        let Some(node) = event.node else { continue };
        match event.kind {
            SchedulerEventKind::ReservationBegan => {
                open.insert(node, Vec::new());
            }
            SchedulerEventKind::SpecialServiceStarted => {
                if let (Some(served), Some(job)) = (open.get_mut(&node), event.job) {
                    let done = completed.get(&job).copied().unwrap_or(log_end);
                    served.push((job, event.time, done));
                }
            }
            SchedulerEventKind::ReservationReleased => {
                if let Some(served) = open.remove(&node) {
                    episodes.push(served);
                }
            }
            _ => {}
        }
    }
    // Episodes still open at the log end (horizon hit).
    episodes.extend(open.into_values());
    episodes
}

/// The §5 upper bound on the queuing time contributed by the reserved
/// workstations: `Σ_k Σ_j (Q_r(k) − j) · w_kj`, where `w_kj` is "the time
/// interval between the arrival time of job j+1 and the completion time of
/// job j" on reserved workstation `k` (negative intervals clamp to zero —
/// job j finished before j+1 arrived).
pub fn reserved_queue_bound_from_log(log: &EventLog) -> f64 {
    let mut total = 0.0;
    for served in reserved_service_episodes(log) {
        let q = served.len();
        for j in 0..q.saturating_sub(1) {
            let completion_j = served[j].2;
            let arrival_next = served[j + 1].1;
            let w = completion_j.saturating_since(arrival_next).as_secs_f64();
            total += (q - (j + 1)) as f64 * w;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_cluster::node::NodeId;
    use vrecon::events::EventLog;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn log_of(entries: &[(u64, SchedulerEventKind, Option<u64>)]) -> EventLog {
        let mut log = EventLog::new();
        for (secs, kind, job) in entries {
            log.record(t(*secs), *kind, job.map(JobId), Some(NodeId(0)));
        }
        log
    }

    use SchedulerEventKind as K;

    #[test]
    fn pending_timeline_tracks_joins_and_leaves() {
        let log = log_of(&[
            (1, K::Blocked, Some(1)),
            (2, K::Blocked, Some(2)),
            (3, K::Placed, Some(1)),
            (4, K::TransitStarted, Some(2)),
        ]);
        assert_eq!(
            pending_queue_timeline(&log),
            vec![(t(1), 1), (t(2), 2), (t(3), 1), (t(4), 0)]
        );
    }

    #[test]
    fn placement_of_never_blocked_jobs_is_ignored() {
        let log = log_of(&[
            (1, K::Submitted, Some(1)),
            (1, K::Placed, Some(1)),
            (2, K::Blocked, Some(2)),
        ]);
        assert_eq!(pending_queue_timeline(&log), vec![(t(2), 1)]);
    }

    #[test]
    fn reservation_timeline_counts_up_and_down() {
        let log = log_of(&[
            (5, K::ReservationBegan, None),
            (7, K::ReservationBegan, None),
            (9, K::ReservationReleased, None),
        ]);
        assert_eq!(
            reservation_timeline(&log),
            vec![(t(5), 1), (t(7), 2), (t(9), 1)]
        );
    }

    #[test]
    fn episode_durations_measure_block_to_exit() {
        let log = log_of(&[
            (1, K::Blocked, Some(1)),
            (4, K::Placed, Some(1)),
            (10, K::Blocked, Some(1)), // second episode, never resolved
        ]);
        assert_eq!(blocked_episode_durations(&log), vec![3.0]);
    }

    #[test]
    fn throughput_buckets_completions() {
        let log = log_of(&[
            (1, K::Completed, Some(1)),
            (2, K::Completed, Some(2)),
            (25, K::Completed, Some(3)),
        ]);
        let buckets = completion_throughput(&log, SimSpan::from_secs(10));
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0], (t(0), 2));
        assert_eq!(buckets[1], (t(10), 0));
        assert_eq!(buckets[2], (t(20), 1));
        assert!(completion_throughput(&EventLog::new(), SimSpan::from_secs(1)).is_empty());
    }

    #[test]
    fn occupancy_timeline_tracks_arrivals_and_departures() {
        let mut log = EventLog::new();
        let rec = |log: &mut EventLog, secs: u64, kind, job: u64, node: u32| {
            log.record(t(secs), kind, Some(JobId(job)), Some(NodeId(node)));
        };
        rec(&mut log, 1, K::Placed, 1, 0);
        rec(&mut log, 2, K::Placed, 2, 0);
        rec(&mut log, 3, K::MigratedOut, 1, 0);
        rec(&mut log, 3, K::Placed, 1, 1);
        rec(&mut log, 9, K::Completed, 2, 0);
        let timeline = node_occupancy_timeline(&log, 2);
        assert_eq!(
            timeline,
            vec![
                (t(1), vec![1, 0]),
                (t(2), vec![2, 0]),
                (t(3), vec![1, 0]),
                (t(3), vec![1, 1]),
                (t(9), vec![0, 1]),
            ]
        );
    }

    #[test]
    fn reserved_episodes_collect_served_jobs_in_order() {
        let log = log_of(&[
            (5, K::ReservationBegan, None),
            (10, K::SpecialServiceStarted, Some(1)),
            (12, K::SpecialServiceStarted, Some(2)),
            (30, K::Completed, Some(1)),
            (40, K::Completed, Some(2)),
            (40, K::ReservationReleased, None),
        ]);
        let episodes = reserved_service_episodes(&log);
        assert_eq!(episodes.len(), 1);
        let served = &episodes[0];
        assert_eq!(served.len(), 2);
        assert_eq!(served[0], (JobId(1), t(10), t(30)));
        assert_eq!(served[1], (JobId(2), t(12), t(40)));
        // Bound: Q=2; w_1 = completion(1) - arrival(2) = 30-12 = 18;
        // weight (2-1)=1 -> 18.
        assert!((reserved_queue_bound_from_log(&log) - 18.0).abs() < 1e-9);
    }

    #[test]
    fn reserved_bound_clamps_negative_waits() {
        // Job 1 completes before job 2 arrives: no overlap, zero bound.
        let log = log_of(&[
            (5, K::ReservationBegan, None),
            (10, K::SpecialServiceStarted, Some(1)),
            (20, K::Completed, Some(1)),
            (25, K::SpecialServiceStarted, Some(2)),
            (40, K::Completed, Some(2)),
            (40, K::ReservationReleased, None),
        ]);
        assert_eq!(reserved_queue_bound_from_log(&log), 0.0);
    }

    #[test]
    fn open_episode_at_log_end_is_included() {
        let log = log_of(&[
            (5, K::ReservationBegan, None),
            (10, K::SpecialServiceStarted, Some(1)),
        ]);
        let episodes = reserved_service_episodes(&log);
        assert_eq!(episodes.len(), 1);
        // Unfinished job's completion falls back to the log end (10s).
        assert_eq!(episodes[0][0].2, t(10));
    }

    #[test]
    fn cluster_episodes_span_nonempty_queue_periods() {
        let log = log_of(&[
            (1, K::Blocked, Some(1)),
            (2, K::Blocked, Some(2)),
            (5, K::Placed, Some(1)),
            (8, K::Placed, Some(2)), // queue empties at 8: episode 1..8
            (20, K::Blocked, Some(3)),
            (26, K::TransitStarted, Some(3)), // episode 20..26
        ]);
        assert_eq!(
            cluster_blocking_episodes(&log),
            vec![
                (t(1), SimSpan::from_secs(7)),
                (t(20), SimSpan::from_secs(6))
            ]
        );
    }
}
