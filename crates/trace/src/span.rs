//! Span derivation: pairing open/close records into intervals.

use std::collections::BTreeMap;

use vr_simcore::time::SimTime;

use crate::TraceRecord;

/// A derived interval in the run: a job's whole lifecycle, a wait in the
/// pending queue, a transit (migration / special-service transfer), a
/// suspension, or a reservation episode on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Span family: `"job"`, `"pending"`, `"transit"`, `"suspend"`, or
    /// `"reservation"`.
    pub name: &'static str,
    /// When the span opened.
    pub start: SimTime,
    /// When the span closed (the run's final time for still-open spans).
    pub end: SimTime,
    /// Job the span belongs to (`None` for reservation episodes).
    pub job: Option<u64>,
    /// Node the span resolved on, when known.
    pub node: Option<u64>,
}

/// Derives spans from a time-ordered record stream.
///
/// Pairing rules (all keyed per job unless noted):
/// - `"job"`: first `submitted` → `completed`
/// - `"pending"`: `blocked` / `requeued` → next `placed` or transit start
///   (the engine stops charging queue time when the job leaves the queue)
/// - `"transit"`: `transit-started` / `migration-started` /
///   `special-service-started` → next `placed`, `migration-failed`,
///   `blocked` or `requeued` (a stale bounce at the destination or an
///   abandoned transfer puts the job back in the pending queue)
/// - `"suspend"`: `suspended` → `resumed`
/// - `"reservation"` (per node): `reservation-began` →
///   `reservation-released`, LIFO when nested
///
/// A job's pending and transit spans therefore never overlap.
///
/// Spans still open when the stream ends are closed at `final_time`, so a
/// horizon-truncated run yields spans ending exactly at the horizon. The
/// result is sorted by `(start, end, name, job, node)` — a canonical order
/// independent of pairing bookkeeping.
pub fn derive_spans(records: &[TraceRecord], final_time: SimTime) -> Vec<TraceSpan> {
    let mut spans = Vec::new();
    let mut job_open: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut pending_open: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut transit_open: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut suspend_open: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut reservation_open: BTreeMap<u64, Vec<SimTime>> = BTreeMap::new();

    let close = |spans: &mut Vec<TraceSpan>,
                 name: &'static str,
                 start: SimTime,
                 end: SimTime,
                 job: Option<u64>,
                 node: Option<u64>| {
        spans.push(TraceSpan {
            name,
            start,
            end: end.max(start),
            job,
            node,
        });
    };

    for r in records {
        match (r.kind, r.job, r.node) {
            ("submitted", Some(j), _) => {
                job_open.entry(j).or_insert(r.time);
            }
            ("completed", Some(j), node) => {
                if let Some(start) = job_open.remove(&j) {
                    close(&mut spans, "job", start, r.time, Some(j), node);
                }
            }
            ("blocked" | "requeued", Some(j), node) => {
                if let Some(start) = transit_open.remove(&j) {
                    close(&mut spans, "transit", start, r.time, Some(j), node);
                }
                pending_open.entry(j).or_insert(r.time);
            }
            (
                "transit-started" | "migration-started" | "special-service-started",
                Some(j),
                node,
            ) => {
                if let Some(start) = pending_open.remove(&j) {
                    close(&mut spans, "pending", start, r.time, Some(j), node);
                }
                transit_open.entry(j).or_insert(r.time);
            }
            ("placed", Some(j), node) => {
                if let Some(start) = pending_open.remove(&j) {
                    close(&mut spans, "pending", start, r.time, Some(j), node);
                }
                if let Some(start) = transit_open.remove(&j) {
                    close(&mut spans, "transit", start, r.time, Some(j), node);
                }
            }
            ("migration-failed", Some(j), node) => {
                if let Some(start) = transit_open.remove(&j) {
                    close(&mut spans, "transit", start, r.time, Some(j), node);
                }
            }
            ("suspended", Some(j), _) => {
                suspend_open.entry(j).or_insert(r.time);
            }
            ("resumed", Some(j), node) => {
                if let Some(start) = suspend_open.remove(&j) {
                    close(&mut spans, "suspend", start, r.time, Some(j), node);
                }
            }
            ("reservation-began", _, Some(n)) => {
                reservation_open.entry(n).or_default().push(r.time);
            }
            ("reservation-released", _, Some(n)) => {
                if let Some(start) = reservation_open.entry(n).or_default().pop() {
                    close(&mut spans, "reservation", start, r.time, None, Some(n));
                }
            }
            _ => {}
        }
    }

    // Close everything still open at the end of the run, in key order.
    for (j, start) in job_open {
        close(&mut spans, "job", start, final_time, Some(j), None);
    }
    for (j, start) in pending_open {
        close(&mut spans, "pending", start, final_time, Some(j), None);
    }
    for (j, start) in transit_open {
        close(&mut spans, "transit", start, final_time, Some(j), None);
    }
    for (j, start) in suspend_open {
        close(&mut spans, "suspend", start, final_time, Some(j), None);
    }
    for (n, starts) in reservation_open {
        for start in starts {
            close(&mut spans, "reservation", start, final_time, None, Some(n));
        }
    }

    spans.sort_by_key(|s| (s.start, s.end, s.name, s.job, s.node));
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(secs: u64, kind: &'static str, job: Option<u64>, node: Option<u64>) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_secs(secs),
            kind,
            job,
            node,
        }
    }

    #[test]
    fn job_lifecycle_and_pending_pair_up() {
        let records = [
            rec(1, "submitted", Some(7), None),
            rec(1, "blocked", Some(7), None),
            rec(3, "placed", Some(7), Some(2)),
            rec(9, "completed", Some(7), Some(2)),
        ];
        let spans = derive_spans(&records, SimTime::from_secs(100));
        assert_eq!(
            spans,
            vec![
                TraceSpan {
                    name: "pending",
                    start: SimTime::from_secs(1),
                    end: SimTime::from_secs(3),
                    job: Some(7),
                    node: Some(2),
                },
                TraceSpan {
                    name: "job",
                    start: SimTime::from_secs(1),
                    end: SimTime::from_secs(9),
                    job: Some(7),
                    node: Some(2),
                },
            ]
        );
    }

    #[test]
    fn open_spans_close_at_final_time() {
        let records = [
            rec(1, "submitted", Some(1), None),
            rec(2, "reservation-began", None, Some(4)),
        ];
        let spans = derive_spans(&records, SimTime::from_secs(5));
        assert_eq!(spans.len(), 2);
        assert!(
            spans.iter().all(|s| s.end == SimTime::from_secs(5)),
            "{spans:?}"
        );
    }

    #[test]
    fn transit_closes_on_placement_or_failure() {
        let records = [
            rec(1, "migration-started", Some(1), Some(0)),
            rec(2, "migration-failed", Some(1), Some(3)),
            rec(4, "transit-started", Some(2), Some(0)),
            rec(6, "placed", Some(2), Some(1)),
        ];
        let spans = derive_spans(&records, SimTime::from_secs(10));
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.job)).collect();
        assert_eq!(
            names,
            vec![("transit", Some(1)), ("transit", Some(2))],
            "{spans:?}"
        );
        assert_eq!(spans[0].end, SimTime::from_secs(2));
        assert_eq!(spans[1].end, SimTime::from_secs(6));
    }

    #[test]
    fn pending_and_transit_alternate_without_overlap() {
        // Job 1 leaves the queue by remote submission, is bounced by a
        // stale admission at the destination and queues again; job 2's
        // transfer is abandoned and the job re-queued.
        let records = [
            rec(1, "blocked", Some(1), Some(0)),
            rec(2, "transit-started", Some(2), Some(6)),
            rec(3, "transit-started", Some(1), Some(4)),
            rec(4, "blocked", Some(1), Some(4)),
            rec(5, "requeued", Some(2), Some(6)),
            rec(6, "transit-started", Some(1), Some(5)),
            rec(7, "placed", Some(1), Some(5)),
            rec(8, "placed", Some(2), Some(3)),
        ];
        let spans = derive_spans(&records, SimTime::from_secs(10));
        let intervals: Vec<_> = spans
            .iter()
            .map(|s| (s.name, s.job, s.start, s.end))
            .collect();
        let t = SimTime::from_secs;
        assert_eq!(
            intervals,
            vec![
                ("pending", Some(1), t(1), t(3)),
                ("transit", Some(2), t(2), t(5)),
                ("transit", Some(1), t(3), t(4)),
                ("pending", Some(1), t(4), t(6)),
                ("pending", Some(2), t(5), t(8)),
                ("transit", Some(1), t(6), t(7)),
            ]
        );
    }

    #[test]
    fn nested_reservations_pair_lifo() {
        let records = [
            rec(1, "reservation-began", None, Some(2)),
            rec(2, "reservation-began", None, Some(2)),
            rec(3, "reservation-released", None, Some(2)),
            rec(5, "reservation-released", None, Some(2)),
        ];
        let spans = derive_spans(&records, SimTime::from_secs(9));
        let intervals: Vec<_> = spans.iter().map(|s| (s.start, s.end)).collect();
        assert_eq!(
            intervals,
            vec![
                (SimTime::from_secs(1), SimTime::from_secs(5)),
                (SimTime::from_secs(2), SimTime::from_secs(3)),
            ]
        );
    }
}
