//! Profiling counters accumulated alongside the trace.

use std::collections::BTreeMap;

use vr_simcore::histogram::Histogram;
use vr_simcore::jsonio::Json;

use crate::TRACE_SCHEMA_VERSION;

/// Counters describing the event stream of one run: how many engine events
/// fired, how many trace records of each kind, and the distribution of
/// inter-event gaps in simulated time.
///
/// Everything here is simulation-deterministic. Wall-clock throughput
/// (events/sec) is deliberately *not* measured in this crate — the
/// orchestration layer times the run and passes the wall seconds into
/// [`TraceProfile::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Engine events dispatched (one per `EventHook::after_event` call).
    pub engine_events: u64,
    /// Trace records per event-kind token, in token order.
    pub kind_counts: BTreeMap<&'static str, u64>,
    /// Inter-event gaps in simulated microseconds, log-bucketed from 1 µs
    /// to 1000 s with a dedicated leading `[0, 1)` bucket. Simulated time is
    /// integer microseconds, so every sub-microsecond gap is exactly zero —
    /// same-instant events, the common case whenever the periodic tick
    /// streams and a burst of arrivals share a timestamp — and those are
    /// *measured* in the zero bucket rather than counted as underflow.
    pub gap_micros: Histogram,
}

impl TraceProfile {
    /// An empty profile with the standard gap-histogram shape.
    // vr-analyze::allow(panic-path, reason = "the gap-histogram shape is a compile-time constant that logarithmic_with_zero() accepts")
    pub fn new() -> Self {
        TraceProfile {
            engine_events: 0,
            kind_counts: BTreeMap::new(),
            gap_micros: Histogram::logarithmic_with_zero(1.0, 1_000_000_000.0, 18),
        }
    }

    /// Renders the profile as JSON (what `vrecon trace --profile-out FILE`
    /// writes).
    ///
    /// `wall_secs`, when provided by the caller that timed the run, adds
    /// derived wall-clock fields (`wall_secs`, `events_per_sec`) — the only
    /// non-deterministic fields, and only ever injected from outside.
    pub fn to_json(&self, wall_secs: Option<f64>) -> Json {
        let mut fields = vec![
            ("schema".to_string(), Json::U64(TRACE_SCHEMA_VERSION)),
            ("engine_events".to_string(), Json::U64(self.engine_events)),
        ];
        if let Some(wall) = wall_secs {
            fields.push(("wall_secs".to_string(), Json::f64(wall)));
            let rate = if wall > 0.0 {
                self.engine_events as f64 / wall
            } else {
                0.0
            };
            fields.push(("events_per_sec".to_string(), Json::f64(rate)));
        }
        fields.push((
            "kinds".to_string(),
            Json::obj(
                self.kind_counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::U64(*v))),
            ),
        ));
        fields.push((
            "inter_event_micros".to_string(),
            histogram_json(&self.gap_micros),
        ));
        Json::Obj(fields)
    }
}

impl Default for TraceProfile {
    fn default() -> Self {
        TraceProfile::new()
    }
}

/// `{underflow, overflow, buckets: [[lo, hi, count], ...]}` — only the
/// non-empty buckets, so profiles stay compact.
fn histogram_json(h: &Histogram) -> Json {
    let buckets: Vec<Json> = h
        .buckets()
        .filter(|&(_, _, count)| count > 0)
        .map(|(lo, hi, count)| Json::Arr(vec![Json::f64(lo), Json::f64(hi), Json::U64(count)]))
        .collect();
    Json::obj([
        ("underflow", Json::U64(h.underflow())),
        ("overflow", Json::U64(h.overflow())),
        ("buckets", Json::Arr(buckets)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_deterministic_and_parses() {
        let mut p = TraceProfile::new();
        p.engine_events = 3;
        p.kind_counts.insert("placed", 2);
        p.kind_counts.insert("submitted", 1);
        p.gap_micros.record(1_000_000.0);
        let a = p.to_json(None).render();
        let b = p.to_json(None).render();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).expect("profile JSON parses");
        assert_eq!(parsed.get("engine_events").and_then(Json::as_u64), Some(3));
        assert!(parsed.get("wall_secs").is_none());
    }

    #[test]
    fn zero_gaps_are_measured_not_underflowed() {
        // Snapshot of the histogram JSON with same-instant events present:
        // the zero gap lands in the dedicated [0, 1) bucket, underflow stays
        // zero, and the encoding is byte-stable.
        let mut p = TraceProfile::new();
        p.engine_events = 4;
        p.gap_micros.record(0.0); // same-instant pair
        p.gap_micros.record(0.0);
        p.gap_micros.record(1.0); // 1 µs
        let json = p.to_json(None).render();
        let hist = Json::parse(&json)
            .expect("profile JSON parses")
            .get("inter_event_micros")
            .cloned()
            .expect("histogram present");
        assert_eq!(hist.get("underflow").and_then(Json::as_u64), Some(0));
        assert_eq!(hist.get("overflow").and_then(Json::as_u64), Some(0));
        assert_eq!(
            hist.get("buckets").unwrap().render(),
            "[[0.0,1.0,2],[1.0,3.162277660168379,1]]"
        );
    }

    #[test]
    fn wall_clock_fields_are_injected_not_measured() {
        let mut p = TraceProfile::new();
        p.engine_events = 100;
        let j = p.to_json(Some(2.0));
        assert_eq!(j.get("events_per_sec").and_then(Json::as_f64), Some(50.0));
        assert_eq!(j.get("wall_secs").and_then(Json::as_f64), Some(2.0));
    }
}
