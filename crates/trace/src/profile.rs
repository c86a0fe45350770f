//! Profiling counters accumulated alongside the trace.

use std::collections::BTreeMap;

use vr_simcore::jsonio::Json;

use crate::TRACE_SCHEMA_VERSION;

/// Counters describing the event stream of one run: how many engine events
/// fired and how many trace records of each kind.
///
/// Everything here is simulation-deterministic. Wall-clock throughput
/// (events/sec) is deliberately *not* measured in this crate — the
/// orchestration layer times the run and passes the wall seconds into
/// [`TraceProfile::to_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceProfile {
    /// Engine events dispatched during the run.
    pub engine_events: u64,
    /// Trace records per event-kind token, in token order.
    pub kind_counts: BTreeMap<&'static str, u64>,
}

impl TraceProfile {
    /// Renders the profile as JSON (what `vrecon run --profile-out FILE`
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
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_deterministic_and_parses() {
        let p = TraceProfile {
            engine_events: 3,
            kind_counts: BTreeMap::from([("placed", 2), ("submitted", 1)]),
        };
        let a = p.to_json(None).render();
        let b = p.to_json(None).render();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).expect("profile JSON parses");
        assert_eq!(parsed.get("engine_events").and_then(Json::as_u64), Some(3));
        assert!(parsed.get("wall_secs").is_none());
    }

    #[test]
    fn wall_clock_fields_are_injected_not_measured() {
        let p = TraceProfile {
            engine_events: 100,
            ..TraceProfile::default()
        };
        let j = p.to_json(Some(2.0));
        assert_eq!(j.get("events_per_sec").and_then(Json::as_f64), Some(50.0));
        assert_eq!(j.get("wall_secs").and_then(Json::as_f64), Some(2.0));
    }
}
