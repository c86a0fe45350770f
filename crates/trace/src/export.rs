//! Trace exporters: Chrome trace-event JSON and compact JSONL.

use vr_simcore::jsonio::Json;

use crate::{TraceData, TraceRecord, TraceSpan, TRACE_SCHEMA_VERSION};

/// The Chrome trace-event document as a [`Json`] value.
///
/// Spans become `ph:"X"` complete events and records become `ph:"i"`
/// instants; `ts`/`dur` are simulated microseconds, so the timeline in
/// `chrome://tracing` / Perfetto *is* the simulation clock. The lane
/// (`tid`) is the job id when the event has one, else the node id, so each
/// job's lifecycle reads as one horizontal track.
pub fn chrome_trace_json(data: &TraceData) -> Json {
    let mut events = Vec::with_capacity(data.spans.len() + data.records.len());
    for span in &data.spans {
        events.push(span_event(span));
    }
    for record in &data.records {
        events.push(instant_event(record));
    }
    Json::obj([
        ("schema", Json::U64(TRACE_SCHEMA_VERSION)),
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// Renders [`chrome_trace_json`] to the exact bytes written to disk
/// (deterministic: same trace ⇒ same string).
pub fn chrome_trace(data: &TraceData) -> String {
    let mut out = chrome_trace_json(data).render();
    out.push('\n');
    out
}

/// Compact JSON-lines export: a header line
/// `{"schema":…,"kind":"vr-trace","final_time":…,"records":N,"spans":M}`,
/// then one line per record (`{"t":µs,"kind":…,"job":…,"node":…}`, absent
/// fields omitted) and one per span
/// (`{"span":…,"start":µs,"end":µs,"job":…,"node":…}`).
pub fn jsonl(data: &TraceData) -> String {
    let mut out = String::new();
    let header = Json::obj([
        ("schema", Json::U64(TRACE_SCHEMA_VERSION)),
        ("kind", Json::str("vr-trace")),
        ("final_time", Json::U64(data.final_time.as_micros())),
        ("records", Json::U64(data.records.len() as u64)),
        ("spans", Json::U64(data.spans.len() as u64)),
    ]);
    out.push_str(&header.render());
    out.push('\n');
    for record in &data.records {
        let mut fields = vec![
            ("t".to_string(), Json::U64(record.time.as_micros())),
            ("kind".to_string(), Json::str(record.kind)),
        ];
        push_ids(&mut fields, record.job, record.node);
        out.push_str(&Json::Obj(fields).render());
        out.push('\n');
    }
    for span in &data.spans {
        let mut fields = vec![
            ("span".to_string(), Json::str(span.name)),
            ("start".to_string(), Json::U64(span.start.as_micros())),
            ("end".to_string(), Json::U64(span.end.as_micros())),
        ];
        push_ids(&mut fields, span.job, span.node);
        out.push_str(&Json::Obj(fields).render());
        out.push('\n');
    }
    out
}

fn push_ids(fields: &mut Vec<(String, Json)>, job: Option<u64>, node: Option<u64>) {
    if let Some(j) = job {
        fields.push(("job".to_string(), Json::U64(j)));
    }
    if let Some(n) = node {
        fields.push(("node".to_string(), Json::U64(n)));
    }
}

fn lane(job: Option<u64>, node: Option<u64>) -> u64 {
    job.or(node).unwrap_or(0)
}

fn args_obj(job: Option<u64>, node: Option<u64>) -> Json {
    let mut fields = Vec::new();
    push_ids(&mut fields, job, node);
    Json::Obj(fields)
}

fn span_event(span: &TraceSpan) -> Json {
    Json::obj([
        ("name", Json::str(span.name)),
        ("cat", Json::str("span")),
        ("ph", Json::str("X")),
        ("ts", Json::U64(span.start.as_micros())),
        (
            "dur",
            Json::U64(span.end.saturating_since(span.start).as_micros()),
        ),
        ("pid", Json::U64(0)),
        ("tid", Json::U64(lane(span.job, span.node))),
        ("args", args_obj(span.job, span.node)),
    ])
}

fn instant_event(record: &TraceRecord) -> Json {
    Json::obj([
        ("name", Json::str(record.kind)),
        ("cat", Json::str("event")),
        ("ph", Json::str("i")),
        ("s", Json::str("t")),
        ("ts", Json::U64(record.time.as_micros())),
        ("pid", Json::U64(0)),
        ("tid", Json::U64(lane(record.job, record.node))),
        ("args", args_obj(record.job, record.node)),
    ])
}

#[cfg(test)]
mod tests {
    use vr_simcore::time::SimTime;

    use super::*;
    use crate::TraceProfile;

    fn sample() -> TraceData {
        let records = vec![
            TraceRecord {
                time: SimTime::from_secs(1),
                kind: "submitted",
                job: Some(3),
                node: None,
            },
            TraceRecord {
                time: SimTime::from_secs(2),
                kind: "placed",
                job: Some(3),
                node: Some(1),
            },
        ];
        let spans = crate::derive_spans(&records, SimTime::from_secs(10));
        TraceData {
            final_time: SimTime::from_secs(10),
            records,
            spans,
            profile: TraceProfile::default(),
        }
    }

    #[test]
    fn chrome_trace_parses_and_is_deterministic() {
        let data = sample();
        let a = chrome_trace(&data);
        let b = chrome_trace(&data);
        assert_eq!(a, b);
        let parsed = Json::parse(&a).expect("chrome trace parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // 1 derived job span + 2 instant records.
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].get("ph").and_then(Json::as_str),
            Some("X"),
            "spans come first"
        );
        assert_eq!(events[0].get("ts").and_then(Json::as_u64), Some(1_000_000));
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let data = sample();
        let text = jsonl(&data);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + data.records.len() + data.spans.len());
        for line in &lines {
            Json::parse(line).expect("every JSONL line parses");
        }
        let header = Json::parse(lines[0]).expect("header parses");
        assert_eq!(
            header.get("schema").and_then(Json::as_u64),
            Some(TRACE_SCHEMA_VERSION)
        );
        assert_eq!(header.get("records").and_then(Json::as_u64), Some(2));
    }
}
