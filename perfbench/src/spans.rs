//! In-memory spans for the traced run.
//!
//! A span records a layer name, start, end, the span that caused it, and
//! a group id shared by every span of one scenario or one request. Spans
//! stay in memory until the run ends; then they are reduced to per-layer
//! self time and written out as Chrome trace-event JSON (which Perfetto
//! opens). The untraced run never constructs a [`Tracer`] that records:
//! [`Tracer::off`] makes every call a branch on one boolean.

use std::collections::BTreeMap;

use vr_simcore::jsonio::Json;

use crate::clock::Mark;

/// One closed span. Times are microseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, µs since origin.
    pub start_us: f64,
    /// End, µs since origin.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Scenario or request id shared by related spans.
    pub group: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans for one run. Nesting follows call order on the
/// recording thread: a span opened while another is open is its child.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Mark,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer timed from now.
    pub fn on() -> Tracer {
        Tracer::on_at(Mark::now())
    }

    /// A recording tracer timed from `origin`, so the spans of several
    /// tracers share one time axis.
    pub fn on_at(origin: Mark) -> Tracer {
        Tracer {
            on: true,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    /// Whether this tracer records spans.
    pub fn recording(&self) -> bool {
        self.on
    }

    /// Microseconds since the origin for an instant.
    pub fn us(&self, at: Mark) -> f64 {
        at.secs_since(self.origin) * 1e6
    }

    /// Runs `f` inside a span named `name` in `group`.
    pub fn span<T>(&mut self, name: &'static str, group: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.us(Mark::now());
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            group,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.us(Mark::now());
        out
    }

    /// Records an already-closed span (µs since the origin) under the
    /// innermost open span, starting no earlier than it. Used for intervals
    /// measured elsewhere: the server's own stopwatch, or a split point
    /// inside a single call.
    pub fn record(&mut self, name: &'static str, group: u64, start_us: f64, end_us: f64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let start_us = parent.map_or(start_us, |p| start_us.max(self.spans[p].start_us));
        let end_us = end_us.max(start_us);
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            group,
        });
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, in milliseconds: each span's duration minus
/// the time its direct children cover.
pub fn self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_us = vec![0.0; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_us[p] += span.dur_us();
        }
    }
    let mut out = BTreeMap::new();
    for (span, covered) in spans.iter().zip(child_us) {
        *out.entry(span.name).or_insert(0.0) += (span.dur_us() - covered).max(0.0) / 1e3;
    }
    out
}

/// Total duration per span name, in milliseconds.
pub fn total_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for span in spans {
        *out.entry(span.name).or_insert(0.0) += span.dur_us() / 1e3;
    }
    out
}

/// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span on
/// one track, with the group id and parent index in `args`.
pub fn chrome_json(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            Json::obj([
                ("name", Json::str(span.name)),
                (
                    "cat",
                    Json::str(span.name.split('.').next().unwrap_or(span.name)),
                ),
                ("ph", Json::str("X")),
                ("ts", Json::f64(span.start_us)),
                ("dur", Json::f64(span.dur_us())),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(1)),
                (
                    "args",
                    Json::obj([
                        ("span", Json::U64(i as u64)),
                        ("group", Json::U64(span.group)),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            group: 7,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0.0, 10_000.0, None),
            span("a", 1_000.0, 4_000.0, Some(0)),
            span("b", 2_000.0, 3_000.0, Some(1)),
            span("a", 5_000.0, 6_000.0, Some(0)),
        ];
        let own = self_ms(&spans);
        assert_eq!(own["root"], 6.0);
        assert_eq!(own["a"], 3.0);
        assert_eq!(own["b"], 1.0);
        assert_eq!(total_ms(&spans)["a"], 4.0);
    }

    #[test]
    fn nested_calls_record_parents_and_an_off_tracer_records_nothing() {
        let mut tracer = Tracer::on();
        let value = tracer.span("outer", 3, |t| t.span("inner", 3, |_| 41) + 1);
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        let doc = chrome_json(spans).render();
        assert!(doc.contains("\"traceEvents\""), "{doc}");
        assert!(Json::parse(&doc).is_ok());

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", 1, |t| t.span("inner", 1, |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}
