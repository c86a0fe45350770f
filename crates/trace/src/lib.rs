//! Deterministic observability for the simulator: `vr-trace`.
//!
//! A trace is derived from a finished run, not observed during it: the
//! caller turns the run's scheduler event log into [`TraceRecord`]s (kind,
//! time, job, node), and this crate pairs them into spans for job
//! lifecycles and reservation episodes and renders them. Nothing here
//! touches the engine, so a traced run is the untraced run by
//! construction.
//!
//! Everything here is a pure function of the records: same plan + seed
//! ⇒ byte-identical trace output. The crate is in vr-lint's deterministic
//! set (ordered containers only, no wall clocks, no environment reads);
//! wall-clock rates such as events/sec are computed by the orchestration
//! layer and passed *in* (see [`TraceProfile::to_json`]).
//!
//! Exporters:
//! - [`chrome_trace`] — Chrome trace-event JSON (`chrome://tracing`,
//!   Perfetto). Spans become `ph:"X"` complete events, records become
//!   `ph:"i"` instants.
//! - [`jsonl`] — compact JSON-lines via `vr_simcore::jsonio`: a header
//!   line, then one line per record and per span.

#![forbid(unsafe_code)]

mod export;
mod profile;
mod span;

use vr_simcore::time::SimTime;

pub use export::{chrome_trace, chrome_trace_json, jsonl};
pub use profile::TraceProfile;
pub use span::{derive_spans, TraceSpan};

/// Version stamped into every exported trace (header line / top-level
/// `schema` field). Bump on any change to record, span, or profile layout.
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// One structured trace record: what happened, when, to whom.
///
/// `kind` is a `&'static str` token (e.g. `"submitted"`, `"placed"`,
/// `"reservation-began"`) so records stay allocation-free and per-kind
/// counters key on pointer-stable strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time of the event.
    pub time: SimTime,
    /// Static event-kind token.
    pub kind: &'static str,
    /// Job involved, if any.
    pub job: Option<u64>,
    /// Node involved, if any.
    pub node: Option<u64>,
}

/// The trace of one finished run: records, derived spans, and profile.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceData {
    /// Engine clock when the run stopped (closes open spans).
    pub final_time: SimTime,
    /// Every structured record, in emission order.
    pub records: Vec<TraceRecord>,
    /// Derived intervals, canonically ordered.
    pub spans: Vec<TraceSpan>,
    /// Profiling counters for the run.
    pub profile: TraceProfile,
}
