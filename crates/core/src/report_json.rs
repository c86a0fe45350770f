//! Lossless JSON serialization of [`RunReport`].
//!
//! The workspace's `serde` is a no-op offline stand-in (see
//! `compat/README.md`), so the experiment runner's content-addressed result
//! cache needs a hand-rolled, exactly-invertible encoding of the report.
//! This module provides it:
//!
//! * [`encode_report`] writes each field straight into one pre-sized
//!   buffer through [`vr_simcore::jsonio`]'s write primitives, with no
//!   document tree in between. Its bytes are the canonical form that
//!   [`Json::render`] gives for the same document, so
//!   `Json::parse(text).render() == text`;
//! * every field of [`RunReport`] and its nested types round-trips
//!   bit-for-bit (`decode(encode(r)) == r`, asserted via the report's
//!   `PartialEq`, which compares `f64`s exactly);
//! * encoding is deterministic (object fields are emitted in a fixed
//!   order), so equal reports produce byte-identical cache files;
//! * [`decode_report`] parses a [`Json`] tree and validates structure and
//!   invariants (event-log and time-series ordering, memory-profile
//!   monotonicity), returning an error instead of panicking on a corrupted
//!   or stale cache file.
//!
//! A [`SCHEMA_VERSION`] is embedded in every document; bumping it when the
//! report shape changes makes old cache entries decode errors (which the
//! cache treats as misses) rather than silent misreads.

use vr_cluster::job::{
    JobClass, JobId, JobSpec, JobState, MalleableSpec, MemoryProfile, RunningJob, TimeBreakdown,
};
use vr_cluster::node::{NodeCounters, NodeId};
use vr_cluster::units::Bytes;
use vr_faults::FaultCounters;
use vr_metrics::sampler::ClusterGauges;
use vr_metrics::summary::WorkloadSummary;
use vr_simcore::engine::RunStats;
use vr_simcore::jsonio::{write_f64, write_str, write_u64, F64Memo, Json};
use vr_simcore::stats::Summary;
use vr_simcore::time::{SimSpan, SimTime};
use vr_simcore::TimeSeries;

use crate::events::{EventLog, SchedulerEventKind};
use crate::plugin::{entry, kind_of};
use crate::report::{RunReport, SchedulerCounters};
use crate::reservation::ReservationStats;

/// Version tag of the encoding; bump when [`RunReport`]'s shape changes so
/// stale cache entries are rejected instead of misread.
///
/// v2: added `run_stats` (engine counters: events processed, final time,
/// drained flag) so horizon-truncated runs are detectable from the report.
///
/// v3: policy plugins — `width` on jobs, optional `malleable` spec,
/// `grows`/`shrinks` scheduler counters, and the `malleable`/`fractional`
/// policy tokens.
pub const SCHEMA_VERSION: u64 = 3;

/// Encodes a report as a compact JSON string.
///
/// The string has room for one more byte, so the `'\n'` that `vrecon serve`
/// and `vrecon run --report-out` append does not copy it.
pub fn encode_report(report: &RunReport) -> String {
    let mut w = Writer {
        out: String::with_capacity(encoded_size_hint(report) + 1),
        memo: F64Memo::default(),
    };
    w.report(report);
    w.out
}

/// Decodes a report from a JSON string produced by [`encode_report`].
///
/// # Errors
///
/// Returns a description of the first structural problem (bad JSON, wrong
/// schema version, missing field, violated ordering invariant).
pub fn decode_report(text: &str) -> Result<RunReport, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    report_from_json(&doc)
}

/// Bytes to reserve for a report's encoding: each part's measured size
/// per item, rounded up, so the buffer is allocated once. The gauge
/// series and the event log dominate long runs (about 19–26 bytes per
/// sample and 28–33 per event on the paper's traces).
fn encoded_size_hint(r: &RunReport) -> usize {
    let samples: usize = gauge_series(&r.gauges).iter().map(|(_, s)| s.len()).sum();
    let phases: usize = r.jobs.iter().map(|j| j.spec.memory.phases().len()).sum();
    let text = r.trace_name.len() + r.audit_violations.iter().map(String::len).sum::<usize>();
    1280 + 2 * text
        + 360 * r.jobs.len()
        + 32 * phases
        + 160 * r.node_counters.len()
        + 26 * samples
        + 34 * r.events.len()
}

/// The gauge series with their keys, in encoding order.
fn gauge_series(g: &ClusterGauges) -> [(&'static str, &TimeSeries); 5] {
    [
        ("idle_memory_mb", &g.idle_memory_mb),
        ("physical_idle_memory_mb", &g.physical_idle_memory_mb),
        ("balance_skew", &g.balance_skew),
        ("reserved_nodes", &g.reserved_nodes),
        ("pending_jobs", &g.pending_jobs),
    ]
}

/// Writes a report into one buffer, each object's fields in a fixed order.
struct Writer {
    out: String,
    memo: F64Memo,
}

/// A value that [`Writer::field`] writes in place.
trait Scalar {
    fn write(self, w: &mut Writer);
}

impl Scalar for u64 {
    fn write(self, w: &mut Writer) {
        write_u64(self, &mut w.out);
    }
}

impl Scalar for f64 {
    fn write(self, w: &mut Writer) {
        write_f64(self, &mut w.memo, &mut w.out);
    }
}

impl Scalar for &str {
    fn write(self, w: &mut Writer) {
        write_str(self, &mut w.out);
    }
}

impl Scalar for bool {
    fn write(self, w: &mut Writer) {
        w.out.push_str(if self { "true" } else { "false" });
    }
}

impl Scalar for Option<u64> {
    fn write(self, w: &mut Writer) {
        match self {
            Some(n) => n.write(w),
            None => w.out.push_str("null"),
        }
    }
}

impl Writer {
    /// Starts field `key` of the object being written. Keys are written
    /// verbatim: none needs escaping.
    fn key(&mut self, key: &str) {
        if !self.out.ends_with('{') {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    fn field(&mut self, key: &str, value: impl Scalar) {
        self.key(key);
        value.write(self);
    }

    /// A JSON array with one element per item.
    fn arr<T>(&mut self, items: impl IntoIterator<Item = T>, mut item: impl FnMut(&mut Self, T)) {
        self.out.push('[');
        for (i, x) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            item(self, x);
        }
        self.out.push(']');
    }

    fn pair(&mut self, a: impl Scalar, b: impl Scalar) {
        self.out.push('[');
        a.write(self);
        self.out.push(',');
        b.write(self);
        self.out.push(']');
    }

    fn report(&mut self, r: &RunReport) {
        self.out.push('{');
        self.field("schema", SCHEMA_VERSION);
        self.field("trace_name", r.trace_name.as_str());
        self.field("policy", entry(r.policy).token);
        self.field("seed", r.seed);
        self.key("jobs");
        self.arr(&r.jobs, Self::job);
        self.key("summary");
        self.summary(&r.summary);
        self.key("gauges");
        self.gauges(&r.gauges);
        self.key("counters");
        self.counters(&r.counters);
        self.key("reservations");
        self.reservations(&r.reservations);
        self.key("node_counters");
        self.arr(&r.node_counters, Self::node_counters);
        self.key("events");
        self.events(&r.events);
        self.field("finished_at", r.finished_at.as_micros());
        self.key("run_stats");
        self.run_stats(&r.run_stats);
        self.field("unfinished_jobs", r.unfinished_jobs as u64);
        self.key("faults");
        self.faults(&r.faults);
        self.key("audit_violations");
        self.arr(&r.audit_violations, |w, v| v.as_str().write(w));
        self.out.push('}');
    }

    fn job(&mut self, job: &RunningJob) {
        self.out.push('{');
        self.key("spec");
        self.spec(&job.spec);
        self.field("progress_secs", job.progress_secs);
        self.key("breakdown");
        self.breakdown(&job.breakdown);
        self.field("state", state_token(job.state));
        self.field("migrations", u64::from(job.migrations));
        self.field("remote_submitted", job.remote_submitted);
        self.field("completed_at", job.completed_at.map(SimTime::as_micros));
        self.field("width", u64::from(job.width));
        self.out.push('}');
    }

    fn spec(&mut self, spec: &JobSpec) {
        self.out.push('{');
        self.field("id", spec.id.0);
        self.field("name", spec.name.as_str());
        self.field("class", class_token(spec.class));
        self.field("submit", spec.submit.as_micros());
        self.field("cpu_work", spec.cpu_work.as_micros());
        self.key("memory");
        self.arr(spec.memory.phases(), |w, p| {
            w.pair(p.until_progress.as_micros(), p.working_set.as_u64());
        });
        self.field("io_rate", spec.io_rate);
        self.key("malleable");
        match spec.malleable {
            Some(m) => self.pair(u64::from(m.min_width), u64::from(m.max_width)),
            None => self.out.push_str("null"),
        }
        self.out.push('}');
    }

    fn breakdown(&mut self, b: &TimeBreakdown) {
        self.out.push('{');
        self.field("cpu", b.cpu);
        self.field("page", b.page);
        self.field("queue", b.queue);
        self.field("migration", b.migration);
        self.out.push('}');
    }

    fn summary(&mut self, s: &WorkloadSummary) {
        self.out.push('{');
        self.field("jobs", s.jobs as u64);
        self.key("totals");
        self.breakdown(&s.totals);
        self.field("avg_slowdown", s.avg_slowdown);
        self.key("slowdown");
        self.stats_summary(&s.slowdown);
        self.field("median_slowdown", s.median_slowdown);
        self.field("p95_slowdown", s.p95_slowdown);
        self.field("migrations", s.migrations);
        self.field("remote_submissions", s.remote_submissions);
        self.out.push('}');
    }

    fn stats_summary(&mut self, s: &Summary) {
        self.out.push('{');
        self.field("count", s.count);
        self.field("mean", s.mean);
        self.field("std_dev", s.std_dev);
        self.field("min", s.min);
        self.field("max", s.max);
        self.out.push('}');
    }

    fn gauges(&mut self, g: &ClusterGauges) {
        self.out.push('{');
        for (key, series) in gauge_series(g) {
            self.key(key);
            self.arr(series.iter(), |w, (t, v)| w.pair(t.as_micros(), v));
        }
        self.out.push('}');
    }

    fn counters(&mut self, c: &SchedulerCounters) {
        self.out.push('{');
        self.field("local_submissions", c.local_submissions);
        self.field("remote_submissions", c.remote_submissions);
        self.field("blocked_submissions", c.blocked_submissions);
        self.field("overload_migrations", c.overload_migrations);
        self.field("reserved_migrations", c.reserved_migrations);
        self.field("blocking_detections", c.blocking_detections);
        self.field("stale_rejections", c.stale_rejections);
        self.field("suspensions", c.suspensions);
        self.field("resumes", c.resumes);
        self.field("grows", c.grows);
        self.field("shrinks", c.shrinks);
        self.out.push('}');
    }

    fn reservations(&mut self, r: &ReservationStats) {
        self.out.push('{');
        self.field("started", r.started);
        self.field("released_after_service", r.released_after_service);
        self.field("released_unused", r.released_unused);
        self.field("timed_out", r.timed_out);
        self.field("jobs_served", r.jobs_served);
        self.out.push('}');
    }

    fn node_counters(&mut self, c: &NodeCounters) {
        self.out.push('{');
        self.field("delivered_cpu", c.delivered_cpu);
        self.field("page_stall", c.page_stall);
        self.field("admitted", c.admitted);
        self.field("completed", c.completed);
        self.field("migrated_out", c.migrated_out);
        self.field("io_ops", c.io_ops);
        self.out.push('}');
    }

    fn faults(&mut self, f: &FaultCounters) {
        self.out.push('{');
        self.field("crashes", f.crashes);
        self.field("restarts", f.restarts);
        self.field("migration_failures", f.migration_failures);
        self.field("migration_retries", f.migration_retries);
        self.field("migrations_abandoned", f.migrations_abandoned);
        self.field("requeued_jobs", f.requeued_jobs);
        self.field("lost_load_reports", f.lost_load_reports);
        self.field("stalled_releases", f.stalled_releases);
        self.out.push('}');
    }

    fn run_stats(&mut self, s: &RunStats) {
        self.out.push('{');
        self.field("events_processed", s.events_processed);
        self.field("final_time", s.final_time.as_micros());
        self.field("drained", s.drained);
        self.out.push('}');
    }

    /// Each entry is `[time, "kind", job or null, node or null]`.
    fn events(&mut self, log: &EventLog) {
        self.arr(log.entries(), |w, e| {
            w.out.push('[');
            e.time.as_micros().write(w);
            // Event-kind tokens need no escaping.
            w.out.push_str(",\"");
            w.out.push_str(e.kind.token());
            w.out.push_str("\",");
            e.job.map(|JobId(id)| id).write(w);
            w.out.push(',');
            e.node.map(|NodeId(id)| u64::from(id)).write(w);
            w.out.push(']');
        });
    }
}

fn report_from_json(doc: &Json) -> Result<RunReport, String> {
    let schema = u64_field(doc, "schema")?;
    if schema != SCHEMA_VERSION {
        return Err(format!(
            "report schema version {schema} != expected {SCHEMA_VERSION}"
        ));
    }
    Ok(RunReport {
        trace_name: str_field(doc, "trace_name")?.to_owned(),
        policy: {
            let token = str_field(doc, "policy")?;
            kind_of(token).ok_or_else(|| format!("unknown policy token {token:?}"))?
        },
        seed: u64_field(doc, "seed")?,
        jobs: arr_field(doc, "jobs")?
            .iter()
            .map(job_from_json)
            .collect::<Result<_, _>>()?,
        summary: summary_from_json(field(doc, "summary")?)?,
        gauges: gauges_from_json(field(doc, "gauges")?)?,
        counters: counters_from_json(field(doc, "counters")?)?,
        reservations: reservations_from_json(field(doc, "reservations")?)?,
        node_counters: arr_field(doc, "node_counters")?
            .iter()
            .map(node_counters_from_json)
            .collect::<Result<_, _>>()?,
        events: events_from_json(field(doc, "events")?)?,
        finished_at: SimTime::from_micros(u64_field(doc, "finished_at")?),
        run_stats: run_stats_from_json(field(doc, "run_stats")?)?,
        unfinished_jobs: usize_field(doc, "unfinished_jobs")?,
        faults: faults_from_json(field(doc, "faults")?)?,
        audit_violations: arr_field(doc, "audit_violations")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| "audit violation is not a string".to_owned())
            })
            .collect::<Result<_, _>>()?,
    })
}

// ---- field plumbing ------------------------------------------------------

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))
}

fn u32_field(doc: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(u64_field(doc, key)?).map_err(|_| format!("field {key:?} exceeds u32"))
}

fn usize_field(doc: &Json, key: &str) -> Result<usize, String> {
    usize::try_from(u64_field(doc, key)?).map_err(|_| format!("field {key:?} exceeds usize"))
}

fn f64_field(doc: &Json, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    field(doc, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn arr_field<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} is not an array"))
}

fn time_field(doc: &Json, key: &str) -> Result<SimTime, String> {
    Ok(SimTime::from_micros(u64_field(doc, key)?))
}

fn span_field(doc: &Json, key: &str) -> Result<SimSpan, String> {
    Ok(SimSpan::from_micros(u64_field(doc, key)?))
}

// ---- enums ---------------------------------------------------------------

fn class_token(class: JobClass) -> &'static str {
    match class {
        JobClass::CpuIntensive => "cpu",
        JobClass::MemoryIntensive => "mem",
        JobClass::CpuMemoryIntensive => "cpu+mem",
        JobClass::IoActive => "io",
    }
}

fn class_from_token(token: &str) -> Result<JobClass, String> {
    Ok(match token {
        "cpu" => JobClass::CpuIntensive,
        "mem" => JobClass::MemoryIntensive,
        "cpu+mem" => JobClass::CpuMemoryIntensive,
        "io" => JobClass::IoActive,
        other => return Err(format!("unknown job class {other:?}")),
    })
}

fn state_token(state: JobState) -> &'static str {
    match state {
        JobState::Pending => "pending",
        JobState::Running => "running",
        JobState::Migrating => "migrating",
        JobState::Suspended => "suspended",
        JobState::Completed => "completed",
    }
}

fn state_from_token(token: &str) -> Result<JobState, String> {
    Ok(match token {
        "pending" => JobState::Pending,
        "running" => JobState::Running,
        "migrating" => JobState::Migrating,
        "suspended" => JobState::Suspended,
        "completed" => JobState::Completed,
        other => return Err(format!("unknown job state {other:?}")),
    })
}

/// The inverse of [`SchedulerEventKind::token`].
fn event_kind_from_token(token: &str) -> Result<SchedulerEventKind, String> {
    SchedulerEventKind::ALL
        .into_iter()
        .find(|kind| kind.token() == token)
        .ok_or_else(|| format!("unknown event kind {token:?}"))
}

// ---- jobs ----------------------------------------------------------------

fn job_from_json(doc: &Json) -> Result<RunningJob, String> {
    Ok(RunningJob {
        spec: spec_from_json(field(doc, "spec")?)?,
        progress_secs: f64_field(doc, "progress_secs")?,
        breakdown: breakdown_from_json(field(doc, "breakdown")?)?,
        state: state_from_token(str_field(doc, "state")?)?,
        migrations: u32_field(doc, "migrations")?,
        remote_submitted: field(doc, "remote_submitted")?
            .as_bool()
            .ok_or("remote_submitted is not a bool")?,
        completed_at: match field(doc, "completed_at")? {
            Json::Null => None,
            other => Some(SimTime::from_micros(
                other.as_u64().ok_or("completed_at is not an integer")?,
            )),
        },
        width: u32_field(doc, "width")?,
        phase_memo: Default::default(),
    })
}

fn spec_from_json(doc: &Json) -> Result<JobSpec, String> {
    let phases = arr_field(doc, "memory")?
        .iter()
        .map(|p| {
            let pair = p.as_arr().ok_or("memory phase is not a pair")?;
            let [until, ws] = pair else {
                return Err("memory phase is not a pair".to_owned());
            };
            Ok((
                SimSpan::from_micros(until.as_u64().ok_or("phase boundary is not an integer")?),
                Bytes::new(ws.as_u64().ok_or("working set is not an integer")?),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(JobSpec {
        id: JobId(u64_field(doc, "id")?),
        name: str_field(doc, "name")?.to_owned(),
        class: class_from_token(str_field(doc, "class")?)?,
        submit: time_field(doc, "submit")?,
        cpu_work: span_field(doc, "cpu_work")?,
        memory: MemoryProfile::from_phases(phases).map_err(|e| e.to_string())?,
        io_rate: f64_field(doc, "io_rate")?,
        malleable: match field(doc, "malleable")? {
            Json::Null => None,
            other => {
                let pair = other.as_arr().ok_or("malleable is not a pair")?;
                let [min, max] = pair else {
                    return Err("malleable is not a pair".to_owned());
                };
                let min = min
                    .as_u64()
                    .ok_or("malleable min width is not an integer")?;
                let max = max
                    .as_u64()
                    .ok_or("malleable max width is not an integer")?;
                let spec = MalleableSpec {
                    min_width: u32::try_from(min).map_err(|_| "malleable min exceeds u32")?,
                    max_width: u32::try_from(max).map_err(|_| "malleable max exceeds u32")?,
                };
                spec.validate()?;
                Some(spec)
            }
        },
    })
}

fn breakdown_from_json(doc: &Json) -> Result<TimeBreakdown, String> {
    Ok(TimeBreakdown {
        cpu: f64_field(doc, "cpu")?,
        page: f64_field(doc, "page")?,
        queue: f64_field(doc, "queue")?,
        migration: f64_field(doc, "migration")?,
    })
}

// ---- summary & gauges ----------------------------------------------------

fn summary_from_json(doc: &Json) -> Result<WorkloadSummary, String> {
    Ok(WorkloadSummary {
        jobs: usize_field(doc, "jobs")?,
        totals: breakdown_from_json(field(doc, "totals")?)?,
        avg_slowdown: f64_field(doc, "avg_slowdown")?,
        slowdown: stats_summary_from_json(field(doc, "slowdown")?)?,
        median_slowdown: f64_field(doc, "median_slowdown")?,
        p95_slowdown: f64_field(doc, "p95_slowdown")?,
        migrations: u64_field(doc, "migrations")?,
        remote_submissions: u64_field(doc, "remote_submissions")?,
    })
}

fn stats_summary_from_json(doc: &Json) -> Result<Summary, String> {
    Ok(Summary {
        count: u64_field(doc, "count")?,
        mean: f64_field(doc, "mean")?,
        std_dev: f64_field(doc, "std_dev")?,
        min: f64_field(doc, "min")?,
        max: f64_field(doc, "max")?,
    })
}

fn series_from_json(doc: &Json, what: &str) -> Result<TimeSeries, String> {
    let samples = doc
        .as_arr()
        .ok_or_else(|| format!("{what} is not an array"))?;
    let mut last: Option<SimTime> = None;
    samples
        .iter()
        .map(|sample| {
            let pair = sample
                .as_arr()
                .ok_or_else(|| format!("{what} sample is not a pair"))?;
            let [t, v] = pair else {
                return Err(format!("{what} sample is not a pair"));
            };
            let t = SimTime::from_micros(
                t.as_u64()
                    .ok_or_else(|| format!("{what} timestamp is not an integer"))?,
            );
            let v = v
                .as_f64()
                .ok_or_else(|| format!("{what} value is not a number"))?;
            if v.is_nan() {
                return Err(format!("{what} holds a NaN sample"));
            }
            if last.is_some_and(|prev| t < prev) {
                return Err(format!("{what} samples are out of order"));
            }
            last = Some(t);
            Ok((t, v))
        })
        .collect()
}

fn gauges_from_json(doc: &Json) -> Result<ClusterGauges, String> {
    Ok(ClusterGauges {
        idle_memory_mb: series_from_json(field(doc, "idle_memory_mb")?, "idle_memory_mb")?,
        physical_idle_memory_mb: series_from_json(
            field(doc, "physical_idle_memory_mb")?,
            "physical_idle_memory_mb",
        )?,
        balance_skew: series_from_json(field(doc, "balance_skew")?, "balance_skew")?,
        reserved_nodes: series_from_json(field(doc, "reserved_nodes")?, "reserved_nodes")?,
        pending_jobs: series_from_json(field(doc, "pending_jobs")?, "pending_jobs")?,
    })
}

// ---- counters ------------------------------------------------------------

fn counters_from_json(doc: &Json) -> Result<SchedulerCounters, String> {
    Ok(SchedulerCounters {
        local_submissions: u64_field(doc, "local_submissions")?,
        remote_submissions: u64_field(doc, "remote_submissions")?,
        blocked_submissions: u64_field(doc, "blocked_submissions")?,
        overload_migrations: u64_field(doc, "overload_migrations")?,
        reserved_migrations: u64_field(doc, "reserved_migrations")?,
        blocking_detections: u64_field(doc, "blocking_detections")?,
        stale_rejections: u64_field(doc, "stale_rejections")?,
        suspensions: u64_field(doc, "suspensions")?,
        resumes: u64_field(doc, "resumes")?,
        grows: u64_field(doc, "grows")?,
        shrinks: u64_field(doc, "shrinks")?,
    })
}

fn reservations_from_json(doc: &Json) -> Result<ReservationStats, String> {
    Ok(ReservationStats {
        started: u64_field(doc, "started")?,
        released_after_service: u64_field(doc, "released_after_service")?,
        released_unused: u64_field(doc, "released_unused")?,
        timed_out: u64_field(doc, "timed_out")?,
        jobs_served: u64_field(doc, "jobs_served")?,
    })
}

fn node_counters_from_json(doc: &Json) -> Result<NodeCounters, String> {
    Ok(NodeCounters {
        delivered_cpu: f64_field(doc, "delivered_cpu")?,
        page_stall: f64_field(doc, "page_stall")?,
        admitted: u64_field(doc, "admitted")?,
        completed: u64_field(doc, "completed")?,
        migrated_out: u64_field(doc, "migrated_out")?,
        io_ops: f64_field(doc, "io_ops")?,
    })
}

fn faults_from_json(doc: &Json) -> Result<FaultCounters, String> {
    Ok(FaultCounters {
        crashes: u64_field(doc, "crashes")?,
        restarts: u64_field(doc, "restarts")?,
        migration_failures: u64_field(doc, "migration_failures")?,
        migration_retries: u64_field(doc, "migration_retries")?,
        migrations_abandoned: u64_field(doc, "migrations_abandoned")?,
        requeued_jobs: u64_field(doc, "requeued_jobs")?,
        lost_load_reports: u64_field(doc, "lost_load_reports")?,
        stalled_releases: u64_field(doc, "stalled_releases")?,
    })
}

fn run_stats_from_json(doc: &Json) -> Result<RunStats, String> {
    Ok(RunStats {
        events_processed: u64_field(doc, "events_processed")?,
        final_time: SimTime::from_micros(u64_field(doc, "final_time")?),
        drained: field(doc, "drained")?
            .as_bool()
            .ok_or("drained is not a bool")?,
    })
}

// ---- events --------------------------------------------------------------

fn events_from_json(doc: &Json) -> Result<EventLog, String> {
    let entries = doc.as_arr().ok_or("events is not an array")?;
    let mut log = EventLog::new();
    let mut last = SimTime::ZERO;
    for entry in entries {
        let tuple = entry.as_arr().ok_or("event entry is not a tuple")?;
        let [time, kind, job, node] = tuple else {
            return Err("event entry is not a 4-tuple".to_owned());
        };
        let time = SimTime::from_micros(time.as_u64().ok_or("event time is not an integer")?);
        if time < last {
            return Err("event log is out of order".to_owned());
        }
        last = time;
        let kind = event_kind_from_token(kind.as_str().ok_or("event kind is not a string")?)?;
        let job = match job {
            Json::Null => None,
            other => Some(JobId(other.as_u64().ok_or("event job is not an integer")?)),
        };
        let node = match node {
            Json::Null => None,
            other => {
                let id = other.as_u64().ok_or("event node is not an integer")?;
                Some(NodeId(
                    u32::try_from(id).map_err(|_| "event node exceeds u32")?,
                ))
            }
        };
        log.record(time, kind, job, node);
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use vr_cluster::job::MemPhase;

    fn sample_report() -> RunReport {
        let spec = JobSpec {
            id: JobId(3),
            name: "mcf \"β\" \\ \u{7}".into(),
            class: JobClass::CpuMemoryIntensive,
            submit: SimTime::from_secs(5),
            cpu_work: SimSpan::from_secs(120),
            memory: MemoryProfile::from_phases(vec![
                (SimSpan::from_secs(10), Bytes::from_mb(20)),
                (SimSpan::MAX, Bytes::from_mb(90)),
            ])
            .unwrap(),
            io_rate: 0.25,
            malleable: Some(MalleableSpec {
                min_width: 1,
                max_width: 4,
            }),
        };
        let mut job = RunningJob::new(spec);
        job.width = 3;
        job.progress_secs = 120.0;
        job.breakdown = TimeBreakdown {
            cpu: 120.0,
            page: 3.5,
            queue: 17.25,
            migration: 0.125,
        };
        job.state = JobState::Completed;
        job.migrations = 2;
        job.remote_submitted = true;
        job.completed_at = Some(SimTime::from_secs_f64(145.875));

        let mut events = EventLog::new();
        events.record(
            SimTime::from_secs(5),
            SchedulerEventKind::Submitted,
            Some(JobId(3)),
            Some(NodeId(1)),
        );
        events.record(
            SimTime::from_secs(6),
            SchedulerEventKind::ReservationBegan,
            None,
            Some(NodeId(2)),
        );
        events.record(
            SimTime::from_secs_f64(145.875),
            SchedulerEventKind::Completed,
            Some(JobId(3)),
            None,
        );

        let mut gauges = ClusterGauges::default();
        gauges.idle_memory_mb.push(SimTime::from_secs(1), 100.5);
        gauges.idle_memory_mb.push(SimTime::from_secs(2), 99.25);
        gauges.balance_skew.push(SimTime::from_secs(1), 0.1);
        // The smallest subnormal.
        gauges
            .balance_skew
            .push(SimTime::from_secs(2), f64::from_bits(1));
        gauges.pending_jobs.push(SimTime::from_secs(1), 2.0);
        // `physical_idle_memory_mb` and `reserved_nodes` stay empty.

        let summary = WorkloadSummary::of_jobs(std::iter::once(&job));
        RunReport {
            trace_name: "Round-Trip \"π\" \\ \u{1}\t".into(),
            policy: PolicyKind::VReconfiguration,
            seed: u64::MAX - 1,
            jobs: vec![job],
            summary,
            gauges,
            counters: SchedulerCounters {
                local_submissions: 1,
                remote_submissions: 2,
                blocked_submissions: 3,
                overload_migrations: 4,
                reserved_migrations: 5,
                blocking_detections: 6,
                stale_rejections: 7,
                suspensions: 8,
                resumes: 9,
                grows: 10,
                shrinks: u64::MAX,
            },
            reservations: ReservationStats {
                started: 1,
                released_after_service: 1,
                released_unused: 0,
                timed_out: 0,
                jobs_served: 1,
            },
            // Each infinity sits between two writes of one finite value, so
            // a float memo that leaked across a sentinel would show.
            node_counters: vec![
                NodeCounters {
                    delivered_cpu: 120.0,
                    page_stall: f64::INFINITY,
                    admitted: 1,
                    completed: 1,
                    migrated_out: 0,
                    io_ops: 120.0,
                },
                NodeCounters {
                    delivered_cpu: -0.0,
                    page_stall: f64::NEG_INFINITY,
                    admitted: 0,
                    completed: 0,
                    migrated_out: 0,
                    io_ops: -0.0,
                },
            ],
            events,
            finished_at: SimTime::from_secs_f64(145.875),
            run_stats: RunStats {
                events_processed: 42,
                final_time: SimTime::from_secs_f64(145.875),
                drained: false,
            },
            unfinished_jobs: 0,
            faults: FaultCounters {
                crashes: 1,
                restarts: 1,
                migration_failures: 2,
                migration_retries: 2,
                migrations_abandoned: 0,
                requeued_jobs: 3,
                lost_load_reports: 4,
                stalled_releases: 5,
            },
            audit_violations: vec!["example \"violation\"\nwith newline, \\, \u{1f} and ü".into()],
        }
    }

    #[test]
    fn round_trip_is_lossless_and_deterministic() {
        let report = sample_report();
        let text = encode_report(&report);
        let decoded = decode_report(&text).unwrap();
        assert_eq!(decoded, report);
        // Re-encoding the decoded report is byte-identical, which also
        // tells -0.0 from 0.0.
        assert_eq!(encode_report(&decoded), text);
        // The writer's bytes are the generic renderer's canonical form.
        assert_eq!(Json::parse(&text).unwrap().render(), text);
        for fragment in [
            "\"page_stall\":\"inf\",\"admitted\":1,\"completed\":1,\"migrated_out\":0,\"io_ops\":120.0}",
            "\"delivered_cpu\":-0.0,\"page_stall\":\"-inf\"",
            "[2000000,5e-324]",
            "\"shrinks\":18446744073709551615}",
            "\"physical_idle_memory_mb\":[]",
            "\"trace_name\":\"Round-Trip \\\"π\\\" \\\\ \\u0001\\t\"",
        ] {
            assert!(text.contains(fragment), "{fragment} missing from {text}");
        }

        // NaN != NaN under the report's `PartialEq`, so check its text.
        let mut report = report;
        report.jobs[0].spec.io_rate = f64::NAN;
        let text = encode_report(&report);
        assert!(text.contains("\"io_rate\":\"NaN\""), "{text}");
        assert!(decode_report(&text).unwrap().jobs[0].spec.io_rate.is_nan());
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn every_event_kind_round_trips_through_its_token() {
        for (i, kind) in SchedulerEventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "ALL lists kinds in declaration order");
            let token = kind.token();
            assert!(
                token.bytes().all(|b| b.is_ascii_lowercase() || b == b'-'),
                "{token:?} would need escaping"
            );
            assert_eq!(event_kind_from_token(token), Ok(kind));
        }
        assert!(event_kind_from_token("bogus").is_err());
    }

    #[test]
    fn round_trip_of_a_real_simulation_run() {
        use crate::config::SimConfig;
        use crate::sim::Simulation;
        let mut cluster = vr_cluster::params::ClusterParams::cluster2();
        cluster.nodes.truncate(4);
        let trace = vr_workload::synth::blocking_scenario(4, Bytes::from_mb(128));
        let config = SimConfig::new(cluster, PolicyKind::VReconfiguration).with_seed(7);
        let report = Simulation::new(config).run(&trace);
        let text = encode_report(&report);
        let decoded = decode_report(&text).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(encode_report(&decoded), text);
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut text = encode_report(&sample_report());
        text = text.replacen("\"schema\":3", "\"schema\":999", 1);
        let err = decode_report(&text).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn corrupted_documents_error_instead_of_panicking() {
        assert!(decode_report("not json").is_err());
        assert!(decode_report("{}").is_err());
        // Out-of-order event log.
        let mut report = sample_report();
        report.events = EventLog::new();
        let good = encode_report(&report);
        let bad = good.replacen(
            "\"events\":[]",
            "\"events\":[[5,\"placed\",null,null],[1,\"completed\",null,null]]",
            1,
        );
        let err = decode_report(&bad).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
        // Unknown policy token.
        let bad = good.replacen("\"policy\":\"vrecon\"", "\"policy\":\"magic\"", 1);
        assert!(decode_report(&bad).is_err());
    }

    #[test]
    fn memory_profile_phases_survive() {
        let report = sample_report();
        let decoded = decode_report(&encode_report(&report)).unwrap();
        let phases: &[MemPhase] = decoded.jobs[0].spec.memory.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[1].until_progress, SimSpan::MAX);
        assert_eq!(phases[1].working_set, Bytes::from_mb(90));
    }
}
