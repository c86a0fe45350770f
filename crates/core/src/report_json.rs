//! Lossless JSON serialization of [`RunReport`].
//!
//! The workspace's `serde` is a no-op offline stand-in (see
//! `compat/README.md`), so the experiment runner's content-addressed result
//! cache needs a hand-rolled, exactly-invertible encoding of the report.
//! This module provides it on top of [`vr_simcore::jsonio`]:
//!
//! * every field of [`RunReport`] and its nested types round-trips
//!   bit-for-bit (`decode(encode(r)) == r`, asserted via the report's
//!   `PartialEq`, which compares `f64`s exactly);
//! * encoding is deterministic (object fields are emitted in a fixed
//!   order), so equal reports produce byte-identical cache files;
//! * decoding validates structure and invariants (event-log and
//!   time-series ordering, memory-profile monotonicity) and returns an
//!   error instead of panicking on a corrupted or stale cache file.
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
use vr_simcore::jsonio::Json;
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
pub fn encode_report(report: &RunReport) -> String {
    report_to_json(report).render()
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

fn report_to_json(r: &RunReport) -> Json {
    Json::obj([
        ("schema", Json::U64(SCHEMA_VERSION)),
        ("trace_name", Json::str(&r.trace_name)),
        ("policy", Json::str(entry(r.policy).token)),
        ("seed", Json::U64(r.seed)),
        ("jobs", Json::Arr(r.jobs.iter().map(job_to_json).collect())),
        ("summary", summary_to_json(&r.summary)),
        ("gauges", gauges_to_json(&r.gauges)),
        ("counters", counters_to_json(&r.counters)),
        ("reservations", reservations_to_json(&r.reservations)),
        (
            "node_counters",
            Json::Arr(r.node_counters.iter().map(node_counters_to_json).collect()),
        ),
        ("events", events_to_json(&r.events)),
        ("finished_at", Json::U64(r.finished_at.as_micros())),
        ("run_stats", run_stats_to_json(&r.run_stats)),
        ("unfinished_jobs", Json::U64(r.unfinished_jobs as u64)),
        ("faults", faults_to_json(&r.faults)),
        (
            "audit_violations",
            Json::Arr(r.audit_violations.iter().map(Json::str).collect()),
        ),
    ])
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

/// Event kinds reuse their `Display` strings; this is the inverse. The
/// token table is rendered once — event logs hit this for every entry.
fn event_kind_from_token(token: &str) -> Result<SchedulerEventKind, String> {
    use std::sync::OnceLock;
    use SchedulerEventKind::*;
    static TOKENS: OnceLock<Vec<(String, SchedulerEventKind)>> = OnceLock::new();
    let tokens = TOKENS.get_or_init(|| {
        [
            Submitted,
            Placed,
            Blocked,
            TransitStarted,
            BlockingDetected,
            MigrationStarted,
            MigratedOut,
            SpecialServiceStarted,
            Suspended,
            Resumed,
            ReservationBegan,
            ReservationReleased,
            Completed,
            NodeCrashed,
            NodeRestarted,
            MigrationFailed,
            Requeued,
            JobResized,
        ]
        .into_iter()
        .map(|kind| (kind.to_string(), kind))
        .collect()
    });
    tokens
        .iter()
        .find(|(text, _)| text == token)
        .map(|(_, kind)| *kind)
        .ok_or_else(|| format!("unknown event kind {token:?}"))
}

// ---- jobs ----------------------------------------------------------------

fn job_to_json(job: &RunningJob) -> Json {
    Json::obj([
        ("spec", spec_to_json(&job.spec)),
        ("progress_secs", Json::f64(job.progress_secs)),
        ("breakdown", breakdown_to_json(&job.breakdown)),
        ("state", Json::str(state_token(job.state))),
        ("migrations", Json::U64(u64::from(job.migrations))),
        ("remote_submitted", Json::Bool(job.remote_submitted)),
        (
            "completed_at",
            match job.completed_at {
                Some(t) => Json::U64(t.as_micros()),
                None => Json::Null,
            },
        ),
        ("width", Json::U64(u64::from(job.width))),
    ])
}

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

fn spec_to_json(spec: &JobSpec) -> Json {
    Json::obj([
        ("id", Json::U64(spec.id.0)),
        ("name", Json::str(&spec.name)),
        ("class", Json::str(class_token(spec.class))),
        ("submit", Json::U64(spec.submit.as_micros())),
        ("cpu_work", Json::U64(spec.cpu_work.as_micros())),
        (
            "memory",
            Json::Arr(
                spec.memory
                    .phases()
                    .iter()
                    .map(|p| {
                        Json::Arr(vec![
                            Json::U64(p.until_progress.as_micros()),
                            Json::U64(p.working_set.as_u64()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("io_rate", Json::f64(spec.io_rate)),
        (
            "malleable",
            match spec.malleable {
                Some(m) => Json::Arr(vec![
                    Json::U64(u64::from(m.min_width)),
                    Json::U64(u64::from(m.max_width)),
                ]),
                None => Json::Null,
            },
        ),
    ])
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

fn breakdown_to_json(b: &TimeBreakdown) -> Json {
    Json::obj([
        ("cpu", Json::f64(b.cpu)),
        ("page", Json::f64(b.page)),
        ("queue", Json::f64(b.queue)),
        ("migration", Json::f64(b.migration)),
    ])
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

fn summary_to_json(s: &WorkloadSummary) -> Json {
    Json::obj([
        ("jobs", Json::U64(s.jobs as u64)),
        ("totals", breakdown_to_json(&s.totals)),
        ("avg_slowdown", Json::f64(s.avg_slowdown)),
        ("slowdown", stats_summary_to_json(&s.slowdown)),
        ("median_slowdown", Json::f64(s.median_slowdown)),
        ("p95_slowdown", Json::f64(s.p95_slowdown)),
        ("migrations", Json::U64(s.migrations)),
        ("remote_submissions", Json::U64(s.remote_submissions)),
    ])
}

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

fn stats_summary_to_json(s: &Summary) -> Json {
    Json::obj([
        ("count", Json::U64(s.count)),
        ("mean", Json::f64(s.mean)),
        ("std_dev", Json::f64(s.std_dev)),
        ("min", Json::f64(s.min)),
        ("max", Json::f64(s.max)),
    ])
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

fn series_to_json(s: &TimeSeries) -> Json {
    Json::Arr(
        s.iter()
            .map(|(t, v)| Json::Arr(vec![Json::U64(t.as_micros()), Json::f64(v)]))
            .collect(),
    )
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

fn gauges_to_json(g: &ClusterGauges) -> Json {
    Json::obj([
        ("idle_memory_mb", series_to_json(&g.idle_memory_mb)),
        (
            "physical_idle_memory_mb",
            series_to_json(&g.physical_idle_memory_mb),
        ),
        ("balance_skew", series_to_json(&g.balance_skew)),
        ("reserved_nodes", series_to_json(&g.reserved_nodes)),
        ("pending_jobs", series_to_json(&g.pending_jobs)),
    ])
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

fn counters_to_json(c: &SchedulerCounters) -> Json {
    Json::obj([
        ("local_submissions", Json::U64(c.local_submissions)),
        ("remote_submissions", Json::U64(c.remote_submissions)),
        ("blocked_submissions", Json::U64(c.blocked_submissions)),
        ("overload_migrations", Json::U64(c.overload_migrations)),
        ("reserved_migrations", Json::U64(c.reserved_migrations)),
        ("blocking_detections", Json::U64(c.blocking_detections)),
        ("stale_rejections", Json::U64(c.stale_rejections)),
        ("suspensions", Json::U64(c.suspensions)),
        ("resumes", Json::U64(c.resumes)),
        ("grows", Json::U64(c.grows)),
        ("shrinks", Json::U64(c.shrinks)),
    ])
}

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

fn reservations_to_json(r: &ReservationStats) -> Json {
    Json::obj([
        ("started", Json::U64(r.started)),
        (
            "released_after_service",
            Json::U64(r.released_after_service),
        ),
        ("released_unused", Json::U64(r.released_unused)),
        ("timed_out", Json::U64(r.timed_out)),
        ("jobs_served", Json::U64(r.jobs_served)),
    ])
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

fn node_counters_to_json(c: &NodeCounters) -> Json {
    Json::obj([
        ("delivered_cpu", Json::f64(c.delivered_cpu)),
        ("page_stall", Json::f64(c.page_stall)),
        ("admitted", Json::U64(c.admitted)),
        ("completed", Json::U64(c.completed)),
        ("migrated_out", Json::U64(c.migrated_out)),
        ("io_ops", Json::f64(c.io_ops)),
    ])
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

fn faults_to_json(f: &FaultCounters) -> Json {
    Json::obj([
        ("crashes", Json::U64(f.crashes)),
        ("restarts", Json::U64(f.restarts)),
        ("migration_failures", Json::U64(f.migration_failures)),
        ("migration_retries", Json::U64(f.migration_retries)),
        ("migrations_abandoned", Json::U64(f.migrations_abandoned)),
        ("requeued_jobs", Json::U64(f.requeued_jobs)),
        ("lost_load_reports", Json::U64(f.lost_load_reports)),
        ("stalled_releases", Json::U64(f.stalled_releases)),
    ])
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

fn run_stats_to_json(s: &RunStats) -> Json {
    Json::obj([
        ("events_processed", Json::U64(s.events_processed)),
        ("final_time", Json::U64(s.final_time.as_micros())),
        ("drained", Json::Bool(s.drained)),
    ])
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

fn events_to_json(log: &EventLog) -> Json {
    Json::Arr(
        log.entries()
            .iter()
            .map(|e| {
                Json::Arr(vec![
                    Json::U64(e.time.as_micros()),
                    Json::str(e.kind.to_string()),
                    match e.job {
                        Some(JobId(id)) => Json::U64(id),
                        None => Json::Null,
                    },
                    match e.node {
                        Some(NodeId(id)) => Json::U64(u64::from(id)),
                        None => Json::Null,
                    },
                ])
            })
            .collect(),
    )
}

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
            name: "mcf".into(),
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
        gauges.pending_jobs.push(SimTime::from_secs(1), 2.0);

        let summary = WorkloadSummary::of_jobs(std::iter::once(&job));
        RunReport {
            trace_name: "Round-Trip".into(),
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
                shrinks: 11,
            },
            reservations: ReservationStats {
                started: 1,
                released_after_service: 1,
                released_unused: 0,
                timed_out: 0,
                jobs_served: 1,
            },
            node_counters: vec![NodeCounters {
                delivered_cpu: 120.0,
                page_stall: 3.5,
                admitted: 1,
                completed: 1,
                migrated_out: 0,
                io_ops: 30.0,
            }],
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
            audit_violations: vec!["example \"violation\"\nwith newline".into()],
        }
    }

    #[test]
    fn round_trip_is_lossless_and_deterministic() {
        let report = sample_report();
        let text = encode_report(&report);
        let decoded = decode_report(&text).unwrap();
        assert_eq!(decoded, report);
        // Re-encoding the decoded report is byte-identical.
        assert_eq!(encode_report(&decoded), text);
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
