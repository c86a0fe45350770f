//! The CLI subcommands.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::sync::Arc;

use vr_check::fuzz::{generate, MAX_SIM_TIME_S};
use vr_check::{run_fuzz, CheckScenario, FuzzOptions, OracleSkew};
use vr_cluster::params::ClusterParams;
use vr_faults::FaultPlan;
use vr_metrics::comparison::MetricComparison;
use vr_metrics::table::{fmt_f, TextTable};
use vr_serve::{JsonlRequestLog, ServeConfig};
use vr_simcore::rng::SimRng;
use vr_workload::trace::{
    app_trace_scaled, spec_trace_scaled, Trace, TraceLevel, APP_LIFETIME_SCALE, SPEC_LIFETIME_SCALE,
};
use vr_workload::{read_trace, write_trace};
use vrecon::config::{PlacementMode, SimConfig};
use vrecon::encode_report;
use vrecon::plugin::{build_policy, kind_of, registry, ParamBag};
use vrecon::policy::PolicyKind;
use vrecon::report::RunReport;
use vrecon::sim::Simulation;

use crate::args::{ArgError, Args};

/// Top-level usage text.
pub const USAGE: &str = "\
vrecon — adaptive & virtual cluster reconfiguration (ICDCS 2002 reproduction)

USAGE:
  vrecon gen     --group <spec|app> --level <1..5> [--seed N] [--scale F] [--out FILE]
  vrecon inspect <TRACE_FILE>
  vrecon run     <TRACE_FILE> --cluster <cluster1|cluster2> --policy <POLICY>
                 [--seed N] [--nodes N] [--netram] [--csv] [--log] [--gantt]
                 [--placement optimistic|commit-aware]
                 [--fault-plan FILE] [--audit] [--max-sim-time SECS]
                 [--trace-out FILE] [--trace-format chrome|jsonl]
                 [--profile-out FILE] [--spec FILE] [--report-out FILE]
  vrecon compare <TRACE_FILE> --cluster <cluster1|cluster2> [--seed N] [--nodes N]
  vrecon fuzz    [--iters N] [--seed N] [--jobs N] [--failures-dir DIR]
                 [--broken-oracle]
  vrecon serve   [--addr HOST:PORT] [--jobs N] [--cache-dir DIR] [--no-cache]
                 [--max-inflight N] [--hot-cap N] [--read-timeout-ms MS]
                 [--max-conns N] [--request-log FILE]
  vrecon spec    [--seed N] [--iter N] [--out FILE]

POLICIES: none | random | cpu | weighted | gls | suspend | vrecon, or any
registry name — malleable and fractional take knobs via `name:k=v,...`
(e.g. `--policy malleable:max_step=2`, `--policy fractional:oversub=1.5`)

FAULT PLANS (--fault-plan): a text file, one directive per line —
  crash node=N at=SECS [restart_after=SECS]
  migration-failure p=PROB     max-retries N      retry-backoff SECS
  load-info-loss p=PROB        reservation-stall SECS      seed-salt N
`--audit` switches on the invariant auditor; violations are printed (and
fail the command) after the report.

`run` defaults reproduce the paper byte-for-byte; one knob trades that
fidelity for scale realism. `--placement commit-aware` makes placement
subtract in-transit demand and in-flight slot commitments (the default
`optimistic` races and re-queues, which floods large clusters with
transfer ping-pong). `--nodes N` beyond the paper cluster's size repeats
the node list cyclically — cluster size is a free parameter.

`run --trace-out FILE` exports the trace derived from the run's event
log: `chrome` (the default `--trace-format`) is Chrome trace-event JSON
loadable in chrome://tracing or Perfetto, `jsonl` is compact JSON-lines.
`--profile-out FILE` writes profiling counters (events/sec over the
simulation's wall time, engine events, per-kind counts). Trace bytes are
deterministic: same trace + seed ⇒ byte-identical files.

A run that stops at the `--max-sim-time` horizon with events still queued
is flagged with a loud `WARNING:` — its measurements are truncated, not
converged. `--max-sim-time` must be positive and at most 1000000 seconds,
the bound a spec's `max-sim-time-s` has.

`fuzz` generates `--iters` seeded random scenarios and runs each through
the engine, a naive reference oracle, and the invariant auditor. Any
divergence is shrunk to a minimal reproducer and written under
`--failures-dir` (default `fuzz-failures/`); the command fails if any
scenario diverged. Output is byte-identical for any `--jobs` value.
`--broken-oracle` deliberately skews the oracle's completion timestamps by
one microsecond to prove the harness detects and shrinks a real mismatch.

`serve` runs what-if scheduling as an HTTP service: POST a scenario spec
in the fuzzer's replayable text format (see `vrecon spec`) to `/run` and
the deterministic report JSON comes back — byte-identical to what
`vrecon run --spec FILE --report-out FILE` writes for the same spec.
Responses come from an in-memory hot tier, the on-disk result cache
(`--cache-dir`, default `.vr-cache/`, `$VR_CACHE_DIR` overrides;
`--no-cache` disables the disk tier), or a fresh simulation on `--jobs`
workers. Identical concurrent requests coalesce onto one run; distinct
cold scenarios past `--max-inflight` are refused with 503 and connections
past `--max-conns` with 429 — overload is always explicit, never an
invisible queue. `GET /stats` reports counters, `GET /healthz` liveness;
`--request-log` appends one JSON record per request. A spec whose
`max-sim-time-s` exceeds 1000000 is refused with 400, like any other
unrunnable spec.

`spec` renders one fuzzer-generated scenario spec (`--seed`/`--iter`
select which). `run --spec FILE` replays such a spec instead of a trace
file. The spec carries its own cluster, policy, seed, horizon and fault
plan, and always audits, so `--cluster`, `--nodes`, `--policy`, `--seed`,
`--placement`, `--fault-plan`, `--max-sim-time`, `--netram` and `--audit`
are refused next to it; every output option works as for a trace file.
`--report-out FILE` writes the canonical report encoding — the exact
bytes `serve` returns for that spec.
";

fn parse_level(raw: &str) -> Result<TraceLevel, ArgError> {
    match raw {
        "1" => Ok(TraceLevel::Light),
        "2" => Ok(TraceLevel::Moderate),
        "3" => Ok(TraceLevel::Normal),
        "4" => Ok(TraceLevel::ModeratelyIntensive),
        "5" => Ok(TraceLevel::HighlyIntensive),
        other => Err(ArgError(format!("--level must be 1..5, got {other}"))),
    }
}

/// Parses `--policy name[:k=v,...]`: any spelling of a registry row —
/// short token (`gls`), registry name (`g-loadsharing`) or display name —
/// optionally followed by a parameter bag for the families that take knobs
/// (e.g. `malleable:max_step=2`, `fractional:oversub=1.5`).
fn parse_policy(raw: &str) -> Result<(PolicyKind, ParamBag), ArgError> {
    let (name, params) = match raw.split_once(':') {
        Some((name, params)) => (
            name,
            ParamBag::parse(params)
                .map_err(|e| ArgError(format!("bad policy parameters in {raw}: {e}")))?,
        ),
        None => (raw, ParamBag::new()),
    };
    let kind = kind_of(name).ok_or_else(|| {
        ArgError(format!(
            "unknown policy {name}; expected {} or a registry name ({})",
            registry().each_ref().map(|e| e.token).join("|"),
            registry().each_ref().map(|e| e.name).join("|")
        ))
    })?;
    // Surface unknown-knob errors here, where the message can name the
    // flag, instead of from config.validate() later.
    build_policy(kind, &params).map_err(|e| ArgError(format!("--policy {raw}: {e}")))?;
    Ok((kind, params))
}

fn parse_cluster(args: &Args) -> Result<ClusterParams, ArgError> {
    let mut cluster = match args.opt("cluster") {
        Some("cluster1") => ClusterParams::cluster1(),
        Some("cluster2") | None => ClusterParams::cluster2(),
        Some(other) => {
            return Err(ArgError(format!(
                "unknown cluster {other}; expected cluster1|cluster2"
            )))
        }
    };
    if let Some(n) = args.opt_parse::<usize>("nodes")? {
        if n == 0 {
            return Err(ArgError("--nodes must be at least 1".to_owned()));
        }
        if n <= cluster.size() {
            cluster.nodes.truncate(n);
        } else {
            // Cluster size is a free parameter: grow past the paper's 32
            // workstations by repeating the node list cyclically, so a
            // heterogeneous cluster keeps its mix ratio at any size.
            let base = cluster.nodes.clone();
            cluster.nodes = (0..n).map(|i| base[i % base.len()]).collect();
        }
    }
    Ok(cluster)
}

fn parse_placement(raw: &str) -> Result<PlacementMode, ArgError> {
    match raw {
        "optimistic" => Ok(PlacementMode::Optimistic),
        "commit-aware" => Ok(PlacementMode::CommitAware),
        other => Err(ArgError(format!(
            "unknown placement mode {other}; expected optimistic|commit-aware"
        ))),
    }
}

fn load_trace(path: &str) -> Result<Trace, ArgError> {
    let file = File::open(path).map_err(|e| ArgError(format!("cannot open {path}: {e}")))?;
    let trace = read_trace(BufReader::new(file))
        .map_err(|e| ArgError(format!("cannot parse {path}: {e}")))?;
    trace
        .validate()
        .map_err(|e| ArgError(format!("{path} is not a valid trace: {e}")))?;
    Ok(trace)
}

/// `vrecon gen` — generate a paper trace and write it out.
pub fn gen(args: &Args) -> Result<String, ArgError> {
    let level = parse_level(args.opt_or("level", "3"))?;
    let seed = args.opt_parse::<u64>("seed")?.unwrap_or(42);
    let scale = args.opt_parse::<f64>("scale")?;
    if let Some(scale) = scale.filter(|s| !(s.is_finite() && *s > 0.0)) {
        return Err(ArgError(format!(
            "--scale must be a positive finite number, got {scale}"
        )));
    }
    let mut rng = SimRng::seed_from(seed);
    let trace = match args.opt_or("group", "spec") {
        "spec" => spec_trace_scaled(level, &mut rng, scale.unwrap_or(SPEC_LIFETIME_SCALE)),
        "app" => app_trace_scaled(level, &mut rng, scale.unwrap_or(APP_LIFETIME_SCALE)),
        other => return Err(ArgError(format!("--group must be spec|app, got {other}"))),
    };
    let out_path = args
        .opt("out")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{}.vrt", trace.name.to_lowercase()));
    let file =
        File::create(&out_path).map_err(|e| ArgError(format!("cannot create {out_path}: {e}")))?;
    let mut w = BufWriter::new(file);
    write_trace(&trace, &mut w).map_err(|e| ArgError(format!("cannot write {out_path}: {e}")))?;
    w.flush().map_err(|e| ArgError(e.to_string()))?;
    Ok(format!(
        "wrote {} ({} jobs, window {:.0}s) to {out_path}",
        trace.name,
        trace.len(),
        trace.last_submission().as_secs_f64()
    ))
}

/// `vrecon inspect` — print a trace's statistics.
pub fn inspect(args: &Args) -> Result<String, ArgError> {
    let trace = load_trace(args.single_positional("trace file")?)?;
    let mut per_program: std::collections::BTreeMap<&str, (usize, f64, f64)> =
        std::collections::BTreeMap::new();
    for job in &trace.jobs {
        let entry = per_program
            .entry(job.name.as_str())
            .or_insert((0, 0.0, 0.0));
        entry.0 += 1;
        entry.1 += job.cpu_work.as_secs_f64();
        entry.2 += job.max_working_set().as_mb_f64();
    }
    let mut table = TextTable::new(vec![
        "program",
        "jobs",
        "mean cpu work (s)",
        "mean peak ws (MB)",
    ]);
    for (name, (count, work, ws)) in &per_program {
        table.row(vec![
            (*name).to_owned(),
            count.to_string(),
            fmt_f(work / *count as f64, 1),
            fmt_f(ws / *count as f64, 1),
        ]);
    }
    Ok(format!(
        "trace {}: {} jobs over {:.0}s, total CPU work {:.0}s\n\n{}",
        trace.name,
        trace.len(),
        trace.last_submission().as_secs_f64(),
        trace.total_cpu_work_secs(),
        table.render()
    ))
}

fn render_report(report: &RunReport, csv: bool) -> String {
    if csv {
        let mut table = TextTable::new(vec![
            "trace",
            "policy",
            "jobs",
            "avg_slowdown",
            "t_exe_s",
            "t_que_s",
            "t_page_s",
            "t_mig_s",
            "idle_mb",
            "skew",
            "reservations",
            "suspensions",
        ]);
        table.row(vec![
            report.trace_name.clone(),
            report.policy.to_string().replace(',', ";"),
            report.summary.jobs.to_string(),
            fmt_f(report.avg_slowdown(), 4),
            fmt_f(report.total_execution_secs(), 1),
            fmt_f(report.total_queue_secs(), 1),
            fmt_f(report.summary.totals.page, 1),
            fmt_f(report.summary.totals.migration, 1),
            fmt_f(report.avg_idle_memory_mb(), 1),
            fmt_f(report.avg_balance_skew(), 4),
            report.reservations.started.to_string(),
            report.counters.suspensions.to_string(),
        ]);
        table.render_csv()
    } else {
        let b = &report.summary.totals;
        let histogram =
            vr_simcore::histogram::slowdown_histogram(report.jobs.iter().map(|j| j.slowdown()));
        format!(
            "{}\nbreakdown: T_cpu {:.0}s  T_page {:.0}s  T_que {:.0}s  T_mig {:.0}s\n\
             median slowdown {:.2}, p95 {:.2}; {} blocked submissions, {} stale bounces\n\
             slowdown distribution:\n{}",
            report.brief(),
            b.cpu,
            b.page,
            b.queue,
            b.migration,
            report.summary.median_slowdown,
            report.summary.p95_slowdown,
            report.counters.blocked_submissions,
            report.counters.stale_rejections,
            histogram.render_ascii(40),
        )
    }
}

/// Renders an ASCII occupancy chart: one row per workstation, one column
/// per time bucket, cells showing the resident job count (' ' idle, digits,
/// '+' for 10+, capital letters never used so 'R' marks reserved periods).
fn render_gantt(report: &RunReport, nodes: usize, width: usize) -> String {
    use vr_analysis::timeline::{node_occupancy_timeline, reservation_timeline};
    let occupancy = node_occupancy_timeline(&report.events, nodes);
    if occupancy.is_empty() {
        return "(no occupancy events)".to_owned();
    }
    let end = report.finished_at.as_secs_f64().max(1.0);
    let bucket = end / width as f64;
    // Sample each node's count at bucket midpoints.
    let mut grid = vec![vec![0usize; width]; nodes];
    let mut idx = 0;
    for (b, row_time) in (0..width).map(|b| (b, (b as f64 + 0.5) * bucket)) {
        while idx + 1 < occupancy.len() && occupancy[idx + 1].0.as_secs_f64() <= row_time {
            idx += 1;
        }
        for (n, cell) in occupancy[idx].1.iter().enumerate() {
            grid[n][b] = *cell;
        }
    }
    // Reserved intervals per bucket (cluster-level count > 0 marked on a
    // separate footer row; per-node attribution would need node ids from
    // the reservation events, which we have).
    let mut reserved_row = vec![' '; width];
    let res = reservation_timeline(&report.events);
    let mut ridx = 0usize;
    let mut current = 0usize;
    for (b, row_time) in (0..width).map(|b| (b, (b as f64 + 0.5) * bucket)) {
        while ridx < res.len() && res[ridx].0.as_secs_f64() <= row_time {
            current = res[ridx].1;
            ridx += 1;
        }
        if current > 0 {
            reserved_row[b] = 'R';
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "occupancy over {:.0}s ({} buckets of {:.0}s):\n",
        end, width, bucket
    ));
    for (n, row) in grid.iter().enumerate() {
        out.push_str(&format!("node {n:>3} |"));
        for c in row {
            out.push(match c {
                0 => ' ',
                1..=9 => char::from_digit(*c as u32, 10).unwrap_or('+'),
                _ => '+',
            });
        }
        out.push_str("|\n");
    }
    out.push_str("reserved |");
    out.extend(reserved_row);
    out.push_str("|\n");
    out
}

/// Writes the canonical report encoding plus a trailing newline — the
/// exact bytes a `vrecon serve` response carries for the same scenario.
fn write_report_out(path: &str, report: &RunReport) -> Result<(), ArgError> {
    let mut text = encode_report(report);
    text.push('\n');
    std::fs::write(path, text).map_err(|e| ArgError(format!("cannot write {path}: {e}")))
}

/// The options a scenario spec already sets, which `run --spec` refuses.
const SPEC_SETS: &[&str] = &[
    "cluster",
    "nodes",
    "policy",
    "seed",
    "placement",
    "fault-plan",
    "max-sim-time",
    "netram",
    "audit",
];

/// `run --spec`'s inputs: a scenario-spec file (the serve wire format)
/// instead of a trace file. The spec carries its own cluster, policy,
/// seed, horizon and fault plan, and always runs with the auditor on, so
/// the `--report-out` bytes match a serve response for the same spec.
fn spec_inputs(args: &Args, path: &str) -> Result<(SimConfig, Trace), ArgError> {
    if !args.positional().is_empty() {
        return Err(ArgError(
            "give either a trace file or --spec, not both".to_owned(),
        ));
    }
    if let Some(name) = SPEC_SETS
        .iter()
        .find(|name| args.opt(name).is_some() || args.flag(name))
    {
        return Err(ArgError(format!(
            "--{name} cannot be combined with --spec, which sets it"
        )));
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let scenario = CheckScenario::parse(&text)
        .map_err(|e| ArgError(format!("{path} is not a valid scenario spec: {e}")))?;
    scenario
        .to_sim()
        .map_err(|e| ArgError(format!("{path}: {e}")))
}

/// `run`'s inputs from a trace file and the scenario options.
fn trace_inputs(args: &Args) -> Result<(SimConfig, Trace), ArgError> {
    let trace = load_trace(args.single_positional("trace file")?)?;
    let (policy, policy_params) = parse_policy(args.opt_or("policy", "vrecon"))?;
    let seed = args.opt_parse::<u64>("seed")?.unwrap_or(7);
    let mut config = SimConfig::new(parse_cluster(args)?, policy)
        .with_policy_params(policy_params)
        .with_seed(seed);
    if args.flag("netram") {
        config = config.with_network_ram();
    }
    if let Some(mode) = args.opt("placement") {
        config = config.with_placement(parse_placement(mode)?);
    }
    if let Some(path) = args.opt("fault-plan") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
        let plan = FaultPlan::parse(&text)
            .map_err(|e| ArgError(format!("{path} is not a valid fault plan: {e}")))?;
        config = config.with_faults(plan);
    }
    config = config.with_audit(args.flag("audit"));
    if let Some(horizon) = parse_max_sim_time(args)? {
        config = config.with_max_sim_time(horizon);
    }
    config
        .validate()
        .map_err(|e| ArgError(format!("invalid configuration: {e}")))?;
    Ok((config, trace))
}

/// `vrecon run` — replay a trace file (or, with `--spec`, a scenario
/// spec) under one policy, then write every output the options ask for.
pub fn run(args: &Args) -> Result<String, ArgError> {
    let (config, trace) = match args.opt("spec") {
        Some(path) => spec_inputs(args, path)?,
        None => trace_inputs(args)?,
    };
    let trace_format = args.opt_or("trace-format", "chrome");
    let export = trace_exporter(trace_format)?;
    let faulted = config.fault_plan.as_ref().is_some_and(|p| !p.is_empty());
    let audited = config.audit;
    let nodes = config.cluster.size();
    // events/sec needs a wall clock, which the deterministic crates refuse
    // to read, so the CLI times the simulation itself.
    let started = std::time::Instant::now();
    let report = Simulation::new(config).run(&trace);
    let wall_secs = started.elapsed().as_secs_f64();
    let mut out = render_report(&report, args.flag("csv"));
    let (trace_out, profile_out) = (args.opt("trace-out"), args.opt("profile-out"));
    if trace_out.is_some() || profile_out.is_some() {
        let data = report.trace();
        if let Some(path) = trace_out {
            std::fs::write(path, export(&data))
                .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
            out.push_str(&format!(
                "\ntrace: {} records, {} spans -> {path} ({trace_format})",
                data.records.len(),
                data.spans.len(),
            ));
        }
        if let Some(path) = profile_out {
            let mut text = data.profile.to_json(Some(wall_secs)).render();
            text.push('\n');
            std::fs::write(path, text)
                .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
            out.push_str(&format!("\nprofile -> {path}"));
        }
    }
    if let Some(out_path) = args.opt("report-out") {
        write_report_out(out_path, &report)?;
        out.push_str(&format!("\nreport -> {out_path}"));
    }
    if faulted {
        let c = &report.faults;
        out.push_str(&format!(
            "\nfaults: {} crashes ({} restarts), {} migration failures \
             ({} retries, {} abandoned), {} jobs re-queued, \
             {} lost load reports, {} stalled releases",
            c.crashes,
            c.restarts,
            c.migration_failures,
            c.migration_retries,
            c.migrations_abandoned,
            c.requeued_jobs,
            c.lost_load_reports,
            c.stalled_releases,
        ));
    }
    if audited {
        if report.audit_violations.is_empty() {
            out.push_str("\naudit: clean (no invariant violations)");
        } else {
            let mut listing = String::new();
            for v in &report.audit_violations {
                listing.push_str("\n  ");
                listing.push_str(v);
            }
            return Err(ArgError(format!(
                "audit found {} invariant violation(s):{listing}",
                report.audit_violations.len()
            )));
        }
    }
    if args.flag("gantt") {
        out.push_str("\n\n");
        out.push_str(&render_gantt(&report, nodes, 100));
    }
    if args.flag("log") {
        out.push_str("\n\nscheduler event log:\n");
        for event in report.events.entries() {
            out.push_str(&event.to_string());
            out.push('\n');
        }
    }
    if let Some(warning) = truncation_warning(&report) {
        // Loud on both streams: stderr so piped stdout doesn't hide it,
        // stdout so the flag lives next to the numbers it disqualifies.
        eprintln!("{warning}");
        out.push('\n');
        out.push_str(&warning);
    }
    Ok(out)
}

/// `--max-sim-time SECS` as a span, if given. The horizon is bounded like a
/// spec's `max-sim-time-s`, since the gauge series grow with it.
fn parse_max_sim_time(args: &Args) -> Result<Option<vr_simcore::time::SimSpan>, ArgError> {
    match args.opt_parse::<f64>("max-sim-time")? {
        Some(secs) if secs > 0.0 && secs <= MAX_SIM_TIME_S as f64 => {
            Ok(Some(vr_simcore::time::SimSpan::from_secs_f64(secs)))
        }
        Some(secs) => Err(ArgError(format!(
            "--max-sim-time must be positive and within the bound of {MAX_SIM_TIME_S} s, got {secs}"
        ))),
        None => Ok(None),
    }
}

/// The loud flag every report consumer must show for horizon-truncated
/// runs: without it, a truncated run's figures look like a drained run's.
fn truncation_warning(report: &RunReport) -> Option<String> {
    (!report.run_stats.drained).then(|| {
        format!(
            "WARNING: horizon-truncated run: stopped at max-sim-time ({:.0}s) with events \
             still queued after {} events ({} jobs unfinished) — measurements are truncated, \
             not converged",
            report.run_stats.final_time.as_secs_f64(),
            report.run_stats.events_processed,
            report.unfinished_jobs,
        )
    })
}

/// The exporter `--trace-format` names.
fn trace_exporter(format: &str) -> Result<fn(&vr_trace::TraceData) -> String, ArgError> {
    match format {
        "chrome" => Ok(vr_trace::chrome_trace),
        "jsonl" => Ok(vr_trace::jsonl),
        other => Err(ArgError(format!(
            "trace format must be chrome|jsonl, got {other}"
        ))),
    }
}

/// `vrecon compare` — G-Loadsharing vs V-Reconfiguration on one trace.
pub fn compare(args: &Args) -> Result<String, ArgError> {
    let trace = load_trace(args.single_positional("trace file")?)?;
    let cluster = parse_cluster(args)?;
    let seed = args.opt_parse::<u64>("seed")?.unwrap_or(7);
    let run_one = |policy| {
        Simulation::new(SimConfig::new(cluster.clone(), policy).with_seed(seed)).run(&trace)
    };
    let gls = run_one(PolicyKind::GLoadSharing);
    let vr = run_one(PolicyKind::VReconfiguration);
    let mut table = TextTable::new(vec![
        "metric",
        "G-Loadsharing",
        "V-Reconfiguration",
        "reduction",
    ]);
    let mut row = |name: &str, a: f64, b: f64, digits: usize| {
        let c = MetricComparison::new(a, b);
        table.row(vec![
            name.to_owned(),
            fmt_f(a, digits),
            fmt_f(b, digits),
            format!("{:.1}%", c.reduction()),
        ]);
    };
    row(
        "total execution time (s)",
        gls.total_execution_secs(),
        vr.total_execution_secs(),
        0,
    );
    row(
        "total queuing time (s)",
        gls.total_queue_secs(),
        vr.total_queue_secs(),
        0,
    );
    row(
        "total paging time (s)",
        gls.summary.totals.page,
        vr.summary.totals.page,
        0,
    );
    row("average slowdown", gls.avg_slowdown(), vr.avg_slowdown(), 2);
    row(
        "avg idle memory (MB)",
        gls.avg_idle_memory_mb(),
        vr.avg_idle_memory_mb(),
        0,
    );
    row(
        "avg balance skew",
        gls.avg_balance_skew(),
        vr.avg_balance_skew(),
        3,
    );
    Ok(format!(
        "{}\nreconfigurations: {} reservations, {} jobs served",
        table.render(),
        vr.reservations.started,
        vr.reservations.jobs_served
    ))
}

/// `vrecon fuzz` — differential fuzzing of engine vs oracle vs auditor.
///
/// Succeeds (summary on stdout) when every scenario agrees; on divergence
/// the shrunk reproducers are written under `--failures-dir` and the
/// command fails with the summary.
pub fn fuzz(args: &Args) -> Result<String, ArgError> {
    let opts = FuzzOptions {
        iters: args.opt_parse::<u64>("iters")?.unwrap_or(100),
        seed: args.opt_parse::<u64>("seed")?.unwrap_or(1),
        jobs: args.opt_parse::<usize>("jobs")?.unwrap_or(0),
        skew: if args.flag("broken-oracle") {
            OracleSkew::CompletionOffByOne
        } else {
            OracleSkew::None
        },
    };
    let failures_dir = args.opt_or("failures-dir", "fuzz-failures");
    let outcome = run_fuzz(&opts);
    let mut output = outcome.summary();
    if !outcome.failures.is_empty() {
        std::fs::create_dir_all(failures_dir)
            .map_err(|e| ArgError(format!("cannot create {failures_dir}: {e}")))?;
        for failure in &outcome.failures {
            let path = format!(
                "{failures_dir}/fuzz-{}-{}.txt",
                opts.seed, failure.iteration
            );
            let mut text = failure.scenario.render();
            text.push_str("# divergence:\n");
            for line in failure.detail.lines() {
                text.push_str("#   ");
                text.push_str(line);
                text.push('\n');
            }
            std::fs::write(&path, text)
                .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
            output.push_str(&format!("  wrote {path}\n"));
        }
    }
    if outcome.is_clean() {
        Ok(output)
    } else {
        Err(ArgError(output))
    }
}

/// Builds a [`ServeConfig`] from CLI flags. Separate from [`serve`]
/// itself so the mapping is testable — `serve` never returns.
fn serve_config(args: &Args) -> Result<ServeConfig, ArgError> {
    if args.flag("no-cache") && args.opt("cache-dir").is_some() {
        return Err(ArgError(
            "--no-cache and --cache-dir are mutually exclusive".to_owned(),
        ));
    }
    let mut config = ServeConfig {
        addr: args.opt_or("addr", "127.0.0.1:7071").to_owned(),
        jobs: args.opt_parse::<usize>("jobs")?.unwrap_or(0),
        cache_dir: if args.flag("no-cache") {
            None
        } else {
            Some(
                args.opt("cache-dir")
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(vr_runner::default_cache_dir),
            )
        },
        ..ServeConfig::default()
    };
    if let Some(n) = args.opt_parse::<usize>("max-inflight")? {
        if n == 0 {
            return Err(ArgError("--max-inflight must be positive".to_owned()));
        }
        config.max_inflight = n;
    }
    if let Some(n) = args.opt_parse::<usize>("hot-cap")? {
        config.hot_cap = n;
    }
    if let Some(ms) = args.opt_parse::<u64>("read-timeout-ms")? {
        if ms == 0 {
            return Err(ArgError("--read-timeout-ms must be positive".to_owned()));
        }
        config.read_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(n) = args.opt_parse::<usize>("max-conns")? {
        if n == 0 {
            return Err(ArgError("--max-conns must be positive".to_owned()));
        }
        config.max_conns = n;
    }
    if let Some(path) = args.opt("request-log") {
        let log = JsonlRequestLog::create(std::path::Path::new(path))
            .map_err(|e| ArgError(format!("cannot open {path}: {e}")))?;
        config.hook = Arc::new(log);
    }
    Ok(config)
}

/// `vrecon serve` — what-if scheduling as an HTTP service over the
/// result cache. Prints the bound address, then serves until killed.
pub fn serve(args: &Args) -> Result<String, ArgError> {
    let config = serve_config(args)?;
    let cache_note = match &config.cache_dir {
        Some(dir) => format!("cache {}", dir.display()),
        None => "cache disabled".to_owned(),
    };
    let handle =
        vr_serve::start(config).map_err(|e| ArgError(format!("cannot start server: {e}")))?;
    // Scripts wait for this line before sending requests, so it must hit
    // stdout now, not when the (never-returning) command completes.
    println!(
        "vrecon serve listening on http://{} ({cache_note})",
        handle.addr()
    );
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `vrecon spec` — render one fuzzer-generated scenario spec: the wire
/// format `serve` accepts and `run --spec` replays.
pub fn spec(args: &Args) -> Result<String, ArgError> {
    let seed = args.opt_parse::<u64>("seed")?.unwrap_or(42);
    let iter = args.opt_parse::<u64>("iter")?.unwrap_or(0);
    let scenario = generate(seed, iter);
    let text = scenario.render();
    match args.opt("out") {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
            Ok(format!(
                "wrote scenario spec (seed {seed}, iter {iter}, {} nodes, {} jobs) to {path}",
                scenario.nodes.len(),
                scenario.jobs.len()
            ))
        }
        None => Ok(text.trim_end().to_owned()),
    }
}

/// A subcommand: its handler and every option and flag the handler reads.
struct Command {
    name: &'static str,
    run: fn(&Args) -> Result<String, ArgError>,
    /// Options that take a value.
    options: &'static [&'static str],
    /// Valueless flags.
    flags: &'static [&'static str],
}

/// One row per subcommand. [`dispatch`] refuses any `--name` outside the
/// subcommand's row before its handler does any work.
const COMMANDS: &[Command] = &[
    Command {
        name: "gen",
        run: gen,
        options: &["group", "level", "seed", "scale", "out"],
        flags: &[],
    },
    Command {
        name: "inspect",
        run: inspect,
        options: &[],
        flags: &[],
    },
    Command {
        name: "run",
        run,
        options: &[
            "cluster",
            "nodes",
            "policy",
            "seed",
            "placement",
            "fault-plan",
            "max-sim-time",
            "trace-out",
            "trace-format",
            "profile-out",
            "spec",
            "report-out",
        ],
        flags: &["netram", "csv", "log", "gantt", "audit"],
    },
    Command {
        name: "compare",
        run: compare,
        options: &["cluster", "nodes", "seed"],
        flags: &[],
    },
    Command {
        name: "fuzz",
        run: fuzz,
        options: &["iters", "seed", "jobs", "failures-dir"],
        flags: &["broken-oracle"],
    },
    Command {
        name: "serve",
        run: serve,
        options: &[
            "addr",
            "jobs",
            "cache-dir",
            "max-inflight",
            "hot-cap",
            "read-timeout-ms",
            "max-conns",
            "request-log",
        ],
        flags: &["no-cache"],
    },
    Command {
        name: "spec",
        run: spec,
        options: &["seed", "iter", "out"],
        flags: &[],
    },
];

/// Every valueless flag some subcommand reads, plus `help`: the names
/// [`Args::parse`] must not take a value for.
pub fn flags() -> Vec<&'static str> {
    let mut flags: Vec<&str> = COMMANDS.iter().flat_map(|c| c.flags).copied().collect();
    flags.push("help");
    flags.sort_unstable();
    flags.dedup();
    flags
}

/// Dispatches a subcommand, after checking that it reads every option and
/// flag given.
pub fn dispatch(subcommand: &str, args: &Args) -> Result<String, ArgError> {
    let command = COMMANDS
        .iter()
        .find(|c| c.name == subcommand)
        .ok_or_else(|| ArgError(format!("unknown subcommand {subcommand}\n\n{USAGE}")))?;
    if let Some(name) = args.first_unknown(command.options, command.flags) {
        return Err(ArgError(format!(
            "vrecon {subcommand} does not take --{name}"
        )));
    }
    (command.run)(args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_cluster::units::Bytes;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().copied(), &flags()).unwrap()
    }

    #[test]
    fn fuzz_subcommand_is_clean_and_deterministic() {
        let one = dispatch(
            "fuzz",
            &args(&["--iters", "3", "--seed", "1", "--jobs", "1"]),
        )
        .unwrap();
        let four = dispatch(
            "fuzz",
            &args(&["--iters", "3", "--seed", "1", "--jobs", "4"]),
        )
        .unwrap();
        assert_eq!(one, four);
        assert!(one.contains("divergences=0"), "{one}");
    }

    #[test]
    fn fuzz_broken_oracle_fails_and_writes_reproducers() {
        let dir = std::env::temp_dir().join(format!("vrecon-cli-fuzz-{}", std::process::id()));
        let dir_str = dir.to_str().unwrap();
        let err = dispatch(
            "fuzz",
            &args(&[
                "--iters",
                "2",
                "--seed",
                "1",
                "--jobs",
                "2",
                "--failures-dir",
                dir_str,
                "--broken-oracle",
            ]),
        )
        .unwrap_err();
        assert!(err.0.contains("divergences="), "{err}");
        assert!(!err.0.contains("divergences=0"), "{err}");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(!written.is_empty(), "no reproducer files written");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn level_and_policy_parsing() {
        assert_eq!(parse_level("1").unwrap(), TraceLevel::Light);
        assert_eq!(parse_level("5").unwrap(), TraceLevel::HighlyIntensive);
        assert!(parse_level("6").is_err());
        assert_eq!(
            parse_policy("vrecon").unwrap(),
            (PolicyKind::VReconfiguration, ParamBag::new())
        );
        assert_eq!(
            parse_policy("suspend").unwrap(),
            (PolicyKind::SuspendLargest, ParamBag::new())
        );
        assert!(parse_policy("magic").is_err());
        // Registry names work alongside the historical short names, with an
        // optional parameter bag after a colon.
        assert_eq!(
            parse_policy("g-loadsharing").unwrap(),
            (PolicyKind::GLoadSharing, ParamBag::new())
        );
        assert_eq!(
            parse_policy("malleable:max_step=2").unwrap(),
            (
                PolicyKind::Malleable,
                ParamBag::new().with("max_step", 2u32)
            )
        );
        assert_eq!(
            parse_policy("fractional:oversub=1.5").unwrap(),
            (PolicyKind::Fractional, ParamBag::new().with("oversub", 1.5))
        );
        // Unknown knobs are rejected at the flag, naming the offender.
        let err = parse_policy("gls:max_step=2").unwrap_err();
        assert!(err.0.contains("max_step"), "{}", err.0);
        assert!(parse_policy("malleable:max_step").is_err());
    }

    /// The registry is the one table naming a family: every row's three
    /// spellings resolve to its kind, and every kind survives the places a
    /// name is written and read back — the `--policy` flag, the encoded
    /// report, and the spec wire format.
    #[test]
    fn every_policy_spelling_round_trips() {
        let mut scenario = CheckScenario::parse(
            "policy gls\nnode user_mb=64 slots=2\njob submit_us=0 cpu_work_us=1000000 ws_mb=8",
        )
        .unwrap();
        let (config, trace) = scenario.to_sim().unwrap();
        let mut report = Simulation::new(config).run(&trace);
        for row in registry() {
            for spelling in [row.name, row.token, row.display] {
                assert_eq!(kind_of(spelling), Some(row.kind), "{spelling}");
                assert_eq!(
                    parse_policy(spelling).unwrap(),
                    (row.kind, ParamBag::new()),
                    "--policy {spelling}"
                );
            }
            report.policy = row.kind;
            let decoded = vrecon::decode_report(&encode_report(&report)).unwrap();
            assert_eq!(decoded, report, "{}", row.name);
            scenario.policy = row.kind;
            assert_eq!(CheckScenario::parse(&scenario.render()).unwrap(), scenario);
        }
    }

    #[test]
    fn cluster_parsing_with_truncation_and_growth() {
        let c = parse_cluster(&args(&["--cluster", "cluster1", "--nodes", "4"])).unwrap();
        assert_eq!(c.size(), 4);
        assert_eq!(c.nodes[0].memory.user, Bytes::from_mb(384));
        assert!(parse_cluster(&args(&["--cluster", "weird"])).is_err());
        assert!(parse_cluster(&args(&["--nodes", "0"])).is_err());
        // Growth past the paper's 32 workstations repeats the node list
        // cyclically, so a heterogeneous cluster keeps its mix at any size.
        let base = parse_cluster(&args(&["--cluster", "cluster2"])).unwrap();
        let big = parse_cluster(&args(&["--cluster", "cluster2", "--nodes", "999"])).unwrap();
        assert_eq!(big.size(), 999);
        for (i, node) in big.nodes.iter().enumerate() {
            assert_eq!(node.memory.user, base.nodes[i % base.size()].memory.user);
        }
    }

    #[test]
    fn gen_inspect_run_compare_round_trip() {
        let dir = std::env::temp_dir().join(format!("vrecon-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.vrt");
        let path_str = path.to_str().unwrap();
        // gen (small synthetic via app group level 1 but scaled tiny for speed)
        let msg = gen(&args(&[
            "--group", "app", "--level", "1", "--scale", "0.02", "--out", path_str,
        ]))
        .unwrap();
        assert!(msg.contains("App-Trace-1"), "{msg}");
        let msg = inspect(&args(&[path_str])).unwrap();
        assert!(msg.contains("359 jobs"), "{msg}");
        let msg = run(&args(&[
            path_str, "--policy", "gls", "--nodes", "8", "--csv",
        ]))
        .unwrap();
        assert!(msg.contains("avg_slowdown"), "{msg}");
        let msg = compare(&args(&[path_str, "--nodes", "8"])).unwrap();
        assert!(msg.contains("average slowdown"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_with_fault_plan_and_audit() {
        let dir = std::env::temp_dir().join(format!("vrecon-cli-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.vrt");
        let trace_str = trace_path.to_str().unwrap();
        gen(&args(&[
            "--group", "app", "--level", "1", "--scale", "0.02", "--out", trace_str,
        ]))
        .unwrap();
        let plan_path = dir.join("plan.txt");
        std::fs::write(
            &plan_path,
            "# one crash plus flaky migrations\ncrash node=1 at=50 restart_after=30\nmigration-failure p=0.3\n",
        )
        .unwrap();
        let plan_str = plan_path.to_str().unwrap();
        let msg = run(&args(&[
            trace_str,
            "--policy",
            "vrecon",
            "--nodes",
            "8",
            "--fault-plan",
            plan_str,
            "--audit",
        ]))
        .unwrap();
        assert!(msg.contains("faults: 1 crashes (1 restarts)"), "{msg}");
        assert!(msg.contains("audit: clean"), "{msg}");
        // A bogus plan is rejected with a parse diagnostic.
        std::fs::write(&plan_path, "crash node=x at=50\n").unwrap();
        let err = run(&args(&[trace_str, "--fault-plan", plan_str])).unwrap_err();
        assert!(err.0.contains("not a valid fault plan"), "{}", err.0);
        // A plan crashing a node outside the cluster fails validation.
        std::fs::write(&plan_path, "crash node=99 at=50\n").unwrap();
        let err = run(&args(&[
            trace_str,
            "--nodes",
            "8",
            "--fault-plan",
            plan_str,
        ]))
        .unwrap_err();
        assert!(err.0.contains("invalid configuration"), "{}", err.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_runs_warn_loudly() {
        let dir = std::env::temp_dir().join(format!("vrecon-cli-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.vrt");
        let path_str = path.to_str().unwrap();
        gen(&args(&[
            "--group", "app", "--level", "1", "--scale", "0.02", "--out", path_str,
        ]))
        .unwrap();
        // A 1-second horizon cannot drain this trace: the warning fires.
        let msg = run(&args(&[
            path_str,
            "--policy",
            "gls",
            "--nodes",
            "8",
            "--max-sim-time",
            "1",
        ]))
        .unwrap();
        assert!(
            msg.contains("WARNING: horizon-truncated run"),
            "missing warning: {msg}"
        );
        // A drained run stays clean.
        let msg = run(&args(&[path_str, "--policy", "gls", "--nodes", "8"])).unwrap();
        assert!(!msg.contains("WARNING"), "unexpected warning: {msg}");
        for bad in ["0", "inf", "NaN", "1000001"] {
            let err = run(&args(&[path_str, "--max-sim-time", bad])).unwrap_err();
            assert!(
                err.0.contains("within the bound of 1000000 s"),
                "{bad}: {}",
                err.0
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_trace_and_profile_out_are_deterministic_and_parseable() {
        let dir = std::env::temp_dir().join(format!("vrecon-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.vrt");
        let path_str = path.to_str().unwrap();
        gen(&args(&[
            "--group", "app", "--level", "1", "--scale", "0.02", "--out", path_str,
        ]))
        .unwrap();
        let chrome = dir.join("t.json");
        let chrome_str = chrome.to_str().unwrap();
        let profile = dir.join("p.json");
        let profile_str = profile.to_str().unwrap();
        let base = [
            path_str,
            "--nodes",
            "8",
            "--trace-out",
            chrome_str,
            "--profile-out",
            profile_str,
        ];
        let msg = run(&args(&base)).unwrap();
        assert!(msg.contains("spans ->"), "{msg}");
        assert!(msg.contains("profile ->"), "{msg}");
        let first = std::fs::read(&chrome).unwrap();
        let doc = vr_simcore::jsonio::Json::parse(std::str::from_utf8(&first).unwrap()).unwrap();
        assert!(
            doc.get("traceEvents")
                .and_then(vr_simcore::jsonio::Json::as_arr)
                .is_some_and(|events| !events.is_empty()),
            "chrome trace has events"
        );
        let prof =
            vr_simcore::jsonio::Json::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
        assert!(prof.get("events_per_sec").is_some(), "profile has rate");
        // Byte-identity across reruns (the determinism contract).
        run(&args(&base)).unwrap();
        assert_eq!(first, std::fs::read(&chrome).unwrap());
        // JSONL export: a header line, then every line parses.
        let jsonl_path = dir.join("t.jsonl");
        let jsonl_str = jsonl_path.to_str().unwrap();
        run(&args(&[
            path_str,
            "--nodes",
            "8",
            "--trace-out",
            jsonl_str,
            "--trace-format",
            "jsonl",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&jsonl_path).unwrap();
        assert!(text.lines().count() > 1);
        let header = vr_simcore::jsonio::Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(
            header
                .get("kind")
                .and_then(vr_simcore::jsonio::Json::as_str),
            Some("vr-trace")
        );
        for line in text.lines() {
            vr_simcore::jsonio::Json::parse(line).unwrap();
        }
        let err = run(&args(&[
            path_str,
            "--trace-out",
            jsonl_str,
            "--trace-format",
            "yaml",
        ]))
        .unwrap_err();
        assert!(err.0.contains("chrome|jsonl"), "{}", err.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_refuses_a_scale_that_is_not_positive_and_finite() {
        for scale in ["0", "-1", "NaN", "inf"] {
            let err = gen(&args(&["--group", "app", "--scale", scale])).unwrap_err();
            assert!(err.0.contains("--scale must be"), "{scale}: {}", err.0);
        }
    }

    #[test]
    fn dispatch_rejects_unknown() {
        for name in ["frobnicate", "loadgen", "sweep", "trace", "analyze"] {
            let err = dispatch(name, &args(&[])).unwrap_err();
            assert!(err.0.contains("unknown subcommand"), "{}", err.0);
        }
        let err = dispatch("spec", &args(&["--seed", "7", "--bogus", "1"])).unwrap_err();
        assert_eq!(err.0, "vrecon spec does not take --bogus");
        // A flag another subcommand reads is still unknown here.
        let err = dispatch("gen", &args(&["--audit"])).unwrap_err();
        assert_eq!(err.0, "vrecon gen does not take --audit");
    }

    /// Every option and flag a subcommand's `USAGE` lines show is in its
    /// row of the command table, so `dispatch` accepts what the help
    /// text offers.
    #[test]
    fn usage_lines_offer_only_tabled_options() {
        let synopsis = USAGE
            .split("USAGE:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .unwrap();
        let mut command: Option<&Command> = None;
        let mut seen = 0;
        for line in synopsis.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("vrecon ") {
                let name = rest.split_whitespace().next().unwrap();
                command = COMMANDS.iter().find(|c| c.name == name);
                assert!(command.is_some(), "USAGE shows unknown subcommand {name}");
                seen += 1;
            }
            let command = command.unwrap();
            for word in line.split("--").skip(1) {
                let name: String = word
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                assert!(
                    command.options.contains(&name.as_str())
                        || command.flags.contains(&name.as_str()),
                    "USAGE offers --{name} for `vrecon {}`, which its table lacks",
                    command.name
                );
            }
        }
        assert_eq!(
            seen,
            COMMANDS.len(),
            "USAGE and the command table list different subcommands"
        );
    }

    #[test]
    fn run_reports_missing_file() {
        let err = run(&args(&["/nonexistent/trace.vrt"])).unwrap_err();
        assert!(err.0.contains("cannot open"));
    }

    #[test]
    fn spec_output_round_trips_through_the_parser() {
        let rendered = dispatch("spec", &args(&["--seed", "7", "--iter", "3"])).unwrap();
        let parsed = CheckScenario::parse(&rendered).unwrap();
        assert_eq!(parsed, generate(7, 3));
    }

    #[test]
    fn run_spec_matches_the_serve_bytes_and_refuses_what_the_spec_sets() {
        let dir = std::env::temp_dir().join(format!("vrecon-cli-spec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("s.txt");
        let spec_str = spec_path.to_str().unwrap();
        let msg = spec(&args(&["--seed", "7", "--iter", "3", "--out", spec_str])).unwrap();
        assert!(msg.contains("wrote scenario spec"), "{msg}");
        let report_path = dir.join("r.json");
        let report_str = report_path.to_str().unwrap();
        let msg = run(&args(&["--spec", spec_str, "--report-out", report_str])).unwrap();
        assert!(msg.contains("audit: clean"), "{msg}");
        // The written bytes are exactly what a serve response body would
        // carry for the same spec: canonical encoding plus newline.
        let scenario = generate(7, 3);
        let (config, trace) = scenario.to_sim().unwrap();
        let report = Simulation::new(config).run(&trace);
        let want = format!("{}\n", encode_report(&report));
        assert_eq!(std::fs::read_to_string(&report_path).unwrap(), want);
        // --spec and a positional trace file are mutually exclusive, and
        // so are --spec and every setting the spec carries.
        let err = run(&args(&["t.vrt", "--spec", spec_str])).unwrap_err();
        assert!(err.0.contains("not both"), "{}", err.0);
        for (option, value) in [
            ("cluster", Some("cluster1")),
            ("nodes", Some("2")),
            ("policy", Some("gls")),
            ("seed", Some("99")),
            ("placement", Some("commit-aware")),
            ("fault-plan", Some("/nonexistent")),
            ("max-sim-time", Some("1")),
            ("netram", None),
            ("audit", None),
        ] {
            let flag = format!("--{option}");
            let mut tokens = vec!["--spec", spec_str, flag.as_str()];
            tokens.extend(value);
            let err = run(&args(&tokens)).unwrap_err();
            assert_eq!(
                err.0,
                format!("{flag} cannot be combined with --spec, which sets it")
            );
        }
        // Output options apply to a spec as to a trace file, and leave the
        // report bytes as they are.
        let trace_path = dir.join("t.json");
        let msg = run(&args(&[
            "--spec",
            spec_str,
            "--gantt",
            "--log",
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--report-out",
            report_str,
        ]))
        .unwrap();
        assert!(msg.contains("occupancy over"), "{msg}");
        assert!(msg.contains("scheduler event log:"), "{msg}");
        assert!(!std::fs::read(&trace_path).unwrap().is_empty());
        assert_eq!(std::fs::read_to_string(&report_path).unwrap(), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_config_maps_flags_and_rejects_contradictions() {
        let config = serve_config(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "3",
            "--cache-dir",
            "/tmp/vr-serve-flag-test",
            "--max-inflight",
            "2",
            "--hot-cap",
            "9",
            "--read-timeout-ms",
            "250",
            "--max-conns",
            "5",
        ]))
        .unwrap();
        assert_eq!(config.addr, "127.0.0.1:0");
        assert_eq!(config.jobs, 3);
        assert_eq!(
            config.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/vr-serve-flag-test"))
        );
        assert_eq!(config.max_inflight, 2);
        assert_eq!(config.hot_cap, 9);
        assert_eq!(config.read_timeout, std::time::Duration::from_millis(250));
        assert_eq!(config.max_conns, 5);
        let disabled = serve_config(&args(&["--no-cache"])).unwrap();
        assert!(disabled.cache_dir.is_none());
        assert!(serve_config(&args(&["--no-cache", "--cache-dir", "x"])).is_err());
        assert!(serve_config(&args(&["--max-inflight", "0"])).is_err());
    }
}
