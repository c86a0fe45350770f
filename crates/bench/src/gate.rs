//! The bench gate behind `engine_bench` (`BENCH_engine.json`) and
//! `scale_bench` (`BENCH_scale.json`).
//!
//! Each binary lists its rows — one `(SimConfig, Trace)` scenario per row —
//! and hands them to [`run`] with its repetition count, tolerance and
//! default output path. A row is named `"<trace> <policy>"` and measured
//! as the best of `reps` untraced runs. Its exact fields (engine events,
//! completed jobs, blocking detections and the per-kind record counts of
//! the event log) come from the report; only `wall_secs` and
//! `events_per_sec` come from the clock.
//!
//! * `--out FILE` writes the record (a committed baseline);
//! * `--check FILE` measures again and compares row by row, by name. A
//!   missing or extra row, any integer field that differs, or
//!   `events_per_sec` below `baseline × (1 − tolerance)` is a violation,
//!   and the binary exits 1. A baseline that cannot be read, is not JSON
//!   or has no rows exits 2 before anything is measured.
//!
//! With neither option the record is written to the default path.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::time::Instant;

use vr_simcore::jsonio::Json;
use vr_workload::trace::Trace;
use vrecon::config::SimConfig;
use vrecon::report::RunReport;
use vrecon::sim::Simulation;

/// Schema version of the record.
const SCHEMA: u64 = 2;

/// The row fields measured by the clock; every other integer field is
/// compared exactly.
const TIMING_FIELDS: [&str; 2] = ["wall_secs", "events_per_sec"];

/// One measured row of the record.
#[derive(Debug, Clone)]
struct Row {
    /// `"<trace> <policy>"`, the key rows are matched by.
    name: String,
    /// Engine events processed (`run_stats.events_processed`).
    engine_events: u64,
    /// Jobs that completed before the horizon.
    completed: u64,
    /// Blocking detections of the scheduler.
    blocking_detections: u64,
    /// Event-log records by kind.
    kinds: BTreeMap<&'static str, u64>,
    /// Best wall time over the timed runs.
    wall_secs: f64,
    /// `engine_events / wall_secs`.
    events_per_sec: f64,
}

impl Row {
    fn of(report: &RunReport, wall_secs: f64) -> Row {
        let engine_events = report.run_stats.events_processed;
        Row {
            name: format!("{} {}", report.trace_name, report.policy),
            engine_events,
            completed: (report.summary.jobs - report.unfinished_jobs) as u64,
            blocking_detections: report.counters.blocking_detections,
            kinds: report.events.kind_counts(),
            wall_secs,
            events_per_sec: if wall_secs > 0.0 {
                engine_events as f64 / wall_secs
            } else {
                0.0
            },
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("engine_events", Json::U64(self.engine_events)),
            ("completed", Json::U64(self.completed)),
            ("blocking_detections", Json::U64(self.blocking_detections)),
            (
                "kinds",
                Json::obj(self.kinds.iter().map(|(k, v)| (*k, Json::U64(*v)))),
            ),
            ("wall_secs", Json::f64(self.wall_secs)),
            ("events_per_sec", Json::f64(self.events_per_sec)),
        ])
    }
}

/// Measures one row: the shortest wall time of `reps` (at least one)
/// untraced runs, and the exact fields of the run's report.
fn measure(config: SimConfig, trace: &Trace, reps: usize) -> Row {
    let sim = Simulation::new(config);
    let timed = || {
        let started = Instant::now();
        let report = sim.run(trace);
        (report, started.elapsed().as_secs_f64())
    };
    let (report, mut wall_secs) = timed();
    for _ in 1..reps {
        wall_secs = wall_secs.min(timed().1);
    }
    Row::of(&report, wall_secs)
}

/// The record for `rows`, as written by `--out`.
fn record(rows: &[Row]) -> String {
    let doc = Json::obj([
        ("schema", Json::U64(SCHEMA)),
        ("rows", Json::Arr(rows.iter().map(Row::to_json).collect())),
    ]);
    let mut text = doc.render();
    text.push('\n');
    text
}

/// Parses a baseline record into its rows.
///
/// # Errors
///
/// The text is not JSON, has no non-empty `rows` array, or a row lacks a
/// `name` or an `events_per_sec`.
fn baseline_rows(text: &str) -> Result<Vec<Json>, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let rows = match doc.get("rows").and_then(Json::as_arr) {
        Some(rows) if !rows.is_empty() => rows.to_vec(),
        _ => return Err("has no rows".to_owned()),
    };
    if rows.iter().any(|row| {
        row.get("name").and_then(Json::as_str).is_none()
            || row.get("events_per_sec").and_then(Json::as_f64).is_none()
    }) {
        return Err("has a row without a name or an events_per_sec".to_owned());
    }
    Ok(rows)
}

/// Every integer field of `doc` outside [`TIMING_FIELDS`], by dotted path
/// (`kinds.blocked`).
fn exact_fields(prefix: &str, doc: &Json, out: &mut BTreeMap<String, u64>) {
    let Json::Obj(fields) = doc else { return };
    for (key, value) in fields {
        if TIMING_FIELDS.contains(&key.as_str()) {
            continue;
        }
        let path = if prefix.is_empty() {
            key.clone()
        } else {
            format!("{prefix}.{key}")
        };
        match value {
            Json::U64(n) => {
                out.insert(path, *n);
            }
            Json::Obj(_) => exact_fields(&path, value, out),
            _ => {}
        }
    }
}

fn name_of(row: &Json) -> &str {
    row.get("name").and_then(Json::as_str).unwrap_or("")
}

/// Compares measured rows against baseline rows, returning every violation
/// (empty: the gate passes).
fn violations(baseline: &[Json], measured: &[Row], tolerance: f64) -> Vec<String> {
    let mut problems: Vec<String> = baseline
        .iter()
        .map(name_of)
        .filter(|name| measured.iter().all(|row| row.name != *name))
        .map(|name| format!("{name}: in the baseline but not measured"))
        .collect();
    for row in measured {
        let Some(base) = baseline.iter().find(|&b| name_of(b) == row.name) else {
            problems.push(format!("{}: measured but not in the baseline", row.name));
            continue;
        };
        let (mut want, mut got) = (BTreeMap::new(), BTreeMap::new());
        exact_fields("", base, &mut want);
        exact_fields("", &row.to_json(), &mut got);
        let fields: BTreeSet<&String> = want.keys().chain(got.keys()).collect();
        for field in fields {
            let (b, m) = (want.get(field), got.get(field));
            if b != m {
                let show = |v: Option<&u64>| v.map_or("none".to_owned(), u64::to_string);
                problems.push(format!(
                    "{}: {field}: baseline {}, measured {}",
                    row.name,
                    show(b),
                    show(m)
                ));
            }
        }
        let rate = base
            .get("events_per_sec")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let floor = rate * (1.0 - tolerance);
        if row.events_per_sec < floor {
            problems.push(format!(
                "{}: events_per_sec: measured {:.0}, below the floor {floor:.0} \
                 (baseline {rate:.0}, tolerance {:.0}%)",
                row.name,
                row.events_per_sec,
                tolerance * 100.0
            ));
        }
    }
    problems
}

/// `--out FILE` and `--check FILE`; `--out default_out` when neither is
/// given.
fn parse_args(default_out: &str) -> Result<(Option<String>, Option<String>), String> {
    let (mut out, mut check) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--out" => &mut out,
            "--check" => &mut check,
            other => {
                return Err(format!(
                    "unknown argument {other}; supported: --out FILE, --check FILE"
                ))
            }
        };
        *slot = Some(
            args.next()
                .ok_or_else(|| format!("{arg} requires a file"))?,
        );
    }
    if out.is_none() && check.is_none() {
        out = Some(default_out.to_owned());
    }
    Ok((out, check))
}

/// Measures `rows`, then writes and/or checks the record. `Ok` holds the
/// violations; `Err` a usage or baseline error.
fn gate(
    rows: impl IntoIterator<Item = (SimConfig, Trace)>,
    reps: usize,
    tolerance: f64,
    default_out: &str,
) -> Result<Vec<String>, String> {
    let (out, check) = parse_args(default_out)?;
    // Read the baseline before measuring, so a bad path fails fast.
    let baseline = match &check {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            Some(baseline_rows(&text).map_err(|e| format!("baseline {path}: {e}"))?)
        }
        None => None,
    };
    let measured: Vec<Row> = rows
        .into_iter()
        .map(|(config, trace)| {
            let row = measure(config, &trace, reps);
            eprintln!(
                "{}: {} events in {:.3}s = {:.0} events/sec, {} completed, \
                 {} blocking detections",
                row.name,
                row.engine_events,
                row.wall_secs,
                row.events_per_sec,
                row.completed,
                row.blocking_detections
            );
            row
        })
        .collect();
    if let Some(path) = &out {
        std::fs::write(path, record(&measured)).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    let (Some(path), Some(baseline)) = (&check, baseline) else {
        return Ok(Vec::new());
    };
    let problems = violations(&baseline, &measured, tolerance);
    if problems.is_empty() {
        println!(
            "bench gate passed: {} rows within {:.0}% of {path}",
            measured.len(),
            tolerance * 100.0
        );
    }
    Ok(problems)
}

/// The `main` of a gate binary: measures `rows` with `reps` timed runs
/// each, then writes and/or checks the record. Exits 1 on a violation and
/// 2 on a usage or baseline error.
pub fn run(
    rows: impl IntoIterator<Item = (SimConfig, Trace)>,
    reps: usize,
    tolerance: f64,
    default_out: &str,
) -> ExitCode {
    match gate(rows, reps, tolerance, default_out) {
        Ok(problems) if problems.is_empty() => ExitCode::SUCCESS,
        Ok(problems) => {
            for p in &problems {
                eprintln!("bench gate: {p}");
            }
            eprintln!("bench gate FAILED: {} violation(s)", problems.len());
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use vr_simcore::rng::SimRng;
    use vr_workload::scale::ScaleSpec;
    use vrecon::config::PlacementMode;
    use vrecon::policy::PolicyKind;

    use super::*;

    fn row(name: &str) -> Row {
        Row {
            name: name.to_owned(),
            engine_events: 1_000,
            completed: 10,
            blocking_detections: 2,
            kinds: BTreeMap::from([("blocked", 5), ("completed", 10)]),
            wall_secs: 1.0,
            events_per_sec: 1_000.0,
        }
    }

    /// `rows` written and read back as a baseline.
    fn baseline(rows: &[Row]) -> Vec<Json> {
        baseline_rows(&record(rows)).unwrap()
    }

    #[test]
    fn identical_records_pass() {
        let rows = [row("A V-Reconfiguration"), row("B Malleable")];
        assert_eq!(
            violations(&baseline(&rows), &rows, 0.1),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_changed_exact_field_fails_naming_the_row_and_the_field() {
        let base = baseline(&[row("A V-Reconfiguration")]);
        let (mut kinds, mut events, mut completed) = (
            row("A V-Reconfiguration"),
            row("A V-Reconfiguration"),
            row("A V-Reconfiguration"),
        );
        *kinds.kinds.get_mut("blocked").unwrap() += 1;
        events.engine_events -= 1;
        completed.completed += 1;
        for (measured, field) in [
            (kinds, "kinds.blocked"),
            (events, "engine_events"),
            (completed, "completed"),
        ] {
            let problems = violations(&base, &[measured], 0.1);
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(
                problems[0].starts_with(&format!("A V-Reconfiguration: {field}: ")),
                "{problems:?}"
            );
        }
    }

    #[test]
    fn events_per_sec_at_the_floor_passes_and_below_it_fails() {
        let base = baseline(&[row("A V-Reconfiguration")]);
        let mut measured = row("A V-Reconfiguration");
        measured.events_per_sec = 750.0;
        assert!(violations(&base, &[measured.clone()], 0.25).is_empty());
        measured.events_per_sec = 749.999;
        let problems = violations(&base, &[measured], 0.25);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with("A V-Reconfiguration: events_per_sec: "),
            "{problems:?}"
        );
    }

    #[test]
    fn a_missing_or_extra_row_fails() {
        let base = baseline(&[row("A V-Reconfiguration"), row("B Malleable")]);
        let problems = violations(&base, &[row("A V-Reconfiguration")], 0.1);
        assert_eq!(
            problems,
            ["B Malleable: in the baseline but not measured".to_owned()]
        );
        let measured = [
            row("A V-Reconfiguration"),
            row("B Malleable"),
            row("C Fractional"),
        ];
        let problems = violations(&base, &measured, 0.1);
        assert_eq!(
            problems,
            ["C Fractional: measured but not in the baseline".to_owned()]
        );
    }

    #[test]
    fn a_baseline_that_is_not_json_or_has_no_rows_is_an_error() {
        let no_rate = r#"{"rows":[{"name":"A V-Reconfiguration"}]}"#;
        for text in [
            "",
            "not json",
            "{}",
            r#"{"rows":[]}"#,
            r#"{"rows":[{}]}"#,
            no_rate,
        ] {
            assert!(baseline_rows(text).is_err(), "{text:?}");
        }
    }

    #[test]
    fn a_measured_scale_row_checks_against_its_own_record() {
        let spec = ScaleSpec::new(16, 200);
        let trace = spec.trace(&mut SimRng::seed_from(crate::TRACE_SEED));
        let config = SimConfig::new(spec.cluster(), PolicyKind::VReconfiguration)
            .with_seed(crate::SIM_SEED)
            .with_placement(PlacementMode::CommitAware);
        let measured = measure(config, &trace, 1);
        assert_eq!(measured.name, "Scale-16n-200j V-Reconfiguration");
        assert_eq!(measured.completed, 200);

        let path = std::env::temp_dir().join(format!("vr-bench-gate-{}.json", std::process::id()));
        std::fs::write(&path, record(std::slice::from_ref(&measured))).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let own = baseline_rows(&text).unwrap();
        assert!(violations(&own, std::slice::from_ref(&measured), 0.9).is_empty());

        let edited = text.replace("\"submitted\":200", "\"submitted\":201");
        assert_ne!(edited, text, "the kind count was edited");
        let problems = violations(&baseline_rows(&edited).unwrap(), &[measured], 0.9);
        assert_eq!(
            problems,
            ["Scale-16n-200j V-Reconfiguration: kinds.submitted: baseline 201, measured 200"]
        );
    }
}
