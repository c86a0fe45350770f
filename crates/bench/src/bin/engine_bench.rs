//! `engine_bench` — engine micro-bench suite behind `BENCH_engine.json`.
//!
//! Replays seven rows: the five `vrecon trace spec --level N` scenarios
//! (cluster 1, V-Reconfiguration, scheduler seed 7, trace seed 42 —
//! identical to the CLI defaults), then the malleable and fractional
//! families on the level-3 (Normal) trace. It measures raw engine
//! throughput: each row is timed as the best of three untraced
//! [`Simulation::run`] calls, then traced once to collect the
//! deterministic per-kind record counts and scheduler counters.
//!
//! Modes:
//!
//! * `engine_bench --out BENCH_engine.json` — measure and write the JSON
//!   artifact (the committed perf baseline).
//! * `engine_bench --check BENCH_engine.json [--tolerance 0.10]` — measure
//!   again and gate against a committed baseline: deterministic fields
//!   (engine events, per-kind counts, blocking detections) must match
//!   *exactly*; `events_per_sec` may not regress by more than the
//!   tolerance. Exits non-zero on any violation — this is the CI
//!   `bench-gate` entry point.

use std::time::Instant;

use vr_cluster::job::MalleableSpec;
use vr_simcore::jsonio::Json;
use vr_simcore::rng::SimRng;
use vr_workload::trace::{spec_trace_scaled, Trace, TraceLevel, SPEC_LIFETIME_SCALE};
use vrecon::config::SimConfig;
use vrecon::plugin::ParamBag;
use vrecon::policy::PolicyKind;
use vrecon::sim::Simulation;

use vr_bench::{SIM_SEED, TRACE_SEED};

/// Schema version of `BENCH_engine.json`.
const SCHEMA: u64 = 1;
/// Timed repetitions per level; the best (shortest) wall time wins, which
/// filters scheduler noise without averaging in cold-cache outliers.
const REPS: usize = 3;
/// Default allowed relative `events_per_sec` regression in `--check` mode.
const DEFAULT_TOLERANCE: f64 = 0.10;

const LEVELS: [(u64, TraceLevel); 5] = [
    (1, TraceLevel::Light),
    (2, TraceLevel::Moderate),
    (3, TraceLevel::Normal),
    (4, TraceLevel::ModeratelyIntensive),
    (5, TraceLevel::HighlyIntensive),
];

/// One bench row: the five historical V-R levels plus two ablation rows
/// for the plugin families (both replay the Normal trace so their numbers
/// are comparable against level 3).
struct BenchRow {
    no: u64,
    level: TraceLevel,
    policy: PolicyKind,
    params: ParamBag,
    /// Give every other job a `1..=2` malleable width range so the resize
    /// hook has material to work with.
    annotate_malleable: bool,
}

fn rows() -> Vec<BenchRow> {
    let mut rows: Vec<BenchRow> = LEVELS
        .iter()
        .map(|&(no, level)| BenchRow {
            no,
            level,
            policy: PolicyKind::VReconfiguration,
            params: ParamBag::new(),
            annotate_malleable: false,
        })
        .collect();
    rows.push(BenchRow {
        no: 6,
        level: TraceLevel::Normal,
        policy: PolicyKind::Malleable,
        params: ParamBag::new().with("max_step", 1u32),
        annotate_malleable: true,
    });
    rows.push(BenchRow {
        no: 7,
        level: TraceLevel::Normal,
        policy: PolicyKind::Fractional,
        params: ParamBag::new().with("oversub", 1.5),
        annotate_malleable: false,
    });
    rows
}

fn scenario(row: &BenchRow) -> (SimConfig, Trace) {
    let mut trace = spec_trace_scaled(
        row.level,
        &mut SimRng::seed_from(TRACE_SEED),
        SPEC_LIFETIME_SCALE,
    );
    if row.annotate_malleable {
        for job in trace.jobs.iter_mut().step_by(2) {
            job.malleable = Some(MalleableSpec {
                min_width: 1,
                max_width: 2,
            });
        }
    }
    let cluster = vr_cluster::params::ClusterParams::cluster1();
    let config = SimConfig::new(cluster, row.policy)
        .with_policy_params(row.params.clone())
        .with_seed(SIM_SEED);
    (config, trace)
}

/// One level's measurements.
struct LevelResult {
    level: u64,
    policy: String,
    trace_name: String,
    engine_events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    blocking_detections: u64,
    kinds: Vec<(String, u64)>,
}

fn measure(row: &BenchRow) -> LevelResult {
    let (config, trace) = scenario(row);
    let sim = Simulation::new(config);

    // Untraced timed runs: the throughput number excludes tracer overhead
    // so it measures the engine hot path itself.
    let mut best = f64::INFINITY;
    let mut engine_events = 0;
    for _ in 0..REPS {
        let started = Instant::now();
        let report = sim.run(&trace);
        let elapsed = started.elapsed().as_secs_f64();
        engine_events = report.run_stats.events_processed;
        if elapsed < best {
            best = elapsed;
        }
    }

    // One traced run for the deterministic record counts.
    let (report, data) = sim.run_traced(&trace);
    assert_eq!(
        report.run_stats.events_processed, engine_events,
        "traced and untraced runs disagree on event count"
    );

    let events_per_sec = if best > 0.0 {
        engine_events as f64 / best
    } else {
        0.0
    };
    LevelResult {
        level: row.no,
        policy: row.policy.to_string(),
        trace_name: trace.name.clone(),
        engine_events,
        wall_secs: best,
        events_per_sec,
        blocking_detections: report.counters.blocking_detections,
        kinds: data
            .profile
            .kind_counts
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
    }
}

fn to_json(results: &[LevelResult]) -> Json {
    Json::obj([
        ("schema", Json::U64(SCHEMA)),
        (
            "scenario",
            Json::obj([
                ("group", Json::str("spec")),
                ("cluster", Json::str("cluster1")),
                ("seed", Json::U64(SIM_SEED)),
                ("trace_seed", Json::U64(TRACE_SEED)),
            ]),
        ),
        (
            "traces",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("level", Json::U64(r.level)),
                            ("policy", Json::str(r.policy.clone())),
                            ("trace", Json::str(r.trace_name.clone())),
                            ("engine_events", Json::U64(r.engine_events)),
                            ("wall_secs", Json::f64(r.wall_secs)),
                            ("events_per_sec", Json::f64(r.events_per_sec)),
                            ("blocking_detections", Json::U64(r.blocking_detections)),
                            (
                                "kinds",
                                Json::obj(r.kinds.iter().map(|(k, v)| (k.clone(), Json::U64(*v)))),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Compares fresh results against a parsed baseline document. Returns the
/// list of violations (empty = gate passes).
fn check(results: &[LevelResult], baseline: &Json, tolerance: f64) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(traces) = baseline.get("traces").and_then(Json::as_arr) else {
        return vec!["baseline has no `traces` array".to_owned()];
    };
    if traces.len() != results.len() {
        problems.push(format!(
            "baseline has {} traces, measured {}",
            traces.len(),
            results.len()
        ));
    }
    for r in results {
        let Some(base) = traces
            .iter()
            .find(|t| t.get("level").and_then(Json::as_u64) == Some(r.level))
        else {
            problems.push(format!("level {}: missing from baseline", r.level));
            continue;
        };
        let exact_u64 = |field: &str, got: u64, problems: &mut Vec<String>| match base
            .get(field)
            .and_then(Json::as_u64)
        {
            Some(want) if want == got => {}
            Some(want) => problems.push(format!(
                "level {}: {field} changed: baseline {want}, measured {got}",
                r.level
            )),
            None => problems.push(format!("level {}: baseline lacks {field}", r.level)),
        };
        exact_u64("engine_events", r.engine_events, &mut problems);
        exact_u64("blocking_detections", r.blocking_detections, &mut problems);
        match base.get("kinds") {
            Some(Json::Obj(base_kinds)) => {
                let fresh: Vec<(String, u64)> = r.kinds.clone();
                let base_kinds: Vec<(String, u64)> = base_kinds
                    .iter()
                    .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                    .collect();
                if fresh != base_kinds {
                    problems.push(format!(
                        "level {}: per-kind record counts changed: baseline {:?}, measured {:?}",
                        r.level, base_kinds, fresh
                    ));
                }
            }
            _ => problems.push(format!("level {}: baseline lacks kinds object", r.level)),
        }
        match base.get("events_per_sec").and_then(Json::as_f64) {
            Some(base_rate) => {
                let floor = base_rate * (1.0 - tolerance);
                if r.events_per_sec < floor {
                    problems.push(format!(
                        "level {}: throughput regressed beyond {:.0}%: baseline {:.0} ev/s, \
                         measured {:.0} ev/s (floor {:.0})",
                        r.level,
                        tolerance * 100.0,
                        base_rate,
                        r.events_per_sec,
                        floor
                    ));
                }
            }
            None => problems.push(format!("level {}: baseline lacks events_per_sec", r.level)),
        }
    }
    problems
}

struct Cli {
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        out: None,
        check: None,
        tolerance: DEFAULT_TOLERANCE,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => cli.out = args.next(),
            "--check" => cli.check = args.next(),
            "--tolerance" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if (0.0..1.0).contains(&t) => cli.tolerance = t,
                _ => die("--tolerance requires a value in [0, 1)"),
            },
            other => die(&format!(
                "unknown argument {other}; supported: --out FILE, --check FILE, --tolerance T"
            )),
        }
    }
    if cli.out.is_none() && cli.check.is_none() {
        cli.out = Some("BENCH_engine.json".to_owned());
    }
    cli
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn main() {
    let cli = parse_cli();
    let mut results = Vec::new();
    for row in rows() {
        let r = measure(&row);
        eprintln!(
            "level {} ({} under {}): {} events in {:.3}s = {:.0} events/sec, {} blocking detections",
            r.level,
            r.trace_name,
            r.policy,
            r.engine_events,
            r.wall_secs,
            r.events_per_sec,
            r.blocking_detections
        );
        results.push(r);
    }

    if let Some(path) = &cli.out {
        let mut text = to_json(&results).render();
        text.push('\n');
        if let Err(e) = std::fs::write(path, &text) {
            die(&format!("cannot write {path}: {e}"));
        }
        println!("wrote {path}");
    }

    if let Some(path) = &cli.check {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => die(&format!("cannot read baseline {path}: {e}")),
        };
        let baseline = match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => die(&format!("baseline {path} is not valid JSON: {e}")),
        };
        let problems = check(&results, &baseline, cli.tolerance);
        if problems.is_empty() {
            println!(
                "bench gate passed: {} levels within {:.0}% of {path}",
                results.len(),
                cli.tolerance * 100.0
            );
        } else {
            for p in &problems {
                eprintln!("bench gate: {p}");
            }
            eprintln!("bench gate FAILED: {} violation(s)", problems.len());
            std::process::exit(1);
        }
    }
}
