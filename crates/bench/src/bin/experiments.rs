//! Runs the full evaluation — both workload groups, all five traces, both
//! policies — and prints the per-figure tables plus a paper-vs-measured
//! summary. This is the data source for `EXPERIMENTS.md`.
//!
//! The whole 20-scenario matrix executes as **one sweep** on the
//! experiment runner: `--jobs N` sets the worker count (0 = auto),
//! `--no-cache` bypasses the content-addressed result cache. Figure
//! tables on stdout are bit-identical for any `--jobs` value; progress
//! lines and cache notes go to stderr; a machine-readable benchmark record
//! is written to `BENCH_sweep.json` (override with `VR_BENCH_OUT`).

use std::path::Path;

use vr_bench::render::figure_panel;
use vr_bench::{group_plan, pairs_from_results, paper, BenchArgs, Group, PolicyPair};
use vr_metrics::comparison::MetricComparison;
use vr_metrics::table::TextTable;

/// Writes one figure panel's data as a plot-ready CSV file under `dir`.
/// Failures are returned, not printed — `main` surfaces them once.
fn export_csv(
    dir: &Path,
    name: &str,
    pairs: &[PolicyPair],
    metric: impl Fn(&PolicyPair) -> MetricComparison,
) -> Result<(), String> {
    let path = dir.join(format!("{name}.csv"));
    let mut table = TextTable::new(vec![
        "trace",
        "g_loadsharing",
        "v_reconfiguration",
        "reduction_pct",
    ]);
    for pair in pairs {
        let c = metric(pair);
        table.row(vec![
            pair.trace_name.clone(),
            format!("{}", c.baseline),
            format!("{}", c.candidate),
            format!("{:.4}", c.reduction()),
        ]);
    }
    std::fs::write(&path, table.render_csv())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn summary_row(
    table: &mut TextTable,
    artifact: &str,
    pairs: &[PolicyPair],
    quoted: &[paper::Quoted; 5],
    metric: impl Fn(&PolicyPair) -> MetricComparison,
) {
    let measured: Vec<f64> = pairs.iter().map(|p| metric(p).reduction()).collect();
    let wins = measured.iter().filter(|r| **r > 0.0).count();
    let mean = measured.iter().sum::<f64>() / measured.len() as f64;
    let paper_quoted: Vec<f64> = quoted.iter().flatten().copied().collect();
    let paper_mean = if paper_quoted.is_empty() {
        0.0
    } else {
        paper_quoted.iter().sum::<f64>() / paper_quoted.len() as f64
    };
    table.row(vec![
        artifact.to_owned(),
        format!("{wins}/5"),
        format!("{mean:+.1}%"),
        format!("{paper_mean:+.1}%"),
    ]);
}

fn main() {
    let bench_args = BenchArgs::from_env();
    let results_dir = vr_bench::results_dir().unwrap_or_else(|e| {
        eprintln!("fatal: {e}");
        std::process::exit(1);
    });

    println!("# Full evaluation run\n");
    if results_dir.is_some() {
        println!("(also exporting per-figure CSVs to $VR_RESULTS_DIR)\n");
    }

    // One sweep for the whole matrix: group 1's ten scenarios, then
    // group 2's. Results come back in plan order, so the figure tables
    // below are bit-identical for any --jobs value.
    let mut plan = group_plan(Group::Spec);
    let split = plan.len();
    plan.scenarios.extend(group_plan(Group::App).scenarios);
    let runner = bench_args.runner(true);
    let mut outcome = runner.run(&plan);
    vr_bench::warn_truncated(outcome.results.iter().flatten());

    let bench_out = std::env::var("VR_BENCH_OUT").unwrap_or_else(|_| "BENCH_sweep.json".into());
    if let Err(e) = vr_runner::write_bench_json(Path::new(&bench_out), &outcome) {
        eprintln!("note: cannot write {bench_out}: {e}");
    }
    eprintln!(
        "sweep: {} scenarios on {} workers in {:.2}s (sequential {:.2}s, speedup {:.2}x; \
         cache: {} hits, {} misses)",
        outcome.results.len(),
        outcome.jobs,
        outcome.wall.as_secs_f64(),
        outcome.busy.as_secs_f64(),
        outcome.speedup(),
        outcome.cache.hits,
        outcome.cache.misses,
    );

    let app = pairs_from_results(outcome.results.split_off(split));
    let spec = pairs_from_results(outcome.results);
    let mut export_errors: Vec<String> = Vec::new();
    let mut export = |dir: Option<&Path>,
                      name: &str,
                      pairs: &[PolicyPair],
                      metric: &dyn Fn(&PolicyPair) -> MetricComparison| {
        if let Some(dir) = dir {
            if let Err(e) = export_csv(dir, name, pairs, metric) {
                export_errors.push(e);
            }
        }
    };
    let dir = results_dir.as_deref();

    println!("## Workload group 1 (SPEC 2000, cluster 1)\n");
    println!("```text");
    print!(
        "{}",
        figure_panel(
            "Figure 1 left: total execution times (s)",
            &spec,
            &paper::FIG1_EXEC,
            0,
            |p| p.execution_time()
        )
    );
    println!("```\n```text");
    print!(
        "{}",
        figure_panel(
            "Figure 1 right: total queuing times (s)",
            &spec,
            &paper::FIG1_QUEUE,
            0,
            |p| p.queue_time()
        )
    );
    println!("```\n```text");
    print!(
        "{}",
        figure_panel(
            "Figure 2 left: average slowdowns",
            &spec,
            &paper::FIG2_SLOWDOWN,
            2,
            |p| p.slowdown()
        )
    );
    println!("```\n```text");
    print!(
        "{}",
        figure_panel(
            "Figure 2 right: average idle memory volumes (MB)",
            &spec,
            &paper::FIG2_IDLE,
            0,
            |p| p.idle_memory()
        )
    );
    println!("```\n");
    export(dir, "fig1_exec", &spec, &|p| p.execution_time());
    export(dir, "fig1_queue", &spec, &|p| p.queue_time());
    export(dir, "fig2_slowdown", &spec, &|p| p.slowdown());
    export(dir, "fig2_idle_memory", &spec, &|p| p.idle_memory());

    println!("## Workload group 2 (applications, cluster 2)\n");
    println!("```text");
    print!(
        "{}",
        figure_panel(
            "Figure 3 left: total execution times (s)",
            &app,
            &paper::FIG3_EXEC,
            0,
            |p| p.execution_time()
        )
    );
    println!("```\n```text");
    print!(
        "{}",
        figure_panel(
            "Figure 3 right: total queuing times (s)",
            &app,
            &paper::FIG3_QUEUE,
            0,
            |p| p.queue_time()
        )
    );
    println!("```\n```text");
    print!(
        "{}",
        figure_panel(
            "Figure 4 left: average slowdowns",
            &app,
            &paper::FIG4_SLOWDOWN,
            2,
            |p| p.slowdown()
        )
    );
    println!("```\n```text");
    print!(
        "{}",
        figure_panel(
            "Figure 4 right: average job balance skews",
            &app,
            &paper::FIG4_SKEW,
            3,
            |p| p.balance_skew()
        )
    );
    println!("```\n");
    export(dir, "fig3_exec", &app, &|p| p.execution_time());
    export(dir, "fig3_queue", &app, &|p| p.queue_time());
    export(dir, "fig4_slowdown", &app, &|p| p.slowdown());
    export(dir, "fig4_skew", &app, &|p| p.balance_skew());

    if !export_errors.is_empty() {
        // One aggregated note, not one eprintln per row.
        eprintln!(
            "note: {} CSV export(s) failed: {}",
            export_errors.len(),
            export_errors.join("; ")
        );
    }

    println!("## Paper-vs-measured summary (mean reduction across traces)\n");
    let mut table = TextTable::new(vec![
        "artifact",
        "V-R wins",
        "measured mean",
        "paper mean (quoted)",
    ]);
    summary_row(
        &mut table,
        "Fig 1 L: exec time (group 1)",
        &spec,
        &paper::FIG1_EXEC,
        |p| p.execution_time(),
    );
    summary_row(
        &mut table,
        "Fig 1 R: queue time (group 1)",
        &spec,
        &paper::FIG1_QUEUE,
        |p| p.queue_time(),
    );
    summary_row(
        &mut table,
        "Fig 2 L: slowdown (group 1)",
        &spec,
        &paper::FIG2_SLOWDOWN,
        |p| p.slowdown(),
    );
    summary_row(
        &mut table,
        "Fig 2 R: idle memory (group 1)",
        &spec,
        &paper::FIG2_IDLE,
        |p| p.idle_memory(),
    );
    summary_row(
        &mut table,
        "Fig 3 L: exec time (group 2)",
        &app,
        &paper::FIG3_EXEC,
        |p| p.execution_time(),
    );
    summary_row(
        &mut table,
        "Fig 3 R: queue time (group 2)",
        &app,
        &paper::FIG3_QUEUE,
        |p| p.queue_time(),
    );
    summary_row(
        &mut table,
        "Fig 4 L: slowdown (group 2)",
        &app,
        &paper::FIG4_SLOWDOWN,
        |p| p.slowdown(),
    );
    summary_row(
        &mut table,
        "Fig 4 R: balance skew (group 2)",
        &app,
        &paper::FIG4_SKEW,
        |p| p.balance_skew(),
    );
    println!("```text\n{}```\n", table.render());

    println!("## Reconfiguration activity (V-R runs)\n");
    let mut table = TextTable::new(vec![
        "trace",
        "reservations",
        "served",
        "released unused",
        "timed out",
        "blocking detections",
    ]);
    for pair in spec.iter().chain(app.iter()) {
        let r = pair.vr.reservations;
        table.row(vec![
            pair.trace_name.clone(),
            r.started.to_string(),
            r.jobs_served.to_string(),
            r.released_unused.to_string(),
            r.timed_out.to_string(),
            pair.vr.counters.blocking_detections.to_string(),
        ]);
    }
    println!("```text\n{}```", table.render());
}
