//! Runs the full evaluation — both workload groups, all five traces, both
//! policies — and prints every artifact of the paper's matrix: the eight
//! panels of Figures 1–4, the §4.1 and §4.2 sampling-interval tables, a
//! paper-vs-measured summary, the V-R runs' reconfiguration activity and
//! the §5 model verification. This is the data source for
//! `EXPERIMENTS.md`.
//!
//! The whole 20-scenario matrix executes as **one sweep** on the
//! experiment runner: `--jobs N` sets the worker count (0 = auto),
//! `--no-cache` bypasses the content-addressed result cache. Tables on
//! stdout are bit-identical for any `--jobs` value; progress lines, cache
//! notes and the sweep's cache line go to stderr; a machine-readable
//! benchmark record is written to `BENCH_sweep.json` (override with
//! `VR_BENCH_OUT`). A run whose per-job decomposition identity fails
//! aborts with exit code 1 before anything is printed.

use std::path::Path;

use vr_analysis::model::ExecutionTimeModel;
use vr_analysis::queueing::{fifo_queue_time, minimizing_order, reserved_queue_bound};
use vr_analysis::timeline::reserved_queue_bound_from_log;
use vr_bench::render::figure_panel;
use vr_bench::{group_plan, pairs_from_results, paper, BenchArgs, Group, PolicyPair};
use vr_metrics::comparison::MetricComparison;
use vr_metrics::table::{fmt_f, TextTable};
use vr_simcore::series::TimeSeries;
use vr_simcore::time::SimSpan;
use vrecon::report::RunReport;

/// One panel of Figures 1–4: a metric of both policies across the five
/// traces of one group.
struct Panel {
    /// Title printed above the panel's table.
    title: &'static str,
    /// The panel's row label in the paper-vs-measured summary.
    artifact: &'static str,
    /// File stem of the panel's CSV under `$VR_RESULTS_DIR`.
    csv: &'static str,
    /// The reductions the paper quotes for this panel.
    quoted: &'static [paper::Quoted; 5],
    /// Decimal digits of the measured values.
    digits: usize,
    metric: fn(&PolicyPair) -> MetricComparison,
}

/// Workload group 1's panels: Figures 1 and 2.
const GROUP1: [Panel; 4] = [
    Panel {
        title: "Figure 1 left: total execution times (s)",
        artifact: "Fig 1 L: exec time (group 1)",
        csv: "fig1_exec",
        quoted: &paper::FIG1_EXEC,
        digits: 0,
        metric: PolicyPair::execution_time,
    },
    Panel {
        title: "Figure 1 right: total queuing times (s)",
        artifact: "Fig 1 R: queue time (group 1)",
        csv: "fig1_queue",
        quoted: &paper::FIG1_QUEUE,
        digits: 0,
        metric: PolicyPair::queue_time,
    },
    Panel {
        title: "Figure 2 left: average slowdowns",
        artifact: "Fig 2 L: slowdown (group 1)",
        csv: "fig2_slowdown",
        quoted: &paper::FIG2_SLOWDOWN,
        digits: 2,
        metric: PolicyPair::slowdown,
    },
    Panel {
        title: "Figure 2 right: average idle memory volumes (MB)",
        artifact: "Fig 2 R: idle memory (group 1)",
        csv: "fig2_idle_memory",
        quoted: &paper::FIG2_IDLE,
        digits: 0,
        metric: PolicyPair::idle_memory,
    },
];

/// Workload group 2's panels: Figures 3 and 4.
const GROUP2: [Panel; 4] = [
    Panel {
        title: "Figure 3 left: total execution times (s)",
        artifact: "Fig 3 L: exec time (group 2)",
        csv: "fig3_exec",
        quoted: &paper::FIG3_EXEC,
        digits: 0,
        metric: PolicyPair::execution_time,
    },
    Panel {
        title: "Figure 3 right: total queuing times (s)",
        artifact: "Fig 3 R: queue time (group 2)",
        csv: "fig3_queue",
        quoted: &paper::FIG3_QUEUE,
        digits: 0,
        metric: PolicyPair::queue_time,
    },
    Panel {
        title: "Figure 4 left: average slowdowns",
        artifact: "Fig 4 L: slowdown (group 2)",
        csv: "fig4_slowdown",
        quoted: &paper::FIG4_SLOWDOWN,
        digits: 2,
        metric: PolicyPair::slowdown,
    },
    Panel {
        title: "Figure 4 right: average job balance skews",
        artifact: "Fig 4 R: balance skew (group 2)",
        csv: "fig4_skew",
        quoted: &paper::FIG4_SKEW,
        digits: 3,
        metric: PolicyPair::balance_skew,
    },
];

/// Writes one figure panel's data as a plot-ready CSV file under `dir`.
/// Failures are returned, not printed — `main` surfaces them once.
fn export_csv(dir: &Path, panel: &Panel, pairs: &[PolicyPair]) -> Result<(), String> {
    let path = dir.join(format!("{}.csv", panel.csv));
    let mut table = TextTable::new(vec![
        "trace",
        "g_loadsharing",
        "v_reconfiguration",
        "reduction_pct",
    ]);
    for pair in pairs {
        let c = (panel.metric)(pair);
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

fn summary_row(table: &mut TextTable, panel: &Panel, pairs: &[PolicyPair]) {
    let measured: Vec<f64> = pairs
        .iter()
        .map(|p| (panel.metric)(p).reduction())
        .collect();
    let wins = measured.iter().filter(|r| **r > 0.0).count();
    let mean = measured.iter().sum::<f64>() / measured.len() as f64;
    let paper_quoted: Vec<f64> = panel.quoted.iter().flatten().copied().collect();
    let paper_mean = if paper_quoted.is_empty() {
        0.0
    } else {
        paper_quoted.iter().sum::<f64>() / paper_quoted.len() as f64
    };
    table.row(vec![
        panel.artifact.to_owned(),
        format!("{wins}/5"),
        format!("{mean:+.1}%"),
        format!("{paper_mean:+.1}%"),
    ]);
}

/// A group's section: its four panels, then the sampling-interval table
/// of the gauge its second figure plots, each in its own code block.
fn print_group(heading: &str, pairs: &[PolicyPair], panels: &[Panel], sampling: &str) {
    println!("## {heading}\n");
    for panel in panels {
        println!("```text");
        print!(
            "{}",
            figure_panel(panel.title, pairs, panel.quoted, panel.digits, panel.metric)
        );
        println!("```");
    }
    println!("```text\n{sampling}```\n");
}

/// The paper's sampling-interval insensitivity check (§4.1, §4.2): a V-R
/// gauge's average resampled at 1 s, 10 s, 30 s and 1 min.
fn sampling_table(
    title: &str,
    pairs: &[PolicyPair],
    digits: usize,
    gauge: fn(&RunReport) -> &TimeSeries,
) -> String {
    let mut table = TextTable::new(vec!["trace", "1s", "10s", "30s", "60s"]);
    for pair in pairs {
        let series = gauge(&pair.vr);
        let mut row = vec![pair.trace_name.clone()];
        row.extend([1u64, 10, 30, 60].iter().map(|s| {
            fmt_f(
                series.resample(SimSpan::from_secs(*s)).sample_average(),
                digits,
            )
        }));
        table.row(row);
    }
    format!("{title}\n{}", table.render())
}

/// The §5 model verification over every pair: the gain condition, the
/// model's comparison points and the reduction approximation, then the
/// reserved-workstation queuing bound on a worked example.
///
/// Fails if a run's per-job decomposition identity does not hold.
fn model_section(pairs: &[&PolicyPair]) -> Result<String, String> {
    let mut table = TextTable::new(vec!["trace", "check", "holds", "detail"]);
    let mut all_hold = true;
    let verdict = |holds: bool| if holds { "yes" } else { "NO" }.to_owned();
    for pair in pairs {
        for report in [&pair.gls, &pair.vr] {
            report.check_breakdown_identity(0.05).map_err(|e| {
                format!(
                    "{} under {}: decomposition identity fails: {e}",
                    pair.trace_name, report.policy
                )
            })?;
        }
        // §5's key gain condition: the queuing time added by the reserved
        // workstations (bounded by sum (Q-j)*w_kj, measured from the event
        // log) must be far smaller than the queuing-time reduction it buys.
        let reserved_bound = reserved_queue_bound_from_log(&pair.vr.events);
        let queue_reduction = pair.gls.total_queue_secs() - pair.vr.total_queue_secs();
        table.row(vec![
            pair.trace_name.clone(),
            "gain-condition".to_owned(),
            verdict(reserved_bound < queue_reduction),
            format!(
                "reserved-queue bound {reserved_bound:.0}s << queue reduction {queue_reduction:.0}s"
            ),
        ]);
        all_hold &= reserved_bound < queue_reduction;
        let model = ExecutionTimeModel::from_reports(&pair.gls, &pair.vr);
        // T_mig is allowed a wide band: the paper itself argues it is a
        // small portion of execution time, not that it is equal.
        for check in model.checks(1.0) {
            all_hold &= check.holds;
            table.row(vec![
                pair.trace_name.clone(),
                check.name.to_owned(),
                verdict(check.holds),
                check.detail,
            ]);
        }
    }
    let waits = [120.0, 45.0, 300.0, 80.0];
    let bound = reserved_queue_bound(&waits);
    let best = reserved_queue_bound(&minimizing_order(&waits));
    Ok(format!(
        "{}\n\
         per-job identity t_exe = t_cpu + t_page + t_que + t_mig verified for every completed \
         job (tolerance 50 ms).\n\
         overall: {}\n\n\
         reserved-workstation FIFO queuing bound g(Q) <= sum (Q-j)*w_j:\n  \
         waits {waits:?}: bound {bound:.0}s, ascending-order bound {best:.0}s \
         (SRPT ordering minimizes: {})\n  \
         exact FIFO queue time for the same services: {:.0}s\n",
        table.render(),
        if all_hold {
            "all §5 model points hold"
        } else {
            "some model points did NOT hold — see table"
        },
        best <= bound,
        fifo_queue_time(&waits),
    ))
}

fn fatal(message: &str) -> ! {
    eprintln!("fatal: {message}");
    std::process::exit(1);
}

fn main() {
    let bench_args = BenchArgs::from_env();
    let results_dir = vr_bench::results_dir().unwrap_or_else(|e| fatal(&e));

    // One sweep for the whole matrix: group 1's ten scenarios, then
    // group 2's. Results come back in plan order, so every table below is
    // bit-identical for any --jobs value.
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
    let all: Vec<&PolicyPair> = spec.iter().chain(&app).collect();
    let model = model_section(&all).unwrap_or_else(|e| fatal(&e));

    if let Some(dir) = &results_dir {
        let export_errors: Vec<String> = GROUP1
            .iter()
            .map(|panel| export_csv(dir, panel, &spec))
            .chain(GROUP2.iter().map(|panel| export_csv(dir, panel, &app)))
            .filter_map(Result::err)
            .collect();
        if !export_errors.is_empty() {
            // One aggregated note, not one eprintln per panel.
            eprintln!(
                "note: {} CSV export(s) failed: {}",
                export_errors.len(),
                export_errors.join("; ")
            );
        }
    }

    println!("# Full evaluation run\n");
    if results_dir.is_some() {
        println!("(also exporting per-figure CSVs to $VR_RESULTS_DIR)\n");
    }
    print_group(
        "Workload group 1 (SPEC 2000, cluster 1)",
        &spec,
        &GROUP1,
        &sampling_table(
            "§4.1 sampling-interval insensitivity of the average idle memory volume (V-R)",
            &spec,
            1,
            |r| &r.gauges.idle_memory_mb,
        ),
    );
    print_group(
        "Workload group 2 (applications, cluster 2)",
        &app,
        &GROUP2,
        &sampling_table(
            "§4.2 sampling-interval insensitivity of the average job balance skew (V-R)",
            &app,
            3,
            |r| &r.gauges.balance_skew,
        ),
    );

    println!("## Paper-vs-measured summary (mean reduction across traces)\n");
    let mut table = TextTable::new(vec![
        "artifact",
        "V-R wins",
        "measured mean",
        "paper mean (quoted)",
    ]);
    for panel in &GROUP1 {
        summary_row(&mut table, panel, &spec);
    }
    for panel in &GROUP2 {
        summary_row(&mut table, panel, &app);
    }
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
    for pair in &all {
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
    println!("```text\n{}```\n", table.render());

    println!("## §5 model verification (both groups, all traces)\n");
    print!("```text\n{model}```\n");
}
