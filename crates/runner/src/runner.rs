//! The sweep orchestrator: cache → pool → BENCH report.
//!
//! [`Runner::run`] executes a [`SweepPlan`] on the pool's workers and no
//! other thread, consulting the content-addressed [`ResultCache`] per
//! scenario. With progress on, each worker prints its own
//! `[done/total] label (…)` line to stderr as it finishes a scenario;
//! a failed cache write is always reported there as a `note:` line.
//! Stdout stays reserved for the figure tables. Results come back in
//! **plan order** whatever the completion order, so any figure table
//! printed from a [`SweepOutcome`] is bit-identical across `--jobs`
//! settings — determinism under parallelism is the contract, not an
//! accident.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use vr_simcore::jsonio::Json;
use vrecon::RunReport;

use crate::cache::{CacheStats, ResultCache};
use crate::pool::{effective_workers, run_indexed};
use crate::scenario::{Scenario, SweepPlan};

/// Knobs for one sweep execution.
#[derive(Debug)]
pub struct SweepOptions {
    /// Worker threads; `0` selects [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// Result cache (use [`ResultCache::disabled`] for `--no-cache`).
    pub cache: ResultCache,
    /// Print a progress line to stderr as each scenario finishes.
    pub progress: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 0,
            cache: ResultCache::at(crate::cache::default_cache_dir()),
            progress: false,
        }
    }
}

/// One finished scenario inside a [`SweepOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario's display label.
    pub label: String,
    /// Its content hash (the cache key).
    pub hash: String,
    /// The simulation report (from cache or a fresh run — identical either
    /// way, which is the whole point of content addressing).
    pub report: RunReport,
    /// Wall time this worker spent on the scenario.
    pub wall: Duration,
    /// Whether the report came from the cache.
    pub cache_hit: bool,
}

impl ScenarioResult {
    /// Simulator events replayed (`run_stats.events_processed`) per
    /// wall-clock second (`0.0` for cache hits, whose wall time measures
    /// only the decode).
    pub fn events_per_sec(&self) -> f64 {
        if self.cache_hit || self.wall.is_zero() {
            0.0
        } else {
            self.report.run_stats.events_processed as f64 / self.wall.as_secs_f64()
        }
    }
}

/// Everything a sweep produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One slot per plan entry, in plan order; `None` iff that scenario's
    /// worker panicked.
    pub results: Vec<Option<ScenarioResult>>,
    /// `(plan index, panic message)` for failed scenarios.
    pub failures: Vec<(usize, String)>,
    /// End-to-end wall time of the sweep.
    pub wall: Duration,
    /// Sum of per-scenario wall times — what a sequential run would have
    /// cost. `busy / wall` is the measured speedup.
    pub busy: Duration,
    /// Effective worker count used.
    pub jobs: usize,
    /// Cache hit/miss counters for this sweep.
    pub cache: CacheStats,
}

impl SweepOutcome {
    /// Measured speedup versus a sequential execution of the same work.
    pub fn speedup(&self) -> f64 {
        if self.wall.is_zero() {
            1.0
        } else {
            self.busy.as_secs_f64() / self.wall.as_secs_f64()
        }
    }

    /// The reports in plan order, panicking if any scenario failed.
    /// Convenience for bench binaries whose scenarios must all succeed.
    pub fn expect_reports(self) -> Vec<RunReport> {
        if let Some((index, message)) = self.failures.first() {
            // vr-lint::allow(panic-in-lib, reason = "expect_reports is the documented panic-on-failure convenience for bench binaries")
            panic!("scenario {index} failed: {message}");
        }
        self.results
            .into_iter()
            // vr-lint::allow(panic-in-lib, reason = "guarded by the failures check above: every scenario produced a report")
            .map(|slot| slot.expect("no failures recorded").report)
            .collect()
    }
}

/// Executes sweep plans. See the [module docs](self) for the data flow.
#[derive(Debug, Default)]
pub struct Runner {
    options: SweepOptions,
}

impl Runner {
    /// A runner with the given options.
    pub fn new(options: SweepOptions) -> Runner {
        Runner { options }
    }

    /// A quiet runner with `jobs` workers and the cache disabled — the
    /// configuration unit tests and in-process callers usually want.
    pub fn uncached(jobs: usize) -> Runner {
        Runner::new(SweepOptions {
            jobs,
            cache: ResultCache::disabled(),
            progress: false,
        })
    }

    /// Runs every scenario in `plan`, returning results in plan order.
    pub fn run(&self, plan: &SweepPlan) -> SweepOutcome {
        let jobs = effective_workers(self.options.jobs, plan.len());
        let cache = &self.options.cache;
        let total = plan.len();
        let done = AtomicUsize::new(0);
        let progress = |label: &str, outcome: Result<&ScenarioResult, (usize, &str)>| {
            if self.options.progress {
                let done = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!("{}", progress_line(done, total, label, outcome));
            }
        };

        let started = Instant::now();
        let pooled = run_indexed(&plan.scenarios, jobs, |_, scenario: &Scenario| {
            let t0 = Instant::now();
            let hash = scenario.content_hash();
            let (report, cache_hit) = match cache.lookup(&hash) {
                Some(report) => (report, true),
                None => {
                    let report = scenario.run();
                    if let Err((path, error)) = cache.store(&hash, &report) {
                        eprintln!(
                            "note: result cache write failed at {}: {error}",
                            path.display()
                        );
                    }
                    (report, false)
                }
            };
            let result = ScenarioResult {
                label: scenario.label.clone(),
                hash,
                report,
                wall: t0.elapsed(),
                cache_hit,
            };
            progress(&result.label, Ok(&result));
            result
        });
        let wall = started.elapsed();
        for (index, message) in &pooled.panics {
            progress(&plan.scenarios[*index].label, Err((*index, message)));
        }

        let busy = pooled
            .results
            .iter()
            .flatten()
            .map(|r| r.wall)
            .sum::<Duration>();
        SweepOutcome {
            results: pooled.results,
            failures: pooled.panics,
            wall,
            busy,
            jobs,
            cache: cache.stats(),
        }
    }
}

/// Formats one progress line: `[done/total] label (detail)` for a finished
/// scenario (`cached`, or its wall time and events per second) and
/// `[done/total] label FAILED (scenario i): message` for one whose worker
/// panicked. Plain lines, no cursor tricks, so they behave in CI logs and
/// when piped.
fn progress_line(
    done: usize,
    total: usize,
    label: &str,
    outcome: Result<&ScenarioResult, (usize, &str)>,
) -> String {
    match outcome {
        Ok(result) if result.cache_hit => format!("[{done}/{total}] {label} (cached)"),
        Ok(result) => format!(
            "[{done}/{total}] {label} ({:.2}s, {:.0} ev/s)",
            result.wall.as_secs_f64(),
            result.events_per_sec()
        ),
        Err((index, message)) => {
            format!("[{done}/{total}] {label} FAILED (scenario {index}): {message}")
        }
    }
}

/// Schema version of the `BENCH_sweep.json` document.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Renders a machine-readable benchmark document for a finished sweep:
/// matrix shape, wall/busy time, measured speedup versus sequential, cache
/// counters, and per-scenario throughput.
pub fn bench_json(outcome: &SweepOutcome) -> Json {
    let throughput = vr_metrics::ThroughputSummary::of_runs(
        outcome
            .results
            .iter()
            .flatten()
            .filter(|r| !r.cache_hit)
            .map(|r| (r.report.run_stats.events_processed, r.wall.as_secs_f64())),
    );
    let scenarios = outcome
        .results
        .iter()
        .map(|slot| match slot {
            Some(r) => Json::obj([
                ("label", Json::str(&r.label)),
                ("hash", Json::str(&r.hash)),
                ("wall_secs", Json::f64(r.wall.as_secs_f64())),
                ("cache_hit", Json::Bool(r.cache_hit)),
                (
                    "engine_events",
                    Json::U64(r.report.run_stats.events_processed),
                ),
                ("events_per_sec", Json::f64(r.events_per_sec())),
                ("avg_slowdown", Json::f64(r.report.avg_slowdown())),
            ]),
            None => Json::Null,
        })
        .collect();
    Json::obj([
        ("schema", Json::U64(BENCH_SCHEMA_VERSION)),
        (
            "matrix",
            Json::obj([("scenarios", Json::U64(outcome.results.len() as u64))]),
        ),
        ("jobs", Json::U64(outcome.jobs as u64)),
        (
            "available_parallelism",
            Json::U64(std::thread::available_parallelism().map_or(1, usize::from) as u64),
        ),
        ("wall_secs", Json::f64(outcome.wall.as_secs_f64())),
        ("sequential_secs", Json::f64(outcome.busy.as_secs_f64())),
        ("speedup", Json::f64(outcome.speedup())),
        (
            "cache",
            Json::obj([
                ("hits", Json::U64(outcome.cache.hits)),
                ("misses", Json::U64(outcome.cache.misses)),
                ("corrupt_entries", Json::U64(outcome.cache.corrupt_entries)),
            ]),
        ),
        (
            "throughput",
            Json::obj([
                ("simulated_runs", Json::U64(throughput.runs as u64)),
                ("total_events", Json::U64(throughput.total_events)),
                (
                    "aggregate_events_per_sec",
                    Json::f64(throughput.aggregate_events_per_sec),
                ),
                ("per_run_mean", Json::f64(throughput.per_run.mean)),
                ("per_run_min", Json::f64(throughput.per_run.min)),
                ("per_run_max", Json::f64(throughput.per_run.max)),
            ]),
        ),
        ("scenarios", Json::Arr(scenarios)),
        (
            "failures",
            Json::Arr(
                outcome
                    .failures
                    .iter()
                    .map(|(index, message)| {
                        Json::Arr(vec![Json::U64(*index as u64), Json::str(message)])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Writes [`bench_json`] to `path`, creating parent directories.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_bench_json(path: &std::path::Path, outcome: &SweepOutcome) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut text = bench_json(outcome).render();
    text.push('\n');
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vr_cluster::params::ClusterParams;
    use vr_cluster::units::Bytes;
    use vrecon::{PolicyKind, SimConfig};

    fn plan(n_scenarios: usize) -> SweepPlan {
        let mut cluster = ClusterParams::cluster2();
        cluster.nodes.truncate(2);
        let trace = Arc::new(vr_workload::synth::blocking_scenario(2, Bytes::from_mb(64)));
        (0..n_scenarios)
            .map(|i| {
                Scenario::new(
                    SimConfig::new(cluster.clone(), PolicyKind::GLoadSharing)
                        .with_seed(10 + i as u64),
                    Arc::clone(&trace),
                )
            })
            .collect()
    }

    #[test]
    fn sweep_returns_results_in_plan_order() {
        let plan = plan(5);
        let outcome = Runner::uncached(4).run(&plan);
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.results.len(), 5);
        for (i, slot) in outcome.results.iter().enumerate() {
            let r = slot.as_ref().unwrap();
            assert_eq!(r.report.seed, 10 + i as u64);
            assert!(!r.cache_hit);
        }
        // Disabled cache: every scenario was a miss.
        assert_eq!(
            outcome.cache,
            CacheStats {
                hits: 0,
                misses: 5,
                corrupt_entries: 0
            }
        );
        assert_eq!(outcome.jobs, 4);
    }

    #[test]
    fn progress_lines_count_and_describe_each_scenario() {
        let outcome = Runner::uncached(1).run(&plan(1));
        let mut result = outcome.results.into_iter().next().flatten().unwrap();
        result.report.run_stats.events_processed = 1500;
        result.wall = Duration::from_millis(1500);
        assert_eq!(
            progress_line(1, 3, "a", Ok(&result)),
            "[1/3] a (1.50s, 1000 ev/s)"
        );
        result.cache_hit = true;
        assert_eq!(progress_line(2, 3, "b", Ok(&result)), "[2/3] b (cached)");
        assert_eq!(
            progress_line(3, 3, "c", Err((2, "boom"))),
            "[3/3] c FAILED (scenario 2): boom"
        );
    }

    #[test]
    fn bench_json_reports_shape_and_cache() {
        let plan = plan(2);
        let outcome = Runner::uncached(1).run(&plan);
        let doc = bench_json(&outcome);
        assert_eq!(
            doc.get("schema").unwrap().as_u64(),
            Some(BENCH_SCHEMA_VERSION)
        );
        assert_eq!(
            doc.get("matrix")
                .unwrap()
                .get("scenarios")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        assert_eq!(doc.get("jobs").unwrap().as_u64(), Some(1));
        // Events are the engine's, not the scheduler log's records.
        let scenarios = doc.get("scenarios").unwrap().as_arr().unwrap();
        for (entry, result) in scenarios.iter().zip(outcome.results.iter().flatten()) {
            let events = result.report.run_stats.events_processed;
            assert_ne!(events, result.report.events.entries().len() as u64);
            assert_eq!(entry.get("engine_events").unwrap().as_u64(), Some(events));
        }
        let rendered = doc.render();
        // The document round-trips through the parser.
        assert!(Json::parse(&rendered).is_ok());
    }
}
