//! The sweep orchestrator: cache → pool → telemetry → BENCH report.
//!
//! [`Runner::run`] executes a [`SweepPlan`] on the work-stealing pool,
//! consulting the content-addressed [`ResultCache`] per scenario and
//! streaming [`SweepEvent`]s to a renderer thread. Results come back in
//! **plan order** whatever the completion order, so any figure table
//! printed from a [`SweepOutcome`] is bit-identical across `--jobs`
//! settings — determinism under parallelism is the contract, not an
//! accident.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use vr_simcore::jsonio::Json;
use vrecon::RunReport;

use crate::cache::{CacheStats, ResultCache};
use crate::pool::{effective_workers, run_indexed};
use crate::scenario::{Scenario, SweepPlan};
use crate::telemetry::{drain_progress, render_progress, SweepEvent};

/// Knobs for one sweep execution.
#[derive(Debug)]
pub struct SweepOptions {
    /// Worker threads; `0` selects [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// Result cache (use [`ResultCache::disabled`] for `--no-cache`).
    pub cache: ResultCache,
    /// Render live progress lines to stderr.
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
    /// One-shot warnings surfaced via telemetry (cache write failures,
    /// export errors), in arrival order.
    pub notes: Vec<String>,
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
        let (tx, rx) = mpsc::channel::<SweepEvent>();
        let total = plan.len();
        let progress = self.options.progress;
        let renderer = std::thread::spawn(move || {
            if progress {
                // Hand the renderer the *unlocked* handle: it locks per
                // `writeln!`. Passing `stderr().lock()` here pinned the
                // global stderr lock for the whole sweep, so any worker
                // `eprintln!` (panic reports included) would deadlock
                // against a renderer that never yields the lock.
                render_progress(rx, total, std::io::stderr())
            } else {
                drain_progress(rx)
            }
        });

        let started = Instant::now();
        let pooled = run_indexed(&plan.scenarios, jobs, |index, scenario: &Scenario| {
            let _ = tx.send(SweepEvent::Started {
                index,
                label: scenario.label.clone(),
            });
            let t0 = Instant::now();
            let hash = scenario.content_hash();
            let (report, cache_hit) = match cache.lookup(&hash) {
                Some(report) => (report, true),
                None => {
                    let report = scenario.run();
                    if let Err((path, error)) = cache.store(&hash, &report) {
                        let _ = tx.send(SweepEvent::Note(format!(
                            "result cache write failed at {}: {error}",
                            path.display()
                        )));
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
            let _ = tx.send(SweepEvent::Finished {
                index,
                label: result.label.clone(),
                wall: result.wall,
                cache_hit,
                events_per_sec: result.events_per_sec(),
            });
            result
        });
        let wall = started.elapsed();

        for (index, message) in &pooled.panics {
            let _ = tx.send(SweepEvent::Failed {
                index: *index,
                label: plan.scenarios[*index].label.clone(),
                message: message.clone(),
            });
        }
        drop(tx);
        // vr-lint::allow(panic-in-lib, reason = "the telemetry renderer only panics if stderr writes fail; propagating the panic is the only sane handling")
        let notes = renderer.join().expect("telemetry renderer panicked");

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
            notes,
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
