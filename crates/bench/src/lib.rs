//! # vr-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§3–§4)
//! and checks the §5 model. `table1`, `table2` and `ablation` each print
//! one artifact; `experiments` prints the whole G-Loadsharing vs
//! V-Reconfiguration matrix from one 20-scenario sweep.
//!
//! | Binary        | Paper artifact |
//! |---------------|----------------|
//! | `table1`      | Table 1 — SPEC 2000 program characteristics |
//! | `table2`      | Table 2 — application program characteristics |
//! | `experiments` | Figures 1–4 (all eight panels), the §4.1/§4.2 sampling-interval tables, a paper-vs-measured summary, the V-R runs' reconfiguration activity, and §5 — the analytical model checked on every pair; as markdown |
//! | `ablation`    | §2.2/§2.3 — negative conditions & design ablations |
//!
//! Beyond the paper's evaluation, two binaries share one bench gate
//! ([`gate`]): `engine_bench` replays the five trace levels under
//! V-Reconfiguration, plus the malleable and fractional families on the
//! Normal trace, into the seven rows of `BENCH_engine.json`, and
//! `scale_bench` measures a nodes × jobs grid (up to 10,000 nodes /
//! 1,000,000 jobs) into the three rows of `BENCH_scale.json`. Both take
//! `--out FILE` and `--check FILE`. `robustness` sweeps fault intensities
//! with the invariant auditor on.
//!
//! The overhead claim ("the adaptive process causes little additional
//! overhead") rests on the per-scenario `wall_secs` of both policies in
//! the `experiments` sweep record and on the root crate's
//! `claim_adaptive_process_is_cheap` test.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gate;
pub mod paper;
pub mod render;

use std::path::PathBuf;
use std::sync::Arc;

use vr_cluster::params::ClusterParams;
use vr_metrics::comparison::MetricComparison;
use vr_runner::{ResultCache, Runner, Scenario, ScenarioResult, SweepOptions, SweepPlan};
use vr_simcore::rng::SimRng;
use vr_workload::trace::{app_trace, spec_trace, Trace, TraceLevel};
use vrecon::config::SimConfig;
use vrecon::policy::PolicyKind;
use vrecon::report::RunReport;

/// Seed used to regenerate the workload traces (fixed so every binary sees
/// the same ten traces).
pub const TRACE_SEED: u64 = 42;

/// Seed used for scheduling randomness inside the simulator.
pub const SIM_SEED: u64 = 7;

/// The two workload groups of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Workload group 1: SPEC 2000 on cluster 1 (384 MB nodes).
    Spec,
    /// Workload group 2: scientific applications on cluster 2 (128 MB
    /// nodes).
    App,
}

impl Group {
    /// The cluster this group runs on.
    pub fn cluster(self) -> ClusterParams {
        match self {
            Group::Spec => ClusterParams::cluster1(),
            Group::App => ClusterParams::cluster2(),
        }
    }

    /// Regenerates this group's trace at `level`.
    pub fn trace(self, level: TraceLevel) -> Trace {
        let mut rng = SimRng::seed_from(TRACE_SEED);
        match self {
            Group::Spec => spec_trace(level, &mut rng),
            Group::App => app_trace(level, &mut rng),
        }
    }
}

/// A G-Loadsharing / V-Reconfiguration pair of runs over one trace.
#[derive(Debug)]
pub struct PolicyPair {
    /// The trace both policies executed.
    pub trace_name: String,
    /// Baseline run.
    pub gls: RunReport,
    /// Virtual-reconfiguration run.
    pub vr: RunReport,
}

impl PolicyPair {
    /// Comparison of total execution times.
    pub fn execution_time(&self) -> MetricComparison {
        MetricComparison::new(
            self.gls.total_execution_secs(),
            self.vr.total_execution_secs(),
        )
    }

    /// Comparison of total queuing times.
    pub fn queue_time(&self) -> MetricComparison {
        MetricComparison::new(self.gls.total_queue_secs(), self.vr.total_queue_secs())
    }

    /// Comparison of average slowdowns.
    pub fn slowdown(&self) -> MetricComparison {
        MetricComparison::new(self.gls.avg_slowdown(), self.vr.avg_slowdown())
    }

    /// Comparison of average idle memory volumes (MB, virtual cluster).
    pub fn idle_memory(&self) -> MetricComparison {
        MetricComparison::new(self.gls.avg_idle_memory_mb(), self.vr.avg_idle_memory_mb())
    }

    /// Comparison of average job balance skews.
    pub fn balance_skew(&self) -> MetricComparison {
        MetricComparison::new(self.gls.avg_balance_skew(), self.vr.avg_balance_skew())
    }
}

/// The full sweep plan of one workload group: five arrival levels × two
/// policies, level-major, G-Loadsharing before V-Reconfiguration, each
/// pair sharing its regenerated trace.
pub fn group_plan(group: Group) -> SweepPlan {
    let mut plan = SweepPlan::new();
    for level in TraceLevel::ALL {
        let trace = Arc::new(group.trace(level));
        for policy in [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration] {
            plan.push(Scenario::new(
                SimConfig::new(group.cluster(), policy).with_seed(SIM_SEED),
                Arc::clone(&trace),
            ));
        }
    }
    plan
}

/// Reassembles the results of a plan built by [`group_plan`] (or any
/// concatenation of such plans) into policy pairs.
///
/// # Panics
///
/// Panics if a scenario failed or the result count is odd.
pub fn pairs_from_results(results: Vec<Option<ScenarioResult>>) -> Vec<PolicyPair> {
    let mut reports: Vec<RunReport> = results
        .into_iter()
        // vr-lint::allow(panic-in-lib, reason = "bench harness treats a failed sweep scenario as fatal; the panic carries the scenario error")
        .map(|slot| slot.expect("sweep scenario failed").report)
        .collect();
    assert!(
        reports.len().is_multiple_of(2),
        "policy-pair sweeps have an even scenario count"
    );
    let mut pairs = Vec::with_capacity(reports.len() / 2);
    while !reports.is_empty() {
        let gls = reports.remove(0);
        let vr = reports.remove(0);
        assert_eq!(gls.policy, PolicyKind::GLoadSharing);
        assert_eq!(vr.policy, PolicyKind::VReconfiguration);
        pairs.push(PolicyPair {
            trace_name: gls.trace_name.clone(),
            gls,
            vr,
        });
    }
    pairs
}

/// Common options every bench binary accepts on its command line:
/// `--jobs N` (0 = auto) and `--no-cache`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchArgs {
    /// Worker threads for the sweep pool (0 = available parallelism).
    pub jobs: usize,
    /// Disable the content-addressed result cache.
    pub no_cache: bool,
}

impl BenchArgs {
    /// Parses the process arguments, exiting with usage on anything
    /// unrecognised (bench binaries have no other options).
    pub fn from_env() -> BenchArgs {
        let mut out = BenchArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) => out.jobs = n,
                    None => die("--jobs requires an integer value"),
                },
                "--no-cache" => out.no_cache = true,
                other => die(&format!(
                    "unknown argument {other}; supported: --jobs N, --no-cache"
                )),
            }
        }
        out
    }

    /// Builds the sweep runner these options describe. `progress` makes
    /// each worker print a `[done/total] label (…)` line on stderr as it
    /// finishes a scenario.
    pub fn runner(&self, progress: bool) -> Runner {
        let cache = if self.no_cache {
            ResultCache::disabled()
        } else {
            ResultCache::at(vr_runner::default_cache_dir())
        };
        Runner::new(SweepOptions {
            jobs: self.jobs,
            cache,
            progress,
        })
    }
}

/// Prints a loud stderr warning for every horizon-truncated result in a
/// sweep (`run_stats.drained == false`: the run hit `max_sim_time` with
/// events still queued, so its measurements are truncated, not converged).
/// Returns the number of truncated runs so callers can flag the artifact.
pub fn warn_truncated<'a, I: IntoIterator<Item = &'a ScenarioResult>>(results: I) -> usize {
    let mut truncated = 0;
    for result in results {
        if !result.report.run_stats.drained {
            truncated += 1;
            eprintln!(
                "WARNING: horizon-truncated run [{}]: stopped at max-sim-time ({:.0}s) with \
                 events still queued after {} events — measurements are truncated, not converged",
                result.label,
                result.report.run_stats.final_time.as_secs_f64(),
                result.report.run_stats.events_processed,
            );
        }
    }
    truncated
}

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Resolves `VR_RESULTS_DIR`, creating it. `Ok(None)` when unset.
///
/// # Errors
///
/// Returns an error if the directory cannot be created — bench binaries
/// treat that as fatal rather than silently producing no CSVs.
pub fn results_dir() -> Result<Option<PathBuf>, String> {
    let Some(dir) = std::env::var_os("VR_RESULTS_DIR") else {
        return Ok(None);
    };
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create VR_RESULTS_DIR {}: {e}", dir.display()))?;
    Ok(Some(dir))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_stable_across_calls() {
        let a = Group::Spec.trace(TraceLevel::Light);
        let b = Group::Spec.trace(TraceLevel::Light);
        assert_eq!(a, b);
        assert_eq!(a.len(), 359);
    }

    #[test]
    fn groups_map_to_their_clusters() {
        assert_eq!(
            Group::Spec.cluster().nodes[0].memory.user,
            vr_cluster::units::Bytes::from_mb(384)
        );
        assert_eq!(
            Group::App.cluster().nodes[0].memory.user,
            vr_cluster::units::Bytes::from_mb(128)
        );
    }
}
