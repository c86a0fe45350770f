//! `engine_bench` — the engine rows of the bench gate, `BENCH_engine.json`.
//!
//! Seven rows on cluster 1 (scheduler seed 7, trace seed 42, the CLI's
//! defaults): the five `vrecon trace spec --level N` scenarios under
//! V-Reconfiguration, then the malleable and fractional families on the
//! level-3 (Normal) trace. Each row is the best of three untraced runs.
//! `--out FILE` / `--check FILE` are described in [`vr_bench::gate`]; CI
//! runs `engine_bench --check BENCH_engine.json`.

use std::process::ExitCode;

use vr_cluster::job::MalleableSpec;
use vr_cluster::params::ClusterParams;
use vr_simcore::rng::SimRng;
use vr_workload::trace::{spec_trace_scaled, Trace, TraceLevel, SPEC_LIFETIME_SCALE};
use vrecon::config::SimConfig;
use vrecon::plugin::ParamBag;
use vrecon::policy::PolicyKind;

use vr_bench::{gate, SIM_SEED, TRACE_SEED};

/// Timed runs per row; the shortest wall time wins, which filters
/// scheduler noise without averaging in cold-cache outliers.
const REPS: usize = 3;
/// Allowed relative `events_per_sec` drop under `--check`.
const TOLERANCE: f64 = 0.10;
/// Where the record goes when neither `--out` nor `--check` is given.
const OUT: &str = "BENCH_engine.json";

fn scenario(level: TraceLevel, policy: PolicyKind, params: ParamBag) -> (SimConfig, Trace) {
    let mut trace = spec_trace_scaled(
        level,
        &mut SimRng::seed_from(TRACE_SEED),
        SPEC_LIFETIME_SCALE,
    );
    if policy == PolicyKind::Malleable {
        // Every other job gets a `1..=2` width range, so the resize hook
        // has material to work with.
        for job in trace.jobs.iter_mut().step_by(2) {
            job.malleable = Some(MalleableSpec {
                min_width: 1,
                max_width: 2,
            });
        }
    }
    let config = SimConfig::new(ClusterParams::cluster1(), policy)
        .with_policy_params(params)
        .with_seed(SIM_SEED);
    (config, trace)
}

fn main() -> ExitCode {
    let levels = TraceLevel::ALL
        .into_iter()
        .map(|level| scenario(level, PolicyKind::VReconfiguration, ParamBag::new()));
    let families = [
        (
            PolicyKind::Malleable,
            ParamBag::new().with("max_step", 1u32),
        ),
        (PolicyKind::Fractional, ParamBag::new().with("oversub", 1.5)),
    ]
    .into_iter()
    .map(|(policy, params)| scenario(TraceLevel::Normal, policy, params));
    gate::run(levels.chain(families), REPS, TOLERANCE, OUT)
}
