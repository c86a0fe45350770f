//! `scale_bench` — the scale rows of the bench gate, `BENCH_scale.json`.
//!
//! Runs a nodes × jobs grid of [`ScaleSpec`] scenarios (cluster 1 node
//! type, V-Reconfiguration, commit-aware placement, scheduler seed 7,
//! trace seed 42) from 128 nodes up to 10,000 nodes / 1,000,000 jobs.
//! This is where the O(log n) placement index earns its keep: with the
//! old full-rebuild load index the top cell does quadratic work and does
//! not finish in any reasonable time. `--out FILE` / `--check FILE` are
//! described in [`vr_bench::gate`]; CI runs
//! `scale_bench --check BENCH_scale.json`.

use std::process::ExitCode;

use vr_simcore::rng::SimRng;
use vr_workload::scale::ScaleSpec;
use vrecon::config::{PlacementMode, SimConfig};
use vrecon::policy::PolicyKind;

use vr_bench::{gate, SIM_SEED, TRACE_SEED};

/// Timed runs per row: one, as the top cell is too large for best-of-N.
const REPS: usize = 1;
/// Allowed relative `events_per_sec` drop under `--check`. Looser than
/// `engine_bench`'s 0.10, since single-run scheduler noise must fit inside.
const TOLERANCE: f64 = 0.35;
/// Where the record goes when neither `--out` nor `--check` is given.
const OUT: &str = "BENCH_scale.json";

/// The nodes × jobs grid. The first cell overlaps `engine_bench` scale;
/// the last is the thousands-of-nodes / million-job target.
const GRID: [(usize, usize); 3] = [(128, 10_000), (1024, 100_000), (10_000, 1_000_000)];

fn main() -> ExitCode {
    let cells = GRID.into_iter().map(|(nodes, jobs)| {
        let spec = ScaleSpec::new(nodes, jobs);
        let trace = spec.trace(&mut SimRng::seed_from(TRACE_SEED));
        let config = SimConfig::new(spec.cluster(), PolicyKind::VReconfiguration)
            .with_seed(SIM_SEED)
            .with_placement(PlacementMode::CommitAware);
        (config, trace)
    });
    gate::run(cells, REPS, TOLERANCE, OUT)
}
