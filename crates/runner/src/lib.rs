//! # vr-runner — experiment orchestration
//!
//! The sweep engine behind the bench binaries (`experiments`,
//! `ablation`, `robustness`): runs many independent, deterministic
//! simulations in parallel without sacrificing reproducibility.
//!
//! * [`scenario`] — [`Scenario`] descriptors (cluster + trace + policy +
//!   seed + fault plan) with a stable 128-bit content hash, and ordered
//!   [`SweepPlan`]s.
//! * [`pool`] — a dependency-free thread pool on [`std::thread::scope`]
//!   whose workers take items from one atomic cursor, with per-item panic
//!   isolation and input-ordered results.
//! * [`cache`] — a content-addressed on-disk [`ResultCache`]
//!   (`.vr-cache/<hash>.json`) with hit/miss accounting and atomic
//!   writes.
//! * [`runner`] — the [`Runner`] tying it together on the pool's workers
//!   alone (each prints its own progress line), plus the
//!   `BENCH_sweep.json` writer.
//!
//! The contract throughout: **results are ordered by scenario index, not
//! completion order**, so any table printed from a sweep is bit-identical
//! whether it ran on one worker or sixteen.
//!
//! ```
//! use std::sync::Arc;
//! use vr_cluster::{params::ClusterParams, units::Bytes};
//! use vr_runner::{Runner, Scenario, SweepPlan};
//! use vrecon::{PolicyKind, SimConfig};
//!
//! let mut cluster = ClusterParams::cluster2();
//! cluster.nodes.truncate(2);
//! let trace = Arc::new(vr_workload::synth::blocking_scenario(2, Bytes::from_mb(64)));
//! let plan: SweepPlan = [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration]
//!     .into_iter()
//!     .map(|p| Scenario::new(SimConfig::new(cluster.clone(), p).with_seed(7), Arc::clone(&trace)))
//!     .collect();
//!
//! let outcome = Runner::uncached(2).run(&plan);
//! let reports = outcome.expect_reports();
//! assert_eq!(reports.len(), 2);
//! assert_eq!(reports[0].policy, PolicyKind::GLoadSharing);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod pool;
pub mod runner;
pub mod scenario;

pub use cache::{default_cache_dir, CacheStats, ResultCache};
pub use pool::{effective_workers, panic_message, run_indexed, PoolOutcome};
pub use runner::{
    bench_json, write_bench_json, Runner, ScenarioResult, SweepOptions, SweepOutcome,
};
pub use scenario::{Scenario, SweepPlan, SCENARIO_HASH_VERSION};
