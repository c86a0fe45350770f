//! # vr-metrics — measurement and reporting
//!
//! Everything the paper's §4 measures, computed from simulator state:
//!
//! * [`summary`] — [`WorkloadSummary`]: the §5
//!   execution-time totals (`T_cpu + T_page + T_que + T_mig`), average /
//!   median / p95 slowdowns, migration counts.
//! * [`sampler`] — [`ClusterGauges`]: the 1-second
//!   idle-memory volume and job-balance-skew series of §4.1–§4.2.
//! * [`comparison`] — paired G-LS vs V-R metrics with the paper's
//!   reduction-percentage convention.
//! * [`fairness`] — Jain's index and worst-to-mean ratios over per-job
//!   slowdowns (the §2.2 fairness constraint).
//! * [`table`] — fixed-width / CSV rendering for the figure binaries.
//! * [`throughput`] — [`ThroughputSummary`]: simulator events/second
//!   accounting for the experiment runner's `BENCH_sweep.json` record.
//!
//! ```
//! use vr_metrics::comparison::MetricComparison;
//!
//! let queue_time = MetricComparison::new(3600.0, 2278.8);
//! assert!((queue_time.reduction() - 36.7).abs() < 0.01); // SPEC-Trace-3, Fig. 1
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod comparison;
pub mod fairness;
pub mod sampler;
pub mod summary;
pub mod table;
pub mod throughput;

pub use comparison::MetricComparison;
pub use fairness::{jain_index, worst_to_mean};
pub use sampler::{balance_skew, ClusterGauges};
pub use summary::WorkloadSummary;
pub use table::TextTable;
pub use throughput::ThroughputSummary;
