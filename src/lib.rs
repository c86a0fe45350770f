//! # vrecon-repro — umbrella crate
//!
//! One-stop re-exports for the reproduction of *Chen, Xiao & Zhang,
//! "Adaptive and Virtual Reconfigurations for Effective Dynamic Job
//! Scheduling in Cluster Systems", ICDCS 2002*. See `README.md` for the
//! architecture and `DESIGN.md` for the system inventory.
//!
//! The layers, bottom-up:
//!
//! * [`simcore`] — discrete-event engine, deterministic RNG, statistics.
//! * [`cluster`] — workstations, memory/fault model, network, load index.
//! * [`workload`] — Tables 1–2 program catalogs, lognormal arrivals, the
//!   ten paper traces, synthetic adversarial workloads.
//! * [`core`] — the paper's contribution: G-Loadsharing,
//!   V-Reconfiguration, the trace-driven simulation driver.
//! * [`metrics`] — slowdowns, breakdowns, idle-memory / balance-skew
//!   gauges.
//! * [`analysis`] — the §5 analytical model.
//!
//! ```
//! use vrecon_repro::prelude::*;
//!
//! let mut cluster = ClusterParams::cluster2();
//! cluster.nodes.truncate(8);
//! let trace = synth::blocking_scenario(8, Bytes::from_mb(128));
//! let report = Simulation::new(SimConfig::new(cluster, PolicyKind::VReconfiguration))
//!     .run(&trace);
//! assert!(report.all_completed());
//! assert!(report.reservations.started > 0); // the blocking problem was hit
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use vr_analysis as analysis;
pub use vr_cluster as cluster;
pub use vr_metrics as metrics;
pub use vr_simcore as simcore;
pub use vr_workload as workload;
pub use vrecon as core;

/// The names almost every user of the library needs.
pub mod prelude {
    pub use vr_analysis::{Applicability, ExecutionTimeModel};
    pub use vr_cluster::params::ClusterParams;
    pub use vr_cluster::units::Bytes;
    pub use vr_cluster::{JobClass, JobId, JobSpec, MemoryProfile, NodeId, RunningJob};
    pub use vr_metrics::comparison::MetricComparison;
    pub use vr_simcore::rng::SimRng;
    pub use vr_simcore::time::{SimSpan, SimTime};
    pub use vr_workload::synth;
    pub use vr_workload::trace::{app_trace, spec_trace, Trace, TraceLevel};
    pub use vrecon::{
        compare_reports, PolicyKind, ReportDiff, ReservationOptions, ReservingEnd, RunReport,
        SchedulerEventKind, SimConfig, Simulation,
    };
}
