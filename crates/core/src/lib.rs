//! # vrecon — adaptive and virtual cluster reconfiguration
//!
//! A reproduction of **S. Chen, L. Xiao, X. Zhang, "Adaptive and Virtual
//! Reconfigurations for Effective Dynamic Job Scheduling in Cluster
//! Systems", ICDCS 2002**: dynamic load sharing with CPU + memory
//! thresholds, detection of the *job blocking problem*, and the paper's
//! adaptive virtual-reconfiguration method that reserves lightly loaded
//! workstations to give large-memory jobs dedicated service.
//!
//! * [`policy`] — the [`Policy`] trait and one impl per family:
//!   G-Loadsharing, V-Reconfiguration, and ablation baselines.
//! * [`plugin`] — the policy registry, the one table naming every
//!   [`PolicyKind`], and the [`ParamBag`] parameter grammar.
//! * [`sim`] — the trace-driven [`Simulation`] driver.
//! * [`reservation`] — reserving periods, special service, adaptive
//!   release.
//! * [`config`] — [`SimConfig`] and reservation
//!   tunables.
//! * [`report`] — [`RunReport`] with the §4/§5
//!   measurements.
//! * [`report_json`] — lossless, deterministic JSON encoding of
//!   [`RunReport`] backing the experiment runner's result cache.
//!
//! ## Quickstart
//!
//! ```
//! use vrecon::{PolicyKind, SimConfig, Simulation};
//! use vr_cluster::params::ClusterParams;
//! use vr_simcore::rng::SimRng;
//! use vr_workload::synth;
//!
//! // A small cluster and a workload crafted to provoke the blocking problem.
//! let mut cluster = ClusterParams::cluster2();
//! cluster.nodes.truncate(8);
//! let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
//!
//! let baseline = Simulation::new(SimConfig::new(cluster.clone(), PolicyKind::GLoadSharing))
//!     .run(&trace);
//! let vrecon = Simulation::new(SimConfig::new(cluster, PolicyKind::VReconfiguration))
//!     .run(&trace);
//!
//! // Virtual reconfiguration resolves the blocking problem.
//! assert!(vrecon.avg_slowdown() <= baseline.avg_slowdown());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod compare;
pub mod config;
pub mod events;
pub mod plugin;
pub mod policy;
pub mod report;
pub mod report_json;
pub mod reservation;
pub mod sim;

pub use audit::InvariantAuditor;
pub use compare::{compare_reports, FieldDiff, ReportDiff};
pub use config::{PendingDiscipline, ReservationOptions, ReservingEnd, SimConfig};
pub use events::{EventLog, SchedulerEvent, SchedulerEventKind};
pub use plugin::{build_policy, ParamBag, PolicyEntry};
pub use policy::{Placement, Policy, PolicyKind, ResizeDirective};
pub use report::{RunReport, SchedulerCounters};
pub use report_json::{decode_report, encode_report};
pub use reservation::{Reservation, ReservationManager, ReservationPhase, ReservationStats};
pub use sim::Simulation;
