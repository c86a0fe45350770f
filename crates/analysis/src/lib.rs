//! # vr-analysis — the paper's §5 analytical model
//!
//! Verifies simulator output against the paper's performance model and
//! encodes the conditions under which virtual reconfiguration helps:
//!
//! * [`model`] — the execution-time decomposition
//!   `T_exe = T_cpu + T_page + T_que + T_mig`, the four §5 comparison
//!   points, and the gain approximation
//!   `T_exe − T̂_exe ≈ ΔT_page + ΔT_que`.
//! * [`queueing`] — the reserved-workstation FIFO bound
//!   `g(Q_r(k)) ≤ Σ (Q_r(k) − j)·w_kj` and the SRPT ordering property.
//! * [`conditions`] — §5's three "potentially unsuccessful" predicates
//!   (light load, equal memory demands, oversized jobs).
//! * [`timeline`] — time-resolved views (queue length, reservation
//!   occupancy, blocking episodes, throughput) reconstructed from a run's
//!   scheduler event log.
//!
//! ```
//! use vr_analysis::queueing::{fifo_queue_time, reserved_queue_bound};
//!
//! // Three migrated jobs served FIFO on a reserved workstation.
//! let service = [120.0, 300.0, 80.0];
//! let exact = fifo_queue_time(&service);
//! assert_eq!(exact, 120.0 + 420.0);
//! // The §5 bound with waits equal to the service times dominates it.
//! assert!(reserved_queue_bound(&[120.0, 300.0, 80.0]) >= 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conditions;
pub mod model;
pub mod queueing;
pub mod timeline;

pub use conditions::Applicability;
pub use model::{ExecutionTimeModel, ModelCheck};
pub use queueing::{fifo_queue_time, minimizing_order, reserved_queue_bound};
pub use timeline::{
    blocked_episode_durations, cluster_blocking_episodes, completion_throughput,
    node_occupancy_timeline, pending_queue_timeline, reservation_timeline,
    reserved_queue_bound_from_log, reserved_service_episodes,
};
