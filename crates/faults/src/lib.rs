//! Deterministic fault injection for the V-Reconfiguration simulator.
//!
//! The paper's claim is *adaptive recovery* — yet a simulator that only
//! replays clean traces never exercises the recovery paths. This crate
//! defines declarative, seeded [`FaultPlan`]s that the simulation driver
//! consults at its injection points:
//!
//! * **node crash / restart** at a configured simulation time — resident
//!   jobs are drained and re-queued by the scheduler, and the node rejects
//!   admissions until (optionally) restarted;
//! * **migration failure** with probability *p* — an in-flight transfer
//!   aborts and the scheduler retries with exponential backoff;
//! * **load-information loss** with probability *p* — a node's entry is
//!   dropped from a periodic load exchange, leaving peers with stale data;
//! * **reservation-release stall** — a reserved workstation stays reserved
//!   for a configured extra delay after the protocol releases it.
//!
//! All random draws flow through a dedicated
//! [`SimRng`](vr_simcore::rng::SimRng) stream forked from the simulation
//! seed, so faults compose with determinism: the same seed and the same
//! plan reproduce a bit-identical run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inject;
pub mod plan;

pub use inject::{FaultCounters, FaultInjector};
pub use plan::{FaultPlan, NodeCrash, PlanParseError};
