//! # vr-workload — workload substrate
//!
//! Reconstructs the paper's trace-driven workloads (§3.2–§3.3.2): the two
//! program groups of Tables 1–2, the lognormal arrival-rate generator, the
//! ten named traces (`SPEC-Trace-1..5`, `App-Trace-1..5`), synthetic
//! adversarial workloads, and a plain-text trace interchange format.
//!
//! * [`catalog`] — [`ProgramSpec`] with phase-shaped
//!   memory profiles and jittered instantiation.
//! * [`spec2000`] — workload group 1 (Table 1 reconstruction).
//! * [`apps`] — workload group 2 (Table 2 reconstruction).
//! * [`arrival`] — the paper's lognormal rate function and a Poisson
//!   process.
//! * [`trace`] — [`TraceLevel`] and trace builders.
//! * [`synth`] — adversarial workloads for §2.3 / §5 negative conditions.
//! * [`scale`] — N-node / M-job scale-out scenarios preserving the paper's
//!   arrival and working-set marginals.
//! * [`csv`] — trace round-tripping without a serde format crate.
//!
//! ```
//! use vr_simcore::rng::SimRng;
//! use vr_workload::trace::{spec_trace, TraceLevel};
//!
//! let trace = spec_trace(TraceLevel::Normal, &mut SimRng::seed_from(42));
//! assert_eq!(trace.len(), 578); // the paper's SPEC-Trace-3 job count
//! trace.validate()?;
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod arrival;
pub mod catalog;
pub mod csv;
pub mod scale;
pub mod spec2000;
pub mod synth;
pub mod trace;

pub use arrival::{BurstyArrivals, LognormalArrivals, PoissonArrivals};
pub use catalog::{PhaseShape, ProgramSpec};
pub use csv::{read_trace, write_trace, ReadTraceError};
pub use scale::ScaleSpec;
pub use trace::{app_trace, spec_trace, Trace, TraceLevel, DEFAULT_JITTER};
