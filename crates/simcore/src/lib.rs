//! # vr-simcore — discrete-event simulation substrate
//!
//! The foundation layer of the ICDCS 2002 *Adaptive and Virtual
//! Reconfigurations* reproduction: everything a trace-driven cluster
//! simulator needs that is not cluster-specific.
//!
//! * [`time`] — fixed-point [`SimTime`] /
//!   [`SimSpan`] microsecond clock types.
//! * [`event`] — deterministic, cancellable
//!   [`EventQueue`] ordered by `(time, seq)`.
//! * [`engine`] — the [`Engine`] loop driving a
//!   [`World`].
//! * [`rng`] — seeded [`SimRng`] with normal / lognormal /
//!   exponential samplers (rand 0.8 ships none).
//! * [`stats`] — Welford accumulators, percentiles, and the paper's
//!   reduction-percentage metric.
//! * [`histogram`] — fixed-bucket histograms for heavy-tailed slowdown
//!   distributions.
//! * [`series`] — sampled time series for idle-memory / job-balance gauges.
//! * [`jsonio`] — dependency-free JSON document model with lossless number
//!   round-trips, backing the result cache and sweep telemetry files.
//! * [`hash`] — stable FNV-1a 128-bit content hashing for cache keys.
//! * [`bitset`] — dense [`BitSet`] id sets with ascending iteration, the
//!   simulation driver's per-node sweep sets.
//!
//! Determinism is the load-bearing property: identical seeds produce
//! identical event orders, draws, and therefore identical simulation reports.
//!
//! ```
//! use vr_simcore::engine::{Engine, Scheduler, World};
//! use vr_simcore::time::{SimSpan, SimTime};
//!
//! struct Countdown(u32);
//!
//! impl World for Countdown {
//!     type Event = u32;
//!     fn handle(&mut self, sched: &mut Scheduler<'_, u32>, left: u32) {
//!         self.0 = left;
//!         if left > 0 {
//!             sched.schedule_in(SimSpan::from_millis(10), left - 1);
//!         }
//!     }
//! }
//!
//! let mut world = Countdown(u32::MAX);
//! let mut engine = Engine::new();
//! engine.scheduler().schedule_at(SimTime::ZERO, 3);
//! engine.run_until(&mut world, SimTime::MAX);
//! assert_eq!(world.0, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod engine;
pub mod event;
pub mod hash;
pub mod histogram;
pub mod jsonio;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use bitset::BitSet;
pub use engine::{Engine, EventHook, RunStats, Scheduler, World};
pub use event::{EventHandle, EventQueue};
pub use hash::{fnv1a128, hex128, Fnv128};
pub use histogram::{slowdown_histogram, Histogram};
pub use jsonio::Json;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::{percentile, reduction_pct, OnlineStats, Summary};
pub use time::{SimSpan, SimTime};
