//! The benchmark's wall-clock boundary.
//!
//! Host time is what the benchmark measures, but the workspace's
//! analyzers keep raw clock reads out of everything except declared
//! boundaries. This module is the only file here that names
//! [`std::time::Instant`]; the rest of the benchmark handles opaque
//! [`Mark`] values.

// vr-analyze::boundary(wall-clock, reason = "a benchmark measures host time by definition; every timing in perfbench goes through Mark")

// vr-lint::allow(wall-clock, reason = "this file is the declared boundary; see the vr-analyze directive above")
use std::time::Instant;

/// A point in wall-clock time.
#[derive(Debug, Clone, Copy)]
// vr-lint::allow(wall-clock, reason = "the boundary type wraps the raw instant so nothing else has to")
pub struct Mark(Instant);

impl Mark {
    /// The current instant.
    pub fn now() -> Mark {
        // vr-lint::allow(wall-clock, reason = "the one clock read in perfbench")
        Mark(Instant::now())
    }

    /// Seconds from `earlier` to this mark; 0 if `earlier` is later.
    pub fn secs_since(&self, earlier: Mark) -> f64 {
        self.0.saturating_duration_since(earlier.0).as_secs_f64()
    }

    /// Seconds elapsed since this mark.
    pub fn elapsed_s(&self) -> f64 {
        Mark::now().secs_since(*self)
    }
}
