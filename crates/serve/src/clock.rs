//! The wall-clock injection boundary.
//!
//! The serving tier is the one place in the workspace where real time is
//! load-bearing: request latencies, socket read deadlines, and retry
//! hints are wall-clock quantities, not simulated ones. To keep that from
//! leaking into code that must stay deterministic, this module is the
//! **only** file in `vr-serve` allowed to name [`std::time::Instant`]:
//! it declares itself a wall-clock boundary (the `vr-analyze::boundary`
//! directive below) and `vr-analyze` proves the taint property —
//! any function that transitively reaches `Instant::now` must absorb
//! the taint here or carry its own reasoned allow. Everything else in
//! the crate handles opaque [`Stopwatch`] values and plain `Duration`s,
//! so a future virtual clock for tests only has to replace this file.

// vr-analyze::boundary(wall-clock, reason = "the serving tier's only clock-injection seam: latencies, deadlines, and retry hints are real-time quantities by design")

// vr-lint::allow(wall-clock, reason = "this file is the declared boundary; see the vr-analyze directive above")
use std::time::{Duration, Instant};

/// A started timer. The rest of the crate can measure elapsed time but
/// cannot mint or compare raw instants.
#[derive(Debug, Clone, Copy)]
// vr-lint::allow(wall-clock, reason = "the boundary type wraps the raw instant so nothing else has to")
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a timer at the current wall-clock instant.
    pub fn start() -> Stopwatch {
        // vr-lint::allow(wall-clock, reason = "the one sanctioned clock read in vr-serve")
        Stopwatch(Instant::now())
    }

    /// Milliseconds elapsed since [`start`](Stopwatch::start).
    pub fn elapsed_ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }

    /// Whether more than `limit` has elapsed since the start.
    pub fn expired(&self, limit: Duration) -> bool {
        self.0.elapsed() > limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_forward_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(5));
        assert!(sw.elapsed_ms() >= 5.0 * 0.5, "{}", sw.elapsed_ms());
        assert!(sw.expired(Duration::from_millis(1)));
        assert!(!sw.expired(Duration::from_secs(3600)));
    }
}
