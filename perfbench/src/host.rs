//! The host-speed probe: a fixed kernel that belongs to the benchmark,
//! timed between passes, so that time-based end-to-end metrics can be
//! stated on a reference host.
//!
//! The VM these figures come from shares its cores with other tenants,
//! and its speed drifts by a third or more over minutes as they load the
//! machine. That is longer than a run, so no estimator over a run's own
//! passes removes it. The probe is a binary-heap event loop over a node
//! table, with a random walk through a 1 MiB index, the shape of the
//! simulator's inner loop. Its data is built once, and a timed probe
//! allocates nothing, so no change to the program under test can move
//! it, while host drift moves it about as much as the workloads. A run
//! reports `setup_s` and `jobs_per_s` scaled by the median probe time of
//! that run against [`REFERENCE_MS`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::Mark;
use crate::stats;

/// The probe's median time on the reference host, a 2-vCPU Intel Xeon
/// VM at 2.1 GHz in a quiet period. Rescaling a run's metrics to it
/// leaves them near what that host measures.
pub const REFERENCE_MS: f64 = 15.0;
/// Heap events per probe.
const EVENTS: usize = 150_000;
/// Entries in the node table and the heap.
const NODES: usize = 4096;
/// Entries in the index the probe walks (4 bytes each).
const WALK: usize = 1 << 18;
/// Probes per thread per [`HostProbe::sample`].
const SLICES: usize = 3;

/// The probe's data and the times it has measured. It keeps two copies
/// of the kernel's data, one for the calling thread and one for a thread
/// it spawns, which the scheduler puts on the other vCPU while the
/// caller waits; a workload's own threads run on either.
#[derive(Debug)]
pub struct HostProbe {
    kernels: [Kernel; 2],
    times_ms: Vec<f64>,
}

/// One copy of the kernel's data.
#[derive(Debug)]
struct Kernel {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    nodes: Vec<[f64; 8]>,
    walk: Vec<u32>,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Kernel {
    fn new() -> Kernel {
        // A single random cycle (Sattolo's shuffle) over the index.
        let mut walk: Vec<u32> = (0..WALK as u32).collect();
        let mut state = 99;
        for i in (1..WALK).rev() {
            let j = (xorshift(&mut state) % i as u64) as usize;
            walk.swap(i, j);
        }
        Kernel {
            heap: BinaryHeap::with_capacity(NODES),
            nodes: vec![[0.0; 8]; NODES],
            walk,
        }
    }

    /// One probe's time in ms.
    fn timed(&mut self) -> f64 {
        let started = Mark::now();
        std::hint::black_box(self.run());
        started.elapsed_s() * 1e3
    }

    /// One probe: the same work every time.
    fn run(&mut self) -> f64 {
        let mut state = 5;
        self.heap.clear();
        for (id, node) in self.nodes.iter_mut().enumerate() {
            *node = [0.0; 8];
            self.heap
                .push(Reverse((xorshift(&mut state) % 1000, id as u32)));
        }
        let mut at = 0u32;
        for _ in 0..EVENTS {
            let Some(Reverse((when, id))) = self.heap.pop() else {
                break;
            };
            at = self.walk[(at ^ id) as usize];
            let node = &mut self.nodes[at as usize % NODES];
            for gauge in node.iter_mut() {
                *gauge = *gauge * 0.9 + when as f64;
            }
            let next = (id as usize * 7 + 1) % NODES;
            let delay = 1 + xorshift(&mut state) % 1000;
            self.heap.push(Reverse((when + delay, next as u32)));
        }
        self.nodes[(at as usize) % NODES][0]
    }
}

impl HostProbe {
    /// Builds the probe's data; nothing is timed yet.
    pub fn new() -> HostProbe {
        HostProbe {
            kernels: [Kernel::new(), Kernel::new()],
            times_ms: Vec::new(),
        }
    }

    /// Times [`SLICES`] probes on this thread and as many on a spawned
    /// one.
    pub fn sample(&mut self) {
        let [here, there] = &mut self.kernels;
        for _ in 0..SLICES {
            self.times_ms.push(here.timed());
            let spawned = std::thread::scope(|s| s.spawn(|| there.timed()).join());
            // A probe thread cannot fail; if it did, the sample is lost.
            if let Ok(ms) = spawned {
                self.times_ms.push(ms);
            }
        }
    }

    /// Median probe time in ms (`NaN` before the first sample).
    pub fn median_ms(&self) -> f64 {
        if self.times_ms.is_empty() {
            f64::NAN
        } else {
            stats::median(&self.times_ms)
        }
    }
}

/// `value`, measured in `unit` on a host whose median probe took
/// `probe_ms`, restated on the reference host: a time in seconds scales
/// by reference ÷ probe, a rate per second by probe ÷ reference, and any
/// other unit is unchanged.
pub fn to_reference(unit: &str, value: f64, probe_ms: f64) -> f64 {
    match unit {
        "s" => value * REFERENCE_MS / probe_ms,
        "1/s" => value * probe_ms / REFERENCE_MS,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_and_rates_scale_in_opposite_directions() {
        // A host twice as slow as the reference: its probe takes twice as
        // long, so a time halves and a rate doubles.
        let slow = 2.0 * REFERENCE_MS;
        assert_eq!(to_reference("s", 4.0, slow), 2.0);
        assert_eq!(to_reference("1/s", 100.0, slow), 200.0);
        assert_eq!(to_reference("MB", 30.0, slow), 30.0);
        assert_eq!(to_reference("ratio", 1.0, slow), 1.0);
        assert_eq!(to_reference("s", 4.0, REFERENCE_MS), 4.0);
    }

    #[test]
    fn the_probe_repeats_its_work_and_records_each_slice() {
        let mut probe = HostProbe::new();
        let first = probe.kernels[0].run();
        assert_eq!(probe.kernels[0].run(), first);
        assert_eq!(probe.kernels[1].run(), first);
        assert!(probe.median_ms().is_nan());
        probe.sample();
        assert_eq!(probe.times_ms.len(), 2 * SLICES);
        assert!(probe.median_ms() > 0.0);
    }
}
