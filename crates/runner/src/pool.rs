//! A small thread pool for embarrassingly parallel sweeps.
//!
//! The offline build environment ships no rayon or crossbeam, so this is a
//! dependency-free pool built on [`std::thread::scope`]:
//!
//! * work items are *indices* into the caller's slice, handed out in
//!   input order from one shared atomic cursor — sweep items are coarse
//!   (a whole simulation each), so a worker that finishes early simply
//!   takes the next index, and there is nothing to steal or rebalance;
//! * each item runs under [`std::panic::catch_unwind`], so one panicking
//!   scenario fails only that scenario: remaining items still execute,
//!   the pool still joins, and the panic message is reported per-index;
//! * each worker returns its `(index, result)` pairs through its join
//!   handle and the caller drops them into a slot per index, so output
//!   order is the **input order**, never the completion order — the
//!   cornerstone of determinism under parallelism.
//!
//! No work is spawned after start, so idle workers simply exit once the
//! cursor passes the last index; there is no lock, parking or wake-up
//! protocol to get wrong.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The result slots and failures of one pool execution.
#[derive(Debug)]
pub struct PoolOutcome<R> {
    /// One slot per input item, in input order. `None` iff that item's
    /// closure panicked.
    pub results: Vec<Option<R>>,
    /// `(index, panic message)` for every item that panicked, in index
    /// order.
    pub panics: Vec<(usize, String)>,
}

/// Clamps a requested worker count to something sensible for `len` items.
///
/// `0` means "auto": [`std::thread::available_parallelism`] (or 1 if even
/// that is unavailable). The result never exceeds the item count and is
/// never zero.
pub fn effective_workers(requested: usize, len: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = if requested == 0 { auto } else { requested };
    workers.clamp(1, len.max(1))
}

/// Runs `work(index, &items[index])` for every item on `jobs` workers and
/// returns results in input order.
///
/// `jobs == 0` selects [`std::thread::available_parallelism`]. With
/// `jobs == 1` items execute on one worker thread in exact input order —
/// the sequential reference that parallel runs must match bit-for-bit.
pub fn run_indexed<T, R, F>(items: &[T], jobs: usize, work: F) -> PoolOutcome<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = effective_workers(jobs, items.len());
    let cursor = AtomicUsize::new(0);
    let finished: Vec<Vec<(usize, Result<R, String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else {
                            return done;
                        };
                        let result = catch_unwind(AssertUnwindSafe(|| work(index, item)))
                            .map_err(|payload| panic_message(payload.as_ref()));
                        done.push((index, result));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            // vr-lint::allow(panic-in-lib, reason = "every item runs under catch_unwind, so a worker thread itself never panics")
            .map(|handle| handle.join().expect("pool worker panicked outside an item"))
            .collect()
    });

    let mut slots: Vec<Option<Result<R, String>>> = items.iter().map(|_| None).collect();
    for (index, result) in finished.into_iter().flatten() {
        slots[index] = Some(result);
    }
    let mut results = Vec::with_capacity(items.len());
    let mut panics = Vec::new();
    for (index, slot) in slots.into_iter().enumerate() {
        // vr-lint::allow(panic-in-lib, reason = "the cursor hands out each index exactly once, so every slot is filled")
        match slot.expect("every index was claimed exactly once") {
            Ok(r) => results.push(Some(r)),
            Err(message) => {
                results.push(None);
                panics.push((index, message));
            }
        }
    }
    PoolOutcome { results, panics }
}

/// Extracts a readable message from a panic payload. Public so other
/// executors (the `vr-serve` simulation workers) isolate panics the same
/// way this pool does.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ok<R>(out: PoolOutcome<R>) -> Vec<R> {
        assert!(out.panics.is_empty(), "{:?}", out.panics);
        out.results.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn results_are_in_input_order_for_any_worker_count() {
        let items: Vec<usize> = (0..37).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let started = AtomicUsize::new(0);
            let out = run_indexed(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                // One worker also *runs* the items in input order.
                let nth = started.fetch_add(1, Ordering::Relaxed);
                assert!(jobs > 1 || nth == i, "item {i} ran {nth}th");
                x * 2
            });
            assert_eq!(all_ok(out), (0..37).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        let out = run_indexed(&[1, 2, 3], 0, |_, &x| x);
        assert_eq!(all_ok(out), vec![1, 2, 3]);
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(16, 3), 3);
        assert_eq!(effective_workers(2, 0), 1);
    }

    #[test]
    fn every_item_runs_exactly_once_on_eight_workers() {
        let runs: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..1000).collect();
        let out = run_indexed(&items, 8, |i, &x| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            x + 1
        });
        assert_eq!(all_ok(out), (1..=1000).collect::<Vec<_>>());
        for (i, count) in runs.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn panicking_items_fail_alone_without_deadlock() {
        let ran = AtomicUsize::new(0);
        let items: Vec<usize> = (0..20).collect();
        let out = run_indexed(&items, 4, |_, &x| {
            ran.fetch_add(1, Ordering::Relaxed);
            assert!(x != 7 && x != 13, "boom at {x}");
            x
        });
        // All 20 items ran despite the panics at indices 7 and 13…
        assert_eq!(ran.load(Ordering::Relaxed), 20);
        // …and only those failed, in index order, messages preserved.
        let failed: Vec<usize> = out.panics.iter().map(|(i, _)| *i).collect();
        assert_eq!(failed, vec![7, 13]);
        assert!(out.panics[0].1.contains("boom at 7"), "{:?}", out.panics);
        assert!(out.results[7].is_none() && out.results[13].is_none());
        assert_eq!(out.results.iter().flatten().count(), 18);
    }

    #[test]
    fn a_slow_item_does_not_hold_up_the_rest() {
        // One slow item at the head; the other worker must take the rest
        // meanwhile, and results still come back in input order.
        let items: Vec<u64> = (0..10).collect();
        let out = run_indexed(&items, 2, |_, &x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            x
        });
        assert_eq!(all_ok(out), items);
    }
}
