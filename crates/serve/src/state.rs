//! Shared server state: counters, the in-memory hot tier, and the
//! in-flight table that powers request coalescing.
//!
//! Everything here is deliberately boring concurrency: `BTreeMap`s under
//! single `Mutex`es and relaxed atomics for counters. The request rate a
//! scheduling what-if service sees is bounded by simulation time, not
//! lock throughput, so clarity wins. Poisoned locks are impossible in
//! practice (no panics while holding them) but are recovered with
//! [`PoisonError::into_inner`] anyway: a counter or cache tier is still
//! valid after an unwinding writer, and a serving loop must not die to a
//! secondary panic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Monotonic request counters, all relaxed: they are reporting, not
/// synchronisation.
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests fully read off a socket (any method, any outcome).
    pub requests: AtomicU64,
    /// `/run` answered from the in-memory hot tier.
    pub hot_hits: AtomicU64,
    /// `/run` answered from the on-disk result cache.
    pub disk_hits: AtomicU64,
    /// Simulations actually executed by a worker.
    pub sims_executed: AtomicU64,
    /// `/run` requests that joined an in-flight simulation instead of
    /// starting their own.
    pub coalesced: AtomicU64,
    /// `/run` requests refused with 503 because the in-flight table was
    /// full.
    pub overloads: AtomicU64,
    /// Connections refused with 429 before reading the request.
    pub rejected_conns: AtomicU64,
    /// Requests answered with a 4xx for being malformed (parse errors,
    /// bad specs, wrong method/path).
    pub bad_requests: AtomicU64,
    /// Requests that timed out mid-read (408).
    pub timeouts: AtomicU64,
}

impl Counters {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// The in-memory hot tier: the most recently used response bodies, keyed
/// by scenario content hash. A body is one `Arc<str>` shared by the tier,
/// the in-flight [`Slot`] that produced it and every response that sends
/// it, so a hit hands out a reference and copies none of the report, under
/// the lock or on the way to the socket.
#[derive(Debug)]
pub struct HotTier {
    cap: usize,
    inner: Mutex<HotInner>,
}

#[derive(Debug, Default)]
struct HotInner {
    /// Recency stamp source; bumped on every touch.
    seq: u64,
    /// hash → (recency stamp, body).
    by_hash: BTreeMap<String, (u64, Arc<str>)>,
    /// recency stamp → hash, for O(log n) victim selection.
    order: BTreeMap<u64, String>,
}

impl HotTier {
    /// A tier holding at most `cap` bodies (`cap == 0` disables it).
    pub fn new(cap: usize) -> HotTier {
        HotTier {
            cap,
            inner: Mutex::new(HotInner::default()),
        }
    }

    /// Looks a hash up, refreshing its recency on hit.
    pub fn get(&self, hash: &str) -> Option<Arc<str>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.seq += 1;
        let stamp = inner.seq;
        let entry = inner.by_hash.get_mut(hash)?;
        let old = std::mem::replace(&mut entry.0, stamp);
        let body = Arc::clone(&entry.1);
        inner.order.remove(&old);
        inner.order.insert(stamp, hash.to_owned());
        Some(body)
    }

    /// Inserts (or refreshes) a body, evicting the least recently used
    /// entry when full.
    pub fn put(&self, hash: &str, body: Arc<str>) {
        if self.cap == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.seq += 1;
        let stamp = inner.seq;
        if let Some((old, _)) = inner.by_hash.insert(hash.to_owned(), (stamp, body)) {
            inner.order.remove(&old);
        }
        inner.order.insert(stamp, hash.to_owned());
        while inner.by_hash.len() > self.cap {
            let Some((&oldest, _)) = inner.order.iter().next() else {
                break;
            };
            if let Some(victim) = inner.order.remove(&oldest) {
                inner.by_hash.remove(&victim);
            }
        }
    }

    /// Number of resident bodies.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .by_hash
            .len()
    }

    /// Whether the tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The result slot one in-flight simulation publishes to every request
/// waiting on it (the leader included).
#[derive(Debug, Default)]
pub struct Slot {
    done: Mutex<Option<Result<Arc<str>, String>>>,
    cv: Condvar,
}

impl Slot {
    /// Publishes the outcome and wakes every waiter.
    pub fn fill(&self, outcome: Result<Arc<str>, String>) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        *done = Some(outcome);
        self.cv.notify_all();
    }

    /// Blocks until the outcome is published.
    pub fn wait(&self) -> Result<Arc<str>, String> {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = done.as_ref() {
                return outcome.clone();
            }
            done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The in-flight table: scenario hash → the slot its waiters block on.
/// Doubles as the admission gate — `try_admit` refuses new leaders once
/// the table holds `max_inflight` entries.
#[derive(Debug)]
pub struct Inflight {
    max: usize,
    table: Mutex<BTreeMap<String, Arc<Slot>>>,
}

/// Outcome of asking the in-flight table about a hash.
#[derive(Debug)]
pub enum Admission {
    /// This request is the leader: it enqueued the simulation; the slot
    /// is the one it (and followers) wait on.
    Leader(Arc<Slot>),
    /// An identical request is already in flight; wait on its slot.
    Follower(Arc<Slot>),
    /// The table is full; the request must be refused with 503.
    Overloaded,
}

impl Inflight {
    /// A table admitting at most `max` concurrent distinct scenarios.
    pub fn new(max: usize) -> Inflight {
        Inflight {
            max: max.max(1),
            table: Mutex::new(BTreeMap::new()),
        }
    }

    /// Coalesce onto an existing slot, admit as a new leader, or refuse.
    /// Followers always coalesce, even at capacity: they add load to a
    /// simulation already paid for.
    pub fn try_admit(&self, hash: &str) -> Admission {
        let mut table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = table.get(hash) {
            return Admission::Follower(Arc::clone(slot));
        }
        if table.len() >= self.max {
            return Admission::Overloaded;
        }
        let slot = Arc::new(Slot::default());
        table.insert(hash.to_owned(), Arc::clone(&slot));
        Admission::Leader(slot)
    }

    /// Removes a finished entry (the worker calls this *before* filling
    /// the slot, so a request arriving after removal starts fresh rather
    /// than waiting on a dead slot).
    pub fn finish(&self, hash: &str) -> Option<Arc<Slot>> {
        self.table
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(hash)
    }

    /// Number of distinct scenarios currently in flight.
    pub fn len(&self) -> usize {
        self.table
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_tier_evicts_least_recently_used() {
        let tier = HotTier::new(2);
        tier.put("a", Arc::from("A"));
        tier.put("b", Arc::from("B"));
        // Touch `a` so `b` is the LRU victim.
        assert_eq!(tier.get("a").as_deref(), Some("A"));
        tier.put("c", Arc::from("C"));
        assert_eq!(tier.len(), 2);
        assert!(tier.get("b").is_none(), "b should have been evicted");
        assert_eq!(tier.get("a").as_deref(), Some("A"));
        assert_eq!(tier.get("c").as_deref(), Some("C"));
    }

    #[test]
    fn hot_tier_put_refreshes_existing_key() {
        let tier = HotTier::new(2);
        tier.put("a", Arc::from("A1"));
        tier.put("a", Arc::from("A2"));
        assert_eq!(tier.len(), 1);
        assert_eq!(tier.get("a").as_deref(), Some("A2"));
    }

    #[test]
    fn zero_capacity_tier_stores_nothing() {
        let tier = HotTier::new(0);
        tier.put("a", Arc::from("A"));
        assert!(tier.is_empty());
        assert!(tier.get("a").is_none());
    }

    #[test]
    fn inflight_coalesces_then_overloads() {
        let inflight = Inflight::new(2);
        let Admission::Leader(first) = inflight.try_admit("h1") else {
            panic!("first request must lead");
        };
        assert!(matches!(inflight.try_admit("h1"), Admission::Follower(_)));
        assert!(matches!(inflight.try_admit("h2"), Admission::Leader(_)));
        // Table full: a third distinct hash is refused...
        assert!(matches!(inflight.try_admit("h3"), Admission::Overloaded));
        // ...but followers of in-flight work still coalesce.
        assert!(matches!(inflight.try_admit("h2"), Admission::Follower(_)));
        assert_eq!(inflight.len(), 2);
        // Finishing h1 frees a seat.
        inflight.finish("h1").unwrap().fill(Ok(Arc::from("")));
        first.wait().unwrap();
        assert!(matches!(inflight.try_admit("h3"), Admission::Leader(_)));
    }

    #[test]
    fn slot_delivers_result_to_concurrent_waiters() {
        let slot = Arc::new(Slot::default());
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || slot.wait())
            })
            .collect();
        slot.fill(Ok(Arc::from("body")));
        for w in waiters {
            assert_eq!(w.join().unwrap().as_deref(), Ok("body"));
        }
        // Late waiters see the result immediately.
        assert_eq!(slot.wait().as_deref(), Ok("body"));
    }

    #[test]
    fn slot_propagates_failure() {
        let slot = Slot::default();
        slot.fill(Err("sim panicked".to_owned()));
        assert_eq!(slot.wait().unwrap_err(), "sim panicked");
    }
}
