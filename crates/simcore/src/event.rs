//! Deterministic pending-event set.
//!
//! [`EventQueue`] is a priority queue ordered by `(time, insertion sequence)`.
//! The sequence tie-break makes event ordering — and therefore every
//! simulation built on it — fully deterministic: two events scheduled for the
//! same instant fire in the order they were scheduled.
//!
//! # Calendar layout
//!
//! The backing store is a calendar queue tuned to the simulator's
//! short-horizon event mix (periodic exchange/sample ticks about one second
//! apart, plus job arrivals spread over hours): time is divided into
//! ~1-second slots, each slot hashing onto one of 1024 bucket deques
//! kept sorted by `(time, seq)`. Scheduling is an O(1) append for the
//! common monotone case (a binary-searched insert otherwise), and popping
//! advances a slot cursor, so both ends of the queue cost O(1) amortized
//! instead of the O(log n) of a binary heap — and no hashing or heap
//! sifting happens per event.
//!
//! ```
//! use vr_simcore::event::EventQueue;
//! use vr_simcore::time::SimTime;
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_secs(2), "second");
//! q.schedule(SimTime::from_secs(1), "first");
//! q.schedule(SimTime::from_secs(2), "third (same time, later seq)");
//! assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("second"));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("third (same time, later seq)"));
//! assert!(q.pop().is_none());
//! ```

use std::collections::VecDeque;

use crate::time::SimTime;

/// Number of calendar buckets (power of two so the slot hash is a mask).
const BUCKETS: usize = 1024;
/// Slot width as a power-of-two microsecond shift: 2^20 µs ≈ 1.05 s, on
/// the order of the simulator's periodic tick spacing.
const SLOT_SHIFT: u32 = 20;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// A deterministic time-ordered queue of pending simulation events.
///
/// See the [module documentation](self) for ordering semantics.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `BUCKETS` deques, each sorted ascending by `(time, seq)`. A slot's
    /// entries all land in bucket `slot % BUCKETS`; colliding slots share a
    /// bucket but the sort keeps earlier slots in front.
    buckets: Vec<VecDeque<Entry<E>>>,
    /// Lower bound on the slot of the earliest entry.
    cursor_slot: u64,
    /// Entries scheduled but not yet popped.
    live: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, VecDeque::new);
        EventQueue {
            buckets,
            cursor_slot: 0,
            live: 0,
            next_seq: 0,
        }
    }

    fn slot_of(time: SimTime) -> u64 {
        time.as_micros() >> SLOT_SHIFT
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = Self::slot_of(time);
        if self.live == 0 || slot < self.cursor_slot {
            self.cursor_slot = slot;
        }
        self.live += 1;
        let bucket = &mut self.buckets[(slot as usize) & (BUCKETS - 1)];
        // New entries carry the largest seq yet, so whenever `time` is not
        // earlier than the bucket tail the append keeps the sort — the
        // overwhelmingly common case for monotone schedules.
        if bucket.back().is_none_or(|e| e.time <= time) {
            bucket.push_back(Entry { time, seq, event });
        } else {
            let at = bucket.partition_point(|e| e.time <= time);
            bucket.insert(at, Entry { time, seq, event });
        }
    }

    /// Advances the slot cursor to the earliest entry and returns its
    /// bucket index. `None` when the queue is empty.
    ///
    /// Scans slot-by-slot from the cursor (each step is one bucket-head
    /// check); if [`BUCKETS`] consecutive slots are empty the next event is
    /// at least one full calendar rotation away, so it falls back to one
    /// direct min-scan over the bucket heads and jumps the cursor there.
    fn find_min_bucket(&mut self) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        for step in 0..BUCKETS as u64 {
            let slot = self.cursor_slot + step;
            let bucket = (slot as usize) & (BUCKETS - 1);
            if self.buckets[bucket]
                .front()
                .is_some_and(|head| Self::slot_of(head.time) == slot)
            {
                self.cursor_slot = slot;
                return Some(bucket);
            }
        }
        // Sparse region: locate the global minimum directly. Bucket heads
        // are per-bucket minima, so the least (time, seq) among them is the
        // queue minimum.
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (bucket, entries) in self.buckets.iter().enumerate() {
            let Some(head) = entries.front() else {
                continue;
            };
            let key = (head.time, head.seq);
            if best.is_none_or(|(t, s, _)| key < (t, s)) {
                best = Some((head.time, head.seq, bucket));
            }
        }
        let (time, _, bucket) = best?;
        self.cursor_slot = Self::slot_of(time);
        Some(bucket)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let bucket = self.find_min_bucket()?;
        let entry = self.buckets[bucket].pop_front()?;
        self.live -= 1;
        Some((entry.time, entry.event))
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let bucket = self.find_min_bucket()?;
        self.buckets[bucket].front().map(|e| e.time)
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3), 'c');
        q.schedule(t(1), 'a');
        q.schedule(t(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(5), 2);
        assert_eq!(q.pop(), Some((t(5), 2)));
        q.schedule(t(8), 3);
        q.schedule(t(12), 4);
        assert_eq!(q.pop(), Some((t(8), 3)));
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(12), 4)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn scheduling_earlier_than_the_cursor_rewinds_it() {
        let mut q = EventQueue::new();
        q.schedule(t(500), "late");
        assert_eq!(q.pop(), Some((t(500), "late")));
        // The cursor now sits at t=500s; an earlier schedule must still
        // surface first.
        q.schedule(t(1), "early");
        q.schedule(t(700), "later");
        assert_eq!(q.pop(), Some((t(1), "early")));
        assert_eq!(q.pop(), Some((t(700), "later")));
    }

    #[test]
    fn colliding_slots_one_rotation_apart_stay_ordered() {
        // Two times whose slots differ by exactly BUCKETS land in the same
        // bucket; the earlier rotation must pop first and the cursor scan
        // must not mistake the later one for the current slot.
        let mut q = EventQueue::new();
        let width = 1u64 << SLOT_SHIFT;
        let far = SimTime::from_micros(BUCKETS as u64 * width + 5);
        let near = SimTime::from_micros(5);
        q.schedule(far, "far");
        q.schedule(near, "near");
        assert_eq!(q.pop(), Some((near, "near")));
        assert_eq!(q.pop(), Some((far, "far")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn sparse_far_future_jump_finds_the_minimum() {
        // With nothing in the next BUCKETS slots the queue falls back to a
        // direct min-scan; the jump must preserve (time, seq) order.
        let mut q = EventQueue::new();
        let width = 1u64 << SLOT_SHIFT;
        let a = SimTime::from_micros(10 * BUCKETS as u64 * width + 3);
        let b = SimTime::from_micros(17 * BUCKETS as u64 * width + 9);
        q.schedule(b, "b");
        q.schedule(a, "a");
        assert_eq!(q.peek_time(), Some(a));
        assert_eq!(q.pop(), Some((a, "a")));
        assert_eq!(q.pop(), Some((b, "b")));
    }
}
