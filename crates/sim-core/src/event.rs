//! A minimal discrete-event queue.
//!
//! The cluster simulator ([`mpi-sim`]) and the node scheduler
//! ([`machine`]) both advance time by repeatedly popping the earliest
//! pending event. Ties are broken by insertion order (FIFO), which keeps
//! simulations deterministic under equal timestamps.
//!
//! Internally this is a radix heap over the `u64` nanosecond time. Every
//! pending event sits in the bucket named by the highest bit in which
//! its time differs from the last popped time (`last`); events at
//! exactly `last` wait in a FIFO of their own. A pop serves that FIFO
//! or, once it is empty, takes the lowest occupied bucket, makes its
//! earliest time (kept per bucket as events arrive) the new `last` and
//! redistributes the bucket's events into lower buckets; a bucket's
//! lone event is simply returned. Each event moves down at most 64
//! times over its life, and nothing is ever sorted.
//!
//! Equal times stay FIFO by construction: all events at one time share
//! a bucket (the index depends only on the time and `last`), pushes
//! append, and a redistribution moves a bucket's events in order into
//! buckets that are empty (every lower bucket is, or it would have been
//! taken first). A push earlier than `last` re-buckets every pending
//! event around the earlier time, so the pop stream stays the
//! `(time, push order)` order of the original binary heap —
//! `tests/queue_equivalence.rs` locks that equivalence against a frozen
//! copy of the old queue.
//!
//! [`mpi-sim`]: ../../mpi_sim/index.html
//! [`machine`]: ../../machine/index.html

use crate::time::SimTime;
use std::collections::VecDeque;

/// Lifetime counters for one queue, reported into the run manifest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events popped since construction (or the last [`EventQueue::clear`]).
    pub pops: u64,
    /// Highest number of simultaneously pending events observed.
    pub peak_len: usize,
}

/// A time-ordered queue of payloads with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Events at exactly `last`, in push order.
    now: VecDeque<Entry<T>>,
    /// `buckets[k]` holds the events whose time differs from `last`
    /// first (from the top) at bit `k`, in push order per time.
    buckets: [Vec<Entry<T>>; 64],
    /// `mins[k]` is the earliest time in `buckets[k]` (`u64::MAX` when
    /// it is empty).
    mins: [u64; 64],
    /// Bit `k` is set iff `buckets[k]` is non-empty.
    occupied: u64,
    /// The last popped time in nanoseconds (or an earlier push's time);
    /// every pending event is at or after it.
    last: u64,
    len: usize,
    pops: u64,
    peak_len: usize,
}

#[derive(Debug)]
struct Entry<T> {
    time: u64,
    payload: T,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            now: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [u64::MAX; 64],
            occupied: 0,
            last: 0,
            len: 0,
            pops: 0,
            peak_len: 0,
        }
    }

    /// Append `entry` to the bucket its time selects relative to `last`.
    fn place(&mut self, entry: Entry<T>) {
        let diff = entry.time ^ self.last;
        if diff == 0 {
            self.now.push_back(entry);
        } else {
            // `diff` is non-zero, so `k` is in 0..64; the mask tells the
            // compiler so.
            let k = (63 - diff.leading_zeros() as usize) & 63;
            self.occupied |= 1 << k;
            self.mins[k] = self.mins[k].min(entry.time);
            self.buckets[k].push(entry);
        }
    }

    /// Schedule `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let t = time.as_nanos();
        if t < self.last {
            self.rebase(t);
        }
        self.place(Entry { time: t, payload });
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Make `t` (earlier than `last`) the new origin and re-bucket every
    /// pending event around it. Events at one time come out of one
    /// bucket in order, so their FIFO order survives.
    fn rebase(&mut self, t: u64) {
        let mut pending: Vec<Entry<T>> = self.now.drain(..).collect();
        for bucket in &mut self.buckets {
            pending.append(bucket);
        }
        self.occupied = 0;
        self.mins = [u64::MAX; 64];
        self.last = t;
        for entry in pending {
            self.place(entry);
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = match self.now.pop_front() {
            Some(e) => e,
            None => {
                // The lowest occupied bucket holds the earliest events; its
                // minimum becomes `last`, and its events all agree with
                // that minimum above bit `k`, so each moves to a lower
                // bucket (or the FIFO). A lone event is the minimum, and
                // the other buckets' indices hold for it as `last`.
                if self.occupied == 0 {
                    return None;
                }
                let k = self.occupied.trailing_zeros() as usize & 63;
                self.occupied &= !(1 << k);
                self.last = std::mem::replace(&mut self.mins[k], u64::MAX);
                let mut bucket = std::mem::take(&mut self.buckets[k]);
                let e = if bucket.len() == 1 {
                    bucket.pop()?
                } else {
                    for entry in bucket.drain(..) {
                        self.place(entry);
                    }
                    self.now.pop_front()?
                };
                // Hand the emptied vector back so the bucket keeps its
                // capacity.
                self.buckets[k] = bucket;
                e
            }
        };
        self.len -= 1;
        self.pops += 1;
        Some((SimTime::from_nanos(e.time), e.payload))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.now.is_empty() {
            return Some(SimTime::from_nanos(self.last));
        }
        let k = self.occupied.trailing_zeros() as usize;
        self.mins.get(k).map(|&t| SimTime::from_nanos(t))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all pending events and reset the lifetime counters, keeping
    /// allocated bucket capacity (arenas reuse queues across runs).
    pub fn clear(&mut self) {
        self.now.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.mins = [u64::MAX; 64];
        self.occupied = 0;
        self.last = 0;
        self.len = 0;
        self.pops = 0;
        self.peak_len = 0;
    }

    /// Lifetime counters since construction or the last [`clear`].
    ///
    /// [`clear`]: EventQueue::clear
    pub fn stats(&self) -> QueueStats {
        QueueStats { pops: self.pops, peak_len: self.peak_len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime::from_millis(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO + SimDuration::from_nanos(1), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_behind_the_drain_point_pops_first() {
        let mut q = EventQueue::new();
        for ms in [10u64, 500, 900] {
            q.push(SimTime::from_millis(ms), ms);
        }
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), 10)));
        // Earlier than everything still pending, later than the last pop.
        q.push(SimTime::from_millis(20), 20);
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), 20)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(500), 500)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(900), 900)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn extreme_times_keep_order_and_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(u64::MAX), 1);
        q.push(SimTime::ZERO, 0);
        q.push(SimTime::from_nanos(u64::MAX), 2);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
        // Same u64::MAX timestamp across page and overflow: FIFO holds.
        q.push(SimTime::from_nanos(u64::MAX), 3);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(u64::MAX), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(u64::MAX), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(u64::MAX), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn stats_count_pops_and_peak() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats(), QueueStats::default());
        for i in 0..10u64 {
            q.push(SimTime::from_micros(i), i);
        }
        assert_eq!(q.stats().peak_len, 10);
        let _ = q.pop();
        let _ = q.pop();
        assert_eq!(q.stats().pops, 2);
        assert_eq!(q.stats().peak_len, 10, "peak is a high-water mark");
        q.clear();
        assert_eq!(q.stats(), QueueStats::default(), "clear resets counters");
    }
}
