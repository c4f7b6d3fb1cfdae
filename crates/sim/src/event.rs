//! Time-ordered, FIFO-stable event queue.
//!
//! A binary heap keyed by `(time, sequence)`: O(log n) push and pop, and
//! events scheduled for the same instant are dispatched in the order
//! they were pushed. The key is a *total* order, so the pop sequence is
//! a pure function of the push sequence; the `queue_equivalence`
//! integration test checks it against a sort-by-`(time, seq)` reference
//! model over seeded schedules.
//!
//! Only `std`'s heap is used. The simulator's schedules put bursts of
//! same-instant cell events beside millisecond retransmit timers, and on
//! those a time-bucketed queue clumps into a few buckets and rescans
//! them on every pop; a hand-written d-ary heap measured slower than
//! `std`'s at the 256–4096 pending events the workloads hold.
//!
//! This stability is what makes whole-system simulations reproducible —
//! e.g. a DMA-completion and a cell-arrival landing on the same
//! picosecond always resolve the same way.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::obs::{Counter, Probe};
use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The total dispatch order.
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.key().cmp(&self.key())
    }
}

/// The event-queue implementation. There is one, the binary heap; the
/// type remains only because the repository benchmark (`perfbench/`)
/// names it through [`EventQueue::with_kind`] and `SimConfig::queue`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Binary heap on `(time, seq)`.
    #[default]
    Heap,
}

/// A priority queue of `(SimTime, E)` pairs, earliest first, FIFO within a
/// single instant.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    scheduled: Counter,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            scheduled: Counter::detached(),
        }
    }

    /// Same as [`EventQueue::new`]: [`QueueKind`] has one variant. Kept
    /// only because the repository benchmark calls it.
    pub fn with_kind(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Heap => Self::new(),
        }
    }

    /// Publishes the lifetime push count as `<scope>.events.scheduled` in
    /// `probe`'s registry. Pushes made before attaching are carried over,
    /// so the counter always equals [`EventQueue::total_pushed`].
    pub fn attach_probe(&mut self, probe: &Probe) {
        self.scheduled = probe.scoped("events").counter("scheduled");
        self.scheduled.add(self.next_seq);
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled.incr();
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever pushed (diagnostic).
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("total_pushed", &self.next_seq)
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_earliest_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(5), "b");
        q.push(SimTime::from_ns(1), "a");
        q.push(SimTime::from_ns(9), "c");
        assert_eq!(q.pop(), Some((SimTime::from_ns(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(5), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(9), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_preserve_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(3);
        for i in 0..1000 {
            q.push(t, i);
        }
        for i in 0..1000 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(30), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn bookkeeping() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(1), ());
        q.push(SimTime::from_ns(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1)));
        q.clear();
        assert!(q.is_empty());
        // total_pushed survives clear (it is a lifetime diagnostic).
        assert_eq!(q.total_pushed(), 2);
    }

    #[test]
    fn attached_probe_mirrors_total_pushed() {
        use crate::obs::Registry;
        let reg = Registry::new();
        let mut q = EventQueue::new();
        // Pushes before attaching are carried over...
        q.push(SimTime::from_ns(1), ());
        q.attach_probe(&reg.probe("engine"));
        assert_eq!(reg.snapshot().counter("engine.events.scheduled"), 1);
        // ...and later pushes keep the counter in lockstep, across clear().
        q.push(SimTime::from_ns(2), ());
        q.clear();
        q.push(SimTime::from_ns(3), ());
        assert_eq!(
            reg.snapshot().counter("engine.events.scheduled"),
            q.total_pushed()
        );
    }

    #[test]
    fn attach_probe_registers_only_the_scheduled_counter() {
        use crate::obs::Registry;
        let reg = Registry::new();
        let mut q = EventQueue::<u64>::with_kind(QueueKind::default());
        q.attach_probe(&reg.probe("engine"));
        let snap = reg.snapshot();
        let keys: Vec<&String> = snap.counters.keys().chain(snap.gauges.keys()).collect();
        assert_eq!(keys, ["engine.events.scheduled"]);
    }
}
