//! Deterministic discrete-event scheduler.
//!
//! The VoroNet evaluation is a logical-time simulation: what matters is the
//! order and count of protocol messages, not wall-clock latency.  The
//! scheduler delivers events in `(time, sequence)` order, which makes every
//! run bit-for-bit reproducible for a given seed and insertion order.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Logical simulation time (abstract units; the overlay uses "one hop = one
/// unit" by default).
pub type SimTime = u64;

/// One pending event, ordered by its unique `(time, seq)` key alone.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
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
        self.key().cmp(&other.key())
    }
}

/// A deterministic event queue: events scheduled at the same time are
/// delivered in scheduling order.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: SimTime,
    seq: u64,
    delivered: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
            delivered: 0,
        }
    }

    /// Current logical time (the delivery time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` to fire `delay` units after the current time.
    pub fn schedule(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event)
    }

    /// Schedules `event` at an absolute time (clamped to the present so time
    /// never goes backwards).
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let time = time.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Pops the next event, advancing the clock to its delivery time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(Entry { time, event, .. }) = self.heap.pop()?;
        self.now = time;
        self.delivered += 1;
        Some((time, event))
    }

    /// Runs the queue to exhaustion, calling `handler` for every event.  The
    /// handler may schedule further events through the queue it is given.
    pub fn run<F: FnMut(&mut Self, SimTime, E)>(&mut self, mut handler: F) {
        while let Some((t, e)) = self.pop() {
            handler(self, t, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.schedule(5, "c");
        q.schedule(1, "a");
        q.schedule(1, "b");
        q.schedule(0, "now");
        let mut order = Vec::new();
        while let Some((t, e)) = q.pop() {
            order.push((t, e));
        }
        assert_eq!(order, vec![(0, "now"), (1, "a"), (1, "b"), (5, "c")]);
        assert_eq!(q.now(), 5);
        assert_eq!(q.delivered(), 4);
    }

    #[test]
    fn handler_can_schedule_more_events() {
        let mut q = EventQueue::new();
        q.schedule(1, 3u32);
        let mut fired = Vec::new();
        q.run(|q, _t, countdown| {
            fired.push(countdown);
            if countdown > 0 {
                q.schedule(2, countdown - 1);
            }
        });
        assert_eq!(fired, vec![3, 2, 1, 0]);
        assert_eq!(q.now(), 1 + 3 * 2);
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_at_never_goes_backwards() {
        let mut q = EventQueue::new();
        q.schedule(10, "late");
        assert_eq!(q.pop().unwrap().0, 10);
        q.schedule_at(3, "early");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "early");
        assert_eq!(t, 10, "events scheduled in the past fire immediately");
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        assert_eq!(q.now(), 0);
    }

    // ------------------------------------------------------------------
    // Determinism
    // ------------------------------------------------------------------

    /// Replays one fixed but adversarial schedule (bursts of identical
    /// delivery times, interleaved pops) and returns the delivery order.
    fn replay() -> Vec<(SimTime, u64)> {
        let mut q = EventQueue::new();
        let mut order = Vec::new();
        let mut next_id = 0u64;
        // Mix scheduling and popping so that `now` advances mid-build.
        for wave in 0..5u64 {
            for i in 0..40u64 {
                let delay = (i * 7919 + wave) % 11; // many ties per wave
                q.schedule(delay, next_id);
                next_id += 1;
            }
            for _ in 0..15 {
                if let Some((t, e)) = q.pop() {
                    order.push((t, e));
                }
            }
        }
        while let Some((t, e)) = q.pop() {
            order.push((t, e));
        }
        order
    }

    #[test]
    fn identical_schedules_deliver_identically() {
        let a = replay();
        let b = replay();
        assert_eq!(a.len(), 200);
        assert_eq!(a, b, "same schedule must produce the same delivery order");
    }

    #[test]
    fn ties_at_equal_time_deliver_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule(42, i);
        }
        let mut seen = Vec::new();
        while let Some((t, e)) = q.pop() {
            assert_eq!(t, 42);
            seen.push(e);
        }
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }
}
