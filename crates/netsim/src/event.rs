//! The time-ordered event queue.
//!
//! Events at equal timestamps pop in insertion order (a monotone
//! sequence number breaks ties), which keeps runs reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in nanoseconds since simulation start.
pub type Time = u64;

/// One millisecond in [`Time`] units.
pub const MILLIS: Time = 1_000_000;
/// One second.
pub const SECONDS: Time = 1_000_000_000;

/// A priority queue of `(time, payload)` events.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(Time, u64, usize)>>,
    payloads: Vec<Option<E>>,
    seq: u64,
    free: Vec<usize>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            payloads: Vec::new(),
            seq: 0,
            free: Vec::new(),
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: Time, event: E) {
        let slot = match self.free.pop() {
            Some(i) => {
                self.payloads[i] = Some(event);
                i
            }
            None => {
                self.payloads.push(Some(event));
                self.payloads.len() - 1
            }
        };
        self.heap.push(Reverse((time, self.seq, slot)));
        self.seq += 1;
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse((time, _, slot)) = self.heap.pop()?;
        let event = self.payloads[slot].take().expect("slot holds the event");
        self.free.push(slot);
        Some((time, event))
    }

    /// The timestamp of the next event, if any.
    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 3);
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((5, 3)));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(7, ());
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn slots_recycle() {
        let mut q = EventQueue::new();
        for round in 0..3 {
            for i in 0..100u64 {
                q.push(i, i + round);
            }
            for _ in 0..100 {
                q.pop();
            }
        }
        // Payload storage stays bounded by the high-water mark.
        assert!(q.payloads.len() <= 100);
    }
}
