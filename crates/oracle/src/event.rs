//! Deterministic discrete-event scheduler.

use secloc_radio::Cycles;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A discrete-event queue ordered by simulated time.
///
/// Events scheduled for the same instant are delivered in scheduling order
/// (FIFO), which keeps simulations fully deterministic for a fixed seed.
/// Popping never goes backwards in time.
///
/// The production runner replaced it with a flat key-packed schedule and a
/// radix drain that reproduce this pop order exactly; the reference
/// [`crate::run`] still pays the per-push sift-up and per-pop heap
/// maintenance.
///
/// # Examples
///
/// ```
/// use secloc_oracle::EventQueue;
/// use secloc_radio::Cycles;
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycles::new(20), "b");
/// q.schedule(Cycles::new(10), "a");
/// assert_eq!(q.pop(), Some((Cycles::new(10), "a")));
/// assert_eq!(q.pop(), Some((Cycles::new(20), "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Cycles,
}

#[derive(Debug)]
struct Entry<E> {
    at: Cycles,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Cycles::ZERO,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the last popped event).
    pub fn schedule(&mut self, at: Cycles, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule at {at}, simulation time is already {}",
            self.now
        );
        self.heap.push(Reverse(Entry {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Pops the earliest event, advancing simulation time to it.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(30), 3);
        q.schedule(Cycles::new(10), 1);
        q.schedule(Cycles::new(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_for_simultaneous_events() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(Cycles::new(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(100), ());
        q.pop();
        q.schedule(Cycles::new(99), ());
    }

    #[test]
    fn interleaved_schedule_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(10), 1);
        q.schedule(Cycles::new(40), 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(Cycles::new(20), 2);
        q.schedule(Cycles::new(30), 3);
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![2, 3, 4]);
    }

    proptest! {
        #[test]
        fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..64)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(Cycles::new(t), i);
            }
            let mut last = Cycles::ZERO;
            let mut count = 0;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }
    }
}
