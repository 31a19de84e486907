//! Discrete-event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Instant;

/// Identifier of a scheduled event: its place among events due at the same
/// instant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    /// The id `n` places after this one: the `n`-th id of a block reserved
    /// by [`EventQueue::reserve`] when `self` is the block's base.
    pub const fn offset(self, n: u64) -> EventId {
        EventId(self.0 + n)
    }
}

struct Entry<E> {
    at: Instant,
    id: EventId,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
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
        // Reverse ordering: BinaryHeap is a max-heap and we want the earliest
        // event first. Ties break by insertion order for determinism.
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}

/// A min-heap of timestamped events with stable FIFO ordering for ties.
///
/// Events pop in `(time, id)` key order, and ids are handed out in
/// scheduling order. [`EventQueue::reserve`] takes a block of ids up front
/// so that an event scheduled later with [`EventQueue::schedule_reserved`]
/// sorts exactly where it would have sorted had it been scheduled at
/// reservation time.
///
/// The queue tracks the current simulation time: popping an event advances
/// `now` to that event's timestamp, and scheduling in the past is clamped to
/// `now` (events never fire retroactively).
///
/// # Example
///
/// ```
/// use simkit::{Duration, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule_after(Duration::from_micros(10), 'a');
/// q.schedule_after(Duration::from_micros(5), 'b');
/// q.schedule_after(Duration::from_micros(5), 'c');
/// let fired: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(fired, vec!['b', 'c', 'a']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_id: u64,
    now: Instant,
    /// Key of the most recently popped event (`None` before the first pop).
    last: Option<(Instant, EventId)>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for Entry<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("at", &self.at)
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with `now` at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_id: 0,
            now: Instant::ZERO,
            last: None,
        }
    }

    /// The current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Schedules `event` at absolute time `at`. Times in the past are clamped
    /// to `now` so the event still fires (immediately), preserving causality.
    pub fn schedule_at(&mut self, at: Instant, event: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.heap.push(Entry {
            at: at.max(self.now),
            id,
            event,
        });
        id
    }

    /// Takes a block of `n` consecutive ids without scheduling anything and
    /// returns the first; `base.offset(i)` for `i < n` names the rest. Ids
    /// taken later sort after the whole block.
    pub fn reserve(&mut self, n: u64) -> EventId {
        let base = EventId(self.next_id);
        self.next_id += n;
        base
    }

    /// Schedules `event` under an id from a block taken by
    /// [`EventQueue::reserve`]. Each reserved id must be scheduled at most
    /// once, and only while [`EventQueue::is_ahead`] holds for its key:
    /// debug builds assert it, release builds clamp a past time to `now`
    /// like [`EventQueue::schedule_at`].
    pub fn schedule_reserved(&mut self, at: Instant, id: EventId, event: E) {
        debug_assert!(id.0 < self.next_id, "id {id:?} was never reserved");
        debug_assert!(
            self.is_ahead(at, id),
            "reserved key {at:?}/{id:?} already passed"
        );
        self.heap.push(Entry {
            at: at.max(self.now),
            id,
            event,
        });
    }

    /// Whether an event keyed `(at, id)` would still pop after the event
    /// popped last: it lies in the future, or at `now` with an id ordered
    /// after the last popped one (or `now` moved on since that pop).
    pub fn is_ahead(&self, at: Instant, id: EventId) -> bool {
        match at.cmp(&self.now) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => self.last.is_none_or(|last| last < (at, id)),
        }
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: crate::Duration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Removes and returns the earliest pending event, advancing `now` to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        self.last = Some((entry.at, entry.id));
        Some((entry.at, entry.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Instant> {
        self.heap.peek().map(|entry| entry.at)
    }

    /// Advances `now` to `t` without firing anything. Intended for "run
    /// until wall-clock T" simulation loops after the last event before `T`
    /// has been popped.
    ///
    /// # Panics
    ///
    /// Panics if an event is pending earlier than `t`.
    pub fn advance_to(&mut self, t: Instant) {
        if t <= self.now {
            return;
        }
        if let Some(next) = self.peek_time() {
            assert!(
                next >= t,
                "advance_to({t:?}) would skip a pending event at {next:?}"
            );
        }
        self.now = t;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(30), 3);
        q.schedule_at(Instant::from_micros(10), 1);
        q.schedule_at(Instant::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = Instant::from_micros(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(42), ());
        assert_eq!(q.now(), Instant::ZERO);
        q.pop();
        assert_eq!(q.now(), Instant::from_micros(42));
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_micros(100), "later");
        q.pop();
        q.schedule_at(Instant::from_micros(1), "past");
        let (at, ev) = q.pop().expect("event fires");
        assert_eq!(ev, "past");
        assert_eq!(at, Instant::from_micros(100));
    }

    #[test]
    fn reserved_ids_sort_where_they_were_reserved() {
        let mut q = EventQueue::new();
        let t = Instant::from_micros(5);
        q.schedule_at(t, "before");
        let block = q.reserve(3);
        q.schedule_at(t, "after");
        // Scheduled out of order and after "after" was queued, the block
        // still pops between the two, in id order.
        q.schedule_reserved(t, block.offset(2), "r2");
        q.schedule_reserved(t, block.offset(0), "r0");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["before", "r0", "r2", "after"]);
    }

    #[test]
    fn is_ahead_compares_against_the_last_popped_key() {
        let mut q = EventQueue::new();
        let t = Instant::from_micros(5);
        let block = q.reserve(3);
        assert!(q.is_ahead(Instant::ZERO, block), "nothing popped yet");
        q.schedule_reserved(t, block.offset(1), ());
        q.pop();
        assert!(!q.is_ahead(t, block), "same instant, earlier id: passed");
        assert!(!q.is_ahead(t, block.offset(1)), "the popped key itself");
        assert!(q.is_ahead(t, block.offset(2)), "same instant, later id");
        assert!(!q.is_ahead(Instant::from_micros(4), block.offset(2)));
        assert!(q.is_ahead(Instant::from_micros(6), block));
        // Once `now` moves past the last pop, every key at `now` is ahead.
        q.advance_to(Instant::from_micros(9));
        assert!(q.is_ahead(Instant::from_micros(9), block));
    }
}
