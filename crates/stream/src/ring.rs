//! Bounded ingest ring with explicit backpressure.
//!
//! A bounded FIFO that allocates only what it holds — the in-tree
//! analogue of the bounded channels production streaming pipelines put
//! in front of every stage. The ring itself only offers mechanisms
//! (`try_push`, `force_push`, `pop`); the *policy* applied when the
//! ring is full ([`BackpressurePolicy`]) is chosen by the engine, so
//! drop/reject/flush accounting lives in one place.

use std::collections::VecDeque;

/// What the ingest stage does when a point arrives and the ring is
/// already at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackpressurePolicy {
    /// Apply backpressure to the producer: the engine synchronously
    /// cuts and processes one micro-batch (the producer "blocks" on
    /// useful work), then enqueues the point. Never loses data.
    #[default]
    Block,
    /// Evict the oldest buffered point to make room — freshest-data
    /// wins, the load-shedding mode for saturated ingestion. Never
    /// blocks the producer and never deadlocks: eviction frees a slot
    /// unconditionally.
    DropOldest,
    /// Refuse the new point, leaving the buffer untouched — the
    /// caller-visible failure mode (HTTP 429 semantics).
    Reject,
}

impl BackpressurePolicy {
    /// Stable lowercase name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Block => "block",
            Self::DropOldest => "drop_oldest",
            Self::Reject => "reject",
        }
    }
}

/// Outcome of one [`crate::StreamEngine::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PushOutcome {
    /// Enqueued with room to spare.
    Accepted,
    /// Ring was full under [`BackpressurePolicy::Block`]: the engine
    /// processed one micro-batch inline, then enqueued the point.
    AcceptedAfterFlush,
    /// Ring was full under [`BackpressurePolicy::DropOldest`]: the
    /// oldest buffered point was evicted, the new one enqueued.
    AcceptedDroppedOldest,
    /// Ring was full under [`BackpressurePolicy::Reject`]: the point
    /// was refused and is **not** buffered.
    Rejected,
}

/// Bounded FIFO ring buffer (single-producer, single-consumer within
/// the engine's synchronous control flow). It holds at most its
/// declared capacity and allocates only what it holds, so a large
/// declared capacity costs nothing until points arrive.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> Ring<T> {
    /// A ring with room for `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0` (an unbuffered ring cannot ingest).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            items: VecDeque::new(),
            capacity,
        }
    }

    /// Maximum buffered items.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently buffered items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the ring is at capacity.
    #[must_use]
    fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// Iterate the buffered items oldest-first without consuming them
    /// (the order [`Ring::pop`] would yield) — the snapshot path reads
    /// pending points through this.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Enqueue at the tail, or hand the item back when full.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the ring is full (the caller owns the
    /// item again and applies its backpressure policy).
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Enqueue at the tail unconditionally, evicting and returning the
    /// oldest item when full (`DropOldest` mechanics).
    pub fn force_push(&mut self, item: T) -> Option<T> {
        let evicted = if self.is_full() { self.pop() } else { None };
        self.items.push_back(item);
        evicted
    }

    /// Dequeue the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_survives_wraparound() {
        let mut r = Ring::with_capacity(3);
        assert!(r.try_push(1).is_ok());
        assert!(r.try_push(2).is_ok());
        assert_eq!(r.pop(), Some(1));
        assert!(r.try_push(3).is_ok());
        assert!(r.try_push(4).is_ok()); // wraps
        assert!(r.is_full());
        assert_eq!(r.try_push(5), Err(5));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(4));
        assert_eq!(r.pop(), None);
        assert!(r.is_empty());
    }

    #[test]
    fn force_push_evicts_the_oldest() {
        let mut r = Ring::with_capacity(2);
        assert_eq!(r.force_push(1), None);
        assert_eq!(r.force_push(2), None);
        assert_eq!(r.force_push(3), Some(1));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = Ring::<u8>::with_capacity(0);
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(BackpressurePolicy::Block.name(), "block");
        assert_eq!(BackpressurePolicy::DropOldest.name(), "drop_oldest");
        assert_eq!(BackpressurePolicy::Reject.name(), "reject");
        assert_eq!(BackpressurePolicy::default(), BackpressurePolicy::Block);
    }

    /// A declared capacity far beyond memory builds nothing up front;
    /// it bounds what the ring will hold.
    #[test]
    fn a_huge_capacity_allocates_only_what_is_held() {
        let mut r = Ring::with_capacity(usize::MAX);
        for i in 0..5 {
            assert!(r.try_push(i).is_ok());
        }
        assert_eq!((r.len(), r.capacity()), (5, usize::MAX));
        assert!(r.items.capacity() < 1024);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        assert_eq!(r.force_push(5), None);
        assert_eq!(r.pop(), Some(0));
    }

    #[test]
    fn saturated_force_push_never_grows_past_capacity() {
        let mut r = Ring::with_capacity(4);
        for i in 0..1000 {
            let _ = r.force_push(i);
            assert!(r.len() <= 4);
        }
        // The four freshest survive.
        assert_eq!(r.pop(), Some(996));
        assert_eq!(r.pop(), Some(997));
        assert_eq!(r.pop(), Some(998));
        assert_eq!(r.pop(), Some(999));
    }
}
