//! Size-or-deadline micro-batch scheduling over a **logical clock**.
//!
//! Streaming engines cut micro-batches either because enough points
//! accumulated (*size* trigger) or because buffered points have waited
//! too long (*deadline* trigger). Wall-clock deadlines would make every
//! run irreproducible, so the batcher counts **ticks**: the driver
//! calls [`Batcher::tick`] at whatever cadence maps to real time in its
//! deployment, and every decision here is a pure function of the tick
//! counter and the buffered-point count. Rerunning a recorded schedule
//! replays the exact same batch boundaries.

/// Why a micro-batch was cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CutReason {
    /// Buffered points reached the configured batch size.
    Size,
    /// The tick deadline elapsed with at least one point buffered.
    Deadline,
    /// The ring was full under [`crate::BackpressurePolicy::Block`] and
    /// the producer forced an inline flush.
    Backpressure,
    /// The caller drained the engine.
    Drain,
}

impl CutReason {
    /// Stable lowercase name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Size => "size",
            Self::Deadline => "deadline",
            Self::Backpressure => "backpressure",
            Self::Drain => "drain",
        }
    }
}

/// Decides *when* buffered points become a micro-batch.
///
/// The batcher never touches the points themselves — it only watches
/// the buffered count and its own logical clock, which keeps the
/// policy testable in isolation from the ring and the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batcher {
    max_batch: usize,
    max_ticks: u64,
    now: u64,
    last_cut: u64,
}

impl Batcher {
    /// A batcher cutting at `max_batch` buffered points or `max_ticks`
    /// ticks after the previous cut, whichever comes first.
    ///
    /// # Panics
    ///
    /// Panics when either threshold is zero (the scheduler would cut
    /// empty batches forever).
    #[must_use]
    pub fn new(max_batch: usize, max_ticks: u64) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        assert!(max_ticks > 0, "max_ticks must be positive");
        Self {
            max_batch,
            max_ticks,
            now: 0,
            last_cut: 0,
        }
    }

    /// Rebuild a batcher at a recorded clock position — the
    /// snapshot-restore path.
    ///
    /// # Panics
    ///
    /// As [`Batcher::new`] for zero thresholds, and when `last_cut`
    /// lies in the future of `now` (the caller validates decoded
    /// snapshots before reconstructing).
    #[must_use]
    pub fn restore(max_batch: usize, max_ticks: u64, now: u64, last_cut: u64) -> Self {
        assert!(last_cut <= now, "last_cut must not exceed now");
        let mut b = Self::new(max_batch, max_ticks);
        b.now = now;
        b.last_cut = last_cut;
        b
    }

    /// Tick of the most recent cut (0 if none yet), for snapshotting.
    #[must_use]
    pub fn last_cut(&self) -> u64 {
        self.last_cut
    }

    /// Current logical time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Ticks elapsed since the last cut (or since construction).
    #[must_use]
    fn ticks_since_cut(&self) -> u64 {
        self.now - self.last_cut
    }

    /// Advance the logical clock by one tick and return the new time.
    /// The clock saturates at `u64::MAX`: counting never gets there,
    /// only a restored clock can start there.
    pub fn tick(&mut self) -> u64 {
        self.now = self.now.saturating_add(1);
        self.now
    }

    /// Whether a batch should be cut right now for `buffered` waiting
    /// points: `Size` wins when the buffer reached the size threshold,
    /// otherwise `Deadline` fires once the tick budget is spent and
    /// something is actually waiting. Empty buffers never cut.
    #[must_use]
    pub fn due(&self, buffered: usize) -> Option<CutReason> {
        if buffered == 0 {
            return None;
        }
        if buffered >= self.max_batch {
            return Some(CutReason::Size);
        }
        if self.ticks_since_cut() >= self.max_ticks {
            return Some(CutReason::Deadline);
        }
        None
    }

    /// Record that a batch was cut now, resetting the deadline window.
    pub fn note_cut(&mut self) {
        self.last_cut = self.now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_trigger_fires_immediately() {
        let b = Batcher::new(4, 100);
        assert_eq!(b.due(3), None);
        assert_eq!(b.due(4), Some(CutReason::Size));
        assert_eq!(b.due(9), Some(CutReason::Size));
    }

    #[test]
    fn deadline_fires_only_with_buffered_points() {
        let mut b = Batcher::new(100, 3);
        for _ in 0..3 {
            assert_eq!(b.due(1), None);
            b.tick();
        }
        assert_eq!(b.due(0), None); // nothing waiting: never cut
        assert_eq!(b.due(1), Some(CutReason::Deadline));
    }

    /// Only a restored clock can start at `u64::MAX`; ticking it must
    /// not overflow.
    #[test]
    fn the_clock_saturates_at_its_end() {
        let mut b = Batcher::restore(4, 2, u64::MAX - 1, 0);
        assert_eq!(b.tick(), u64::MAX);
        assert_eq!(b.tick(), u64::MAX);
        assert_eq!(b.due(1), Some(CutReason::Deadline));
    }

    #[test]
    fn note_cut_resets_the_deadline_window() {
        let mut b = Batcher::new(100, 2);
        b.tick();
        b.tick();
        assert_eq!(b.due(5), Some(CutReason::Deadline));
        b.note_cut();
        assert_eq!(b.due(5), None);
        assert_eq!(b.ticks_since_cut(), 0);
        b.tick();
        b.tick();
        assert_eq!(b.due(5), Some(CutReason::Deadline));
    }

    #[test]
    fn size_wins_over_deadline() {
        let mut b = Batcher::new(2, 1);
        b.tick();
        assert_eq!(b.due(2), Some(CutReason::Size));
    }

    #[test]
    #[should_panic(expected = "max_batch must be positive")]
    fn zero_batch_size_is_rejected() {
        let _ = Batcher::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "max_ticks must be positive")]
    fn zero_deadline_is_rejected() {
        let _ = Batcher::new(1, 0);
    }

    #[test]
    fn reason_names_are_stable() {
        assert_eq!(CutReason::Size.name(), "size");
        assert_eq!(CutReason::Deadline.name(), "deadline");
        assert_eq!(CutReason::Backpressure.name(), "backpressure");
        assert_eq!(CutReason::Drain.name(), "drain");
    }
}
