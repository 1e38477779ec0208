//! The bounded flight-recorder ring.
//!
//! A [`Recorder`] keeps the last `capacity` [`EventRecord`]s in
//! emission order. Everything about it is deterministic: sequence
//! numbers and span ids are dense counters, timestamps are the caller's
//! logical ticks, and eviction is strictly oldest-first — so two runs
//! that emit the same events retain byte-identical rings regardless of
//! `DUAL_THREADS` or wall time.
//!
//! Causality is tracked with an explicit open-span stack: span-opening
//! events ([`Event::opens_span`]) allocate a fresh span id whose parent
//! is the innermost open span, and every record carries both ids. The
//! stack (plus every counter) round-trips through
//! [`Recorder::state`] / [`Recorder::from_state`], so a dual-snap
//! checkpoint taken mid-span restores to the exact causal position.
//!
//! Restore-time annotations that must *not* perturb the replayable
//! history (the `snap.restore` marker) go through [`Recorder::note`]
//! into a volatile side list that is never serialized and never
//! exported into the stable report.

use crate::error::TraceError;
use crate::event::{Event, EventRecord};
use std::collections::VecDeque;

/// Identifier of an open causal span (opaque; `0` never names a span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) u64);

/// Plain-data image of a recorder, for checkpointing. Field meanings
/// match the [`Recorder`] accessors; `events` is oldest-first.
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderState {
    /// Ring capacity (0 = disabled recorder).
    pub capacity: u64,
    /// Total events ever emitted.
    pub emitted: u64,
    /// Next span id to allocate.
    pub next_span: u64,
    /// Events evicted from the ring so far.
    pub evicted: u64,
    /// Open span stack, outermost first.
    pub open: Vec<u64>,
    /// Retained records, oldest first.
    pub events: Vec<EventRecord>,
}

/// Bounded deterministic event ring with causal span tracking.
#[derive(Debug, Clone)]
pub struct Recorder {
    capacity: usize,
    events: VecDeque<EventRecord>,
    emitted: u64,
    next_span: u64,
    evicted: u64,
    open: Vec<u64>,
    volatile: Vec<(u64, Event)>,
}

impl Recorder {
    /// A recorder retaining at most `capacity` events. `capacity == 0`
    /// builds a disabled recorder: every call is a no-op and nothing is
    /// ever retained or counted.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            events: VecDeque::new(),
            emitted: 0,
            next_span: 1,
            evicted: 0,
            open: Vec::new(),
            volatile: Vec::new(),
        }
    }

    /// True when `capacity == 0` and the recorder drops everything.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Configured ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn push(&mut self, rec: EventRecord) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.evicted = self.evicted.saturating_add(1);
        }
        self.events.push_back(rec);
        self.emitted = self.emitted.saturating_add(1);
    }

    fn current_parent(&self) -> u64 {
        self.open.last().copied().unwrap_or(0)
    }

    /// Record a span-opening event at `tick`; returns the new span's
    /// id. Accepts any event (the span shape is the caller's contract),
    /// but pairs naturally with [`Event::opens_span`] variants.
    pub fn begin(&mut self, tick: u64, event: Event) -> SpanId {
        if self.is_disabled() {
            return SpanId(0);
        }
        let parent = self.current_parent();
        let id = self.next_span;
        self.next_span = self.next_span.saturating_add(1);
        self.open.push(id);
        self.push(EventRecord {
            seq: self.emitted,
            tick,
            span: id,
            parent,
            event,
        });
        SpanId(id)
    }

    /// Record a span-closing event at `tick`. Closes `span` if it is
    /// open (innermost-first: any spans opened after it and never
    /// closed are abandoned with it); unknown ids close nothing but
    /// still record the event.
    pub fn end(&mut self, tick: u64, span: SpanId, event: Event) {
        if self.is_disabled() {
            return;
        }
        if let Some(pos) = self.open.iter().rposition(|&id| id == span.0) {
            self.open.truncate(pos);
        }
        let parent = self.current_parent();
        self.push(EventRecord {
            seq: self.emitted,
            tick,
            span: span.0,
            parent,
            event,
        });
    }

    /// Record an instantaneous event at `tick` under the innermost
    /// open span.
    pub fn emit(&mut self, tick: u64, event: Event) {
        if self.is_disabled() {
            return;
        }
        let parent = self.current_parent();
        self.push(EventRecord {
            seq: self.emitted,
            tick,
            span: 0,
            parent,
            event,
        });
    }

    /// Record a volatile annotation: visible to the Chrome exporter but
    /// excluded from the ring, the stable report, and checkpoints — so
    /// a restored run's replayable history stays byte-identical to an
    /// uninterrupted one.
    pub fn note(&mut self, tick: u64, event: Event) {
        if self.is_disabled() {
            return;
        }
        self.volatile.push((tick, event));
    }

    /// Retained records, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &EventRecord> {
        self.events.iter()
    }

    /// Volatile annotations, oldest first.
    pub fn notes(&self) -> impl Iterator<Item = &(u64, Event)> {
        self.volatile.iter()
    }

    /// Total events ever emitted (excluding volatile notes).
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Events evicted from the ring so far.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Events currently retained.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.events.len()
    }

    /// Depth of the open-span stack.
    #[must_use]
    pub fn open_depth(&self) -> usize {
        self.open.len()
    }

    /// Count of retained `alert` events with `raised == true`.
    #[must_use]
    pub fn alerts_raised(&self) -> u64 {
        self.events
            .iter()
            .filter(|r| matches!(r.event, Event::Alert { raised: true, .. }))
            .count() as u64
    }

    /// Plain-data image for checkpointing (volatile notes excluded).
    #[must_use]
    pub fn state(&self) -> RecorderState {
        RecorderState {
            capacity: self.capacity as u64,
            emitted: self.emitted,
            next_span: self.next_span,
            evicted: self.evicted,
            open: self.open.clone(),
            events: self.events.iter().cloned().collect(),
        }
    }

    /// Rebuild from a checkpointed image, failing closed on any shape
    /// inconsistency (so corrupt snapshots cannot build an impossible
    /// recorder).
    pub fn from_state(state: RecorderState) -> Result<Self, TraceError> {
        let capacity = usize::try_from(state.capacity).map_err(|_| TraceError::RestoreShape {
            reason: "capacity overflows usize",
        })?;
        if state.events.len() > capacity {
            return Err(TraceError::RestoreShape {
                reason: "more retained events than capacity",
            });
        }
        let retained = state.events.len() as u64;
        if state.evicted.checked_add(retained) != Some(state.emitted) {
            return Err(TraceError::RestoreShape {
                reason: "emitted != retained + evicted",
            });
        }
        let mut prev: Option<u64> = None;
        for rec in &state.events {
            if let Some(p) = prev {
                if rec.seq <= p {
                    return Err(TraceError::RestoreShape {
                        reason: "event seq not strictly increasing",
                    });
                }
            }
            prev = Some(rec.seq);
            if rec.span >= state.next_span || rec.parent >= state.next_span {
                return Err(TraceError::RestoreShape {
                    reason: "span id from the future",
                });
            }
        }
        for w in state.open.windows(2) {
            if w[1] <= w[0] {
                return Err(TraceError::RestoreShape {
                    reason: "open-span stack not strictly increasing",
                });
            }
        }
        if state.open.last().is_some_and(|&id| id >= state.next_span) {
            return Err(TraceError::RestoreShape {
                reason: "open span id from the future",
            });
        }
        Ok(Self {
            capacity,
            events: state.events.into(),
            emitted: state.emitted,
            next_span: state.next_span.max(1),
            evicted: state.evicted,
            open: state.open,
            volatile: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Cut;
    use dual_obs::Stage;

    fn batch_begin(points: u64) -> Event {
        Event::BatchBegin {
            reason: Cut::Size,
            points,
        }
    }

    #[test]
    fn spans_nest_and_carry_parents() {
        let mut r = Recorder::new(16);
        let batch = r.begin(5, batch_begin(8));
        let stage = r.begin(
            5,
            Event::StageEnter {
                stage: Stage::Encoding,
            },
        );
        r.emit(
            5,
            Event::FaultSense {
                injected: 1,
                healed: 0,
            },
        );
        r.end(
            5,
            stage,
            Event::StageExit {
                stage: Stage::Encoding,
                time_ns: 1.0,
                energy_pj: 2.0,
            },
        );
        r.end(
            6,
            batch,
            Event::BatchEnd {
                batch: 1,
                time_ns: 3.0,
                energy_pj: 4.0,
            },
        );
        let recs: Vec<_> = r.events().collect();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].span, 1);
        assert_eq!(recs[0].parent, 0);
        assert_eq!(recs[1].span, 2);
        assert_eq!(recs[1].parent, 1, "stage nests under batch");
        assert_eq!(recs[2].span, 0);
        assert_eq!(recs[2].parent, 2, "instant event under innermost span");
        assert_eq!(recs[3].span, 2);
        assert_eq!(recs[3].parent, 1, "exit reports the enclosing parent");
        assert_eq!(recs[4].span, 1);
        assert_eq!(recs[4].parent, 0);
        assert_eq!(r.open_depth(), 0);
    }

    #[test]
    fn eviction_is_oldest_first_and_accounted() {
        let mut r = Recorder::new(3);
        for tick in 0..10 {
            r.emit(tick, Event::SnapCapture { tick });
        }
        assert_eq!(r.emitted(), 10);
        assert_eq!(r.retained(), 3);
        assert_eq!(r.evicted(), 7);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let mut r = Recorder::new(0);
        let span = r.begin(1, batch_begin(4));
        assert_eq!(span.0, 0);
        r.emit(1, Event::QuarantineTrip { shard: 0 });
        r.end(
            1,
            span,
            Event::BatchEnd {
                batch: 1,
                time_ns: 0.0,
                energy_pj: 0.0,
            },
        );
        r.note(1, Event::SnapRestore { tick: 1 });
        assert!(r.is_disabled());
        assert_eq!(r.emitted(), 0);
        assert_eq!(r.retained(), 0);
        assert_eq!(r.notes().count(), 0);
    }

    #[test]
    fn state_round_trips_mid_span() {
        let mut r = Recorder::new(4);
        let batch = r.begin(3, batch_begin(2));
        let _stage = r.begin(
            3,
            Event::StageEnter {
                stage: Stage::Update,
            },
        );
        let snap = r.state();
        assert_eq!(snap.open, vec![1, 2]);

        let mut restored = Recorder::from_state(snap).expect("valid state");
        // Both recorders continue identically from the mid-span point.
        for rec in [&mut r, &mut restored] {
            rec.end(
                4,
                SpanId(2),
                Event::StageExit {
                    stage: Stage::Update,
                    time_ns: 1.0,
                    energy_pj: 1.0,
                },
            );
            rec.end(
                4,
                batch,
                Event::BatchEnd {
                    batch: 1,
                    time_ns: 2.0,
                    energy_pj: 2.0,
                },
            );
        }
        assert_eq!(r.state(), restored.state());
    }

    #[test]
    fn from_state_fails_closed_on_bad_shapes() {
        let mut good = Recorder::new(2);
        good.emit(1, Event::SnapCapture { tick: 1 });
        let mut s = good.state();
        s.emitted = 5;
        assert!(Recorder::from_state(s).is_err(), "accounting mismatch");

        let mut s2 = good.state();
        s2.capacity = 0;
        assert!(
            Recorder::from_state(s2).is_err(),
            "retained exceeds capacity"
        );

        let mut s3 = good.state();
        s3.open = vec![9];
        assert!(Recorder::from_state(s3).is_err(), "open span from future");

        let mut s4 = good.state();
        s4.evicted = u64::MAX;
        assert!(
            Recorder::from_state(s4).is_err(),
            "an eviction count that overflows the accounting"
        );
    }

    #[test]
    fn notes_are_volatile() {
        let mut r = Recorder::new(4);
        r.emit(1, Event::SnapCapture { tick: 1 });
        r.note(2, Event::SnapRestore { tick: 1 });
        assert_eq!(r.notes().count(), 1);
        assert_eq!(r.emitted(), 1, "notes never enter the ring accounting");
        let restored = Recorder::from_state(r.state()).expect("valid");
        assert_eq!(restored.notes().count(), 0, "notes do not survive restore");
    }
}
