//! The structured event vocabulary the flight recorder stores.
//!
//! Events are a *closed* enum, mirroring the philosophy of the
//! `dual_obs::Key` metric vocabulary: a fixed set of shapes with fixed
//! wire tags, so recorded histories serialize to identical bytes on
//! every platform and every thread count. Each variant carries only
//! deterministic payloads — logical ticks, counts, and the exact pJ/ns
//! figures the `StreamMeter` cost model attributes to a stage. No wall
//! clock anywhere.

use dual_obs::Stage;

/// Why a micro-batch was cut: the one cut-reason vocabulary, returned by
/// the stream batcher and stored in the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// Buffered points reached the configured batch size.
    Size,
    /// The tick deadline elapsed with at least one point buffered.
    Deadline,
    /// A full ring forced an inline flush under backpressure.
    Backpressure,
    /// The caller drained the engine.
    Drain,
}

impl Cut {
    /// Every reason, in wire-tag order.
    pub const ALL: [Cut; 4] = [Cut::Size, Cut::Deadline, Cut::Backpressure, Cut::Drain];

    /// Canonical label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Size => "size",
            Self::Deadline => "deadline",
            Self::Backpressure => "backpressure",
            Self::Drain => "drain",
        }
    }

    /// Stable wire tag.
    #[must_use]
    pub fn wire(self) -> u64 {
        self as u64
    }

    /// Inverse of [`Cut::wire`]; `None` for unknown tags.
    #[must_use]
    pub fn from_wire(tag: u64) -> Option<Self> {
        usize::try_from(tag)
            .ok()
            .and_then(|i| Self::ALL.get(i).copied())
    }
}

/// One recorded occurrence. Span-shaped pairs (`BatchBegin`/`BatchEnd`,
/// `StageEnter`/`StageExit`) open and close causal spans; everything
/// else is instantaneous.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A micro-batch was cut from the ring (opens the batch span).
    BatchBegin {
        /// Why the batcher cut now.
        reason: Cut,
        /// Points in the batch.
        points: u64,
    },
    /// The batch committed to the chip-cost meter (closes the span).
    BatchEnd {
        /// 1-based batch ordinal from the meter.
        batch: u64,
        /// Modeled batch latency, nanoseconds (Table III).
        time_ns: f64,
        /// Modeled batch energy, picojoules (Table III).
        energy_pj: f64,
    },
    /// A pipeline stage started inside the current batch span.
    StageEnter {
        /// Which stage.
        stage: Stage,
    },
    /// The stage finished; payload is the meter's exact attribution.
    StageExit {
        /// Which stage.
        stage: Stage,
        /// Modeled time this stage added to the open batch, ns.
        time_ns: f64,
        /// Modeled energy this stage added to the open batch, pJ.
        energy_pj: f64,
    },
    /// A fault-plan sense pass flipped cells (injection and/or heal).
    FaultSense {
        /// Newly stuck cells this pass.
        injected: u64,
        /// Cells healed this pass.
        healed: u64,
    },
    /// A shard crossed the quarantine threshold and was fenced.
    QuarantineTrip {
        /// The fenced shard's index.
        shard: u64,
    },
    /// Quarantined shards were released back into rotation.
    QuarantineRelease {
        /// How many shards came back.
        shards: u64,
    },
    /// A durable snapshot of the engine was captured.
    SnapCapture {
        /// Engine tick the snapshot describes.
        tick: u64,
    },
    /// The engine was restored from a snapshot (volatile: recorded as
    /// an annotation, never in the replayable ring — see
    /// [`crate::Recorder::note`]).
    SnapRestore {
        /// Engine tick the restored snapshot was cut at.
        tick: u64,
    },
    /// The topology admitted a tenant's point within budget.
    TenantAdmit {
        /// Tenant name.
        tenant: String,
    },
    /// The scheduler deferred a tenant's slice to a later tick.
    TenantDefer {
        /// Tenant name.
        tenant: String,
    },
    /// Admission control rejected (or shed) a tenant's point.
    TenantReject {
        /// Tenant name.
        tenant: String,
        /// True when the point was shed after admission escalation.
        shed: bool,
    },
    /// An alert rule crossed its threshold (raised) or its clear level
    /// (cleared) — see [`crate::AlertEngine`].
    Alert {
        /// The rule's declared name.
        rule: String,
        /// The sampled signal value at the transition.
        value: f64,
        /// True on raise, false on clear.
        raised: bool,
    },
}

impl Event {
    /// Canonical dotted kind label used by both exporters.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::BatchBegin { .. } => "batch.begin",
            Self::BatchEnd { .. } => "batch.end",
            Self::StageEnter { .. } => "stage.enter",
            Self::StageExit { .. } => "stage.exit",
            Self::FaultSense { .. } => "fault.sense",
            Self::QuarantineTrip { .. } => "fault.quarantine.trip",
            Self::QuarantineRelease { .. } => "fault.quarantine.release",
            Self::SnapCapture { .. } => "snap.capture",
            Self::SnapRestore { .. } => "snap.restore",
            Self::TenantAdmit { .. } => "tenant.admit",
            Self::TenantDefer { .. } => "tenant.defer",
            Self::TenantReject { .. } => "tenant.reject",
            Self::Alert { .. } => "alert",
        }
    }

    /// True for variants that open a causal span.
    #[must_use]
    pub fn opens_span(&self) -> bool {
        matches!(self, Self::BatchBegin { .. } | Self::StageEnter { .. })
    }

    /// True for variants that close the innermost open span.
    #[must_use]
    pub fn closes_span(&self) -> bool {
        matches!(self, Self::BatchEnd { .. } | Self::StageExit { .. })
    }

    /// Flatten to the stable wire tuple `(tag, a, b, c, name)` used by
    /// the dual-snap payload. Floats travel as IEEE-754 bits.
    #[must_use]
    pub fn wire(&self) -> (u8, u64, u64, u64, &str) {
        match self {
            Self::BatchBegin { reason, points } => (0, reason.wire(), *points, 0, ""),
            Self::BatchEnd {
                batch,
                time_ns,
                energy_pj,
            } => (1, *batch, time_ns.to_bits(), energy_pj.to_bits(), ""),
            Self::StageEnter { stage } => (2, stage_wire(*stage), 0, 0, ""),
            Self::StageExit {
                stage,
                time_ns,
                energy_pj,
            } => (
                3,
                stage_wire(*stage),
                time_ns.to_bits(),
                energy_pj.to_bits(),
                "",
            ),
            Self::FaultSense { injected, healed } => (4, *injected, *healed, 0, ""),
            Self::QuarantineTrip { shard } => (5, *shard, 0, 0, ""),
            Self::QuarantineRelease { shards } => (6, *shards, 0, 0, ""),
            Self::SnapCapture { tick } => (7, *tick, 0, 0, ""),
            Self::SnapRestore { tick } => (8, *tick, 0, 0, ""),
            Self::TenantAdmit { tenant } => (9, 0, 0, 0, tenant.as_str()),
            Self::TenantDefer { tenant } => (10, 0, 0, 0, tenant.as_str()),
            Self::TenantReject { tenant, shed } => (11, u64::from(*shed), 0, 0, tenant.as_str()),
            Self::Alert {
                rule,
                value,
                raised,
            } => (12, u64::from(*raised), value.to_bits(), 0, rule.as_str()),
        }
    }

    /// Inverse of [`Event::wire`]; `None` for unknown tags or label
    /// indices, so restore fails closed on vocabulary drift.
    #[must_use]
    pub fn from_wire(tag: u8, a: u64, b: u64, c: u64, name: &str) -> Option<Self> {
        match tag {
            0 => Some(Self::BatchBegin {
                reason: Cut::from_wire(a)?,
                points: b,
            }),
            1 => Some(Self::BatchEnd {
                batch: a,
                time_ns: f64::from_bits(b),
                energy_pj: f64::from_bits(c),
            }),
            2 => Some(Self::StageEnter {
                stage: stage_from_wire(a)?,
            }),
            3 => Some(Self::StageExit {
                stage: stage_from_wire(a)?,
                time_ns: f64::from_bits(b),
                energy_pj: f64::from_bits(c),
            }),
            4 => Some(Self::FaultSense {
                injected: a,
                healed: b,
            }),
            5 => Some(Self::QuarantineTrip { shard: a }),
            6 => Some(Self::QuarantineRelease { shards: a }),
            7 => Some(Self::SnapCapture { tick: a }),
            8 => Some(Self::SnapRestore { tick: a }),
            9 => Some(Self::TenantAdmit {
                tenant: name.to_owned(),
            }),
            10 => Some(Self::TenantDefer {
                tenant: name.to_owned(),
            }),
            11 => Some(Self::TenantReject {
                tenant: name.to_owned(),
                shed: a != 0,
            }),
            12 => Some(Self::Alert {
                rule: name.to_owned(),
                value: f64::from_bits(b),
                raised: a != 0,
            }),
            _ => None,
        }
    }
}

fn stage_wire(stage: Stage) -> u64 {
    stage.index() as u64
}

fn stage_from_wire(tag: u64) -> Option<Stage> {
    usize::try_from(tag)
        .ok()
        .and_then(|i| Stage::ALL.get(i).copied())
}

/// One entry in the recorder's ring: an [`Event`] plus its position on
/// the causal tick clock.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Monotone emission ordinal (0-based, never reused; eviction does
    /// not rewind it).
    pub seq: u64,
    /// Logical engine tick the event was recorded at.
    pub tick: u64,
    /// Span id this record belongs to: a fresh id for span openers,
    /// the opener's id for closers, `0` for instantaneous events.
    pub span: u64,
    /// Enclosing span id at record time (`0` at top level).
    pub parent: u64,
    /// The event payload.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::BatchBegin {
                reason: Cut::Deadline,
                points: 7,
            },
            Event::BatchEnd {
                batch: 3,
                time_ns: 1.5,
                energy_pj: 2.25,
            },
            Event::StageEnter {
                stage: Stage::Encoding,
            },
            Event::StageExit {
                stage: Stage::Update,
                time_ns: 0.5,
                energy_pj: 0.125,
            },
            Event::FaultSense {
                injected: 4,
                healed: 1,
            },
            Event::QuarantineTrip { shard: 2 },
            Event::QuarantineRelease { shards: 3 },
            Event::SnapCapture { tick: 40 },
            Event::SnapRestore { tick: 40 },
            Event::TenantAdmit {
                tenant: "atlas".to_owned(),
            },
            Event::TenantDefer {
                tenant: "bravo".to_owned(),
            },
            Event::TenantReject {
                tenant: "cinder".to_owned(),
                shed: true,
            },
            Event::Alert {
                rule: "quarantine-edge".to_owned(),
                value: 2.0,
                raised: true,
            },
        ]
    }

    #[test]
    fn wire_round_trips_every_variant() {
        for (i, ev) in samples().into_iter().enumerate() {
            let (tag, a, b, c, name) = ev.wire();
            assert_eq!(usize::from(tag), i, "tags follow declaration order");
            let back = Event::from_wire(tag, a, b, c, name).expect("known tag");
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn unknown_tags_fail_closed() {
        assert_eq!(Event::from_wire(13, 0, 0, 0, ""), None);
        assert_eq!(Event::from_wire(0, 99, 0, 0, ""), None, "bad cut reason");
        assert_eq!(Event::from_wire(2, 99, 0, 0, ""), None, "bad stage");
        assert_eq!(Cut::from_wire(4), None);
    }

    #[test]
    fn kind_labels_are_unique() {
        let mut kinds: Vec<&str> = samples().iter().map(Event::kind).collect();
        let before = kinds.len();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), before);
    }

    #[test]
    fn span_shape_is_paired() {
        for ev in samples() {
            assert!(
                !(ev.opens_span() && ev.closes_span()),
                "an event cannot both open and close: {ev:?}"
            );
        }
    }
}
