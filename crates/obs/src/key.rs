//! The closed metric vocabulary: every instrumentation site in the
//! workspace records against a [`Key`], and every key has a fixed kind,
//! a canonical dotted name, and a dense slot in the registry's storage.
//!
//! A *closed* enum (rather than string-keyed registration) is what makes
//! the whole layer deterministic and cheap: snapshots iterate a fixed
//! key set in a fixed order, and a recording site is an array index plus
//! one atomic op — no hashing, no locks, no allocation.
//!
//! [`Stage`] and [`OpFamily`] are the two shared label vocabularies that
//! previously lived as three disconnected copies (`Phase` in
//! `dual_core::perf`, `Op` in `dual_pim::cost`, and the stream stage
//! names): `dual_core::Phase::name` now delegates to [`Stage::name`] and
//! `dual_pim` maps every `Op` onto an [`OpFamily`], so exported metric
//! names agree across all layers.

/// Execution stage of the DUAL pipeline (Fig. 15b's categories) — the
/// single phase-name vocabulary shared by `dual_core::Phase`, the PIM
/// cost bridges, and the stream engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// HD-Mapper encoding (§V-A).
    Encoding,
    /// Row-parallel Hamming distance computation.
    Hamming,
    /// Partial-distance accumulation (in-memory adds).
    Accumulate,
    /// Nearest/minimum search over the distance memory.
    Nearest,
    /// Distance/center update arithmetic.
    Update,
    /// Inter-block data movement.
    Transfer,
}

impl Stage {
    /// Every stage, in reporting order.
    pub const ALL: [Stage; 6] = [
        Stage::Encoding,
        Stage::Hamming,
        Stage::Accumulate,
        Stage::Nearest,
        Stage::Update,
        Stage::Transfer,
    ];

    /// Canonical label — identical to the strings the pre-existing
    /// results files use, so adopting the shared vocabulary changes no
    /// exported artifact.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Encoding => "encoding",
            Self::Hamming => "hamming",
            Self::Accumulate => "accumulate",
            Self::Nearest => "nearest",
            Self::Update => "update",
            Self::Transfer => "transfer",
        }
    }

    /// Dense index in `0..Stage::ALL.len()`.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Family of a `dual_pim::Op` with the bit-width parameter erased — the
/// label granularity the op-issue gauges export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpFamily {
    /// 7-bit Hamming window searches.
    HammingWindow,
    /// 4-bit nearest-search stages.
    NearestStage,
    /// Row-parallel additions (any width).
    Add,
    /// Row-parallel subtractions.
    Sub,
    /// Row-parallel multiplications.
    Mul,
    /// Row-parallel divisions.
    Div,
    /// Interconnect transfers.
    Transfer,
    /// NVM column writes.
    Write,
}

impl OpFamily {
    /// Every family, in reporting order.
    pub const ALL: [OpFamily; 8] = [
        OpFamily::HammingWindow,
        OpFamily::NearestStage,
        OpFamily::Add,
        OpFamily::Sub,
        OpFamily::Mul,
        OpFamily::Div,
        OpFamily::Transfer,
        OpFamily::Write,
    ];

    /// Dense index in `0..OpFamily::ALL.len()`.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What a [`Key`] stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone `u64` counter (sharded per thread, summed on snapshot).
    Counter,
    /// Last-write-wins `f64` gauge (set from serial control code only).
    Gauge,
    /// Fixed-bound power-of-two histogram over `u64` observations.
    Histogram,
}

/// Number of counter slots.
pub(crate) const N_COUNTERS: usize = 35;
/// Number of gauge slots.
pub(crate) const N_GAUGES: usize = 33;
/// Number of histogram slots.
pub(crate) const N_HISTS: usize = 5;

/// One metric in the closed vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    // ---- counters -------------------------------------------------------
    /// Hypervectors encoded by `dual_hdc` encoders.
    HdcEncoded,
    /// Hamming search scan starts (`nearest` and `assign_batch`: one
    /// per query), recorded once per public call.
    HdcSearchQueries,
    /// Packed 64-bit popcount words scanned by Hamming searches.
    HdcPopcountWords,
    /// Bounded top-k heap insertions: no longer recorded; slot retired
    /// in DSNP v3. **Unstable**, so it stays out of stable snapshots.
    HdcTopKPushes,
    /// Lloyd iterations executed by (Hamming) k-means fits.
    KmeansIterations,
    /// Label changes between consecutive k-means assignment passes.
    KmeansReassignments,
    /// DBSCAN ε-neighborhood region queries issued.
    DbscanRegionQueries,
    /// Points classified as DBSCAN core points.
    DbscanCorePoints,
    /// Hierarchical-clustering merge steps executed.
    HierMergeSteps,
    /// Parallel sections opened (`dual_pool` public entry points).
    PoolSections,
    /// Items processed across parallel sections.
    PoolItems,
    /// Scoped worker tasks spawned. **Unstable**: a direct function of
    /// the resolved thread count.
    PoolTasks,
    /// Stream: points accepted into the ingest ring.
    StreamIngested,
    /// Stream: points refused under the `Reject` policy.
    StreamRejected,
    /// Stream: buffered points evicted under `DropOldest`.
    StreamDropped,
    /// Stream: inline flushes forced by a full ring under `Block`.
    StreamInlineFlushes,
    /// Stream: micro-batches committed.
    StreamBatches,
    /// Stream: batches cut on the size threshold.
    StreamSizeCuts,
    /// Stream: batches cut on the tick deadline.
    StreamDeadlineCuts,
    /// Stream: batches cut by `drain`.
    StreamDrainCuts,
    /// Stream: points encoded into hypervectors.
    StreamEncoded,
    /// Stream: points assigned to a sub-centroid.
    StreamAssigned,
    /// Stream: sub-centroid slots seeded from stream points.
    StreamSeeded,
    /// Stream: sub-centroid majority re-binarizations.
    StreamRebinarized,
    /// Fault: bits that reached a reader corrupted (after healing).
    FaultInjected,
    /// Fault: bits repaired by majority re-read voting.
    FaultHealed,
    /// Fault: shard quarantine trips.
    FaultQuarantined,
    /// Fault: quarantined shards released back to service (work
    /// requeued).
    FaultRequeued,
    /// Snap: write-ahead snapshots captured (periodic + explicit).
    SnapCaptured,
    /// Snap: engines restored from a snapshot. **Unstable**: a property
    /// of the process run (a restored run counts one, the uninterrupted
    /// run it replays counts zero), not of the workload.
    SnapRestored,
    /// Topology: tenant engine ticks the fair-share scheduler drove.
    TopoScheduled,
    /// Topology: tenant ticks deferred because the tenant was over its
    /// energy budget.
    TopoDeferred,
    /// Topology: pushes refused by quota escalation (`Reject`).
    TopoQuotaRejected,
    /// Topology: pushes that evicted a buffered point under quota
    /// escalation (`DropOldest` while over budget, ring full).
    TopoQuotaShed,
    /// Topology: per-tenant checkpoints captured.
    TopoCheckpoints,
    // ---- gauges ---------------------------------------------------------
    /// Modeled chip latency of one pipeline stage, nanoseconds.
    PhaseTimeNs(Stage),
    /// Modeled chip energy of one pipeline stage, picojoules.
    PhaseEnergyPj(Stage),
    /// Total modeled chip latency bridged from `dual_pim::EnergyStats`.
    PimTimeNs,
    /// Total modeled chip energy bridged from `dual_pim::EnergyStats`.
    PimEnergyPj,
    /// Op issues bridged from `dual_pim::EnergyStats`, by family.
    PimOpIssues(OpFamily),
    /// Spare rows handed out by the active healing policy.
    FaultSpareUsed,
    /// Spare rows still available in the pool.
    FaultSpareFree,
    /// Shards currently benched by the quarantine machine.
    FaultQuarantineActive,
    /// Reads per cell the active healing policy performs (1 = voting
    /// off).
    FaultRereadReads,
    /// Encoded size of the most recent snapshot, bytes.
    SnapBytes,
    /// Logical tick the most recent snapshot captured.
    SnapLastTick,
    /// Tenants hosted by the topology service.
    TopoTenants,
    /// Stream: ingest-ring occupancy fraction (buffered / capacity) at
    /// the most recent tick.
    StreamRingOccupancy,
    /// Trace: events ever emitted by the flight recorder.
    TraceEmitted,
    /// Trace: events evicted from the flight-recorder ring.
    TraceEvicted,
    /// Trace: alert raise transitions recorded by the alert engine.
    TraceAlertsRaised,
    // ---- histograms -----------------------------------------------------
    /// Points per committed stream micro-batch.
    StreamBatchPoints,
    /// Logical-clock ticks spanned by one k-means fit.
    SpanKmeansFit,
    /// Logical-clock ticks spanned by one DBSCAN fit.
    SpanDbscanFit,
    /// Logical-clock ticks spanned by one hierarchical fit.
    SpanHierFit,
    /// Wall-clock nanoseconds observed by the bench-only adapter.
    /// **Unstable** by definition (and only ever fed from `src/bin/`).
    BenchWallNs,
}

impl Key {
    /// Every key, in declaration order (the Prometheus export order).
    pub const ALL: [Key; N_COUNTERS + N_GAUGES + N_HISTS] = [
        Key::HdcEncoded,
        Key::HdcSearchQueries,
        Key::HdcPopcountWords,
        Key::HdcTopKPushes,
        Key::KmeansIterations,
        Key::KmeansReassignments,
        Key::DbscanRegionQueries,
        Key::DbscanCorePoints,
        Key::HierMergeSteps,
        Key::PoolSections,
        Key::PoolItems,
        Key::PoolTasks,
        Key::StreamIngested,
        Key::StreamRejected,
        Key::StreamDropped,
        Key::StreamInlineFlushes,
        Key::StreamBatches,
        Key::StreamSizeCuts,
        Key::StreamDeadlineCuts,
        Key::StreamDrainCuts,
        Key::StreamEncoded,
        Key::StreamAssigned,
        Key::StreamSeeded,
        Key::StreamRebinarized,
        Key::FaultInjected,
        Key::FaultHealed,
        Key::FaultQuarantined,
        Key::FaultRequeued,
        Key::SnapCaptured,
        Key::SnapRestored,
        Key::TopoScheduled,
        Key::TopoDeferred,
        Key::TopoQuotaRejected,
        Key::TopoQuotaShed,
        Key::TopoCheckpoints,
        Key::PhaseTimeNs(Stage::Encoding),
        Key::PhaseTimeNs(Stage::Hamming),
        Key::PhaseTimeNs(Stage::Accumulate),
        Key::PhaseTimeNs(Stage::Nearest),
        Key::PhaseTimeNs(Stage::Update),
        Key::PhaseTimeNs(Stage::Transfer),
        Key::PhaseEnergyPj(Stage::Encoding),
        Key::PhaseEnergyPj(Stage::Hamming),
        Key::PhaseEnergyPj(Stage::Accumulate),
        Key::PhaseEnergyPj(Stage::Nearest),
        Key::PhaseEnergyPj(Stage::Update),
        Key::PhaseEnergyPj(Stage::Transfer),
        Key::PimTimeNs,
        Key::PimEnergyPj,
        Key::PimOpIssues(OpFamily::HammingWindow),
        Key::PimOpIssues(OpFamily::NearestStage),
        Key::PimOpIssues(OpFamily::Add),
        Key::PimOpIssues(OpFamily::Sub),
        Key::PimOpIssues(OpFamily::Mul),
        Key::PimOpIssues(OpFamily::Div),
        Key::PimOpIssues(OpFamily::Transfer),
        Key::PimOpIssues(OpFamily::Write),
        Key::FaultSpareUsed,
        Key::FaultSpareFree,
        Key::FaultQuarantineActive,
        Key::FaultRereadReads,
        Key::SnapBytes,
        Key::SnapLastTick,
        Key::TopoTenants,
        Key::StreamRingOccupancy,
        Key::TraceEmitted,
        Key::TraceEvicted,
        Key::TraceAlertsRaised,
        Key::StreamBatchPoints,
        Key::SpanKmeansFit,
        Key::SpanDbscanFit,
        Key::SpanHierFit,
        Key::BenchWallNs,
    ];

    /// The key's storage kind and dense slot within that kind.
    #[must_use]
    pub fn slot(self) -> (Kind, usize) {
        match self {
            Self::HdcEncoded => (Kind::Counter, 0),
            Self::HdcSearchQueries => (Kind::Counter, 1),
            Self::HdcPopcountWords => (Kind::Counter, 2),
            Self::HdcTopKPushes => (Kind::Counter, 3),
            Self::KmeansIterations => (Kind::Counter, 4),
            Self::KmeansReassignments => (Kind::Counter, 5),
            Self::DbscanRegionQueries => (Kind::Counter, 6),
            Self::DbscanCorePoints => (Kind::Counter, 7),
            Self::HierMergeSteps => (Kind::Counter, 8),
            Self::PoolSections => (Kind::Counter, 9),
            Self::PoolItems => (Kind::Counter, 10),
            Self::PoolTasks => (Kind::Counter, 11),
            Self::StreamIngested => (Kind::Counter, 12),
            Self::StreamRejected => (Kind::Counter, 13),
            Self::StreamDropped => (Kind::Counter, 14),
            Self::StreamInlineFlushes => (Kind::Counter, 15),
            Self::StreamBatches => (Kind::Counter, 16),
            Self::StreamSizeCuts => (Kind::Counter, 17),
            Self::StreamDeadlineCuts => (Kind::Counter, 18),
            Self::StreamDrainCuts => (Kind::Counter, 19),
            Self::StreamEncoded => (Kind::Counter, 20),
            Self::StreamAssigned => (Kind::Counter, 21),
            Self::StreamSeeded => (Kind::Counter, 22),
            Self::StreamRebinarized => (Kind::Counter, 23),
            Self::FaultInjected => (Kind::Counter, 24),
            Self::FaultHealed => (Kind::Counter, 25),
            Self::FaultQuarantined => (Kind::Counter, 26),
            Self::FaultRequeued => (Kind::Counter, 27),
            Self::SnapCaptured => (Kind::Counter, 28),
            Self::SnapRestored => (Kind::Counter, 29),
            Self::TopoScheduled => (Kind::Counter, 30),
            Self::TopoDeferred => (Kind::Counter, 31),
            Self::TopoQuotaRejected => (Kind::Counter, 32),
            Self::TopoQuotaShed => (Kind::Counter, 33),
            Self::TopoCheckpoints => (Kind::Counter, 34),
            Self::PhaseTimeNs(s) => (Kind::Gauge, s.index()),
            Self::PhaseEnergyPj(s) => (Kind::Gauge, Stage::ALL.len() + s.index()),
            Self::PimTimeNs => (Kind::Gauge, 12),
            Self::PimEnergyPj => (Kind::Gauge, 13),
            Self::PimOpIssues(f) => (Kind::Gauge, 14 + f.index()),
            Self::FaultSpareUsed => (Kind::Gauge, 22),
            Self::FaultSpareFree => (Kind::Gauge, 23),
            Self::FaultQuarantineActive => (Kind::Gauge, 24),
            Self::FaultRereadReads => (Kind::Gauge, 25),
            Self::SnapBytes => (Kind::Gauge, 26),
            Self::SnapLastTick => (Kind::Gauge, 27),
            Self::TopoTenants => (Kind::Gauge, 28),
            Self::StreamRingOccupancy => (Kind::Gauge, 29),
            Self::TraceEmitted => (Kind::Gauge, 30),
            Self::TraceEvicted => (Kind::Gauge, 31),
            Self::TraceAlertsRaised => (Kind::Gauge, 32),
            Self::StreamBatchPoints => (Kind::Histogram, 0),
            Self::SpanKmeansFit => (Kind::Histogram, 1),
            Self::SpanDbscanFit => (Kind::Histogram, 2),
            Self::SpanHierFit => (Kind::Histogram, 3),
            Self::BenchWallNs => (Kind::Histogram, 4),
        }
    }

    /// The key's storage kind.
    #[must_use]
    pub fn kind(self) -> Kind {
        self.slot().0
    }

    /// Canonical dotted metric name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::HdcEncoded => "hdc.encoded",
            Self::HdcSearchQueries => "hdc.search.queries",
            Self::HdcPopcountWords => "hdc.search.popcount_words",
            Self::HdcTopKPushes => "hdc.search.topk_pushes",
            Self::KmeansIterations => "cluster.kmeans.iterations",
            Self::KmeansReassignments => "cluster.kmeans.reassignments",
            Self::DbscanRegionQueries => "cluster.dbscan.region_queries",
            Self::DbscanCorePoints => "cluster.dbscan.core_points",
            Self::HierMergeSteps => "cluster.hier.merge_steps",
            Self::PoolSections => "pool.sections",
            Self::PoolItems => "pool.items",
            Self::PoolTasks => "pool.tasks_spawned",
            Self::StreamIngested => "stream.ingested",
            Self::StreamRejected => "stream.rejected",
            Self::StreamDropped => "stream.dropped",
            Self::StreamInlineFlushes => "stream.inline_flushes",
            Self::StreamBatches => "stream.batches",
            Self::StreamSizeCuts => "stream.size_cuts",
            Self::StreamDeadlineCuts => "stream.deadline_cuts",
            Self::StreamDrainCuts => "stream.drain_cuts",
            Self::StreamEncoded => "stream.encoded",
            Self::StreamAssigned => "stream.assigned",
            Self::StreamSeeded => "stream.seeded",
            Self::StreamRebinarized => "stream.rebinarized",
            Self::FaultInjected => "fault.injected",
            Self::FaultHealed => "fault.healed",
            Self::FaultQuarantined => "fault.quarantined",
            Self::FaultRequeued => "fault.requeued",
            Self::SnapCaptured => "snap.captured",
            Self::SnapRestored => "snap.restored",
            Self::TopoScheduled => "topology.scheduled_ticks",
            Self::TopoDeferred => "topology.quota.deferred",
            Self::TopoQuotaRejected => "topology.quota.rejected",
            Self::TopoQuotaShed => "topology.quota.shed",
            Self::TopoCheckpoints => "topology.checkpoints",
            Self::PhaseTimeNs(s) => match s {
                Stage::Encoding => "phase.encoding.time_ns",
                Stage::Hamming => "phase.hamming.time_ns",
                Stage::Accumulate => "phase.accumulate.time_ns",
                Stage::Nearest => "phase.nearest.time_ns",
                Stage::Update => "phase.update.time_ns",
                Stage::Transfer => "phase.transfer.time_ns",
            },
            Self::PhaseEnergyPj(s) => match s {
                Stage::Encoding => "phase.encoding.energy_pj",
                Stage::Hamming => "phase.hamming.energy_pj",
                Stage::Accumulate => "phase.accumulate.energy_pj",
                Stage::Nearest => "phase.nearest.energy_pj",
                Stage::Update => "phase.update.energy_pj",
                Stage::Transfer => "phase.transfer.energy_pj",
            },
            Self::PimTimeNs => "pim.time_ns",
            Self::PimEnergyPj => "pim.energy_pj",
            Self::PimOpIssues(f) => match f {
                OpFamily::HammingWindow => "pim.op.hamming_window.issues",
                OpFamily::NearestStage => "pim.op.nearest_stage.issues",
                OpFamily::Add => "pim.op.add.issues",
                OpFamily::Sub => "pim.op.sub.issues",
                OpFamily::Mul => "pim.op.mul.issues",
                OpFamily::Div => "pim.op.div.issues",
                OpFamily::Transfer => "pim.op.transfer.issues",
                OpFamily::Write => "pim.op.write.issues",
            },
            Self::FaultSpareUsed => "fault.spare.used",
            Self::FaultSpareFree => "fault.spare.free",
            Self::FaultQuarantineActive => "fault.quarantine.active",
            Self::FaultRereadReads => "fault.reread.reads",
            Self::SnapBytes => "snap.bytes",
            Self::SnapLastTick => "snap.last_tick",
            Self::TopoTenants => "topology.tenants",
            Self::StreamRingOccupancy => "stream.ring_occupancy",
            Self::TraceEmitted => "trace.emitted",
            Self::TraceEvicted => "trace.evicted",
            Self::TraceAlertsRaised => "trace.alerts_raised",
            Self::StreamBatchPoints => "stream.batch_points",
            Self::SpanKmeansFit => "span.kmeans_fit",
            Self::SpanDbscanFit => "span.dbscan_fit",
            Self::SpanHierFit => "span.hier_fit",
            Self::BenchWallNs => "bench.wall_ns",
        }
    }

    /// Whether the key's value is invariant across thread counts for a
    /// fixed workload. Only stable keys enter the byte-stable JSON
    /// snapshot; unstable keys (task spawn counts, chunk-local heap
    /// pushes, wall-clock nanoseconds) still appear in the Prometheus
    /// text render.
    #[must_use]
    pub fn stable(self) -> bool {
        !matches!(
            self,
            Self::HdcTopKPushes | Self::PoolTasks | Self::BenchWallNs | Self::SnapRestored
        )
    }

    /// Stable wire id: the key's position in [`Key::ALL`]. Serialized
    /// formats (dual-snap alert rules, external dashboards) address
    /// keys by this id, so it must never be reassigned — the
    /// `key_wire_golden` test pins the full `(id, kind, slot, name)`
    /// table and fails on any renumbering. New keys may only take new
    /// ids.
    #[must_use]
    pub fn wire_id(self) -> u16 {
        // Linear scan over a ~70-entry const array: not on any hot
        // path (serialization and restore only).
        let pos = Self::ALL.iter().position(|k| *k == self).unwrap_or(0);
        u16::try_from(pos).unwrap_or(0)
    }

    /// Inverse of [`Key::wire_id`]; `None` for ids this build doesn't
    /// know, so decoders fail closed on vocabulary drift.
    #[must_use]
    pub fn from_wire_id(id: u16) -> Option<Key> {
        Self::ALL.get(usize::from(id)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn slots_are_dense_and_unique_per_kind() {
        let mut counters = BTreeSet::new();
        let mut gauges = BTreeSet::new();
        let mut hists = BTreeSet::new();
        for k in Key::ALL {
            let (kind, slot) = k.slot();
            let fresh = match kind {
                Kind::Counter => counters.insert(slot),
                Kind::Gauge => gauges.insert(slot),
                Kind::Histogram => hists.insert(slot),
            };
            assert!(fresh, "duplicate slot for {k:?}");
        }
        assert_eq!(counters, (0..N_COUNTERS).collect());
        assert_eq!(gauges, (0..N_GAUGES).collect());
        assert_eq!(hists, (0..N_HISTS).collect());
    }

    #[test]
    fn names_are_unique_and_dotted() {
        let names: BTreeSet<&str> = Key::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), Key::ALL.len());
        for n in names {
            assert!(n.contains('.'), "{n} should be dotted");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{n} has non-canonical characters"
            );
        }
    }

    #[test]
    fn stage_and_family_indexes_match_all_order() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, f) in OpFamily::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
    }

    #[test]
    fn stage_names_match_the_legacy_phase_strings() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "encoding",
                "hamming",
                "accumulate",
                "nearest",
                "update",
                "transfer"
            ]
        );
    }

    #[test]
    fn unstable_keys_are_exactly_the_documented_four() {
        let unstable: Vec<Key> = Key::ALL.iter().copied().filter(|k| !k.stable()).collect();
        assert_eq!(
            unstable,
            [
                Key::HdcTopKPushes,
                Key::PoolTasks,
                Key::SnapRestored,
                Key::BenchWallNs
            ]
        );
    }
}
