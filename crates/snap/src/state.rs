//! The snapshot state tree: plain-data mirrors of every mutable piece
//! of a `StreamEngine`. Each is declared through `wire_struct!`, so its
//! field list is its wire encoding: fields travel in declaration order,
//! nested structs depth-first.
//!
//! These structs carry **bit representations**, not live objects:
//! `f64`s travel as `to_bits()` words so a snapshot→restore→replay run
//! is bit-for-bit identical to the uninterrupted one, and enum states
//! travel as documented tags so the format has no dependency on any
//! other crate's layout. `dual-stream` owns the mapping between live
//! engine types and this tree.

use crate::codec::wire_struct;

wire_struct! {
    /// Engine configuration, recorded so a restore can rebuild the exact
    /// `StreamConfig` and validate the caller-supplied encoder geometry.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ConfigState {
        /// Hypervector dimensionality of the encoder.
        pub dim: u64,
        /// Input feature count of the encoder.
        pub n_features: u64,
        /// Ring capacity.
        pub capacity: u64,
        /// Backpressure policy tag: 0 = Block, 1 = DropOldest, 2 = Reject.
        pub policy: u8,
        /// Batch size threshold.
        pub max_batch: u64,
        /// Deadline in logical ticks.
        pub max_ticks: u64,
        /// Number of clusters.
        pub k: u64,
        /// Sub-centroid slots per cluster.
        pub centroids_per_cluster: u64,
        /// Accumulator decay factor, as `f64::to_bits`.
        pub decay_bits: u64,
        /// Index shard count.
        pub shards: u64,
        /// Configured worker thread count (0 = auto).
        pub threads: u64,
        /// Periodic write-ahead snapshot interval in ticks (0 = off).
        pub snapshot_every: u64,
        /// Flight-recorder ring capacity (0 = recorder off). New in
        /// format version 2.
        pub trace_capacity: u64,
    }
}

wire_struct! {
    /// Online k-means learning state: seeded slots and their decayed
    /// accumulators.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ModelState {
        /// Batches the model has observed (drives seeding behaviour).
        pub batches_observed: u64,
        /// Bit-packed hypervector words of each seeded sub-centroid slot,
        /// in slot order.
        pub centroids: Vec<Vec<u64>>,
        /// Per-slot accumulator bit counts, each entry `f64::to_bits`.
        pub acc_counts: Vec<Vec<u64>>,
        /// Per-slot accumulator weights, as `f64::to_bits`.
        pub acc_weights: Vec<u64>,
    }
}

wire_struct! {
    /// One priced-operation ledger entry: a `dual_pim::Op` flattened to a
    /// `(tag, bits)` pair plus its issue count.
    ///
    /// Tags: 0 HammingWindow, 1 NearestStage, 2 Add, 3 Sub, 4 Mul, 5 Div,
    /// 6 Transfer, 7 Write. `bits` is 0 for the un-parameterised ops.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct OpCount {
        /// Operation tag (see type docs).
        pub tag: u8,
        /// Bit-width parameter of the op, 0 when not applicable.
        pub bits: u32,
        /// Times the op was issued.
        pub count: u64,
    }
}

wire_struct! {
    /// A committed batch cost, bit-preserved.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct BatchCostState {
        /// 1-based batch sequence number.
        pub batch: u64,
        /// Points the batch carried.
        pub points: u64,
        /// Modeled latency, as `f64::to_bits`.
        pub time_ns_bits: u64,
        /// Modeled energy, as `f64::to_bits`.
        pub energy_pj_bits: u64,
    }
}

wire_struct! {
    /// The stream meter's committed energy ledger.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct MeterState {
        /// Total modeled latency, as `f64::to_bits`.
        pub time_ns_bits: u64,
        /// Total modeled energy, as `f64::to_bits`.
        pub energy_pj_bits: u64,
        /// Per-op issue counts, in the meter's (ordered) iteration order.
        pub ops: Vec<OpCount>,
        /// Committed batches.
        pub batches: u64,
        /// Committed points.
        pub points: u64,
        /// The most recent committed batch cost, if any.
        pub last: Option<BatchCostState>,
    }
}

wire_struct! {
    /// One histogram's buckets and moments.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct HistState {
        /// Bucket hit counts (fixed bucket layout of the obs registry).
        pub buckets: Vec<u64>,
        /// Sum of observed values.
        pub sum: u64,
        /// Number of observations.
        pub count: u64,
    }
}

wire_struct! {
    /// The observability registry: logical clock, counters, gauges (as
    /// `f64::to_bits`), and histograms, each in metric slot order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ObsState {
        /// Logical clock ticks.
        pub clock: u64,
        /// Counter values by counter slot.
        pub counters: Vec<u64>,
        /// Gauge values by gauge slot, as `f64::to_bits`.
        pub gauges: Vec<u64>,
        /// Histograms by histogram slot.
        pub hists: Vec<HistState>,
    }
}

wire_struct! {
    /// Identity of the fault-injection setup the snapshot was taken under.
    ///
    /// A restore re-supplies the live `FaultPlan`/policy (they are pure
    /// seeded configuration, not state); this fingerprint lets the restore
    /// path reject a mismatched re-supply with a typed error instead of
    /// silently diverging.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FaultFingerprint {
        /// Healing policy tag: 0 Off, 1 SpareRows, 2 MajorityReread, 3 Full.
        pub policy_tag: u8,
        /// Spare rows of the policy (0 when not applicable).
        pub spares: u64,
        /// Re-read count of the policy (0 when not applicable).
        pub reads: u64,
        /// Quarantine retry budget.
        pub retry_budget: u64,
        /// Quarantine base backoff in ticks.
        pub base_backoff_ticks: u64,
        /// Quarantine backoff multiplier.
        pub backoff_factor: u64,
        /// Quarantine corruption threshold, as `f64::to_bits`.
        pub threshold_bits: u64,
        /// Fault plan RNG seed.
        pub plan_seed: u64,
        /// Fault plan rows.
        pub plan_rows: u64,
        /// Fault plan columns.
        pub plan_cols: u64,
        /// Stuck-cell rate, as `f64::to_bits`.
        pub stuck_rate_bits: u64,
        /// Dead-row rate, as `f64::to_bits`.
        pub dead_row_rate_bits: u64,
        /// Transient flip rate, as `f64::to_bits`.
        pub flip_rate_bits: u64,
    }
}

wire_struct! {
    /// One shard's quarantine machine state. Tags: 0 Healthy,
    /// 1 Quarantined, 2 Dead. `until_tick`/`retries_used` are zero unless
    /// the tag is 1.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ShardState {
        /// Health tag (see type docs).
        pub tag: u8,
        /// Logical tick at which a quarantined shard requeues.
        pub until_tick: u64,
        /// Retries consumed by a quarantined shard.
        pub retries_used: u64,
    }
}

wire_struct! {
    /// Fault-tolerance machine state: the spare-row pool and the per-shard
    /// quarantine clocks, plus the fingerprint of the configuration they
    /// were built under.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FaultState {
        /// Configuration identity, validated on restore.
        pub fingerprint: FaultFingerprint,
        /// Spare pool: first spare row index.
        pub pool_base: u64,
        /// Spare pool: capacity (number of provisioned spare rows).
        pub pool_total: u64,
        /// Spare pool: next unassigned spare cursor.
        pub pool_next: u64,
        /// Spare pool: live (logical row → physical spare row) remaps.
        pub pool_map: Vec<(u64, u64)>,
        /// Per-shard health machines.
        pub shards: Vec<ShardState>,
        /// Per-shard quarantine trip counts (drives the backoff exponent).
        pub trips: Vec<u64>,
        /// Lifetime quarantine entries.
        pub stats_quarantined: u64,
        /// Lifetime requeues after backoff.
        pub stats_requeued: u64,
        /// Shards retired for good.
        pub stats_dead: u64,
    }
}

wire_struct! {
    /// One flight-recorder event, flattened to the trace crate's stable
    /// wire tuple: a variant tag, three numeric words (`f64`s as
    /// `to_bits`), and an optional label (tenant or rule name). The
    /// mapping is owned by `dual_trace::Event::wire` / `from_wire`;
    /// unknown tags fail closed at restore time, not here.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TraceEventState {
        /// Monotone emission ordinal.
        pub seq: u64,
        /// Logical tick the event was recorded at.
        pub tick: u64,
        /// Span id (0 for instantaneous events).
        pub span: u64,
        /// Enclosing span id at record time (0 at top level).
        pub parent: u64,
        /// Event variant tag.
        pub tag: u8,
        /// First payload word.
        pub a: u64,
        /// Second payload word.
        pub b: u64,
        /// Third payload word.
        pub c: u64,
        /// Label payload ("" when the variant carries none).
        pub name: String,
    }
}

wire_struct! {
    /// One alert rule plus its evaluation state, fully self-contained so a
    /// restore needs no re-supplied rule list. The watched key travels as
    /// its `dual_obs::Key::wire_id` (pinned by obs' `key_wire_golden`
    /// test); signal tags: 0 counter, 1 per-eval delta, 2 gauge.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AlertRuleWire {
        /// Rule name.
        pub name: String,
        /// Signal shape tag (see type docs).
        pub signal_tag: u8,
        /// Watched obs key, as its stable wire id.
        pub key_wire: u64,
        /// Raise threshold, as `f64::to_bits`.
        pub threshold_bits: u64,
        /// Re-arm level, as `f64::to_bits`.
        pub clear_bits: u64,
        /// 1 while raised, 0 while armed.
        pub latched: u8,
        /// Previous sample (delta baseline), as `f64::to_bits`.
        pub last_bits: u64,
    }
}

wire_struct! {
    /// Flight-recorder ring plus alert-engine state (new in format
    /// version 2): everything needed to replay the exact event history —
    /// retained records, ring counters, the open-span stack (a checkpoint
    /// may land mid-span), and per-rule alert latches.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TraceState {
        /// Ring capacity (0 = recorder disabled).
        pub capacity: u64,
        /// Events ever emitted.
        pub emitted: u64,
        /// Next span id to allocate.
        pub next_span: u64,
        /// Events evicted so far.
        pub evicted: u64,
        /// Open-span stack, outermost first.
        pub open: Vec<u64>,
        /// Retained events, oldest first.
        pub events: Vec<TraceEventState>,
        /// Alert rules and their latches, in evaluation order.
        pub alerts: Vec<AlertRuleWire>,
    }
}

wire_struct! {
    /// The complete engine snapshot: everything a `StreamEngine::restore`
    /// needs (beyond the re-supplied encoder, cost model, and fault plan)
    /// to continue a run bit-for-bit.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct EngineSnapshot {
        /// Configuration the engine was running under.
        pub config: ConfigState,
        /// Batcher logical clock at capture time.
        pub now: u64,
        /// Batcher tick of the last cut.
        pub last_cut: u64,
        /// Buffered ring points in FIFO order; each point is its features
        /// as `f64::to_bits` words.
        pub pending: Vec<Vec<u64>>,
        /// Learning state.
        pub model: ModelState,
        /// Energy ledger.
        pub meter: MeterState,
        /// Observability registry.
        pub obs: ObsState,
        /// Fault-tolerance machines, present iff fault injection was on.
        pub fault: Option<FaultState>,
        /// Endurance wear-leveler per-block write counts.
        pub wear: Vec<u64>,
        /// Flight-recorder ring and alert-engine state (format v2).
        pub trace: TraceState,
    }
}

impl EngineSnapshot {
    /// The logical tick the snapshot was captured at. Replaying the
    /// input stream from just after this tick reproduces the
    /// uninterrupted run bit-for-bit.
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.now
    }
}
