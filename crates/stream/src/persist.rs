//! Snapshot capture and restore: the bridge between a live
//! [`StreamEngine`] and the `dual-snap` wire format.
//!
//! # Replay contract
//!
//! [`StreamEngine::checkpoint`] captures the complete mutable state of
//! the engine *between batches* — model slots and accumulators, ring
//! contents, batcher cursors, the committed energy ledger, the private
//! observability registry, quarantine/spare-pool machines, and the
//! endurance wear counts — all as bit representations (`f64::to_bits`,
//! packed hypervector words). [`StreamEngine::restore`] rebuilds an
//! engine from such a blob, and re-feeding the exact pushes and ticks
//! that followed the capture reproduces the uninterrupted run
//! **bit-for-bit**: same centroid bits, same energy-ledger `f64` bits,
//! same byte-stable `stable_snapshot` JSON.
//!
//! Three inputs are *re-supplied* rather than serialized, because they
//! are pure seeded configuration with no mutable state: the encoder,
//! the cost model, and (when fault injection is on) the
//! [`FaultConfig`]. The encoder geometry and the fault fingerprint are
//! validated against the snapshot and a disagreement fails closed with
//! [`StreamError::RestoreMismatch`]. The fingerprint covers the fault
//! plan's *spec* (seed, geometry, rates) — explicit builder faults
//! (`with_dead_row`-style overrides) are configuration the caller must
//! re-supply unchanged, exactly like the encoder weights.

use crate::batcher::Batcher;
use crate::engine::{as_f64, as_u64, StreamConfig, StreamEngine};
use crate::error::StreamError;
use crate::fault::FaultConfig;
use crate::online::OnlineKMeans;
use crate::ring::BackpressurePolicy;
use dual_cluster::CentroidAccumulator;
use dual_fault::{HealingPolicy, Quarantine, QuarantineStats, ShardHealth, SpareRowPool};
use dual_hdc::{first_non_finite, BitVec, Encoder, Hypervector};
use dual_obs::{HistogramSnapshot, Key, Kind, Registry, HIST_BUCKETS};
use dual_pim::{CostModel, EnergyStats, Op, StreamBatchCost, StreamMeter, WearLeveler};
use dual_snap::{
    AlertRuleWire, BatchCostState, ConfigState, EngineSnapshot, FaultFingerprint, FaultState,
    HistState, MeterState, ModelState, ObsState, OpCount, ShardState, SnapError, TraceEventState,
    TraceState,
};
use dual_trace::{
    AlertEngine, AlertRule, AlertRuleState, Event, EventRecord, Recorder, RecorderState, Signal,
    TraceError,
};
use std::collections::BTreeMap;

/// Wire tag of a [`BackpressurePolicy`] (see `dual_snap::ConfigState`).
fn policy_tag(p: BackpressurePolicy) -> u8 {
    match p {
        BackpressurePolicy::Block => 0,
        BackpressurePolicy::DropOldest => 1,
        BackpressurePolicy::Reject => 2,
    }
}

/// Wire tag of a [`HealingPolicy`] (see `dual_snap::FaultFingerprint`).
fn healing_tag(p: HealingPolicy) -> u8 {
    match p {
        HealingPolicy::Off => 0,
        HealingPolicy::SpareRows { .. } => 1,
        HealingPolicy::MajorityReread { .. } => 2,
        HealingPolicy::Full { .. } => 3,
    }
}

/// Flatten an [`Op`] to its wire `(tag, bits)` pair (see
/// `dual_snap::OpCount`).
fn op_tag(op: Op) -> (u8, u32) {
    match op {
        Op::HammingWindow => (0, 0),
        Op::NearestStage => (1, 0),
        Op::Add { bits } => (2, bits),
        Op::Sub { bits } => (3, bits),
        Op::Mul { bits } => (4, bits),
        Op::Div { bits } => (5, bits),
        Op::Transfer { bits } => (6, bits),
        Op::Write { bits } => (7, bits),
        // `Op` is non_exhaustive; an unknown variant encodes as an
        // invalid tag so a decode fails closed instead of silently
        // re-labeling the ledger.
        _ => (u8::MAX, 0),
    }
}

/// Rebuild an [`Op`] from its wire pair, failing closed on unknown
/// tags.
fn tag_op(tag: u8, bits: u32) -> Result<Op, StreamError> {
    Ok(match tag {
        0 => Op::HammingWindow,
        1 => Op::NearestStage,
        2 => Op::Add { bits },
        3 => Op::Sub { bits },
        4 => Op::Mul { bits },
        5 => Op::Div { bits },
        6 => Op::Transfer { bits },
        7 => Op::Write { bits },
        _ => {
            return Err(StreamError::Snapshot(SnapError::Corrupt {
                reason: "op tag",
            }))
        }
    })
}

/// `u64 → usize`, failing closed instead of truncating on a narrow
/// platform.
fn to_usize(x: u64, name: &'static str) -> Result<usize, StreamError> {
    usize::try_from(x).map_err(|_| StreamError::RestoreMismatch {
        name,
        reason: "value exceeds the platform word size",
    })
}

/// Pack a hypervector into its 64-bit words.
fn hv_words(hv: &Hypervector) -> Vec<u64> {
    hv.bits().as_words().to_vec()
}

/// Rebuild a `dim`-bit hypervector from packed words (the layout of
/// `BitVec::as_words`: bit `i` lives in word `i / 64`, position
/// `i % 64`). Bits above `dim` in the last word are ignored.
fn words_hv(words: &[u64], dim: usize) -> Result<Hypervector, StreamError> {
    if words.len() != dim.div_ceil(64) {
        return Err(StreamError::Snapshot(SnapError::Corrupt {
            reason: "hypervector word count",
        }));
    }
    Ok(Hypervector::from_bitvec(BitVec::from_words(
        words.to_vec(),
        dim,
    )))
}

/// Export every metric of `reg` in `Key::ALL` order (which is dense
/// slot order per kind, pinned by the obs key tests).
fn capture_obs(reg: &Registry) -> ObsState {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut hists = Vec::new();
    for key in Key::ALL {
        match key.kind() {
            Kind::Counter => counters.push(reg.counter(key)),
            Kind::Gauge => gauges.push(reg.gauge_value(key).to_bits()),
            Kind::Histogram => {
                let h = reg.histogram(key);
                hists.push(HistState {
                    buckets: h.buckets.to_vec(),
                    sum: h.sum,
                    count: h.count,
                });
            }
        }
    }
    ObsState {
        clock: reg.now(),
        counters,
        gauges,
        hists,
    }
}

/// Load a captured [`ObsState`] into a fresh registry.
fn restore_obs(reg: &Registry, obs: &ObsState) -> Result<(), StreamError> {
    let mismatch = Err(StreamError::RestoreMismatch {
        name: "obs",
        reason: "metric vocabulary size differs from this build",
    });
    let (mut ci, mut gi, mut hi) = (0usize, 0usize, 0usize);
    for key in Key::ALL {
        match key.kind() {
            Kind::Counter => {
                let Some(&v) = obs.counters.get(ci) else {
                    return mismatch;
                };
                ci += 1;
                if v > 0 {
                    reg.add(key, v);
                }
            }
            Kind::Gauge => {
                let Some(&bits) = obs.gauges.get(gi) else {
                    return mismatch;
                };
                gi += 1;
                reg.gauge(key, f64::from_bits(bits));
            }
            Kind::Histogram => {
                let Some(h) = obs.hists.get(hi) else {
                    return mismatch;
                };
                hi += 1;
                if h.buckets.len() != HIST_BUCKETS + 1 {
                    return mismatch;
                }
                let mut snap = HistogramSnapshot::default();
                snap.buckets.copy_from_slice(&h.buckets);
                snap.sum = h.sum;
                snap.count = h.count;
                reg.restore_histogram(key, &snap);
            }
        }
    }
    if ci != obs.counters.len() || gi != obs.gauges.len() || hi != obs.hists.len() {
        return mismatch;
    }
    reg.tick(obs.clock);
    Ok(())
}

/// Flatten the flight recorder and alert engine into the snap payload
/// shape. Events travel as their stable `(tag, a, b, c, name)` wire
/// tuples, alert keys as `dual_obs::Key::wire_id`.
fn capture_trace(rec: &Recorder, alerts: &AlertEngine) -> TraceState {
    let s = rec.state();
    TraceState {
        capacity: s.capacity,
        emitted: s.emitted,
        next_span: s.next_span,
        evicted: s.evicted,
        open: s.open,
        events: s
            .events
            .iter()
            .map(|r| {
                let (tag, a, b, c, name) = r.event.wire();
                TraceEventState {
                    seq: r.seq,
                    tick: r.tick,
                    span: r.span,
                    parent: r.parent,
                    tag,
                    a,
                    b,
                    c,
                    name: name.to_owned(),
                }
            })
            .collect(),
        alerts: alerts
            .rules()
            .iter()
            .zip(alerts.states())
            .map(|(rule, st)| {
                let (signal_tag, key) = rule.signal.wire();
                AlertRuleWire {
                    name: rule.name.clone(),
                    signal_tag,
                    key_wire: u64::from(key.wire_id()),
                    threshold_bits: rule.threshold.to_bits(),
                    clear_bits: rule.clear.to_bits(),
                    latched: u8::from(st.latched),
                    last_bits: st.last.to_bits(),
                }
            })
            .collect(),
    }
}

/// Rebuild the recorder and alert engine from a snapshot, failing
/// closed on unknown event tags, unknown key wire ids, and any shape
/// inconsistency the trace crate's own validators reject.
fn restore_trace(ts: &TraceState) -> Result<(Recorder, AlertEngine), StreamError> {
    let corrupt = |reason: &'static str| StreamError::Snapshot(SnapError::Corrupt { reason });
    let trace_err = |e: TraceError| {
        let (TraceError::InvalidRule { reason, .. } | TraceError::RestoreShape { reason }) = e;
        corrupt(reason)
    };
    let mut events = Vec::with_capacity(ts.events.len());
    for e in &ts.events {
        let event = Event::from_wire(e.tag, e.a, e.b, e.c, &e.name)
            .ok_or_else(|| corrupt("unknown trace event tag"))?;
        events.push(EventRecord {
            seq: e.seq,
            tick: e.tick,
            span: e.span,
            parent: e.parent,
            event,
        });
    }
    let rec = Recorder::from_state(RecorderState {
        capacity: ts.capacity,
        emitted: ts.emitted,
        next_span: ts.next_span,
        evicted: ts.evicted,
        open: ts.open.clone(),
        events,
    })
    .map_err(trace_err)?;
    let mut rules = Vec::with_capacity(ts.alerts.len());
    let mut states = Vec::with_capacity(ts.alerts.len());
    for a in &ts.alerts {
        let key = u16::try_from(a.key_wire)
            .ok()
            .and_then(Key::from_wire_id)
            .ok_or_else(|| corrupt("unknown alert key wire id"))?;
        let signal =
            Signal::from_wire(a.signal_tag, key).ok_or_else(|| corrupt("alert signal tag"))?;
        if a.latched > 1 {
            return Err(corrupt("alert latch flag"));
        }
        rules.push(AlertRule {
            name: a.name.clone(),
            signal,
            threshold: f64::from_bits(a.threshold_bits),
            clear: f64::from_bits(a.clear_bits),
        });
        states.push(AlertRuleState {
            latched: a.latched == 1,
            last: f64::from_bits(a.last_bits),
        });
    }
    let alerts = AlertEngine::from_states(rules, states).map_err(trace_err)?;
    Ok((rec, alerts))
}

/// Fingerprint of a [`FaultConfig`]: what a restore validates before
/// trusting the re-supplied plan/policy to continue the snapshotted
/// run.
fn fingerprint(cfg: &FaultConfig) -> FaultFingerprint {
    let spec = cfg.plan.spec();
    FaultFingerprint {
        policy_tag: healing_tag(cfg.policy),
        spares: as_u64(cfg.policy.spares()),
        reads: u64::from(cfg.policy.reads()),
        retry_budget: u64::from(cfg.quarantine.retry_budget),
        base_backoff_ticks: cfg.quarantine.base_backoff_ticks,
        backoff_factor: cfg.quarantine.backoff_factor,
        threshold_bits: cfg.quarantine_threshold.to_bits(),
        plan_seed: spec.seed,
        plan_rows: as_u64(spec.rows),
        plan_cols: as_u64(spec.cols),
        stuck_rate_bits: spec.stuck_rate.to_bits(),
        dead_row_rate_bits: spec.dead_row_rate.to_bits(),
        flip_rate_bits: spec.flip_rate.to_bits(),
    }
}

/// Rebuild the [`StreamConfig`] recorded in a snapshot, failing closed
/// on unknown tags or out-of-range values.
fn rebuild_config(c: &ConfigState) -> Result<StreamConfig, StreamError> {
    let policy = match c.policy {
        0 => BackpressurePolicy::Block,
        1 => BackpressurePolicy::DropOldest,
        2 => BackpressurePolicy::Reject,
        _ => {
            return Err(StreamError::Snapshot(SnapError::Corrupt {
                reason: "backpressure policy tag",
            }))
        }
    };
    let cfg = StreamConfig {
        capacity: to_usize(c.capacity, "config.capacity")?,
        policy,
        max_batch: to_usize(c.max_batch, "config.max_batch")?,
        max_ticks: c.max_ticks,
        k: to_usize(c.k, "config.k")?,
        centroids_per_cluster: to_usize(c.centroids_per_cluster, "config.centroids_per_cluster")?,
        decay: f64::from_bits(c.decay_bits),
        shards: to_usize(c.shards, "config.shards")?,
        threads: to_usize(c.threads, "config.threads")?,
        snapshot_every: c.snapshot_every,
        trace_capacity: to_usize(c.trace_capacity, "config.trace_capacity")?,
    };
    cfg.validate()?;
    if cfg.k.checked_mul(cfg.centroids_per_cluster).is_none() {
        return Err(StreamError::Snapshot(SnapError::Corrupt {
            reason: "slot count overflows",
        }));
    }
    Ok(cfg)
}

impl<E: Encoder + Sync> StreamEngine<E> {
    /// Capture the engine into a self-contained `dual-snap` blob.
    ///
    /// Best taken between batches (the engine's own periodic trigger
    /// fires at the end of a tick): the meter's open batch is empty
    /// there, which is the invariant the restore path rebuilds.
    ///
    /// Metric ordering keeps replay byte-stable: every `snap.*` metric
    /// is updated **before** the returned bytes are encoded, so the
    /// blob carries exactly the state a restored engine must resume
    /// with. `snap.bytes` is the blob's own length: the state is
    /// captured once, [`EngineSnapshot::framed_len`] sizes it from the
    /// field list without encoding, the gauge is set to that length,
    /// live and in the captured registry, and the capture is encoded
    /// once (a gauge is fixed-width on the wire, so setting it cannot
    /// change the length).
    pub fn checkpoint(&mut self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.checkpoint_into(&mut bytes);
        bytes
    }

    /// [`StreamEngine::checkpoint`] into a caller-owned buffer, which
    /// ends up holding exactly the blob (cleared first, allocation
    /// reused). The one encode runs in place into `out`, which grows
    /// by an amortised `reserve` of the size pass's length, so the
    /// periodic write-ahead capture — a blob of nearly the same size
    /// every tick — allocates no wire buffer at all once the first one
    /// has grown.
    pub(crate) fn checkpoint_into(&mut self, out: &mut Vec<u8>) {
        self.obs.add(Key::SnapCaptured, 1);
        self.obs
            .gauge(Key::SnapLastTick, as_f64(self.batcher.now()));
        // The capture event is recorded BEFORE encoding so the blob
        // itself retains it — a restored run replays with the exact
        // event history of the uninterrupted one. (It deliberately
        // carries no size payload: that would make the blob length
        // depend on itself; `snap.bytes` has the size.)
        self.trace.emit(
            self.batcher.now(),
            dual_trace::Event::SnapCapture {
                tick: self.batcher.now(),
            },
        );
        // Pay every owed decay in place, so the capture below borrows
        // the accumulators instead of settling a copy.
        self.model.settle();
        let mut snap = self.capture();
        let len = snap.framed_len();
        out.clear();
        out.reserve(len);
        let bytes = as_f64(as_u64(len));
        self.obs.gauge(Key::SnapBytes, bytes);
        // The capture lags the live registry by this one gauge only;
        // captured gauges sit in slot order.
        let (_, slot) = Key::SnapBytes.slot();
        snap.obs.gauges[slot] = bytes.to_bits();
        debug_assert_eq!(snap.obs, capture_obs(&self.obs), "one gauge moved");
        snap.encode_into(out);
        debug_assert_eq!(out.len(), len, "the size pass is the blob's length");
    }

    /// The engine's state as a `dual-snap` tree (no framing, no metric
    /// side effects — [`StreamEngine::checkpoint`] wraps this with the
    /// `snap.*` accounting and wire encoding).
    #[must_use]
    pub fn capture(&self) -> EngineSnapshot {
        let cfg = &self.config;
        let config = ConfigState {
            dim: as_u64(self.encoder.dim()),
            n_features: as_u64(self.encoder.n_features()),
            capacity: as_u64(cfg.capacity),
            policy: policy_tag(cfg.policy),
            max_batch: as_u64(cfg.max_batch),
            max_ticks: cfg.max_ticks,
            k: as_u64(cfg.k),
            centroids_per_cluster: as_u64(cfg.centroids_per_cluster),
            decay_bits: cfg.decay.to_bits(),
            shards: as_u64(cfg.shards),
            threads: as_u64(cfg.threads),
            snapshot_every: cfg.snapshot_every,
            trace_capacity: as_u64(cfg.trace_capacity),
        };
        let pending: Vec<Vec<u64>> = self
            .ring
            .iter()
            .map(|p| p.iter().map(|x| x.to_bits()).collect())
            .collect();
        // Settled on read: a copy unless `checkpoint_into` settled first.
        let accumulators = self.model.accumulators();
        let model = ModelState {
            batches_observed: self.model.batches_observed(),
            centroids: self.model.centroids().iter().map(hv_words).collect(),
            acc_counts: accumulators
                .iter()
                .map(|a| a.counts().iter().map(|c| c.to_bits()).collect())
                .collect(),
            acc_weights: accumulators.iter().map(|a| a.weight().to_bits()).collect(),
        };
        let total = self.meter.total();
        let meter = MeterState {
            time_ns_bits: total.time_ns().to_bits(),
            energy_pj_bits: total.energy_pj().to_bits(),
            ops: total
                .counts()
                .map(|(op, count)| {
                    let (tag, bits) = op_tag(op);
                    OpCount { tag, bits, count }
                })
                .collect(),
            batches: self.meter.batches(),
            points: self.meter.points(),
            last: self.meter.last_batch().map(|b| BatchCostState {
                batch: b.batch,
                points: b.points,
                time_ns_bits: b.time_ns.to_bits(),
                energy_pj_bits: b.energy_pj.to_bits(),
            }),
        };
        let fault = self.fault.as_ref().map(|f| FaultState {
            fingerprint: fingerprint(&FaultConfig {
                plan: f.plan.clone(),
                policy: f.policy,
                quarantine: f.quarantine.config(),
                quarantine_threshold: f.threshold,
            }),
            pool_base: as_u64(f.pool.base()),
            pool_total: as_u64(f.pool.capacity()),
            pool_next: as_u64(f.pool.cursor()),
            pool_map: f
                .pool
                .remaps()
                .map(|(from, to)| (as_u64(from), as_u64(to)))
                .collect(),
            shards: f
                .quarantine
                .health_states()
                .iter()
                .map(|&h| match h {
                    ShardHealth::Healthy => ShardState {
                        tag: 0,
                        until_tick: 0,
                        retries_used: 0,
                    },
                    ShardHealth::Quarantined {
                        until_tick,
                        retries_used,
                    } => ShardState {
                        tag: 1,
                        until_tick,
                        retries_used: u64::from(retries_used),
                    },
                    ShardHealth::Dead => ShardState {
                        tag: 2,
                        until_tick: 0,
                        retries_used: 0,
                    },
                })
                .collect(),
            trips: f
                .quarantine
                .trip_counts()
                .iter()
                .map(|&t| u64::from(t))
                .collect(),
            stats_quarantined: f.quarantine.stats().quarantined,
            stats_requeued: f.quarantine.stats().requeued,
            stats_dead: f.quarantine.stats().dead,
        });
        EngineSnapshot {
            config,
            now: self.batcher.now(),
            last_cut: self.batcher.last_cut(),
            pending,
            model,
            meter,
            obs: capture_obs(&self.obs),
            fault,
            wear: self.wear.writes().to_vec(),
            trace: capture_trace(&self.trace, &self.alerts),
        }
    }

    /// Rebuild an engine from a [`StreamEngine::checkpoint`] blob,
    /// priced with the paper's nominal cost model. Snapshots that
    /// carry fault-injection state need
    /// [`StreamEngine::restore_with`].
    ///
    /// # Errors
    ///
    /// [`StreamError::Snapshot`] when the blob fails to decode (it is
    /// truncated, corrupted, or from an unsupported version) and
    /// [`StreamError::RestoreMismatch`] when `encoder` disagrees with
    /// the snapshot's recorded geometry.
    pub fn restore(encoder: E, bytes: &[u8]) -> Result<Self, StreamError> {
        Self::restore_with(encoder, bytes, CostModel::paper(), None)
    }

    /// [`StreamEngine::restore`] with an explicit cost model and, for
    /// snapshots taken under fault injection, the re-supplied
    /// [`FaultConfig`] (plan + policy + quarantine budget). The config
    /// must fingerprint-match the snapshot; the live machine state
    /// (spare remaps, shard backoff clocks, trip counts) comes from
    /// the blob.
    ///
    /// # Errors
    ///
    /// As [`StreamEngine::restore`]; additionally
    /// [`StreamError::RestoreMismatch`] when `fault` is missing for a
    /// faulted snapshot (or supplied for a fault-free one) or its
    /// fingerprint differs.
    pub fn restore_with(
        encoder: E,
        bytes: &[u8],
        cost: CostModel,
        fault: Option<FaultConfig>,
    ) -> Result<Self, StreamError> {
        let snap = EngineSnapshot::decode(bytes)?;
        if as_u64(encoder.dim()) != snap.config.dim {
            return Err(StreamError::RestoreMismatch {
                name: "encoder",
                reason: "dimensionality differs from the snapshot",
            });
        }
        if as_u64(encoder.n_features()) != snap.config.n_features {
            return Err(StreamError::RestoreMismatch {
                name: "encoder",
                reason: "feature count differs from the snapshot",
            });
        }
        let config = rebuild_config(&snap.config)?;
        // The ring allocates every slot up front. A capacity the
        // allocator refuses (an overwritten count under a re-stamped
        // checksum) must fail typed, not abort the process.
        if Vec::<Option<Vec<f64>>>::new()
            .try_reserve_exact(config.capacity)
            .is_err()
        {
            return Err(StreamError::Snapshot(SnapError::Corrupt {
                reason: "ring capacity cannot be allocated",
            }));
        }
        let mut engine = Self::with_cost_model(encoder, config, cost)?;

        // Ring: re-enqueue the buffered points in FIFO order.
        for p in &snap.pending {
            if p.len() != engine.encoder.n_features() {
                return Err(StreamError::RestoreMismatch {
                    name: "pending",
                    reason: "buffered point feature count differs from the encoder",
                });
            }
            let feats: Vec<f64> = p.iter().map(|&b| f64::from_bits(b)).collect();
            // Blobs written before `push` refused NaN and ±∞ can carry
            // such a point; it must not reach a batch of good ones.
            if first_non_finite(&feats).is_some() {
                return Err(StreamError::RestoreMismatch {
                    name: "pending",
                    reason: "buffered point carries a NaN or infinite feature",
                });
            }
            if engine.ring.try_push(feats).is_err() {
                return Err(StreamError::RestoreMismatch {
                    name: "pending",
                    reason: "more buffered points than the ring capacity",
                });
            }
        }

        // Batcher cursors.
        if snap.last_cut > snap.now {
            return Err(StreamError::Snapshot(SnapError::Corrupt {
                reason: "batcher cut cursor after the clock",
            }));
        }
        engine.batcher = Batcher::restore(
            engine.config.max_batch,
            engine.config.max_ticks,
            snap.now,
            snap.last_cut,
        );

        // Model: seeded slots and their accumulators, verbatim.
        let dim = engine.encoder.dim();
        let mut centroids = Vec::with_capacity(snap.model.centroids.len());
        for words in &snap.model.centroids {
            centroids.push(words_hv(words, dim)?);
        }
        if snap.model.acc_counts.len() != snap.model.acc_weights.len() {
            return Err(StreamError::Snapshot(SnapError::Corrupt {
                reason: "accumulator count/weight length mismatch",
            }));
        }
        let accumulators: Vec<CentroidAccumulator> = snap
            .model
            .acc_counts
            .iter()
            .zip(&snap.model.acc_weights)
            .map(|(counts, &w)| {
                CentroidAccumulator::from_parts(
                    counts.iter().map(|&b| f64::from_bits(b)).collect(),
                    f64::from_bits(w),
                )
            })
            .collect();
        engine.model = OnlineKMeans::restore(
            dim,
            engine.config.k,
            engine.config.centroids_per_cluster,
            engine.config.decay,
            centroids,
            accumulators,
            snap.model.batches_observed,
        )?;

        // Meter: totals arrive bit-exact, op counts replay untimed.
        let mut total = EnergyStats::new();
        total.record_raw(
            f64::from_bits(snap.meter.time_ns_bits),
            f64::from_bits(snap.meter.energy_pj_bits),
        );
        for op in &snap.meter.ops {
            total.record_untimed(tag_op(op.tag, op.bits)?, op.count);
        }
        engine.meter = StreamMeter::restore(
            cost,
            total,
            snap.meter.batches,
            snap.meter.points,
            snap.meter.last.map(|b| StreamBatchCost {
                batch: b.batch,
                points: b.points,
                time_ns: f64::from_bits(b.time_ns_bits),
                energy_pj: f64::from_bits(b.energy_pj_bits),
            }),
        );

        restore_obs(&engine.obs, &snap.obs)?;

        // Fault machines: config re-supplied, live state from the blob.
        match (&snap.fault, fault) {
            (None, None) => {}
            (None, Some(_)) => {
                return Err(StreamError::RestoreMismatch {
                    name: "fault",
                    reason: "snapshot carries no fault state but a fault config was supplied",
                });
            }
            (Some(_), None) => {
                return Err(StreamError::RestoreMismatch {
                    name: "fault",
                    reason: "snapshot carries fault state; re-supply the fault config",
                });
            }
            (Some(fs), Some(cfg)) => {
                if fingerprint(&cfg) != fs.fingerprint {
                    return Err(StreamError::RestoreMismatch {
                        name: "fault",
                        reason: "fault configuration fingerprint differs from the snapshot",
                    });
                }
                // Checked before arming, which allocates one quarantine
                // state per shard and one mask per plan row it uses.
                if fs.shards.len() != engine.config.shards || fs.trips.len() != engine.config.shards
                {
                    return Err(StreamError::RestoreMismatch {
                        name: "fault",
                        reason: "shard population differs from the snapshot",
                    });
                }
                if engine.model.slots() > cfg.plan.rows() {
                    return Err(StreamError::RestoreMismatch {
                        name: "fault",
                        reason: "plan rows cannot hold the snapshot's slots",
                    });
                }
                engine = engine.with_fault_injection(cfg)?;
                let Some(live) = engine.fault.as_mut() else {
                    return Err(StreamError::RestoreMismatch {
                        name: "fault",
                        reason: "fault injection failed to arm",
                    });
                };
                let base = to_usize(fs.pool_base, "fault.pool")?;
                let total = to_usize(fs.pool_total, "fault.pool")?;
                let next = to_usize(fs.pool_next, "fault.pool")?;
                if base != live.pool.base() || total != live.pool.capacity() || next > total {
                    return Err(StreamError::RestoreMismatch {
                        name: "fault",
                        reason: "spare pool geometry differs from the snapshot",
                    });
                }
                let mut map = BTreeMap::new();
                for &(from, to) in &fs.pool_map {
                    map.insert(to_usize(from, "fault.pool")?, to_usize(to, "fault.pool")?);
                }
                live.pool = SpareRowPool::restore(base, total, next, map);
                let mut shards = Vec::with_capacity(fs.shards.len());
                for s in &fs.shards {
                    let canonical = s.tag == 1 || (s.until_tick == 0 && s.retries_used == 0);
                    if !canonical {
                        return Err(StreamError::Snapshot(SnapError::Corrupt {
                            reason: "non-canonical shard state",
                        }));
                    }
                    shards.push(match s.tag {
                        0 => ShardHealth::Healthy,
                        1 => ShardHealth::Quarantined {
                            until_tick: s.until_tick,
                            retries_used: u32::try_from(s.retries_used).map_err(|_| {
                                StreamError::Snapshot(SnapError::Corrupt {
                                    reason: "shard retry overflow",
                                })
                            })?,
                        },
                        2 => ShardHealth::Dead,
                        _ => {
                            return Err(StreamError::Snapshot(SnapError::Corrupt {
                                reason: "shard health tag",
                            }))
                        }
                    });
                }
                let mut trips = Vec::with_capacity(fs.trips.len());
                for &t in &fs.trips {
                    trips.push(u32::try_from(t).map_err(|_| {
                        StreamError::Snapshot(SnapError::Corrupt {
                            reason: "shard trip overflow",
                        })
                    })?);
                }
                let stats = QuarantineStats {
                    quarantined: fs.stats_quarantined,
                    requeued: fs.stats_requeued,
                    dead: fs.stats_dead,
                };
                let Some(live) = engine.fault.as_mut() else {
                    return Err(StreamError::RestoreMismatch {
                        name: "fault",
                        reason: "fault injection failed to arm",
                    });
                };
                live.quarantine =
                    Quarantine::restore(live.quarantine.config(), shards, trips, stats);
            }
        }

        // Endurance wear counts.
        if snap.wear.len() != engine.wear.writes().len() {
            return Err(StreamError::RestoreMismatch {
                name: "wear",
                reason: "wear-leveler block count differs from the encoder geometry",
            });
        }
        engine.wear = WearLeveler::restore(snap.wear.clone());

        // Flight recorder + alert rules: the full ring (and any open
        // spans) resumes from the blob, so the replayed event history
        // is byte-identical to the uninterrupted run's. The restore
        // marker itself is a volatile note — visible in a Chrome
        // export, never in the replayable ring.
        if snap.trace.capacity != snap.config.trace_capacity {
            return Err(StreamError::Snapshot(SnapError::Corrupt {
                reason: "trace capacity disagrees with the config",
            }));
        }
        let (trace, alerts) = restore_trace(&snap.trace)?;
        engine.trace = trace;
        engine.alerts = alerts;
        engine
            .trace
            .note(snap.now, Event::SnapRestore { tick: snap.now });

        engine.obs.add(Key::SnapRestored, 1);
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dual_hdc::HdMapper;
    use std::borrow::Cow;

    fn engine(k: usize) -> StreamEngine<HdMapper> {
        let mapper = HdMapper::new(64, 2, 7).unwrap();
        let mut cfg = StreamConfig::new(k);
        cfg.max_batch = 8;
        cfg.decay = 0.9;
        cfg.snapshot_every = 4;
        StreamEngine::new(mapper, cfg).unwrap()
    }

    fn point(i: usize) -> Vec<f64> {
        let x = i as f64;
        vec![(x * 0.37).sin() * 3.0, (x * 0.11).cos() * 3.0]
    }

    fn drive(e: &mut StreamEngine<HdMapper>, range: std::ops::Range<usize>) {
        for i in range {
            e.push(&point(i)).unwrap();
            if i % 5 == 4 {
                e.tick().unwrap();
            }
        }
    }

    #[test]
    fn capture_with_owed_decays_matches_the_settled_capture() {
        // 32 slots fed 4 points a tick: most slots owe decays.
        let mapper = HdMapper::new(64, 2, 7).unwrap();
        let mut cfg = StreamConfig::new(4);
        cfg.centroids_per_cluster = 8;
        cfg.max_batch = 4;
        cfg.decay = 0.9;
        let mut e = StreamEngine::new(mapper, cfg).unwrap();
        drive(&mut e, 0..120);
        let lazy = e.capture().encode();
        assert!(matches!(e.model.accumulators(), Cow::Owned(_)));
        e.model.settle();
        assert!(matches!(e.model.accumulators(), Cow::Borrowed(_)));
        assert_eq!(lazy, e.capture().encode());
    }

    #[test]
    fn checkpoint_restore_replay_matches_uninterrupted() {
        let mut gold = engine(3);
        drive(&mut gold, 0..60);

        let mut crashed = engine(3);
        drive(&mut crashed, 0..30);
        let blob = crashed.wal().expect("periodic capture fired").to_vec();
        let restored_at = EngineSnapshot::decode(&blob).unwrap().tick();
        drop(crashed);

        let mapper = HdMapper::new(64, 2, 7).unwrap();
        let mut resumed = StreamEngine::restore(mapper, &blob).unwrap();
        assert_eq!(resumed.now(), restored_at);
        // Replay: re-feed exactly the pushes/ticks after the capture.
        // Captures fire at the end of a tick, and ticks happen after
        // points 4, 9, 14, ... — point index `5 * tick` onward is the
        // un-captured suffix.
        let resume_from = usize::try_from(restored_at).unwrap() * 5;
        drive(&mut resumed, resume_from..60);

        let gold_snap = gold.snapshot();
        let res_snap = resumed.snapshot();
        assert_eq!(res_snap.clusters, gold_snap.clusters);
        assert_eq!(res_snap.counters, gold_snap.counters);
        assert_eq!(res_snap.energy_pj.to_bits(), gold_snap.energy_pj.to_bits());
        assert_eq!(res_snap.time_ns.to_bits(), gold_snap.time_ns.to_bits());
        assert_eq!(
            resumed.obs_registry().stable_snapshot().to_json(),
            gold.obs_registry().stable_snapshot().to_json(),
            "stable obs JSON must be byte-identical after replay"
        );
        assert_eq!(resumed.wear().writes(), gold.wear().writes());
        assert_eq!(
            resumed.trace().state(),
            gold.trace().state(),
            "the replayed flight-recorder history must be identical"
        );
        assert_eq!(
            dual_trace::report_json(&[("engine", resumed.trace())]),
            dual_trace::report_json(&[("engine", gold.trace())]),
            "trace report bytes must match after replay"
        );
        assert_eq!(
            resumed.trace().notes().count(),
            1,
            "the restore leaves exactly one volatile snap.restore note"
        );
    }

    #[test]
    fn alert_latches_survive_checkpoint_restore() {
        use dual_trace::{AlertRule, Signal};
        let rules = || {
            vec![AlertRule {
                name: "ingest-volume".to_owned(),
                signal: Signal::Counter(Key::StreamIngested),
                threshold: 10.0,
                clear: 0.0,
            }]
        };
        let mut e = engine(3).with_alerts(rules()).unwrap();
        drive(&mut e, 0..20);
        assert_eq!(e.alerts().latched(), 1, "threshold crossed at point 10");
        assert_eq!(e.trace().alerts_raised(), 1);
        let blob = e.checkpoint();

        let mapper = HdMapper::new(64, 2, 7).unwrap();
        let resumed = StreamEngine::restore(mapper, &blob).unwrap();
        assert_eq!(resumed.alerts().rules(), e.alerts().rules());
        assert_eq!(resumed.alerts().states(), e.alerts().states());
        assert_eq!(resumed.trace().alerts_raised(), 1);
    }

    #[test]
    fn corrupt_trace_sections_fail_closed() {
        let mut e = engine(2);
        drive(&mut e, 0..10);
        let mut snap = e.capture();
        snap.trace.emitted += 1;
        let mapper = HdMapper::new(64, 2, 7).unwrap();
        assert!(
            StreamEngine::restore(mapper, &snap.encode()).is_err(),
            "ring accounting mismatch must be rejected"
        );

        let mut snap = e.capture();
        if let Some(ev) = snap.trace.events.first_mut() {
            ev.tag = 200;
        }
        let mapper = HdMapper::new(64, 2, 7).unwrap();
        assert!(matches!(
            StreamEngine::restore(mapper, &snap.encode()),
            Err(StreamError::Snapshot(SnapError::Corrupt {
                reason: "unknown trace event tag"
            }))
        ));
    }

    #[test]
    fn restore_rejects_mismatched_encoder() {
        let mut e = engine(3);
        drive(&mut e, 0..10);
        let blob = e.checkpoint();
        let wrong_dim = HdMapper::new(128, 2, 7).unwrap();
        assert!(matches!(
            StreamEngine::restore(wrong_dim, &blob),
            Err(StreamError::RestoreMismatch {
                name: "encoder",
                ..
            })
        ));
    }

    /// A blob written before `push` refused NaN and ±∞ can buffer such
    /// a point; restore refuses it rather than let the first batch cut
    /// fail with good points in it.
    #[test]
    fn restore_refuses_a_non_finite_pending_point() {
        let mut e = engine(3);
        drive(&mut e, 0..12);
        assert!(e.pending() > 1);
        let mapper = HdMapper::new(64, 2, 7).unwrap();
        let clean = e.capture();
        assert!(StreamEngine::restore(mapper, &clean.encode()).is_ok());
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut snap = clean.clone();
            snap.pending[1][0] = x.to_bits();
            let mapper = HdMapper::new(64, 2, 7).unwrap();
            assert!(matches!(
                StreamEngine::restore(mapper, &snap.encode()),
                Err(StreamError::RestoreMismatch {
                    name: "pending",
                    ..
                })
            ));
        }
    }

    /// Counts overwritten under a valid checksum must fail typed before
    /// anything is sized by them: an unallocatable ring, an overflowing
    /// slot count, a shard count or slot count the fault plan cannot
    /// arm.
    #[test]
    fn restore_refuses_counts_it_cannot_build() {
        let mut e = engine(3);
        drive(&mut e, 0..12);
        let clean = e.capture();
        let restore = |snap: &EngineSnapshot, fault: Option<FaultConfig>| {
            let mapper = HdMapper::new(64, 2, 7).unwrap();
            StreamEngine::restore_with(mapper, &snap.encode(), CostModel::paper(), fault)
        };
        for capacity in [1 << 40, u64::MAX] {
            let mut snap = clean.clone();
            snap.config.capacity = capacity;
            assert!(matches!(
                restore(&snap, None),
                Err(StreamError::Snapshot(SnapError::Corrupt { .. }))
            ));
        }
        let mut snap = clean.clone();
        snap.config.centroids_per_cluster = u64::MAX;
        assert!(matches!(
            restore(&snap, None),
            Err(StreamError::Snapshot(SnapError::Corrupt { .. }))
        ));

        let plan = || dual_fault::FaultPlan::fault_free(8, 64);
        let mut faulted = engine(3)
            .with_fault_injection(FaultConfig::new(plan()))
            .unwrap();
        drive(&mut faulted, 0..12);
        let clean = faulted.capture();
        assert!(restore(&clean, Some(FaultConfig::new(plan()))).is_ok());
        let mut many_shards = clean.clone();
        many_shards.config.shards = u64::MAX;
        let mut many_slots = clean.clone();
        many_slots.config.centroids_per_cluster = 1 << 40;
        for snap in [many_shards, many_slots] {
            assert!(matches!(
                restore(&snap, Some(FaultConfig::new(plan()))),
                Err(StreamError::RestoreMismatch { name: "fault", .. })
            ));
        }
    }

    #[test]
    fn restore_rejects_missing_or_spurious_fault_config() {
        let mut plain = engine(3);
        drive(&mut plain, 0..10);
        let blob = plain.checkpoint();
        let plan = dual_fault::FaultPlan::fault_free(8, 64);
        let mapper = HdMapper::new(64, 2, 7).unwrap();
        assert!(matches!(
            StreamEngine::restore_with(
                mapper,
                &blob,
                CostModel::paper(),
                Some(FaultConfig::new(plan))
            ),
            Err(StreamError::RestoreMismatch { name: "fault", .. })
        ));
    }

    #[test]
    fn faulted_checkpoint_round_trips_with_fingerprint_check() {
        let plan = dual_fault::FaultPlan::fault_free(8, 64);
        let mut e = engine(3)
            .with_fault_injection(FaultConfig::new(plan.clone()))
            .unwrap();
        drive(&mut e, 0..20);
        let blob = e.checkpoint();

        // Missing fault config fails closed.
        let mapper = HdMapper::new(64, 2, 7).unwrap();
        assert!(matches!(
            StreamEngine::restore(mapper, &blob),
            Err(StreamError::RestoreMismatch { name: "fault", .. })
        ));

        // A fingerprint mismatch (different plan seed) fails closed.
        let mut other_spec = dual_fault::FaultPlanSpec::clean(8, 64);
        other_spec.seed = 99;
        let other = dual_fault::FaultPlan::new(other_spec).unwrap();
        let mapper = HdMapper::new(64, 2, 7).unwrap();
        assert!(matches!(
            StreamEngine::restore_with(
                mapper,
                &blob,
                CostModel::paper(),
                Some(FaultConfig::new(other))
            ),
            Err(StreamError::RestoreMismatch { name: "fault", .. })
        ));

        // The matching config round-trips and replays identically.
        let mapper = HdMapper::new(64, 2, 7).unwrap();
        let mut resumed = StreamEngine::restore_with(
            mapper,
            &blob,
            CostModel::paper(),
            Some(FaultConfig::new(plan.clone())),
        )
        .unwrap();
        let mut gold = engine(3)
            .with_fault_injection(FaultConfig::new(plan))
            .unwrap();
        drive(&mut gold, 0..40);
        let resume_from = usize::try_from(resumed.now()).unwrap() * 5;
        drive(&mut resumed, resume_from..40);
        assert_eq!(resumed.snapshot(), gold.snapshot());
        assert_eq!(resumed.fault_status(), gold.fault_status());
    }

    #[test]
    fn corrupted_blobs_fail_closed_with_typed_errors() {
        let mut e = engine(2);
        drive(&mut e, 0..10);
        let blob = e.checkpoint();
        for cut in [0, 1, 8, blob.len() / 2, blob.len() - 1] {
            let mapper = HdMapper::new(64, 2, 7).unwrap();
            assert!(
                matches!(
                    StreamEngine::restore(mapper, &blob[..cut]),
                    Err(StreamError::Snapshot(_))
                ),
                "truncation at {cut} must fail closed"
            );
        }
        let mut flipped = blob.clone();
        flipped[20] ^= 0x40;
        let mapper = HdMapper::new(64, 2, 7).unwrap();
        assert!(matches!(
            StreamEngine::restore(mapper, &flipped),
            Err(StreamError::Snapshot(_))
        ));
    }

    #[test]
    fn centroid_words_reject_a_wrong_count_and_ignore_tail_garbage() {
        // D = 70: six live bits in the second word, 58 tail bits.
        let mapper = || HdMapper::new(70, 2, 7).unwrap();
        let mut cfg = StreamConfig::new(2);
        cfg.max_batch = 8;
        let mut e = StreamEngine::new(mapper(), cfg).unwrap();
        drive(&mut e, 0..10);
        let clean = e.capture();
        assert!(!clean.model.centroids.is_empty());

        let mut short = e.capture();
        short.model.centroids[0].pop();
        assert!(matches!(
            StreamEngine::restore(mapper(), &short.encode()),
            Err(StreamError::Snapshot(SnapError::Corrupt {
                reason: "hypervector word count"
            }))
        ));

        let mut dirty = e.capture();
        for words in &mut dirty.model.centroids {
            words[1] |= u64::MAX << 6;
        }
        assert_ne!(dirty.encode(), clean.encode());
        let mut from_clean = StreamEngine::restore(mapper(), &clean.encode()).unwrap();
        let mut from_dirty = StreamEngine::restore(mapper(), &dirty.encode()).unwrap();
        assert_eq!(from_dirty.checkpoint(), from_clean.checkpoint());
        assert_eq!(from_dirty.capture().model.centroids, clean.model.centroids);
    }

    #[test]
    fn periodic_wal_tracks_the_tick_schedule() {
        let mut e = engine(2);
        assert!(e.wal().is_none());
        drive(&mut e, 0..30);
        let blob = e.wal().expect("snapshot_every = 4 fired").to_vec();
        let snap = EngineSnapshot::decode(&blob).unwrap();
        assert_eq!(snap.tick() % 4, 0, "captures land on the interval");
        assert!(e.obs_registry().counter(Key::SnapCaptured) > 0);
        assert!(e.obs_registry().gauge_value(Key::SnapBytes) > 0.0);
    }

    #[test]
    fn tick_end_wal_equals_the_fresh_checkpoint_as_it_grows_and_shrinks() {
        // A 24-event trace ring fills within a few ticks, after which
        // the pending points are what moves the blob's length.
        let mut cfg = engine(3).config;
        cfg.snapshot_every = 1;
        cfg.trace_capacity = 24;
        let mut e = StreamEngine::new(HdMapper::new(64, 2, 7).unwrap(), cfg).unwrap();
        let mut lens = Vec::new();
        let mut next = 0;
        for tick in 0..30 {
            // A burst every sixth tick leaves points pending in that
            // tick's blob; the quieter ticks after it drain them.
            let burst = if tick % 6 == 0 { 21 } else { 3 };
            for _ in 0..burst {
                e.push(&point(next)).unwrap();
                next += 1;
            }
            // The reference: from the same pre-tick state, run the tick
            // without its capture, then take the fresh-`Vec` path.
            let mut twin = e.clone();
            twin.config.snapshot_every = 0;
            twin.tick().unwrap();
            twin.config.snapshot_every = 1;
            let fresh = twin.checkpoint();
            e.tick().unwrap();
            let wal = e.wal().expect("captured every tick");
            assert_eq!(wal, &fresh[..], "tick {tick}");
            assert_eq!(EngineSnapshot::decode(wal).unwrap().tick(), e.now());
            lens.push(wal.len());
        }
        // The trace ring filling grows the blob; a drained burst shrinks
        // it — a reused buffer that was not truncated would carry
        // trailing bytes, which `decode` rejects.
        assert!(lens.windows(2).any(|w| w[1] > w[0]), "{lens:?}");
        assert!(lens.windows(2).any(|w| w[1] < w[0]), "{lens:?}");
    }

    /// The tick-end WAL of a faulted, traced tenant of the topology
    /// benchmark's shape (D = 1024, 16 features, 8 clusters × 4 slots,
    /// a 128-point ring, a 256-event trace ring, stuck cells, dead rows
    /// and flips under full healing), captured every tick for 50 ticks.
    /// Each blob's size pass is its length, its `snap.bytes` gauge is
    /// its length, and its decoded tree re-encodes to it byte for byte.
    /// Eight points a tick over 32 slots leave slots owing lazy decays
    /// at captures, which the capture settles first.
    #[test]
    fn every_tick_end_wal_carries_its_own_length_and_re_encodes_exactly() {
        let mapper = HdMapper::builder(1024, 16)
            .seed(7)
            .sigma(4.0)
            .build()
            .unwrap();
        let mut cfg = StreamConfig::new(8);
        cfg.centroids_per_cluster = 4;
        cfg.max_batch = 8;
        cfg.capacity = 128;
        cfg.decay = 0.95;
        cfg.threads = 1;
        cfg.trace_capacity = 256;
        cfg.snapshot_every = 1;
        let plan = dual_fault::FaultPlan::new(dual_fault::FaultPlanSpec {
            seed: 0xFA17,
            stuck_rate: 1e-3,
            dead_row_rate: 0.05,
            flip_rate: 5e-4,
            ..dual_fault::FaultPlanSpec::clean(32 + 8, 1024)
        })
        .unwrap();
        let fault = FaultConfig::new(plan).with_policy(HealingPolicy::Full {
            spares: 8,
            reads: 3,
        });
        let mut e = StreamEngine::new(mapper, cfg)
            .unwrap()
            .with_fault_injection(fault)
            .unwrap();
        let (_, slot) = Key::SnapBytes.slot();
        let mut owing = 0;
        for tick in 0..50 {
            for i in tick * 8..tick * 8 + 8 {
                let p: Vec<f64> = (0..16)
                    .map(|j| ((i * 16 + j) as f64 * 0.13).sin())
                    .collect();
                e.push(&p).unwrap();
            }
            // Whether this tick's capture meets owed decays: the same
            // tick run without its capture.
            let mut twin = e.clone();
            twin.config.snapshot_every = 0;
            twin.tick().unwrap();
            owing += usize::from(matches!(twin.model.accumulators(), Cow::Owned(_)));
            e.tick().unwrap();
            let blob = e.wal().expect("captured every tick");
            let snap = EngineSnapshot::decode(blob).unwrap();
            assert_eq!(snap.framed_len(), blob.len(), "tick {tick}");
            let gauge = f64::from_bits(snap.obs.gauges[slot]);
            assert_eq!(gauge, as_f64(as_u64(blob.len())), "tick {tick}");
            assert_eq!(snap.encode(), blob, "tick {tick}");
            assert!(snap.fault.is_some());
        }
        assert!(owing > 0, "no capture met owed decays");
        let status = e.fault_status().unwrap();
        assert!(status.injected > 0 && status.healed > 0, "{status:?}");
    }
}
