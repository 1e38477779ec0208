//! The streaming engine: ingest ring → micro-batcher → HD encode →
//! decayed mini-batch k-means, with per-batch DUAL chip cost
//! attribution.
//!
//! [`StreamEngine`] is *synchronous*: producers call
//! [`StreamEngine::push`], the driver calls [`StreamEngine::tick`] at
//! its consumption cadence, and all pipeline work happens inline on
//! the calling thread (fanning out over scoped workers for the encode
//! and assignment hot loops). That keeps the engine deterministic —
//! there is no hidden scheduler — while still exercising the exact
//! policy surface a concurrent deployment needs: bounded buffering,
//! explicit backpressure, size-or-deadline batching.

use crate::batcher::{Batcher, CutReason};
use crate::error::StreamError;
use crate::fault::{FaultConfig, FaultState, FaultStatus};
use crate::online::OnlineKMeans;
use crate::ring::{BackpressurePolicy, PushOutcome, Ring};
use dual_hdc::{first_non_finite, Encoder, Hypervector};
use dual_obs::{Key, Registry};
use dual_pim::{CostModel, Op, StreamBatchCost, StreamMeter, WearLeveler};
use dual_trace::{AlertEngine, AlertRule, Cut, Event, Recorder, TraceError};

/// Rows per crossbar block (the Table III anchor geometry): hypervector
/// dimensions and stored sub-centroids spread over `ceil(x / 1024)`
/// blocks for cost attribution.
const BLOCK_ROWS: usize = 1024;

/// Tunables of a [`StreamEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Ingest ring capacity in points.
    pub capacity: usize,
    /// What [`StreamEngine::push`] does when the ring is full.
    pub policy: BackpressurePolicy,
    /// Micro-batch size threshold (and maximum batch size).
    pub max_batch: usize,
    /// Deadline in logical ticks: buffered points are cut at the next
    /// [`StreamEngine::tick`] once this many ticks passed since the
    /// previous cut.
    pub max_ticks: u64,
    /// Number of clusters.
    pub k: usize,
    /// Sub-centroids per cluster (MEMHD-style multi-centroid memory).
    pub centroids_per_cluster: usize,
    /// Forgetting factor in `(0, 1]` applied to every centroid
    /// accumulator between micro-batches; `1.0` never forgets.
    pub decay: f64,
    /// Contiguous shards the sub-centroid index is split into for fault
    /// sensing and quarantine. Assignment searches every slot flat, so
    /// the shard count moves no fault-free bit.
    pub shards: usize,
    /// Worker threads for the encode/assign hot loops (`0` = auto,
    /// honouring `DUAL_THREADS`). Results are bit-identical for every
    /// value.
    pub threads: usize,
    /// Periodic write-ahead snapshot interval on the logical tick
    /// clock: every `snapshot_every`-th tick ends by capturing the
    /// engine into [`StreamEngine::wal`]. `0` disables periodic
    /// capture (explicit [`StreamEngine::checkpoint`] still works).
    pub snapshot_every: u64,
    /// Flight-recorder ring capacity in events (see
    /// [`StreamEngine::trace`]); `0` turns the recorder off and every
    /// trace site reduces to one branch.
    pub trace_capacity: usize,
}

impl StreamConfig {
    /// Defaults for `k` clusters: 1024-point ring, [`BackpressurePolicy::Block`],
    /// 256-point batches, 16-tick deadline, one sub-centroid per
    /// cluster, no forgetting, 4 shards, auto threads, a 256-event
    /// flight recorder.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            capacity: 1024,
            policy: BackpressurePolicy::Block,
            max_batch: 256,
            max_ticks: 16,
            k,
            centroids_per_cluster: 1,
            decay: 1.0,
            shards: 4,
            threads: 0,
            snapshot_every: 0,
            trace_capacity: 256,
        }
    }

    /// Check every parameter.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] naming the first
    /// out-of-range parameter.
    pub fn validate(&self) -> Result<(), StreamError> {
        let positive: [(&'static str, usize); 5] = [
            ("capacity", self.capacity),
            ("max_batch", self.max_batch),
            ("k", self.k),
            ("centroids_per_cluster", self.centroids_per_cluster),
            ("shards", self.shards),
        ];
        for (name, value) in positive {
            if value == 0 {
                return Err(StreamError::InvalidConfig {
                    name,
                    reason: "must be positive",
                });
            }
        }
        if self.max_ticks == 0 {
            return Err(StreamError::InvalidConfig {
                name: "max_ticks",
                reason: "must be positive",
            });
        }
        if !(self.decay > 0.0 && self.decay <= 1.0) {
            return Err(StreamError::InvalidConfig {
                name: "decay",
                reason: "must be in (0, 1]",
            });
        }
        Ok(())
    }
}

/// Per-stage event counters, monotone over the engine's lifetime.
///
/// Since the `dual-obs` rebase this is a plain *export* struct: the
/// engine records every event into its private [`dual_obs::Registry`]
/// (under the `stream.*` keys) and [`StreamEngine::counters`]
/// materializes this view on demand. The field set and semantics are
/// unchanged from the bespoke-counter era, so serialized snapshots
/// remain compatible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamCounters {
    /// Points accepted into the ring (all `Accepted*` outcomes).
    pub ingested: u64,
    /// Points refused under [`BackpressurePolicy::Reject`].
    pub rejected: u64,
    /// Buffered points evicted under [`BackpressurePolicy::DropOldest`].
    pub dropped: u64,
    /// Inline flushes forced by a full ring under
    /// [`BackpressurePolicy::Block`].
    pub inline_flushes: u64,
    /// Micro-batches committed.
    pub batches: u64,
    /// Batches cut because the size threshold was reached.
    pub size_cuts: u64,
    /// Batches cut because the tick deadline elapsed.
    pub deadline_cuts: u64,
    /// Batches cut by [`StreamEngine::drain`].
    pub drain_cuts: u64,
    /// Points encoded into hypervectors.
    pub encoded: u64,
    /// Points assigned to a sub-centroid.
    pub assigned: u64,
    /// Sub-centroid slots seeded from stream points.
    pub seeded: u64,
    /// Sub-centroid majority re-binarizations (centroid rewrites).
    pub rebinarized: u64,
}

/// A consistent export of the engine's state between batches.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot {
    /// Logical time at the snapshot.
    pub tick: u64,
    /// Points buffered in the ring, not yet clustered.
    pub pending: usize,
    /// Seeded sub-centroids grouped per cluster, in slot order.
    pub clusters: Vec<Vec<Hypervector>>,
    /// Lifetime event counters.
    pub counters: StreamCounters,
    /// Micro-batches committed to the meter.
    pub batches: u64,
    /// Points across committed batches.
    pub points: u64,
    /// Accumulated chip latency over committed batches, nanoseconds.
    pub time_ns: f64,
    /// Accumulated chip energy over committed batches, picojoules.
    pub energy_pj: f64,
}

/// Backpressured streaming-clustering engine (see the crate docs for
/// the stage diagram).
#[derive(Debug, Clone)]
pub struct StreamEngine<E> {
    pub(crate) encoder: E,
    pub(crate) config: StreamConfig,
    pub(crate) ring: Ring<Vec<f64>>,
    pub(crate) batcher: Batcher,
    pub(crate) model: OnlineKMeans,
    pub(crate) meter: StreamMeter,
    /// Fault injection + self-healing, when enabled via
    /// [`StreamEngine::with_fault_injection`].
    pub(crate) fault: Option<FaultState>,
    /// Engine-private metrics registry: every pipeline event lands here
    /// under the `stream.*` keys, and the chip-cost gauges (`pim.*`)
    /// are refreshed after each committed batch. Private so snapshots
    /// stay deterministic regardless of what else the process records
    /// into the global registry.
    pub(crate) obs: Registry,
    /// Per-block NVM write counts for the §VIII-H endurance story:
    /// every re-binarized sub-centroid writes `dim` columns into the
    /// least-worn of the `ceil(D / 1024)` dimension blocks.
    pub(crate) wear: WearLeveler,
    /// The most recent write-ahead snapshot, refreshed every
    /// `snapshot_every` ticks (see [`StreamEngine::wal`]).
    pub(crate) wal: Option<Vec<u8>>,
    /// Bounded deterministic flight recorder: batch/stage spans with
    /// exact pJ/ns attribution, fault transitions, snapshot captures,
    /// and alert firings, all on the logical tick clock.
    pub(crate) trace: Recorder,
    /// Tick-clock alert rules evaluated against [`StreamEngine::obs_registry`]
    /// at the end of every tick (see [`StreamEngine::with_alerts`]).
    pub(crate) alerts: AlertEngine,
}

impl<E: Encoder + Sync> StreamEngine<E> {
    /// An engine clustering `encoder`-encoded points under `config`,
    /// priced with the paper's nominal cost model.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] when `config` (or the
    /// encoder geometry) is out of range.
    pub fn new(encoder: E, config: StreamConfig) -> Result<Self, StreamError> {
        Self::with_cost_model(encoder, config, CostModel::paper())
    }

    /// [`StreamEngine::new`] with an explicit chip cost model (e.g.
    /// derated for device variation).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] when `config` (or the
    /// encoder geometry) is out of range.
    pub fn with_cost_model(
        encoder: E,
        config: StreamConfig,
        cost: CostModel,
    ) -> Result<Self, StreamError> {
        config.validate()?;
        if encoder.dim() == 0 || encoder.n_features() == 0 {
            return Err(StreamError::InvalidConfig {
                name: "encoder",
                reason: "dim and n_features must be positive",
            });
        }
        let model = OnlineKMeans::new(
            encoder.dim(),
            config.k,
            config.centroids_per_cluster,
            config.decay,
            config.shards,
        );
        let wear = WearLeveler::new(encoder.dim().div_ceil(BLOCK_ROWS).max(1));
        Ok(Self {
            encoder,
            ring: Ring::with_capacity(config.capacity),
            batcher: Batcher::new(config.max_batch, config.max_ticks),
            model,
            meter: StreamMeter::new(cost),
            fault: None,
            obs: Registry::new(),
            wear,
            wal: None,
            trace: Recorder::new(config.trace_capacity),
            alerts: AlertEngine::default(),
            config,
        })
    }

    /// Install tick-clock alert rules: every [`StreamEngine::tick`]
    /// ends by evaluating them against the engine's private registry,
    /// recording raise/clear transitions into the flight recorder.
    /// Replaces any previously installed rule set (states re-arm).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] when a rule is invalid
    /// (empty name, non-finite or inverted thresholds, duplicate
    /// names).
    pub fn with_alerts(mut self, rules: Vec<AlertRule>) -> Result<Self, StreamError> {
        self.alerts = AlertEngine::new(rules).map_err(|e| {
            let (TraceError::InvalidRule { reason, .. } | TraceError::RestoreShape { reason }) = e;
            StreamError::InvalidConfig {
                name: "alerts",
                reason,
            }
        })?;
        Ok(self)
    }

    /// Enable deterministic fault injection: stored sub-centroids are
    /// *sensed* through `fault.plan` before every assignment pass, the
    /// healing policy remaps dead/worn rows and majority-votes
    /// re-reads, and shards whose observed corruption exceeds the
    /// threshold are quarantined (their batches deferred in the ring)
    /// with an exponential backoff on the logical tick clock.
    ///
    /// Physical layout: sub-centroid slot `s` lives in plan row `s`;
    /// the spare pool occupies rows `slots .. slots + spares`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] when the threshold is
    /// outside `(0, 1]`, the plan has fewer columns than the
    /// hypervector dimension, or fewer rows than `slots + spares`.
    pub fn with_fault_injection(mut self, fault: FaultConfig) -> Result<Self, StreamError> {
        self.fault = Some(FaultState::new(
            fault,
            self.encoder.dim(),
            self.model.slots(),
            self.config.shards,
        )?);
        Ok(self)
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The encoder driving the encode stage.
    #[must_use]
    pub fn encoder(&self) -> &E {
        &self.encoder
    }

    /// Lifetime event counters, materialized from the engine's metrics
    /// registry (see [`StreamEngine::obs_registry`]).
    #[must_use]
    pub fn counters(&self) -> StreamCounters {
        StreamCounters {
            ingested: self.obs.counter(Key::StreamIngested),
            rejected: self.obs.counter(Key::StreamRejected),
            dropped: self.obs.counter(Key::StreamDropped),
            inline_flushes: self.obs.counter(Key::StreamInlineFlushes),
            batches: self.obs.counter(Key::StreamBatches),
            size_cuts: self.obs.counter(Key::StreamSizeCuts),
            deadline_cuts: self.obs.counter(Key::StreamDeadlineCuts),
            drain_cuts: self.obs.counter(Key::StreamDrainCuts),
            encoded: self.obs.counter(Key::StreamEncoded),
            assigned: self.obs.counter(Key::StreamAssigned),
            seeded: self.obs.counter(Key::StreamSeeded),
            rebinarized: self.obs.counter(Key::StreamRebinarized),
        }
    }

    /// The engine-private metrics registry backing
    /// [`StreamEngine::counters`]: `stream.*` counters, the
    /// `stream.batch_points` histogram, and the `pim.*` chip-cost
    /// gauges refreshed after every committed batch. Render it with
    /// [`dual_obs::Registry::to_prometheus`] or diff its
    /// [`dual_obs::Registry::stable_snapshot`] across runs.
    #[must_use]
    pub fn obs_registry(&self) -> &Registry {
        &self.obs
    }

    /// The per-batch cost meter.
    #[must_use]
    pub fn meter(&self) -> &StreamMeter {
        &self.meter
    }

    /// The flight recorder: the last `trace_capacity` structured events
    /// (batch/stage spans with exact chip-cost attribution, fault and
    /// snapshot transitions, alert firings) on the logical tick clock.
    /// Render it with [`dual_trace::report_json`] or
    /// [`dual_trace::chrome_trace`].
    #[must_use]
    pub fn trace(&self) -> &Recorder {
        &self.trace
    }

    /// The installed alert rules and their latch states.
    #[must_use]
    pub fn alerts(&self) -> &AlertEngine {
        &self.alerts
    }

    /// The endurance wear-leveler tracking per-block centroid-rewrite
    /// counts (one block per 1024 hypervector dimensions).
    #[must_use]
    pub fn wear(&self) -> &WearLeveler {
        &self.wear
    }

    /// The most recent write-ahead snapshot blob, refreshed at every
    /// `snapshot_every`-th tick (and `None` until the first capture or
    /// when periodic capture is off). Feed it to
    /// [`StreamEngine::restore`] to resume from that tick.
    #[must_use]
    pub fn wal(&self) -> Option<&[u8]> {
        self.wal.as_deref()
    }

    /// Current fault/healing state, `None` when fault injection is
    /// off.
    #[must_use]
    pub fn fault_status(&self) -> Option<FaultStatus> {
        Some(self.fault.as_ref()?.status(&self.obs))
    }

    /// The online clustering model.
    #[must_use]
    pub fn model(&self) -> &OnlineKMeans {
        &self.model
    }

    /// Points buffered but not yet clustered.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.ring.len()
    }

    /// Current logical time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.batcher.now()
    }

    /// Seed sub-centroid slots from explicit centers (before or
    /// between batches); remaining slots seed themselves from the
    /// first streamed points.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::CentroidShape`] on a dimensionality
    /// mismatch or when more centers arrive than free slots remain.
    pub fn seed_centroids(&mut self, centers: &[Hypervector]) -> Result<(), StreamError> {
        self.model.seed(centers)
    }

    /// Offer one point to the ingest ring.
    ///
    /// When the ring is full the configured [`BackpressurePolicy`]
    /// decides: `Block` cuts one micro-batch inline (the producer
    /// "blocks" on useful work) and then enqueues; `DropOldest` evicts
    /// the stalest buffered point; `Reject` refuses the new point.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::FeatureLength`] when the point's feature
    /// count differs from the encoder's and
    /// [`StreamError::NonFiniteFeature`] when a feature is NaN or ±∞
    /// (either way the point never enters the ring), and propagates
    /// encode errors from an inline `Block` flush.
    pub fn push(&mut self, features: &[f64]) -> Result<PushOutcome, StreamError> {
        let policy = self.config.policy;
        self.push_policed(features, policy)
    }

    /// The admission check [`StreamEngine::push`] runs before a point
    /// may enter the ring: the feature count first, then every feature
    /// finite. Admission layers that may refuse a point without pushing
    /// it (`dual-topology`'s over-budget gate) call it first, so a bad
    /// point gets the same typed error on every path.
    ///
    /// # Errors
    ///
    /// [`StreamError::FeatureLength`] when the point's feature count
    /// differs from the encoder's, else
    /// [`StreamError::NonFiniteFeature`] for the first NaN or ±∞.
    pub fn validate_point(&self, features: &[f64]) -> Result<(), StreamError> {
        if features.len() != self.encoder.n_features() {
            return Err(StreamError::FeatureLength {
                expected: self.encoder.n_features(),
                got: features.len(),
            });
        }
        match first_non_finite(features) {
            Some(index) => Err(StreamError::NonFiniteFeature { index }),
            None => Ok(()),
        }
    }

    /// [`StreamEngine::push`] with the overflow policy chosen per call
    /// instead of from [`StreamConfig`] — the hosting hook for
    /// admission layers (`dual-topology`) that escalate a tenant's
    /// policy while it is over its energy quota without mutating the
    /// engine's configured default.
    ///
    /// # Errors
    ///
    /// Same contract as [`StreamEngine::push`].
    pub fn push_policed(
        &mut self,
        features: &[f64],
        policy: BackpressurePolicy,
    ) -> Result<PushOutcome, StreamError> {
        self.validate_point(features)?;
        match self.ring.try_push(features.to_vec()) {
            Ok(()) => {
                self.obs.add(Key::StreamIngested, 1);
                Ok(PushOutcome::Accepted)
            }
            Err(point) => match policy {
                BackpressurePolicy::Block => {
                    self.obs.add(Key::StreamInlineFlushes, 1);
                    self.cut_batch(CutReason::Backpressure)?;
                    match self.ring.try_push(point) {
                        Ok(()) => {
                            self.obs.add(Key::StreamIngested, 1);
                            Ok(PushOutcome::AcceptedAfterFlush)
                        }
                        Err(point) => {
                            // Only reachable when quarantine deferred
                            // the inline flush and the ring is still
                            // full: shed the stalest buffered point
                            // rather than deadlock the producer.
                            let _evicted = self.ring.force_push(point);
                            self.obs.add(Key::StreamDropped, 1);
                            self.obs.add(Key::StreamIngested, 1);
                            Ok(PushOutcome::AcceptedDroppedOldest)
                        }
                    }
                }
                BackpressurePolicy::DropOldest => {
                    let _evicted = self.ring.force_push(point);
                    self.obs.add(Key::StreamDropped, 1);
                    self.obs.add(Key::StreamIngested, 1);
                    Ok(PushOutcome::AcceptedDroppedOldest)
                }
                BackpressurePolicy::Reject => {
                    self.obs.add(Key::StreamRejected, 1);
                    Ok(PushOutcome::Rejected)
                }
            },
        }
    }

    /// Advance the logical clock one tick and cut every micro-batch
    /// that is due (size threshold first, then the deadline), returning
    /// their costs in commit order.
    ///
    /// Under fault injection the tick first releases every quarantined
    /// shard whose backoff expired (their deferred work requeues —
    /// the ring held it all along). While any shard remains benched,
    /// due batches stay buffered and this returns no costs.
    ///
    /// # Errors
    ///
    /// Propagates encode-stage errors.
    pub fn tick(&mut self) -> Result<Vec<StreamBatchCost>, StreamError> {
        self.batcher.tick();
        // Keep the registry's logical clock in lockstep with the
        // batcher so exported snapshots carry stream time.
        self.obs.tick(1);
        let now = self.batcher.now();
        if let Some(f) = self.fault.as_mut() {
            f.release(now, &mut self.obs, &mut self.trace);
        }
        let mut costs = Vec::new();
        while let Some(reason) = self.batcher.due(self.ring.len()) {
            match self.cut_batch(reason)? {
                Some(cost) => costs.push(cost),
                // Quarantine deferred the batch: the ring keeps the
                // points and the deadline stays armed for a retry.
                None => break,
            }
        }
        // Alert rules run after the cuts, against post-cut metrics (so
        // occupancy/trace gauges are fresh), and BEFORE the write-ahead
        // capture — the blob carries the post-alert latches and the
        // recorded transitions.
        self.refresh_trace_gauges();
        self.alerts.eval(now, &self.obs, &mut self.trace);
        // Write-ahead capture happens at the END of the tick, so the
        // blob holds the post-cut state of tick `now`: a restore
        // replays pushes/ticks strictly after `now` and lands
        // bit-identical to the uninterrupted run.
        if self.config.snapshot_every > 0 && now.is_multiple_of(self.config.snapshot_every) {
            // Encoded in place into the previous blob's allocation.
            let mut blob = self.wal.take().unwrap_or_default();
            self.checkpoint_into(&mut blob);
            self.wal = Some(blob);
        }
        Ok(costs)
    }

    /// Flush every buffered point through the pipeline, regardless of
    /// thresholds (and regardless of shard quarantine — a drain forces
    /// processing, masking only the benched shards), returning the
    /// committed batch costs.
    ///
    /// # Errors
    ///
    /// Propagates encode-stage errors.
    pub fn drain(&mut self) -> Result<Vec<StreamBatchCost>, StreamError> {
        let mut costs = Vec::new();
        while !self.ring.is_empty() {
            match self.cut_batch(CutReason::Drain)? {
                Some(cost) => costs.push(cost),
                // Unreachable: a drain cut is never deferred. Guard
                // against a livelock regardless.
                None => break,
            }
        }
        Ok(costs)
    }

    /// Export a consistent view of the engine between batches: current
    /// centers per cluster, counters, pending depth, and accumulated
    /// chip costs. Snapshots are bit-identical across thread counts
    /// for the same pushed stream and tick schedule.
    #[must_use]
    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            tick: self.batcher.now(),
            pending: self.ring.len(),
            clusters: self.model.clusters(),
            counters: self.counters(),
            batches: self.meter.batches(),
            points: self.meter.points(),
            time_ns: self.meter.total().time_ns(),
            energy_pj: self.meter.total().energy_pj(),
        }
    }

    /// Pop up to `max_batch` points and run them through
    /// sense → encode → assign → accumulate → re-binarize, committing
    /// the batch's chip cost. Returns `None` (without popping) when a
    /// quarantined shard defers the batch — the ring itself is the
    /// requeue buffer, and the batcher deadline stays armed because
    /// `note_cut` is never reached. A [`CutReason::Drain`] cut forces
    /// processing, masking only the benched shards.
    fn cut_batch(&mut self, reason: CutReason) -> Result<Option<StreamBatchCost>, StreamError> {
        let force = matches!(reason, CutReason::Drain);
        // Fault path, sense stage (pre-pop): a benched shard, or one
        // this pass trips, defers the batch before any point is consumed.
        let mut views = None;
        if let Some(f) = self.fault.as_mut() {
            views = f.sense_stage(
                force,
                &self.model,
                self.config.shards,
                self.batcher.now(),
                &mut self.obs,
                &mut self.trace,
            );
            if views.is_none() {
                return Ok(None);
            }
        }

        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(self.config.max_batch);
        while rows.len() < self.config.max_batch {
            match self.ring.pop() {
                Some(p) => rows.push(p),
                None => break,
            }
        }
        let n = as_u64(rows.len());
        let tick = self.batcher.now();
        let batch_span = self.trace.begin(
            tick,
            Event::BatchBegin {
                reason: trace_cut(reason),
                points: n,
            },
        );

        // Encode stage: deterministic parallel fan-out, chunk order.
        let stage_span = self.trace.begin(
            tick,
            Event::StageEnter {
                stage: dual_obs::Stage::Encoding,
            },
        );
        let before = self.flight();
        let encoder = &self.encoder;
        let parts = dual_pool::par_map_ranges(rows.len(), self.config.threads, |chunk| {
            encoder.encode_batch(&rows[chunk])
        });
        let mut encoded: Vec<Hypervector> = Vec::with_capacity(rows.len());
        for part in parts {
            encoded.extend(part?);
        }
        self.charge_encode(n);
        self.end_stage(tick, stage_span, dual_obs::Stage::Encoding, before);

        // Cluster stage: faults on → assign against the sensed view
        // (storage stays pristine; the majority rewrite heals it).
        let stage_span = self.trace.begin(
            tick,
            Event::StageEnter {
                stage: dual_obs::Stage::Nearest,
            },
        );
        let before = self.flight();
        let update = match views {
            None => self.model.observe_batch(&encoded, self.config.threads),
            Some(views) => self
                .model
                .observe_batch_sensed(&encoded, self.config.threads, views),
        };
        self.charge_assign(n, self.model.seeded());
        self.end_stage(tick, stage_span, dual_obs::Stage::Nearest, before);

        let stage_span = self.trace.begin(
            tick,
            Event::StageEnter {
                stage: dual_obs::Stage::Update,
            },
        );
        let before = self.flight();
        self.charge_update(n, as_u64(update.rebinarized));
        self.end_stage(tick, stage_span, dual_obs::Stage::Update, before);

        self.obs.add(Key::StreamEncoded, n);
        self.obs
            .add(Key::StreamAssigned, as_u64(update.assignments.len()));
        self.obs.add(Key::StreamSeeded, as_u64(update.seeded));
        self.obs
            .add(Key::StreamRebinarized, as_u64(update.rebinarized));
        self.obs.add(Key::StreamBatches, 1);
        self.obs.observe(Key::StreamBatchPoints, n);
        match reason {
            CutReason::Size => self.obs.add(Key::StreamSizeCuts, 1),
            CutReason::Deadline => self.obs.add(Key::StreamDeadlineCuts, 1),
            CutReason::Backpressure => {} // counted as inline_flushes at push
            CutReason::Drain => self.obs.add(Key::StreamDrainCuts, 1),
        }
        self.batcher.note_cut();
        let cost = self.meter.commit_batch(n);
        self.trace.end(
            tick,
            batch_span,
            Event::BatchEnd {
                batch: cost.batch,
                time_ns: cost.time_ns,
                energy_pj: cost.energy_pj,
            },
        );
        self.refresh_pim_gauges();
        if let Some(f) = &self.fault {
            f.refresh_gauges(&mut self.obs);
        }
        Ok(Some(cost))
    }

    /// The meter's open-batch totals, the baseline for per-stage
    /// attribution deltas.
    fn flight(&self) -> (f64, f64) {
        let open = self.meter.in_flight();
        (open.time_ns(), open.energy_pj())
    }

    /// Close a stage span with the exact chip cost the stage added to
    /// the open batch since `before`.
    fn end_stage(
        &mut self,
        tick: u64,
        span: dual_trace::SpanId,
        stage: dual_obs::Stage,
        before: (f64, f64),
    ) {
        let after = self.flight();
        self.trace.end(
            tick,
            span,
            Event::StageExit {
                stage,
                time_ns: after.0 - before.0,
                energy_pj: after.1 - before.1,
            },
        );
    }

    /// Mirror ring occupancy and flight-recorder counters into the
    /// registry's gauges, so alert rules (and exported snapshots) can
    /// watch them on the tick clock.
    fn refresh_trace_gauges(&mut self) {
        self.obs
            .gauge(Key::StreamRingOccupancy, as_f64(as_u64(self.ring.len())));
        if self.trace.is_disabled() {
            return;
        }
        self.obs
            .gauge(Key::TraceEmitted, as_f64(self.trace.emitted()));
        self.obs
            .gauge(Key::TraceEvicted, as_f64(self.trace.evicted()));
        self.obs
            .gauge(Key::TraceAlertsRaised, as_f64(self.trace.alerts_raised()));
    }

    /// Mirror the meter's accumulated chip costs into the registry's
    /// `pim.*` gauges: total latency/energy plus per-family op-issue
    /// counts, so a single Prometheus render of
    /// [`StreamEngine::obs_registry`] carries the DUAL cost attribution
    /// alongside the pipeline event counters.
    fn refresh_pim_gauges(&mut self) {
        let total = self.meter.total();
        self.obs.gauge(Key::PimTimeNs, total.time_ns());
        self.obs.gauge(Key::PimEnergyPj, total.energy_pj());
        let mut per_family = [0u64; dual_obs::OpFamily::ALL.len()];
        for (op, count) in total.counts() {
            per_family[op.family().index()] += count;
        }
        for family in dual_obs::OpFamily::ALL {
            self.obs
                .gauge(Key::PimOpIssues(family), as_f64(per_family[family.index()]));
        }
    }

    /// Charge the HD-Mapper encode pass for `n` points: per point, `m`
    /// serial 8-bit multiplies, a log-tree 16-bit accumulation, and the
    /// 3-term Taylor cosine (2 squarings + 2 constant multiplies + an
    /// add chain), replicated across `ceil(D / 1024)` row blocks
    /// (§V-A; mirrors `dual_core::PerfModel::encoding`).
    fn charge_encode(&mut self, n: u64) {
        let m = self.encoder.n_features();
        let row_blocks = as_u64(self.encoder.dim().div_ceil(BLOCK_ROWS)).max(1);
        let log_m = u64::from(m.max(2).next_power_of_two().trailing_zeros());
        self.meter
            .record_grid(Op::Mul { bits: 8 }, n * as_u64(m), row_blocks);
        self.meter
            .record_grid(Op::Add { bits: 16 }, n * (log_m + 3), row_blocks);
        self.meter
            .record_grid(Op::Mul { bits: 16 }, n * 4, row_blocks);
    }

    /// Charge the assignment pass: per query, `ceil(D / 7)` Hamming
    /// window sweeps plus a bit-serial nearest search of
    /// `ceil(bits(D) / 4)` 4-bit stages, both row-parallel across the
    /// block(s) storing the `centroids` sub-centroid rows (§IV-A).
    /// Under a majority re-read healing policy every window sweep is
    /// repeated `reads` times — the latency/energy price of voting.
    fn charge_assign(&mut self, n: u64, centroids: usize) {
        let windows = as_u64(self.encoder.dim().div_ceil(7));
        let reads = self
            .fault
            .as_ref()
            .map_or(1, |f| u64::from(f.policy.reads()));
        let centroid_blocks = as_u64(centroids.div_ceil(BLOCK_ROWS)).max(1);
        let dist_bits = u64::from(usize::BITS - self.encoder.dim().leading_zeros());
        let stages = dist_bits.div_ceil(4);
        self.meter
            .record_grid(Op::HammingWindow, n * windows * reads, centroid_blocks);
        self.meter
            .record_grid(Op::NearestStage, n * stages, centroid_blocks);
    }

    /// Charge the centroid-update pass: one row-parallel 16-bit counter
    /// add per point across the dimension blocks, plus a `D`-column NVM
    /// write per re-binarized sub-centroid (§VI-C).
    fn charge_update(&mut self, n: u64, rebinarized: u64) {
        let row_blocks = as_u64(self.encoder.dim().div_ceil(BLOCK_ROWS)).max(1);
        self.meter.record_grid(Op::Add { bits: 16 }, n, row_blocks);
        let bits = u32::try_from(self.encoder.dim()).unwrap_or(u32::MAX);
        self.meter.record_serial(Op::Write { bits }, rebinarized);
        if rebinarized > 0 {
            // Endurance accounting: each rewritten sub-centroid writes
            // `dim` columns; the leveler rotates the data-block role to
            // the least-worn block (§VIII-H).
            let blk = self.wear.next_data_block();
            self.wear
                .record_writes(blk, rebinarized * as_u64(self.encoder.dim()));
        }
    }
}

/// The trace-local mirror of a [`CutReason`] (`dual-trace` sits below
/// `dual-stream` in the dependency graph, so the vocabulary is
/// duplicated rather than shared).
fn trace_cut(reason: CutReason) -> Cut {
    match reason {
        CutReason::Size => Cut::Size,
        CutReason::Deadline => Cut::Deadline,
        CutReason::Backpressure => Cut::Backpressure,
        CutReason::Drain => Cut::Drain,
    }
}

/// Lossless `usize → u64` (saturating on a hypothetical >64-bit
/// platform), without a lint-audited `as` cast.
pub(crate) fn as_u64(x: usize) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// `u64 → f64` for gauge export; exact below `2^53`, far beyond any
/// realistic op-issue count.
#[expect(
    clippy::cast_precision_loss,
    reason = "exact below 2^53, far beyond any realistic op-issue count"
)]
pub(crate) fn as_f64(x: u64) -> f64 {
    x as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dual_hdc::HdMapper;

    fn engine(config: StreamConfig) -> StreamEngine<HdMapper> {
        let mapper = HdMapper::new(64, 2, 7).unwrap();
        StreamEngine::new(mapper, config).unwrap()
    }

    fn point(i: usize) -> Vec<f64> {
        let x = i as f64;
        vec![(x * 0.37).sin() * 3.0, (x * 0.11).cos() * 3.0]
    }

    #[test]
    fn config_validation_names_the_parameter() {
        let mut c = StreamConfig::new(0);
        assert!(matches!(
            c.validate(),
            Err(StreamError::InvalidConfig { name: "k", .. })
        ));
        c.k = 2;
        c.decay = 1.5;
        assert!(matches!(
            c.validate(),
            Err(StreamError::InvalidConfig { name: "decay", .. })
        ));
        c.decay = 0.5;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn push_policed_overrides_configured_policy_per_call() {
        let mut cfg = StreamConfig::new(2);
        cfg.capacity = 2;
        cfg.policy = BackpressurePolicy::Block;
        let mut e = engine(cfg);
        e.push(&[0.0, 0.0]).unwrap();
        e.push(&[0.1, 0.1]).unwrap();
        // Ring full: a policed Reject refuses without touching the
        // buffer or the configured Block default.
        assert_eq!(
            e.push_policed(&[0.2, 0.2], BackpressurePolicy::Reject)
                .unwrap(),
            PushOutcome::Rejected
        );
        assert_eq!(e.pending(), 2);
        // A policed DropOldest sheds the stalest point instead.
        assert_eq!(
            e.push_policed(&[0.3, 0.3], BackpressurePolicy::DropOldest)
                .unwrap(),
            PushOutcome::AcceptedDroppedOldest
        );
        assert_eq!(e.pending(), 2);
        assert_eq!(e.config().policy, BackpressurePolicy::Block);
        assert_eq!(e.counters().rejected, 1);
        assert_eq!(e.counters().dropped, 1);
    }

    #[test]
    fn push_rejects_wrong_feature_count() {
        let mut e = engine(StreamConfig::new(2));
        assert!(matches!(
            e.push(&[1.0, 2.0, 3.0]),
            Err(StreamError::FeatureLength {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn push_refuses_non_finite_features_before_the_ring() {
        let mut e = engine(StreamConfig::new(2));
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                e.push(&[0.5, x]),
                Err(StreamError::NonFiniteFeature { index: 1 })
            );
        }
        assert_eq!(e.pending(), 0);
        assert_eq!(e.counters().ingested, 0);
    }

    #[test]
    fn push_policed_refuses_non_finite_features_under_every_policy() {
        let mut cfg = StreamConfig::new(2);
        cfg.capacity = 1;
        let mut e = engine(cfg);
        e.push(&point(0)).unwrap();
        // The ring is full, so the point would meet each overflow path.
        for policy in [
            BackpressurePolicy::Block,
            BackpressurePolicy::DropOldest,
            BackpressurePolicy::Reject,
        ] {
            assert_eq!(
                e.push_policed(&[f64::NAN, 1.0], policy),
                Err(StreamError::NonFiniteFeature { index: 0 })
            );
        }
        assert_eq!(e.pending(), 1);
        let c = e.counters();
        assert_eq!((c.ingested, c.dropped, c.rejected), (1, 0, 0));
        assert_eq!(c.inline_flushes, 0);
    }

    #[test]
    fn size_trigger_cuts_on_tick() {
        let mut cfg = StreamConfig::new(2);
        cfg.max_batch = 4;
        cfg.max_ticks = 1000;
        let mut e = engine(cfg);
        for i in 0..9 {
            assert_eq!(e.push(&point(i)).unwrap(), PushOutcome::Accepted);
        }
        let costs = e.tick().unwrap();
        assert_eq!(costs.len(), 2); // two full batches of 4; 1 point stays
        assert_eq!(e.pending(), 1);
        assert_eq!(e.counters().size_cuts, 2);
        assert_eq!(e.counters().encoded, 8);
        assert!(costs.iter().all(|c| c.energy_pj > 0.0 && c.time_ns > 0.0));
    }

    #[test]
    fn deadline_trigger_cuts_late_stragglers() {
        let mut cfg = StreamConfig::new(2);
        cfg.max_batch = 100;
        cfg.max_ticks = 3;
        let mut e = engine(cfg);
        e.push(&point(0)).unwrap();
        assert!(e.tick().unwrap().is_empty());
        assert!(e.tick().unwrap().is_empty());
        let costs = e.tick().unwrap();
        assert_eq!(costs.len(), 1);
        assert_eq!(costs[0].points, 1);
        assert_eq!(e.counters().deadline_cuts, 1);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn block_policy_flushes_inline_and_never_loses_points() {
        let mut cfg = StreamConfig::new(2);
        cfg.capacity = 4;
        cfg.max_batch = 4;
        cfg.policy = BackpressurePolicy::Block;
        let mut e = engine(cfg);
        for i in 0..4 {
            assert_eq!(e.push(&point(i)).unwrap(), PushOutcome::Accepted);
        }
        assert_eq!(e.push(&point(4)).unwrap(), PushOutcome::AcceptedAfterFlush);
        assert_eq!(e.counters().inline_flushes, 1);
        assert_eq!(e.counters().encoded, 4);
        assert_eq!(e.pending(), 1);
        e.drain().unwrap();
        assert_eq!(e.counters().ingested, 5);
        assert_eq!(e.counters().encoded, 5);
    }

    #[test]
    fn drop_oldest_policy_sheds_load_without_deadlock() {
        let mut cfg = StreamConfig::new(2);
        cfg.capacity = 3;
        cfg.policy = BackpressurePolicy::DropOldest;
        let mut e = engine(cfg);
        for i in 0..100 {
            let out = e.push(&point(i)).unwrap();
            assert!(matches!(
                out,
                PushOutcome::Accepted | PushOutcome::AcceptedDroppedOldest
            ));
            assert!(e.pending() <= 3);
        }
        assert_eq!(e.counters().dropped, 97);
        assert_eq!(e.counters().ingested, 100);
        e.drain().unwrap();
        assert_eq!(e.counters().encoded, 3); // only the freshest survive
    }

    #[test]
    fn reject_policy_refuses_and_buffers_nothing_new() {
        let mut cfg = StreamConfig::new(2);
        cfg.capacity = 2;
        cfg.policy = BackpressurePolicy::Reject;
        let mut e = engine(cfg);
        e.push(&point(0)).unwrap();
        e.push(&point(1)).unwrap();
        assert_eq!(e.push(&point(2)).unwrap(), PushOutcome::Rejected);
        assert_eq!(e.counters().rejected, 1);
        assert_eq!(e.pending(), 2);
    }

    #[test]
    fn drain_empties_the_ring_and_snapshot_is_consistent() {
        let mut cfg = StreamConfig::new(3);
        cfg.max_batch = 8;
        let mut e = engine(cfg);
        for i in 0..20 {
            e.push(&point(i)).unwrap();
        }
        let costs = e.drain().unwrap();
        assert_eq!(costs.len(), 3); // 8 + 8 + 4
        let snap = e.snapshot();
        assert_eq!(snap.pending, 0);
        assert_eq!(snap.points, 20);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.clusters.len(), 3);
        assert_eq!(snap.clusters.iter().map(Vec::len).sum::<usize>(), 3);
        assert_eq!(snap.counters.drain_cuts, 3);
        assert!(snap.energy_pj > 0.0 && snap.time_ns > 0.0);
    }

    #[test]
    fn snapshots_are_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut cfg = StreamConfig::new(3);
            cfg.threads = threads;
            cfg.max_batch = 16;
            cfg.decay = 0.9;
            cfg.centroids_per_cluster = 2;
            let mut e = engine(cfg);
            for i in 0..100 {
                e.push(&point(i)).unwrap();
                if i % 10 == 9 {
                    e.tick().unwrap();
                }
            }
            e.drain().unwrap();
            e.snapshot()
        };
        let gold = run(1);
        for threads in [0, 2, 3, 8] {
            let snap = run(threads);
            assert_eq!(snap.clusters, gold.clusters, "threads={threads}");
            assert_eq!(snap.counters, gold.counters, "threads={threads}");
            assert_eq!(snap.energy_pj.to_bits(), gold.energy_pj.to_bits());
        }
    }

    #[test]
    fn seeded_centroids_shape_is_enforced() {
        let mut e = engine(StreamConfig::new(2));
        assert!(matches!(
            e.seed_centroids(&[Hypervector::zeros(32)]),
            Err(StreamError::CentroidShape { .. })
        ));
        assert!(e
            .seed_centroids(&[Hypervector::zeros(64), Hypervector::zeros(64)])
            .is_ok());
        assert!(matches!(
            e.seed_centroids(&[Hypervector::zeros(64)]),
            Err(StreamError::CentroidShape { .. })
        ));
    }

    fn ones(dim: usize) -> Hypervector {
        Hypervector::from_bitvec(dual_hdc::BitVec::ones(dim))
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        let stream = |mut e: StreamEngine<HdMapper>| {
            for i in 0..60 {
                e.push(&point(i)).unwrap();
                if i % 10 == 9 {
                    e.tick().unwrap();
                }
            }
            e.drain().unwrap();
            e.snapshot()
        };
        let mut cfg = StreamConfig::new(3);
        cfg.max_batch = 8;
        cfg.decay = 0.9;
        let plain = stream(engine(cfg.clone()));
        let faulted_engine = engine(cfg)
            .with_fault_injection(FaultConfig::new(dual_fault::FaultPlan::fault_free(8, 64)))
            .unwrap();
        let status = faulted_engine.fault_status().unwrap();
        assert_eq!(status.policy, "off");
        assert_eq!(status.reads, 1);
        let faulted = stream(faulted_engine);
        assert_eq!(plain, faulted, "a clean plan must be transparent");
    }

    #[test]
    fn fault_config_validation_names_the_parameter() {
        let plan = dual_fault::FaultPlan::fault_free(8, 64);
        let mut bad = FaultConfig::new(plan.clone());
        bad.quarantine_threshold = 0.0;
        assert!(matches!(
            engine(StreamConfig::new(3)).with_fault_injection(bad),
            Err(StreamError::InvalidConfig {
                name: "fault.quarantine_threshold",
                ..
            })
        ));
        // 32 columns cannot hold 64-bit hypervectors.
        let narrow = FaultConfig::new(dual_fault::FaultPlan::fault_free(8, 32));
        assert!(matches!(
            engine(StreamConfig::new(3)).with_fault_injection(narrow),
            Err(StreamError::InvalidConfig {
                name: "fault.plan",
                ..
            })
        ));
        // 3 slots + 8 spares need 11 rows; the plan has 8.
        let cramped =
            FaultConfig::new(plan).with_policy(dual_fault::HealingPolicy::SpareRows { spares: 8 });
        assert!(matches!(
            engine(StreamConfig::new(3)).with_fault_injection(cramped),
            Err(StreamError::InvalidConfig {
                name: "fault.plan",
                ..
            })
        ));
    }

    #[test]
    fn spare_remap_restores_fault_free_behavior() {
        // Slot 0's physical row is dead; with spares provisioned the
        // sense pass remaps it and the stream replays exactly as a
        // fault-free run.
        let stream = |mut e: StreamEngine<HdMapper>| {
            for i in 0..60 {
                e.push(&point(i)).unwrap();
                if i % 10 == 9 {
                    e.tick().unwrap();
                }
            }
            e.drain().unwrap();
            e.snapshot()
        };
        let mut cfg = StreamConfig::new(3);
        cfg.max_batch = 8;
        let plain = stream(engine(cfg.clone()));
        let plan = dual_fault::FaultPlan::fault_free(5, 64)
            .with_dead_row(0)
            .unwrap();
        let mut e = engine(cfg)
            .with_fault_injection(
                FaultConfig::new(plan)
                    .with_policy(dual_fault::HealingPolicy::SpareRows { spares: 2 }),
            )
            .unwrap();
        for i in 0..60 {
            e.push(&point(i)).unwrap();
            if i % 10 == 9 {
                e.tick().unwrap();
            }
        }
        e.drain().unwrap();
        let status = e.fault_status().unwrap();
        assert_eq!(status.spares_used, 1, "the dead row was remapped");
        assert_eq!(status.spares_free, 1);
        assert_eq!(status.quarantine_trips, 0);
        assert_eq!(e.snapshot(), plain, "remap hides the dead row fully");
    }

    #[test]
    fn quarantine_defers_then_kills_a_dead_shard() {
        // Slots 0 and 1 (all of shard 0) sit on dead rows with healing
        // off: the sense pass trips quarantine, the batch defers in
        // the ring through three backoff/probation cycles, and once
        // the retry budget is spent the shard dies and the batch
        // finally processes with shard 0 masked out.
        let mut cfg = StreamConfig::new(4);
        cfg.shards = 2;
        cfg.max_batch = 4;
        cfg.max_ticks = 1000;
        let plan = dual_fault::FaultPlan::fault_free(4, 64)
            .with_dead_row(0)
            .unwrap()
            .with_dead_row(1)
            .unwrap();
        let mut e = engine(cfg)
            .with_fault_injection(FaultConfig::new(plan))
            .unwrap();
        e.seed_centroids(&[ones(64), ones(64), ones(64), ones(64)])
            .unwrap();
        for i in 0..4 {
            e.push(&point(i)).unwrap();
        }
        assert!(e.tick().unwrap().is_empty(), "first cut defers");
        assert_eq!(e.pending(), 4, "the ring is the requeue buffer");
        let status = e.fault_status().unwrap();
        assert_eq!(status.quarantine_trips, 1);
        assert_eq!(status.quarantined_now, 1);
        assert!(status.injected > 0, "dead rows corrupt reads");

        let mut costs = Vec::new();
        for _ in 0..40 {
            costs.extend(e.tick().unwrap());
        }
        assert_eq!(costs.len(), 1, "the deferred batch finally commits");
        assert_eq!(e.pending(), 0);
        let status = e.fault_status().unwrap();
        assert_eq!(status.dead_shards, 1, "retry budget spent");
        assert_eq!(status.quarantined_now, 0);
        assert_eq!(status.quarantine_trips, 4, "3 probations + the fatal trip");
        assert_eq!(status.requeues, 3);
        let counters = e.counters();
        assert_eq!(counters.batches, 1);
        assert_eq!(counters.assigned, 4);
        // Masked slots received no assignments: their centers are
        // untouched by the fold/re-binarize stage.
        assert_eq!(e.model().centroids()[0], ones(64));
        assert_eq!(e.model().centroids()[1], ones(64));
    }

    #[test]
    fn drain_forces_processing_under_quarantine() {
        let mut cfg = StreamConfig::new(4);
        cfg.shards = 2;
        cfg.max_batch = 4;
        cfg.max_ticks = 1000;
        let plan = dual_fault::FaultPlan::fault_free(4, 64)
            .with_dead_row(0)
            .unwrap()
            .with_dead_row(1)
            .unwrap();
        let mut e = engine(cfg)
            .with_fault_injection(FaultConfig::new(plan))
            .unwrap();
        e.seed_centroids(&[ones(64), ones(64), ones(64), ones(64)])
            .unwrap();
        for i in 0..4 {
            e.push(&point(i)).unwrap();
        }
        assert!(e.tick().unwrap().is_empty(), "deferred");
        let costs = e.drain().unwrap();
        assert_eq!(costs.len(), 1, "drain overrides the quarantine gate");
        assert_eq!(e.pending(), 0);
        let status = e.fault_status().unwrap();
        assert_eq!(status.quarantined_now, 1, "the shard stays benched");
        // The benched shard was masked during the drain.
        assert_eq!(e.model().centroids()[0], ones(64));
        assert_eq!(e.model().centroids()[1], ones(64));
    }

    #[test]
    fn majority_reread_heals_transient_flips_in_stream() {
        let mut cfg = StreamConfig::new(3);
        cfg.max_batch = 8;
        let mut spec = dual_fault::FaultPlanSpec::clean(3, 64);
        spec.seed = 7;
        spec.flip_rate = 0.02;
        let plan = dual_fault::FaultPlan::new(spec).unwrap();
        let mut fc = FaultConfig::new(plan)
            .with_policy(dual_fault::HealingPolicy::MajorityReread { reads: 5 });
        fc.quarantine_threshold = 0.5; // flips alone must not bench shards
        let mut e = engine(cfg).with_fault_injection(fc).unwrap();
        for i in 0..200 {
            e.push(&point(i)).unwrap();
            if i % 8 == 7 {
                e.tick().unwrap();
            }
        }
        e.drain().unwrap();
        let status = e.fault_status().unwrap();
        assert_eq!(status.reads, 5);
        assert!(status.injected > 0, "flips land on raw reads");
        assert!(status.healed > 0, "voting repairs them");
        assert!(status.healed <= status.injected);
        assert_eq!(status.quarantine_trips, 0);
        // The voting price is charged: 5x the Hamming window issues of
        // an unfaulted run over the same stream.
        assert!(e.meter().total().time_ns() > 0.0);
    }

    #[test]
    fn faulted_snapshots_are_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut cfg = StreamConfig::new(3);
            cfg.threads = threads;
            cfg.max_batch = 16;
            cfg.decay = 0.9;
            cfg.centroids_per_cluster = 2;
            let mut spec = dual_fault::FaultPlanSpec::clean(8, 64);
            spec.seed = 42;
            spec.stuck_rate = 0.002;
            spec.flip_rate = 0.01;
            let plan = dual_fault::FaultPlan::new(spec).unwrap();
            let mut e = engine(cfg)
                .with_fault_injection(FaultConfig::new(plan).with_policy(
                    dual_fault::HealingPolicy::Full {
                        spares: 2,
                        reads: 3,
                    },
                ))
                .unwrap();
            for i in 0..100 {
                e.push(&point(i)).unwrap();
                if i % 10 == 9 {
                    e.tick().unwrap();
                }
            }
            e.drain().unwrap();
            (e.snapshot(), e.fault_status().unwrap())
        };
        let (gold_snap, gold_status) = run(1);
        assert!(gold_status.injected > 0, "faults actually fired");
        for threads in [0, 2, 3, 8] {
            let (snap, status) = run(threads);
            assert_eq!(snap.clusters, gold_snap.clusters, "threads={threads}");
            assert_eq!(snap.counters, gold_snap.counters, "threads={threads}");
            assert_eq!(snap.energy_pj.to_bits(), gold_snap.energy_pj.to_bits());
            assert_eq!(status, gold_status, "threads={threads}");
        }
    }

    #[test]
    fn flight_recorder_traces_batches_with_stage_attribution() {
        let mut cfg = StreamConfig::new(2);
        cfg.max_batch = 4;
        cfg.max_ticks = 1000;
        let mut e = engine(cfg);
        for i in 0..4 {
            e.push(&point(i)).unwrap();
        }
        let costs = e.tick().unwrap();
        assert_eq!(costs.len(), 1);
        let recs: Vec<_> = e.trace().events().collect();
        // batch.begin + 3 × (stage.enter, stage.exit) + batch.end.
        assert_eq!(recs.len(), 8);
        assert_eq!(recs[0].event.kind(), "batch.begin");
        assert_eq!(recs[7].event.kind(), "batch.end");
        let batch_span = recs[0].span;
        assert!(recs[1..7].iter().all(|r| r.parent == batch_span));
        // Per-stage attribution sums to the committed batch cost.
        let mut stage_ns = 0.0;
        let mut stage_pj = 0.0;
        for r in &recs {
            if let Event::StageExit {
                time_ns, energy_pj, ..
            } = r.event
            {
                stage_ns += time_ns;
                stage_pj += energy_pj;
            }
        }
        assert!((stage_ns - costs[0].time_ns).abs() < 1e-9);
        assert!((stage_pj - costs[0].energy_pj).abs() < 1e-9);
        assert_eq!(e.trace().open_depth(), 0);
    }

    #[test]
    fn zero_capacity_disables_the_recorder() {
        let mut cfg = StreamConfig::new(2);
        cfg.trace_capacity = 0;
        let mut e = engine(cfg);
        for i in 0..20 {
            e.push(&point(i)).unwrap();
            if i % 5 == 4 {
                e.tick().unwrap();
            }
        }
        e.drain().unwrap();
        assert!(e.trace().is_disabled());
        assert_eq!(e.trace().emitted(), 0);
        assert_eq!(e.obs_registry().gauge_value(Key::TraceEmitted), 0.0);
    }

    #[test]
    fn alert_rules_fire_and_clear_on_the_tick_clock() {
        use dual_trace::{AlertRule, Signal};
        let mut cfg = StreamConfig::new(2);
        cfg.max_batch = 4;
        cfg.max_ticks = 1000;
        let mut e = engine(cfg)
            .with_alerts(vec![AlertRule {
                name: "ring-backlog".to_owned(),
                signal: Signal::Gauge(Key::StreamRingOccupancy),
                threshold: 3.0,
                clear: 0.0,
            }])
            .unwrap();
        // Two points buffered: below threshold, no alert.
        e.push(&point(0)).unwrap();
        e.push(&point(1)).unwrap();
        assert!(e.tick().unwrap().is_empty());
        assert_eq!(e.alerts().latched(), 0);
        // A third point crosses the threshold at the next tick... but
        // four trigger a size cut first, so push only one more.
        e.push(&point(2)).unwrap();
        assert!(e.tick().unwrap().is_empty());
        assert_eq!(e.alerts().latched(), 1, "occupancy 3 >= threshold 3");
        // The size cut empties the ring and the alert clears.
        e.push(&point(3)).unwrap();
        assert_eq!(e.tick().unwrap().len(), 1);
        assert_eq!(e.alerts().latched(), 0, "occupancy fell to 0");
        let alerts: Vec<(bool, f64)> = e
            .trace()
            .events()
            .filter_map(|r| match &r.event {
                Event::Alert { raised, value, .. } => Some((*raised, *value)),
                _ => None,
            })
            .collect();
        assert_eq!(alerts, vec![(true, 3.0), (false, 0.0)]);
    }

    #[test]
    fn invalid_alert_rules_are_rejected_at_build() {
        use dual_trace::{AlertRule, Signal};
        let err = engine(StreamConfig::new(2)).with_alerts(vec![AlertRule {
            name: "inverted".to_owned(),
            signal: Signal::Counter(Key::StreamIngested),
            threshold: 1.0,
            clear: 2.0,
        }]);
        assert!(matches!(
            err,
            Err(StreamError::InvalidConfig { name: "alerts", .. })
        ));
    }

    #[test]
    fn encoder_geometry_is_validated() {
        struct NullEncoder;
        impl Encoder for NullEncoder {
            fn dim(&self) -> usize {
                0
            }
            fn n_features(&self) -> usize {
                1
            }
            fn encode(&self, _: &[f64]) -> Result<Hypervector, dual_hdc::HdcError> {
                Ok(Hypervector::zeros(1))
            }
        }
        assert!(matches!(
            StreamEngine::new(NullEncoder, StreamConfig::new(2)),
            Err(StreamError::InvalidConfig {
                name: "encoder",
                ..
            })
        ));
    }
}
