//! Snapshot capture and restore: the one module that knows what a
//! `DSNP` payload holds. It writes the live [`StreamEngine`] straight
//! into a `dual-snap` frame and reads each section straight back into
//! the live types through `dual-snap`'s bounds-checked [`Reader`].
//!
//! # Replay contract
//!
//! [`StreamEngine::checkpoint`] captures the complete mutable state of
//! the engine *between batches* — model slots and accumulators, ring
//! contents, batcher cursors, the committed energy ledger, the private
//! observability registry, quarantine/spare-pool machines, the
//! endurance wear counts, and the flight recorder with its alert
//! latches — all as bit representations (`f64::to_bits`, packed
//! hypervector words). [`StreamEngine::restore`] rebuilds an engine
//! from such a blob, and re-feeding the exact pushes and ticks that
//! followed the capture reproduces the uninterrupted run
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
//!
//! # Payload (format version 2)
//!
//! The frame around it is `dual-snap`'s. Sections follow in this
//! order. `seq(n)<T>` is a `u64` count, then the items, each at least
//! `n` bytes: a count the rest of the payload cannot hold at that size
//! is refused before anything is allocated. `opt<T>` is a `u8` presence
//! tag (0/1), then the value; an `f64` travels as its `to_bits` word
//! and a `str` as a `seq(1)<u8>` of UTF-8.
//!
//! ```text
//! config   dim, n_features, capacity u64; policy u8 (0 Block, 1 DropOldest,
//!          2 Reject); max_batch, max_ticks, k, centroids_per_cluster u64;
//!          decay f64; shards, threads, snapshot_every, trace_capacity u64
//! batcher  now, last_cut u64
//! pending  ring points, oldest first: seq(8)<seq(8)<f64>>
//! model    batches_observed u64; seeded slots' centroid words (bit i in
//!          word i / 64, bits past dim ignored) seq(8)<seq(8)<u64>>;
//!          accumulator counts seq(8)<seq(8)<f64>>; weights seq(8)<f64>
//! meter    time_ns, energy_pj f64; ops seq(13)<tag u8, bits u32, count
//!          u64> (tags 0 HammingWindow, 1 NearestStage, 2 Add, 3 Sub,
//!          4 Mul, 5 Div, 6 Transfer, 7 Write); batches, points u64;
//!          last batch opt<batch, points u64, time_ns, energy_pj f64>
//! obs      clock u64; counters seq(8)<u64> and gauges seq(8)<f64>, each
//!          in `Key::ALL` order; histograms seq(24)<buckets seq(8)<u64>,
//!          sum, count u64>
//! fault    opt, present iff fault injection is on, of: fingerprint =
//!          healing tag u8 (0 Off, 1 SpareRows, 2 MajorityReread, 3 Full),
//!          spares, reads, retry_budget, base_backoff_ticks,
//!          backoff_factor u64, threshold f64, plan seed, rows, cols u64,
//!          stuck, dead-row, flip rates f64; spare pool base, capacity,
//!          cursor u64; remaps seq(16)<from, to u64>; shards seq(17)<tag
//!          u8 (0 Healthy, 1 Quarantined, 2 Dead), until_tick,
//!          retries_used u64 (zero unless quarantined)>; trips
//!          seq(8)<u64>; quarantined, requeued, dead u64
//! wear     per-block write counts seq(8)<u64>
//! trace    capacity, emitted, next_span, evicted u64; open spans,
//!          outermost first, seq(8)<u64>; events seq(65)<seq, tick, span,
//!          parent u64, `Event::wire` tag u8, a, b, c u64, name str>;
//!          alerts seq(42)<name str, signal tag u8 (0 counter, 1 delta,
//!          2 gauge), `Key::wire_id` u64, threshold, clear f64, latched
//!          u8, last f64>
//! ```
//!
//! # `snap.bytes`
//!
//! A checkpoint's `snap.bytes` gauge is the blob's own length, and the
//! blob carries the gauge. `StreamEngine::checkpoint_into` writes the
//! payload once, remembering where the gauge's word landed; the length
//! is then known, so it sets the gauge live and patches that word in
//! place before the checksum. A gauge is fixed-width, so the patch
//! cannot move the length, and no size pass is needed.

use crate::batcher::Batcher;
use crate::engine::{as_f64, as_u64, StreamConfig, StreamEngine};
use crate::error::StreamError;
use crate::fault::{FaultConfig, FaultState};
use crate::online::OnlineKMeans;
use crate::ring::BackpressurePolicy;
use dual_cluster::CentroidAccumulator;
use dual_fault::{
    FaultPlan, HealingPolicy, Quarantine, QuarantineConfig, QuarantineStats, ShardHealth,
    SpareRowPool,
};
use dual_hdc::{first_non_finite, BitVec, Encoder, Hypervector};
use dual_obs::{HistogramSnapshot, Key, Kind, Registry};
use dual_pim::{CostModel, EnergyStats, Op, StreamBatchCost, StreamMeter, WearLeveler};
use dual_snap::{Reader, SnapError, Writer};
use dual_trace::{
    AlertEngine, AlertRule, AlertRuleState, Event, EventRecord, Recorder, RecorderState, Signal,
    TraceError,
};
use std::collections::BTreeMap;

/// Fewest bytes one item of each payload sequence takes (see the
/// module docs): a `u64`, `f64` or empty sequence; a meter op; a spare
/// remap; a shard state; a histogram; an alert rule; a trace event.
const WORD: usize = 8;
const OP: usize = 1 + 4 + 8;
const REMAP: usize = 2 * 8;
const SHARD: usize = 1 + 2 * 8;
const HIST: usize = 3 * 8;
const ALERT: usize = 8 + 1 + 3 * 8 + 1 + 8;
const EVENT: usize = 4 * 8 + 1 + 3 * 8 + 8;

/// Wire tag of a [`BackpressurePolicy`] (read back in `read_config`).
fn policy_tag(p: BackpressurePolicy) -> u8 {
    match p {
        BackpressurePolicy::Block => 0,
        BackpressurePolicy::DropOldest => 1,
        BackpressurePolicy::Reject => 2,
    }
}

fn corrupt(reason: &'static str) -> StreamError {
    StreamError::Snapshot(SnapError::Corrupt { reason })
}

/// The fault config a restore checks the re-supplied one against: the
/// healing policy's tag, then the rest in wire order.
fn fingerprint(
    plan: &FaultPlan,
    policy: HealingPolicy,
    quarantine: QuarantineConfig,
    threshold: f64,
) -> (u8, [u64; 12]) {
    let tag = match policy {
        HealingPolicy::Off => 0,
        HealingPolicy::SpareRows { .. } => 1,
        HealingPolicy::MajorityReread { .. } => 2,
        HealingPolicy::Full { .. } => 3,
    };
    let spec = plan.spec();
    (
        tag,
        [
            as_u64(policy.spares()),
            u64::from(policy.reads()),
            u64::from(quarantine.retry_budget),
            quarantine.base_backoff_ticks,
            quarantine.backoff_factor,
            threshold.to_bits(),
            spec.seed,
            as_u64(spec.rows),
            as_u64(spec.cols),
            spec.stuck_rate.to_bits(),
            spec.dead_row_rate.to_bits(),
            spec.flip_rate.to_bits(),
        ],
    )
}

/// Flatten an [`Op`] to its wire `(tag, bits)` pair: the tag
/// [`tag_op`] maps back to it. `Op` is non_exhaustive; an unknown
/// variant writes an invalid tag, so a restore fails closed instead of
/// silently re-labeling the ledger.
fn op_tag(op: Op) -> (u8, u32) {
    let bits = match op {
        Op::Add { bits }
        | Op::Sub { bits }
        | Op::Mul { bits }
        | Op::Div { bits }
        | Op::Transfer { bits }
        | Op::Write { bits } => bits,
        _ => 0,
    };
    let tag = (0..=7).find(|&t| tag_op(t, bits).ok() == Some(op));
    (tag.unwrap_or(u8::MAX), bits)
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
        _ => return Err(corrupt("op tag")),
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

/// The metrics of one kind, in `Key::ALL` order (dense slot order per
/// kind, pinned by the obs key tests).
fn keys(kind: Kind) -> impl Iterator<Item = Key> {
    Key::ALL.into_iter().filter(move |k| k.kind() == kind)
}

/// Write the obs section; returns where the `snap.bytes` gauge's word
/// landed.
fn write_obs(w: &mut Writer<'_>, reg: &Registry) -> usize {
    w.u64(reg.now());
    w.count(keys(Kind::Counter).count());
    for key in keys(Kind::Counter) {
        w.u64(reg.counter(key));
    }
    let mut bytes_at = 0;
    w.count(keys(Kind::Gauge).count());
    for key in keys(Kind::Gauge) {
        if key == Key::SnapBytes {
            bytes_at = w.position();
        }
        w.f64(reg.gauge_value(key));
    }
    w.count(keys(Kind::Histogram).count());
    for key in keys(Kind::Histogram) {
        let h = reg.histogram(key);
        w.u64s(&h.buckets);
        w.u64(h.sum);
        w.u64(h.count);
    }
    bytes_at
}

/// Load the obs section into a fresh registry.
fn read_obs(r: &mut Reader<'_>, reg: &Registry) -> Result<(), StreamError> {
    let mismatch = || StreamError::RestoreMismatch {
        name: "obs",
        reason: "metric vocabulary size differs from this build",
    };
    // Each kind's count must be this build's, checked before its keys.
    let vocabulary = |r: &mut Reader<'_>, kind, min| match r.count(min)? {
        n if n == keys(kind).count() => Ok(keys(kind)),
        _ => Err(mismatch()),
    };
    let clock = r.u64()?;
    for key in vocabulary(r, Kind::Counter, WORD)? {
        let v = r.u64()?;
        if v > 0 {
            reg.add(key, v);
        }
    }
    for key in vocabulary(r, Kind::Gauge, WORD)? {
        reg.gauge(key, r.f64()?);
    }
    for key in vocabulary(r, Kind::Histogram, HIST)? {
        let mut snap = HistogramSnapshot::default();
        let buckets = r.u64s()?;
        if buckets.len() != snap.buckets.len() {
            return Err(mismatch());
        }
        snap.buckets.copy_from_slice(&buckets);
        snap.sum = r.u64()?;
        snap.count = r.u64()?;
        reg.restore_histogram(key, &snap);
    }
    reg.tick(clock);
    Ok(())
}

fn write_model(w: &mut Writer<'_>, model: &OnlineKMeans) {
    w.u64(model.batches_observed());
    w.count(model.centroids().len());
    for c in model.centroids() {
        w.u64s(c.bits().as_words());
    }
    // Borrowed: `checkpoint_into` settled every owed decay first.
    let accumulators = model.accumulators();
    w.count(accumulators.len());
    for a in accumulators.iter() {
        w.f64s(a.counts());
    }
    w.count(accumulators.len());
    for a in accumulators.iter() {
        w.f64(a.weight());
    }
}

fn read_model(
    r: &mut Reader<'_>,
    config: &StreamConfig,
    dim: usize,
) -> Result<OnlineKMeans, StreamError> {
    let batches_observed = r.u64()?;
    let words = dim.div_ceil(64);
    let n = r.count(WORD)?;
    let mut centroids = Vec::with_capacity(n);
    for _ in 0..n {
        let bits = r.u64s()?;
        if bits.len() != words {
            return Err(corrupt("hypervector word count"));
        }
        centroids.push(Hypervector::from_bitvec(BitVec::from_words(bits, dim)));
    }
    let n = r.count(WORD)?;
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(r.f64s()?);
    }
    let weights = r.f64s()?;
    if weights.len() != counts.len() {
        return Err(corrupt("accumulator count/weight length mismatch"));
    }
    let accumulators = counts
        .into_iter()
        .zip(weights)
        .map(|(c, w)| CentroidAccumulator::from_parts(c, w))
        .collect();
    OnlineKMeans::restore(
        dim,
        config.k,
        config.centroids_per_cluster,
        config.decay,
        centroids,
        accumulators,
        batches_observed,
    )
}

fn write_meter(w: &mut Writer<'_>, meter: &StreamMeter) {
    let total = meter.total();
    w.f64(total.time_ns());
    w.f64(total.energy_pj());
    w.count(total.counts().count());
    for (op, count) in total.counts() {
        let (tag, bits) = op_tag(op);
        w.u8(tag);
        w.u32(bits);
        w.u64(count);
    }
    w.u64(meter.batches());
    w.u64(meter.points());
    let last = meter.last_batch();
    w.present(last.is_some());
    if let Some(b) = last {
        w.u64(b.batch);
        w.u64(b.points);
        w.f64(b.time_ns);
        w.f64(b.energy_pj);
    }
}

/// Totals arrive bit-exact, op counts replay untimed.
fn read_meter(r: &mut Reader<'_>, cost: CostModel) -> Result<StreamMeter, StreamError> {
    let mut total = EnergyStats::new();
    let time_ns = r.f64()?;
    total.record_raw(time_ns, r.f64()?);
    for _ in 0..r.count(OP)? {
        let tag = r.u8()?;
        let bits = r.u32()?;
        total.record_untimed(tag_op(tag, bits)?, r.u64()?);
    }
    let batches = r.u64()?;
    let points = r.u64()?;
    let last = if r.present()? {
        Some(StreamBatchCost {
            batch: r.u64()?,
            points: r.u64()?,
            time_ns: r.f64()?,
            energy_pj: r.f64()?,
        })
    } else {
        None
    };
    Ok(StreamMeter::restore(cost, total, batches, points, last))
}

fn write_fault(w: &mut Writer<'_>, f: &FaultState) {
    let (tag, words) = fingerprint(&f.plan, f.policy, f.quarantine.config(), f.threshold);
    w.u8(tag);
    for x in words {
        w.u64(x);
    }
    w.u64(as_u64(f.pool.base()));
    w.u64(as_u64(f.pool.capacity()));
    w.u64(as_u64(f.pool.cursor()));
    w.count(f.pool.remaps().count());
    for (from, to) in f.pool.remaps() {
        w.u64(as_u64(from));
        w.u64(as_u64(to));
    }
    let health = f.quarantine.health_states();
    w.count(health.len());
    for &h in health {
        let (tag, until_tick, retries_used) = match h {
            ShardHealth::Healthy => (0, 0, 0),
            ShardHealth::Quarantined {
                until_tick,
                retries_used,
            } => (1, until_tick, u64::from(retries_used)),
            ShardHealth::Dead => (2, 0, 0),
        };
        w.u8(tag);
        w.u64(until_tick);
        w.u64(retries_used);
    }
    let trips = f.quarantine.trip_counts();
    w.count(trips.len());
    for &t in trips {
        w.u64(u64::from(t));
    }
    let stats = f.quarantine.stats();
    w.u64(stats.quarantined);
    w.u64(stats.requeued);
    w.u64(stats.dead);
}

fn read_shard(r: &mut Reader<'_>) -> Result<ShardHealth, StreamError> {
    let tag = r.u8()?;
    let until_tick = r.u64()?;
    let retries_used = r.u64()?;
    if tag != 1 && (until_tick != 0 || retries_used != 0) {
        return Err(corrupt("non-canonical shard state"));
    }
    Ok(match tag {
        0 => ShardHealth::Healthy,
        1 => ShardHealth::Quarantined {
            until_tick,
            retries_used: u32::try_from(retries_used)
                .map_err(|_| corrupt("shard retry overflow"))?,
        },
        2 => ShardHealth::Dead,
        _ => return Err(corrupt("shard health tag")),
    })
}

fn write_trace(w: &mut Writer<'_>, rec: &Recorder, alerts: &AlertEngine) {
    let s = rec.state();
    w.u64(s.capacity);
    w.u64(s.emitted);
    w.u64(s.next_span);
    w.u64(s.evicted);
    w.u64s(&s.open);
    w.count(s.events.len());
    for e in &s.events {
        w.u64(e.seq);
        w.u64(e.tick);
        w.u64(e.span);
        w.u64(e.parent);
        let (tag, a, b, c, name) = e.event.wire();
        w.u8(tag);
        w.u64(a);
        w.u64(b);
        w.u64(c);
        w.str(name);
    }
    w.count(alerts.rules().len());
    for (rule, st) in alerts.rules().iter().zip(alerts.states()) {
        w.str(&rule.name);
        let (signal, key) = rule.signal.wire();
        w.u8(signal);
        w.u64(u64::from(key.wire_id()));
        w.f64(rule.threshold);
        w.f64(rule.clear);
        w.u8(u8::from(st.latched));
        w.f64(st.last);
    }
}

/// Rebuild the recorder and alert engine, failing closed on unknown
/// event tags, unknown key wire ids, and any shape inconsistency the
/// trace crate's own validators reject.
fn read_trace(r: &mut Reader<'_>, capacity: u64) -> Result<(Recorder, AlertEngine), StreamError> {
    let trace_err = |e: TraceError| {
        let (TraceError::InvalidRule { reason, .. } | TraceError::RestoreShape { reason }) = e;
        corrupt(reason)
    };
    if r.u64()? != capacity {
        return Err(corrupt("trace capacity disagrees with the config"));
    }
    let emitted = r.u64()?;
    let next_span = r.u64()?;
    let evicted = r.u64()?;
    let open = r.u64s()?;
    let n = r.count(EVENT)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let (seq, tick, span, parent) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        let (tag, a, b, c) = (r.u8()?, r.u64()?, r.u64()?, r.u64()?);
        let event = Event::from_wire(tag, a, b, c, &r.string()?)
            .ok_or_else(|| corrupt("unknown trace event tag"))?;
        events.push(EventRecord {
            seq,
            tick,
            span,
            parent,
            event,
        });
    }
    let rec = Recorder::from_state(RecorderState {
        capacity,
        emitted,
        next_span,
        evicted,
        open,
        events,
    })
    .map_err(trace_err)?;
    let n = r.count(ALERT)?;
    let mut rules = Vec::with_capacity(n);
    let mut states = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.string()?;
        let signal_tag = r.u8()?;
        let key = u16::try_from(r.u64()?)
            .ok()
            .and_then(Key::from_wire_id)
            .ok_or_else(|| corrupt("unknown alert key wire id"))?;
        let signal =
            Signal::from_wire(signal_tag, key).ok_or_else(|| corrupt("alert signal tag"))?;
        let threshold = r.f64()?;
        let clear = r.f64()?;
        let latched = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(corrupt("alert latch flag")),
        };
        rules.push(AlertRule {
            name,
            signal,
            threshold,
            clear,
        });
        states.push(AlertRuleState {
            latched,
            last: r.f64()?,
        });
    }
    let alerts = AlertEngine::from_states(rules, states).map_err(trace_err)?;
    Ok((rec, alerts))
}

impl<E: Encoder + Sync> StreamEngine<E> {
    /// Capture the engine into a self-contained `dual-snap` blob.
    ///
    /// Best taken between batches (the engine's own periodic trigger
    /// fires at the end of a tick): the meter's open batch is empty
    /// there, which is the invariant the restore path rebuilds.
    ///
    /// Metric ordering keeps replay byte-stable: every `snap.*` metric
    /// is updated before the blob is finished, so the blob carries
    /// exactly the state a restored engine must resume with —
    /// `snap.bytes` included, which is the blob's own length (see the
    /// module docs).
    pub fn checkpoint(&mut self) -> Vec<u8> {
        // The last write-ahead blob's length is close to this one's, so
        // the buffer does not regrow from empty.
        let mut bytes = Vec::with_capacity(self.wal.as_ref().map_or(0, Vec::len));
        self.checkpoint_into(&mut bytes);
        bytes
    }

    /// [`StreamEngine::checkpoint`] into a caller-owned buffer, which
    /// ends up holding exactly the blob (cleared first, allocation
    /// reused), so the periodic write-ahead capture — a blob of nearly
    /// the same size every tick — allocates no wire buffer at all once
    /// the first one has grown.
    pub(crate) fn checkpoint_into(&mut self, out: &mut Vec<u8>) {
        self.obs.add(Key::SnapCaptured, 1);
        self.obs
            .gauge(Key::SnapLastTick, as_f64(self.batcher.now()));
        // The capture event is recorded BEFORE writing so the blob
        // itself retains it — a restored run replays with the exact
        // event history of the uninterrupted one. (It deliberately
        // carries no size payload: that would make the blob length
        // depend on itself; `snap.bytes` has the size.)
        self.trace.emit(
            self.batcher.now(),
            Event::SnapCapture {
                tick: self.batcher.now(),
            },
        );
        // Pay every owed decay in place, so the model section borrows
        // the accumulators instead of settling a copy.
        self.model.settle();
        let mut w = Writer::snapshot(out);
        let bytes_at = self.write_payload(&mut w);
        let bytes = as_f64(as_u64(w.blob_len()));
        self.obs.gauge(Key::SnapBytes, bytes);
        w.patch_u64(bytes_at, bytes.to_bits());
        w.finish();
    }

    /// Write every section in payload order; returns where the
    /// `snap.bytes` gauge's word landed.
    fn write_payload(&self, w: &mut Writer<'_>) -> usize {
        let c = &self.config;
        w.u64(as_u64(self.encoder.dim()));
        w.u64(as_u64(self.encoder.n_features()));
        w.u64(as_u64(c.capacity));
        w.u8(policy_tag(c.policy));
        w.u64(as_u64(c.max_batch));
        w.u64(c.max_ticks);
        w.u64(as_u64(c.k));
        w.u64(as_u64(c.centroids_per_cluster));
        w.f64(c.decay);
        w.u64(as_u64(c.shards));
        w.u64(as_u64(c.threads));
        w.u64(c.snapshot_every);
        w.u64(as_u64(c.trace_capacity));
        w.u64(self.batcher.now());
        w.u64(self.batcher.last_cut());
        w.count(self.ring.len());
        for p in self.ring.iter() {
            w.f64s(p);
        }
        write_model(w, &self.model);
        write_meter(w, &self.meter);
        let bytes_at = write_obs(w, &self.obs);
        w.present(self.fault.is_some());
        if let Some(f) = &self.fault {
            write_fault(w, f);
        }
        w.u64s(self.wear.writes());
        write_trace(w, &self.trace, &self.alerts);
        bytes_at
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
        let mut r = Reader::snapshot(bytes)?;
        let config = read_config(&mut r, &encoder)?;
        let mut engine = Self::with_cost_model(encoder, config, cost)?;

        // Batcher cursors.
        let now = r.u64()?;
        let last_cut = r.u64()?;
        if last_cut > now {
            return Err(corrupt("batcher cut cursor after the clock"));
        }
        engine.batcher = Batcher::restore(
            engine.config.max_batch,
            engine.config.max_ticks,
            now,
            last_cut,
        );

        // Ring: re-enqueue the buffered points in FIFO order.
        let n_features = engine.encoder.n_features();
        for _ in 0..r.count(WORD)? {
            let feats = r.f64s()?;
            if feats.len() != n_features {
                return Err(StreamError::RestoreMismatch {
                    name: "pending",
                    reason: "buffered point feature count differs from the encoder",
                });
            }
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

        engine.model = read_model(&mut r, &engine.config, engine.encoder.dim())?;
        engine.meter = read_meter(&mut r, cost)?;
        read_obs(&mut r, &engine.obs)?;
        engine = engine.read_fault(&mut r, fault)?;

        // Endurance wear counts.
        let wear = r.u64s()?;
        if wear.len() != engine.wear.writes().len() {
            return Err(StreamError::RestoreMismatch {
                name: "wear",
                reason: "wear-leveler block count differs from the encoder geometry",
            });
        }
        engine.wear = WearLeveler::restore(wear);

        // Flight recorder + alert rules: the full ring (and any open
        // spans) resumes from the blob, so the replayed event history
        // is byte-identical to the uninterrupted run's. The restore
        // marker itself is a volatile note — visible in a Chrome
        // export, never in the replayable ring.
        (engine.trace, engine.alerts) = read_trace(&mut r, as_u64(engine.config.trace_capacity))?;
        r.finish()?;
        engine.trace.note(now, Event::SnapRestore { tick: now });
        engine.obs.add(Key::SnapRestored, 1);
        Ok(engine)
    }

    /// Read the fault section: the config is re-supplied, the live
    /// machine state comes from the blob.
    fn read_fault(
        mut self,
        r: &mut Reader<'_>,
        fault: Option<FaultConfig>,
    ) -> Result<Self, StreamError> {
        let mismatch = |reason| StreamError::RestoreMismatch {
            name: "fault",
            reason,
        };
        let cfg = match (r.present()?, fault) {
            (false, None) => return Ok(self),
            (false, Some(_)) => {
                return Err(mismatch(
                    "snapshot carries no fault state but a fault config was supplied",
                ))
            }
            (true, None) => {
                return Err(mismatch(
                    "snapshot carries fault state; re-supply the fault config",
                ))
            }
            (true, Some(cfg)) => cfg,
        };
        let mut words = [0; 12];
        let tag = r.u8()?;
        for x in &mut words {
            *x = r.u64()?;
        }
        if (tag, words)
            != fingerprint(
                &cfg.plan,
                cfg.policy,
                cfg.quarantine,
                cfg.quarantine_threshold,
            )
        {
            return Err(mismatch(
                "fault configuration fingerprint differs from the snapshot",
            ));
        }
        let base = to_usize(r.u64()?, "fault.pool")?;
        let total = to_usize(r.u64()?, "fault.pool")?;
        let next = to_usize(r.u64()?, "fault.pool")?;
        let mut map = BTreeMap::new();
        for _ in 0..r.count(REMAP)? {
            let from = to_usize(r.u64()?, "fault.pool")?;
            map.insert(from, to_usize(r.u64()?, "fault.pool")?);
        }
        let n = r.count(SHARD)?;
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(read_shard(r)?);
        }
        let n = r.count(WORD)?;
        let mut trips = Vec::with_capacity(n);
        for _ in 0..n {
            trips.push(u32::try_from(r.u64()?).map_err(|_| corrupt("shard trip overflow"))?);
        }
        let stats = QuarantineStats {
            quarantined: r.u64()?,
            requeued: r.u64()?,
            dead: r.u64()?,
        };
        // Checked before arming, which allocates one quarantine state
        // per shard and one mask per plan row it uses.
        if shards.len() != self.config.shards || trips.len() != self.config.shards {
            return Err(mismatch("shard population differs from the snapshot"));
        }
        if self.model.slots() > cfg.plan.rows() {
            return Err(mismatch("plan rows cannot hold the snapshot's slots"));
        }
        self = self.with_fault_injection(cfg)?;
        let Some(live) = self.fault.as_mut() else {
            return Err(mismatch("fault injection failed to arm"));
        };
        if base != live.pool.base() || total != live.pool.capacity() || next > total {
            return Err(mismatch("spare pool geometry differs from the snapshot"));
        }
        // A remap points a slot row at a spare the cursor handed out;
        // sensing indexes the plan's rows by both.
        if map
            .iter()
            .any(|(&from, &to)| from >= base || !(base..base + next).contains(&to))
        {
            return Err(corrupt("spare remap outside the pool"));
        }
        live.pool = SpareRowPool::restore(base, total, next, map);
        live.quarantine = Quarantine::restore(live.quarantine.config(), shards, trips, stats);
        Ok(self)
    }
}

/// Read the config section, check the encoder against the recorded
/// geometry, and rebuild the [`StreamConfig`], failing closed on
/// unknown tags or out-of-range values.
fn read_config<E: Encoder>(r: &mut Reader<'_>, encoder: &E) -> Result<StreamConfig, StreamError> {
    if r.u64()? != as_u64(encoder.dim()) {
        return Err(StreamError::RestoreMismatch {
            name: "encoder",
            reason: "dimensionality differs from the snapshot",
        });
    }
    if r.u64()? != as_u64(encoder.n_features()) {
        return Err(StreamError::RestoreMismatch {
            name: "encoder",
            reason: "feature count differs from the snapshot",
        });
    }
    let capacity = to_usize(r.u64()?, "config.capacity")?;
    let policy = match r.u8()? {
        0 => BackpressurePolicy::Block,
        1 => BackpressurePolicy::DropOldest,
        2 => BackpressurePolicy::Reject,
        _ => return Err(corrupt("backpressure policy tag")),
    };
    let config = StreamConfig {
        capacity,
        policy,
        max_batch: to_usize(r.u64()?, "config.max_batch")?,
        max_ticks: r.u64()?,
        k: to_usize(r.u64()?, "config.k")?,
        centroids_per_cluster: to_usize(r.u64()?, "config.centroids_per_cluster")?,
        decay: r.f64()?,
        shards: to_usize(r.u64()?, "config.shards")?,
        threads: to_usize(r.u64()?, "config.threads")?,
        snapshot_every: r.u64()?,
        trace_capacity: to_usize(r.u64()?, "config.trace_capacity")?,
    };
    config.validate()?;
    if config.k.checked_mul(config.centroids_per_cluster).is_none() {
        return Err(corrupt("slot count overflows"));
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dual_hdc::HdMapper;
    use std::borrow::Cow;

    /// Where the config fields these tests overwrite sit in a blob: the
    /// payload starts after the 16-byte frame header (module docs).
    const CAPACITY_AT: usize = 32;
    const CENTROIDS_PER_CLUSTER_AT: usize = 65;
    const SHARDS_AT: usize = 81;
    /// The pending section's count; the first point follows it.
    const PENDING_AT: usize = 129;

    /// `blob` with `bytes` written at `at` and the checksum re-stamped,
    /// so the restore's own validation is what meets the edit.
    fn patched(blob: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
        let mut out = blob.to_vec();
        out[at..at + bytes.len()].copy_from_slice(bytes);
        let body_end = out.len() - 8;
        let sum = dual_snap::fnv1a64(&out[..body_end]);
        out[body_end..].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// The one offset in `blob` where `words` appear, little-endian.
    fn locate(blob: &[u8], words: &[u64]) -> usize {
        let pattern: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let hits: Vec<usize> = blob
            .windows(pattern.len())
            .enumerate()
            .filter(|(_, w)| *w == pattern)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits.len(), 1, "{words:?} must occur exactly once");
        hits[0]
    }

    /// The `u64` at `at` in `blob`.
    fn word_at(blob: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(blob[at..at + 8].try_into().unwrap())
    }

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

    fn golden_mapper() -> HdMapper {
        HdMapper::builder(70, 3).seed(5).sigma(4.0).build().unwrap()
    }

    /// Eight plan rows at D = 70 (six slots, two spares) with enough
    /// dead rows that the spare pool is used.
    fn golden_fault() -> FaultConfig {
        let mut spec = dual_fault::FaultPlanSpec::clean(6 + 2, 70);
        spec.seed = 0x60_1D;
        spec.stuck_rate = 0.02;
        spec.dead_row_rate = 0.1;
        spec.flip_rate = 0.01;
        FaultConfig::new(dual_fault::FaultPlan::new(spec).unwrap()).with_policy(
            HealingPolicy::Full {
                spares: 2,
                reads: 3,
            },
        )
    }

    /// The engine behind `results/snap_golden_v2_engine.bin`: fault
    /// injection under full healing, a wrapped flight recorder, two
    /// alert rules (one latched), owed decays and buffered points, so
    /// every payload section and the fault branch are non-empty.
    fn golden_engine() -> StreamEngine<HdMapper> {
        let mut cfg = StreamConfig::new(3);
        cfg.centroids_per_cluster = 2;
        cfg.capacity = 32;
        cfg.max_batch = 6;
        cfg.max_ticks = 3;
        cfg.decay = 0.9;
        cfg.shards = 2;
        cfg.threads = 1;
        cfg.trace_capacity = 24;
        let rules = vec![
            dual_trace::AlertRule {
                name: "ingest-volume".to_owned(),
                signal: dual_trace::Signal::Counter(Key::StreamIngested),
                threshold: 20.0,
                clear: 0.0,
            },
            dual_trace::AlertRule::edge(
                "quarantine-spike",
                dual_trace::Signal::Delta(Key::FaultQuarantined),
                1.0,
            ),
        ];
        let mut e = StreamEngine::new(golden_mapper(), cfg)
            .unwrap()
            .with_fault_injection(golden_fault())
            .unwrap()
            .with_alerts(rules)
            .unwrap();
        for i in 0..47 {
            let x = i as f64;
            e.push(&[
                (x * 0.37).sin() * 3.0,
                (x * 0.11).cos() * 3.0,
                (x * 0.05).sin(),
            ])
            .unwrap();
            if i % 4 == 3 {
                e.tick().unwrap();
            }
        }
        e
    }

    /// Byte-stability pin for the DSNP v2 payload on a real engine:
    /// the checkpoint of [`golden_engine`] must never drift within a
    /// version. Regenerate (only for a NEW version) with
    /// `DUAL_SNAP_WRITE_GOLDEN=1 cargo test -p dual-stream golden`.
    #[test]
    fn engine_golden_bytes_are_pinned() {
        let mut e = golden_engine();
        assert!(e.pending() > 0 && e.trace().evicted() > 0);
        assert!(e.alerts().latched() > 0);
        assert!(e.fault_status().is_some_and(|s| s.injected > 0));
        let bytes = e.checkpoint();
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/snap_golden_v2_engine.bin"
        );
        if std::env::var_os("DUAL_SNAP_WRITE_GOLDEN").is_some() {
            std::fs::write(path, &bytes).unwrap();
        }
        let golden = include_bytes!("../../../results/snap_golden_v2_engine.bin");
        assert_eq!(
            bytes,
            golden.to_vec(),
            "snapshot payload drifted within version 2"
        );
    }

    /// `results/snap_golden_v2.bin` is a synthetic v2 sample written
    /// by an older codec: a valid frame whose sections no engine can
    /// rebuild. Restoring it fails with a typed error, never a panic.
    #[test]
    fn synthetic_v2_golden_restores_to_a_typed_error() {
        let golden = include_bytes!("../../../results/snap_golden_v2.bin");
        let mapper = HdMapper::new(128, 4, 7).unwrap();
        assert!(matches!(
            StreamEngine::restore(mapper, golden),
            Err(StreamError::RestoreMismatch {
                name: "pending",
                ..
            })
        ));
    }

    /// The per-item minimums behind every count check: the sizes the
    /// v2 decoder has always refused counts against, so its
    /// `Truncated { needed, got }` errors keep their values.
    #[test]
    fn element_minimums_are_the_v2_count_checks() {
        assert_eq!(
            [WORD, OP, REMAP, SHARD, HIST, ALERT, EVENT],
            [8, 13, 16, 17, 24, 42, 65]
        );
        // A pending count past what the payload holds names the bytes
        // eight per point would need.
        let mut e = engine(3);
        drive(&mut e, 0..12);
        let blob = e.checkpoint();
        assert_eq!(word_at(&blob, PENDING_AT), as_u64(e.pending()));
        let bad = patched(&blob, PENDING_AT, &(1u64 << 40).to_le_bytes());
        let got = blob.len() - 8 - PENDING_AT - 8;
        assert!(matches!(
            StreamEngine::restore(HdMapper::new(64, 2, 7).unwrap(), &bad),
            Err(StreamError::Snapshot(SnapError::Truncated { needed, got: g }))
                if needed == 8 << 40 && g == got
        ));
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
        assert!(matches!(e.model.accumulators(), Cow::Owned(_)));
        let mut settled = e.clone();
        settled.model.settle();
        assert!(matches!(settled.model.accumulators(), Cow::Borrowed(_)));
        let lazy = e.checkpoint();
        assert_eq!(lazy, settled.checkpoint());
        assert!(matches!(e.model.accumulators(), Cow::Borrowed(_)));
    }

    #[test]
    fn checkpoint_restore_replay_matches_uninterrupted() {
        let mut gold = engine(3);
        drive(&mut gold, 0..60);

        let mut crashed = engine(3);
        drive(&mut crashed, 0..30);
        let blob = crashed.wal().expect("periodic capture fired").to_vec();
        drop(crashed);

        let mapper = HdMapper::new(64, 2, 7).unwrap();
        let mut resumed = StreamEngine::restore(mapper, &blob).unwrap();
        // Killed after tick 6; the last capture was tick 4.
        let restored_at = resumed.now();
        assert_eq!(restored_at, 4);
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
        let blob = e.checkpoint();
        let s = e.trace().state();
        let mapper = || HdMapper::new(64, 2, 7).unwrap();

        let at = locate(&blob, &[s.capacity, s.emitted, s.next_span, s.evicted]);
        let bad = patched(&blob, at + 8, &(s.emitted + 1).to_le_bytes());
        assert!(
            matches!(
                StreamEngine::restore(mapper(), &bad),
                Err(StreamError::Snapshot(SnapError::Corrupt { .. }))
            ),
            "ring accounting mismatch must be rejected"
        );

        let first = &s.events[0];
        let at = locate(&blob, &[first.seq, first.tick, first.span, first.parent]);
        let bad = patched(&blob, at + 32, &[200]);
        assert!(matches!(
            StreamEngine::restore(mapper(), &bad),
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
        let mapper = || HdMapper::new(64, 2, 7).unwrap();
        let clean = e.checkpoint();
        assert!(StreamEngine::restore(mapper(), &clean).is_ok());
        // The second point's first feature: past the section count, the
        // first point (a count and two features) and its own count.
        let at = PENDING_AT + 8 + 3 * 8 + 8;
        let second = e.ring.iter().nth(1).unwrap();
        assert_eq!(word_at(&clean, at), second[0].to_bits());
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = patched(&clean, at, &x.to_bits().to_le_bytes());
            assert!(matches!(
                StreamEngine::restore(mapper(), &bad),
                Err(StreamError::RestoreMismatch {
                    name: "pending",
                    ..
                })
            ));
        }
    }

    /// A ring allocates only what it holds, so a declared capacity of
    /// 2^40 or `u64::MAX` restores and ticks. Counts that would size
    /// something fail typed before they do: an overflowing slot count,
    /// a shard count or slot count the fault plan cannot arm.
    #[test]
    fn restore_refuses_counts_it_cannot_build() {
        let mut e = engine(3);
        drive(&mut e, 0..12);
        let clean = e.checkpoint();
        let restore = |blob: &[u8], fault: Option<FaultConfig>| {
            let mapper = HdMapper::new(64, 2, 7).unwrap();
            StreamEngine::restore_with(mapper, blob, CostModel::paper(), fault)
        };
        assert_eq!(word_at(&clean, CAPACITY_AT), 1024);
        for capacity in [1u64 << 40, u64::MAX] {
            let blob = patched(&clean, CAPACITY_AT, &capacity.to_le_bytes());
            let mut restored = restore(&blob, None).unwrap();
            assert_eq!(restored.config().capacity, to_usize(capacity, "").unwrap());
            drive(&mut restored, 12..20);
            restored.drain().unwrap();
            assert_eq!(restored.pending(), 0);
        }
        let blob = patched(&clean, CENTROIDS_PER_CLUSTER_AT, &u64::MAX.to_le_bytes());
        assert!(matches!(
            restore(&blob, None),
            Err(StreamError::Snapshot(SnapError::Corrupt { .. }))
        ));

        let plan = || dual_fault::FaultPlan::fault_free(8, 64);
        let mut faulted = engine(3)
            .with_fault_injection(FaultConfig::new(plan()))
            .unwrap();
        drive(&mut faulted, 0..12);
        let clean = faulted.checkpoint();
        assert!(restore(&clean, Some(FaultConfig::new(plan()))).is_ok());
        assert_eq!(word_at(&clean, SHARDS_AT), 4);
        assert_eq!(word_at(&clean, CENTROIDS_PER_CLUSTER_AT), 1);
        let many_shards = patched(&clean, SHARDS_AT, &u64::MAX.to_le_bytes());
        let many_slots = patched(
            &clean,
            CENTROIDS_PER_CLUSTER_AT,
            &(1u64 << 40).to_le_bytes(),
        );
        for blob in [many_shards, many_slots] {
            assert!(matches!(
                restore(&blob, Some(FaultConfig::new(plan()))),
                Err(StreamError::RestoreMismatch { name: "fault", .. })
            ));
        }
    }

    /// Sensing indexes the plan's rows by a remap's slot and spare, so
    /// a remap pointing outside the pool's handed-out spares fails
    /// typed at restore instead of at the next sense pass.
    #[test]
    fn restore_refuses_a_remap_outside_the_pool() {
        let mut e = golden_engine();
        let blob = e.checkpoint();
        let pool = &e.fault.as_ref().unwrap().pool;
        let (base, total, next) = (pool.base(), pool.capacity(), pool.cursor());
        let (from, to) = pool.remaps().next().expect("a dead row was remapped");
        let words = [base, total, next, pool.used(), from, to].map(as_u64);
        let at = locate(&blob, &words) + 5 * 8;
        let restore = |blob: &[u8]| {
            StreamEngine::restore_with(
                golden_mapper(),
                blob,
                CostModel::paper(),
                Some(golden_fault()),
            )
        };
        assert!(restore(&blob).is_ok());
        for bad_to in [base - 1, base + next, base + total + 5] {
            let bad = patched(&blob, at, &as_u64(bad_to).to_le_bytes());
            assert!(matches!(
                restore(&bad),
                Err(StreamError::Snapshot(SnapError::Corrupt {
                    reason: "spare remap outside the pool"
                }))
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
        let clean = e.checkpoint();
        let centroids = e.model().centroids().to_vec();
        assert!(!centroids.is_empty());
        // Each seeded slot's words, behind their count of two.
        let at: Vec<usize> = centroids
            .iter()
            .map(|c| locate(&clean, &[&[2u64][..], c.bits().as_words()].concat()))
            .collect();

        let short = patched(&clean, at[0], &1u64.to_le_bytes());
        assert!(matches!(
            StreamEngine::restore(mapper(), &short),
            Err(StreamError::Snapshot(SnapError::Corrupt {
                reason: "hypervector word count"
            }))
        ));

        let mut dirty = clean.clone();
        for (&at, c) in at.iter().zip(&centroids) {
            let tail = c.bits().as_words()[1] | u64::MAX << 6;
            dirty = patched(&dirty, at + 16, &tail.to_le_bytes());
        }
        assert_ne!(dirty, clean);
        let mut from_clean = StreamEngine::restore(mapper(), &clean).unwrap();
        let mut from_dirty = StreamEngine::restore(mapper(), &dirty).unwrap();
        assert_eq!(from_dirty.model().centroids(), &centroids[..]);
        assert_eq!(from_dirty.checkpoint(), from_clean.checkpoint());
    }

    #[test]
    fn periodic_wal_tracks_the_tick_schedule() {
        let mut e = engine(2);
        assert!(e.wal().is_none());
        drive(&mut e, 0..30);
        let blob = e.wal().expect("snapshot_every = 4 fired").to_vec();
        let restored = StreamEngine::restore(HdMapper::new(64, 2, 7).unwrap(), &blob).unwrap();
        assert_eq!(restored.now() % 4, 0, "captures land on the interval");
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
            let restored = StreamEngine::restore(HdMapper::new(64, 2, 7).unwrap(), wal).unwrap();
            assert_eq!(restored.now(), e.now());
            lens.push(wal.len());
        }
        // The trace ring filling grows the blob; a drained burst shrinks
        // it — a reused buffer that was not truncated would carry
        // trailing bytes, which the frame check rejects.
        assert!(lens.windows(2).any(|w| w[1] > w[0]), "{lens:?}");
        assert!(lens.windows(2).any(|w| w[1] < w[0]), "{lens:?}");
    }

    /// The tick-end WAL of a faulted, traced tenant of the topology
    /// benchmark's shape (D = 1024, 16 features, 8 clusters × 4 slots,
    /// a 128-point ring, a 256-event trace ring, stuck cells, dead rows
    /// and flips under full healing), captured every tick for 50 ticks.
    /// Each blob equals a fresh checkpoint of the same state, and its
    /// `snap.bytes` gauge — live, and in the engine restored from it —
    /// is its length. Eight points a tick over 32 slots leave slots
    /// owing lazy decays at captures, which the capture settles first.
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
        let mut e = StreamEngine::new(mapper.clone(), cfg)
            .unwrap()
            .with_fault_injection(fault.clone())
            .unwrap();
        let mut owing = 0;
        for tick in 0..50 {
            for i in tick * 8..tick * 8 + 8 {
                let p: Vec<f64> = (0..16)
                    .map(|j| ((i * 16 + j) as f64 * 0.13).sin())
                    .collect();
                e.push(&p).unwrap();
            }
            // The reference: the same tick run without its capture,
            // which also says whether the capture meets owed decays.
            let mut twin = e.clone();
            twin.config.snapshot_every = 0;
            twin.tick().unwrap();
            owing += usize::from(matches!(twin.model.accumulators(), Cow::Owned(_)));
            twin.config.snapshot_every = 1;
            let fresh = twin.checkpoint();
            e.tick().unwrap();
            let blob = e.wal().expect("captured every tick");
            assert_eq!(blob, &fresh[..], "tick {tick}");
            let len = as_f64(as_u64(blob.len()));
            assert_eq!(
                e.obs_registry().gauge_value(Key::SnapBytes),
                len,
                "tick {tick}"
            );
            let restored = StreamEngine::restore_with(
                mapper.clone(),
                blob,
                CostModel::paper(),
                Some(fault.clone()),
            )
            .unwrap();
            let gauge = restored.obs_registry().gauge_value(Key::SnapBytes);
            assert_eq!(gauge, len, "tick {tick}");
        }
        assert!(owing > 0, "no capture met owed decays");
        let status = e.fault_status().unwrap();
        assert!(status.injected > 0 && status.healed > 0, "{status:?}");
    }
}
