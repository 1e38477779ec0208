//! Driving one `StreamEngine` or a `Topology` through the public API:
//! set-up, the closed-loop push/tick driver with commit-latency
//! stamping, output checks, and the layer-by-layer shadow pipeline.

use crate::gen::Labelled;
use crate::span::Tracer;
use crate::spec::{
    EngineSpec, TopoSpec, DEAD_ROW_RATE, ENCODER_SEED, FLIP_RATE, REREADS, SPARES, STUCK_RATE,
    TENANTS,
};
use crate::Res;
use dual_fault::{FaultPlan, FaultPlanSpec, HealingPolicy};
use dual_hdc::{search, Encoder, HdMapper, Hypervector};
use dual_obs::{Key, OpFamily, Registry, Stage};
use dual_pim::{CostModel, Op, StreamMeter};
use dual_stream::{
    BackpressurePolicy, Batcher, FaultConfig, OnlineKMeans, Ring, StreamConfig, StreamEngine,
};
use dual_topology::{QuotaSpec, TenantSpec, Topology};
use dual_trace::{Cut, Event, Recorder};
use std::hint::black_box;
use std::time::Instant;

/// FNV-1a-64, the digest the product's own snapshot format uses.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold one word in, little-endian.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Fold every packed word of every centroid in, in slot order.
    pub fn centroids(&mut self, centroids: &[Hypervector]) {
        for c in centroids {
            for &w in c.bits().as_words() {
                self.word(w);
            }
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------- set-up

/// Build the workload's HD-Mapper.
///
/// # Errors
///
/// Propagates the product's parameter validation.
pub fn build_mapper(spec: &EngineSpec) -> Res<HdMapper> {
    Ok(HdMapper::builder(spec.dim, spec.features)
        .seed(ENCODER_SEED)
        .sigma(spec.sigma)
        .build()?)
}

fn stream_config(spec: &EngineSpec) -> StreamConfig {
    let mut cfg = StreamConfig::new(spec.k);
    cfg.centroids_per_cluster = spec.subs;
    cfg.max_batch = spec.max_batch;
    cfg.capacity = spec.capacity;
    cfg.decay = spec.decay;
    cfg.policy = BackpressurePolicy::Block;
    // Closed loop, one client: every end-to-end run pins one worker
    // thread whatever DUAL_THREADS says (see README.md, "Load model").
    cfg.threads = 1;
    cfg.snapshot_every = spec.snapshot_every;
    cfg.trace_capacity = spec.trace_capacity;
    cfg
}

/// Encode the labelled exemplars into warm-start centroids, slot order.
///
/// # Errors
///
/// Propagates encode errors.
pub fn encode_all(mapper: &HdMapper, points: &[Vec<f64>]) -> Res<Vec<Hypervector>> {
    let mut out = Vec::with_capacity(points.len());
    for p in points {
        out.push(mapper.encode(p)?);
    }
    Ok(out)
}

/// A single warm-started engine.
///
/// # Errors
///
/// Propagates product construction errors.
pub fn build_engine(spec: &EngineSpec, exemplars: &Labelled) -> Res<StreamEngine<HdMapper>> {
    let mapper = build_mapper(spec)?;
    let seeds = encode_all(&mapper, &exemplars.points)?;
    let mut engine = StreamEngine::new(mapper, stream_config(spec))?;
    engine.seed_centroids(&seeds)?;
    Ok(engine)
}

/// The fault stack of one `topo_resilient` tenant. The plan seed is
/// product configuration (like the encoder seed), offset per tenant so
/// tenants do not share a fault map.
///
/// # Errors
///
/// Propagates fault-plan validation.
pub fn fault_config(spec: &EngineSpec, lane: usize) -> Res<FaultConfig> {
    let plan = FaultPlan::new(FaultPlanSpec {
        seed: ENCODER_SEED ^ (lane as u64 + 1),
        stuck_rate: STUCK_RATE,
        dead_row_rate: DEAD_ROW_RATE,
        flip_rate: FLIP_RATE,
        ..FaultPlanSpec::clean(spec.slots() + SPARES, spec.dim)
    })?;
    Ok(FaultConfig::new(plan).with_policy(HealingPolicy::Full {
        spares: SPARES,
        reads: REREADS,
    }))
}

/// The three-tenant topology, every tenant warm-started from its own
/// exemplars.
///
/// # Errors
///
/// Propagates product construction errors.
pub fn build_topology(spec: &TopoSpec, exemplars: &[&Labelled]) -> Res<Topology<HdMapper>> {
    let mut topo = Topology::new();
    for (lane, (name, ex)) in TENANTS.iter().zip(exemplars).enumerate() {
        let mut tenant = TenantSpec::new(*name, stream_config(&spec.engine));
        if lane == 1 && spec.t1_quota_pj_per_tick > 0.0 {
            tenant = tenant.with_quota(
                QuotaSpec::per_tick(spec.t1_quota_pj_per_tick)
                    .with_escalation(BackpressurePolicy::Block),
            );
        }
        let mapper = build_mapper(&spec.engine)?;
        let seeds = encode_all(&mapper, &ex.points)?;
        let fault = if spec.faults {
            Some(fault_config(&spec.engine, lane)?)
        } else {
            None
        };
        topo.add_tenant_with(tenant, mapper, CostModel::paper(), fault)?;
        topo.engine_mut(name)?.seed_centroids(&seeds)?;
    }
    Ok(topo)
}

// ------------------------------------------------------------- the driver

/// What the driver needs from a system under test: one engine is a
/// one-lane system, the topology has a lane per tenant.
pub trait System {
    /// Span names of the three driver calls.
    const PUSH: &'static str;
    /// See [`System::PUSH`].
    const TICK: &'static str;
    /// See [`System::PUSH`].
    const DRAIN: &'static str;

    /// Number of independent input lanes.
    fn lanes(&self) -> usize;
    /// Offer one point to `lane`; `false` when the call returned `Err`.
    fn push(&mut self, lane: usize, point: &[f64]) -> bool;
    /// One scheduling point; `false` when the call returned `Err`.
    fn tick(&mut self) -> bool;
    /// Flush everything buffered; `false` when the call returned `Err`.
    fn drain(&mut self) -> bool;
    /// The engine behind `lane`.
    fn engine(&self, lane: usize) -> &StreamEngine<HdMapper>;
    /// Service-level state that must also repeat (folded into the digest).
    fn service_state(&self) -> String {
        String::new()
    }
    /// Capture lane 0 into a snapshot blob.
    fn checkpoint(&mut self) -> Vec<u8>;
    /// Replace lane 0 by the engine `blob` describes; `false` on `Err`.
    fn restore(&mut self, mapper: HdMapper, blob: &[u8], fault: Option<FaultConfig>) -> bool;
}

impl System for StreamEngine<HdMapper> {
    const PUSH: &'static str = "stream.push";
    const TICK: &'static str = "stream.tick";
    const DRAIN: &'static str = "stream.drain";

    fn lanes(&self) -> usize {
        1
    }
    fn push(&mut self, _lane: usize, point: &[f64]) -> bool {
        StreamEngine::push(self, point).is_ok()
    }
    fn tick(&mut self) -> bool {
        StreamEngine::tick(self).is_ok()
    }
    fn drain(&mut self) -> bool {
        StreamEngine::drain(self).is_ok()
    }
    fn engine(&self, _lane: usize) -> &StreamEngine<HdMapper> {
        self
    }
    fn checkpoint(&mut self) -> Vec<u8> {
        StreamEngine::checkpoint(self)
    }
    fn restore(&mut self, mapper: HdMapper, blob: &[u8], fault: Option<FaultConfig>) -> bool {
        match StreamEngine::restore_with(mapper, blob, CostModel::paper(), fault) {
            Ok(engine) => {
                *self = engine;
                true
            }
            Err(_) => false,
        }
    }
}

impl System for Topology<HdMapper> {
    const PUSH: &'static str = "topology.push";
    const TICK: &'static str = "topology.tick";
    const DRAIN: &'static str = "topology.drain";

    fn lanes(&self) -> usize {
        TENANTS.len()
    }
    fn push(&mut self, lane: usize, point: &[f64]) -> bool {
        Topology::push(self, TENANTS[lane], point).is_ok()
    }
    fn tick(&mut self) -> bool {
        Topology::tick(self).is_ok()
    }
    fn drain(&mut self) -> bool {
        self.drain_all().is_ok()
    }
    fn engine(&self, lane: usize) -> &StreamEngine<HdMapper> {
        Topology::engine(self, TENANTS[lane]).expect("tenants are registered at build")
    }
    fn service_state(&self) -> String {
        self.stable_json()
    }
    fn checkpoint(&mut self) -> Vec<u8> {
        Topology::checkpoint(self, TENANTS[0]).expect("tenants are registered at build")
    }
    fn restore(&mut self, mapper: HdMapper, blob: &[u8], fault: Option<FaultConfig>) -> bool {
        self.reload_with(TENANTS[0], mapper, blob, CostModel::paper(), fault)
            .is_ok()
    }
}

/// Timings of one closed-loop pass.
#[derive(Debug, Clone, Default)]
pub struct Drive {
    /// Wall time of the push/tick loop plus the final drain.
    pub wall_ns: u64,
    /// Points offered (push calls).
    pub offered: u64,
    /// Driver calls that returned `Err`.
    pub errors: u64,
    /// Per lane, per point: entry of its `push` to the return of the call
    /// after which its engine's `meter().points()` covers it, milliseconds.
    pub latencies_ms: Vec<Vec<f64>>,
}

/// Offer `lanes[l][r]` round-robin over lanes for every round `r`,
/// `tick` after every `rounds_per_tick` rounds, then drain. One
/// producer, every call waited for: a closed loop with one client.
pub fn drive<S: System>(
    sys: &mut S,
    lanes: &[&[Vec<f64>]],
    rounds_per_tick: usize,
    tracer: &mut Tracer,
) -> Drive {
    let rounds = lanes.first().map_or(0, |l| l.len());
    let mut entered: Vec<Vec<u64>> = lanes.iter().map(|l| Vec::with_capacity(l.len())).collect();
    let mut stamped = vec![0usize; lanes.len()];
    let mut out = Drive {
        latencies_ms: lanes.iter().map(|l| Vec::with_capacity(l.len())).collect(),
        ..Drive::default()
    };
    let clock = Instant::now();
    // Blocking backpressure is lossless and FIFO, so the first
    // `meter().points()` pushes of a lane are exactly the committed ones.
    let mut settle = |sys: &S, lane: usize, entered: &[Vec<u64>], out: &mut Drive| {
        let committed = usize::try_from(sys.engine(lane).meter().points()).unwrap_or(usize::MAX);
        let committed = committed.min(entered[lane].len());
        if committed > stamped[lane] {
            let now = ns_since(clock);
            for &t in &entered[lane][stamped[lane]..committed] {
                out.latencies_ms[lane].push((now - t) as f64 / 1e6);
            }
            stamped[lane] = committed;
        }
    };
    for r in 0..rounds {
        let batch = (r / rounds_per_tick) as u64;
        for (lane, points) in lanes.iter().enumerate() {
            entered[lane].push(ns_since(clock));
            let span = tracer.begin(S::PUSH, batch);
            let ok = sys.push(lane, &points[r]);
            tracer.end(span);
            out.errors += u64::from(!ok);
            out.offered += 1;
            settle(sys, lane, &entered, &mut out);
        }
        if (r + 1) % rounds_per_tick == 0 {
            let span = tracer.begin(S::TICK, batch);
            let ok = sys.tick();
            tracer.end(span);
            out.errors += u64::from(!ok);
            for lane in 0..lanes.len() {
                settle(sys, lane, &entered, &mut out);
            }
        }
    }
    let span = tracer.begin(S::DRAIN, (rounds / rounds_per_tick) as u64);
    let ok = sys.drain();
    tracer.end(span);
    out.errors += u64::from(!ok);
    for lane in 0..lanes.len() {
        settle(sys, lane, &entered, &mut out);
    }
    out.wall_ns = ns_since(clock);
    out
}

// ------------------------------------------------------------ inspection

/// Counts, simulated cost and digests of a system after a pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Points committed to the meters.
    pub clustered: u64,
    /// Points evicted from a ring.
    pub dropped: u64,
    /// Points refused at a ring.
    pub rejected: u64,
    /// Points still buffered.
    pub pending: u64,
    /// Micro-batches committed.
    pub batches: u64,
    /// Inline flushes forced by a full ring.
    pub inline_flushes: u64,
    /// Batches cut on size.
    pub size_cuts: u64,
    /// Batches cut on the tick deadline.
    pub deadline_cuts: u64,
    /// Sub-centroid rewrites.
    pub rebinarized: u64,
    /// Bits seen corrupted on a raw read.
    pub fault_injected: u64,
    /// Of those, repaired by majority re-read.
    pub fault_healed: u64,
    /// Ticks the scheduler withheld from an over-quota tenant.
    pub deferred_ticks: u64,
    /// Simulated chip energy, picojoules.
    pub energy_pj: f64,
    /// Simulated chip time, nanoseconds.
    pub time_ns: f64,
    /// FNV-1a-64 over centroid words only.
    pub centroid_digest: u64,
    /// FNV-1a-64 over centroid words, energy/time bits and the stable
    /// obs snapshot of every lane, plus service-level state.
    pub state_digest: u64,
    /// Lanes whose `offered = clustered + dropped + rejected + pending`
    /// does not hold.
    pub conservation_violations: u64,
}

/// Read every count and digest through the public accessors.
/// `offered_per_lane` is what the driver pushed into each lane.
pub fn inspect<S: System>(sys: &S, offered_per_lane: u64) -> Outcome {
    let mut o = Outcome::default();
    let mut centroids = Fnv::default();
    let mut state = Fnv::default();
    for lane in 0..sys.lanes() {
        let e = sys.engine(lane);
        let c = e.counters();
        let clustered = e.meter().points();
        let pending = e.pending() as u64;
        if offered_per_lane != clustered + c.dropped + c.rejected + pending
            || c.ingested + c.rejected != offered_per_lane
        {
            o.conservation_violations += 1;
        }
        o.clustered += clustered;
        o.dropped += c.dropped;
        o.rejected += c.rejected;
        o.pending += pending;
        o.batches += c.batches;
        o.inline_flushes += c.inline_flushes;
        o.size_cuts += c.size_cuts;
        o.deadline_cuts += c.deadline_cuts;
        o.rebinarized += c.rebinarized;
        o.deferred_ticks += e.obs_registry().counter(Key::TopoDeferred);
        if let Some(f) = e.fault_status() {
            o.fault_injected += f.injected;
            o.fault_healed += f.healed;
        }
        let total = e.meter().total();
        o.energy_pj += total.energy_pj();
        o.time_ns += total.time_ns();
        centroids.centroids(e.model().centroids());
        state.centroids(e.model().centroids());
        state.word(total.energy_pj().to_bits());
        state.word(total.time_ns().to_bits());
        state.bytes(e.obs_registry().stable_snapshot().to_json().as_bytes());
    }
    state.bytes(sys.service_state().as_bytes());
    o.centroid_digest = centroids.finish();
    o.state_digest = state.finish();
    o
}

/// Held-out accuracy of one engine's model: nearest slot → its cluster,
/// scored against the generating regimes.
///
/// # Errors
///
/// Propagates encode errors.
pub fn heldout_accuracy(engine: &StreamEngine<HdMapper>, heldout: &Labelled) -> Res<f64> {
    let encoded = encode_all(engine.encoder(), &heldout.points)?;
    let model = engine.model();
    let predicted: Vec<usize> = search::assign_batch(&encoded, model.centroids(), 1)
        .into_iter()
        .map(|(slot, _)| model.cluster_of(slot))
        .collect();
    Ok(dual_cluster::cluster_accuracy(&predicted, &heldout.regimes))
}

// -------------------------------------------------------- shadow pipeline

/// What the shadow pipeline produced.
#[derive(Debug, Clone, Default)]
pub struct Shadow {
    /// FNV-1a-64 over the shadow model's centroid words; equals the
    /// engine's [`Outcome::centroid_digest`] on a pristine engine.
    pub centroid_digest: u64,
    /// Batches replayed.
    pub batches: u64,
}

/// Replay `points` through the layers the engine is assembled from, in
/// engine order, one span per call into a layer:
///
/// `Ring`/`Batcher` → `dual_pool::par_map_chunks` over `Encoder::encode`
/// → `search::assign_batch` on the model's centroids →
/// `OnlineKMeans::observe_batch` → the per-batch bookkeeping the engine
/// does on its meter, registry and flight recorder.
///
/// `observe_batch` repeats the assignment internally, so
/// `stream.online.observe` minus `hdc.search` is the update cost and
/// `hdc.search` must not be added to a sum that has `observe` in it.
///
/// # Errors
///
/// Propagates encode errors.
pub fn shadow(
    spec: &EngineSpec,
    mapper: &HdMapper,
    seeds: &[Hypervector],
    points: &[Vec<f64>],
    tracer: &mut Tracer,
) -> Res<Shadow> {
    let cfg = stream_config(spec);
    let mut ring: Ring<Vec<f64>> = Ring::with_capacity(cfg.capacity);
    let mut batcher = Batcher::new(cfg.max_batch, cfg.max_ticks);
    let mut model = OnlineKMeans::new(spec.dim, spec.k, spec.subs, spec.decay, cfg.shards);
    model.seed(seeds)?;
    let mut meter = StreamMeter::new(CostModel::paper());
    let obs = Registry::new();
    let mut recorder = Recorder::new(spec.trace_capacity);
    let mut out = Shadow::default();

    for chunk in points.chunks(cfg.max_batch) {
        let b = out.batches;
        // Parent of the batch's layer spans; its self time is what the
        // replay loop itself costs.
        let batch_span = tracer.begin("shadow.batch", b);
        let span = tracer.begin("stream.ingest", b);
        for p in chunk {
            // Chunks never exceed the ring capacity, so this cannot refuse.
            let _ = ring.try_push(p.to_vec());
        }
        batcher.tick();
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(cfg.max_batch);
        if batcher.due(ring.len()).is_some() || chunk.len() < cfg.max_batch {
            while rows.len() < cfg.max_batch {
                match ring.pop() {
                    Some(p) => rows.push(p),
                    None => break,
                }
            }
            batcher.note_cut();
        }
        tracer.end(span);
        let n = rows.len() as u64;

        let span = tracer.begin("hdc.encode", b);
        let results = dual_pool::par_map_chunks(&rows, cfg.threads, |_, part| {
            part.iter().map(|r| mapper.encode(r)).collect::<Vec<_>>()
        });
        let mut encoded = Vec::with_capacity(rows.len());
        for r in results {
            encoded.push(r?);
        }
        tracer.end(span);

        let span = tracer.begin("hdc.search", b);
        black_box(search::assign_batch(
            &encoded,
            model.centroids(),
            cfg.threads,
        ));
        tracer.end(span);

        let span = tracer.begin("stream.online.observe", b);
        let update = model.observe_batch(&encoded, cfg.threads);
        tracer.end(span);

        let span = tracer.begin("pim.meter", b);
        let cost = charge_batch(&mut meter, spec, n, update.rebinarized as u64);
        tracer.end(span);

        let span = tracer.begin("obs.record", b);
        obs.add(Key::StreamIngested, n);
        obs.add(Key::StreamEncoded, n);
        obs.add(Key::StreamAssigned, n);
        obs.add(Key::StreamSeeded, update.seeded as u64);
        obs.add(Key::StreamRebinarized, update.rebinarized as u64);
        obs.add(Key::StreamBatches, 1);
        obs.add(Key::StreamSizeCuts, 1);
        obs.observe(Key::StreamBatchPoints, n);
        obs.tick(1);
        obs.gauge(Key::PimTimeNs, meter.total().time_ns());
        obs.gauge(Key::PimEnergyPj, meter.total().energy_pj());
        let mut per_family = [0u64; OpFamily::ALL.len()];
        for (op, count) in meter.total().counts() {
            per_family[op.family().index()] += count;
        }
        for family in OpFamily::ALL {
            obs.gauge(Key::PimOpIssues(family), per_family[family.index()] as f64);
        }
        obs.gauge(Key::StreamRingOccupancy, ring.len() as f64);
        tracer.end(span);

        let span = tracer.begin("trace.record", b);
        record_batch(&mut recorder, b, n, cost);
        tracer.end(span);

        tracer.end(batch_span);
        out.batches += 1;
    }
    let mut digest = Fnv::default();
    digest.centroids(model.centroids());
    out.centroid_digest = digest.finish();
    Ok(out)
}

/// The engine's seven per-batch `record_grid`/`record_serial` charges
/// and the commit, on a private meter (the formulas are the engine's
/// documented cost attribution; the probe prices the *calls*).
fn charge_batch(
    meter: &mut StreamMeter,
    spec: &EngineSpec,
    n: u64,
    rebinarized: u64,
) -> (f64, f64) {
    const BLOCK_ROWS: usize = 1024;
    let m = spec.features as u64;
    let row_blocks = spec.dim.div_ceil(BLOCK_ROWS).max(1) as u64;
    let log_m = u64::from(spec.features.max(2).next_power_of_two().trailing_zeros());
    meter.record_grid(Op::Mul { bits: 8 }, n * m, row_blocks);
    meter.record_grid(Op::Add { bits: 16 }, n * (log_m + 3), row_blocks);
    meter.record_grid(Op::Mul { bits: 16 }, n * 4, row_blocks);
    let centroid_blocks = spec.slots().div_ceil(BLOCK_ROWS).max(1) as u64;
    let stages = u64::from(usize::BITS - spec.dim.leading_zeros()).div_ceil(4);
    meter.record_grid(
        Op::HammingWindow,
        n * spec.dim.div_ceil(7) as u64,
        centroid_blocks,
    );
    meter.record_grid(Op::NearestStage, n * stages, centroid_blocks);
    meter.record_grid(Op::Add { bits: 16 }, n, row_blocks);
    let bits = u32::try_from(spec.dim).unwrap_or(u32::MAX);
    meter.record_serial(Op::Write { bits }, rebinarized);
    let cost = meter.commit_batch(n);
    (cost.time_ns, cost.energy_pj)
}

/// The flight-recorder traffic of one batch: a batch span around three
/// stage spans.
pub fn record_batch(recorder: &mut Recorder, tick: u64, n: u64, (time_ns, energy_pj): (f64, f64)) {
    let batch = recorder.begin(
        tick,
        Event::BatchBegin {
            reason: Cut::Size,
            points: n,
        },
    );
    for stage in [Stage::Encoding, Stage::Nearest, Stage::Update] {
        let span = recorder.begin(tick, Event::StageEnter { stage });
        recorder.end(
            tick,
            span,
            Event::StageExit {
                stage,
                time_ns,
                energy_pj,
            },
        );
    }
    recorder.end(
        tick,
        batch,
        Event::BatchEnd {
            batch: tick + 1,
            time_ns,
            energy_pj,
        },
    );
}
