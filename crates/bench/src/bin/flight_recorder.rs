//! Flight-recorder proof harness for `dual-trace`: stream a
//! drifting-blobs workload through an engine with fault injection and
//! alert rules armed, **kill** it mid-run, **restore** from its
//! write-ahead snapshot, **replay** the suffix, and assert the
//! recovered flight recorder — ring contents, causal span ids, alert
//! latches — is bit-identical to the uninterrupted run's. Then drive a
//! small two-tenant topology (one starved tenant refused at the
//! admission gate) and merge every recorder into one byte-stable trace
//! report.
//!
//! ```text
//! cargo run --release -p dual-bench --bin flight_recorder [--out PATH] [--seed N]
//! ```
//!
//! Every JSON field is a deterministic function of `--seed`: the tick
//! clock is the only clock, so the report is byte-identical across
//! machines, reruns, `DUAL_THREADS` values, and kill/restore/replay
//! (`ci.sh --stage trace` pins all of it).

use std::fmt::Write as _;

use dual_data::DriftSpec;
use dual_fault::{FaultPlan, FaultPlanSpec, HealingPolicy};
use dual_hdc::HdMapper;
use dual_obs::wall::WallClock;
use dual_obs::Key;
use dual_pim::CostModel;
use dual_stream::{FaultConfig, StreamConfig, StreamEngine};
use dual_topology::{QuotaSpec, TenantSpec, Topology};
use dual_trace::{report_json, AlertRule, Recorder, Signal};

const DIM: usize = 256;
const FEATURES: usize = 6;
const CLUSTERS: usize = 4;
const CENTROIDS_PER_CLUSTER: usize = 2;
const SHARDS: usize = 2;
const SPARES: usize = 4;
/// Points pushed between consecutive engine ticks.
const TICK_EVERY: usize = 32;
/// Total ticks in the engine workload.
const TOTAL_TICKS: u64 = 24;
/// Periodic write-ahead capture interval, in ticks.
const SNAPSHOT_EVERY: u64 = 4;
/// Crash tick: deliberately not a capture multiple, so the restore
/// rewinds and genuinely replays.
const KILL_TICK: u64 = 13;
/// Engine flight-recorder ring depth: small enough that the run
/// demonstrably evicts (the report pins the eviction count).
const TRACE_CAPACITY: usize = 192;
const FAULT_RATE: f64 = 0.01;
const PLAN_SEED: u64 = 0x00F1_1647;
const STREAM_SEED: u64 = 42;
/// Ticks driven through the two-tenant topology phase.
const TOPO_TICKS: usize = 8;

fn encoder() -> HdMapper {
    HdMapper::builder(DIM, FEATURES)
        .seed(7)
        .sigma(6.0)
        .build()
        .expect("valid encoder spec")
}

fn fault_config() -> FaultConfig {
    let slots = CLUSTERS * CENTROIDS_PER_CLUSTER;
    let mut spec = FaultPlanSpec::clean(slots + SPARES, DIM);
    spec.seed = PLAN_SEED;
    spec.stuck_rate = FAULT_RATE;
    spec.dead_row_rate = FAULT_RATE;
    spec.flip_rate = FAULT_RATE / 2.0;
    let plan = FaultPlan::new(spec).expect("valid fault spec");
    FaultConfig::new(plan).with_policy(HealingPolicy::Full {
        spares: SPARES,
        reads: 3,
    })
}

/// The armed rule set: a hysteresis band on ring occupancy (leftover
/// points after a tick's cuts) and a rising-edge rule on quarantine
/// trips. Both watch deterministic signals, so raise/clear history is
/// part of the pinned report.
fn alert_rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "ring-backlog".to_owned(),
            signal: Signal::Gauge(Key::StreamRingOccupancy),
            threshold: 4.0,
            clear: 0.0,
        },
        AlertRule::edge(
            "quarantine-spike",
            Signal::Delta(Key::FaultQuarantined),
            1.0,
        ),
    ]
}

fn engine() -> StreamEngine<HdMapper> {
    let mut cfg = StreamConfig::new(CLUSTERS);
    cfg.capacity = 4096;
    cfg.max_batch = 24;
    cfg.max_ticks = 8;
    cfg.centroids_per_cluster = CENTROIDS_PER_CLUSTER;
    cfg.decay = 0.95;
    cfg.shards = SHARDS;
    cfg.snapshot_every = SNAPSHOT_EVERY;
    cfg.trace_capacity = TRACE_CAPACITY;
    StreamEngine::new(encoder(), cfg)
        .expect("valid stream config")
        .with_fault_injection(fault_config())
        .expect("compatible fault geometry")
        .with_alerts(alert_rules())
        .expect("valid alert rules")
}

/// The deterministic workload: point `i` of the drifting-blobs stream.
fn workload(seed: u64) -> Vec<Vec<f64>> {
    let mut data = DriftSpec::new(FEATURES, CLUSTERS);
    data.drift_rate = 1e-3;
    let total = usize::try_from(TOTAL_TICKS).expect("small constant") * TICK_EVERY;
    data.stream(seed).take(total).map(|(p, _)| p).collect()
}

/// Feed points `[from, to)`, ticking every `TICK_EVERY` points.
fn feed(engine: &mut StreamEngine<HdMapper>, points: &[Vec<f64>], from: usize, to: usize) {
    for (i, point) in points.iter().enumerate().take(to).skip(from) {
        engine.push(point).expect("well-shaped point");
        if (i + 1) % TICK_EVERY == 0 {
            engine.tick().expect("tick");
        }
    }
}

/// Kill the engine after `KILL_TICK`, restore from its write-ahead
/// blob, replay the suffix, and return the recovered engine — the
/// caller diffs its recorder against the uninterrupted gold run.
fn kill_restore_replay(points: &[Vec<f64>]) -> StreamEngine<HdMapper> {
    let mut victim = engine();
    let kill_point = usize::try_from(KILL_TICK).expect("small constant") * TICK_EVERY;
    feed(&mut victim, points, 0, kill_point);
    let wal = victim.wal().map(<[u8]>::to_vec).expect("WAL captured");
    drop(victim);

    let mut recovered =
        StreamEngine::restore_with(encoder(), &wal, CostModel::paper(), Some(fault_config()))
            .expect("own blob restores");
    let resume_point = usize::try_from(recovered.now()).expect("small constant") * TICK_EVERY;
    feed(&mut recovered, points, resume_point, points.len());
    recovered.drain().expect("drain");
    recovered
}

/// The topology phase: a starved tenant (`alpha`, zero credit, Reject
/// escalation) next to an unlimited one (`beta`), with a service alert
/// on the deferral rate. Produces tenant admit/defer/reject events on
/// the service recorder and per-tenant batch spans on the tenants'.
fn topology_phase(points: &[Vec<f64>]) -> Topology<HdMapper> {
    let mut cfg = StreamConfig::new(CLUSTERS);
    cfg.capacity = 64;
    cfg.max_batch = 16;
    cfg.max_ticks = 2;
    cfg.shards = SHARDS;
    cfg.trace_capacity = 128;
    let mut topo = Topology::new();
    topo.add_tenant(
        TenantSpec::new("alpha", cfg.clone()).with_quota(QuotaSpec::per_tick(0.0)),
        encoder(),
    )
    .expect("valid tenant spec");
    topo.add_tenant(TenantSpec::new("beta", cfg), encoder())
        .expect("valid tenant spec");
    topo.set_alerts(vec![AlertRule::edge(
        "deferral-storm",
        Signal::Delta(Key::TopoDeferred),
        1.0,
    )])
    .expect("valid alert rules");

    for step in 0..TOPO_TICKS * TICK_EVERY {
        let point = &points[step % points.len()];
        for tenant in ["alpha", "beta"] {
            topo.push(tenant, point).expect("known tenant");
        }
        if (step + 1) % TICK_EVERY == 0 {
            topo.tick().expect("tick");
        }
    }
    topo.drain_all().expect("drain");
    topo
}

/// Per-recorder accounting line for the report.
fn recorder_json(out: &mut String, label: &str, rec: &Recorder) {
    let _ = writeln!(
        out,
        "  \"{label}\": {{\"emitted\": {}, \"evicted\": {}, \"retained\": {}, \
         \"open_depth\": {}, \"alerts_raised\": {}}},",
        rec.emitted(),
        rec.evicted(),
        rec.retained(),
        rec.open_depth(),
        rec.alerts_raised()
    );
}

fn main() {
    let mut out_path = String::from("results/trace_report.json");
    let mut seed = STREAM_SEED;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_path = args.next().expect("--out requires a path");
        } else if arg == "--seed" {
            seed = args
                .next()
                .expect("--seed requires a value")
                .parse()
                .expect("--seed must be an unsigned integer");
        } else {
            panic!("unknown argument `{arg}` (usage: flight_recorder [--out PATH] [--seed N])");
        }
    }

    let points = workload(seed);
    println!(
        "flight_recorder: {} points, {TOTAL_TICKS} ticks, capture every {SNAPSHOT_EVERY}, \
         kill at tick {KILL_TICK}, ring capacity {TRACE_CAPACITY}, stream seed {seed}\n",
        points.len()
    );

    // Uninterrupted gold run.
    let t0 = WallClock::start();
    let mut gold = engine();
    feed(&mut gold, &points, 0, points.len());
    gold.drain().expect("drain");
    println!("  gold run      ({:.2}s)", t0.elapsed_s());

    // Crash, restore, replay — the recorder must survive bit-for-bit.
    let t1 = WallClock::start();
    let recovered = kill_restore_replay(&points);
    println!("  kill/replay   ({:.2}s)", t1.elapsed_s());
    assert_eq!(
        recovered.trace().state(),
        gold.trace().state(),
        "flight-recorder ring diverged across kill/restore/replay"
    );
    assert_eq!(
        report_json(&[("engine", recovered.trace())]),
        report_json(&[("engine", gold.trace())]),
        "trace report bytes diverged across kill/restore/replay"
    );
    assert_eq!(
        recovered.alerts().states(),
        gold.alerts().states(),
        "alert latches diverged across kill/restore/replay"
    );
    assert_eq!(
        recovered.trace().notes().count(),
        1,
        "exactly one volatile restore marker"
    );
    println!("  recorder + alert latches bit-identical across kill/restore/replay");

    // Topology phase: admission + scheduling events, merged exporters.
    let t2 = WallClock::start();
    let topo = topology_phase(&points);
    println!("  topology run  ({:.2}s)", t2.elapsed_s());

    let trace = gold.trace();
    assert!(trace.evicted() > 0, "ring must wrap at this capacity");
    assert!(trace.alerts_raised() > 0, "alert rules must actually fire");
    assert!(
        topo.trace().alerts_raised() > 0,
        "the deferral alert must fire"
    );

    let (p50, p95, p99) = gold
        .obs_registry()
        .histogram(Key::StreamBatchPoints)
        .summary_quantiles();
    println!(
        "\n  engine: {} events emitted, {} evicted, {} alerts; batch points p50/p95/p99 = {p50}/{p95}/{p99}",
        trace.emitted(),
        trace.evicted(),
        trace.alerts_raised()
    );
    println!(
        "  topology: {} service events, {} alerts raised",
        topo.trace().emitted(),
        topo.trace().alerts_raised()
    );

    let alpha = topo.engine("alpha").expect("registered tenant");
    let beta = topo.engine("beta").expect("registered tenant");
    let mut out = String::from("{\n");
    out.push_str("  \"version\": 1,\n");
    let _ = writeln!(out, "  \"dim\": {DIM},");
    let _ = writeln!(out, "  \"clusters\": {CLUSTERS},");
    let _ = writeln!(out, "  \"tick_every\": {TICK_EVERY},");
    let _ = writeln!(out, "  \"total_ticks\": {TOTAL_TICKS},");
    let _ = writeln!(out, "  \"snapshot_every\": {SNAPSHOT_EVERY},");
    let _ = writeln!(out, "  \"kill_tick\": {KILL_TICK},");
    let _ = writeln!(out, "  \"trace_capacity\": {TRACE_CAPACITY},");
    let _ = writeln!(out, "  \"plan_seed\": {PLAN_SEED},");
    let _ = writeln!(out, "  \"stream_seed\": {seed},");
    out.push_str("  \"replay_identical\": true,\n");
    let _ = writeln!(
        out,
        "  \"batch_points\": {{\"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}}},"
    );
    recorder_json(&mut out, "engine", trace);
    recorder_json(&mut out, "topology", topo.trace());
    let streams = report_json(&[
        ("engine", trace),
        ("topology", topo.trace()),
        ("tenant.alpha", alpha.trace()),
        ("tenant.beta", beta.trace()),
    ]);
    let _ = write!(out, "  \"trace\": {streams}\n}}\n");

    std::fs::create_dir_all("results").expect("can create results/");
    std::fs::write(&out_path, &out).expect("writable output path");
    println!("report written to {out_path} (deterministic fields only)");
}
