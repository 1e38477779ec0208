//! Streaming-engine throughput bench: firehose >= 100k drifting sensor
//! points through the full `dual-stream` pipeline (bounded ring ->
//! micro-batch cut -> parallel HD encode -> sharded Hamming assignment
//! -> decayed centroid update) under each backpressure policy.
//!
//! ```text
//! cargo run --release -p dual-bench --bin stream_throughput [POINTS]
//! ```
//!
//! Wall-clock throughput (points/sec) is printed to stdout only. The
//! JSON report written to `results/stream_throughput.json` contains
//! exclusively deterministic quantities — stage counters, per-batch
//! PIM energy/latency from the DUAL cost model — so the file is
//! byte-stable across machines, reruns, and thread counts.
//!
//! `--summary-out PATH` additionally measures the perf-ratchet metric
//! `stream_pipeline_over_encode`: the median-of-5 ratio of full serial
//! pipeline wall time over bare serial `encode_batch` wall time for the
//! same points in the same 256-point batches. Numerator and
//! denominator scale together with the host, so the ratio is
//! machine-normalized; `bench_ratchet` compares it against the
//! committed `results/bench_summary.json`.

use std::fmt::Write as _;

use dual_data::DriftSpec;
use dual_hdc::{Encoder, HdMapper};
use dual_obs::wall::WallClock;
use dual_pim::StreamBatchCost;
use dual_stream::{BackpressurePolicy, StreamConfig, StreamEngine, StreamSnapshot};

const FEATURES: usize = 16;
const CLUSTERS: usize = 8;
const DIM: usize = 512;
const DEFAULT_POINTS: usize = 120_000;
/// Consumer cadence chosen to overrun the ring: the gap between ticks
/// exceeds capacity, so every policy's degradation path is exercised.
const TICK_EVERY: usize = 1536;
/// Points per ratchet repetition (small: the metric is a ratio, not a
/// throughput — it only needs enough work to dominate timer noise).
const RATCHET_POINTS: usize = 24_000;
/// Repetitions for the median (an odd count has a true median).
const RATCHET_REPS: usize = 5;
/// Micro-batch size of the ratchet engine, and of the bare
/// `encode_batch` calls it is divided by.
const RATCHET_BATCH: usize = 256;

struct PolicyRun {
    policy: BackpressurePolicy,
    snapshot: StreamSnapshot,
    costs: Vec<StreamBatchCost>,
    points_per_sec: f64,
    /// Byte-stable `dual-obs` export of the engine's private registry
    /// (stable keys only — no wall-clock, no thread-variant counters).
    obs_json: String,
}

fn run_policy(policy: BackpressurePolicy, points: usize) -> PolicyRun {
    let encoder = HdMapper::builder(DIM, FEATURES)
        .seed(7)
        .sigma(6.0)
        .build()
        .expect("valid encoder spec");
    let mut cfg = StreamConfig::new(CLUSTERS);
    cfg.policy = policy;
    cfg.capacity = 1024;
    cfg.max_batch = 256;
    cfg.max_ticks = 4;
    cfg.centroids_per_cluster = 2;
    cfg.decay = 0.95;
    let mut engine = StreamEngine::new(encoder, cfg).expect("valid stream config");

    let mut spec = DriftSpec::new(FEATURES, CLUSTERS);
    spec.drift_rate = 1e-3;
    let stream: Vec<(Vec<f64>, usize)> = spec.stream(42).take(points).collect();

    let mut costs = Vec::new();
    let start = WallClock::start();
    for (i, (point, _regime)) in stream.iter().enumerate() {
        engine.push(point).expect("well-shaped point");
        if (i + 1) % TICK_EVERY == 0 {
            costs.extend(engine.tick().expect("tick"));
        }
    }
    costs.extend(engine.drain().expect("drain"));
    let elapsed = start.elapsed_s();

    PolicyRun {
        policy,
        snapshot: engine.snapshot(),
        costs,
        points_per_sec: points as f64 / elapsed.max(1e-9),
        obs_json: engine.obs_registry().stable_snapshot().to_json(),
    }
}

/// The `--metrics-out` payload: one stable registry snapshot per
/// backpressure policy, in run order. Every field is deterministic
/// (`stable_snapshot` drops the thread- and wall-clock-variant keys),
/// so the file is byte-identical across machines, reruns, and
/// `DUAL_THREADS` settings — CI diffs it against the committed
/// `results/obs_snapshot.json`.
fn metrics_json(runs: &[PolicyRun]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"version\": 1,");
    for (i, run) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(out, "  \"{}\": {}{comma}", run.policy.name(), run.obs_json);
    }
    out.push_str("}\n");
    out
}

/// Median of an odd number of samples.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Machine-normalized pipeline cost factor for the perf ratchet: wall
/// time of the full serial streaming pipeline divided by wall time of
/// bare serial HD encoding of the same points, median of
/// [`RATCHET_REPS`] repetitions. The denominator calls `encode_batch`
/// on [`RATCHET_BATCH`]-point batches because that is what the
/// engine's encode stage calls: timing `encode` per point would set
/// the tiled pipeline against an untiled encoder and read below 1.
/// Serial on both sides (`threads = 1`) so the ratio is independent
/// of `DUAL_THREADS` and core count.
fn ratchet_ratio() -> f64 {
    let make_encoder = || {
        HdMapper::builder(DIM, FEATURES)
            .seed(7)
            .sigma(6.0)
            .build()
            .expect("valid encoder spec")
    };
    let mut spec = DriftSpec::new(FEATURES, CLUSTERS);
    spec.drift_rate = 1e-3;
    let stream: Vec<Vec<f64>> = spec
        .stream(42)
        .take(RATCHET_POINTS)
        .map(|(p, _)| p)
        .collect();

    let mut ratios = Vec::with_capacity(RATCHET_REPS);
    for _ in 0..RATCHET_REPS {
        // Denominator: bare serial encode of every batch.
        let enc = make_encoder();
        let t0 = WallClock::start();
        for batch in stream.chunks(RATCHET_BATCH) {
            std::hint::black_box(enc.encode_batch(batch).expect("well-shaped points"));
        }
        let t_encode = t0.elapsed_s();

        // Numerator: the full pipeline (ring -> batch -> encode ->
        // assign -> update -> meter) over the same points, serial.
        let mut cfg = StreamConfig::new(CLUSTERS);
        cfg.capacity = 1024;
        cfg.max_batch = RATCHET_BATCH;
        cfg.max_ticks = 4;
        cfg.centroids_per_cluster = 2;
        cfg.decay = 0.95;
        cfg.threads = 1;
        let mut engine = StreamEngine::new(make_encoder(), cfg).expect("valid stream config");
        let t0 = WallClock::start();
        for (i, p) in stream.iter().enumerate() {
            engine.push(p).expect("well-shaped point");
            if (i + 1) % TICK_EVERY == 0 {
                engine.tick().expect("tick");
            }
        }
        engine.drain().expect("drain");
        let t_pipeline = t0.elapsed_s();
        ratios.push(t_pipeline / t_encode.max(1e-9));
    }
    median(ratios)
}

/// Hand-serialized report in the workspace's byte-stable JSON idiom:
/// fixed key order, fixed float formatting, no wall-clock fields.
fn to_json(points: usize, runs: &[PolicyRun]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    let _ = writeln!(out, "  \"points_offered\": {points},");
    let _ = writeln!(out, "  \"features\": {FEATURES},");
    let _ = writeln!(out, "  \"dimension\": {DIM},");
    let _ = writeln!(out, "  \"clusters\": {CLUSTERS},");
    let _ = writeln!(out, "  \"tick_every\": {TICK_EVERY},");
    out.push_str("  \"policies\": [");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let s = &run.snapshot;
        let batches = s.batches.max(1) as f64;
        out.push_str("\n    {");
        let _ = write!(out, "\"policy\": \"{}\", ", run.policy.name());
        let _ = write!(out, "\"ingested\": {}, ", s.counters.ingested);
        let _ = write!(out, "\"clustered\": {}, ", s.points);
        let _ = write!(out, "\"dropped\": {}, ", s.counters.dropped);
        let _ = write!(out, "\"rejected\": {}, ", s.counters.rejected);
        let _ = write!(out, "\"batches\": {}, ", s.batches);
        let _ = write!(out, "\"size_cuts\": {}, ", s.counters.size_cuts);
        let _ = write!(out, "\"deadline_cuts\": {}, ", s.counters.deadline_cuts);
        let _ = write!(out, "\"drain_cuts\": {}, ", s.counters.drain_cuts);
        let _ = write!(out, "\"inline_flushes\": {}, ", s.counters.inline_flushes);
        let _ = write!(out, "\"energy_pj_total\": {:.3}, ", s.energy_pj);
        let _ = write!(out, "\"time_ns_total\": {:.3}, ", s.time_ns);
        let _ = write!(
            out,
            "\"energy_pj_per_batch\": {:.3}, ",
            s.energy_pj / batches
        );
        let _ = write!(out, "\"time_ns_per_batch\": {:.3}, ", s.time_ns / batches);
        let _ = write!(
            out,
            "\"energy_pj_per_point\": {:.3}",
            s.energy_pj / (s.points.max(1) as f64)
        );
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn main() {
    // CLI: [POINTS] [--metrics-out <path>] [--summary-out <path>]
    // [--report-out <path>] in any order.
    let mut points = DEFAULT_POINTS;
    let mut metrics_out: Option<String> = None;
    let mut summary_out: Option<String> = None;
    let mut report_out = String::from("results/stream_throughput.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--metrics-out" {
            metrics_out = Some(args.next().expect("--metrics-out requires a path"));
        } else if arg == "--summary-out" {
            summary_out = Some(args.next().expect("--summary-out requires a path"));
        } else if arg == "--report-out" {
            report_out = args.next().expect("--report-out requires a path");
        } else {
            points = arg.parse().expect("POINTS must be a positive integer");
        }
    }
    assert!(points > 0, "POINTS must be positive");

    println!(
        "stream_throughput: {points} drifting {FEATURES}-feature points, dim={DIM}, k={CLUSTERS}, tick every {TICK_EVERY}\n"
    );
    println!(
        "  {:<12} {:>12} {:>10} {:>9} {:>9} {:>8} {:>12} {:>14}",
        "policy",
        "points/sec",
        "clustered",
        "dropped",
        "rejected",
        "batches",
        "uJ total",
        "nJ/point"
    );

    let mut runs = Vec::new();
    for policy in [
        BackpressurePolicy::Block,
        BackpressurePolicy::DropOldest,
        BackpressurePolicy::Reject,
    ] {
        let run = run_policy(policy, points);
        let s = &run.snapshot;
        println!(
            "  {:<12} {:>12.0} {:>10} {:>9} {:>9} {:>8} {:>12.2} {:>14.2}",
            run.policy.name(),
            run.points_per_sec,
            s.points,
            s.counters.dropped,
            s.counters.rejected,
            s.batches,
            s.energy_pj / 1e6,
            s.energy_pj / (s.points.max(1) as f64) / 1e3,
        );
        // Conservation sanity: every offered point is accounted for.
        assert_eq!(s.pending, 0, "drain leaves nothing buffered");
        assert_eq!(
            s.counters.ingested + s.counters.rejected,
            points as u64,
            "offered = ingested + rejected"
        );
        assert_eq!(
            s.points + s.counters.dropped,
            s.counters.ingested,
            "ingested = clustered + dropped"
        );
        // The tick/drain ledger covers every batch except inline
        // backpressure flushes (committed inside push under Block).
        let sum_pts: u64 = run.costs.iter().map(|c| c.points).sum();
        assert!(sum_pts <= s.points, "ledger cannot exceed the total");
        runs.push(run);
    }

    std::fs::create_dir_all("results").expect("can create results/");
    let json = to_json(points, &runs);
    std::fs::write(&report_out, &json).expect("writable --report-out path");
    println!("\nreport written to {report_out} (deterministic fields only)");

    if let Some(path) = metrics_out {
        std::fs::write(&path, metrics_json(&runs)).expect("writable --metrics-out path");
        println!("obs snapshot written to {path} (stable keys only)");
    }

    if let Some(path) = summary_out {
        let ratio = ratchet_ratio();
        let payload =
            format!("{{\n  \"version\": 1,\n  \"stream_pipeline_over_encode\": {ratio:.4}\n}}\n");
        std::fs::write(&path, payload).expect("writable --summary-out path");
        println!(
            "ratchet metric written to {path}: stream_pipeline_over_encode = {ratio:.4} (median of {RATCHET_REPS})"
        );
    }
}
