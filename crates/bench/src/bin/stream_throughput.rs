//! Streaming-engine throughput bench: firehose >= 100k drifting sensor
//! points through the full `dual-stream` pipeline (bounded ring ->
//! micro-batch cut -> parallel HD encode -> sharded Hamming assignment
//! -> decayed centroid update) under each backpressure policy.
//!
//! ```text
//! cargo run --release -p dual-bench --bin stream_throughput -- \
//!     [POINTS] [--report-out PATH] [--metrics-out PATH]
//! ```
//!
//! A report, not a gate. Wall-clock throughput (points/sec) is printed
//! to stdout only. Both output files hold exclusively deterministic
//! quantities: the report (`results/stream_throughput.json`) has stage
//! counters and per-batch PIM energy/latency from the DUAL cost model,
//! and `--metrics-out` has each engine's stable `dual-obs` snapshot. So
//! both are byte-stable across machines, reruns, and thread counts. The
//! wall-clock gate on this pipeline is `obs_overhead`'s pair 4.

use dual_bench::{exit_usage, write_out, JsonObject};
use dual_data::DriftSpec;
use dual_hdc::HdMapper;
use dual_obs::WallClock;
use dual_pim::StreamBatchCost;
use dual_stream::{BackpressurePolicy, StreamConfig, StreamEngine, StreamSnapshot};

const FEATURES: usize = 16;
const CLUSTERS: usize = 8;
const DIM: usize = 512;
const DEFAULT_POINTS: usize = 120_000;
/// Consumer cadence chosen to overrun the ring: the gap between ticks
/// exceeds capacity, so every policy's degradation path is exercised.
const TICK_EVERY: usize = 1536;

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
    runs.iter()
        .fold(JsonObject::new().field("version", 1), |json, run| {
            json.field(run.policy.name(), &run.obs_json)
        })
        .pretty()
}

/// The report in the workspace's byte-stable JSON idiom: fixed key
/// order, fixed float formatting, no wall-clock fields.
fn to_json(points: usize, runs: &[PolicyRun]) -> String {
    let policies = runs.iter().map(|run| {
        let s = &run.snapshot;
        let batches = s.batches.max(1) as f64;
        JsonObject::new()
            .str("policy", run.policy.name())
            .field("ingested", s.counters.ingested)
            .field("clustered", s.points)
            .field("dropped", s.counters.dropped)
            .field("rejected", s.counters.rejected)
            .field("batches", s.batches)
            .field("size_cuts", s.counters.size_cuts)
            .field("deadline_cuts", s.counters.deadline_cuts)
            .field("drain_cuts", s.counters.drain_cuts)
            .field("inline_flushes", s.counters.inline_flushes)
            .field("energy_pj_total", format_args!("{:.3}", s.energy_pj))
            .field("time_ns_total", format_args!("{:.3}", s.time_ns))
            .field(
                "energy_pj_per_batch",
                format_args!("{:.3}", s.energy_pj / batches),
            )
            .field(
                "time_ns_per_batch",
                format_args!("{:.3}", s.time_ns / batches),
            )
            .field(
                "energy_pj_per_point",
                format_args!("{:.3}", s.energy_pj / (s.points.max(1) as f64)),
            )
    });
    JsonObject::new()
        .field("version", 1)
        .field("points_offered", points)
        .field("features", FEATURES)
        .field("dimension", DIM)
        .field("clusters", CLUSTERS)
        .field("tick_every", TICK_EVERY)
        .records("policies", policies)
        .pretty()
}

const SYNOPSIS: &str = "[POINTS] [--report-out PATH] [--metrics-out PATH]";

/// The command line, its options in any order.
#[derive(Debug, PartialEq)]
struct Args {
    points: usize,
    report_out: String,
    metrics_out: Option<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let bad = |problem: &str| {
        format!("stream_throughput: {problem}\nusage: stream_throughput {SYNOPSIS}")
    };
    let mut parsed = Args {
        points: DEFAULT_POINTS,
        report_out: String::from("results/stream_throughput.json"),
        metrics_out: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut path = || {
            args.next()
                .ok_or_else(|| bad(&format!("{arg} requires a path")))
        };
        match arg.as_str() {
            "--report-out" => parsed.report_out = path()?,
            "--metrics-out" => parsed.metrics_out = Some(path()?),
            _ => {
                let positive = arg.parse().ok().filter(|&n| n > 0);
                parsed.points = positive.ok_or_else(|| bad(&format!("bad POINTS `{arg}`")))?;
            }
        }
    }
    Ok(parsed)
}

fn main() {
    let Args {
        points,
        report_out,
        metrics_out,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(exit_usage);

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

    write_out(&report_out, to_json(points, &runs)).expect("writable --report-out path");
    println!("\nreport written to {report_out} (deterministic fields only)");

    if let Some(path) = metrics_out {
        write_out(&path, metrics_json(&runs)).expect("writable --metrics-out path");
        println!("obs snapshot written to {path} (stable keys only)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Args, String> {
        parse_args(args.split_whitespace().map(String::from))
    }

    #[test]
    fn args_take_defaults_overrides_and_reject_with_usage() {
        let defaults = parse("").unwrap();
        assert_eq!(defaults.points, DEFAULT_POINTS);
        assert_eq!(defaults.report_out, "results/stream_throughput.json");
        assert_eq!(defaults.metrics_out, None);
        let set = parse("900 --metrics-out m --report-out r").unwrap();
        assert_eq!((set.points, set.report_out.as_str()), (900, "r"));
        assert_eq!(set.metrics_out, Some("m".into()));
        for bad in ["0", "-5", "--bogus", "--report-out"] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.ends_with(&format!("usage: stream_throughput {SYNOPSIS}")),
                "{err}"
            );
        }
    }
}
