//! Fault-injection degradation sweep (§VIII-H analogue): stream a
//! drifting sensor workload through the full `dual-stream` pipeline
//! while a seeded `dual_fault::FaultPlan` corrupts the stored
//! sub-centroid array, and measure how clustering quality decays with
//! the fault rate — once with healing off (the raw degradation
//! baseline) and once with the full self-healing stack on (spare-row
//! remap + 3-vote majority re-read + shard quarantine).
//!
//! ```text
//! cargo run --release -p dual-bench --bin fault_sweep [--out PATH] [--seed N]
//! ```
//!
//! `--seed` replaces the training-stream seed (default 42) so the CI
//! determinism matrix can sweep seeds × `DUAL_THREADS` and diff the
//! reports; the fault-plan and evaluation seeds stay fixed.
//!
//! Quality metric: after training, a held-out evaluation stream is
//! encoded and assigned against the final (pristine) learned
//! sub-centroids; `agreement` is the fraction of evaluation points that
//! land in the same cluster as in the fault-free run of the same
//! dimensionality. Every JSON field is a deterministic function of the
//! seeds — byte-stable across machines, reruns, and `DUAL_THREADS`
//! (wall-clock timing goes to stdout only).

#![deny(clippy::as_conversions)]

use dual_bench::{exit_usage, out_seed_args, write_out, JsonObject};
use dual_data::DriftSpec;
use dual_fault::{FaultPlan, FaultPlanSpec, HealingPolicy};
use dual_hdc::{search, Encoder, HdMapper, Hypervector};
use dual_obs::WallClock;
use dual_stream::{FaultConfig, StreamConfig, StreamEngine};

const FEATURES: usize = 16;
const CLUSTERS: usize = 8;
const CENTROIDS_PER_CLUSTER: usize = 2;
const SHARDS: usize = 4;
const SPARES: usize = 4;
const TRAIN_POINTS: usize = 1536;
const EVAL_POINTS: usize = 512;
const TICK_EVERY: usize = 128;
/// Hypervector dimensionalities swept (the paper's D design points).
const DIMS: [usize; 2] = [1000, 4000];
/// Composite fault rate: stuck-cell and dead-row probability, with
/// transient flips at half the rate.
const RATES: [f64; 4] = [0.0005, 0.001, 0.005, 0.02];
const PLAN_SEED: u64 = 0x00FA_0175;
const STREAM_SEED: u64 = 42;
const EVAL_SEED: u64 = 9001;

/// One sweep cell: `(dim, rate, policy)` plus everything the run
/// observed. All fields deterministic.
struct Cell {
    dim: usize,
    rate: f64,
    policy: &'static str,
    stuck_cells: u64,
    dead_rows: u64,
    injected: u64,
    healed: u64,
    quarantine_trips: u64,
    requeues: u64,
    dead_shards: usize,
    spares_used: usize,
    clustered: u64,
    dropped: u64,
    agreement: f64,
}

/// Exact ratio of small counts (`≪ 2^53`).
#[expect(
    clippy::as_conversions,
    reason = "eval counts are ≤ 512 ≪ 2^53, exact in f64"
)]
fn ratio(num: usize, den: usize) -> f64 {
    num as f64 / den.max(1) as f64
}

fn encoder(dim: usize) -> HdMapper {
    HdMapper::builder(dim, FEATURES)
        .seed(7)
        .sigma(6.0)
        .build()
        .expect("valid encoder spec")
}

/// Train on the drifting stream and label the held-out evaluation
/// stream with the learned model. `fault = None` disables injection
/// (the reference run).
fn run(dim: usize, seed: u64, fault: Option<(f64, HealingPolicy)>) -> (Vec<usize>, Cell) {
    let mut cfg = StreamConfig::new(CLUSTERS);
    cfg.capacity = 4096;
    cfg.max_batch = 128;
    cfg.max_ticks = 8;
    cfg.centroids_per_cluster = CENTROIDS_PER_CLUSTER;
    cfg.decay = 0.95;
    cfg.shards = SHARDS;
    let slots = CLUSTERS * CENTROIDS_PER_CLUSTER;
    let mut engine = StreamEngine::new(encoder(dim), cfg).expect("valid stream config");

    let (mut stuck_cells, mut dead_rows, mut policy_name, mut rate) = (0, 0, "none", 0.0);
    if let Some((r, policy)) = fault {
        let mut spec = FaultPlanSpec::clean(slots + SPARES, dim);
        spec.seed = PLAN_SEED;
        spec.stuck_rate = r;
        spec.dead_row_rate = r;
        spec.flip_rate = r / 2.0;
        let plan = FaultPlan::new(spec).expect("valid fault spec");
        (stuck_cells, dead_rows) = plan.census();
        policy_name = policy.name();
        rate = r;
        engine = engine
            .with_fault_injection(FaultConfig::new(plan).with_policy(policy))
            .expect("compatible fault geometry");
    }

    let mut data = DriftSpec::new(FEATURES, CLUSTERS);
    data.drift_rate = 1e-3;
    for (i, (point, _regime)) in data.stream(seed).take(TRAIN_POINTS).enumerate() {
        engine.push(&point).expect("well-shaped point");
        if (i + 1) % TICK_EVERY == 0 {
            engine.tick().expect("tick");
        }
    }
    engine.drain().expect("drain");

    // Held-out evaluation: encode a fresh stream and assign against the
    // final learned sub-centroids (pristine storage — the quality of
    // what the model *learned* under faulty training).
    let eval: Vec<Hypervector> = data
        .stream(EVAL_SEED)
        .take(EVAL_POINTS)
        .map(|(p, _)| engine.encoder().encode(&p).expect("well-shaped point"))
        .collect();
    let centroids = engine.model().centroids().to_vec();
    let labels: Vec<usize> = search::assign_batch(&eval, &centroids, 1)
        .into_iter()
        .map(|(slot, _)| slot % CLUSTERS)
        .collect();

    let snap = engine.snapshot();
    let status = engine.fault_status();
    let cell = Cell {
        dim,
        rate,
        policy: policy_name,
        stuck_cells,
        dead_rows,
        injected: status.as_ref().map_or(0, |s| s.injected),
        healed: status.as_ref().map_or(0, |s| s.healed),
        quarantine_trips: status.as_ref().map_or(0, |s| s.quarantine_trips),
        requeues: status.as_ref().map_or(0, |s| s.requeues),
        dead_shards: status.as_ref().map_or(0, |s| s.dead_shards),
        spares_used: status.as_ref().map_or(0, |s| s.spares_used),
        clustered: snap.points,
        dropped: snap.counters.dropped,
        agreement: 1.0, // filled in against the reference labels
    };
    (labels, cell)
}

/// The report in the workspace's byte-stable JSON idiom: fixed key
/// order, fixed float formatting, no wall-clock fields.
fn to_json(seed: u64, cells: &[Cell]) -> String {
    JsonObject::new()
        .field("version", 1)
        .field("train_points", TRAIN_POINTS)
        .field("eval_points", EVAL_POINTS)
        .field("clusters", CLUSTERS)
        .field("centroids_per_cluster", CENTROIDS_PER_CLUSTER)
        .field("shards", SHARDS)
        .field("spares", SPARES)
        .field("plan_seed", PLAN_SEED)
        .field("stream_seed", seed)
        .records(
            "cells",
            cells.iter().map(|c| {
                JsonObject::new()
                    .field("dim", c.dim)
                    .field("fault_rate", format_args!("{:.4}", c.rate))
                    .str("policy", c.policy)
                    .field("stuck_cells", c.stuck_cells)
                    .field("dead_rows", c.dead_rows)
                    .field("injected", c.injected)
                    .field("healed", c.healed)
                    .field("quarantine_trips", c.quarantine_trips)
                    .field("requeues", c.requeues)
                    .field("dead_shards", c.dead_shards)
                    .field("spares_used", c.spares_used)
                    .field("clustered", c.clustered)
                    .field("dropped", c.dropped)
                    .field("agreement", format_args!("{:.4}", c.agreement))
            }),
        )
        .pretty()
}

fn main() {
    let (out_path, seed) = out_seed_args(
        "fault_sweep",
        std::env::args().skip(1),
        "results/fault_degradation.json",
        STREAM_SEED,
    )
    .unwrap_or_else(exit_usage);

    println!(
        "fault_sweep: {TRAIN_POINTS} train / {EVAL_POINTS} eval points, k={CLUSTERS}x{CENTROIDS_PER_CLUSTER}, D in {DIMS:?}, rates {RATES:?}, stream seed {seed}\n"
    );
    println!(
        "  {:<5} {:>9} {:<9} {:>7} {:>5} {:>9} {:>8} {:>6} {:>5} {:>7} {:>9} {:>7}",
        "dim",
        "rate",
        "policy",
        "stuck",
        "dead",
        "injected",
        "healed",
        "quar",
        "spare",
        "dropped",
        "agreement",
        "sec"
    );

    let mut cells = Vec::new();
    for dim in DIMS {
        let t0 = WallClock::start();
        let (reference, mut base_cell) = run(dim, seed, None);
        base_cell.agreement = 1.0;
        println!(
            "  {:<5} {:>9.4} {:<9} {:>7} {:>5} {:>9} {:>8} {:>6} {:>5} {:>7} {:>9.4} {:>7.2}",
            dim,
            0.0,
            "none",
            0,
            0,
            0,
            0,
            0,
            0,
            base_cell.dropped,
            1.0,
            t0.elapsed_s()
        );
        cells.push(base_cell);
        for rate in RATES {
            for policy in [
                HealingPolicy::Off,
                HealingPolicy::Full {
                    spares: SPARES,
                    reads: 3,
                },
            ] {
                let t = WallClock::start();
                let (labels, mut cell) = run(dim, seed, Some((rate, policy)));
                let matches = labels
                    .iter()
                    .zip(&reference)
                    .filter(|(a, b)| a == b)
                    .count();
                cell.agreement = ratio(matches, reference.len());
                println!(
                    "  {:<5} {:>9.4} {:<9} {:>7} {:>5} {:>9} {:>8} {:>6} {:>5} {:>7} {:>9.4} {:>7.2}",
                    cell.dim,
                    cell.rate,
                    cell.policy,
                    cell.stuck_cells,
                    cell.dead_rows,
                    cell.injected,
                    cell.healed,
                    cell.quarantine_trips,
                    cell.spares_used,
                    cell.dropped,
                    cell.agreement,
                    t.elapsed_s()
                );
                cells.push(cell);
            }
        }
    }

    // Sweep-level sanity: healing never hurts on average, and the
    // degradation stays graceful at the paper's operating points.
    let mean = |policy: &str| {
        let sel: Vec<f64> = cells
            .iter()
            .filter(|c| c.policy == policy)
            .map(|c| c.agreement)
            .collect();
        sel.iter().sum::<f64>() / ratio(sel.len().max(1), 1)
    };
    let (off, full) = (mean("off"), mean("full"));
    println!("\nmean agreement: healing off {off:.4}, full healing {full:.4}");
    assert!(
        full + 1e-9 >= off,
        "self-healing must not degrade mean agreement: {full} vs {off}"
    );

    write_out(&out_path, to_json(seed, &cells)).expect("writable output path");
    println!("report written to {out_path} (deterministic fields only)");
}
