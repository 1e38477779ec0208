//! Crash/recovery proof harness for the `dual-snap` write-ahead
//! snapshot path: stream a drifting-blobs workload, **kill** the engine
//! at a tick drawn from a seeded schedule, **restore** from its last
//! periodic write-ahead snapshot, **replay** the ticks after the
//! capture, and diff the result against the uninterrupted run — the
//! byte-stable obs JSON, the final centroid bits, the energy-ledger
//! `f64` bits, the fault/healing status, and the endurance wear counts
//! must all be identical. Any divergence panics (CI fails).
//!
//! ```text
//! cargo run --release -p dual-bench --bin recovery_harness [--out PATH] [--seed N]
//! ```
//!
//! The sweep covers healing policies {fault-free, healing-off under
//! faults, full healing under faults} × kill ticks {pre-first-capture,
//! two seeded mid-run ticks, the final tick}; `ci.sh --stage recovery`
//! reruns the whole harness under `DUAL_THREADS` in {0, 2, 8} and
//! byte-diffs the reports. Every JSON field is a deterministic
//! function of `--seed` — no wall-clock leaks into the report.

use dual_bench::{exit_usage, out_seed_args, write_out, JsonObject};
use dual_data::DriftSpec;
use dual_fault::{FaultPlan, FaultPlanSpec, HealingPolicy};
use dual_obs::WallClock;
use dual_snap::{fnv1a64, EngineSnapshot};
use dual_stream::{FaultConfig, StreamConfig, StreamEngine};

use dual_hdc::HdMapper;
use dual_pim::CostModel;

const DIM: usize = 256;
const FEATURES: usize = 6;
const CLUSTERS: usize = 5;
const CENTROIDS_PER_CLUSTER: usize = 2;
const SHARDS: usize = 2;
const SPARES: usize = 4;
/// Points pushed between consecutive engine ticks.
const TICK_EVERY: usize = 32;
/// Total ticks in the workload (so `TOTAL_TICKS * TICK_EVERY` points).
const TOTAL_TICKS: u64 = 32;
/// Periodic write-ahead capture interval, in ticks.
const SNAPSHOT_EVERY: u64 = 4;
const FAULT_RATE: f64 = 0.005;
const PLAN_SEED: u64 = 0x00FA_0175;
const STREAM_SEED: u64 = 42;

/// One sweep cell: a `(policy, kill_tick)` pair plus what the
/// crash/restore/replay observed. All fields deterministic.
struct Cell {
    policy: &'static str,
    kill_tick: u64,
    snapshot_tick: u64,
    blob_bytes: usize,
    replayed_points: usize,
    /// FNV-1a 64 of the final stable obs JSON (identical between the
    /// uninterrupted and the recovered run — asserted before writing).
    stable_digest: u64,
}

/// The three swept recovery scenarios.
#[derive(Clone, Copy)]
enum Scenario {
    /// No fault injection at all.
    Pristine,
    /// Faulty array, every healing mechanism off.
    HealingOff,
    /// Faulty array, spare rows + majority re-read + quarantine.
    FullHealing,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Self::Pristine => "none",
            Self::HealingOff => "off",
            Self::FullHealing => "full",
        }
    }

    /// The fault config this scenario arms (re-supplied verbatim at
    /// restore time, exactly like the encoder).
    fn fault_config(self) -> Option<FaultConfig> {
        let policy = match self {
            Self::Pristine => return None,
            Self::HealingOff => HealingPolicy::Off,
            Self::FullHealing => HealingPolicy::Full {
                spares: SPARES,
                reads: 3,
            },
        };
        let slots = CLUSTERS * CENTROIDS_PER_CLUSTER;
        let mut spec = FaultPlanSpec::clean(slots + SPARES, DIM);
        spec.seed = PLAN_SEED;
        spec.stuck_rate = FAULT_RATE;
        spec.dead_row_rate = FAULT_RATE;
        spec.flip_rate = FAULT_RATE / 2.0;
        let plan = FaultPlan::new(spec).expect("valid fault spec");
        Some(FaultConfig::new(plan).with_policy(policy))
    }
}

fn encoder() -> HdMapper {
    HdMapper::builder(DIM, FEATURES)
        .seed(7)
        .sigma(6.0)
        .build()
        .expect("valid encoder spec")
}

fn engine(scenario: Scenario) -> StreamEngine<HdMapper> {
    let mut cfg = StreamConfig::new(CLUSTERS);
    cfg.capacity = 4096;
    cfg.max_batch = 24;
    cfg.max_ticks = 8;
    cfg.centroids_per_cluster = CENTROIDS_PER_CLUSTER;
    cfg.decay = 0.95;
    cfg.shards = SHARDS;
    cfg.snapshot_every = SNAPSHOT_EVERY;
    let engine = StreamEngine::new(encoder(), cfg).expect("valid stream config");
    match scenario.fault_config() {
        Some(fault) => engine
            .with_fault_injection(fault)
            .expect("compatible fault geometry"),
        None => engine,
    }
}

/// The deterministic workload: point `i` of the drifting-blobs stream.
/// Materialized up front so the gold run and every replay feed
/// byte-identical inputs.
fn workload(seed: u64) -> Vec<Vec<f64>> {
    let mut data = DriftSpec::new(FEATURES, CLUSTERS);
    data.drift_rate = 1e-3;
    let total = usize::try_from(TOTAL_TICKS).expect("small constant") * TICK_EVERY;
    data.stream(seed).take(total).map(|(p, _)| p).collect()
}

/// Feed points `[from, to)` of the workload, ticking every
/// `TICK_EVERY` points (so tick `t` fires right after point
/// `t * TICK_EVERY - 1`).
fn feed(engine: &mut StreamEngine<HdMapper>, points: &[Vec<f64>], from: usize, to: usize) {
    for (i, point) in points.iter().enumerate().take(to).skip(from) {
        engine.push(point).expect("well-shaped point");
        if (i + 1) % TICK_EVERY == 0 {
            engine.tick().expect("tick");
        }
    }
}

/// What a finished run looks like for the equality check.
struct Fingerprint {
    stable_json: String,
    clusters: Vec<Vec<dual_hdc::Hypervector>>,
    time_ns_bits: u64,
    energy_pj_bits: u64,
    fault_status: Option<dual_stream::FaultStatus>,
    wear: Vec<u64>,
}

fn fingerprint(engine: &StreamEngine<HdMapper>) -> Fingerprint {
    let snap = engine.snapshot();
    Fingerprint {
        stable_json: engine.obs_registry().stable_snapshot().to_json(),
        clusters: snap.clusters,
        time_ns_bits: snap.time_ns.to_bits(),
        energy_pj_bits: snap.energy_pj.to_bits(),
        fault_status: engine.fault_status(),
        wear: engine.wear().writes().to_vec(),
    }
}

/// Run one `(scenario, kill_tick)` cell: crash, restore, replay, diff
/// against the precomputed gold fingerprint. Panics on any divergence.
fn run_cell(scenario: Scenario, points: &[Vec<f64>], kill_tick: u64, gold: &Fingerprint) -> Cell {
    // Victim run: killed right after tick `kill_tick` completes. Only
    // its write-ahead blob survives the crash.
    let mut victim = engine(scenario);
    let kill_point = usize::try_from(kill_tick).expect("small constant") * TICK_EVERY;
    feed(&mut victim, points, 0, kill_point);
    let wal = victim.wal().map(<[u8]>::to_vec);
    drop(victim);

    // Recovery: restore from the blob (or start cold when the crash
    // predates the first capture), then replay the suffix.
    let (mut recovered, snapshot_tick, blob_bytes) = match &wal {
        Some(blob) => {
            let tick = EngineSnapshot::decode(blob)
                .expect("own blob decodes")
                .tick();
            let restored = StreamEngine::restore_with(
                encoder(),
                blob,
                CostModel::paper(),
                scenario.fault_config(),
            )
            .expect("own blob restores");
            assert_eq!(restored.now(), tick, "restore resumes the captured clock");
            (restored, tick, blob.len())
        }
        None => (engine(scenario), 0, 0),
    };
    let resume_point = usize::try_from(snapshot_tick).expect("small constant") * TICK_EVERY;
    feed(&mut recovered, points, resume_point, points.len());
    recovered.drain().expect("drain");

    let got = fingerprint(&recovered);
    assert_eq!(
        got.stable_json,
        gold.stable_json,
        "stable obs JSON diverged: policy={} kill_tick={kill_tick}",
        scenario.name()
    );
    assert_eq!(
        got.clusters,
        gold.clusters,
        "centroid bits diverged: policy={} kill_tick={kill_tick}",
        scenario.name()
    );
    assert_eq!(
        (got.time_ns_bits, got.energy_pj_bits),
        (gold.time_ns_bits, gold.energy_pj_bits),
        "energy ledger diverged: policy={} kill_tick={kill_tick}",
        scenario.name()
    );
    assert_eq!(
        got.fault_status,
        gold.fault_status,
        "fault status diverged: policy={} kill_tick={kill_tick}",
        scenario.name()
    );
    assert_eq!(
        got.wear,
        gold.wear,
        "wear counts diverged: policy={} kill_tick={kill_tick}",
        scenario.name()
    );

    Cell {
        policy: scenario.name(),
        kill_tick,
        snapshot_tick,
        blob_bytes,
        replayed_points: points.len() - resume_point,
        stable_digest: fnv1a64(got.stable_json.as_bytes()),
    }
}

/// Seeded kill-tick schedule: always exercise a crash before the first
/// capture and one at the very last tick, plus two xorshift-drawn
/// mid-run ticks.
fn kill_schedule(seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    let mut draw = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Mid-run: ticks [SNAPSHOT_EVERY, TOTAL_TICKS - 1].
        SNAPSHOT_EVERY + x % (TOTAL_TICKS - SNAPSHOT_EVERY)
    };
    let mut ticks = vec![SNAPSHOT_EVERY - 2, draw(), draw(), TOTAL_TICKS];
    ticks.sort_unstable();
    ticks.dedup();
    ticks
}

/// The report in the workspace's byte-stable JSON idiom: fixed key
/// order, integer-only fields, no wall-clock values.
fn to_json(seed: u64, cells: &[Cell]) -> String {
    JsonObject::new()
        .field("version", 1)
        .field("dim", DIM)
        .field("clusters", CLUSTERS)
        .field("centroids_per_cluster", CENTROIDS_PER_CLUSTER)
        .field("shards", SHARDS)
        .field("tick_every", TICK_EVERY)
        .field("total_ticks", TOTAL_TICKS)
        .field("snapshot_every", SNAPSHOT_EVERY)
        .field("plan_seed", PLAN_SEED)
        .field("stream_seed", seed)
        .records(
            "cells",
            cells.iter().map(|c| {
                JsonObject::new()
                    .str("policy", c.policy)
                    .field("kill_tick", c.kill_tick)
                    .field("snapshot_tick", c.snapshot_tick)
                    .field("blob_bytes", c.blob_bytes)
                    .field("replayed_points", c.replayed_points)
                    .field(
                        "stable_digest",
                        format_args!("\"{:016x}\"", c.stable_digest),
                    )
            }),
        )
        .pretty()
}

fn main() {
    let (out_path, seed) = out_seed_args(
        "recovery_harness",
        std::env::args().skip(1),
        "results/recovery_report.json",
        STREAM_SEED,
    )
    .unwrap_or_else(exit_usage);

    let points = workload(seed);
    let kills = kill_schedule(seed);
    println!(
        "recovery_harness: {} points, {TOTAL_TICKS} ticks, capture every {SNAPSHOT_EVERY}, kill schedule {kills:?}, stream seed {seed}\n",
        points.len()
    );
    println!(
        "  {:<7} {:>9} {:>13} {:>10} {:>15} {:>18} {:>7}",
        "policy",
        "kill_tick",
        "snapshot_tick",
        "blob_bytes",
        "replayed_points",
        "stable_digest",
        "sec"
    );

    let mut cells = Vec::new();
    for scenario in [
        Scenario::Pristine,
        Scenario::HealingOff,
        Scenario::FullHealing,
    ] {
        // The uninterrupted gold run this scenario's recoveries must
        // reproduce bit-for-bit.
        let mut gold_engine = engine(scenario);
        feed(&mut gold_engine, &points, 0, points.len());
        gold_engine.drain().expect("drain");
        let gold = fingerprint(&gold_engine);
        drop(gold_engine);

        for &kill_tick in &kills {
            let t0 = WallClock::start();
            let cell = run_cell(scenario, &points, kill_tick, &gold);
            println!(
                "  {:<7} {:>9} {:>13} {:>10} {:>15} {:>18} {:>7.2}",
                cell.policy,
                cell.kill_tick,
                cell.snapshot_tick,
                cell.blob_bytes,
                cell.replayed_points,
                format!("{:016x}", cell.stable_digest),
                t0.elapsed_s()
            );
            cells.push(cell);
        }
    }

    println!(
        "\nall {} recovery cells reproduced their gold runs bit-for-bit",
        cells.len()
    );
    write_out(&out_path, to_json(seed, &cells)).expect("writable output path");
    println!("report written to {out_path} (deterministic fields only)");
}
