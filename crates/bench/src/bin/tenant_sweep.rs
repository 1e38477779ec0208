//! Multi-tenant topology sweep: 4 named tenants with distinct
//! `DriftSpec` workloads and quota tiers sharing one `dual-topology`
//! service, proving the two contracts `crates/topology` sells:
//!
//! * **Isolation** — the sweep runs twice, once with tenant `delta`
//!   under a deterministic fault storm (2 % composite rate, full
//!   healing) and once with `delta` clean. Every OTHER tenant's
//!   outputs — stable obs JSON, learned sub-centroid bits, energy
//!   `f64` bits, held-out evaluation labels — must be byte-identical
//!   between the two runs. Any divergence panics (CI fails).
//! * **Exact energy accounting** — the per-tenant `StreamMeter`
//!   ledgers, re-summed in registration order, must reproduce
//!   `Topology::totals().energy_pj` bit-for-bit.
//!
//! The service also arms a `deferral-storm` alert on the scheduler's
//! deferral count, which the starved and shedding tiers must fire; the
//! report pins the service flight recorder's accounting and an FNV-1a
//! digest of the merged `Topology::trace_report`.
//!
//! ```text
//! cargo run --release -p dual-bench --bin tenant_sweep [--out PATH] [--seed N]
//! ```
//!
//! Every JSON field is a deterministic function of the seeds —
//! byte-stable across machines, reruns, and `DUAL_THREADS` (wall-clock
//! timing goes to stdout only). `ci.sh --stage topology` diffs the
//! report across thread counts and against the committed artifact.

use dual_bench::{exit_usage, out_seed_args, recorder_json, write_out, JsonObject};
use dual_data::DriftSpec;
use dual_fault::{FaultPlan, FaultPlanSpec, HealingPolicy};
use dual_hdc::{search, Encoder, HdMapper, Hypervector};
use dual_obs::{Key, WallClock};
use dual_pim::CostModel;
use dual_snap::fnv1a64;
use dual_stream::{BackpressurePolicy, FaultConfig, StreamConfig};
use dual_topology::{QuotaSpec, TenantSpec, Topology};
use dual_trace::{AlertRule, Signal};

const DIM: usize = 1000;
const FEATURES: usize = 12;
const CENTROIDS_PER_CLUSTER: usize = 2;
const SHARDS: usize = 4;
const SPARES: usize = 4;
const TRAIN_POINTS: usize = 1024;
const EVAL_POINTS: usize = 256;
const TICK_EVERY: usize = 64;
const STREAM_SEED: u64 = 42;
const EVAL_SEED: u64 = 9001;
const PLAN_SEED: u64 = 0x70_0F0;
/// Composite fault rate of delta's storm run (stuck + dead-row, flips
/// at half): the top of `fault_sweep`'s degradation surface.
const STORM_RATE: f64 = 0.02;

/// The declarative tenant roster: four tenants, four workloads, three
/// quota tiers.
struct TenantDef {
    name: &'static str,
    k: usize,
    drift_rate: f64,
    radius: f64,
    /// Ingest ring capacity: small enough on the shedding tier that a
    /// quota-deferred backlog actually overflows.
    capacity: usize,
    /// `None` = unlimited.
    budget_pj_per_tick: Option<f64>,
    escalation: BackpressurePolicy,
}

const TENANTS: [TenantDef; 4] = [
    // Premium: no quota, slow drift.
    TenantDef {
        name: "atlas",
        k: 4,
        drift_rate: 1e-3,
        radius: 1.0,
        capacity: 2048,
        budget_pj_per_tick: None,
        escalation: BackpressurePolicy::Block,
    },
    // Standard: under-provisioned budget + small ring, so quota
    // deferral backs the ring up and DropOldest actually sheds.
    TenantDef {
        name: "bravo",
        k: 8,
        drift_rate: 5e-3,
        radius: 1.5,
        capacity: 128,
        budget_pj_per_tick: Some(100_000.0),
        escalation: BackpressurePolicy::DropOldest,
    },
    // Free tier: starved budget, static blobs, rejected at the gate.
    TenantDef {
        name: "cinder",
        k: 2,
        drift_rate: 0.0,
        radius: 0.5,
        capacity: 2048,
        budget_pj_per_tick: Some(1_000.0),
        escalation: BackpressurePolicy::Reject,
    },
    // Premium on failing hardware: the fault-storm tenant.
    TenantDef {
        name: "delta",
        k: 6,
        drift_rate: 2e-3,
        radius: 1.0,
        capacity: 2048,
        budget_pj_per_tick: None,
        escalation: BackpressurePolicy::Block,
    },
];

/// Exact ratio of small counts (`≪ 2^53`).
fn ratio(num: usize, den: usize) -> f64 {
    (num as f64) / (den.max(1) as f64)
}

fn encoder(idx: usize) -> HdMapper {
    HdMapper::builder(DIM, FEATURES)
        .seed(7 + idx as u64)
        .sigma(6.0)
        .build()
        .expect("valid encoder spec")
}

fn stream_config(def: &TenantDef) -> StreamConfig {
    let mut cfg = StreamConfig::new(def.k);
    cfg.capacity = def.capacity;
    cfg.max_batch = 128;
    cfg.max_ticks = 8;
    cfg.centroids_per_cluster = CENTROIDS_PER_CLUSTER;
    cfg.decay = 0.95;
    cfg.shards = SHARDS;
    cfg
}

fn workload(def: &TenantDef) -> DriftSpec {
    let mut data = DriftSpec::new(FEATURES, def.k);
    data.drift_rate = def.drift_rate;
    data.radius = def.radius;
    data
}

fn storm_fault(def: &TenantDef) -> FaultConfig {
    let slots = def.k * CENTROIDS_PER_CLUSTER;
    let mut spec = FaultPlanSpec::clean(slots + SPARES, DIM);
    spec.seed = PLAN_SEED;
    spec.stuck_rate = STORM_RATE;
    spec.dead_row_rate = STORM_RATE;
    spec.flip_rate = STORM_RATE / 2.0;
    let plan = FaultPlan::new(spec).expect("valid fault spec");
    FaultConfig::new(plan).with_policy(HealingPolicy::Full {
        spares: SPARES,
        reads: 3,
    })
}

/// Everything one run observed about one tenant.
struct TenantOutcome {
    stable_json: String,
    clusters: Vec<Vec<Hypervector>>,
    energy_bits: u64,
    time_bits: u64,
    labels: Vec<usize>,
    ingested: u64,
    dropped: u64,
    quota_rejected: u64,
    quota_shed: u64,
    deferred_ticks: u64,
    batches: u64,
    points: u64,
    energy_pj: f64,
    injected: u64,
    healed: u64,
    /// `(p50, p95, p99)` of the tenant's batch-size histogram.
    batch_points_q: (u64, u64, u64),
}

struct RunResult {
    tenants: Vec<TenantOutcome>,
    topo_ticks: u64,
    total_energy_pj: f64,
    total_energy_bits: u64,
    /// The service recorder's accounting and the digest of the merged
    /// `Topology::trace_report` (service plus every tenant).
    service_trace: JsonObject,
    service_alerts: u64,
}

/// Build the 4-tenant topology, interleave every tenant's stream
/// through the shared scheduler, drain, and evaluate each tenant on
/// its own held-out stream.
fn run(storm: bool, seed: u64) -> RunResult {
    let mut topo = Topology::new();
    for (i, def) in TENANTS.iter().enumerate() {
        let quota = match def.budget_pj_per_tick {
            None => QuotaSpec::unlimited(),
            Some(pj) => QuotaSpec::per_tick(pj).with_escalation(def.escalation),
        };
        let spec = TenantSpec::new(def.name, stream_config(def)).with_quota(quota);
        let fault = (storm && def.name == "delta").then(|| storm_fault(def));
        topo.add_tenant_with(spec, encoder(i), CostModel::paper(), fault)
            .expect("valid tenant spec");
    }
    // A service alert on the scheduler's deferrals: it reads only the
    // service registry, so no tenant's outputs move.
    topo.set_alerts(vec![AlertRule::edge(
        "deferral-storm",
        Signal::Delta(Key::TopoDeferred),
        1.0,
    )])
    .expect("valid alert rules");

    // Materialize every tenant's training stream up front, then
    // interleave point-by-point so all tenants contend on the same
    // push/tick schedule.
    let streams: Vec<Vec<Vec<f64>>> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, def)| {
            workload(def)
                .stream(seed + i as u64)
                .take(TRAIN_POINTS)
                .map(|(p, _)| p)
                .collect()
        })
        .collect();
    // The index drives all four streams in lockstep plus the tick
    // cadence — an iterator rewrite would obscure the interleave.
    for step in 0..TRAIN_POINTS {
        for (def, stream) in TENANTS.iter().zip(&streams) {
            topo.push(def.name, &stream[step])
                .expect("well-shaped point");
        }
        if (step + 1) % TICK_EVERY == 0 {
            topo.tick().expect("tick");
        }
    }
    topo.drain_all().expect("drain");

    // The exact-sum invariant: per-tenant ledgers folded in
    // registration order must reproduce the topology totals
    // bit-for-bit.
    let totals = topo.totals();
    let mut ledger_sum = 0.0f64;
    for def in &TENANTS {
        ledger_sum += topo
            .engine(def.name)
            .expect("registered tenant")
            .meter()
            .total()
            .energy_pj();
    }
    assert_eq!(
        totals.energy_pj.to_bits(),
        ledger_sum.to_bits(),
        "per-tenant energy ledgers must sum exactly to the topology total"
    );

    let tenants = TENANTS
        .iter()
        .enumerate()
        .map(|(i, def)| {
            let engine = topo.engine(def.name).expect("registered tenant");
            let eval: Vec<Hypervector> = workload(def)
                .stream(EVAL_SEED + i as u64)
                .take(EVAL_POINTS)
                .map(|(p, _)| engine.encoder().encode(&p).expect("well-shaped point"))
                .collect();
            let centroids = engine.model().centroids().to_vec();
            let labels: Vec<usize> = search::assign_batch(&eval, &centroids, 1)
                .into_iter()
                .map(|(slot, _)| slot % def.k)
                .collect();
            let snap = engine.snapshot();
            let status = topo.status(def.name).expect("registered tenant");
            let fault = engine.fault_status();
            TenantOutcome {
                stable_json: engine.obs_registry().stable_snapshot().to_json(),
                clusters: snap.clusters.clone(),
                energy_bits: snap.energy_pj.to_bits(),
                time_bits: snap.time_ns.to_bits(),
                labels,
                ingested: snap.counters.ingested,
                dropped: snap.counters.dropped,
                quota_rejected: status.quota_rejected,
                quota_shed: status.quota_shed,
                deferred_ticks: status.deferred_ticks,
                batches: snap.batches,
                points: snap.points,
                energy_pj: snap.energy_pj,
                injected: fault.as_ref().map_or(0, |s| s.injected),
                healed: fault.as_ref().map_or(0, |s| s.healed),
                batch_points_q: engine
                    .obs_registry()
                    .histogram(Key::StreamBatchPoints)
                    .summary_quantiles(),
            }
        })
        .collect();

    RunResult {
        tenants,
        topo_ticks: topo.now(),
        total_energy_pj: totals.energy_pj,
        total_energy_bits: totals.energy_pj.to_bits(),
        service_trace: recorder_json(topo.trace(), &topo.trace_report()),
        service_alerts: topo.trace().alerts_raised(),
    }
}

/// The report in the workspace's byte-stable JSON idiom: fixed key
/// order, fixed float formatting, no wall-clock fields.
fn to_json(seed: u64, storm: &RunResult, agreements: &[f64]) -> String {
    let tenants = TENANTS.iter().zip(&storm.tenants).zip(agreements);
    JsonObject::new()
        .field("version", 2)
        .field("train_points", TRAIN_POINTS)
        .field("eval_points", EVAL_POINTS)
        .field("dim", DIM)
        .field("stream_seed", seed)
        .field("plan_seed", PLAN_SEED)
        .field("storm_rate", STORM_RATE)
        .field("topology_ticks", storm.topo_ticks)
        .field(
            "total_energy_pj",
            format_args!("{:.4}", storm.total_energy_pj),
        )
        .field("total_energy_bits", storm.total_energy_bits)
        .field("ledger_sum_exact", true)
        .field("service_trace", &storm.service_trace)
        .records(
            "tenants",
            tenants.map(|((def, t), agreement)| {
                let budget = def
                    .budget_pj_per_tick
                    .map_or_else(|| "null".to_string(), |pj| format!("{pj:.1}"));
                let (p50, p95, p99) = t.batch_points_q;
                JsonObject::new()
                    .str("name", def.name)
                    .field("clusters", def.k)
                    .field("drift_rate", def.drift_rate)
                    .field("budget_pj_per_tick", budget)
                    .str("escalation", def.escalation.name())
                    .field("ingested", t.ingested)
                    .field("dropped", t.dropped)
                    .field("quota_rejected", t.quota_rejected)
                    .field("quota_shed", t.quota_shed)
                    .field("deferred_ticks", t.deferred_ticks)
                    .field("batches", t.batches)
                    .field("points", t.points)
                    .field(
                        "batch_points",
                        JsonObject::new()
                            .field("p50", p50)
                            .field("p95", p95)
                            .field("p99", p99),
                    )
                    .field("energy_pj", format_args!("{:.4}", t.energy_pj))
                    .field("energy_bits", t.energy_bits)
                    .field("time_bits", t.time_bits)
                    .field("injected", t.injected)
                    .field("healed", t.healed)
                    .field("stable_digest", fnv1a64(t.stable_json.as_bytes()))
                    .field("storm_agreement", format_args!("{agreement:.4}"))
            }),
        )
        .pretty()
}

fn main() {
    let (out_path, seed) = out_seed_args(
        "tenant_sweep",
        std::env::args().skip(1),
        "results/topology_report.json",
        STREAM_SEED,
    )
    .unwrap_or_else(exit_usage);

    println!(
        "tenant_sweep: {} tenants x {TRAIN_POINTS} points, D={DIM}, storm rate {STORM_RATE} on \"delta\", stream seed {seed}\n",
        TENANTS.len()
    );

    let t0 = WallClock::start();
    let calm = run(false, seed);
    println!("  calm run  ({:.2}s)", t0.elapsed_s());
    let t1 = WallClock::start();
    let storm = run(true, seed);
    println!("  storm run ({:.2}s)\n", t1.elapsed_s());

    // Isolation: delta's fault storm must leave every other tenant
    // bit-identical — same metrics, same learned centroid bits, same
    // energy ledger, same evaluation labels.
    let mut agreements = Vec::with_capacity(TENANTS.len());
    for (i, def) in TENANTS.iter().enumerate() {
        let (c, s) = (&calm.tenants[i], &storm.tenants[i]);
        let matches = s
            .labels
            .iter()
            .zip(&c.labels)
            .filter(|(a, b)| a == b)
            .count();
        agreements.push(ratio(matches, c.labels.len()));
        if def.name != "delta" {
            assert_eq!(
                c.stable_json, s.stable_json,
                "tenant {} obs snapshot changed under delta's fault storm",
                def.name
            );
            assert_eq!(
                c.clusters, s.clusters,
                "tenant {} centroids changed under delta's fault storm",
                def.name
            );
            assert_eq!(
                c.energy_bits, s.energy_bits,
                "tenant {} energy ledger changed under delta's fault storm",
                def.name
            );
            assert_eq!(
                c.labels, s.labels,
                "tenant {} evaluation labels changed under delta's fault storm",
                def.name
            );
        }
    }

    // The quota tiers must actually bite: bravo sheds under deferral
    // backlog, cinder starves at the gate, delta's storm actually
    // injects faults.
    let bravo = &storm.tenants[1];
    assert!(
        bravo.quota_shed > 0 && bravo.deferred_ticks > 0,
        "bravo's under-provisioned quota must defer ticks and shed backlog"
    );
    let cinder = &storm.tenants[2];
    assert!(
        cinder.quota_rejected > 0 && cinder.deferred_ticks > 0,
        "cinder's starved quota must reject pushes and defer ticks"
    );
    let delta = &storm.tenants[3];
    assert!(
        delta.injected > 0,
        "delta's storm run must actually inject faults"
    );
    assert!(
        storm.service_alerts > 0,
        "the deferral-storm service alert must fire"
    );

    println!(
        "  {:<8} {:>6} {:>12} {:<10} {:>8} {:>9} {:>7} {:>8} {:>7} {:>14} {:>9}",
        "tenant",
        "k",
        "budget_pj",
        "escalation",
        "ingested",
        "rejected",
        "shed",
        "deferred",
        "batches",
        "energy_pj",
        "agreement"
    );
    for (i, (def, t)) in TENANTS.iter().zip(&storm.tenants).enumerate() {
        let budget = def
            .budget_pj_per_tick
            .map_or_else(|| "unlimited".to_string(), |pj| format!("{pj:.0}"));
        println!(
            "  {:<8} {:>6} {:>12} {:<10} {:>8} {:>9} {:>7} {:>8} {:>7} {:>14.1} {:>9.4}",
            def.name,
            def.k,
            budget,
            def.escalation.name(),
            t.ingested,
            t.quota_rejected,
            t.quota_shed,
            t.deferred_ticks,
            t.batches,
            t.energy_pj,
            agreements[i]
        );
    }
    println!(
        "\n  isolation: atlas/bravo/cinder byte-identical under delta's storm (agreement 1.0000)"
    );
    println!(
        "  exact energy sum: {} pJ total, ledger fold bit-identical",
        format_args!("{:.1}", storm.total_energy_pj)
    );
    println!("  service recorder: {} alerts raised", storm.service_alerts);

    write_out(&out_path, to_json(seed, &storm, &agreements)).expect("writable output path");
    println!("report written to {out_path} (deterministic fields only)");
}
