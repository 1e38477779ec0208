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
//! ```text
//! cargo run --release -p dual-bench --bin tenant_sweep [--out PATH] [--seed N]
//! ```
//!
//! Every JSON field is a deterministic function of the seeds —
//! byte-stable across machines, reruns, and `DUAL_THREADS` (wall-clock
//! timing goes to stdout only). `ci.sh --stage topology` diffs the
//! report across thread counts and against the committed artifact.

use std::fmt::Write as _;

use dual_data::DriftSpec;
use dual_fault::{FaultPlan, FaultPlanSpec, HealingPolicy};
use dual_hdc::{search, Encoder, HdMapper, Hypervector};
use dual_obs::wall::WallClock;
use dual_obs::Key;
use dual_pim::CostModel;
use dual_stream::{BackpressurePolicy, FaultConfig, StreamConfig};
use dual_topology::{QuotaSpec, TenantSpec, Topology};

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

/// FNV-1a 64 over bytes (the same digest `dual-snap` frames with).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    }
}

/// Hand-serialized report in the workspace's byte-stable JSON idiom:
/// fixed key order, fixed float formatting, no wall-clock fields.
fn to_json(seed: u64, storm: &RunResult, agreements: &[f64]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"version\": 2,\n");
    let _ = writeln!(out, "  \"train_points\": {TRAIN_POINTS},");
    let _ = writeln!(out, "  \"eval_points\": {EVAL_POINTS},");
    let _ = writeln!(out, "  \"dim\": {DIM},");
    let _ = writeln!(out, "  \"stream_seed\": {seed},");
    let _ = writeln!(out, "  \"plan_seed\": {PLAN_SEED},");
    let _ = writeln!(out, "  \"storm_rate\": {STORM_RATE},");
    let _ = writeln!(out, "  \"topology_ticks\": {},", storm.topo_ticks);
    let _ = writeln!(out, "  \"total_energy_pj\": {:.4},", storm.total_energy_pj);
    let _ = writeln!(out, "  \"total_energy_bits\": {},", storm.total_energy_bits);
    out.push_str("  \"ledger_sum_exact\": true,\n");
    out.push_str("  \"tenants\": [");
    for (i, (def, t)) in TENANTS.iter().zip(&storm.tenants).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(out, "\"name\": \"{}\", ", def.name);
        let _ = write!(out, "\"clusters\": {}, ", def.k);
        let _ = write!(out, "\"drift_rate\": {}, ", def.drift_rate);
        match def.budget_pj_per_tick {
            None => out.push_str("\"budget_pj_per_tick\": null, "),
            Some(pj) => {
                let _ = write!(out, "\"budget_pj_per_tick\": {pj:.1}, ");
            }
        }
        let _ = write!(out, "\"escalation\": \"{}\", ", def.escalation.name());
        let _ = write!(out, "\"ingested\": {}, ", t.ingested);
        let _ = write!(out, "\"dropped\": {}, ", t.dropped);
        let _ = write!(out, "\"quota_rejected\": {}, ", t.quota_rejected);
        let _ = write!(out, "\"quota_shed\": {}, ", t.quota_shed);
        let _ = write!(out, "\"deferred_ticks\": {}, ", t.deferred_ticks);
        let _ = write!(out, "\"batches\": {}, ", t.batches);
        let _ = write!(out, "\"points\": {}, ", t.points);
        let (p50, p95, p99) = t.batch_points_q;
        let _ = write!(
            out,
            "\"batch_points\": {{\"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}}}, "
        );
        let _ = write!(out, "\"energy_pj\": {:.4}, ", t.energy_pj);
        let _ = write!(out, "\"energy_bits\": {}, ", t.energy_bits);
        let _ = write!(out, "\"time_bits\": {}, ", t.time_bits);
        let _ = write!(out, "\"injected\": {}, ", t.injected);
        let _ = write!(out, "\"healed\": {}, ", t.healed);
        let _ = write!(
            out,
            "\"stable_digest\": {}, ",
            fnv1a64(t.stable_json.as_bytes())
        );
        let _ = write!(out, "\"storm_agreement\": {:.4}", agreements[i]);
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn main() {
    let mut out_path = String::from("results/topology_report.json");
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
            panic!("unknown argument `{arg}` (usage: tenant_sweep [--out PATH] [--seed N])");
        }
    }

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

    std::fs::create_dir_all("results").expect("can create results/");
    std::fs::write(&out_path, to_json(seed, &storm, &agreements)).expect("writable output path");
    println!("report written to {out_path} (deterministic fields only)");
}
