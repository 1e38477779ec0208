//! Differential suite for the deterministic parallel kernel layer.
//!
//! Every parallel kernel in the workspace promises **bit-identical**
//! results to its serial counterpart for any thread count. These tests
//! enforce that promise with exact comparisons — `f64::to_bits`
//! equality for floating-point outputs, `==` for integer/bit outputs —
//! across the degenerate and boundary thread counts {0 (auto), 1, 2,
//! 3, 8} and dataset sizes around chunking edges {0, 1, 2, 63, 64, 65}.

use dual_cluster::{CondensedMatrix, Dbscan, HammingKMeans, KMeans};
use dual_core::{DualAccelerator, DualConfig};
use dual_hdc::{search, Hypervector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 5] = [0, 1, 2, 3, 8];
const SIZES: [usize; 6] = [0, 1, 2, 63, 64, 65];

fn euclid_points(n: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..m).map(|_| rng.gen_range(-10.0..10.0)).collect())
        .collect()
}

fn hypervectors(n: usize, dim: usize, seed: u64) -> Vec<Hypervector> {
    (0..n)
        .map(|i| dual_hdc::random_hypervector(dim, seed.wrapping_add(i as u64)))
        .collect()
}

/// Exact bit equality for float vectors — `==` would also accept
/// `-0.0 == 0.0` and reject NaN; the kernels promise stronger.
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: entry {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn condensed_matrix_parallel_is_bit_identical() {
    for &n in &SIZES {
        let pts = euclid_points(n, 3, 42 + n as u64);
        let serial = CondensedMatrix::from_points(&pts, dual_cluster::euclidean);
        for &threads in &THREADS {
            let par = CondensedMatrix::from_points_parallel(&pts, threads, |a, b| {
                dual_cluster::euclidean(a, b)
            });
            assert_eq!(par.n(), serial.n());
            let (sv, pv): (Vec<f64>, Vec<f64>) = (
                serial.iter_pairs().map(|(_, _, d)| d).collect(),
                par.iter_pairs().map(|(_, _, d)| d).collect(),
            );
            assert_bits_eq(&sv, &pv, &format!("condensed n={n} threads={threads}"));
        }
    }
}

#[test]
fn kmeans_parallel_is_bit_identical() {
    // Sizes crossing the 1024-point fixed-block boundary matter here:
    // the centroid sums are folded block-by-block.
    for &n in &[2usize, 63, 64, 65, 1024, 1500] {
        let pts = euclid_points(n, 3, 7 + n as u64);
        let k = 3.min(n);
        let serial = KMeans::new(k)
            .unwrap()
            .seed(5)
            .threads(1)
            .fit(&pts)
            .unwrap();
        for &threads in &THREADS {
            let par = KMeans::new(k)
                .unwrap()
                .seed(5)
                .threads(threads)
                .fit(&pts)
                .unwrap();
            assert_eq!(par.labels, serial.labels, "n={n} threads={threads}");
            assert_eq!(par.iterations, serial.iterations, "n={n} threads={threads}");
            assert_eq!(
                par.inertia.to_bits(),
                serial.inertia.to_bits(),
                "inertia n={n} threads={threads}"
            );
            for (c, (pc, sc)) in par.centers.iter().zip(&serial.centers).enumerate() {
                assert_bits_eq(pc, sc, &format!("center {c} n={n} threads={threads}"));
            }
        }
    }
}

#[test]
fn kmeans_rejects_consistently_regardless_of_threads() {
    for &threads in &THREADS {
        let r = KMeans::new(2).unwrap().threads(threads).fit(&[vec![1.0]]);
        assert!(r.is_err(), "threads={threads} must reject n < k");
    }
}

#[test]
fn hamming_kmeans_parallel_is_bit_identical() {
    for &n in &[2usize, 63, 64, 65] {
        let pts = hypervectors(n, 256, 11 + n as u64);
        let k = 3.min(n);
        let serial = HammingKMeans::new(k)
            .unwrap()
            .seed(9)
            .threads(1)
            .fit(&pts)
            .unwrap();
        for &threads in &THREADS {
            let par = HammingKMeans::new(k)
                .unwrap()
                .seed(9)
                .threads(threads)
                .fit(&pts)
                .unwrap();
            // Hypervector implements Eq: centers compare exactly.
            assert_eq!(par, serial, "n={n} threads={threads}");
        }
    }
}

#[test]
fn dbscan_parallel_is_identical() {
    for &n in &SIZES {
        let pts = euclid_points(n, 2, 23 + n as u64);
        let model = Dbscan::new(2.5, 3).unwrap();
        let serial = model.fit(&pts, dual_cluster::euclidean);
        for &threads in &THREADS {
            let par = model.fit_parallel(&pts, threads, dual_cluster::euclidean);
            assert_eq!(par, serial, "n={n} threads={threads}");
        }
    }
}

#[test]
fn encode_parallel_matches_encode_for_degenerate_thread_counts() {
    let acc = DualAccelerator::new(DualConfig::paper().with_dim(256), 4, 3).unwrap();
    for &n in &SIZES {
        let pts = euclid_points(n, 4, 17 + n as u64);
        let serial = acc.encode(&pts).unwrap();
        // Degenerate counts the contract singles out: 0 (auto), 1, and
        // more threads than points — plus the usual spread.
        for threads in [0, 1, 2, 3, 8, n + 1, n.saturating_mul(4) + 13] {
            let par = acc.encode_parallel(&pts, threads).unwrap();
            assert_eq!(par, serial, "n={n} threads={threads}");
        }
    }
}

#[test]
fn stream_engine_snapshots_are_bit_identical_across_thread_counts() {
    use dual_hdc::HdMapper;
    use dual_stream::{StreamConfig, StreamEngine};

    // The full pipeline — ring, batcher, parallel encode, flat
    // assignment, decayed accumulators, cost meter — must export the
    // same snapshot for every thread count, including energy bits. The
    // shard count only sets fault-quarantine granularity, so sweeping it
    // on a fault-free run must move no bit either.
    let run = |threads: usize, shards: usize, max_batch: usize| {
        let encoder = HdMapper::builder(256, 4)
            .seed(3)
            .sigma(4.0)
            .build()
            .unwrap();
        let mut cfg = StreamConfig::new(4);
        cfg.threads = threads;
        cfg.shards = shards;
        cfg.max_batch = max_batch;
        cfg.max_ticks = 3;
        cfg.decay = 0.85;
        cfg.centroids_per_cluster = 2;
        let mut engine = StreamEngine::new(encoder, cfg).unwrap();
        let mut stream = dual_data::DriftSpec::new(4, 4).stream(99);
        for i in 0..300 {
            let (point, _) = stream.next().unwrap();
            engine.push(&point).unwrap();
            if i % 7 == 6 {
                engine.tick().unwrap();
            }
        }
        engine.drain().unwrap();
        engine.snapshot()
    };
    // The encode stage tiles each thread's chunk 16 points at a time.
    // 32 is whole tiles at one thread and sub-tile chunks at eight; 21
    // and 37 leave a short tile and a one-point tail; 5 never fills one.
    for max_batch in [32usize, 21, 37, 5] {
        let gold = run(1, 1, max_batch);
        for &threads in &THREADS {
            for shards in [1usize, 2, 3, 8] {
                let snap = run(threads, shards, max_batch);
                let tag = format!("threads={threads} shards={shards} max_batch={max_batch}");
                assert_eq!(snap.clusters, gold.clusters, "centroids differ {tag}");
                assert_eq!(snap.counters, gold.counters, "{tag}");
                assert_eq!(
                    snap.energy_pj.to_bits(),
                    gold.energy_pj.to_bits(),
                    "energy differs {tag}"
                );
                assert_eq!(
                    snap.time_ns.to_bits(),
                    gold.time_ns.to_bits(),
                    "latency differs {tag}"
                );
            }
        }
    }
}

#[test]
fn assign_batch_matches_nearest_for_all_shapes() {
    // Six centroids take the per-centroid scan, 300 the bit-sliced
    // codebook; both must return the serial `nearest` of every query.
    for n_centroids in [6usize, 300] {
        let centroids = hypervectors(n_centroids, 256, 77);
        for &n in &SIZES {
            let queries = hypervectors(n, 256, 51 + n as u64);
            let want: Vec<(usize, usize)> = queries
                .iter()
                .map(|q| search::nearest(q, &centroids).expect("centroids are non-empty"))
                .collect();
            for &threads in &THREADS {
                assert_eq!(
                    search::assign_batch(&queries, &centroids, threads),
                    want,
                    "assign_batch centroids={n_centroids} n={n} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn pool_primitives_are_thread_count_invariant() {
    use dual_pool as pool;
    let data: Vec<u64> = (0..1000).map(|i| i * 2654435761 % 97).collect();
    let serial_sum: u64 = data.iter().sum();
    for &threads in &THREADS {
        // par_map_chunks preserves order and content.
        let doubled = pool::par_map_chunks(&data, threads, |_, chunk| {
            chunk.iter().map(|&x| x * 2).collect()
        });
        assert_eq!(doubled.len(), data.len());
        assert!(doubled.iter().zip(&data).all(|(&d, &x)| d == 2 * x));
        // par_map_ranges partials, folded serially in chunk order.
        let partials = pool::par_map_ranges(data.len(), threads, |range| {
            range.map(|i| data[i]).sum::<u64>()
        });
        assert_eq!(
            partials.iter().sum::<u64>(),
            serial_sum,
            "threads={threads}"
        );
    }
}

/// The multi-tenant topology service inherits the whole pipeline's
/// determinism contract: for a fixed push/tick schedule, every
/// tenant's stable obs JSON, centroid bits, and energy ledger — plus
/// the topology's merged `stable_json` export — must be invariant
/// under the engine thread count and shard count.
#[test]
fn topology_sweep_is_bit_identical_across_thread_counts() {
    use dual_hdc::HdMapper;
    use dual_stream::{BackpressurePolicy, StreamConfig};
    use dual_topology::{QuotaSpec, TenantSpec, Topology};

    let run = |threads: usize, shards: usize| {
        let config = |k: usize| {
            let mut cfg = StreamConfig::new(k);
            cfg.threads = threads;
            cfg.shards = shards;
            cfg.capacity = 64;
            cfg.max_batch = 32;
            cfg.max_ticks = 3;
            cfg.decay = 0.85;
            cfg.centroids_per_cluster = 2;
            cfg
        };
        let specs = vec![
            TenantSpec::new("alpha", config(3)).with_quota(QuotaSpec::unlimited()),
            TenantSpec::new("beta", config(4)).with_quota(
                QuotaSpec::per_tick(40_000.0).with_escalation(BackpressurePolicy::DropOldest),
            ),
            TenantSpec::new("gamma", config(2))
                .with_quota(QuotaSpec::per_tick(500.0).with_escalation(BackpressurePolicy::Reject)),
        ];
        let mut seed = 0;
        let mut topo = Topology::build(specs, |_| {
            seed += 1;
            HdMapper::builder(256, 4).seed(seed).build().expect("valid")
        })
        .expect("valid roster");
        let streams: Vec<(String, Vec<Vec<f64>>)> = ["alpha", "beta", "gamma"]
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let k = topo.engine(name).expect("registered").config().k;
                let pts = dual_data::DriftSpec::new(4, k)
                    .stream(99 + i as u64)
                    .take(300)
                    .map(|(p, _)| p)
                    .collect();
                (name.to_string(), pts)
            })
            .collect();
        for step in 0..300 {
            for (name, pts) in &streams {
                topo.push(name, &pts[step]).expect("well-shaped");
            }
            if step % 7 == 6 {
                topo.tick().expect("tick");
            }
        }
        topo.drain_all().expect("drain");
        let per_tenant: Vec<_> = ["alpha", "beta", "gamma"]
            .iter()
            .map(|name| {
                let s = topo.status(name).expect("registered");
                (
                    s.snapshot.clusters.clone(),
                    s.snapshot.energy_pj.to_bits(),
                    s.quota_rejected,
                    s.quota_shed,
                    s.deferred_ticks,
                )
            })
            .collect();
        (
            topo.stable_json(),
            per_tenant,
            topo.totals().energy_pj.to_bits(),
        )
    };

    let gold = run(1, 1);
    for &threads in &THREADS {
        for shards in [1usize, 2, 8] {
            let got = run(threads, shards);
            assert_eq!(
                got.0, gold.0,
                "topology stable_json differs threads={threads} shards={shards}"
            );
            assert_eq!(
                got.1, gold.1,
                "per-tenant state differs threads={threads} shards={shards}"
            );
            assert_eq!(
                got.2, gold.2,
                "total energy bits differ threads={threads} shards={shards}"
            );
        }
    }
}

/// The dual-obs determinism contract (DESIGN.md §7): every metric a
/// kernel records must be invariant under the thread count, so the
/// byte-stable JSON export of a local registry is a fixed point across
/// `DUAL_THREADS`-style sweeps. Counters that *are* allowed to vary
/// (pool task spawns, bench wall-clock) are excluded
/// from `stable_snapshot` by construction — this test locks the whole
/// stable surface at once.
#[test]
fn obs_stable_snapshots_are_byte_identical_across_thread_counts() {
    // Lloyd's k-means over euclidean points.
    let pts = euclid_points(96, 3, 991);
    let kmeans_json = |threads: usize| {
        let reg = dual_obs::Registry::new();
        KMeans::new(4)
            .expect("k > 0")
            .max_iters(8)
            .threads(threads)
            .fit_recorded(&pts, &reg)
            .expect("n >= k");
        reg.stable_snapshot().to_json()
    };
    // Binary k-means over hypervectors.
    let hvs = hypervectors(80, 256, 1234);
    let hamming_json = |threads: usize| {
        let reg = dual_obs::Registry::new();
        HammingKMeans::new(5)
            .expect("k > 0")
            .max_iters(8)
            .threads(threads)
            .fit_recorded(&hvs, &reg)
            .expect("n >= k");
        reg.stable_snapshot().to_json()
    };
    // DBSCAN: precomputed neighbor lists built by `threads` workers.
    let db = Dbscan::new(3.0, 4).expect("valid params");
    let dbscan_json = |threads: usize| {
        let reg = dual_obs::Registry::new();
        db.fit_recorded(&pts, threads, dual_cluster::euclidean, &reg);
        reg.stable_snapshot().to_json()
    };
    // Streaming engine: full pipeline into its private registry.
    let stream_json = |threads: usize| {
        let mapper = dual_hdc::HdMapper::new(128, 3, 7).expect("valid");
        let mut cfg = dual_stream::StreamConfig::new(3);
        cfg.threads = threads;
        cfg.max_batch = 16;
        cfg.decay = 0.9;
        let mut engine = dual_stream::StreamEngine::new(mapper, cfg).expect("valid config");
        for (i, p) in pts.iter().enumerate() {
            engine.push(p).expect("well-shaped");
            if i % 10 == 9 {
                engine.tick().expect("tick");
            }
        }
        engine.drain().expect("drain");
        engine.obs_registry().stable_snapshot().to_json()
    };

    let golds = [
        ("kmeans", kmeans_json(1)),
        ("hamming_kmeans", hamming_json(1)),
        ("dbscan", dbscan_json(1)),
        ("stream", stream_json(1)),
    ];
    for &threads in &THREADS {
        let runs = [
            ("kmeans", kmeans_json(threads)),
            ("hamming_kmeans", hamming_json(threads)),
            ("dbscan", dbscan_json(threads)),
            ("stream", stream_json(threads)),
        ];
        for ((name, gold), (_, got)) in golds.iter().zip(&runs) {
            assert_eq!(
                gold, got,
                "{name} obs snapshot differs at threads={threads}"
            );
        }
        // The export must also carry real signal, not all-zero keys.
        assert!(
            runs[0].1.contains("\"cluster.kmeans.iterations\":"),
            "snapshot must name the kmeans iteration counter"
        );
    }
}
