//! Criterion micro-benchmarks of the substrate kernels so regressions
//! in the software simulator are visible.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dual_cluster::{
    hamming_lloyd_step, AgglomerativeClustering, CentroidAccumulator, CondensedMatrix, Dbscan,
    KMeans, Linkage,
};
use dual_core::DualConfig;
use dual_hdc::{BitVec, Encoder, HdMapper};
use dual_pim::{nearest_search, MemoryBlock, NorEngine};

fn bench_hamming(c: &mut Criterion) {
    let a: BitVec = (0..4000).map(|i| i % 3 == 0).collect();
    let b: BitVec = (0..4000).map(|i| i % 5 == 0).collect();
    c.bench_function("hamming_4000bit", |bench| {
        bench.iter(|| std::hint::black_box(a.hamming(&b)))
    });
}

fn bench_encoding(c: &mut Criterion) {
    let mapper = HdMapper::new(2000, 64, 7).expect("valid");
    let feats: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
    c.bench_function("hdmapper_encode_2000x64", |bench| {
        bench.iter(|| std::hint::black_box(mapper.encode(&feats).expect("valid")))
    });
}

fn bench_nor_adder(c: &mut Criterion) {
    c.bench_function("nor_add_16bit_1024rows", |bench| {
        bench.iter_batched(
            || {
                let mut e = NorEngine::new(1024, 128).expect("valid");
                let a: Vec<usize> = (0..16).collect();
                let b: Vec<usize> = (16..32).collect();
                let out: Vec<usize> = (32..49).collect();
                let vals: Vec<u64> = (0..1024).map(|i| i as u64 % 65536).collect();
                e.write_field_all(&a, &vals).expect("fits");
                e.write_field_all(&b, &vals).expect("fits");
                (e, a, b, out)
            },
            |(mut e, a, b, out)| e.add(&a, &b, &out, 64).expect("valid"),
            BatchSize::SmallInput,
        )
    });
}

fn bench_cam_search(c: &mut Criterion) {
    let mut blk = MemoryBlock::new(1024, 64);
    for r in 0..1024 {
        let bits: Vec<bool> = (0..64).map(|i| (i + r) % 3 == 0).collect();
        blk.write_row_bits(r, &bits);
    }
    let query: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
    c.bench_function("cam_hamming_64bit_1024rows", |bench| {
        bench.iter(|| std::hint::black_box(blk.cam_hamming_distance(&query)))
    });
}

fn bench_linkage(c: &mut Criterion) {
    let pts: Vec<Vec<f64>> = (0..128)
        .map(|i| vec![(i % 11) as f64, (i % 7) as f64])
        .collect();
    c.bench_function("agglomerative_ward_128pts", |bench| {
        bench.iter(|| {
            std::hint::black_box(AgglomerativeClustering::fit(
                &pts,
                Linkage::Ward,
                dual_cluster::squared_euclidean,
            ))
        })
    });
}

fn bench_nor_multiplier(c: &mut Criterion) {
    c.bench_function("nor_mul_8bit_1024rows", |bench| {
        bench.iter_batched(
            || {
                let mut e = NorEngine::new(1024, 256).expect("valid");
                let a: Vec<usize> = (0..8).collect();
                let b: Vec<usize> = (8..16).collect();
                let out: Vec<usize> = (16..32).collect();
                let vals: Vec<u64> = (0..1024).map(|i| i as u64 % 256).collect();
                e.write_field_all(&a, &vals).expect("fits");
                e.write_field_all(&b, &vals).expect("fits");
                (e, a, b, out)
            },
            |(mut e, a, b, out)| e.mul(&a, &b, &out, 64).expect("valid"),
            BatchSize::SmallInput,
        )
    });
}

fn bench_nearest_search(c: &mut Criterion) {
    let values: Vec<u64> = (0..4096).map(|i| (i * 2654435761u64) % 4096).collect();
    let active = vec![true; values.len()];
    c.bench_function("nearest_search_min_4096x12bit", |bench| {
        bench.iter(|| std::hint::black_box(nearest_search(&values, &active, 0, 12, 4)))
    });
}

/// Serial-vs-parallel pairs for every pool-backed kernel. On a
/// multi-core machine the `*_parallel` variant should win clearly for
/// n ≥ 2000; on a single core it documents the (small) chunking
/// overhead. Thread count comes from `DUAL_THREADS` / the core count
/// (`threads = 0` means "auto").
fn bench_parallel_pairs(c: &mut Criterion) {
    // Pairwise condensed distance matrix, n = 2000.
    let pts: Vec<Vec<f64>> = (0..2000)
        .map(|i| vec![(i % 37) as f64, (i % 11) as f64, (i % 5) as f64])
        .collect();
    c.bench_function("pairwise_condensed_2000pts_serial", |bench| {
        bench.iter(|| {
            std::hint::black_box(CondensedMatrix::from_points(&pts, dual_cluster::euclidean))
        })
    });
    c.bench_function("pairwise_condensed_2000pts_parallel", |bench| {
        bench.iter(|| {
            std::hint::black_box(CondensedMatrix::from_points_parallel(&pts, 0, |a, b| {
                dual_cluster::euclidean(a, b)
            }))
        })
    });

    // Lloyd's k-means, n = 2000, k = 8, fixed iteration budget.
    let km_serial = KMeans::new(8).expect("k > 0").max_iters(5).threads(1);
    let km_parallel = KMeans::new(8).expect("k > 0").max_iters(5).threads(0);
    c.bench_function("kmeans_2000pts_serial", |bench| {
        bench.iter(|| std::hint::black_box(km_serial.fit(&pts).expect("n >= k")))
    });
    c.bench_function("kmeans_2000pts_parallel", |bench| {
        bench.iter(|| std::hint::black_box(km_parallel.fit(&pts).expect("n >= k")))
    });

    // DBSCAN neighbor-list construction, n = 2000.
    let db = Dbscan::new(2.0, 4).expect("valid params");
    c.bench_function("dbscan_2000pts_serial", |bench| {
        bench.iter(|| std::hint::black_box(db.fit(&pts, dual_cluster::euclidean)))
    });
    c.bench_function("dbscan_2000pts_parallel", |bench| {
        bench.iter(|| std::hint::black_box(db.fit_parallel(&pts, 0, dual_cluster::euclidean)))
    });

    // Batch Hamming nearest search, 4096 candidates × 2048 bits.
    let cands: Vec<dual_hdc::Hypervector> = (0..4096)
        .map(|i| dual_hdc::random_hypervector(2048, i as u64))
        .collect();
    let query = dual_hdc::random_hypervector(2048, u64::MAX);
    c.bench_function("hamming_nearest_4096x2048_serial", |bench| {
        bench.iter(|| std::hint::black_box(dual_hdc::search::nearest(&query, &cands)))
    });

    // One `stream_codebook` assignment (256 queries, D = 1024) against
    // its 4 096-slot codebook, and at 128 and 256 candidates, either
    // side of the bit-sliced threshold in `dual_hdc::search`.
    let queries: Vec<dual_hdc::Hypervector> = (0..256)
        .map(|i| dual_hdc::random_hypervector(1024, u64::MAX - i))
        .collect();
    let codebook: Vec<dual_hdc::Hypervector> = (0..4096)
        .map(|i| dual_hdc::random_hypervector(1024, i))
        .collect();
    for n in [4096usize, 128, 256] {
        c.bench_function(&format!("assign_batch_256x{n}_d1024"), |bench| {
            bench.iter(|| {
                std::hint::black_box(dual_hdc::search::assign_batch(&queries, &codebook[..n], 1))
            })
        });
    }

    // One `topo_resilient` sense pass: 32 stored sub-centroids × 1024
    // cells read through a plan with that workload's rates, 3-read
    // majority, permanent-fault masks already cached.
    let mut spec = dual_fault::FaultPlanSpec::clean(40, 1024);
    spec.seed = 0xFA17;
    spec.stuck_rate = 1e-3;
    spec.dead_row_rate = 1e-3;
    spec.flip_rate = 5e-4;
    let plan = dual_fault::FaultPlan::new(spec).expect("valid spec");
    let masks: Vec<dual_fault::RowMasks> = (0..32)
        .map(|row| dual_fault::RowMasks::build(&plan, row))
        .collect();
    let stored: Vec<dual_hdc::Hypervector> = (0..32)
        .map(|i| dual_hdc::random_hypervector(1024, i))
        .collect();
    c.bench_function("sense_32x1024_reads3", |bench| {
        let mut out = [0u64; 16];
        bench.iter(|| {
            let mut bad = 0;
            for (m, hv) in masks.iter().zip(&stored) {
                let words = hv.bits().as_words();
                bad += dual_fault::sense_row(&plan, m, words, 1024, 7, 3, &mut out).bad;
                std::hint::black_box(&out);
            }
            std::hint::black_box(bad)
        })
    });

    // Batch encoding through the accelerator front-end, n = 256.
    let acc = dual_core::DualAccelerator::new(DualConfig::paper().with_dim(1024), 16, 3)
        .expect("valid encoder");
    let feats: Vec<Vec<f64>> = (0..256)
        .map(|i| {
            (0..16)
                .map(|j| ((i * 16 + j) as f64 * 0.13).sin())
                .collect()
        })
        .collect();
    c.bench_function("encode_256x1024_serial", |bench| {
        bench.iter(|| std::hint::black_box(acc.encode(&feats).expect("valid dims")))
    });
    c.bench_function("encode_256x1024_parallel", |bench| {
        bench.iter(|| std::hint::black_box(acc.encode_parallel(&feats, 0).expect("valid dims")))
    });

    // The shape `batch_offline`, `stream_codebook` and `topo_resilient`
    // share (16 features, σ = 4): a base row is 16 multiply-adds, so
    // the sign test is most of the work, where at 784 features it is a
    // tenth.
    let narrow = HdMapper::builder(4000, 16)
        .seed(7)
        .sigma(4.0)
        .build()
        .expect("valid");
    c.bench_function("encode_batch_256x16_d4000", |bench| {
        bench.iter(|| std::hint::black_box(narrow.encode_batch(&feats).expect("valid dims")))
    });

    // One `stream_wide` micro-batch (64 points × 784 features, D = 4000):
    // the tiled `encode_batch` against the same points one `encode` at a
    // time. Both produce the same bits; the pair shows what loading each
    // base row once per tile instead of once per point buys.
    let wide = HdMapper::builder(4000, 784)
        .seed(7)
        .sigma(28.0)
        .build()
        .expect("valid");
    let batch: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            (0..784)
                .map(|j| ((i * 784 + j) as f64 * 0.13).sin())
                .collect()
        })
        .collect();
    c.bench_function("encode_batch_64x784_d4000", |bench| {
        bench.iter(|| std::hint::black_box(wide.encode_batch(&batch).expect("valid dims")))
    });
    c.bench_function("encode_per_point_64x784_d4000", |bench| {
        bench.iter(|| {
            for p in &batch {
                std::hint::black_box(wide.encode(p).expect("valid dims"));
            }
        })
    });
    // One full `f32` tile, half of one, and one point on its own: their
    // ratios are how many stragglers `encode_batch` should encode one
    // at a time.
    for n in [32, 16, 1] {
        c.bench_function(&format!("encode_batch_{n}x784_d4000"), |bench| {
            bench.iter(|| std::hint::black_box(wide.encode_batch(&batch[..n]).expect("valid dims")))
        });
    }
}

/// The center update of Hamming k-means at `batch_offline`'s shape
/// (4 000 points, D = 4 000, k = 8): one whole Lloyd step (assign +
/// vote), the integer bit-sliced vote alone over one cluster's worth of
/// members, and one `f64` accumulate of the decayed stream path.
fn bench_center_update(c: &mut Criterion) {
    let points: Vec<dual_hdc::Hypervector> = (0..4000)
        .map(|i| dual_hdc::random_hypervector(4000, i))
        .collect();
    let centers: Vec<dual_hdc::Hypervector> = points.iter().step_by(500).cloned().collect();
    c.bench_function("lloyd_step_4000x4000_k8", |bench| {
        bench.iter(|| std::hint::black_box(hamming_lloyd_step(&points, &centers, 1)))
    });
    let members: Vec<&dual_hdc::Hypervector> = points.iter().take(500).collect();
    c.bench_function("majority_bundle_500x4000", |bench| {
        bench.iter(|| std::hint::black_box(dual_hdc::majority_bundle(&members).expect("members")))
    });
    let mut acc = CentroidAccumulator::new(4000);
    c.bench_function("accumulator_add_d4000", |bench| {
        bench.iter(|| acc.add(std::hint::black_box(&points[0])))
    });
    std::hint::black_box(acc.majority());
}

/// One `stream_codebook` online update: a 256-point batch observed into
/// a warm 128 × 32-slot model at D = 1024 with decay 0.95, assignment
/// included. The batches cycle through 16 fixed ones, so most slots go
/// untouched for several batches between their points.
fn bench_observe_batch(c: &mut Criterion) {
    let batches: Vec<Vec<dual_hdc::Hypervector>> = (0..16u64)
        .map(|b| {
            (0..256u64)
                .map(|i| dual_hdc::random_hypervector(1024, (b << 32) | i))
                .collect()
        })
        .collect();
    let seeds: Vec<dual_hdc::Hypervector> = (0..4096)
        .map(|i| dual_hdc::random_hypervector(1024, u64::MAX - i))
        .collect();
    let mut model = dual_stream::OnlineKMeans::new(1024, 128, 32, 0.95, 1);
    model.seed(&seeds).expect("4096 slots");
    let mut next = batches.iter().cycle();
    for _ in 0..batches.len() {
        model.observe_batch(next.next().expect("cycle"), 1);
    }
    c.bench_function("observe_batch_256_into_4096x1024", |bench| {
        bench.iter(|| {
            let batch = next.next().expect("cycle");
            std::hint::black_box(model.observe_batch(batch, 1).rebinarized)
        })
    });
}

/// One tick-end write-ahead capture of a `topo_resilient`-shaped tenant
/// (D = 1024, 16 features, 8 clusters × 4 slots, a 128-point ring and a
/// full 256-event trace ring, fault injection off): the snapshot tree
/// encoded into a reused buffer, as `StreamEngine`'s periodic WAL does,
/// and the whole `StreamEngine::checkpoint` of the same engine (settle,
/// capture, size pass, `snap.*` metrics, one encode into a fresh `Vec`).
fn bench_snapshot_encode(c: &mut Criterion) {
    let mapper = HdMapper::builder(1024, 16)
        .seed(7)
        .sigma(4.0)
        .build()
        .expect("valid");
    let mut cfg = dual_stream::StreamConfig::new(8);
    cfg.centroids_per_cluster = 4;
    cfg.max_batch = 32;
    cfg.capacity = 128;
    cfg.decay = 0.95;
    cfg.threads = 1;
    cfg.trace_capacity = 256;
    let mut engine = dual_stream::StreamEngine::new(mapper, cfg).expect("valid config");
    let seeds: Vec<dual_hdc::Hypervector> = (0..32)
        .map(|i| dual_hdc::random_hypervector(1024, i))
        .collect();
    engine.seed_centroids(&seeds).expect("32 slots");
    for i in 0..1600 {
        let p: Vec<f64> = (0..16)
            .map(|j| ((i * 16 + j) as f64 * 0.13).sin())
            .collect();
        engine.push(&p).expect("ring has room");
        if i % 32 == 31 {
            engine.tick().expect("tick");
        }
    }
    let snap = dual_snap::EngineSnapshot::decode(&engine.checkpoint()).expect("own blob");
    let mut buf = Vec::new();
    c.bench_function("snapshot_encode_into_32x1024", |bench| {
        bench.iter(|| {
            snap.encode_into(&mut buf);
            std::hint::black_box(buf.len())
        })
    });
    c.bench_function("engine_checkpoint_32x1024", |bench| {
        bench.iter(|| std::hint::black_box(engine.checkpoint().len()))
    });
}

/// No-op-vs-live `dual-obs` pair: the same k-means fit once with the
/// global registry uninstalled (every metrics site is a branch-on-null
/// no-op) and once recording into a live local [`dual_obs::Registry`].
/// The two bars should be indistinguishable — the CI-enforced bound is
/// the `obs_overhead` binary; this pair keeps the comparison visible
/// in the criterion reports.
fn bench_obs_pair(c: &mut Criterion) {
    let pts: Vec<Vec<f64>> = (0..2000)
        .map(|i| vec![(i % 37) as f64, (i % 11) as f64, (i % 5) as f64])
        .collect();
    let km = KMeans::new(8).expect("k > 0").max_iters(5).threads(1);
    c.bench_function("kmeans_2000pts_obs_noop", |bench| {
        bench.iter(|| std::hint::black_box(km.fit(&pts).expect("n >= k")))
    });
    let registry = dual_obs::Registry::new();
    c.bench_function("kmeans_2000pts_obs_recorded", |bench| {
        bench.iter(|| std::hint::black_box(km.fit_recorded(&pts, &registry).expect("n >= k")))
    });
}

criterion_group!(
    benches,
    bench_hamming,
    bench_encoding,
    bench_nor_adder,
    bench_nor_multiplier,
    bench_nearest_search,
    bench_cam_search,
    bench_linkage,
    bench_parallel_pairs,
    bench_center_update,
    bench_observe_batch,
    bench_snapshot_encode,
    bench_obs_pair
);
criterion_main!(benches);
