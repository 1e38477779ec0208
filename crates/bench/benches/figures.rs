//! Criterion benches over the figure-generation pipelines: evaluating
//! the analytical models must stay cheap (they are called thousands of
//! times by the sweeps), and a small end-to-end functional clustering
//! run guards the PIM path.

use criterion::{criterion_group, criterion_main, Criterion};
use dual_core::baseline::{Algorithm, GpuModel};
use dual_core::{DualAccelerator, DualConfig, PerfModel};

fn bench_perf_model(c: &mut Criterion) {
    let model = PerfModel::new(DualConfig::paper());
    c.bench_function("perf_model_hierarchical_60k", |b| {
        b.iter(|| std::hint::black_box(model.hierarchical(60_000).time_s()))
    });
    let gpu = GpuModel::gtx_1080();
    c.bench_function("gpu_model_all_algs_60k", |b| {
        b.iter(|| {
            for alg in Algorithm::all() {
                std::hint::black_box(gpu.cost(alg, 60_000, 784, 10, 20).time_s());
            }
        })
    });
}

fn bench_functional_accelerator(c: &mut Criterion) {
    let cfg = DualConfig::paper().with_dim(256);
    let accel = DualAccelerator::new(cfg, 4, 3).expect("valid");
    let pts: Vec<Vec<f64>> = (0..48)
        .map(|i| {
            let blob = (i % 3) as f64 * 6.0;
            vec![blob, blob + 0.1 * i as f64, 0.5, -blob]
        })
        .collect();
    c.bench_function("functional_dbscan_48pts_d256", |b| {
        b.iter(|| std::hint::black_box(accel.fit_dbscan(&pts, 0.2).expect("runs")))
    });
}

criterion_group!(benches, bench_perf_model, bench_functional_accelerator);
criterion_main!(benches);
