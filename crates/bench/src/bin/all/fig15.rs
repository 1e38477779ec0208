//! Regenerate Fig. 15: (a) DUAL (iso-area, 4 chips) vs IMP speedup and
//! energy; (b) the computation breakdown of GPU and DUAL executions.
//!
//! Paper expectation: IMP only helps where arithmetic dominates
//! (k-means 12.1× vs GPU) and is Amdahl-bound elsewhere (1.6× / 1.3×);
//! a 4-chip DUAL beats IMP by 136.2× / 9.8× / 168.1× on hierarchical /
//! k-means / DBSCAN. Breakdown: GPU similarity ≈ 24.5 % / 92 % / 29 %
//! of runtime; DUAL hierarchical is clustering-dominated, k-means
//! update-dominated, DBSCAN search-dominated, encoding < 5 % everywhere.

use super::{table, Result};
use dual_bench::{dual_report, geomean, mean};
use dual_core::baseline::{Algorithm, GpuModel, ImpModel};
use dual_core::{chip_scaling_speedup, DualConfig, Phase, ScalingModel};
use dual_data::{workload, Workload};

pub fn run(out: &mut String) -> Result {
    let gpu = GpuModel::gtx_1080();
    let imp = ImpModel::paper();
    let cfg = DualConfig::paper();

    // ---- Fig 15a: DUAL (4-chip iso-area with IMP) vs IMP ------------------
    let mut rows = Vec::new();
    for alg in Algorithm::all() {
        let scaling = match alg {
            Algorithm::Hierarchical => ScalingModel::Hierarchical,
            Algorithm::KMeans => ScalingModel::KMeans,
            Algorithm::Dbscan => ScalingModel::Dbscan,
        };
        let mut dual_vs_imp = Vec::new();
        let mut imp_vs_gpu = Vec::new();
        for w in Workload::uci() {
            let spec = workload(w);
            let (n, m, k) = (spec.n_points, spec.n_features, spec.n_clusters);
            let t_gpu = gpu.cost(alg, n, m, k, cfg.kmeans_iters).time_s();
            let t_imp = imp.cost(&gpu, alg, n, m, k, cfg.kmeans_iters).time_s();
            let t_dual4 =
                dual_report(cfg, alg, n, m, k).time_s() / chip_scaling_speedup(scaling, n, 4);
            dual_vs_imp.push(t_imp / t_dual4);
            imp_vs_gpu.push(t_gpu / t_imp);
        }
        rows.push(vec![
            alg.name().to_string(),
            format!("{:.1}x", geomean(&imp_vs_gpu)),
            format!("{:.1}x", mean(&dual_vs_imp)),
        ]);
    }
    table(
        out,
        "Fig 15a: IMP vs GPU, and 4-chip DUAL vs IMP (paper: IMP 1.6/12.1/1.3x; DUAL-vs-IMP 136.2/9.8/168.1x)",
        &["algorithm", "IMP vs GPU", "DUAL(4chip) vs IMP"],
        &rows,
    );

    // ---- Fig 15b: computation breakdowns ----------------------------------
    let mut rows = Vec::new();
    for alg in Algorithm::all() {
        let spec = workload(Workload::Mnist);
        let (n, m, k) = (spec.n_points, spec.n_features, spec.n_clusters);
        let g = gpu.cost(alg, n, m, k, cfg.kmeans_iters);
        let gpu_breakdown: Vec<String> = g
            .phases
            .iter()
            .map(|(name, _)| format!("{name} {:.0}%", 100.0 * g.phase_fraction(name)))
            .collect();
        let d = dual_report(cfg, alg, n, m, k);
        let dual_breakdown: Vec<String> = [
            Phase::Encoding,
            Phase::Hamming,
            Phase::Accumulate,
            Phase::Nearest,
            Phase::Update,
            Phase::Transfer,
        ]
        .iter()
        .filter_map(|&p| {
            let f = d.phase_fraction(p);
            (f >= 0.005).then(|| format!("{} {:.0}%", p.name(), 100.0 * f))
        })
        .collect();
        rows.push(vec![
            alg.name().to_string(),
            gpu_breakdown.join(", "),
            dual_breakdown.join(", "),
        ]);
    }
    table(
        out,
        "Fig 15b: computation breakdown (MNIST surrogate)",
        &["algorithm", "GPU", "DUAL"],
        &rows,
    );
    Ok(())
}
