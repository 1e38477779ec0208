//! `batch_offline`: the paper's offline path through the batch entry
//! points — `DualAccelerator::encode_parallel` → `HammingKMeans::fit` →
//! `CondensedMatrix` + Ward linkage + DBSCAN on a leading subset.

use crate::span::Tracer;
use crate::spec::{BatchSpec, ENCODER_SEED};
use crate::streaming::Fnv;
use crate::Res;
use dual_cluster::{
    cluster_accuracy, AgglomerativeClustering, CondensedMatrix, Dbscan, HammingKMeans, Linkage,
};
use dual_core::{DualAccelerator, DualConfig, PerfModel};
use dual_hdc::Hypervector;
use std::time::Instant;

/// DBSCAN neighbourhood radius as a share of `D` (Hamming distance),
/// between the within-regime and between-regime distance modes of the
/// workload's mixture, and the usual small core threshold.
const DBSCAN_EPS_SHARE: f64 = 0.30;
const DBSCAN_MIN_PTS: usize = 5;

/// Timings, quality and digest of one offline pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OfflinePass {
    /// `encode_parallel` wall time.
    pub encode_ns: u64,
    /// All k-means fits.
    pub kmeans_ns: u64,
    /// Lloyd iterations executed over all fits.
    pub kmeans_iters: u64,
    /// Pairwise Hamming matrix of the subset.
    pub pairwise_ns: u64,
    /// Ward linkage and the cut.
    pub ward_ns: u64,
    /// DBSCAN on the subset.
    pub dbscan_ns: u64,
    /// Start of encode to the return of the last fit.
    pub wall_ns: u64,
    /// `cluster_accuracy` of the k-means labels against the regimes.
    pub kmeans_accuracy: f64,
    /// `cluster_accuracy` of the Ward cut on the subset.
    pub ward_accuracy: f64,
    /// FNV-1a-64 over every label vector and the k-means centres.
    pub digest: u64,
    /// The encoded points (kept for the traced run's probes).
    pub encoded: Vec<Hypervector>,
    /// Centres of the best k-means fit.
    pub centers: Vec<Hypervector>,
}

/// The accelerator front end (`σ = √m`, the crate default).
///
/// # Errors
///
/// Propagates encoder construction errors.
pub fn build(spec: &BatchSpec) -> Res<DualAccelerator> {
    let cfg = DualConfig::paper().with_dim(spec.dim);
    Ok(DualAccelerator::new(cfg, spec.mix.features, ENCODER_SEED)?)
}

/// Simulated chip cost `(energy_pj, time_ns)` of encoding and k-means
/// for this spec, from the paper's performance model.
#[must_use]
pub fn simulated_cost(spec: &BatchSpec, kmeans_iters: u64) -> (f64, f64) {
    let mut cfg = DualConfig::paper().with_dim(spec.dim);
    cfg.kmeans_iters = usize::try_from(kmeans_iters).unwrap_or(usize::MAX);
    let model = PerfModel::new(cfg);
    let report = model
        .kmeans(spec.points, spec.k)
        .preceded_by(model.encoding(spec.points, spec.mix.features));
    (report.energy_j() * 1e12, report.time_s() * 1e9)
}

/// One full offline pass over `points`.
///
/// # Errors
///
/// Propagates product errors (they indicate a broken spec, so the run
/// aborts rather than counting them).
pub fn pass(
    spec: &BatchSpec,
    accel: &DualAccelerator,
    points: &[Vec<f64>],
    regimes: &[usize],
    tracer: &mut Tracer,
) -> Res<OfflinePass> {
    let mut out = OfflinePass::default();
    let hamming = |a: &Hypervector, b: &Hypervector| a.hamming(b) as f64;
    let clock = Instant::now();
    let mut lap = {
        let mut last = 0u64;
        move || {
            let now = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let d = now - last;
            last = now;
            d
        }
    };

    let span = tracer.begin("core.encode_parallel", 0);
    out.encoded = accel.encode_parallel(points, 1)?;
    tracer.end(span);
    out.encode_ns = lap();

    let span = tracer.begin("cluster.kmeans", 0);
    let mut best: Option<dual_cluster::HammingKMeansResult> = None;
    for restart in 0..spec.kmeans_restarts {
        let fit = HammingKMeans::new(spec.k)?
            .max_iters(spec.kmeans_iters)
            .seed(restart as u64)
            .threads(1)
            .fit(&out.encoded)?;
        out.kmeans_iters += fit.iterations as u64;
        if best.as_ref().is_none_or(|b| fit.inertia < b.inertia) {
            best = Some(fit);
        }
    }
    tracer.end(span);
    out.kmeans_ns = lap();
    let best = best.ok_or("kmeans_restarts must be positive")?;

    let subset = &out.encoded[..spec.subset.min(out.encoded.len())];
    let span = tracer.begin("cluster.pairwise", 0);
    let matrix = CondensedMatrix::from_points_parallel(subset, 1, hamming);
    tracer.end(span);
    out.pairwise_ns = lap();

    let span = tracer.begin("cluster.ward", 0);
    let ward = AgglomerativeClustering::fit_precomputed(&matrix, Linkage::Ward).cut(spec.k);
    tracer.end(span);
    out.ward_ns = lap();

    let span = tracer.begin("cluster.dbscan", 0);
    let dbscan = Dbscan::new(DBSCAN_EPS_SHARE * spec.dim as f64, DBSCAN_MIN_PTS)?
        .fit_parallel(subset, 1, hamming);
    tracer.end(span);
    out.dbscan_ns = lap();
    out.wall_ns = out.encode_ns + out.kmeans_ns + out.pairwise_ns + out.ward_ns + out.dbscan_ns;

    out.kmeans_accuracy = cluster_accuracy(&best.labels, regimes);
    out.ward_accuracy = cluster_accuracy(&ward, &regimes[..ward.len()]);
    let mut digest = Fnv::default();
    for labels in [&best.labels, &ward, &dbscan.labels] {
        for &l in labels {
            digest.word(l as u64);
        }
    }
    digest.centroids(&best.centers);
    out.digest = digest.finish();
    out.centers = best.centers;
    Ok(out)
}
