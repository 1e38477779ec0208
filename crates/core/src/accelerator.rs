//! The functional DUAL accelerator: end-to-end clustering through the
//! PIM instruction runtime.
//!
//! This is the executable counterpart of [`crate::PerfModel`]: data
//! points are HD-encoded, loaded into crossbar data blocks, and every
//! similarity/nearest-search decision is taken by *in-memory*
//! operations ([`dual_isa::Runtime`]), so the clustering results can be
//! compared bit-for-bit against the software algorithms of
//! `dual-cluster`. Intended for validation-scale datasets (hundreds to
//! a few thousand points); the analytical model covers the paper-scale
//! runs.

use crate::DualConfig;
use dual_cluster::{AgglomerativeClustering, CondensedMatrix, Linkage};
use dual_hdc::{majority_bundle, Encoder, HdMapper, Hypervector};
use dual_isa::verify::Geometry;
use dual_isa::{Instruction, IsaError, Runtime, Vlca};
use dual_pim::EnergyStats;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Result of one accelerated clustering run.
#[derive(Debug, Clone)]
pub struct DualClusteringOutcome {
    /// Cluster label per input point.
    pub labels: Vec<usize>,
    /// Cost statistics accumulated by the PIM runtime.
    pub stats: EnergyStats,
    /// Number of PIM instructions issued.
    pub instructions: usize,
    /// The full instruction stream the run issued, for static
    /// verification (`dual_isa::verify`) or offline inspection.
    pub trace: Vec<Instruction>,
    /// Geometry of the runtime the trace executed on — what a
    /// [`dual_isa::verify::Verifier`] must be built against.
    pub geometry: Geometry,
}

impl DualClusteringOutcome {
    fn empty() -> Self {
        Self {
            labels: Vec::new(),
            stats: EnergyStats::new(),
            instructions: 0,
            trace: Vec::new(),
            geometry: Geometry::empty(),
        }
    }

    fn from_run(labels: Vec<usize>, rt: &Runtime) -> Self {
        Self {
            labels,
            stats: rt.stats().clone(),
            instructions: rt.trace().len(),
            trace: rt.trace().to_vec(),
            geometry: Geometry::of_runtime(rt),
        }
    }

    /// Statically re-verify the run's instruction stream against its
    /// executed statistics (see [`dual_isa::verify`]).
    #[must_use]
    pub fn verify(&self) -> dual_isa::verify::VerifyReport {
        dual_isa::verify::Verifier::new(self.geometry).check_against(&self.trace, &self.stats)
    }
}

/// Functional accelerator: HD-Mapper + PIM runtime.
#[derive(Debug)]
pub struct DualAccelerator {
    mapper: HdMapper,
    config: DualConfig,
}

impl DualAccelerator {
    /// Build an accelerator encoding `n_features`-dimensional points
    /// into `config.dim`-bit hypervectors (deterministic base vectors
    /// from `seed`).
    ///
    /// # Errors
    ///
    /// Propagates encoder construction failures.
    pub fn new(
        config: DualConfig,
        n_features: usize,
        seed: u64,
    ) -> Result<Self, dual_hdc::HdcError> {
        Self::with_sigma(config, n_features, seed, (n_features as f64).sqrt())
    }

    /// As [`DualAccelerator::new`] with an explicit kernel bandwidth σ
    /// for the HD-Mapper. The default (`√m`) suits unit-scale features;
    /// for raw data pass a fraction (≈ 0.25×) of the median pairwise
    /// distance, the usual kernel-bandwidth heuristic.
    ///
    /// # Errors
    ///
    /// Propagates encoder construction failures.
    pub fn with_sigma(
        config: DualConfig,
        n_features: usize,
        seed: u64,
        sigma: f64,
    ) -> Result<Self, dual_hdc::HdcError> {
        let mapper = HdMapper::builder(config.dim, n_features)
            .seed(seed)
            .sigma(sigma)
            .build()?;
        Ok(Self { mapper, config })
    }

    /// The encoder in use.
    #[must_use]
    pub fn mapper(&self) -> &HdMapper {
        &self.mapper
    }

    /// Encode a dataset into hypervectors (the single-pass encoding
    /// stage, §V-B).
    ///
    /// # Errors
    ///
    /// Propagates feature-length mismatches.
    pub fn encode(&self, points: &[Vec<f64>]) -> Result<Vec<Hypervector>, dual_hdc::HdcError> {
        self.mapper.encode_batch(points)
    }

    fn runtime_for(&self, n: usize) -> Result<(Runtime, Vlca), IsaError> {
        // Small-block geometry keeps functional tests fast; capacity is
        // provisioned for the data VLCA plus distance/scratch arrays.
        let rows = 64;
        let cols = 128;
        let data_cols = cols / 2;
        let data_blocks = self.config.dim.div_ceil(data_cols) * n.div_ceil(rows);
        let pool = data_blocks * 2 + 4 * n.div_ceil(rows) + 16;
        let mut rt = Runtime::with_pool(rows, cols, pool)?;
        let refs = rt.alloc(self.config.dim, n)?;
        Ok((rt, refs))
    }

    fn load(&self, rt: &mut Runtime, refs: &Vlca, encoded: &[Hypervector]) -> Result<(), IsaError> {
        for (i, hv) in encoded.iter().enumerate() {
            let bits: Vec<bool> = hv.bits().iter().collect();
            rt.write_bits(refs, i, &bits)?;
        }
        Ok(())
    }

    /// Parallel encoding across OS threads (the software analogue of
    /// the chip replicating encoder pipelines over its blocks, §V-A),
    /// built on the workspace-wide [`dual_pool`] chunking utility.
    ///
    /// Deterministic: the output is identical to [`DualAccelerator::encode`]
    /// for every `threads` value, including the degenerate `0`
    /// (auto-resolved via `DUAL_THREADS`), `1`, and `> points.len()`.
    ///
    /// # Errors
    ///
    /// Propagates feature-length mismatches.
    pub fn encode_parallel(
        &self,
        points: &[Vec<f64>],
        threads: usize,
    ) -> Result<Vec<Hypervector>, dual_hdc::HdcError> {
        let threads = dual_pool::resolve_threads(threads).clamp(1, points.len().max(1));
        if threads <= 1 || points.len() < 2 {
            return self.encode(points);
        }
        let parts = dual_pool::par_map_ranges(points.len(), threads, |range| {
            self.mapper.encode_batch(&points[range])
        });
        let mut out = Vec::with_capacity(points.len());
        for part in parts {
            out.extend(part?);
        }
        Ok(out)
    }

    /// Hierarchical clustering into `k` flat clusters: pairwise
    /// distances by in-memory Hamming search, merges by Ward linkage
    /// (Hamming distances are squared Euclidean on binary data, so the
    /// recurrence applies directly).
    ///
    /// # Errors
    ///
    /// Propagates encoding and PIM-runtime errors.
    pub fn fit_hierarchical(
        &self,
        points: &[Vec<f64>],
        k: usize,
    ) -> Result<DualClusteringOutcome, Box<dyn std::error::Error>> {
        self.fit_hierarchical_with_linkage(points, k, Linkage::Ward)
    }

    /// Hierarchical clustering under any of the four §II linkages —
    /// DUAL supports single/complete linkage with the row-parallel
    /// compare-and-select and average linkage with the same
    /// multiply/divide chain as Ward (§V-D).
    ///
    /// # Errors
    ///
    /// Propagates encoding and PIM-runtime errors.
    pub fn fit_hierarchical_with_linkage(
        &self,
        points: &[Vec<f64>],
        k: usize,
        linkage: Linkage,
    ) -> Result<DualClusteringOutcome, Box<dyn std::error::Error>> {
        let encoded = self.encode(points)?;
        let n = encoded.len();
        if n == 0 {
            return Ok(DualClusteringOutcome::empty());
        }
        let (mut rt, refs) = self.runtime_for(n)?;
        self.load(&mut rt, &refs, &encoded)?;
        // Pairwise Hamming, one row-parallel query per point (Fig 6, A).
        let mut matrix = CondensedMatrix::zeros(n);
        for (i, hv) in encoded.iter().enumerate() {
            let query: Vec<bool> = hv.bits().iter().collect();
            let d = rt.hamming(&query, &refs)?;
            let row = rt.read_values(&d)?;
            rt.free(&d)?;
            for (j, &rj) in row.iter().enumerate().skip(i + 1) {
                matrix.set(i, j, rj as f64);
            }
        }
        let model = AgglomerativeClustering::fit_precomputed(&matrix, linkage);
        Ok(DualClusteringOutcome::from_run(model.cut(k), &rt))
    }

    /// Binary k-means (§VI-C, Fig. 9b): assignment by in-memory Hamming
    /// distance of every point to each center, centers re-binarized by
    /// majority vote.
    ///
    /// # Errors
    ///
    /// Propagates encoding and PIM-runtime errors.
    pub fn fit_kmeans(
        &self,
        points: &[Vec<f64>],
        k: usize,
        seed: u64,
    ) -> Result<DualClusteringOutcome, Box<dyn std::error::Error>> {
        let encoded = self.encode(points)?;
        let n = encoded.len();
        if n == 0 || k == 0 {
            return Ok(DualClusteringOutcome::empty());
        }
        let (mut rt, refs) = self.runtime_for(n)?;
        self.load(&mut rt, &refs, &encoded)?;
        // Max-min (farthest-point) initialization: pick a random first
        // center, then repeatedly the point farthest from the chosen
        // set — deterministic and far more robust than uniform picks in
        // Hamming space.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut centers: Vec<Hypervector> = vec![encoded[order[0]].clone()];
        while centers.len() < k.min(n) {
            // "Distance to the chosen set" is a nearest search over the
            // centers picked so far — the same word-level-popcount
            // kernel the software clustering layer uses
            // (`dual_hdc::search`).
            let far = (0..n)
                .max_by_key(|&i| {
                    dual_hdc::search::nearest(&encoded[i], &centers).map_or(0, |(_, d)| d)
                })
                .unwrap_or(0);
            centers.push(encoded[far].clone());
        }
        let mut labels = vec![0usize; n];
        for _ in 0..self.config.kmeans_iters {
            // Assignment: k row-parallel Hamming queries into distance
            // columns, then the in-memory two-by-two subtraction argmin
            // (§VI-C) — all through PIM instructions.
            let mut dist_cols: Vec<Vlca> = Vec::with_capacity(centers.len());
            for c in &centers {
                let query: Vec<bool> = c.bits().iter().collect();
                dist_cols.push(rt.hamming(&query, &refs)?);
            }
            let col_refs: Vec<&Vlca> = dist_cols.iter().collect();
            let winners = rt.arg_min_columns(&col_refs)?;
            for d in &dist_cols {
                rt.free(d)?;
            }
            let mut changed = false;
            for (i, &best) in winners.iter().enumerate() {
                if labels[i] != best {
                    labels[i] = best;
                    changed = true;
                }
            }
            // Majority-vote center update.
            let mut flips = 0usize;
            for (c, center) in centers.iter_mut().enumerate() {
                let members: Vec<&Hypervector> = encoded
                    .iter()
                    .zip(&labels)
                    .filter(|(_, &l)| l == c)
                    .map(|(h, _)| h)
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let new = majority_bundle(&members)?;
                flips += center.hamming(&new);
                *center = new;
            }
            if !changed || flips == 0 {
                break;
            }
        }
        Ok(DualClusteringOutcome::from_run(labels, &rt))
    }

    /// DBSCAN in the paper's nearest-chain formulation (§VI-C, Fig. 9a,
    /// Algorithm 1): the entire decision loop — Hamming distance and
    /// masked nearest search — executes through PIM instructions.
    ///
    /// `eps` is a *normalized* Hamming radius in `[0, 1]` (fraction of
    /// `D`); the paper's ε.
    ///
    /// # Errors
    ///
    /// Propagates encoding and PIM-runtime errors.
    pub fn fit_dbscan(
        &self,
        points: &[Vec<f64>],
        eps: f64,
    ) -> Result<DualClusteringOutcome, Box<dyn std::error::Error>> {
        let encoded = self.encode(points)?;
        let n = encoded.len();
        if n == 0 {
            return Ok(DualClusteringOutcome::empty());
        }
        let eps_bits = (eps.clamp(0.0, 1.0) * self.config.dim as f64) as u64;
        let (mut rt, refs) = self.runtime_for(n)?;
        self.load(&mut rt, &refs, &encoded)?;
        let mut labels = vec![usize::MAX; n];
        let mut cur = 0usize;
        labels[0] = 0;
        let mut n_clusters = 1usize;
        let mut remaining = n - 1;
        while remaining > 0 {
            let query: Vec<bool> = encoded[cur].bits().iter().collect();
            let d = rt.hamming(&query, &refs)?;
            // Valid-flag mask: only unclustered points participate.
            let active: Vec<bool> = labels.iter().map(|&l| l == usize::MAX).collect();
            let (idx, value) = rt.near_search_masked(&d, 0, Some(&active))?;
            rt.free(&d)?;
            if value <= eps_bits {
                labels[idx] = labels[cur];
            } else {
                labels[idx] = n_clusters;
                n_clusters += 1;
            }
            cur = idx;
            remaining -= 1;
        }
        Ok(DualClusteringOutcome::from_run(labels, &rt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dual_cluster::{cluster_accuracy, hamming, NnChainClustering};

    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        let centers = [[0.0, 0.0, 0.0], [8.0, 8.0, 0.0], [0.0, 8.0, 8.0]];
        for (c, center) in centers.iter().enumerate() {
            for k in 0..8 {
                pts.push(vec![
                    center[0] + 0.2 * (k % 3) as f64,
                    center[1] + 0.2 * ((k / 3) % 3) as f64,
                    center[2] + 0.1 * k as f64,
                ]);
                labels.push(c);
            }
        }
        (pts, labels)
    }

    fn accel() -> DualAccelerator {
        let cfg = DualConfig::paper().with_dim(512);
        DualAccelerator::new(cfg, 3, 7).unwrap()
    }

    #[test]
    fn hierarchical_on_pim_recovers_blobs() {
        let (pts, truth) = blobs();
        let out = accel().fit_hierarchical(&pts, 3).unwrap();
        let acc = cluster_accuracy(&out.labels, &truth);
        assert!(acc > 0.9, "accuracy {acc}");
        assert!(out.stats.time_ns() > 0.0);
        assert!(out.instructions > 0);
        assert_eq!(out.trace.len(), out.instructions);
        let report = out.verify();
        assert!(report.is_clean(), "errors: {:?}", report.errors().count());
    }

    #[test]
    fn kmeans_on_pim_recovers_blobs() {
        let (pts, truth) = blobs();
        let out = accel().fit_kmeans(&pts, 3, 13).unwrap();
        let acc = cluster_accuracy(&out.labels, &truth);
        assert!(acc > 0.85, "accuracy {acc}");
        assert!(out.verify().is_clean());
        // Recorded with the per-bit majority vote: the word-level kernel
        // may move neither a label nor the iteration count.
        assert_eq!(out.labels, truth);
        assert_eq!(out.instructions, 928);
    }

    #[test]
    fn dbscan_on_pim_matches_software_chain() {
        let (pts, truth) = blobs();
        let a = accel();
        let out = a.fit_dbscan(&pts, 0.2).unwrap();
        // Reference: the same chain algorithm in software over the same
        // encoded points — results must agree exactly (the PIM path is
        // bit-exact).
        let encoded = a.encode(&pts).unwrap();
        let eps_bits = 0.2_f64 * 512.0;
        let sw = NnChainClustering::new(eps_bits.max(1.0))
            .unwrap()
            .fit(&encoded, hamming);
        assert_eq!(out.labels, sw.labels);
        let acc = cluster_accuracy(&out.labels, &truth);
        assert!(acc > 0.9, "accuracy {acc}");
        assert!(out.verify().is_clean());
    }

    #[test]
    fn all_linkages_work_on_pim() {
        let (pts, truth) = blobs();
        let a = accel();
        for linkage in dual_cluster::Linkage::all() {
            let out = a.fit_hierarchical_with_linkage(&pts, 3, linkage).unwrap();
            let acc = cluster_accuracy(&out.labels, &truth);
            assert!(acc > 0.9, "{linkage:?} accuracy {acc}");
        }
    }

    #[test]
    fn parallel_encoding_matches_serial() {
        let (pts, _) = blobs();
        let a = accel();
        let serial = a.encode(&pts).unwrap();
        let parallel = a.encode_parallel(&pts, 4).unwrap();
        assert_eq!(serial, parallel);
        // Degenerate thread counts fall back gracefully.
        assert_eq!(a.encode_parallel(&pts, 0).unwrap(), serial);
        assert!(a.encode_parallel(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn empty_inputs_are_fine() {
        let a = accel();
        assert!(a.fit_hierarchical(&[], 3).unwrap().labels.is_empty());
        assert!(a.fit_kmeans(&[], 3, 0).unwrap().labels.is_empty());
        assert!(a.fit_dbscan(&[], 0.1).unwrap().labels.is_empty());
        // The empty outcome carries the empty geometry and trace, which
        // trivially verify.
        assert!(a.fit_dbscan(&[], 0.1).unwrap().verify().is_clean());
    }
}
