//! Analytical GTX 1080 clustering model.

/// Which clustering algorithm is being modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Agglomerative hierarchical clustering (nvGRAPH).
    Hierarchical,
    /// K-means (NVIDIA kmeans).
    KMeans,
    /// DBSCAN (G-DBSCAN).
    Dbscan,
}

impl Algorithm {
    /// All three evaluated algorithms.
    #[must_use]
    pub fn all() -> [Self; 3] {
        [Self::Hierarchical, Self::KMeans, Self::Dbscan]
    }

    /// Lower-case display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Hierarchical => "hierarchical",
            Self::KMeans => "k-means",
            Self::Dbscan => "dbscan",
        }
    }
}

/// Hardware description of the baseline GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// CUDA cores.
    pub cores: u32,
    /// Boost clock in GHz.
    pub clock_ghz: f64,
    /// Peak FP32 throughput in FLOP/s (2 × cores × clock).
    pub peak_flops: f64,
    /// Memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Board power in watts.
    pub tdp_w: f64,
}

impl GpuSpec {
    /// NVIDIA GTX 1080 (the paper's baseline, §VIII-B).
    #[must_use]
    pub fn gtx_1080() -> Self {
        let cores = 2560;
        let clock_ghz = 1.607;
        Self {
            cores,
            clock_ghz,
            peak_flops: 2.0 * f64::from(cores) * clock_ghz * 1e9,
            mem_bw: 320e9,
            tdp_w: 180.0,
        }
    }
}

/// Per-phase GPU execution estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuCost {
    /// `(phase name, seconds)` in execution order.
    pub phases: Vec<(&'static str, f64)>,
    /// Board energy in joules (`TDP × time`).
    pub energy_j: f64,
}

impl GpuCost {
    /// Total execution time in seconds.
    #[must_use]
    pub fn time_s(&self) -> f64 {
        self.phases.iter().map(|(_, t)| t).sum()
    }

    /// Fraction of time spent in the named phase.
    #[must_use]
    pub fn phase_fraction(&self, name: &str) -> f64 {
        let total = self.time_s();
        if total <= 0.0 {
            return 0.0;
        }
        self.phases
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, t)| t)
            .sum::<f64>()
            / total
    }
}

/// The phase-level GPU cost model.
///
/// Phase formulas (`n` points, `m` features, `k` centers, `I`
/// iterations):
///
/// * hierarchical — distance build `3n²m/2` FLOPs at `η_h` efficiency
///   (the paper reports 28 % core utilization); clustering (min-search
///   plus Lance–Williams updates) `4·n²·log₂n` bytes of irregular
///   matrix traffic at `β_h` effective bytes/s.
/// * k-means — per iteration: assignment streams the data matrix,
///   `4nm` bytes at `β_ka`; center update re-reads and reduces it,
///   `4nm` bytes at `β_ku`; plus a host-sync residual.
/// * DBSCAN — neighborhood distance `3n²m/2` FLOPs at `η_d`; graph
///   traversal/labeling `4n²` bytes at `β_d`.
///
/// The η/β constants are the calibration described in the crate docs:
/// the Fig. 15b phase splits (similarity ≈ 24.5 % / 29 % of runtime for
/// hierarchical / DBSCAN; k-means ≈ 60 % similarity + 32 % update) pin
/// the *ratios* at the MNIST-scale reference, and the absolute scale is
/// set so the DUAL-vs-GPU speedups land at the paper's reported
/// averages (§VIII-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// GPU hardware parameters.
    pub spec: GpuSpec,
    /// Compute efficiency of hierarchical's distance phase.
    pub eta_hier: f64,
    /// Effective bytes/s of hierarchical's clustering phase.
    pub beta_hier: f64,
    /// Effective bytes/s of k-means assignment.
    pub beta_kmeans_assign: f64,
    /// Effective bytes/s of k-means center update.
    pub beta_kmeans_update: f64,
    /// Compute efficiency of DBSCAN's distance phase.
    pub eta_dbscan: f64,
    /// Effective bytes/s of DBSCAN's traversal phase.
    pub beta_dbscan: f64,
    /// Throughput penalty of running the HD (D-bit binary) version of
    /// the algorithms on the GPU, per similarity/update dimension
    /// (§VIII-D: long binary vectors fit GPUs poorly).
    pub hd_inefficiency: f64,
}

impl GpuModel {
    /// The calibrated GTX 1080 model.
    #[must_use]
    pub fn gtx_1080() -> Self {
        Self {
            spec: GpuSpec::gtx_1080(),
            // 28% core occupancy (paper §VIII-D) × ~9% issue
            // efficiency on the divergence-heavy distance kernel.
            eta_hier: 0.0251,
            // Min-search + Lance–Williams updates walk the distance
            // matrix with poor locality (calibrated vs Fig 15b split).
            beta_hier: 3.6e9,
            beta_kmeans_assign: 1.13e9,
            beta_kmeans_update: 2.12e9,
            eta_dbscan: 0.0286,
            beta_dbscan: 0.20e9,
            hd_inefficiency: 2.0,
        }
    }

    /// Estimate one clustering run.
    ///
    /// `iters` is used by k-means only (the paper's runs converge in a
    /// few tens of iterations; the benches use 20).
    #[must_use]
    pub fn cost(&self, alg: Algorithm, n: usize, m: usize, k: usize, iters: usize) -> GpuCost {
        let nf = n as f64;
        let mf = m as f64;
        let _ = k;
        let it = iters.max(1) as f64;
        let phases: Vec<(&'static str, f64)> = match alg {
            Algorithm::Hierarchical => {
                let dist = 1.5 * nf * nf * mf / (self.spec.peak_flops * self.eta_hier);
                let clust = 4.0 * nf * nf * nf.max(2.0).log2() / self.beta_hier;
                vec![("similarity", dist), ("clustering", clust)]
            }
            Algorithm::KMeans => {
                let assign = it * 4.0 * nf * mf / self.beta_kmeans_assign;
                let update = it * 4.0 * nf * mf / self.beta_kmeans_update;
                let other = 0.087 * (assign + update); // host sync / reductions
                vec![("similarity", assign), ("update", update), ("other", other)]
            }
            Algorithm::Dbscan => {
                let dist = 1.5 * nf * nf * mf / (self.spec.peak_flops * self.eta_dbscan);
                let traverse = 4.0 * nf * nf / self.beta_dbscan;
                vec![("similarity", dist), ("clustering", traverse)]
            }
        };
        let time: f64 = phases.iter().map(|(_, t)| t).sum();
        GpuCost {
            phases,
            energy_j: time * self.spec.tdp_w,
        }
    }

    /// Model of running *DUAL's own algorithm* (high-dimensional binary
    /// clustering, `d`-bit Hamming) on the GPU — the §VIII-D
    /// observation that the co-design only pays off on PIM hardware:
    /// the GPU benefits from dense float arithmetic on `m`-dim
    /// vectors, not bit manipulation over `d ≫ m` dimensions, so the
    /// similarity/update phases inflate by `(d/m) × hd_inefficiency`
    /// while the clustering phases are unchanged.
    #[must_use]
    pub fn cost_hd_on_gpu(
        &self,
        alg: Algorithm,
        n: usize,
        m: usize,
        d: usize,
        k: usize,
        iters: usize,
    ) -> GpuCost {
        let base = self.cost(alg, n, m, k, iters);
        let scale = (d as f64 / m.max(1) as f64) * self.hd_inefficiency;
        let phases: Vec<(&'static str, f64)> = base
            .phases
            .iter()
            .map(|&(name, t)| {
                if name == "similarity" || name == "update" {
                    (name, t * scale)
                } else {
                    (name, t)
                }
            })
            .collect();
        let time: f64 = phases.iter().map(|(_, t)| t).sum();
        GpuCost {
            phases,
            energy_j: time * self.spec.tdp_w,
        }
    }
}

impl Default for GpuModel {
    fn default() -> Self {
        Self::gtx_1080()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx1080_spec() {
        let s = GpuSpec::gtx_1080();
        assert_eq!(s.cores, 2560);
        assert!((s.peak_flops - 8.228e12).abs() / 8.228e12 < 0.01);
        assert_eq!(s.tdp_w, 180.0);
    }

    #[test]
    fn hierarchical_breakdown_matches_fig15b_at_mnist() {
        // Fig 15b: similarity ≈ 24.5 % of GPU hierarchical time.
        let m = GpuModel::gtx_1080();
        let c = m.cost(Algorithm::Hierarchical, 60_000, 784, 10, 1);
        let f = c.phase_fraction("similarity");
        assert!((0.15..0.40).contains(&f), "similarity fraction {f}");
    }

    #[test]
    fn dbscan_breakdown_matches_fig15b_at_mnist() {
        let m = GpuModel::gtx_1080();
        let c = m.cost(Algorithm::Dbscan, 60_000, 784, 10, 1);
        let f = c.phase_fraction("similarity");
        assert!((0.18..0.45).contains(&f), "similarity fraction {f}");
    }

    #[test]
    fn kmeans_is_dominated_by_offloadable_phases() {
        // Fig 15b: similarity + update ≈ 92 % of GPU k-means time.
        let m = GpuModel::gtx_1080();
        let c = m.cost(Algorithm::KMeans, 60_000, 784, 10, 20);
        let f = c.phase_fraction("similarity") + c.phase_fraction("update");
        assert!((0.85..0.97).contains(&f), "offloadable fraction {f}");
    }

    #[test]
    fn costs_scale_with_problem_size() {
        let m = GpuModel::gtx_1080();
        for alg in Algorithm::all() {
            let small = m.cost(alg, 1_000, 100, 10, 10).time_s();
            let big = m.cost(alg, 10_000, 100, 10, 10).time_s();
            assert!(big > small * 5.0, "{alg:?}");
        }
    }

    #[test]
    fn energy_is_tdp_times_time() {
        let m = GpuModel::gtx_1080();
        let c = m.cost(Algorithm::KMeans, 5_000, 64, 8, 10);
        assert!((c.energy_j - c.time_s() * 180.0).abs() < 1e-9);
    }

    #[test]
    fn hd_clustering_is_slower_on_gpu_than_original_space() {
        // §VIII-D: HD-mapped clustering runs ~12.8× slower on the GPU —
        // the co-design argument. Check the direction and rough scale.
        let m = GpuModel::gtx_1080();
        let orig = m.cost(Algorithm::KMeans, 20_000, 200, 10, 20).time_s();
        let hd = m
            .cost_hd_on_gpu(Algorithm::KMeans, 20_000, 200, 4_000, 10, 20)
            .time_s();
        let ratio = hd / orig;
        assert!((4.0..80.0).contains(&ratio), "HD-on-GPU ratio {ratio}");
    }

    #[test]
    fn phase_fraction_handles_missing_and_zero() {
        let c = GpuCost {
            phases: vec![],
            energy_j: 0.0,
        };
        assert_eq!(c.phase_fraction("similarity"), 0.0);
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_costs_monotone_in_problem_size(n in 100usize..50_000, m in 2usize..1000,
                                                   k in 2usize..50, iters in 1usize..40) {
                let model = GpuModel::gtx_1080();
                for alg in Algorithm::all() {
                    let base = model.cost(alg, n, m, k, iters).time_s();
                    let more_n = model.cost(alg, n * 2, m, k, iters).time_s();
                    let more_m = model.cost(alg, n, m * 2, k, iters).time_s();
                    prop_assert!(more_n > base, "{:?} n-monotonicity", alg);
                    prop_assert!(more_m >= base, "{:?} m-monotonicity", alg);
                    prop_assert!(base.is_finite() && base > 0.0);
                }
            }

            #[test]
            fn prop_phase_fractions_sum_to_one(n in 100usize..20_000, m in 2usize..500) {
                let model = GpuModel::gtx_1080();
                for alg in Algorithm::all() {
                    let c = model.cost(alg, n, m, 10, 10);
                    let total: f64 = c.phases.iter().map(|(name, _)| c.phase_fraction(name)).sum();
                    prop_assert!((total - 1.0).abs() < 1e-9, "{:?}: {}", alg, total);
                }
            }

            #[test]
            fn prop_hd_on_gpu_never_faster(n in 100usize..20_000, m in 2usize..500, d in 1000usize..8000) {
                let model = GpuModel::gtx_1080();
                prop_assume!(d > m);
                for alg in Algorithm::all() {
                    let orig = model.cost(alg, n, m, 10, 10).time_s();
                    let hd = model.cost_hd_on_gpu(alg, n, m, d, 10, 10).time_s();
                    prop_assert!(hd >= orig, "{:?}", alg);
                }
            }
        }
    }
}
