//! In-Memory data-parallel Processor (IMP) comparison model (Fig. 15a).
//!
//! IMP (Fujiki et al., ASPLOS'18) is an analog PIM that offloads
//! PIM-compatible operations — addition, multiplication, dot products —
//! from a program onto crossbar arrays. For clustering it can therefore
//! accelerate only the arithmetic-heavy phases: the Euclidean
//! similarity kernel (24.5 % / 29 % of hierarchical / DBSCAN GPU time)
//! and, for k-means, both similarity and center update (92 %).

use crate::gpu::{Algorithm, GpuCost, GpuModel};

/// IMP modeled as phase-selective offload on top of the GPU cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpModel {
    /// Acceleration factor IMP achieves on offloaded (arithmetic)
    /// phases, calibrated so k-means — where 92 % offloads — reaches the
    /// paper's 12.1× overall speedup.
    pub offload_accel: f64,
    /// Energy advantage on offloaded work (k-means reaches 27.2×
    /// overall).
    pub offload_energy_accel: f64,
}

impl ImpModel {
    /// Calibrated to Fig. 15a.
    #[must_use]
    pub fn paper() -> Self {
        // k-means: 1 / (0.08 + 0.92/a) = 12.1  =>  a ≈ 280.
        Self {
            offload_accel: 280.0,
            offload_energy_accel: 700.0,
        }
    }

    /// Which GPU phases IMP can offload for `alg`.
    fn offloadable_phases(alg: Algorithm) -> &'static [&'static str] {
        match alg {
            Algorithm::Hierarchical | Algorithm::Dbscan => &["similarity"],
            Algorithm::KMeans => &["similarity", "update"],
        }
    }

    /// IMP execution estimate, derived from the GPU phase model.
    #[must_use]
    pub fn cost(
        &self,
        gpu: &GpuModel,
        alg: Algorithm,
        n: usize,
        m: usize,
        k: usize,
        iters: usize,
    ) -> GpuCost {
        let base = gpu.cost(alg, n, m, k, iters);
        let offloadable = Self::offloadable_phases(alg);
        let mut phases = Vec::with_capacity(base.phases.len());
        let mut energy = 0.0;
        for (name, t) in &base.phases {
            let (t2, e2) = if offloadable.contains(name) {
                (
                    t / self.offload_accel,
                    t * gpu.spec.tdp_w / self.offload_energy_accel,
                )
            } else {
                (*t, t * gpu.spec.tdp_w)
            };
            phases.push((*name, t2));
            energy += e2;
        }
        GpuCost {
            phases,
            energy_j: energy,
        }
    }
}

impl Default for ImpModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Overall IMP-vs-GPU speedup on a 60 000 × 784, k = 10 workload.
    fn speedup(alg: Algorithm, iters: usize) -> f64 {
        let (imp, gpu) = (ImpModel::paper(), GpuModel::gtx_1080());
        gpu.cost(alg, 60_000, 784, 10, iters).time_s()
            / imp.cost(&gpu, alg, 60_000, 784, 10, iters).time_s()
    }

    #[test]
    fn kmeans_speedup_matches_fig15a() {
        let s = speedup(Algorithm::KMeans, 20);
        assert!((8.0..16.0).contains(&s), "k-means IMP speedup {s}");
    }

    #[test]
    fn hierarchical_speedup_is_amdahl_limited() {
        // Fig 15a reports ~1.6×; with only the similarity phase
        // offloadable the model lands in the Amdahl-limited band.
        let s = speedup(Algorithm::Hierarchical, 1);
        assert!((1.1..2.0).contains(&s), "hierarchical IMP speedup {s}");
        let d = speedup(Algorithm::Dbscan, 1);
        assert!((1.1..2.0).contains(&d), "dbscan IMP speedup {d}");
    }

    #[test]
    fn imp_energy_below_gpu() {
        let imp = ImpModel::paper();
        let gpu = GpuModel::gtx_1080();
        let g = gpu.cost(Algorithm::KMeans, 10_000, 128, 10, 20);
        let i = imp.cost(&gpu, Algorithm::KMeans, 10_000, 128, 10, 20);
        assert!(i.energy_j < g.energy_j);
        assert!(i.time_s() < g.time_s());
    }

    #[test]
    fn offloadable_phase_lists() {
        assert_eq!(ImpModel::offloadable_phases(Algorithm::KMeans).len(), 2);
        assert_eq!(
            ImpModel::offloadable_phases(Algorithm::Hierarchical),
            &["similarity"]
        );
    }
}
