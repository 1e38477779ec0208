//! Parallelism and multi-chip scaling (Fig. 14, §VI-A, §VIII-F).

use crate::{DualConfig, PerfModel};

/// Which clustering algorithm a scaling sweep models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalingModel {
    /// Hierarchical clustering (the Fig. 14 subject).
    Hierarchical,
    /// K-means.
    KMeans,
    /// DBSCAN.
    Dbscan,
}

/// Speedup of running with `copies` replicated data blocks relative to
/// a single copy (Fig. 14a): replication divides the query stream but
/// pays a growing aggregation cost, so small datasets scale almost
/// linearly while large ones saturate.
#[must_use]
pub fn replication_speedup(alg: ScalingModel, n: usize, copies: usize) -> f64 {
    let base = time_of(alg, n, DualConfig::paper());
    let repl = time_of(alg, n, DualConfig::paper().with_copies(copies));
    base / repl
}

/// Speedup of a `chips`-chip deployment over one chip for the same
/// workload (Fig. 14b): each doubling pays an inter-chip data-movement
/// tax that grows with the dataset (the paper reports 1.6× and 1.4×
/// per doubling at 100k and 10M points).
#[must_use]
pub fn chip_scaling_speedup(alg: ScalingModel, n: usize, chips: usize) -> f64 {
    let _ = alg; // the paper's fit is workload-size-driven
    if chips <= 1 {
        return 1.0;
    }
    let ideal = chips as f64;
    // Inter-chip overhead coefficient, interpolated in log₁₀(n) through
    // the paper's two reported operating points.
    let x = inter_chip_overhead(n);
    ideal / (1.0 + x * ideal.log2())
}

fn inter_chip_overhead(n: usize) -> f64 {
    // Fit: per-doubling speedups of 1.6× at 10⁵ points and 1.4× at 10⁷
    // points (§VIII-F) ⇒ x = 2/s − 1 at c = 2.
    let x5 = 2.0 / 1.6 - 1.0; // 0.25
    let x7 = 2.0 / 1.4 - 1.0; // ≈ 0.43
    let l = (n.max(10) as f64).log10();
    (x5 + (l - 5.0) / 2.0 * (x7 - x5)).clamp(0.05, 1.0)
}

fn time_of(alg: ScalingModel, n: usize, cfg: DualConfig) -> f64 {
    let m = PerfModel::new(cfg);
    match alg {
        ScalingModel::Hierarchical => m.hierarchical(n).time_s(),
        ScalingModel::KMeans => m.kmeans(n, 50).time_s(),
        ScalingModel::Dbscan => m.dbscan(n).time_s(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_datasets_scale_nearly_linearly() {
        // Fig 14a: 1K points speed up ~linearly with replication.
        let s = replication_speedup(ScalingModel::Hierarchical, 1_000, 8);
        assert!(s > 5.0, "1k-point speedup at 8 copies: {s}");
    }

    #[test]
    fn large_datasets_saturate() {
        // Fig 14a: 100K points saturate well below linear.
        let s8 = replication_speedup(ScalingModel::Hierarchical, 100_000, 8);
        let s64 = replication_speedup(ScalingModel::Hierarchical, 100_000, 64);
        assert!(s8 > 1.5);
        assert!(s64 < 40.0, "100k speedup at 64 copies: {s64}");
        // Diminishing returns per copy.
        assert!(s64 / s8 < 8.0);
    }

    #[test]
    fn doubling_chips_matches_paper_taxes() {
        // §VIII-F: 2 chips give ~1.6× at 100k and ~1.4× at 10M points.
        let s100k = chip_scaling_speedup(ScalingModel::Hierarchical, 100_000, 2);
        let s10m = chip_scaling_speedup(ScalingModel::Hierarchical, 10_000_000, 2);
        assert!((s100k - 1.6).abs() < 0.05, "{s100k}");
        assert!((s10m - 1.4).abs() < 0.05, "{s10m}");
        assert!(s100k > s10m);
    }

    #[test]
    fn sixteen_chips_land_in_paper_band() {
        // §VIII-F: 16 chips on 10M points ≈ 4.6× over one chip.
        let s = chip_scaling_speedup(ScalingModel::Hierarchical, 10_000_000, 16);
        assert!((3.5..7.5).contains(&s), "16-chip speedup {s}");
    }

    #[test]
    fn single_chip_is_identity() {
        assert_eq!(chip_scaling_speedup(ScalingModel::KMeans, 1_000, 1), 1.0);
    }
}
