//! Beyond-capacity clustering (§VI-A): when the dataset's pairwise
//! distance matrix exceeds the chip's distance memory, DUAL partitions
//! the run.
//!
//! The distance memory needs `n² · b` bits for hierarchical clustering;
//! a 64-tile chip holds 2 GB, so one chip tops out around 37 k points
//! at `b = 12`. Past that, the standard two-level scheme applies:
//! cluster each partition locally, extract one representative per local
//! cluster (the majority-bundle of its members — still a hypervector),
//! then cluster the representatives globally and broadcast the global
//! labels back. Both the **functional** path (small scale, bit-real)
//! and the **analytical** cost path (paper-scale, used by the Fig. 14b
//! iso-area comparison) live here.

use crate::{DualConfig, PerfModel, PhaseReport};
use dual_cluster::{hamming, AgglomerativeClustering, CondensedMatrix, Linkage};
use dual_hdc::{majority_bundle, HdcError, Hypervector};

/// The largest point count whose full `n × n` distance matrix fits the
/// configuration's chips.
#[must_use]
pub fn hierarchical_capacity(cfg: &DualConfig) -> usize {
    let bits_available = (cfg.chip.chip_bytes() * 8) as f64 * cfg.chips as f64;
    let b = f64::from(dual_pim::distance_bits(cfg.dim));
    (bits_available / b).sqrt() as usize
}

/// Plan of a partitioned hierarchical run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Points per partition.
    pub partition_size: usize,
    /// Number of partitions.
    pub partitions: usize,
    /// Local clusters extracted per partition.
    pub local_k: usize,
}

/// Choose a plan for `n` points / `k` final clusters under `cfg`.
///
/// Local runs keep `4k` clusters each so the representative stage still
/// has enough resolution to find the global structure.
#[must_use]
pub fn plan(cfg: &DualConfig, n: usize, k: usize) -> PartitionPlan {
    let cap = hierarchical_capacity(cfg).max(k.max(1) * 4);
    if n <= cap {
        return PartitionPlan {
            partition_size: n,
            partitions: 1,
            local_k: k,
        };
    }
    let partitions = n.div_ceil(cap);
    PartitionPlan {
        partition_size: n.div_ceil(partitions),
        partitions,
        local_k: (k * 4).max(2),
    }
}

/// Analytical cost of a partitioned hierarchical run: the local passes
/// execute back-to-back on the chip, then one representative pass.
#[must_use]
pub fn partitioned_cost(cfg: &DualConfig, n: usize, k: usize) -> PhaseReport {
    let p = plan(cfg, n, k);
    let model = PerfModel::new(*cfg);
    let mut total = model.hierarchical(p.partition_size);
    for _ in 1..p.partitions {
        total = total.preceded_by(model.hierarchical(p.partition_size));
    }
    if p.partitions > 1 {
        let reps = (p.partitions * p.local_k).min(n);
        total = model.hierarchical(reps).preceded_by(total);
    }
    total
}

/// Functional two-level hierarchical clustering over encoded points
/// (software Hamming path — the PIM equivalence of each stage is
/// covered by the accelerator tests). Returns labels in `0..k`.
///
/// # Errors
///
/// [`HdcError::InvalidParameter`] if `k == 0` while points exist, or
/// the [`HdcError`] of a local cluster's majority bundle.
pub fn partitioned_hierarchical(
    encoded: &[Hypervector],
    k: usize,
    partition_size: usize,
) -> Result<Vec<usize>, HdcError> {
    let n = encoded.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if k == 0 {
        return Err(HdcError::InvalidParameter {
            name: "k",
            reason: "need at least one cluster",
        });
    }
    let psize = partition_size.max(k.max(2) * 2).min(n);
    if psize >= n {
        return Ok(AgglomerativeClustering::fit(encoded, Linkage::Ward, hamming).cut(k));
    }
    let local_k = (k * 4).max(2);
    // Stage 1: local clustering per partition; representatives are the
    // majority bundles of each local cluster, weighted by member count.
    let mut reps: Vec<Hypervector> = Vec::new();
    let mut rep_weight: Vec<usize> = Vec::new();
    let mut member_rep: Vec<usize> = vec![0; n]; // representative index per point
    for (pi, chunk) in encoded.chunks(psize).enumerate() {
        let local_kk = local_k.min(chunk.len());
        let local = AgglomerativeClustering::fit(chunk, Linkage::Ward, hamming).cut(local_kk);
        let base = reps.len();
        let n_local = local.iter().copied().max().map_or(0, |m| m + 1);
        for c in 0..n_local {
            let members: Vec<&Hypervector> = chunk
                .iter()
                .zip(&local)
                .filter(|(_, &l)| l == c)
                .map(|(h, _)| h)
                .collect();
            rep_weight.push(members.len());
            reps.push(majority_bundle(&members)?);
        }
        for (off, &l) in local.iter().enumerate() {
            member_rep[pi * psize + off] = base + l;
        }
    }
    // Stage 2: cluster the representatives globally, carrying their
    // member counts into the weighted Ward recurrence.
    let matrix = CondensedMatrix::from_points(&reps, hamming);
    let global = AgglomerativeClustering::fit_precomputed_weighted(
        &matrix,
        Some(&rep_weight),
        Linkage::Ward,
    )
    .cut(k.min(reps.len()));
    Ok(member_rep.iter().map(|&r| global[r]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dual_cluster::cluster_accuracy;
    use dual_hdc::{Encoder, HdMapper};

    #[test]
    fn capacity_matches_chip_memory() {
        let cfg = DualConfig::paper();
        let cap = hierarchical_capacity(&cfg);
        // 2 GB × 8 / 12 bits ≈ 1.43e9 values ⇒ √ ≈ 37.8k points.
        assert!((35_000..40_000).contains(&cap), "capacity {cap}");
        let four_chip = DualConfig::paper().with_chips(4);
        assert!(hierarchical_capacity(&four_chip) > cap);
    }

    #[test]
    fn plan_is_single_partition_within_capacity() {
        let cfg = DualConfig::paper();
        let p = plan(&cfg, 10_000, 10);
        assert_eq!(p.partitions, 1);
        let p = plan(&cfg, 100_000, 10);
        assert!(p.partitions >= 2);
        assert!(p.partition_size * p.partitions >= 100_000);
        assert_eq!(p.local_k, 40);
    }

    #[test]
    fn partitioned_cost_scales_linearly_past_capacity() {
        let cfg = DualConfig::paper();
        let c1 = partitioned_cost(&cfg, 100_000, 50).time_s();
        let c2 = partitioned_cost(&cfg, 200_000, 50).time_s();
        let ratio = c2 / c1;
        assert!((1.7..2.4).contains(&ratio), "scaling ratio {ratio}");
    }

    fn encoded_blobs() -> (Vec<Hypervector>, Vec<usize>) {
        let mapper = HdMapper::builder(512, 4)
            .seed(3)
            .sigma(3.0)
            .build()
            .unwrap();
        let mut pts = Vec::new();
        let mut truth = Vec::new();
        let centers = [
            [0.0, 0.0, 0.0, 0.0],
            [9.0, 9.0, 0.0, 0.0],
            [0.0, 9.0, 9.0, 0.0],
        ];
        for (c, center) in centers.iter().enumerate() {
            for j in 0..20 {
                let p: Vec<f64> = center
                    .iter()
                    .enumerate()
                    .map(|(d, &v)| v + 0.15 * ((j + d) % 4) as f64)
                    .collect();
                pts.push(p);
                truth.push(c);
            }
        }
        (mapper.encode_batch(&pts).unwrap(), truth)
    }

    #[test]
    fn partitioned_run_preserves_quality_on_separated_blobs() {
        let (encoded, truth) = encoded_blobs();
        let mono = AgglomerativeClustering::fit(&encoded, Linkage::Ward, hamming).cut(3);
        let mono = cluster_accuracy(&mono, &truth);
        let part = cluster_accuracy(&partitioned_hierarchical(&encoded, 3, 20).unwrap(), &truth);
        assert!(mono > 0.95, "monolithic {mono}");
        assert!(part > 0.9, "partitioned {part}");
    }

    #[test]
    fn partitioned_degenerate_inputs() {
        assert!(partitioned_hierarchical(&[], 3, 10).unwrap().is_empty());
        let (encoded, _) = encoded_blobs();
        assert!(matches!(
            partitioned_hierarchical(&encoded, 0, 10),
            Err(HdcError::InvalidParameter { name: "k", .. })
        ));
        // Partition size ≥ n falls back to the monolithic path.
        let a = partitioned_hierarchical(&encoded, 3, 10_000).unwrap();
        let b = AgglomerativeClustering::fit(&encoded, Linkage::Ward, hamming).cut(3);
        assert_eq!(a, b);
    }
}
