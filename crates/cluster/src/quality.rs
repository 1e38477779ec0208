//! Clustering quality metrics.
//!
//! The paper's headline metric (§VIII-B) is *cluster accuracy*: assign
//! each discovered cluster the ground-truth label most frequent inside
//! it, then score the fraction of points whose cluster label matches
//! their own. Purity and normalized mutual information are included as
//! cross-checks.

use std::collections::BTreeMap;

/// The paper's quality metric: majority-label cluster accuracy in
/// `[0, 1]`.
///
/// Each predicted cluster is assigned the most frequent true label among
/// its members; the score is the fraction of correctly explained points.
/// Noise markers (any predicted label ≥ `labels.len()` such as
/// [`crate::NOISE`]) count as their own singleton clusters — i.e. each
/// noise point trivially scores as correct only for itself, matching how
/// the paper counts "points classified in a cluster that does not
/// reflect the label".
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```rust
/// let truth = [0, 0, 1, 1];
/// let pred  = [5, 5, 9, 9]; // arbitrary cluster ids are fine
/// assert_eq!(dual_cluster::cluster_accuracy(&pred, &truth), 1.0);
/// ```
#[must_use]
pub fn cluster_accuracy(predicted: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    if predicted.is_empty() {
        return 1.0;
    }
    let mut per_cluster: BTreeMap<usize, BTreeMap<usize, usize>> = BTreeMap::new();
    for (&p, &t) in predicted.iter().zip(truth) {
        *per_cluster.entry(p).or_default().entry(t).or_default() += 1;
    }
    let correct: usize = per_cluster
        .values()
        .map(|hist| hist.values().copied().max().unwrap_or(0))
        .sum();
    correct as f64 / predicted.len() as f64
}

/// Purity — identical to [`cluster_accuracy`] for hard clusterings; kept
/// as a named alias because the literature uses both terms.
#[must_use]
pub fn purity(predicted: &[usize], truth: &[usize]) -> f64 {
    cluster_accuracy(predicted, truth)
}

/// Normalized mutual information between two labelings, in `[0, 1]`
/// (arithmetic-mean normalization). Returns 1.0 when either labeling is
/// constant and the other matches it, 0.0 for independent labelings.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn normalized_mutual_information(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let n = a.len();
    if n == 0 {
        return 1.0;
    }
    let nf = n as f64;
    // BTreeMaps so the f64 entropy/MI folds below visit keys in a fixed
    // order — the sums are then bit-identical across runs.
    let mut joint: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut ca: BTreeMap<usize, usize> = BTreeMap::new();
    let mut cb: BTreeMap<usize, usize> = BTreeMap::new();
    for (&x, &y) in a.iter().zip(b) {
        *joint.entry((x, y)).or_default() += 1;
        *ca.entry(x).or_default() += 1;
        *cb.entry(y).or_default() += 1;
    }
    let entropy = |c: &BTreeMap<usize, usize>| -> f64 {
        c.values()
            .map(|&cnt| {
                let p = cnt as f64 / nf;
                -p * p.ln()
            })
            .sum()
    };
    let ha = entropy(&ca);
    let hb = entropy(&cb);
    let mut mi = 0.0;
    for (&(x, y), &cnt) in &joint {
        let pxy = cnt as f64 / nf;
        let px = ca[&x] as f64 / nf;
        let py = cb[&y] as f64 / nf;
        mi += pxy * (pxy / (px * py)).ln();
    }
    let denom = 0.5 * (ha + hb);
    if denom <= f64::EPSILON {
        // Both labelings constant: identical iff they carry no information.
        return 1.0;
    }
    (mi / denom).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_clustering_scores_one() {
        let truth = [0, 0, 1, 1, 2, 2];
        let pred = [7, 7, 3, 3, 0, 0];
        assert_eq!(cluster_accuracy(&pred, &truth), 1.0);
        assert!((normalized_mutual_information(&pred, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_mistake_costs_one_point() {
        let truth = [0, 0, 0, 1, 1, 1];
        let pred = [0, 0, 1, 1, 1, 1];
        assert!((cluster_accuracy(&pred, &truth) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn single_cluster_scores_majority_fraction() {
        let truth = [0, 0, 0, 1];
        let pred = [9, 9, 9, 9];
        assert!((cluster_accuracy(&pred, &truth) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_trivially_perfect() {
        assert_eq!(cluster_accuracy(&[], &[]), 1.0);
        assert_eq!(normalized_mutual_information(&[], &[]), 1.0);
    }

    #[test]
    fn nmi_of_independent_labelings_is_low() {
        // Alternating vs block labels over 8 points: independent-ish.
        let a = [0, 1, 0, 1, 0, 1, 0, 1];
        let b = [0, 0, 0, 0, 1, 1, 1, 1];
        assert!(normalized_mutual_information(&a, &b) < 0.05);
    }

    #[test]
    fn nmi_constant_vs_varied() {
        let a = [0, 0, 0, 0];
        let b = [0, 1, 2, 3];
        // Constant labeling carries no information about b.
        assert!(normalized_mutual_information(&a, &b) < 1.0);
    }

    proptest! {
        #[test]
        fn prop_accuracy_in_unit_interval(pred in proptest::collection::vec(0usize..6, 1..60),
                                          truth in proptest::collection::vec(0usize..6, 1..60)) {
            let n = pred.len().min(truth.len());
            let acc = cluster_accuracy(&pred[..n], &truth[..n]);
            prop_assert!((0.0..=1.0).contains(&acc));
        }

        #[test]
        fn prop_accuracy_of_identity_is_one(truth in proptest::collection::vec(0usize..6, 1..60)) {
            prop_assert_eq!(cluster_accuracy(&truth, &truth), 1.0);
        }

        #[test]
        fn prop_relabeling_clusters_preserves_accuracy(truth in proptest::collection::vec(0usize..4, 1..60)) {
            // Accuracy must be invariant to permuting cluster ids.
            let relabeled: Vec<usize> = truth.iter().map(|&l| (l + 17) * 3).collect();
            prop_assert_eq!(cluster_accuracy(&relabeled, &truth), 1.0);
        }

        #[test]
        fn prop_nmi_symmetric(a in proptest::collection::vec(0usize..5, 1..40),
                              b in proptest::collection::vec(0usize..5, 1..40)) {
            let n = a.len().min(b.len());
            let x = normalized_mutual_information(&a[..n], &b[..n]);
            let y = normalized_mutual_information(&b[..n], &a[..n]);
            prop_assert!((x - y).abs() < 1e-9);
        }

        #[test]
        fn prop_finer_clustering_never_hurts_accuracy(truth in proptest::collection::vec(0usize..4, 2..50),
                                                      pred in proptest::collection::vec(0usize..4, 2..50)) {
            // Splitting each predicted cluster by position can only raise
            // the majority-match count.
            let n = truth.len().min(pred.len());
            let coarse = cluster_accuracy(&pred[..n], &truth[..n]);
            let finer: Vec<usize> = pred[..n].iter().enumerate()
                .map(|(i, &p)| p * 2 + (i % 2))
                .collect();
            prop_assert!(cluster_accuracy(&finer, &truth[..n]) >= coarse - 1e-12);
        }
    }
}
