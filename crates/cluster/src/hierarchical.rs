//! Agglomerative hierarchical clustering (§II, Fig. 1).
//!
//! The algorithm mirrors the paper's description: build the full
//! pairwise-distance matrix, then repeatedly (1) find the globally
//! closest pair of active clusters, (2) merge them, and (3) update the
//! merged cluster's distance to every bystander with the configured
//! [`Linkage`]. A per-cluster nearest-neighbor cache keeps the software
//! implementation at `O(n²)` amortized per full run instead of the naive
//! `O(n³)` scan the hardware happily parallelizes.

use crate::{CondensedMatrix, Linkage};
use dual_obs::{Key, Obs};

/// One merge step of the dendrogram, in scikit-learn/scipy convention:
/// original points are clusters `0..n`, and the `t`-th merge creates
/// cluster id `n + t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged cluster id.
    pub left: usize,
    /// Second merged cluster id.
    pub right: usize,
    /// Linkage distance at which the merge happened.
    pub distance: f64,
    /// Number of original points in the new cluster.
    pub size: usize,
}

/// The full merge history of a hierarchical clustering run.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    fn cut_after(&self, applied: usize) -> Vec<usize> {
        if self.n == 0 {
            return Vec::new();
        }
        let mut parent: Vec<usize> = (0..self.n + applied).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (t, m) in self.merges.iter().take(applied).enumerate() {
            let nid = self.n + t;
            let ra = find(&mut parent, m.left);
            let rb = find(&mut parent, m.right);
            parent[ra] = nid;
            parent[rb] = nid;
        }
        let mut label_of_root = std::collections::BTreeMap::new();
        let mut labels = Vec::with_capacity(self.n);
        for p in 0..self.n {
            let root = find(&mut parent, p);
            let next = label_of_root.len();
            let lbl = *label_of_root.entry(root).or_insert(next);
            labels.push(lbl);
        }
        labels
    }

    /// Flat cluster labels obtained by stopping the agglomeration when
    /// `k` clusters remain. Labels are `0..k'` in order of first
    /// appearance, where `k' = min(k, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` and `n > 0`.
    #[must_use]
    pub fn cut(&self, k: usize) -> Vec<usize> {
        if self.n == 0 {
            return Vec::new();
        }
        assert!(k > 0, "cannot cut a dendrogram into zero clusters");
        let applied = self.merges.len().saturating_sub(k.saturating_sub(1));
        self.cut_after(applied)
    }
}

/// A fitted agglomerative clustering model.
///
/// See the crate-level example. Use [`AgglomerativeClustering::fit`] for
/// point data or [`AgglomerativeClustering::fit_precomputed`] when the
/// pairwise matrix was produced elsewhere (e.g. by the PIM simulator).
#[derive(Debug, Clone, PartialEq)]
pub struct AgglomerativeClustering {
    linkage: Linkage,
    dendrogram: Dendrogram,
}

impl AgglomerativeClustering {
    /// Cluster `points` bottom-up under `linkage` with pairwise
    /// distances from `dist`.
    ///
    /// For [`Linkage::Ward`], pass a *squared* distance (e.g.
    /// [`crate::squared_euclidean`] or [`crate::hamming`]).
    pub fn fit<P, F>(points: &[P], linkage: Linkage, dist: F) -> Self
    where
        F: FnMut(&P, &P) -> f64,
    {
        let matrix = CondensedMatrix::from_points(points, dist);
        Self::fit_precomputed(&matrix, linkage)
    }

    /// Cluster from a precomputed pairwise matrix.
    #[must_use]
    pub fn fit_precomputed(matrix: &CondensedMatrix, linkage: Linkage) -> Self {
        Self::fit_precomputed_weighted(matrix, None, linkage)
    }

    /// Cluster from a precomputed pairwise matrix where item `i` stands
    /// for `weights[i]` original points — the second stage of a
    /// partitioned run, where each item is a representative of a local
    /// cluster. Size-sensitive linkages (average, Ward) then weight the
    /// Lance–Williams recurrence correctly; for [`Linkage::Ward`] the
    /// initial dissimilarities are additionally pre-scaled to the ESS
    /// form `2·w_i·w_j/(w_i+w_j)·d_ij` (the identity map for unit
    /// weights), so a weighted run over representatives approximates the
    /// Ward merge order of the underlying full dataset.
    ///
    /// Every `fit_*` entry point runs here. Each accepted merge bumps
    /// `cluster.hier.merge_steps` and advances the logical clock by one
    /// tick; the whole run is timed (in ticks) into the `span.hier_fit`
    /// histogram. The recording sites are outside the O(n) inner scans,
    /// so instrumentation cost is one branch per merge.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is `Some` with a length other than
    /// `matrix.n()`, or contains a zero.
    #[must_use]
    pub fn fit_precomputed_weighted(
        matrix: &CondensedMatrix,
        weights: Option<&[usize]>,
        linkage: Linkage,
    ) -> Self {
        let obs = Obs::global();
        let _span = obs.span(Key::SpanHierFit);
        let n = matrix.n();
        let init_sizes: Vec<f64> = match weights {
            Some(w) => {
                assert_eq!(w.len(), n, "one weight per item");
                assert!(w.iter().all(|&x| x > 0), "weights must be positive");
                w.iter().map(|&x| x as f64).collect()
            }
            None => vec![1.0; n],
        };
        let mut d = vec![0.0f64; n * n];
        for (i, j, v) in matrix.iter_pairs() {
            let v = if linkage == Linkage::Ward {
                // ESS pre-scaling for weighted items (identity at w=1).
                2.0 * init_sizes[i] * init_sizes[j] / (init_sizes[i] + init_sizes[j]) * v
            } else {
                v
            };
            d[i * n + j] = v;
            d[j * n + i] = v;
        }
        let mut active: Vec<bool> = vec![true; n];
        let mut sizes: Vec<f64> = init_sizes;
        // Cluster id (dendrogram convention) currently living at each slot.
        let mut ids: Vec<usize> = (0..n).collect();
        // Nearest active neighbor cache.
        let mut nn: Vec<usize> = (0..n).map(|i| nearest(&d, &active, n, i)).collect();
        let mut merges = Vec::with_capacity(n.saturating_sub(1));
        for step in 0..n.saturating_sub(1) {
            // Globally closest pair = min over slots of slot->nn distance.
            let mut best = usize::MAX;
            let mut best_d = f64::INFINITY;
            for i in 0..n {
                if active[i] && nn[i] != usize::MAX {
                    let dd = d[i * n + nn[i]];
                    if dd < best_d {
                        best_d = dd;
                        best = i;
                    }
                }
            }
            let i = best;
            let j = nn[i];
            debug_assert!(active[i] && active[j] && i != j);
            // Record the merge and retire slot j into slot i.
            obs.add(Key::HierMergeSteps, 1);
            obs.tick(1);
            merges.push(Merge {
                left: ids[i],
                right: ids[j],
                distance: best_d,
                size: (sizes[i] + sizes[j]) as usize,
            });
            ids[i] = n + step;
            // Lance–Williams update of slot i's distances.
            let (s_i, s_j) = (sizes[i], sizes[j]);
            let d_ij = d[i * n + j];
            for k in 0..n {
                if k != i && k != j && active[k] {
                    let nd = linkage.update(d[i * n + k], d[j * n + k], d_ij, s_i, s_j, sizes[k]);
                    d[i * n + k] = nd;
                    d[k * n + i] = nd;
                }
            }
            sizes[i] += sizes[j];
            active[j] = false;
            nn[j] = usize::MAX;
            nn[i] = nearest(&d, &active, n, i);
            // Repair caches that pointed at the merged slots.
            for k in 0..n {
                if !active[k] || k == i {
                    continue;
                }
                if nn[k] == i || nn[k] == j {
                    nn[k] = nearest(&d, &active, n, k);
                } else if d[k * n + i] < d[k * n + nn[k]] {
                    nn[k] = i;
                }
            }
        }
        Self {
            linkage,
            dendrogram: Dendrogram { n, merges },
        }
    }

    /// Flat cluster labels obtained by stopping the agglomeration when
    /// `k` clusters remain. Labels are `0..k'` in order of first
    /// appearance, where `k' = min(k, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` and `n > 0`.
    #[must_use]
    pub fn cut(&self, k: usize) -> Vec<usize> {
        self.dendrogram.cut(k)
    }
}

fn nearest(d: &[f64], active: &[bool], n: usize, i: usize) -> usize {
    let mut best = usize::MAX;
    let mut best_d = f64::INFINITY;
    for j in 0..n {
        if j != i && active[j] {
            let dd = d[i * n + j];
            if dd < best_d {
                best_d = dd;
                best = j;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{euclidean, squared_euclidean};
    use proptest::prelude::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, -0.1],
            vec![8.0, 8.0],
            vec![8.1, 7.9],
            vec![7.9, 8.2],
        ]
    }

    #[test]
    fn separates_two_blobs_under_every_linkage() {
        let pts = two_blobs();
        for linkage in Linkage::all() {
            let model = AgglomerativeClustering::fit(&pts, linkage, euclidean);
            let labels = model.cut(2);
            assert_eq!(labels[0], labels[1]);
            assert_eq!(labels[1], labels[2]);
            assert_eq!(labels[3], labels[4]);
            assert_eq!(labels[4], labels[5]);
            assert_ne!(labels[0], labels[3], "linkage {linkage:?}");
        }
    }

    #[test]
    fn dendrogram_has_n_minus_one_merges() {
        let pts = two_blobs();
        let model = AgglomerativeClustering::fit(&pts, Linkage::Average, euclidean);
        assert_eq!(model.dendrogram.merges.len(), 5);
        assert_eq!(model.dendrogram.n, 6);
        // Final merge contains all points.
        assert_eq!(model.dendrogram.merges.last().unwrap().size, 6);
    }

    #[test]
    fn cut_extremes() {
        let pts = two_blobs();
        let model = AgglomerativeClustering::fit(&pts, Linkage::Ward, squared_euclidean);
        assert!(model.cut(1).iter().all(|&l| l == 0));
        let all = model.cut(6);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
        // k beyond n behaves like n.
        assert_eq!(model.cut(10), all);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<Vec<f64>> = Vec::new();
        let model = AgglomerativeClustering::fit(&empty, Linkage::Single, euclidean);
        assert!(model.cut(3).is_empty());
        let one = vec![vec![1.0]];
        let model = AgglomerativeClustering::fit(&one, Linkage::Single, euclidean);
        assert_eq!(model.cut(1), vec![0]);
    }

    #[test]
    fn single_linkage_follows_chains() {
        // A chain of equally spaced points plus one outlier: single
        // linkage keeps the chain together, complete linkage splits it.
        let pts: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![i as f64, 0.0])
            .chain(std::iter::once(vec![100.0, 0.0]))
            .collect();
        let single = AgglomerativeClustering::fit(&pts, Linkage::Single, euclidean).cut(2);
        assert!(single[..8].iter().all(|&l| l == single[0]));
        assert_ne!(single[8], single[0]);
    }

    #[test]
    fn merge_distances_nondecreasing_for_reducible_linkages() {
        // Single/complete/average/ward are all reducible, so the merge
        // sequence must be monotone.
        let pts = two_blobs();
        for linkage in Linkage::all() {
            let dist = if linkage == Linkage::Ward {
                squared_euclidean
            } else {
                euclidean
            };
            let model = AgglomerativeClustering::fit(&pts, linkage, dist);
            let ds: Vec<f64> = model.dendrogram.merges.iter().map(|m| m.distance).collect();
            for w in ds.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "{linkage:?}: {ds:?}");
            }
        }
    }

    #[test]
    fn ward_merges_tight_pair_first() {
        let pts = vec![vec![0.0], vec![0.1], vec![10.0], vec![20.0]];
        let model = AgglomerativeClustering::fit(&pts, Linkage::Ward, squared_euclidean);
        let first = model.dendrogram.merges[0];
        assert_eq!(
            (first.left.min(first.right), first.left.max(first.right)),
            (0, 1)
        );
    }

    #[test]
    fn weighted_fit_biases_ward_toward_heavy_items() {
        // Three items on a line: a heavy pair far apart and a light
        // middle point. Unweighted Ward merges the two closest items;
        // with a huge weight on one endpoint, merging *into* it becomes
        // expensive and the light middle point pairs with the lighter
        // endpoint instead.
        let pts = [0.0_f64, 4.0, 9.0];
        let m = CondensedMatrix::from_points(&pts, |a, b| (a - b) * (a - b));
        let unweighted = AgglomerativeClustering::fit_precomputed(&m, Linkage::Ward);
        let first = unweighted.dendrogram.merges[0];
        assert_eq!(
            (first.left.min(first.right), first.left.max(first.right)),
            (0, 1)
        );
        let weighted = AgglomerativeClustering::fit_precomputed_weighted(
            &m,
            Some(&[1000, 1, 1]),
            Linkage::Ward,
        );
        let first = weighted.dendrogram.merges[0];
        assert_eq!(
            (first.left.min(first.right), first.left.max(first.right)),
            (1, 2),
            "the light points should merge first"
        );
    }

    #[test]
    #[should_panic(expected = "one weight per item")]
    fn weighted_fit_rejects_wrong_length() {
        let m = CondensedMatrix::zeros(3);
        let _ = AgglomerativeClustering::fit_precomputed_weighted(&m, Some(&[1, 2]), Linkage::Ward);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_cut_k_yields_at_most_k_clusters(
            xs in proptest::collection::vec(-50.0f64..50.0, 2..24),
            k in 1usize..8,
        ) {
            let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
            let model = AgglomerativeClustering::fit(&pts, Linkage::Average, euclidean);
            let labels = model.cut(k);
            prop_assert_eq!(labels.len(), pts.len());
            let mut uniq = labels.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert!(uniq.len() <= k.min(pts.len()));
            // Labels are a contiguous range starting at zero.
            prop_assert!(uniq.iter().enumerate().all(|(i, &l)| i == l));
        }

        #[test]
        #[ignore] // run with --ignored: O(n³) reference comparison
        fn prop_matches_naive_reference(
            xs in proptest::collection::vec(-10.0f64..10.0, 3..12),
        ) {
            // Compare merge heights against a naive full-scan reference.
            let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
            let fast = AgglomerativeClustering::fit(&pts, Linkage::Complete, euclidean);
            let naive = naive_reference(&pts, Linkage::Complete);
            let fd: Vec<f64> = fast.dendrogram.merges.iter().map(|m| m.distance).collect();
            prop_assert_eq!(fd.len(), naive.len());
            for (a, b) in fd.iter().zip(&naive) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// Naive O(n³) reference that rescans the whole matrix per merge.
    fn naive_reference(pts: &[Vec<f64>], linkage: Linkage) -> Vec<f64> {
        let n = pts.len();
        let mut d = vec![f64::INFINITY; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    d[i * n + j] = euclidean(&pts[i], &pts[j]);
                }
            }
        }
        let mut active = vec![true; n];
        let mut sizes = vec![1.0; n];
        let mut out = Vec::new();
        for _ in 0..n - 1 {
            let mut bi = 0;
            let mut bj = 0;
            let mut bd = f64::INFINITY;
            for i in 0..n {
                for j in 0..n {
                    if i != j && active[i] && active[j] && d[i * n + j] < bd {
                        bd = d[i * n + j];
                        bi = i;
                        bj = j;
                    }
                }
            }
            out.push(bd);
            let d_ij = d[bi * n + bj];
            for k in 0..n {
                if k != bi && k != bj && active[k] {
                    let nd = linkage.update(
                        d[bi * n + k],
                        d[bj * n + k],
                        d_ij,
                        sizes[bi],
                        sizes[bj],
                        sizes[k],
                    );
                    d[bi * n + k] = nd;
                    d[k * n + bi] = nd;
                }
            }
            sizes[bi] += sizes[bj];
            active[bj] = false;
        }
        out
    }

    #[test]
    fn matches_naive_reference_fixed_case() {
        let pts: Vec<Vec<f64>> = [0.0, 1.0, 1.5, 4.0, 4.2, 9.0]
            .iter()
            .map(|&x| vec![x])
            .collect();
        for linkage in Linkage::all() {
            let fast = AgglomerativeClustering::fit(&pts, linkage, euclidean);
            let naive = naive_reference(&pts, linkage);
            let fd: Vec<f64> = fast.dendrogram.merges.iter().map(|m| m.distance).collect();
            assert_eq!(fd.len(), naive.len());
            for (a, b) in fd.iter().zip(&naive) {
                assert!((a - b).abs() < 1e-9, "{linkage:?}: {fd:?} vs {naive:?}");
            }
        }
    }
}
