//! Density-based clustering: classic DBSCAN (Ester et al., the paper's
//! baseline [58]) and the greedy nearest-neighbor-chain variant that
//! DUAL actually maps onto the PIM hardware (§VI-C, Fig. 9a,
//! Algorithm 1).

use crate::ClusterError;
use dual_obs::{Key, Obs};

/// Label value assigned to noise points by [`Dbscan`].
pub const NOISE: usize = usize::MAX;

/// Classic DBSCAN over an arbitrary distance function.
///
/// ```rust
/// use dual_cluster::{euclidean, Dbscan};
///
/// let pts = vec![vec![0.0], vec![0.1], vec![0.2], vec![9.0], vec![9.1], vec![9.2], vec![50.0]];
/// let res = Dbscan::new(0.5, 2).unwrap().fit(&pts, euclidean);
/// assert_eq!(res.n_clusters, 2);
/// assert_eq!(res.labels[6], dual_cluster::NOISE);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dbscan {
    eps: f64,
    min_pts: usize,
}

/// Outcome of a density-based clustering fit.
#[derive(Debug, Clone, PartialEq)]
pub struct DbscanResult {
    /// Cluster index per point; [`NOISE`] marks noise.
    pub labels: Vec<usize>,
    /// Number of clusters discovered.
    pub n_clusters: usize,
}

impl Dbscan {
    /// Configure with neighborhood radius `eps` and core-point threshold
    /// `min_pts`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] when `eps` is not
    /// positive/finite or `min_pts == 0`.
    pub fn new(eps: f64, min_pts: usize) -> Result<Self, ClusterError> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(ClusterError::InvalidParameter {
                name: "eps",
                reason: "must be positive and finite",
            });
        }
        if min_pts == 0 {
            return Err(ClusterError::InvalidParameter {
                name: "min_pts",
                reason: "must be positive",
            });
        }
        Ok(Self { eps, min_pts })
    }

    /// Run DBSCAN with pairwise distances from `dist`.
    pub fn fit<P, F>(&self, points: &[P], dist: F) -> DbscanResult
    where
        F: FnMut(&P, &P) -> f64,
    {
        self.fit_obs(points, dist, Obs::global())
    }

    /// [`Dbscan::fit`] recording its metrics (region queries, core
    /// points, fit span) into a caller-owned registry.
    pub fn fit_recorded<P, F>(
        &self,
        points: &[P],
        dist: F,
        registry: &dual_obs::Registry,
    ) -> DbscanResult
    where
        F: FnMut(&P, &P) -> f64,
    {
        self.fit_obs(points, dist, Obs::local(registry))
    }

    fn fit_obs<P, F>(&self, points: &[P], mut dist: F, obs: Obs<'_>) -> DbscanResult
    where
        F: FnMut(&P, &P) -> f64,
    {
        let n = points.len();
        let eps = self.eps;
        self.expand(
            n,
            |i| {
                (0..n)
                    .filter(|&j| j != i && dist(&points[i], &points[j]) <= eps)
                    .collect()
            },
            obs,
        )
    }

    /// Run DBSCAN with per-point neighbor lists built in parallel.
    ///
    /// Every `eps`-neighborhood is an independent scan over the points
    /// (the hardware analogue: each data block searches its rows
    /// concurrently), so the lists are precomputed by `threads` workers
    /// — each list in ascending index order, exactly as the serial
    /// `region` query produces it — and the cluster-expansion BFS then
    /// runs unchanged. Labels are therefore **bit-identical** to
    /// [`Dbscan::fit`] for every thread count (`0` = auto /
    /// `DUAL_THREADS`).
    pub fn fit_parallel<P, F>(&self, points: &[P], threads: usize, dist: F) -> DbscanResult
    where
        P: Sync,
        F: Fn(&P, &P) -> f64 + Sync,
    {
        self.fit_parallel_obs(points, threads, dist, Obs::global())
    }

    /// [`Dbscan::fit_parallel`] recording into a caller-owned registry.
    pub fn fit_parallel_recorded<P, F>(
        &self,
        points: &[P],
        threads: usize,
        dist: F,
        registry: &dual_obs::Registry,
    ) -> DbscanResult
    where
        P: Sync,
        F: Fn(&P, &P) -> f64 + Sync,
    {
        self.fit_parallel_obs(points, threads, dist, Obs::local(registry))
    }

    fn fit_parallel_obs<P, F>(
        &self,
        points: &[P],
        threads: usize,
        dist: F,
        obs: Obs<'_>,
    ) -> DbscanResult
    where
        P: Sync,
        F: Fn(&P, &P) -> f64 + Sync,
    {
        let n = points.len();
        let eps = self.eps;
        let neighbors: Vec<Vec<usize>> =
            dual_pool::par_map_chunks(points, threads, |offset, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(local, p)| {
                        let i = offset + local;
                        (0..n)
                            .filter(|&j| j != i && dist(p, &points[j]) <= eps)
                            .collect()
                    })
                    .collect()
            });
        self.expand(n, |i| neighbors[i].clone(), obs)
    }

    /// Shared cluster-expansion BFS: `region(i)` must return `i`'s
    /// `eps`-neighborhood in ascending index order.
    ///
    /// Instrumentation note: region queries are counted here — once per
    /// BFS lookup — not at neighbor-list *construction*, so the counter
    /// value is identical between [`Dbscan::fit`] (lazy queries) and
    /// [`Dbscan::fit_parallel`] (precomputed lists) for every thread
    /// count.
    fn expand<F>(&self, n: usize, mut region: F, obs: Obs<'_>) -> DbscanResult
    where
        F: FnMut(usize) -> Vec<usize>,
    {
        let _span = obs.span(Key::SpanDbscanFit);
        let mut labels = vec![NOISE; n];
        let mut visited = vec![false; n];
        let mut n_clusters = 0usize;
        for i in 0..n {
            if visited[i] {
                continue;
            }
            visited[i] = true;
            obs.add(Key::DbscanRegionQueries, 1);
            obs.tick(1);
            let mut neighbors = region(i);
            if neighbors.len() + 1 < self.min_pts {
                continue; // noise (may be adopted as border later)
            }
            obs.add(Key::DbscanCorePoints, 1);
            let cluster = n_clusters;
            n_clusters += 1;
            labels[i] = cluster;
            let mut q = std::collections::VecDeque::from(neighbors.clone());
            while let Some(j) = q.pop_front() {
                if labels[j] == NOISE {
                    labels[j] = cluster; // border or core adoption
                }
                if visited[j] {
                    continue;
                }
                visited[j] = true;
                obs.add(Key::DbscanRegionQueries, 1);
                obs.tick(1);
                neighbors = region(j);
                if neighbors.len() + 1 >= self.min_pts {
                    obs.add(Key::DbscanCorePoints, 1);
                    for &k in &neighbors {
                        if !visited[k] || labels[k] == NOISE {
                            q.push_back(k);
                        }
                    }
                }
            }
        }
        DbscanResult { labels, n_clusters }
    }
}

/// The greedy nearest-neighbor-chain clustering DUAL uses for its
/// "DBSCAN" mapping (§VI-C): starting from a seed point, repeatedly find
/// the globally nearest *unclustered* point; if it lies within `eps`,
/// absorb it into the current cluster and continue the chain from it;
/// otherwise close the cluster and restart from the point just found.
///
/// This formulation needs exactly the primitives the PIM supports — one
/// row-parallel Hamming distance per step plus one nearest search — and
/// never updates a distance matrix, which is why DBSCAN shows the least
/// interconnect sensitivity in Fig. 12.
///
/// ```rust
/// use dual_cluster::NnChainClustering;
///
/// let pts = vec![0.0_f64, 0.2, 0.4, 9.0, 9.2];
/// let res = NnChainClustering::new(1.0).unwrap()
///     .fit(&pts, |a, b| (a - b).abs());
/// assert_eq!(res.n_clusters, 2);
/// assert_eq!(res.labels[0], res.labels[1]);
/// assert_ne!(res.labels[0], res.labels[3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NnChainClustering {
    eps: f64,
}

impl NnChainClustering {
    /// Configure with chain-extension radius `eps`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] when `eps` is not
    /// positive/finite.
    pub fn new(eps: f64) -> Result<Self, ClusterError> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(ClusterError::InvalidParameter {
                name: "eps",
                reason: "must be positive and finite",
            });
        }
        Ok(Self { eps })
    }

    /// Run the chain clustering; every point ends up in some cluster
    /// (isolated points become singleton clusters, not noise).
    pub fn fit<P, F>(&self, points: &[P], mut dist: F) -> DbscanResult
    where
        F: FnMut(&P, &P) -> f64,
    {
        let n = points.len();
        let mut labels = vec![NOISE; n];
        let mut n_clusters = 0usize;
        if n == 0 {
            return DbscanResult { labels, n_clusters };
        }
        let mut cur = 0usize;
        labels[0] = 0;
        n_clusters = 1;
        let mut remaining = n - 1;
        while remaining > 0 {
            // Row-parallel Hamming + nearest search over unclustered rows.
            let mut best = usize::MAX;
            let mut best_d = f64::INFINITY;
            for j in 0..n {
                if labels[j] == NOISE {
                    let d = dist(&points[cur], &points[j]);
                    if d < best_d {
                        best_d = d;
                        best = j;
                    }
                }
            }
            let j = best;
            if best_d <= self.eps {
                labels[j] = labels[cur]; // extend the chain
            } else {
                labels[j] = n_clusters; // too far: open a new cluster
                n_clusters += 1;
            }
            cur = j;
            remaining -= 1;
        }
        DbscanResult { labels, n_clusters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean;
    use proptest::prelude::*;

    #[test]
    fn dbscan_rejects_bad_params() {
        assert!(Dbscan::new(0.0, 2).is_err());
        assert!(Dbscan::new(f64::NAN, 2).is_err());
        assert!(Dbscan::new(1.0, 0).is_err());
        assert!(NnChainClustering::new(-1.0).is_err());
    }

    #[test]
    fn dbscan_finds_dense_blobs_and_noise() {
        let pts: Vec<Vec<f64>> = vec![
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![5.0],
            vec![5.1],
            vec![5.2],
            vec![100.0],
        ];
        let res = Dbscan::new(0.3, 3).unwrap().fit(&pts, euclidean);
        assert_eq!(res.n_clusters, 2);
        assert_eq!(res.labels[0], res.labels[1]);
        assert_eq!(res.labels[1], res.labels[2]);
        assert_eq!(res.labels[3], res.labels[4]);
        assert_ne!(res.labels[0], res.labels[3]);
        assert_eq!(res.labels[6], NOISE);
    }

    #[test]
    fn dbscan_border_points_join_clusters() {
        // 0.0..0.3 dense core; 0.55 is border (within eps of 0.3 but not core).
        let pts: Vec<Vec<f64>> = [0.0, 0.1, 0.2, 0.3, 0.55]
            .iter()
            .map(|&x| vec![x])
            .collect();
        let res = Dbscan::new(0.3, 3).unwrap().fit(&pts, euclidean);
        assert_eq!(res.n_clusters, 1);
        assert_eq!(res.labels[4], res.labels[0]);
    }

    #[test]
    fn dbscan_all_noise_when_sparse() {
        let pts: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 * 100.0]).collect();
        let res = Dbscan::new(1.0, 2).unwrap().fit(&pts, euclidean);
        assert_eq!(res.n_clusters, 0);
        assert!(res.labels.iter().all(|&l| l == NOISE));
    }

    #[test]
    fn dbscan_empty_input() {
        let pts: Vec<Vec<f64>> = Vec::new();
        let res = Dbscan::new(1.0, 2).unwrap().fit(&pts, euclidean);
        assert_eq!(res.n_clusters, 0);
        assert!(res.labels.is_empty());
    }

    #[test]
    fn chain_clusters_two_groups() {
        let pts = vec![0.0_f64, 0.2, 0.4, 9.0, 9.2, 9.4];
        let res = NnChainClustering::new(1.0)
            .unwrap()
            .fit(&pts, |a, b| (a - b).abs());
        assert_eq!(res.n_clusters, 2);
        assert_eq!(res.labels[0], res.labels[2]);
        assert_eq!(res.labels[3], res.labels[5]);
        assert_ne!(res.labels[0], res.labels[3]);
    }

    #[test]
    fn chain_assigns_every_point() {
        let pts = vec![0.0_f64, 100.0, 200.0];
        let res = NnChainClustering::new(1.0)
            .unwrap()
            .fit(&pts, |a, b| (a - b).abs());
        assert_eq!(res.n_clusters, 3);
        assert!(res.labels.iter().all(|&l| l != NOISE));
    }

    #[test]
    fn chain_empty_and_singleton() {
        let none: Vec<f64> = Vec::new();
        let res = NnChainClustering::new(1.0)
            .unwrap()
            .fit(&none, |a, b| (a - b).abs());
        assert_eq!(res.n_clusters, 0);
        let one = vec![3.0_f64];
        let res = NnChainClustering::new(1.0)
            .unwrap()
            .fit(&one, |a, b| (a - b).abs());
        assert_eq!(res.n_clusters, 1);
        assert_eq!(res.labels, vec![0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_dbscan_labels_consistent(xs in proptest::collection::vec(-50.0f64..50.0, 0..30),
                                         eps in 0.1f64..5.0, min_pts in 1usize..5) {
            let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
            let res = Dbscan::new(eps, min_pts).unwrap().fit(&pts, euclidean);
            // Non-noise labels form the contiguous range 0..n_clusters.
            for &l in &res.labels {
                prop_assert!(l == NOISE || l < res.n_clusters);
            }
            let mut seen: Vec<usize> = res.labels.iter().copied().filter(|&l| l != NOISE).collect();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), res.n_clusters);
        }

        #[test]
        fn prop_chain_covers_all_points(xs in proptest::collection::vec(-50.0f64..50.0, 1..40),
                                        eps in 0.1f64..10.0) {
            let res = NnChainClustering::new(eps).unwrap().fit(&xs, |a, b| (a - b).abs());
            prop_assert!(res.labels.iter().all(|&l| l < res.n_clusters));
            prop_assert!(res.n_clusters >= 1);
        }

        #[test]
        fn prop_chain_single_cluster_when_eps_huge(xs in proptest::collection::vec(-50.0f64..50.0, 1..40)) {
            let res = NnChainClustering::new(1e9).unwrap().fit(&xs, |a, b| (a - b).abs());
            prop_assert_eq!(res.n_clusters, 1);
        }
    }
}
