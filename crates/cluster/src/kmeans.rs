//! K-means clustering: Euclidean Lloyd's algorithm (baseline) and the
//! binary Hamming-space variant DUAL executes in memory (§VI-C, Fig. 9b).

use crate::{squared_euclidean, ClusterError};
use dual_hdc::{majority_bundle, Hypervector};
use dual_obs::{Key, Obs};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Euclidean k-means (Lloyd's algorithm with k-means++ initialization) —
/// the software baseline the paper's GPU comparison runs.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    k: usize,
    max_iters: usize,
    tol: f64,
    seed: u64,
    threads: usize,
}

/// Outcome of a [`KMeans::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster index per input point.
    pub labels: Vec<usize>,
    /// Final cluster centers (`k × m`).
    pub centers: Vec<Vec<f64>>,
    /// Iterations executed before convergence or the cap.
    pub iterations: usize,
    /// Sum of squared distances of points to their assigned center.
    pub inertia: f64,
}

impl KMeans {
    /// Configure a run with `k` clusters.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] when `k == 0`.
    pub fn new(k: usize) -> Result<Self, ClusterError> {
        if k == 0 {
            return Err(ClusterError::InvalidParameter {
                name: "k",
                reason: "must be positive",
            });
        }
        Ok(Self {
            k,
            max_iters: 100,
            tol: 1e-6,
            seed: 0,
            threads: 1,
        })
    }

    /// Cap on Lloyd iterations (default 100).
    #[must_use]
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Convergence tolerance on total center movement (default 1e-6).
    #[must_use]
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Seed for the k-means++ initialization (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for the assignment and centroid-accumulation
    /// steps (default 1 — fully serial; `0` means "auto", honouring the
    /// `DUAL_THREADS` override). Results are **bit-identical** for every
    /// thread count: assignments are per-point independent and centroid
    /// sums are accumulated over fixed 1024-point blocks folded in block
    /// order, so the floating-point summation order never depends on the
    /// thread count (see [`dual_pool::fixed_blocks`]).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Run Lloyd's algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::TooFewPoints`] when fewer than `k` points
    /// are supplied.
    pub fn fit(&self, points: &[Vec<f64>]) -> Result<KMeansResult, ClusterError> {
        self.fit_with(points, Obs::global())
    }

    /// [`KMeans::fit`] recording its metrics (iterations,
    /// reassignments, fit span) into a caller-owned registry instead of
    /// the process-global recorder — the isolation the byte-stability
    /// tests rely on.
    ///
    /// # Errors
    ///
    /// Same contract as [`KMeans::fit`].
    pub fn fit_recorded(
        &self,
        points: &[Vec<f64>],
        registry: &dual_obs::Registry,
    ) -> Result<KMeansResult, ClusterError> {
        self.fit_with(points, Obs::local(registry))
    }

    fn fit_with(&self, points: &[Vec<f64>], obs: Obs<'_>) -> Result<KMeansResult, ClusterError> {
        let _span = obs.span(Key::SpanKmeansFit);
        let n = points.len();
        if n < self.k {
            return Err(ClusterError::TooFewPoints {
                needed: self.k,
                got: n,
            });
        }
        let m = points[0].len();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut centers = kmeans_pp_init(points, self.k, &mut rng);
        let mut labels = vec![0usize; n];
        let mut iterations = 0;
        for iter in 0..self.max_iters.max(1) {
            iterations = iter + 1;
            obs.add(Key::KmeansIterations, 1);
            obs.tick(1);
            // Assignment step: per-point independent, so parallel chunks
            // write disjoint label slices and the result cannot depend on
            // the thread count.
            let prev = if obs.enabled() {
                labels.clone()
            } else {
                Vec::new()
            };
            assign_labels(points, &centers, &mut labels, self.threads);
            if obs.enabled() {
                let changed = prev.iter().zip(&labels).filter(|(a, b)| a != b).count();
                obs.add(Key::KmeansReassignments, changed as u64);
            }
            // Update step: per-fixed-block partial (sums, counts) folded
            // in block order — the float summation order is a function of
            // `n` alone, never of the thread count.
            let partials =
                dual_pool::par_map_fixed(dual_pool::fixed_blocks(n), self.threads, |range| {
                    let mut sums = vec![vec![0.0f64; m]; self.k];
                    let mut counts = vec![0usize; self.k];
                    for idx in range {
                        let lbl = labels[idx];
                        counts[lbl] += 1;
                        for (s, x) in sums[lbl].iter_mut().zip(&points[idx]) {
                            *s += x;
                        }
                    }
                    (sums, counts)
                });
            let mut sums = vec![vec![0.0f64; m]; self.k];
            let mut counts = vec![0usize; self.k];
            for (part_sums, part_counts) in partials {
                for (acc, part) in sums.iter_mut().zip(&part_sums) {
                    for (s, x) in acc.iter_mut().zip(part) {
                        *s += x;
                    }
                }
                for (c, x) in counts.iter_mut().zip(&part_counts) {
                    *c += x;
                }
            }
            let mut movement = 0.0;
            for c in 0..self.k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at a random point.
                    let idx = rng.gen_range(0..n);
                    movement += squared_euclidean(&centers[c], &points[idx]).sqrt();
                    centers[c] = points[idx].clone();
                    continue;
                }
                let new: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
                movement += squared_euclidean(&centers[c], &new).sqrt();
                centers[c] = new;
            }
            if movement <= self.tol {
                break;
            }
        }
        // Final assignment against the converged centers.
        assign_labels(points, &centers, &mut labels, self.threads);
        let inertia = dual_pool::par_map_fixed(dual_pool::fixed_blocks(n), self.threads, |range| {
            range
                .map(|i| squared_euclidean(&points[i], &centers[labels[i]]))
                .sum::<f64>()
        })
        .into_iter()
        .sum();
        Ok(KMeansResult {
            labels,
            centers,
            iterations,
            inertia,
        })
    }
}

/// Parallel assignment step: chunked over points, each worker writing a
/// disjoint slice of `labels`. Ties break toward the lowest center index
/// in both serial and parallel paths.
fn assign_labels(points: &[Vec<f64>], centers: &[Vec<f64>], labels: &mut [usize], threads: usize) {
    dual_pool::par_fill(labels, threads, |offset, chunk| {
        for (lbl, p) in chunk.iter_mut().zip(&points[offset..]) {
            *lbl = argmin_center(p, centers);
        }
    });
}

fn argmin_center(p: &Vec<f64>, centers: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, center) in centers.iter().enumerate() {
        let d = squared_euclidean(p, center);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

fn kmeans_pp_init(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    let Some(first) = points.choose(rng) else {
        return centers; // no points: caller validates, but stay total
    };
    centers.push(first.clone());
    let mut d2: Vec<f64> = points
        .iter()
        .map(|p| squared_euclidean(p, &centers[0]))
        .collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= f64::EPSILON {
            // All residual distances are zero — any point works; fall
            // back to the first center if the sampler yields nothing.
            points.choose(rng).unwrap_or(&centers[0]).clone()
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut pick = points.len() - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    pick = i;
                    break;
                }
                target -= w;
            }
            points[pick].clone()
        };
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(squared_euclidean(p, &next));
        }
        centers.push(next);
    }
    centers
}

/// Binary k-means over hypervectors with Hamming distance — the variant
/// DUAL maps onto the PIM (§VI-C): distances by row-parallel Hamming
/// search, centers re-binarized each iteration (majority vote), and
/// convergence declared when the number of center *bit flips* between
/// consecutive iterations drops below a threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct HammingKMeans {
    k: usize,
    max_iters: usize,
    /// Stop when total center bit flips fall at or below this count.
    flip_threshold: usize,
    seed: u64,
    threads: usize,
}

/// Outcome of a [`HammingKMeans::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct HammingKMeansResult {
    /// Cluster index per input point.
    pub labels: Vec<usize>,
    /// Final binary centers.
    pub centers: Vec<Hypervector>,
    /// Iterations executed.
    pub iterations: usize,
    /// Total Hamming distance of points to their assigned centers.
    pub inertia: usize,
}

impl HammingKMeans {
    /// Configure a run with `k` clusters.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] when `k == 0`.
    pub fn new(k: usize) -> Result<Self, ClusterError> {
        if k == 0 {
            return Err(ClusterError::InvalidParameter {
                name: "k",
                reason: "must be positive",
            });
        }
        Ok(Self {
            k,
            max_iters: 50,
            flip_threshold: 0,
            seed: 0,
            threads: 1,
        })
    }

    /// Cap on iterations (default 50).
    #[must_use]
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Convergence threshold on total center bit flips between
    /// consecutive iterations (default 0 — exact fixpoint).
    #[must_use]
    pub fn flip_threshold(mut self, flips: usize) -> Self {
        self.flip_threshold = flips;
        self
    }

    /// Seed for center initialization (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for the assignment and majority-vote update steps
    /// (default 1; `0` = auto, honouring `DUAL_THREADS`). Hamming
    /// distances and majority votes are integer/bit operations, so every
    /// thread count produces bit-identical labels and centers; the RNG
    /// used to reseed empty clusters is only ever drawn from the serial
    /// part of the loop, in cluster order.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Run binary k-means.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::TooFewPoints`] when fewer than `k` points
    /// are supplied.
    pub fn fit(&self, points: &[Hypervector]) -> Result<HammingKMeansResult, ClusterError> {
        self.fit_with(points, Obs::global())
    }

    /// [`HammingKMeans::fit`] recording into a caller-owned registry —
    /// see [`KMeans::fit_recorded`].
    ///
    /// # Errors
    ///
    /// Same contract as [`HammingKMeans::fit`].
    pub fn fit_recorded(
        &self,
        points: &[Hypervector],
        registry: &dual_obs::Registry,
    ) -> Result<HammingKMeansResult, ClusterError> {
        self.fit_with(points, Obs::local(registry))
    }

    fn fit_with(
        &self,
        points: &[Hypervector],
        obs: Obs<'_>,
    ) -> Result<HammingKMeansResult, ClusterError> {
        let _span = obs.span(Key::SpanKmeansFit);
        let n = points.len();
        if n < self.k {
            return Err(ClusterError::TooFewPoints {
                needed: self.k,
                got: n,
            });
        }
        // k-means++-style initialization in Hamming space: a random
        // first center, then probabilistic seeding weighted by the
        // distance to the nearest chosen center (Hamming distance on
        // binary vectors *is* the squared Euclidean distance, so this is
        // exactly the classic D² weighting).
        let mut rng = StdRng::seed_from_u64(self.seed);
        let first = rng.gen_range(0..n);
        let mut chosen = vec![first];
        let mut nearest: Vec<usize> = points.iter().map(|p| p.hamming(&points[first])).collect();
        while chosen.len() < self.k {
            let total: usize = nearest.iter().sum();
            let pick = if total == 0 {
                rng.gen_range(0..n)
            } else {
                let mut target = rng.gen_range(0..total);
                let mut pick = n - 1;
                for (i, &w) in nearest.iter().enumerate() {
                    if target < w {
                        pick = i;
                        break;
                    }
                    target -= w;
                }
                pick
            };
            chosen.push(pick);
            for (i, p) in points.iter().enumerate() {
                nearest[i] = nearest[i].min(p.hamming(&points[pick]));
            }
        }
        let mut centers: Vec<Hypervector> = chosen.iter().map(|&i| points[i].clone()).collect();
        let mut labels = vec![0usize; n];
        let mut iterations = 0;
        for iter in 0..self.max_iters.max(1) {
            iterations = iter + 1;
            obs.add(Key::KmeansIterations, 1);
            obs.tick(1);
            // One shared Lloyd step: nearest-centroid assignment plus
            // per-cluster majority re-binarization. The same function
            // drives the streaming engine's decay=1.0 batch case, which
            // is what makes the two paths provably equivalent.
            let (step_labels, votes) = hamming_lloyd_step(points, &centers, self.threads);
            if obs.enabled() {
                let changed = labels
                    .iter()
                    .zip(&step_labels)
                    .filter(|(a, b)| a != b)
                    .count();
                obs.add(Key::KmeansReassignments, changed as u64);
            }
            labels = step_labels;
            let mut flips = 0usize;
            for (c, vote) in votes.into_iter().enumerate() {
                let new = match vote {
                    Some(new) => new,
                    None => points[rng.gen_range(0..n)].clone(),
                };
                flips += centers[c].hamming(&new);
                centers[c] = new;
            }
            if flips <= self.flip_threshold {
                break;
            }
        }
        assign_hamming_labels(points, &centers, &mut labels, self.threads);
        let inertia = dual_pool::par_map_fixed(dual_pool::fixed_blocks(n), self.threads, |range| {
            range
                .map(|i| points[i].hamming(&centers[labels[i]]))
                .sum::<usize>()
        })
        .into_iter()
        .sum();
        Ok(HammingKMeansResult {
            labels,
            centers,
            iterations,
            inertia,
        })
    }
}

/// Parallel Hamming assignment step, mirroring [`assign_labels`]:
/// the shared [`dual_hdc::search::assign_batch`] nearest loop (ties
/// break toward the lowest center index for every thread count).
fn assign_hamming_labels(
    points: &[Hypervector],
    centers: &[Hypervector],
    labels: &mut [usize],
    threads: usize,
) {
    for (lbl, (c, _)) in labels
        .iter_mut()
        .zip(dual_hdc::search::assign_batch(points, centers, threads))
    {
        *lbl = c;
    }
}

/// One Lloyd step of Hamming k-means: assign every point to its nearest
/// center (ties toward the lowest index), then majority-re-binarize each
/// center over its members in point order. Returns the labels and one
/// vote per center — `None` where a center attracted no members (the
/// caller decides the reseeding policy).
///
/// This is the exact per-iteration body of [`HammingKMeans::fit`], and
/// the `decay == 1.0` single-batch case of the streaming engine's
/// online update (`dual-stream`), shared so the two can be tested for
/// equivalence. Bit-identical for every `threads` value (`0` = auto).
#[must_use]
pub fn hamming_lloyd_step(
    points: &[Hypervector],
    centers: &[Hypervector],
    threads: usize,
) -> (Vec<usize>, Vec<Option<Hypervector>>) {
    let assigned = dual_hdc::search::assign_batch(points, centers, threads);
    let labels: Vec<usize> = assigned.into_iter().map(|(c, _)| c).collect();
    let mut members: Vec<Vec<&Hypervector>> = vec![Vec::new(); centers.len()];
    for (p, &lbl) in points.iter().zip(&labels) {
        members[lbl].push(p);
    }
    // An empty member list is `majority_bundle`'s only reachable error:
    // `assign_batch` has already panicked on a dimensionality mismatch.
    let votes = members.iter().map(|m| majority_bundle(m).ok()).collect();
    (labels, votes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CentroidAccumulator;
    use dual_hdc::BitVec;
    use proptest::prelude::*;

    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0]);
            pts.push(vec![10.0 + 0.01 * i as f64, 10.0]);
        }
        pts
    }

    #[test]
    fn rejects_k_zero_and_too_few_points() {
        assert!(KMeans::new(0).is_err());
        let km = KMeans::new(5).unwrap();
        assert_eq!(
            km.fit(&[vec![1.0]]),
            Err(ClusterError::TooFewPoints { needed: 5, got: 1 })
        );
    }

    #[test]
    fn separates_two_blobs() {
        let pts = blobs();
        let res = KMeans::new(2).unwrap().seed(1).fit(&pts).unwrap();
        for i in (0..20).step_by(2) {
            assert_eq!(res.labels[i], res.labels[0]);
            assert_eq!(res.labels[i + 1], res.labels[1]);
        }
        assert_ne!(res.labels[0], res.labels[1]);
        assert!(res.inertia < 1.0);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = vec![vec![0.0], vec![5.0], vec![9.0]];
        let res = KMeans::new(3).unwrap().fit(&pts).unwrap();
        assert!(res.inertia < 1e-12);
    }

    #[test]
    fn converges_within_cap() {
        let pts = blobs();
        let res = KMeans::new(2).unwrap().max_iters(50).fit(&pts).unwrap();
        assert!(res.iterations < 50, "took {}", res.iterations);
    }

    fn binary_blobs(d: usize) -> Vec<Hypervector> {
        // Two binary prototypes far apart, members with few flips.
        let proto_a = Hypervector::from_bitvec(BitVec::zeros(d));
        let proto_b = Hypervector::from_bitvec(BitVec::ones(d));
        let mut pts = Vec::new();
        for i in 0..8 {
            let mut a = proto_a.clone();
            a.bits_mut().set(i % d, true);
            pts.push(a);
            let mut b = proto_b.clone();
            b.bits_mut().set((i * 3) % d, false);
            pts.push(b);
        }
        pts
    }

    #[test]
    fn hamming_kmeans_separates_binary_blobs() {
        let pts = binary_blobs(64);
        let res = HammingKMeans::new(2).unwrap().seed(3).fit(&pts).unwrap();
        for i in (0..pts.len()).step_by(2) {
            assert_eq!(res.labels[i], res.labels[0]);
        }
        for i in (1..pts.len()).step_by(2) {
            assert_eq!(res.labels[i], res.labels[1]);
        }
        assert_ne!(res.labels[0], res.labels[1]);
        // Centers stay binary by construction and land near prototypes.
        assert!(res.centers.iter().all(|c| c.dim() == 64));
    }

    #[test]
    fn hamming_kmeans_rejects_bad_params() {
        assert!(HammingKMeans::new(0).is_err());
        let km = HammingKMeans::new(3).unwrap();
        let pts = vec![Hypervector::zeros(8)];
        assert!(km.fit(&pts).is_err());
    }

    #[test]
    fn hamming_kmeans_flip_threshold_halts_early() {
        let pts = binary_blobs(64);
        let tight = HammingKMeans::new(2).unwrap().seed(3).fit(&pts).unwrap();
        let loose = HammingKMeans::new(2)
            .unwrap()
            .seed(3)
            .flip_threshold(1_000_000)
            .fit(&pts)
            .unwrap();
        assert_eq!(loose.iterations, 1);
        assert!(tight.iterations >= loose.iterations);
    }

    /// The body `hamming_lloyd_step` had before it voted through
    /// `majority_bundle`: one `f64` accumulator per center.
    fn lloyd_step_via_accumulators(
        points: &[Hypervector],
        centers: &[Hypervector],
    ) -> (Vec<usize>, Vec<Option<Hypervector>>) {
        let labels: Vec<usize> = dual_hdc::search::assign_batch(points, centers, 1)
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        let mut accs = vec![CentroidAccumulator::new(centers[0].dim()); centers.len()];
        for (p, &lbl) in points.iter().zip(&labels) {
            accs[lbl].add(p);
        }
        let votes = accs.iter().map(CentroidAccumulator::majority).collect();
        (labels, votes)
    }

    #[test]
    fn lloyd_step_matches_the_accumulator_oracle_for_every_thread_count() {
        for d in [1, 63, 64, 65, 200] {
            let mut points = binary_blobs(d);
            points.extend((0..40).map(|i| dual_hdc::ops::random_hypervector(d, i)));
            // Live centers, then a duplicate that never wins a tie
            // against the lower index: `centers` is wider than the
            // points' occupancy.
            let mut centers = vec![points[0].clone(), points[1].clone(), points[20].clone()];
            centers.push(points[0].clone());
            let want = lloyd_step_via_accumulators(&points, &centers);
            assert_eq!(want.1[3], None, "duplicate center attracts no member");
            assert!(want.1[..2].iter().all(Option::is_some));
            for threads in [0, 1, 2, 3, 8] {
                assert_eq!(
                    hamming_lloyd_step(&points, &centers, threads),
                    want,
                    "d {d} threads {threads}"
                );
            }
        }
        let (labels, votes) = hamming_lloyd_step(&[], &[Hypervector::zeros(8)], 2);
        assert!(labels.is_empty());
        assert_eq!(votes, vec![None]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_labels_in_range_and_inertia_finite(
            xs in proptest::collection::vec(-100.0f64..100.0, 6..40),
            k in 1usize..5,
        ) {
            prop_assume!(xs.len() >= k);
            let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
            let res = KMeans::new(k).unwrap().seed(7).fit(&pts).unwrap();
            prop_assert_eq!(res.labels.len(), pts.len());
            prop_assert!(res.labels.iter().all(|&l| l < k));
            prop_assert!(res.inertia.is_finite());
            prop_assert_eq!(res.centers.len(), k);
        }

        #[test]
        fn prop_more_clusters_never_increase_inertia(
            xs in proptest::collection::vec(-100.0f64..100.0, 10..30),
        ) {
            let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
            let r1 = KMeans::new(1).unwrap().seed(5).fit(&pts).unwrap();
            let r3 = KMeans::new(3).unwrap().seed(5).max_iters(200).fit(&pts).unwrap();
            // k=1 inertia is the global ESS; k=3 local optimum can't beat
            // it upward by more than numerical noise.
            prop_assert!(r3.inertia <= r1.inertia + 1e-6);
        }
    }
}
