//! Synthetic Gaussian-mixture generator (§VIII-B).
//!
//! The paper's synthetic data: random clusters around a configurable
//! number of centers (100 for the Table IV sets), per-cluster radius
//! drawn from a range (`[0..√2]` to `[√2..√32]`), plus a fraction of
//! uniform noise points (0–10 %).

use crate::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Specification of one synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Dataset name.
    pub name: String,
    /// Number of points (including noise points).
    pub n_points: usize,
    /// Feature dimensionality.
    pub n_features: usize,
    /// Number of cluster centers.
    pub n_clusters: usize,
    /// Per-cluster radius (std-dev) range `[lo, hi]`.
    pub radius_range: (f64, f64),
    /// Fraction of points replaced by uniform noise, `[0, 1)`.
    pub noise_rate: f64,
    /// Center-separation factor: centers are placed uniformly in a
    /// hypercube of side `separation × hi-radius × n_clusters^(1/m)`
    /// so that larger values give cleaner clusters.
    pub separation: f64,
    /// Fraction of points whose *label* is corrupted to a random class
    /// (models the irreducible error of real datasets).
    pub label_noise: f64,
    /// Fraction of cluster centers generated *collinear* with an earlier
    /// center (same direction from the origin, scaled 1.6–2.6× further
    /// out). Real sensor/image data has exactly this magnitude
    /// structure (intensity/energy scales); it separates the non-linear
    /// HD-Mapper from angle-only LSH in the Fig. 10b-d comparison.
    pub collinear_fraction: f64,
}

impl SyntheticSpec {
    /// The paper's synthetic configuration at a given size: 100 centers,
    /// radius range `[√2, √32]`, 5 % noise.
    #[must_use]
    pub fn paper(name: &str, n_points: usize, n_features: usize, n_clusters: usize) -> Self {
        Self {
            name: name.to_owned(),
            n_points,
            n_features,
            n_clusters,
            radius_range: (std::f64::consts::SQRT_2, 32f64.sqrt()),
            noise_rate: 0.05,
            separation: 6.0,
            label_noise: 0.0,
            collinear_fraction: 0.0,
        }
    }

    /// Generate the dataset deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (no clusters/features, rates
    /// outside `[0, 1)`).
    #[must_use]
    pub fn generate(&self, seed: u64) -> Dataset {
        assert!(
            self.n_clusters >= 1 && self.n_features >= 1,
            "degenerate spec"
        );
        assert!((0.0..1.0).contains(&self.noise_rate), "noise_rate in [0,1)");
        assert!(
            (0.0..1.0).contains(&self.label_noise),
            "label_noise in [0,1)"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let normal = unit_normal();
        let (r_lo, r_hi) = self.radius_range;
        // Box side grows with cluster count so density stays constant.
        let side = self.separation
            * r_hi
            * (self.n_clusters as f64).powf(1.0 / self.n_features.min(8) as f64);
        let mut centers: Vec<Vec<f64>> = (0..self.n_clusters)
            .map(|_| {
                (0..self.n_features)
                    .map(|_| rng.gen_range(0.0..side))
                    .collect()
            })
            .collect();
        // Magnitude structure: some centers are scaled copies of earlier
        // ones — identical direction from the origin, different norm.
        for i in 1..self.n_clusters {
            if self.collinear_fraction > 0.0 && rng.gen_bool(self.collinear_fraction) {
                let donor = rng.gen_range(0..i);
                let scale = rng.gen_range(1.6..2.6);
                centers[i] = centers[donor].iter().map(|&v| v * scale).collect();
            }
        }
        let radii: Vec<f64> = (0..self.n_clusters)
            .map(|_| {
                if (r_hi - r_lo).abs() < f64::EPSILON {
                    r_lo
                } else {
                    rng.gen_range(r_lo..r_hi)
                }
            })
            .collect();
        let mut points = Vec::with_capacity(self.n_points);
        let mut labels = Vec::with_capacity(self.n_points);
        for _ in 0..self.n_points {
            if rng.gen_bool(self.noise_rate) {
                // Uniform noise keeps its nearest-center label so quality
                // metrics stay well-defined.
                let p: Vec<f64> = (0..self.n_features)
                    .map(|_| rng.gen_range(0.0..side))
                    .collect();
                let lbl = nearest_center(&p, &centers);
                points.push(p);
                labels.push(lbl);
                continue;
            }
            let c = rng.gen_range(0..self.n_clusters);
            let p: Vec<f64> = centers[c]
                .iter()
                .map(|&cc| cc + radii[c] * normal.sample(&mut rng))
                .collect();
            let lbl = if self.label_noise > 0.0 && rng.gen_bool(self.label_noise) {
                rng.gen_range(0..self.n_clusters)
            } else {
                c
            };
            points.push(p);
            labels.push(lbl);
        }
        Dataset {
            name: self.name.clone(),
            points,
            labels,
            n_clusters: self.n_clusters,
        }
    }
}

/// Specification of a concept-drifting point stream: Gaussian blobs
/// whose centers perform a slow seeded random walk while points are
/// emitted — the workload the streaming engine (`dual-stream`) is
/// built for, where batch re-clustering from disk is impossible.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSpec {
    /// Feature dimensionality.
    pub n_features: usize,
    /// Number of drifting cluster centers.
    pub n_clusters: usize,
    /// Per-cluster Gaussian radius (std-dev).
    pub radius: f64,
    /// Per-point center step (std-dev of the random walk increment,
    /// applied to every coordinate of every center on each emission).
    /// `0.0` gives a stationary stream.
    pub drift_rate: f64,
    /// Side of the hypercube the initial centers are placed in.
    pub side: f64,
}

impl DriftSpec {
    /// A well-separated default: centers spread over a box `separation`
    /// radii wide per cluster, drifting ~1 radius every `1/drift_rate`
    /// points.
    #[must_use]
    pub fn new(n_features: usize, n_clusters: usize) -> Self {
        Self {
            n_features,
            n_clusters,
            radius: 1.0,
            drift_rate: 1e-3,
            side: 8.0 * (n_clusters as f64).max(1.0).sqrt(),
        }
    }

    /// Start the seeded infinite stream described by this spec.
    ///
    /// # Panics
    ///
    /// Panics when the spec is degenerate (no clusters or features,
    /// non-finite radius/drift).
    #[must_use]
    pub fn stream(&self, seed: u64) -> DriftingBlobs {
        assert!(
            self.n_clusters >= 1 && self.n_features >= 1,
            "degenerate spec"
        );
        assert!(
            self.radius.is_finite() && self.radius >= 0.0,
            "radius must be finite and non-negative"
        );
        assert!(
            self.drift_rate.is_finite() && self.drift_rate >= 0.0,
            "drift_rate must be finite and non-negative"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let normal = unit_normal();
        let centers: Vec<Vec<f64>> = (0..self.n_clusters)
            .map(|_| {
                (0..self.n_features)
                    .map(|_| rng.gen_range(0.0..self.side.max(f64::MIN_POSITIVE)))
                    .collect()
            })
            .collect();
        DriftingBlobs {
            spec: self.clone(),
            rng,
            normal,
            centers,
            emitted: 0,
        }
    }
}

/// Seeded infinite iterator of `(point, true_label)` pairs with slow
/// concept drift (see [`DriftSpec`]). Deterministic per seed: the same
/// seed yields the same stream prefix for any consumer.
///
/// ```rust
/// use dual_data::DriftSpec;
///
/// let spec = DriftSpec::new(4, 3);
/// let a: Vec<_> = spec.stream(7).take(10).collect();
/// let b: Vec<_> = spec.stream(7).take(10).collect();
/// assert_eq!(a, b);
/// assert!(a.iter().all(|(p, l)| p.len() == 4 && *l < 3));
/// ```
#[derive(Debug, Clone)]
pub struct DriftingBlobs {
    spec: DriftSpec,
    rng: StdRng,
    normal: Normal,
    centers: Vec<Vec<f64>>,
    emitted: u64,
}

impl DriftingBlobs {
    /// Current (drifted) center positions — handy for tests asserting
    /// that drift actually moved the distribution.
    #[must_use]
    pub fn centers(&self) -> &[Vec<f64>] {
        &self.centers
    }

    /// Points emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl Iterator for DriftingBlobs {
    type Item = (Vec<f64>, usize);

    fn next(&mut self) -> Option<Self::Item> {
        // 1. Walk every center by one drift step (before sampling, so
        //    drift_rate = 0 reproduces a stationary mixture exactly).
        if self.spec.drift_rate > 0.0 {
            for center in &mut self.centers {
                for c in center.iter_mut() {
                    *c += self.spec.drift_rate * self.normal.sample(&mut self.rng);
                }
            }
        }
        // 2. Emit one point from a uniformly chosen cluster.
        let cluster = self.rng.gen_range(0..self.spec.n_clusters);
        let point: Vec<f64> = self.centers[cluster]
            .iter()
            .map(|&c| c + self.spec.radius * self.normal.sample(&mut self.rng))
            .collect();
        self.emitted += 1;
        Some((point, cluster))
    }
}

/// The standard normal both generators draw their offsets from.
fn unit_normal() -> Normal {
    #[expect(
        clippy::expect_used,
        reason = "constant (0, 1) parameters are always valid"
    )]
    Normal::new(0.0, 1.0).expect("unit normal is valid")
}

fn nearest_center(p: &[f64], centers: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centers.iter().enumerate() {
        let d: f64 = p.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn generates_requested_shape() {
        let ds = SyntheticSpec::paper("s", 500, 16, 10).generate(1);
        assert_eq!(ds.len(), 500);
        assert_eq!(ds.n_features(), 16);
        assert_eq!(ds.n_clusters, 10);
        assert!(ds.labels.iter().all(|&l| l < 10));
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = SyntheticSpec::paper("s", 100, 8, 5);
        assert_eq!(spec.generate(42), spec.generate(42));
        assert_ne!(spec.generate(42), spec.generate(43));
    }

    #[test]
    fn well_separated_clusters_are_recoverable_by_nearest_center() {
        // With high separation, points should sit nearest their own center.
        let mut spec = SyntheticSpec::paper("s", 400, 8, 4);
        spec.separation = 40.0;
        spec.noise_rate = 0.0;
        let ds = spec.generate(3);
        // Recompute empirical centers from labels and check coherence.
        let mut correct = 0;
        let centers: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                let members: Vec<&Vec<f64>> = ds
                    .points
                    .iter()
                    .zip(&ds.labels)
                    .filter(|(_, &l)| l == c)
                    .map(|(p, _)| p)
                    .collect();
                let mut mean = vec![0.0; 8];
                for p in &members {
                    for (m, x) in mean.iter_mut().zip(p.iter()) {
                        *m += x;
                    }
                }
                mean.iter_mut()
                    .for_each(|m| *m /= members.len().max(1) as f64);
                mean
            })
            .collect();
        for (p, &l) in ds.points.iter().zip(&ds.labels) {
            if nearest_center(p, &centers) == l {
                correct += 1;
            }
        }
        assert!(correct as f64 / ds.len() as f64 > 0.97, "{correct}/400");
    }

    #[test]
    fn drifting_blobs_is_deterministic_per_seed() {
        let spec = DriftSpec::new(6, 4);
        let a: Vec<_> = spec.stream(11).take(200).collect();
        let b: Vec<_> = spec.stream(11).take(200).collect();
        let c: Vec<_> = spec.stream(12).take(200).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|(p, l)| p.len() == 6 && *l < 4));
        assert!(a.iter().flat_map(|(p, _)| p).all(|x| x.is_finite()));
    }

    #[test]
    fn drifting_blobs_centers_actually_walk() {
        let spec = DriftSpec {
            drift_rate: 0.05,
            ..DriftSpec::new(3, 2)
        };
        let mut stream = spec.stream(5);
        let before = stream.centers().to_vec();
        for _ in 0..2000 {
            let _ = stream.next();
        }
        let after = stream.centers();
        let moved: f64 = before
            .iter()
            .zip(after)
            .map(|(b, a)| b.iter().zip(a).map(|(x, y)| (x - y).abs()).sum::<f64>())
            .sum();
        assert!(moved > 1.0, "centers barely moved: {moved}");
        assert_eq!(stream.emitted(), 2000);
    }

    #[test]
    fn zero_drift_rate_is_stationary() {
        let spec = DriftSpec {
            drift_rate: 0.0,
            ..DriftSpec::new(3, 2)
        };
        let mut stream = spec.stream(5);
        let before = stream.centers().to_vec();
        for _ in 0..500 {
            let _ = stream.next();
        }
        assert_eq!(before, stream.centers());
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn drifting_blobs_rejects_zero_clusters() {
        let mut spec = DriftSpec::new(3, 1);
        spec.n_clusters = 0;
        let _ = spec.stream(0);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_clusters_panics() {
        let mut spec = SyntheticSpec::paper("s", 10, 4, 1);
        spec.n_clusters = 0;
        let _ = spec.generate(0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_all_labels_in_range(n in 1usize..200, k in 1usize..8, m in 1usize..6,
                                    noise in 0.0f64..0.5, seed in 0u64..100) {
            let mut spec = SyntheticSpec::paper("p", n, m, k);
            spec.noise_rate = noise;
            let ds = spec.generate(seed);
            prop_assert_eq!(ds.len(), n);
            prop_assert!(ds.labels.iter().all(|&l| l < k));
            prop_assert!(ds.points.iter().all(|p| p.len() == m));
            prop_assert!(ds.points.iter().flatten().all(|x| x.is_finite()));
        }
    }
}
