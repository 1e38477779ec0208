//! # dual-tsne — exact t-SNE for the Fig. 11 visualization benchmark
//!
//! A from-scratch implementation of t-distributed Stochastic Neighbor
//! Embedding (van der Maaten & Hinton 2008), the technique the paper
//! uses to visualize how the HD-Mapper reshapes the UCIHAR clustering
//! space. Exact (`O(n²)`) affinities with perplexity calibration, early
//! exaggeration and momentum gradient descent — sufficient for the
//! subsampled visual benchmark.
//!
//! ```rust
//! use dual_tsne::Tsne;
//!
//! // Two tight blobs must stay separated in the embedding.
//! let mut pts = Vec::new();
//! for i in 0..20 {
//!     pts.push(vec![0.0 + 0.01 * i as f64, 0.0]);
//!     pts.push(vec![10.0, 10.0 + 0.01 * i as f64]);
//! }
//! let emb = Tsne::new().perplexity(5.0).iterations(250).seed(1).embed(&pts);
//! assert_eq!(emb.len(), 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// t-SNE configuration (builder-style).
#[derive(Debug, Clone, PartialEq)]
pub struct Tsne {
    perplexity: f64,
    iterations: usize,
    learning_rate: f64,
    early_exaggeration: f64,
    exaggeration_iters: usize,
    seed: u64,
}

impl Tsne {
    /// Defaults: perplexity 30, 500 iterations, learning rate 200.
    #[must_use]
    pub fn new() -> Self {
        Self {
            perplexity: 30.0,
            iterations: 500,
            learning_rate: 200.0,
            early_exaggeration: 12.0,
            exaggeration_iters: 100,
            seed: 0,
        }
    }

    /// Target perplexity (effective neighbor count).
    #[must_use]
    pub fn perplexity(mut self, p: f64) -> Self {
        self.perplexity = p;
        self
    }

    /// Gradient-descent iterations.
    #[must_use]
    pub fn iterations(mut self, n: usize) -> Self {
        self.iterations = n;
        self
    }

    /// Gradient-descent learning rate.
    #[must_use]
    pub fn learning_rate(mut self, lr: f64) -> Self {
        self.learning_rate = lr;
        self
    }

    /// RNG seed for the initial embedding.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Embed `points` into 2-D. Accepts any precomputed high-dimensional
    /// representation (original features or hypervector bit-columns cast
    /// to `f64`).
    ///
    /// Returns one `[x, y]` pair per point; empty input gives an empty
    /// embedding.
    #[must_use]
    pub fn embed(&self, points: &[Vec<f64>]) -> Vec<[f64; 2]> {
        let n = points.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![[0.0, 0.0]];
        }
        let d2 = pairwise_sq(points);
        let p = joint_probabilities(&d2, n, self.perplexity);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut y: Vec<[f64; 2]> = (0..n)
            .map(|_| [rng.gen_range(-1e-4..1e-4), rng.gen_range(-1e-4..1e-4)])
            .collect();
        let mut velocity = vec![[0.0f64; 2]; n];
        let mut gains = vec![[1.0f64; 2]; n];
        for iter in 0..self.iterations {
            let exaggeration = if iter < self.exaggeration_iters {
                self.early_exaggeration
            } else {
                1.0
            };
            // Low-dimensional affinities (Student-t, ν = 1).
            let mut q_num = vec![0.0f64; n * n];
            let mut q_sum = 0.0f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    let dx = y[i][0] - y[j][0];
                    let dy = y[i][1] - y[j][1];
                    let q = 1.0 / (1.0 + dx * dx + dy * dy);
                    q_num[i * n + j] = q;
                    q_num[j * n + i] = q;
                    q_sum += 2.0 * q;
                }
            }
            let q_sum = q_sum.max(f64::EPSILON);
            // Gradient.
            let momentum = if iter < 250 { 0.5 } else { 0.8 };
            for i in 0..n {
                let mut grad = [0.0f64; 2];
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let pij = exaggeration * p[i * n + j];
                    let qij = (q_num[i * n + j] / q_sum).max(1e-12);
                    let mult = (pij - qij) * q_num[i * n + j];
                    grad[0] += 4.0 * mult * (y[i][0] - y[j][0]);
                    grad[1] += 4.0 * mult * (y[i][1] - y[j][1]);
                }
                for k in 0..2 {
                    // Adaptive gains (Jacobs rule), as in the reference
                    // implementation.
                    gains[i][k] = if grad[k].signum() != velocity[i][k].signum() {
                        (gains[i][k] + 0.2).min(10.0)
                    } else {
                        (gains[i][k] * 0.8).max(0.01)
                    };
                    velocity[i][k] =
                        momentum * velocity[i][k] - self.learning_rate * gains[i][k] * grad[k];
                    // Clamp the per-iteration step: small problems
                    // otherwise diverge at reference learning rates.
                    velocity[i][k] = velocity[i][k].clamp(-5.0, 5.0);
                    y[i][k] += velocity[i][k];
                }
            }
            // Re-center to keep the embedding bounded.
            let (mx, my) = (
                y.iter().map(|p| p[0]).sum::<f64>() / n as f64,
                y.iter().map(|p| p[1]).sum::<f64>() / n as f64,
            );
            for p in &mut y {
                p[0] -= mx;
                p[1] -= my;
            }
        }
        y
    }
}

impl Default for Tsne {
    fn default() -> Self {
        Self::new()
    }
}

fn pairwise_sq(points: &[Vec<f64>]) -> Vec<f64> {
    let n = points.len();
    let mut d2 = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d: f64 = points[i]
                .iter()
                .zip(&points[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            d2[i * n + j] = d;
            d2[j * n + i] = d;
        }
    }
    d2
}

/// Per-point conditional Gaussians with perplexity-calibrated bandwidth,
/// symmetrized into the joint distribution `P`.
fn joint_probabilities(d2: &[f64], n: usize, perplexity: f64) -> Vec<f64> {
    let target_entropy = perplexity.max(1.01).ln();
    let mut p = vec![0.0f64; n * n];
    for i in 0..n {
        // Binary search beta = 1/(2σ²) to hit the target entropy.
        let (mut beta, mut beta_lo, mut beta_hi) = (1.0f64, 0.0f64, f64::INFINITY);
        for _ in 0..64 {
            let mut sum = 0.0f64;
            let mut weighted = 0.0f64;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let w = (-beta * d2[i * n + j]).exp();
                sum += w;
                weighted += w * d2[i * n + j];
            }
            let sum = sum.max(1e-300);
            let entropy = beta * weighted / sum + sum.ln();
            if (entropy - target_entropy).abs() < 1e-5 {
                break;
            }
            if entropy > target_entropy {
                beta_lo = beta;
                beta = if beta_hi.is_finite() {
                    0.5 * (beta + beta_hi)
                } else {
                    beta * 2.0
                };
            } else {
                beta_hi = beta;
                beta = 0.5 * (beta + beta_lo);
            }
        }
        let mut sum = 0.0f64;
        for j in 0..n {
            if j != i {
                let w = (-beta * d2[i * n + j]).exp();
                p[i * n + j] = w;
                sum += w;
            }
        }
        let sum = sum.max(1e-300);
        for j in 0..n {
            p[i * n + j] /= sum;
        }
    }
    // Symmetrize and normalize.
    let mut joint = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            joint[i * n + j] = ((p[i * n + j] + p[j * n + i]) / (2.0 * n as f64)).max(1e-12);
        }
    }
    joint
}

/// A scalar "clustering friendliness" score of an embedding: the
/// fraction of points whose nearest embedded neighbor shares their
/// label. This is the quantitative readout the Fig. 11 bench reports
/// alongside the raw coordinates.
///
/// # Panics
///
/// Panics if `embedding` and `labels` lengths differ.
#[must_use]
pub fn neighbor_agreement(embedding: &[[f64; 2]], labels: &[usize]) -> f64 {
    assert_eq!(embedding.len(), labels.len(), "length mismatch");
    let n = embedding.len();
    if n < 2 {
        return 1.0;
    }
    let mut agree = 0usize;
    for i in 0..n {
        let mut best = usize::MAX;
        let mut best_d = f64::INFINITY;
        for j in 0..n {
            if i != j {
                let dx = embedding[i][0] - embedding[j][0];
                let dy = embedding[i][1] - embedding[j][1];
                let d = dx * dx + dy * dy;
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
        }
        if labels[best] == labels[i] {
            agree += 1;
        }
    }
    agree as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn blobs(n_per: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        let centers = [[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]];
        for (c, center) in centers.iter().enumerate() {
            for k in 0..n_per {
                pts.push(vec![
                    center[0] + 0.1 * (k % 5) as f64,
                    center[1] + 0.1 * (k / 5) as f64,
                ]);
                labels.push(c);
            }
        }
        (pts, labels)
    }

    #[test]
    fn empty_and_singleton() {
        assert!(Tsne::new().embed(&[]).is_empty());
        assert_eq!(Tsne::new().embed(&[vec![1.0, 2.0]]), vec![[0.0, 0.0]]);
    }

    #[test]
    fn embedding_is_deterministic() {
        let (pts, _) = blobs(5);
        let t = Tsne::new().perplexity(5.0).iterations(50).seed(9);
        assert_eq!(t.embed(&pts), t.embed(&pts));
    }

    #[test]
    fn blobs_remain_separated() {
        let (pts, labels) = blobs(10);
        let emb = Tsne::new()
            .perplexity(8.0)
            .iterations(300)
            .seed(4)
            .embed(&pts);
        let score = neighbor_agreement(&emb, &labels);
        assert!(score > 0.9, "neighbor agreement {score}");
    }

    #[test]
    fn embedding_is_centered_and_finite() {
        let (pts, _) = blobs(8);
        let emb = Tsne::new()
            .perplexity(6.0)
            .iterations(120)
            .seed(2)
            .embed(&pts);
        let mx: f64 = emb.iter().map(|p| p[0]).sum::<f64>() / emb.len() as f64;
        let my: f64 = emb.iter().map(|p| p[1]).sum::<f64>() / emb.len() as f64;
        assert!(mx.abs() < 1e-6 && my.abs() < 1e-6);
        assert!(emb.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn neighbor_agreement_bounds() {
        assert_eq!(neighbor_agreement(&[], &[]), 1.0);
        let emb = [[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]];
        assert_eq!(neighbor_agreement(&emb, &[0, 0, 1, 1]), 1.0);
        assert_eq!(neighbor_agreement(&emb, &[0, 1, 0, 1]), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_output_shape_matches_input(n in 2usize..12) {
            let pts: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, (i * i) as f64]).collect();
            let emb = Tsne::new().perplexity(2.0).iterations(20).embed(&pts);
            prop_assert_eq!(emb.len(), n);
            prop_assert!(emb.iter().flatten().all(|v| v.is_finite()));
        }
    }
}
