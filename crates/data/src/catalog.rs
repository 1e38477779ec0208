//! The Table IV workload catalog.
//!
//! Each UCI dataset of the paper is represented by a *surrogate
//! generator* matching its `(points, features, clusters)` signature
//! (see DESIGN.md, substitution 1); the synthetic rows follow the
//! paper's own generator description.

use crate::{Dataset, SyntheticSpec};

/// The ten workloads of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Handwritten digits (60 000 × 784, 10 clusters).
    Mnist,
    /// Grammatical facial expressions (27 965 × 300, 2).
    Facial,
    /// Human activity from smartphones (7 667 × 561, 12).
    Ucihar,
    /// Epileptic seizure recognition (11 500 × 178, 5).
    Seizure,
    /// Gas sensor array drift (13 910 × 129, 6).
    Sensor,
    /// Gesture phase segmentation (9 880 × 50, 5).
    Gesture,
    /// Spoken letters (7 797 × 617, 26).
    Isolet,
    /// 100 k synthetic points (1000 features, 50 clusters).
    Synthetic1,
    /// 1 M synthetic points.
    Synthetic2,
    /// 10 M synthetic points.
    Synthetic3,
}

impl Workload {
    /// All Table IV rows, in paper order.
    #[must_use]
    pub fn all() -> [Self; 10] {
        [
            Self::Mnist,
            Self::Facial,
            Self::Ucihar,
            Self::Seizure,
            Self::Sensor,
            Self::Gesture,
            Self::Isolet,
            Self::Synthetic1,
            Self::Synthetic2,
            Self::Synthetic3,
        ]
    }

    /// The seven UCI rows (the quality-evaluation set).
    #[must_use]
    pub fn uci() -> [Self; 7] {
        [
            Self::Mnist,
            Self::Facial,
            Self::Ucihar,
            Self::Seizure,
            Self::Sensor,
            Self::Gesture,
            Self::Isolet,
        ]
    }

    /// Display name matching Table IV.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Mnist => "MNIST",
            Self::Facial => "FACIAL",
            Self::Ucihar => "UCIHAR",
            Self::Seizure => "SEIZURE",
            Self::Sensor => "SENSOR",
            Self::Gesture => "GESTURE",
            Self::Isolet => "ISOLET",
            Self::Synthetic1 => "Synthetic 1",
            Self::Synthetic2 => "Synthetic 2",
            Self::Synthetic3 => "Synthetic 3",
        }
    }
}

/// Static description of one workload (a Table IV row).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Which workload this describes.
    pub workload: Workload,
    /// Full-scale point count.
    pub n_points: usize,
    /// Feature dimensionality.
    pub n_features: usize,
    /// Ground-truth cluster count.
    pub n_clusters: usize,
    /// Table IV description column.
    pub description: &'static str,
    /// Surrogate difficulty: the separation factor handed to the
    /// generator; tuned per dataset so baseline clustering quality lands
    /// in a realistic band (easy sets ≈ 0.9, hard sets ≈ 0.6).
    pub separation: f64,
    /// Surrogate label noise (irreducible error).
    pub label_noise: f64,
}

impl WorkloadSpec {
    /// Generate a surrogate dataset at `scale` of the full point count
    /// (`scale = 1.0` reproduces the Table IV size), deterministically
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    #[must_use]
    pub fn generate(&self, scale: f64, seed: u64) -> Dataset {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n = ((self.n_points as f64 * scale).round() as usize).max(self.n_clusters * 4);
        let spec = SyntheticSpec {
            name: self.workload.name().to_owned(),
            n_points: n,
            n_features: self.n_features,
            n_clusters: self.n_clusters,
            radius_range: (1.0, 2.0),
            noise_rate: 0.02,
            separation: self.separation,
            label_noise: self.label_noise,
            // UCI-like magnitude structure (see SyntheticSpec docs); the
            // purely synthetic rows keep the paper's plain mixture.
            collinear_fraction: match self.workload {
                Workload::Synthetic1 | Workload::Synthetic2 | Workload::Synthetic3 => 0.0,
                _ => 0.12,
            },
        };
        spec.generate(seed ^ self.workload as u64)
    }
}

/// Table IV metadata for one workload.
#[must_use]
pub fn workload(w: Workload) -> WorkloadSpec {
    let (n_points, n_features, n_clusters, description, separation, label_noise) = match w {
        Workload::Mnist => (60_000, 784, 10, "Handwritten Digits", 2.6, 0.04),
        Workload::Facial => (27_965, 300, 2, "Grammatical Facial Expressions", 2.8, 0.03),
        Workload::Ucihar => (
            7_667,
            561,
            12,
            "Human Activity Using Smartphones",
            2.4,
            0.05,
        ),
        Workload::Seizure => (11_500, 178, 5, "Epileptic Seizure", 2.4, 0.08),
        Workload::Sensor => (13_910, 129, 6, "Gas Sensor Array Drift", 2.5, 0.05),
        Workload::Gesture => (9_880, 50, 5, "Gesture Phase Segmentation", 2.4, 0.08),
        Workload::Isolet => (7_797, 617, 26, "Speech data", 2.7, 0.04),
        Workload::Synthetic1 => (100_000, 1_000, 50, "100k data points", 6.0, 0.0),
        Workload::Synthetic2 => (1_000_000, 1_000, 50, "1 Millions data", 6.0, 0.0),
        Workload::Synthetic3 => (10_000_000, 1_000, 50, "10 Millions data", 6.0, 0.0),
    };
    WorkloadSpec {
        workload: w,
        n_points,
        n_features,
        n_clusters,
        description,
        separation,
        label_noise,
    }
}

/// The full Table IV, in paper order.
#[must_use]
pub fn table4() -> Vec<WorkloadSpec> {
    Workload::all().into_iter().map(workload).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_paper_signatures() {
        let t = table4();
        assert_eq!(t.len(), 10);
        let mnist = &t[0];
        assert_eq!(
            (mnist.n_points, mnist.n_features, mnist.n_clusters),
            (60_000, 784, 10)
        );
        let isolet = workload(Workload::Isolet);
        assert_eq!(
            (isolet.n_points, isolet.n_features, isolet.n_clusters),
            (7_797, 617, 26)
        );
        let syn3 = workload(Workload::Synthetic3);
        assert_eq!(syn3.n_points, 10_000_000);
    }

    #[test]
    fn scaled_generation_respects_signature() {
        let ds = workload(Workload::Gesture).generate(0.02, 9);
        assert_eq!(ds.n_features(), 50);
        assert_eq!(ds.n_clusters, 5);
        assert_eq!(ds.len(), (9_880f64 * 0.02).round() as usize);
    }

    #[test]
    fn tiny_scale_still_covers_clusters() {
        let ds = workload(Workload::Isolet).generate(0.0001, 1);
        assert!(ds.len() >= 26 * 4);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_panics() {
        let _ = workload(Workload::Mnist).generate(0.0, 0);
    }

    #[test]
    fn generation_is_deterministic_and_distinct_across_workloads() {
        let a = workload(Workload::Sensor).generate(0.01, 5);
        let b = workload(Workload::Sensor).generate(0.01, 5);
        assert_eq!(a, b);
        let c = workload(Workload::Seizure).generate(0.01, 5);
        assert_ne!(a.points, c.points);
    }
}
