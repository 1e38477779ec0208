//! # dual-cluster — clustering algorithms over Euclidean and Hamming metrics
//!
//! From-scratch implementations of the three clustering algorithms the
//! DUAL paper evaluates (hierarchical agglomerative, k-means, DBSCAN),
//! written generically over a distance function so the same code runs on
//!
//! * the **baseline** configuration: original feature vectors with
//!   Euclidean distance (what scikit-learn / nvGRAPH compute), and
//! * the **DUAL** configuration: binary hypervectors with Hamming
//!   distance (what the PIM accelerator computes).
//!
//! A useful identity ties the two together: for binary vectors the
//! Hamming distance *is* the squared Euclidean distance, so the Ward
//! linkage recurrence the paper applies to Hamming distances (§II) is
//! exactly Lance–Williams Ward on squared distances.
//!
//! ## Example
//!
//! ```rust
//! use dual_cluster::{euclidean, AgglomerativeClustering, Linkage};
//!
//! let points = vec![
//!     vec![0.0, 0.0],
//!     vec![0.1, 0.0],
//!     vec![5.0, 5.0],
//!     vec![5.1, 5.0],
//! ];
//! let model = AgglomerativeClustering::fit(&points, Linkage::Ward, euclidean);
//! let labels = model.cut(2);
//! assert_eq!(labels[0], labels[1]);
//! assert_eq!(labels[2], labels[3]);
//! assert_ne!(labels[0], labels[2]);
//! ```

#![forbid(unsafe_code)]
// Library code must not panic: this crate's debt is burned to zero.
// (Test code is exempt via .clippy.toml allow-*-in-tests keys.)
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![warn(missing_docs)]

mod accumulator;
mod dbscan;
mod error;
mod hierarchical;
mod internal;
mod kmeans;
mod linkage;
mod pairwise;
mod quality;

pub use accumulator::CentroidAccumulator;
pub use dbscan::{Dbscan, DbscanResult, NnChainClustering, NOISE};
pub use error::ClusterError;
pub use hierarchical::{AgglomerativeClustering, Dendrogram, Merge};
pub use internal::{davies_bouldin, silhouette};
pub use kmeans::{hamming_lloyd_step, HammingKMeans, HammingKMeansResult, KMeans, KMeansResult};
pub use linkage::Linkage;
pub use pairwise::CondensedMatrix;
pub use quality::{cluster_accuracy, normalized_mutual_information, purity};

use dual_hdc::Hypervector;

/// Euclidean distance between two equally-long vectors.
///
/// # Panics
///
/// Panics if the slice lengths differ.
// `&Vec` so it is callable as `FnMut(&Vec<f64>, &Vec<f64>)`.
#[must_use]
pub fn euclidean(a: &Vec<f64>, b: &Vec<f64>) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// Squared Euclidean distance between two equally-long vectors — the
/// quantity Ward linkage operates on.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[must_use]
#[expect(
    clippy::ptr_arg,
    reason = "must be callable as FnMut(&Vec<f64>, &Vec<f64>)"
)]
pub fn squared_euclidean(a: &Vec<f64>, b: &Vec<f64>) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Hamming distance between hypervectors as an `f64`, the DUAL-side
/// distance function.
///
/// # Panics
///
/// Panics if the dimensionalities differ.
#[must_use]
pub fn hamming(a: &Hypervector, b: &Hypervector) -> f64 {
    a.hamming(b) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dual_hdc::BitVec;

    #[test]
    fn euclidean_basics() {
        let a = vec![0.0, 3.0];
        let b = vec![4.0, 0.0];
        assert!((euclidean(&a, &b) - 5.0).abs() < 1e-12);
        assert!((squared_euclidean(&a, &b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn hamming_equals_squared_euclidean_on_binary() {
        // The identity the crate docs rely on.
        let a = Hypervector::from_bitvec(BitVec::from_bits([true, false, true, true]));
        let b = Hypervector::from_bitvec(BitVec::from_bits([false, false, true, false]));
        let fa: Vec<f64> = a.bits().iter().map(f64::from).collect();
        let fb: Vec<f64> = b.bits().iter().map(f64::from).collect();
        assert!((hamming(&a, &b) - squared_euclidean(&fa, &fb)).abs() < 1e-12);
    }
}
