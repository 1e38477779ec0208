//! # dual-hdc — hypervector substrate and encoders for DUAL
//!
//! This crate provides the algorithmic half of the DUAL co-design
//! (Imani et al., MICRO 2020): mapping real-valued feature vectors into
//! long binary *hypervectors* such that Euclidean similarity in the
//! original space is preserved as **Hamming** similarity in
//! high-dimensional space.
//!
//! The pieces:
//!
//! * [`BitVec`] — a dense bit-packed vector with word-level (popcount)
//!   Hamming distance, the storage format of every encoded point.
//! * [`Hypervector`] — a [`BitVec`] newtype carrying the dimensionality
//!   contract used by the clustering layer.
//! * [`HdMapper`] — the paper's non-linear RBF-inspired encoder
//!   (`h_i = sign(cos(B_i · F))`), including the 3-term Taylor cosine
//!   variant that the in-memory implementation computes (§V-A).
//! * [`LshEncoder`] — the linear sign-random-projection (LSH) encoder the
//!   paper compares against in Fig. 10b-d.
//!
//! ## Example
//!
//! ```rust
//! use dual_hdc::{Encoder, HdMapper, Hypervector};
//!
//! # fn main() -> Result<(), dual_hdc::HdcError> {
//! let mapper = HdMapper::new(4000, 3, 7)?; // D=4000, 3 features, seed 7
//! let a: Hypervector = mapper.encode(&[0.1, 0.9, -0.3])?;
//! let b: Hypervector = mapper.encode(&[0.1, 0.8, -0.3])?;
//! let far: Hypervector = mapper.encode(&[-5.0, 3.0, 9.0])?;
//! assert!(a.hamming(&b) < a.hamming(&far));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod bitvec;
mod encoder;
mod error;
mod hypervector;
mod lsh;
pub mod ops;
mod project;
pub mod search;
mod sliced;

pub use bitvec::{BitVec, Windows};
pub use encoder::{CosineMode, HdMapper, HdMapperBuilder};
pub use error::HdcError;
pub use hypervector::{majority_bundle, Hypervector};
pub use lsh::LshEncoder;

/// Trait for anything that encodes a real-valued feature vector into a
/// binary [`Hypervector`].
///
/// Both [`HdMapper`] (non-linear) and [`LshEncoder`] (linear) implement
/// this, which lets the clustering and benchmark layers swap encoders
/// (the Fig. 10b-d comparison) without special cases.
pub trait Encoder {
    /// Target dimensionality `D` of produced hypervectors.
    fn dim(&self) -> usize;

    /// Number of input features `m` the encoder expects.
    fn n_features(&self) -> usize;

    /// Encode one feature vector into a `D`-bit hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::FeatureLength`] if `features.len()` differs
    /// from [`Encoder::n_features`].
    fn encode(&self, features: &[f64]) -> Result<Hypervector, HdcError>;

    /// Encode a batch of feature vectors.
    ///
    /// The contract every implementation keeps:
    ///
    /// * the output equals mapping [`Encoder::encode`] over `rows`, bit
    ///   for bit and in order, however the batch is split into calls;
    /// * every row is length-checked before any is encoded, so a bad
    ///   row fails the whole call without encoding (or counting into
    ///   `hdc.encoded`) anything;
    /// * a good batch adds `rows.len()` to `hdc.encoded`, once.
    ///
    /// [`HdMapper`] and [`LshEncoder`] override it with a tiled
    /// projection that loads each base row once per tile of points
    /// instead of once per point.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::FeatureLength`] for the first row whose
    /// length differs from [`Encoder::n_features`].
    fn encode_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<Hypervector>, HdcError> {
        for row in rows {
            project::check_len(row, self.n_features())?;
        }
        rows.iter().map(|r| self.encode(r)).collect()
    }
}

/// Estimate the hypervector dimensionality needed to keep `n_points`
/// spread over `n_clusters` quasi-orthogonal in HD space.
///
/// The paper defers the analytical model to the HD-computing literature
/// (Kanerva 2009): the information capacity of a `D`-bit hypervector
/// grows linearly in `D`, so the required dimensionality grows with
/// `log2` of the number of distinguishable items times the per-item
/// margin needed to separate `n_clusters` groups. This helper returns
/// the conventional engineering estimate used throughout the paper's
/// evaluation (`D = 4000` for every dataset it tests), clamped to a
/// floor of 1000.
///
/// ```rust
/// let d = dual_hdc::estimate_dimension(60_000, 10);
/// assert!(d >= 1000 && d % 8 == 0);
/// ```
#[must_use]
pub fn estimate_dimension(n_points: usize, n_clusters: usize) -> usize {
    let bits_for_points = (n_points.max(2) as f64).log2();
    let bits_for_clusters = (n_clusters.max(2) as f64).log2();
    // ~64 dimensions of margin per distinguishable bit of structure keeps
    // random hypervectors ~orthogonal (Kanerva's capacity argument).
    let raw = (bits_for_points + bits_for_clusters) * 64.0 * 3.0;
    let d = raw.ceil() as usize;
    // Round up to a byte multiple so bit-packing wastes nothing.
    let d = d.max(1000);
    d.div_ceil(8) * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_encode_batch_checks_every_row_before_encoding_any() {
        struct Counting(std::cell::Cell<usize>);
        impl Encoder for Counting {
            fn dim(&self) -> usize {
                8
            }
            fn n_features(&self) -> usize {
                2
            }
            fn encode(&self, _: &[f64]) -> Result<Hypervector, HdcError> {
                self.0.set(self.0.get() + 1);
                Ok(Hypervector::zeros(8))
            }
        }
        let enc = Counting(std::cell::Cell::new(0));
        let bad = [vec![0.0; 2], vec![0.0; 2], vec![0.0; 3]];
        assert_eq!(
            enc.encode_batch(&bad),
            Err(HdcError::FeatureLength {
                expected: 2,
                got: 3
            })
        );
        assert_eq!(enc.0.get(), 0);
        assert_eq!(enc.encode_batch(&bad[..2]).map(|v| v.len()), Ok(2));
        assert_eq!(enc.0.get(), 2);
    }

    #[test]
    fn estimate_dimension_is_monotone_in_points() {
        let small = estimate_dimension(1_000, 10);
        let large = estimate_dimension(1_000_000, 10);
        assert!(large >= small);
    }

    #[test]
    fn estimate_dimension_has_floor() {
        assert!(estimate_dimension(2, 2) >= 1000);
    }

    #[test]
    fn estimate_dimension_typical_scale_matches_paper() {
        // The paper uses D = 4000 for datasets in the 10k-60k range.
        let d = estimate_dimension(60_000, 10);
        assert!((1000..=8000).contains(&d), "got {d}");
    }
}
