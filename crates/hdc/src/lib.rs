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
mod ops;
mod planes;
mod project;
pub mod search;
mod sliced;

pub use bitvec::{BitVec, Windows};
pub use encoder::{CosineMode, HdMapper, HdMapperBuilder};
pub use error::HdcError;
pub use hypervector::{majority_bundle, Hypervector};
pub use lsh::LshEncoder;
pub use ops::random_hypervector;
pub use project::first_non_finite;

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
    /// from [`Encoder::n_features`], and [`HdcError::NonFiniteFeature`]
    /// if a feature is NaN or ±∞.
    fn encode(&self, features: &[f64]) -> Result<Hypervector, HdcError>;

    /// Encode a batch of feature vectors.
    ///
    /// The contract every implementation keeps:
    ///
    /// * the output equals mapping [`Encoder::encode`] over `rows`, bit
    ///   for bit and in order, however the batch is split into calls;
    /// * every row is checked (length, then finiteness) before any is
    ///   encoded, so a bad row fails the whole call without encoding
    ///   (or counting into `hdc.encoded`) anything;
    /// * a good batch adds `rows.len()` to `hdc.encoded`, once.
    ///
    /// [`HdMapper`] and [`LshEncoder`] override it with a tiled
    /// projection that loads each base row once per tile of points
    /// instead of once per point.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::FeatureLength`] or
    /// [`HdcError::NonFiniteFeature`] for the first row that
    /// [`Encoder::encode`] would refuse.
    fn encode_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<Hypervector>, HdcError> {
        for row in rows {
            project::check_features(row, self.n_features())?;
        }
        rows.iter().map(|r| self.encode(r)).collect()
    }
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
        // A non-finite feature fails the call before any row encodes.
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = [vec![0.0; 2], vec![1.0, x]];
            assert_eq!(
                enc.encode_batch(&bad),
                Err(HdcError::NonFiniteFeature { index: 1 })
            );
        }
        assert_eq!(enc.0.get(), 2);
    }
}
