//! Sign-random-projection LSH encoder — the linear comparison point of
//! Fig. 10b-d.

use crate::project::{self, Base, Sign};
use crate::{Encoder, HdcError, Hypervector};

/// Locality-Sensitive Hashing encoder based on random hyperplanes:
/// `h_i = sign(B_i · F)` with Gaussian `B_i`.
///
/// This is the classic SimHash family the paper cites as the prior
/// approach to Hamming-friendly clustering [24, 34, 80]. It preserves
/// *angular* distance linearly, so unlike the [`crate::HdMapper`] it
/// cannot capture non-linear interactions between features — the source
/// of the quality gap DUAL reports (5.9% / 5.2% / 3.3% on hierarchical /
/// k-means / DBSCAN at D = 4000).
///
/// ```rust
/// use dual_hdc::{Encoder, LshEncoder};
///
/// # fn main() -> Result<(), dual_hdc::HdcError> {
/// let lsh = LshEncoder::new(1024, 3, 11)?;
/// let h = lsh.encode(&[0.5, -1.0, 2.0])?;
/// assert_eq!(h.dim(), 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LshEncoder {
    /// The `D × m` hyperplane normals.
    planes: Base,
}

impl LshEncoder {
    /// Create an encoder producing `dim`-bit signatures for
    /// `n_features`-dimensional inputs, with deterministic hyperplanes
    /// derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] if `dim` or `n_features`
    /// is zero.
    pub fn new(dim: usize, n_features: usize, seed: u64) -> Result<Self, HdcError> {
        if dim == 0 {
            return Err(HdcError::InvalidParameter {
                name: "dim",
                reason: "must be positive",
            });
        }
        if n_features == 0 {
            return Err(HdcError::InvalidParameter {
                name: "n_features",
                reason: "must be positive",
            });
        }
        Ok(Self {
            planes: Base::gaussian(dim, n_features, seed)?,
        })
    }
}

/// The hyperplane side of a dot product, `dot > 0`.
#[derive(Clone, Copy)]
pub(crate) struct PlaneSign;

impl Sign for PlaneSign {
    fn positive(self, dot: f64) -> bool {
        dot > 0.0
    }

    /// An infinite end never decides: a lane that overflowed to `−∞`
    /// gives `lo = hi = −∞` while the `f64` dot may be positive.
    fn certain(self, lo: f64, hi: f64) -> Option<bool> {
        if lo > 0.0 && hi < f64::INFINITY {
            Some(true)
        } else if hi <= 0.0 && lo > f64::NEG_INFINITY {
            Some(false)
        } else {
            None
        }
    }

    fn filters(self) -> bool {
        true
    }
}

impl Encoder for LshEncoder {
    fn dim(&self) -> usize {
        self.planes.dim()
    }

    fn n_features(&self) -> usize {
        self.planes.n_features()
    }

    fn encode(&self, features: &[f64]) -> Result<Hypervector, HdcError> {
        project::sign_one(&self.planes, features, PlaneSign)
    }

    fn encode_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<Hypervector>, HdcError> {
        project::sign_batch(&self.planes, rows, PlaneSign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_zero_dims() {
        assert!(LshEncoder::new(0, 3, 0).is_err());
        assert!(LshEncoder::new(3, 0, 0).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = LshEncoder::new(256, 4, 5).unwrap();
        let b = LshEncoder::new(256, 4, 5).unwrap();
        let f = [1.0, -0.5, 0.25, 2.0];
        assert_eq!(a.encode(&f).unwrap(), b.encode(&f).unwrap());
    }

    #[test]
    fn rejects_wrong_feature_count() {
        let e = LshEncoder::new(16, 4, 0).unwrap();
        assert!(e.encode(&[1.0]).is_err());
    }

    #[test]
    fn encode_and_encode_batch_refuse_non_finite_features() {
        let e = LshEncoder::new(16, 4, 0).unwrap();
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = [0.5, -1.0, x, 2.0];
            let want = Err(HdcError::NonFiniteFeature { index: 2 });
            assert_eq!(e.encode(&bad), want);
            // Length is checked first; a good row before the bad one
            // does not make the batch partial.
            assert_eq!(
                e.encode_batch(&[vec![0.0; 4], bad.to_vec()]),
                want.map(|hv| vec![hv])
            );
        }
    }

    #[test]
    fn lsh_is_scale_invariant() {
        // sign(B·(cF)) == sign(B·F) for c > 0 — the signature ignores
        // vector magnitude, a defining property of SimHash.
        let e = LshEncoder::new(512, 3, 2).unwrap();
        let f = [0.4, -1.2, 3.0];
        let scaled = [0.4 * 7.5, -1.2 * 7.5, 3.0 * 7.5];
        assert_eq!(e.encode(&f).unwrap(), e.encode(&scaled).unwrap());
    }

    #[test]
    fn hamming_tracks_angle() {
        // Collision probability of SimHash is 1 - θ/π; orthogonal vectors
        // should land near D/2, near-parallel vectors near 0.
        let e = LshEncoder::new(4096, 2, 3).unwrap();
        let x = e.encode(&[1.0, 0.0]).unwrap();
        let near = e.encode(&[1.0, 0.05]).unwrap();
        let orth = e.encode(&[0.0, 1.0]).unwrap();
        assert!(x.hamming(&near) < 300, "near: {}", x.hamming(&near));
        let d_orth = x.hamming(&orth);
        assert!((1500..2600).contains(&d_orth), "orth: {d_orth}");
    }

    proptest! {
        #[test]
        fn prop_negation_flips_almost_all_bits(feats in proptest::collection::vec(-5.0f64..5.0, 3)) {
            prop_assume!(feats.iter().any(|f| f.abs() > 1e-6));
            let e = LshEncoder::new(256, 3, 9).unwrap();
            let pos = e.encode(&feats).unwrap();
            let negated: Vec<f64> = feats.iter().map(|f| -f).collect();
            let neg = e.encode(&negated).unwrap();
            // sign(B·(-F)) = -sign(B·F): every strictly non-zero projection
            // flips; zeros (measure zero) may not.
            prop_assert!(pos.hamming(&neg) >= 250);
        }
    }
}
