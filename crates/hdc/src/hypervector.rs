//! The [`Hypervector`] newtype.

use crate::{BitVec, HdcError};
use std::fmt;

/// A `D`-dimensional binary hypervector — one encoded data point.
///
/// `Hypervector` wraps [`BitVec`] to carry the dimensionality contract
/// that the clustering layer relies on: all points in a dataset share the
/// same `D`, and distances are Hamming distances.
///
/// ```rust
/// use dual_hdc::{BitVec, Hypervector};
///
/// let a = Hypervector::from_bitvec(BitVec::ones(128));
/// let b = Hypervector::from_bitvec(BitVec::zeros(128));
/// assert_eq!(a.hamming(&b), 128);
/// assert_eq!(a.normalized_hamming(&b), 1.0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Hypervector {
    bits: BitVec,
}

impl Hypervector {
    /// Wrap an existing [`BitVec`] as a hypervector.
    #[must_use]
    pub fn from_bitvec(bits: BitVec) -> Self {
        Self { bits }
    }

    /// An all-zero hypervector of dimensionality `dim`.
    #[must_use]
    pub fn zeros(dim: usize) -> Self {
        Self {
            bits: BitVec::zeros(dim),
        }
    }

    /// Dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.bits.len()
    }

    /// Borrow the underlying bit storage.
    #[must_use]
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Mutably borrow the underlying bit storage.
    #[must_use]
    pub fn bits_mut(&mut self) -> &mut BitVec {
        &mut self.bits
    }

    /// Extract the underlying [`BitVec`].
    #[must_use]
    pub fn into_bitvec(self) -> BitVec {
        self.bits
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ; see
    /// [`Hypervector::try_hamming`].
    #[must_use]
    pub fn hamming(&self, other: &Self) -> usize {
        self.bits.hamming(&other.bits)
    }

    /// Hamming distance, or an error when dimensionalities differ.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when `self.dim() !=
    /// other.dim()`.
    pub fn try_hamming(&self, other: &Self) -> Result<usize, HdcError> {
        self.bits
            .try_hamming(&other.bits)
            .ok_or(HdcError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            })
    }

    /// Hamming distance normalized to `[0, 1]` by the dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ or `D == 0`.
    #[must_use]
    pub fn normalized_hamming(&self, other: &Self) -> f64 {
        assert!(self.dim() > 0, "normalized distance needs D > 0");
        self.hamming(other) as f64 / self.dim() as f64
    }

    /// Cosine-like similarity in `[-1, 1]` derived from Hamming distance:
    /// `1 - 2·hamming/D`. Matching bits pull toward `+1`, disagreeing
    /// bits toward `-1`; random hypervectors sit near `0`.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ or `D == 0`.
    #[must_use]
    pub fn similarity(&self, other: &Self) -> f64 {
        1.0 - 2.0 * self.normalized_hamming(other)
    }
}

impl fmt::Debug for Hypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Hypervector(D={}, ones={})",
            self.dim(),
            self.bits.count_ones()
        )
    }
}

impl From<BitVec> for Hypervector {
    fn from(bits: BitVec) -> Self {
        Self::from_bitvec(bits)
    }
}

impl AsRef<BitVec> for Hypervector {
    fn as_ref(&self) -> &BitVec {
        &self.bits
    }
}

/// Majority-vote bundling of hypervectors: bit `i` of the result is 1
/// iff more than half of the inputs have bit `i` set (ties, possible for
/// an even count, resolve to 0, matching the paper's `sign(·)` mapping of
/// non-positive sums to 0).
///
/// This is the *binarized center update* of DUAL's k-means (§VI-C): the
/// accumulated per-dimension sums are thresholded so centers stay binary.
/// It is the one integer majority kernel of the tree — the software twin
/// of the paper's per-block counters. The per-dimension counts are kept
/// *bit-sliced*: for every 64-dimension word, plane `p` holds bit `p` of
/// that word's 64 counts, so folding a member in is a ripple-carry add of
/// one whole word and the vote is one word-wide comparison. Counts are
/// exact integers, so the result does not depend on member order.
///
/// # Errors
///
/// Returns [`HdcError::InvalidParameter`] when `items` is empty and
/// [`HdcError::DimensionMismatch`] when dimensionalities differ.
pub fn majority_bundle(items: &[&Hypervector]) -> Result<Hypervector, HdcError> {
    let first = items.first().ok_or(HdcError::InvalidParameter {
        name: "items",
        reason: "must be non-empty",
    })?;
    let dim = first.dim();
    // ⌈log₂(n + 1)⌉ planes hold every count in 0..=n.
    let depth = (usize::BITS - items.len().leading_zeros()) as usize;
    let mut planes = vec![0u64; first.bits.as_words().len() * depth];
    for hv in items {
        if hv.dim() != dim {
            return Err(HdcError::DimensionMismatch {
                left: dim,
                right: hv.dim(),
            });
        }
        for (count, &word) in planes.chunks_exact_mut(depth).zip(hv.bits.as_words()) {
            let mut carry = word;
            for plane in count {
                if carry == 0 {
                    break;
                }
                let old = *plane;
                *plane = old ^ carry;
                carry &= old;
            }
        }
    }
    // `2·count > n` over integers is `count ≥ ⌊n / 2⌋ + 1`.
    let threshold = items.len() / 2 + 1;
    let words = planes
        .chunks_exact(depth)
        .map(|count| sliced_at_least(count, threshold))
        .collect();
    Ok(Hypervector::from_bitvec(BitVec::from_words(words, dim)))
}

/// Lane mask of `count ≥ threshold` for 64 bit-sliced counters
/// (`planes[p]` holds bit `p` of every lane), compared MSB first.
/// `threshold` must fit in `planes.len()` bits.
fn sliced_at_least(planes: &[u64], threshold: usize) -> u64 {
    let mut greater = 0u64;
    let mut equal = u64::MAX;
    for (p, &plane) in planes.iter().enumerate().rev() {
        if (threshold >> p) & 1 == 1 {
            equal &= plane;
        } else {
            greater |= equal & plane;
            equal &= !plane;
        }
    }
    greater | equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hv(bits: &[bool]) -> Hypervector {
        Hypervector::from_bitvec(BitVec::from_bits(bits.iter().copied()))
    }

    #[test]
    fn similarity_bounds() {
        let a = Hypervector::from_bitvec(BitVec::ones(64));
        let b = Hypervector::from_bitvec(BitVec::zeros(64));
        assert_eq!(a.similarity(&a), 1.0);
        assert_eq!(a.similarity(&b), -1.0);
    }

    #[test]
    fn try_hamming_mismatch() {
        let a = Hypervector::zeros(8);
        let b = Hypervector::zeros(9);
        assert_eq!(
            a.try_hamming(&b),
            Err(HdcError::DimensionMismatch { left: 8, right: 9 })
        );
    }

    #[test]
    fn majority_bundle_votes() {
        let a = hv(&[true, true, false]);
        let b = hv(&[true, false, false]);
        let c = hv(&[true, true, true]);
        let m = majority_bundle(&[&a, &b, &c]).unwrap();
        assert!(m.bits().get(0));
        assert!(m.bits().get(1));
        assert!(!m.bits().get(2));
    }

    #[test]
    fn majority_bundle_tie_resolves_to_zero() {
        let a = hv(&[true]);
        let b = hv(&[false]);
        let m = majority_bundle(&[&a, &b]).unwrap();
        assert!(!m.bits().get(0));
    }

    /// The per-bit kernel `majority_bundle` replaced, kept as the oracle.
    fn naive_majority(items: &[&Hypervector]) -> Hypervector {
        let mut counts = vec![0usize; items[0].dim()];
        for hv in items {
            for (i, c) in counts.iter_mut().enumerate() {
                *c += usize::from(hv.bits().get(i));
            }
        }
        Hypervector::from_bitvec(counts.iter().map(|&c| 2 * c > items.len()).collect())
    }

    const MEMBER_COUNTS: [usize; 11] = [1, 2, 3, 4, 63, 64, 65, 255, 256, 257, 1_000];
    const DIMS: [usize; 7] = [1, 63, 64, 65, 127, 1_000, 4_000];

    #[test]
    fn majority_bundle_matches_per_bit_reference_across_sizes() {
        for dim in DIMS {
            // Half the bits set, so counts straddle the vote threshold.
            let pool: Vec<Hypervector> = (0..1_000)
                .map(|m| crate::ops::random_hypervector(dim, m))
                .collect();
            for n in MEMBER_COUNTS {
                let refs: Vec<&Hypervector> = pool[..n].iter().collect();
                assert_eq!(
                    majority_bundle(&refs).unwrap(),
                    naive_majority(&refs),
                    "n {n} dim {dim}"
                );
                let same: Vec<&Hypervector> = std::iter::repeat_n(&pool[0], n).collect();
                assert_eq!(majority_bundle(&same).unwrap(), pool[0], "n {n} dim {dim}");
            }
        }
    }

    #[test]
    fn majority_bundle_resolves_ties_and_their_neighbours() {
        for dim in DIMS {
            let ones = Hypervector::from_bitvec(BitVec::ones(dim));
            let zeros = Hypervector::zeros(dim);
            for n in MEMBER_COUNTS.into_iter().filter(|n| n % 2 == 0) {
                // `set` ones among `n` members, in both member orders.
                let vote = |set: usize| {
                    let mut refs = vec![&ones; set];
                    refs.resize(n, &zeros);
                    let forward = majority_bundle(&refs).unwrap();
                    refs.reverse();
                    assert_eq!(majority_bundle(&refs).unwrap(), forward);
                    assert_eq!(naive_majority(&refs), forward);
                    forward
                };
                assert_eq!(vote(n / 2), zeros, "tie, n {n} dim {dim}");
                assert_eq!(vote(n / 2 + 1), ones, "tie + 1, n {n} dim {dim}");
                assert_eq!(vote(n / 2 - 1), zeros, "tie - 1, n {n} dim {dim}");
            }
        }
    }

    #[test]
    fn majority_bundle_empty_errors() {
        assert!(majority_bundle(&[]).is_err());
    }

    #[test]
    fn majority_bundle_dim_mismatch_errors() {
        let a = Hypervector::zeros(4);
        let b = Hypervector::zeros(5);
        assert!(majority_bundle(&[&a, &b]).is_err());
    }

    proptest! {
        #[test]
        fn prop_majority_of_identical_is_identity(bits in proptest::collection::vec(any::<bool>(), 1..128),
                                                  copies in 1usize..5) {
            let h = hv(&bits);
            let refs: Vec<&Hypervector> = std::iter::repeat_n(&h, copies).collect();
            let m = majority_bundle(&refs).unwrap();
            prop_assert_eq!(m, h);
        }

        #[test]
        fn prop_majority_bundle_matches_per_bit_reference(
            dim in 1usize..200,
            rows in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 200), 1..40),
        ) {
            let hvs: Vec<Hypervector> = rows.iter().map(|r| hv(&r[..dim])).collect();
            let refs: Vec<&Hypervector> = hvs.iter().collect();
            prop_assert_eq!(majority_bundle(&refs).unwrap(), naive_majority(&refs));
        }

        #[test]
        fn prop_majority_result_within_hamming_ball(
            a in proptest::collection::vec(any::<bool>(), 16..64),
            flips in proptest::collection::vec(0usize..16, 0..4),
        ) {
            // Bundling an odd set {a, a', a''} with few flips stays closer
            // to a than the flipped inputs are to each other.
            let base = hv(&a);
            let mut b = base.clone();
            let mut c = base.clone();
            for &f in &flips {
                let ib = f % b.dim();
                b.bits_mut().flip(ib);
                let ic = (f * 7 + 3) % c.dim();
                c.bits_mut().flip(ic);
            }
            let m = majority_bundle(&[&base, &b, &c]).unwrap();
            prop_assert!(m.hamming(&base) <= b.hamming(&base) + c.hamming(&base));
        }
    }
}
