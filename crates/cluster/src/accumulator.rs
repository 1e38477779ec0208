//! Decayed per-centroid bit-count accumulator — the shared center
//! update primitive of batch and streaming Hamming k-means.
//!
//! DUAL's binary k-means re-binarizes each center by majority vote over
//! its members (§VI-C); the streaming engine (`dual-stream`) maintains
//! the same per-dimension one-counts *online*, with an exponential
//! decay applied between mini-batches so stale history fades (the
//! MEMHD-style multi-centroid memory keeps one accumulator per
//! sub-centroid). The batch path ([`crate::hamming_lloyd_step`]) votes
//! in [`dual_hdc::majority_bundle`]'s integer bit-sliced counter; the
//! stream path votes here, in `f64`, because decayed counts are not
//! integers and `c + 1 + 1 + 1` rounds differently from `c + 3`. Both
//! break ties the same way (`2·count > weight` → ties resolve to 0), and
//! with `decay == 1.0` the streaming update degenerates to exactly the
//! batch majority vote: counts and weights are then small integers,
//! which `f64` represents exactly. That agreement is pinned by two
//! proptests: `prop_undecayed_majority_matches_majority_bundle` below
//! and the "undecayed batch == one Lloyd step" property in
//! `dual-stream`.

use dual_hdc::{BitVec, Hypervector};

/// Decayed per-dimension one-counts plus a decayed member weight for a
/// single centroid.
///
/// ```rust
/// use dual_cluster::CentroidAccumulator;
/// use dual_hdc::{BitVec, Hypervector};
///
/// let mut acc = CentroidAccumulator::new(4);
/// acc.add(&Hypervector::from_bitvec(BitVec::ones(4)));
/// acc.add(&Hypervector::from_bitvec(BitVec::ones(4)));
/// acc.add(&Hypervector::from_bitvec(BitVec::zeros(4)));
/// let center = acc.majority().unwrap();
/// assert_eq!(center.bits().count_ones(), 4); // 2 of 3 vote 1
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CentroidAccumulator {
    counts: Vec<f64>,
    weight: f64,
}

impl CentroidAccumulator {
    /// An empty accumulator for `dim`-bit hypervectors.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            counts: vec![0.0; dim],
            weight: 0.0,
        }
    }

    /// Rebuild an accumulator from previously exported state — the
    /// snapshot-restore path. `counts` and `weight` are taken verbatim
    /// (bit-for-bit), so a restored accumulator votes exactly like the
    /// one [`Self::counts`]/[`Self::weight`] were read from.
    #[must_use]
    pub fn from_parts(counts: Vec<f64>, weight: f64) -> Self {
        Self { counts, weight }
    }

    /// Dimensionality `D` of the accumulated hypervectors.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.counts.len()
    }

    /// The decayed per-dimension one-counts (the numerators of the
    /// majority vote), for snapshotting.
    #[must_use]
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Decayed member weight (the denominator of the majority vote).
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Whether no effective mass remains (never added to, cleared, or
    /// decayed to nothing).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weight <= 0.0
    }

    /// Multiply the accumulated counts and weight by `factor` — the
    /// between-batch forgetting step of streaming k-means. `1.0` is a
    /// no-op (the batch semantics); values in `(0, 1)` fade history.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not in `(0, 1]` (a zero or negative
    /// factor silently erases state; callers should [`Self::clear`]).
    pub fn decay(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "decay factor must be in (0, 1], got {factor}"
        );
        // Exactly 1.0 (the assert bounds it above): keep integer counts
        // bit-exact in the batch case. The largest double below 1.0
        // still fades.
        if factor >= 1.0 {
            return;
        }
        for c in &mut self.counts {
            *c *= factor;
        }
        self.weight *= factor;
    }

    /// Fold one member into the accumulator with unit weight.
    ///
    /// # Panics
    ///
    /// Panics on a dimensionality mismatch.
    pub fn add(&mut self, hv: &Hypervector) {
        assert_eq!(
            hv.dim(),
            self.dim(),
            "accumulator dim {} vs hypervector dim {}",
            self.dim(),
            hv.dim()
        );
        // One `+= 0.0 | 1.0` per dimension, read straight from the word.
        for (chunk, &word) in self.counts.chunks_mut(64).zip(hv.bits().as_words()) {
            for (j, c) in chunk.iter_mut().enumerate() {
                *c += f64::from(u8::from((word >> j) & 1 == 1));
            }
        }
        self.weight += 1.0;
    }

    /// Reset to the empty state.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0.0);
        self.weight = 0.0;
    }

    /// Majority re-binarization: bit `i` of the result is 1 iff more
    /// than half of the (decayed) member weight voted 1 — `2·count >
    /// weight`, so exact ties resolve to 0, matching
    /// [`dual_hdc::majority_bundle`]'s mapping of non-positive signs.
    /// Returns `None` when the accumulator holds no mass.
    #[must_use]
    pub fn majority(&self) -> Option<Hypervector> {
        if self.is_empty() {
            return None;
        }
        let words = self
            .counts
            .chunks(64)
            .map(|chunk| {
                chunk.iter().enumerate().fold(0u64, |word, (j, &c)| {
                    word | (u64::from(2.0 * c > self.weight) << j)
                })
            })
            .collect();
        Some(Hypervector::from_bitvec(BitVec::from_words(
            words,
            self.dim(),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dual_hdc::majority_bundle;
    use proptest::prelude::*;

    fn hv(bits: &[bool]) -> Hypervector {
        Hypervector::from_bitvec(BitVec::from_bits(bits.iter().copied()))
    }

    #[test]
    fn empty_accumulator_has_no_majority() {
        let acc = CentroidAccumulator::new(16);
        assert!(acc.is_empty());
        assert_eq!(acc.majority(), None);
    }

    #[test]
    fn tie_resolves_to_zero_like_majority_bundle() {
        let a = hv(&[true]);
        let b = hv(&[false]);
        let mut acc = CentroidAccumulator::new(1);
        acc.add(&a);
        acc.add(&b);
        let got = acc.majority().unwrap();
        let want = majority_bundle(&[&a, &b]).unwrap();
        assert_eq!(got, want);
        assert!(!got.bits().get(0));
    }

    #[test]
    fn decay_fades_old_votes() {
        let mut acc = CentroidAccumulator::new(2);
        // Two old all-ones votes, strongly decayed, then one fresh zero.
        acc.add(&hv(&[true, true]));
        acc.add(&hv(&[true, true]));
        acc.decay(0.1);
        acc.add(&hv(&[false, false]));
        // Fresh weight 1.0 vs decayed ones-count 0.2 each: zeros win.
        let m = acc.majority().unwrap();
        assert_eq!(m.bits().count_ones(), 0);
    }

    #[test]
    fn decay_just_below_one_still_fades() {
        let mut acc = CentroidAccumulator::new(1);
        acc.add(&hv(&[true]));
        acc.decay(1.0 - f64::EPSILON / 2.0);
        assert_eq!(acc.counts(), &[0.999_999_999_999_999_9]);
        assert_eq!(acc.weight(), 0.999_999_999_999_999_9);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn decay_rejects_zero_factor() {
        CentroidAccumulator::new(4).decay(0.0);
    }

    #[test]
    #[should_panic(expected = "accumulator dim")]
    fn add_rejects_dim_mismatch() {
        let mut acc = CentroidAccumulator::new(4);
        acc.add(&Hypervector::zeros(5));
    }

    #[test]
    fn clear_resets_state() {
        let mut acc = CentroidAccumulator::new(3);
        acc.add(&hv(&[true, false, true]));
        acc.clear();
        assert!(acc.is_empty());
        assert_eq!(acc.majority(), None);
    }

    /// `add` and `majority` as they were before they read whole words,
    /// one `bits.get(i)` per dimension: the oracle for the word-level
    /// forms, compared through `f64::to_bits`.
    fn add_per_bit(counts: &mut [f64], weight: &mut f64, hv: &Hypervector) {
        for (i, c) in counts.iter_mut().enumerate() {
            *c += f64::from(u8::from(hv.bits().get(i)));
        }
        *weight += 1.0;
    }

    fn majority_per_bit(counts: &[f64], weight: f64) -> Option<Hypervector> {
        if weight <= 0.0 {
            return None; // a NaN weight is not "empty", as in `is_empty`
        }
        let bits = counts.iter().map(|&c| 2.0 * c > weight).collect();
        Some(Hypervector::from_bitvec(bits))
    }

    fn to_bits(counts: &[f64]) -> Vec<u64> {
        counts.iter().map(|c| c.to_bits()).collect()
    }

    fn assert_matches_per_bit(acc: &mut CentroidAccumulator, members: &[Hypervector], decay: f64) {
        let mut counts = acc.counts().to_vec();
        let mut weight = acc.weight();
        for hv in members {
            acc.decay(decay);
            if decay != 1.0 {
                counts.iter_mut().for_each(|c| *c *= decay);
                weight *= decay;
            }
            acc.add(hv);
            add_per_bit(&mut counts, &mut weight, hv);
            assert_eq!(to_bits(acc.counts()), to_bits(&counts));
            assert_eq!(acc.weight().to_bits(), weight.to_bits());
            assert_eq!(acc.majority(), majority_per_bit(&counts, weight));
        }
    }

    fn members(dim: usize, n: u64) -> Vec<Hypervector> {
        (0..n)
            .map(|m| dual_hdc::random_hypervector(dim, m))
            .collect()
    }

    #[test]
    fn word_level_add_and_majority_match_per_bit_on_decayed_counts() {
        for dim in [1, 63, 65, 100, 130, 1_000] {
            let members = members(dim, 12);
            for decay in [1.0, 0.95, 0.3] {
                let mut acc = CentroidAccumulator::new(dim);
                assert_matches_per_bit(&mut acc, &members, decay);
            }
        }
    }

    #[test]
    fn word_level_add_and_majority_match_per_bit_on_restored_special_values() {
        let specials = [
            -0.0,
            0.0,
            f64::NAN,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::INFINITY,
            0.1 + 0.2,
            -3.5,
            1e300,
        ];
        for dim in [7, 70, 130] {
            let counts: Vec<f64> = (0..dim).map(|i| specials[i % specials.len()]).collect();
            let members = members(dim, 4);
            for weight in [0.0, 0.6, 2.0, f64::INFINITY, f64::NAN] {
                let mut acc = CentroidAccumulator::from_parts(counts.clone(), weight);
                assert_eq!(acc.majority(), majority_per_bit(&counts, weight));
                assert_matches_per_bit(&mut acc, &members, 0.9);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_undecayed_majority_matches_majority_bundle(
            rows in proptest::collection::vec(
                proptest::collection::vec(any::<bool>(), 24), 1..12),
        ) {
            let hvs: Vec<Hypervector> = rows.iter().map(|r| hv(r)).collect();
            let refs: Vec<&Hypervector> = hvs.iter().collect();
            let mut acc = CentroidAccumulator::new(24);
            for h in &hvs {
                acc.decay(1.0);
                acc.add(h);
            }
            prop_assert_eq!(acc.majority(), majority_bundle(&refs).ok());
        }
    }
}
