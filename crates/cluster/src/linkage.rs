//! Linkage criteria and the Lance–Williams distance update (§II).

/// How the distance between a freshly merged cluster `a_i ∪ a_j` and a
/// bystander cluster `a_k` is recomputed after a merge.
///
/// These are the four criteria the paper defines in §II. `Ward` is the
/// one the state-of-the-art baselines use, and the one the DUAL distance
/// update block (§V-D) implements with row-parallel arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// `min(d(a_i,a_k), d(a_j,a_k))`.
    Single,
    /// `max(d(a_i,a_k), d(a_j,a_k))`.
    Complete,
    /// Size-weighted mean `(s_i·d_ik + s_j·d_jk)/(s_i+s_j)`.
    Average,
    /// Ward's criterion on (squared) distances:
    /// `C₁·d_ik + C₂·d_jk − C₃·d_ij` with
    /// `C₁=(s_i+s_k)/S`, `C₂=(s_j+s_k)/S`, `C₃=s_k/S`, `S=s_i+s_j+s_k`.
    #[default]
    Ward,
}

impl Linkage {
    /// Lance–Williams update: the distance from the merged cluster
    /// `a_i ∪ a_j` to `a_k`, given the three pre-merge distances and the
    /// cluster sizes.
    ///
    /// For `Ward` the inputs must be *squared* distances (which Hamming
    /// distances on binary vectors already are).
    #[must_use]
    pub fn update(self, d_ik: f64, d_jk: f64, d_ij: f64, s_i: f64, s_j: f64, s_k: f64) -> f64 {
        match self {
            Self::Single => d_ik.min(d_jk),
            Self::Complete => d_ik.max(d_jk),
            Self::Average => (s_i * d_ik + s_j * d_jk) / (s_i + s_j),
            Self::Ward => {
                let s = s_i + s_j + s_k;
                let c1 = (s_i + s_k) / s;
                let c2 = (s_j + s_k) / s;
                let c3 = s_k / s;
                c1 * d_ik + c2 * d_jk - c3 * d_ij
            }
        }
    }

    /// The three Ward coefficients `(C₁, C₂, C₃)` — exposed separately
    /// because the PIM mapping materializes them in their own memory
    /// columns before the multiply/add chain (Fig. 6 steps C–E).
    #[must_use]
    pub fn ward_coefficients(s_i: f64, s_j: f64, s_k: f64) -> (f64, f64, f64) {
        let s = s_i + s_j + s_k;
        ((s_i + s_k) / s, (s_j + s_k) / s, s_k / s)
    }

    /// All four linkages, for sweeps.
    #[must_use]
    pub fn all() -> [Self; 4] {
        [Self::Single, Self::Complete, Self::Average, Self::Ward]
    }

    /// Short lowercase name (for benchmark tables).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Single => "single",
            Self::Complete => "complete",
            Self::Average => "average",
            Self::Ward => "ward",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_and_complete_are_min_max() {
        assert_eq!(Linkage::Single.update(2.0, 5.0, 1.0, 1.0, 1.0, 1.0), 2.0);
        assert_eq!(Linkage::Complete.update(2.0, 5.0, 1.0, 1.0, 1.0, 1.0), 5.0);
    }

    #[test]
    fn average_weights_by_size() {
        // 3 points at distance 1, 1 point at distance 5 -> (3·1+1·5)/4 = 2
        assert_eq!(Linkage::Average.update(1.0, 5.0, 9.0, 3.0, 1.0, 2.0), 2.0);
    }

    #[test]
    fn ward_coefficients_sum_consistency() {
        let (c1, c2, c3) = Linkage::ward_coefficients(2.0, 3.0, 4.0);
        // C1 + C2 - C3 = 1 always: merged-to-k distance of coincident
        // clusters reproduces the common distance.
        assert!((c1 + c2 - c3 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ward_matches_explicit_formula() {
        let d = Linkage::Ward.update(10.0, 20.0, 6.0, 1.0, 2.0, 3.0);
        let s = 6.0;
        let expect = (4.0 / s) * 10.0 + (5.0 / s) * 20.0 - (3.0 / s) * 6.0;
        assert!((d - expect).abs() < 1e-12);
    }

    #[test]
    fn ward_agrees_with_centroid_identity_on_singletons() {
        // For singleton clusters, Ward's squared-distance update equals
        // the ESS increase identity: d(ij,k)² computed via Lance–Williams
        // matches direct recomputation from coordinates.
        let a = [0.0, 0.0];
        let b = [2.0, 0.0];
        let c = [0.0, 3.0];
        let sq = |p: &[f64; 2], q: &[f64; 2]| (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2);
        // Ward "distance" between singletons is the squared distance.
        let d_ab = sq(&a, &b);
        let d_ac = sq(&a, &c);
        let d_bc = sq(&b, &c);
        let updated = Linkage::Ward.update(d_ac, d_bc, d_ab, 1.0, 1.0, 1.0);
        // Direct Ward distance between {a,b} (centroid (1,0), size 2) and {c}:
        // ESS increase = (s1*s2)/(s1+s2) * ||mean1-mean2||² · 2 (in the
        // 2Δ convention used by the recurrence with squared inputs).
        let centroid = [1.0, 0.0];
        let direct = (2.0 * 1.0) / 3.0 * sq(&centroid, &c) * 2.0;
        assert!((updated - direct).abs() < 1e-9, "{updated} vs {direct}");
    }

    proptest! {
        #[test]
        fn prop_updates_are_bounded_for_min_max(d_ik in 0.0f64..100.0, d_jk in 0.0f64..100.0) {
            let lo = Linkage::Single.update(d_ik, d_jk, 0.0, 1.0, 1.0, 1.0);
            let hi = Linkage::Complete.update(d_ik, d_jk, 0.0, 1.0, 1.0, 1.0);
            prop_assert!(lo <= hi);
            prop_assert!(lo <= d_ik && lo <= d_jk);
            prop_assert!(hi >= d_ik && hi >= d_jk);
        }

        #[test]
        fn prop_average_between_min_max(d_ik in 0.0f64..100.0, d_jk in 0.0f64..100.0,
                                        s_i in 1.0f64..50.0, s_j in 1.0f64..50.0) {
            let avg = Linkage::Average.update(d_ik, d_jk, 0.0, s_i, s_j, 1.0);
            prop_assert!(avg >= d_ik.min(d_jk) - 1e-9);
            prop_assert!(avg <= d_ik.max(d_jk) + 1e-9);
        }

        #[test]
        fn prop_ward_coefficient_identity(s_i in 1.0f64..100.0, s_j in 1.0f64..100.0,
                                          s_k in 1.0f64..100.0) {
            let (c1, c2, c3) = Linkage::ward_coefficients(s_i, s_j, s_k);
            prop_assert!((c1 + c2 - c3 - 1.0).abs() < 1e-9);
            prop_assert!(c1 > 0.0 && c2 > 0.0 && c3 > 0.0);
        }
    }
}
