//! The HD-Mapper: DUAL's non-linear RBF-inspired encoder (§III-A).

use crate::project::{self, Base, Sign};
use crate::{Encoder, HdcError, Hypervector};

/// How the encoder evaluates the cosine non-linearity.
///
/// The algorithmic definition uses an exact cosine; the in-memory
/// implementation (§V-A) approximates it with the first three terms of
/// the Taylor expansion, `1 - y²/2 + y⁴/24`, after range reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CosineMode {
    /// Library cosine (`f64::cos`) — the algorithmic reference.
    #[default]
    Exact,
    /// Three-term Taylor expansion with quadrant folding, the behaviour
    /// of the PIM pipeline after its pre-scaling stage. Sign-accurate
    /// everywhere (max absolute error < 0.02 on the folded domain).
    Taylor3,
    /// Three-term Taylor expansion applied to the raw reduced angle in
    /// `[-π, π]` *without* quadrant folding — an ablation showing what
    /// happens if the hardware skipped the folding step (sign errors
    /// appear near `±π`).
    Taylor3Raw,
}

/// DUAL's HD-Mapper: encodes an `m`-feature point into a `D`-bit
/// hypervector via `h_i = sign(cos(B_i · F))` where each base vector
/// `B_i ∈ R^m` is sampled once from `N(0, 1)` (§III-A, Fig. 3).
///
/// The cosine non-linearity is what distinguishes the HD-Mapper from
/// plain sign-random-projection LSH and is responsible for the quality
/// gap in Fig. 10b-d: it approximates the RBF kernel feature map of
/// Rahimi & Recht (2008), so *non-linearly* separable structure in the
/// original space becomes linearly (Hamming-) separable in HD space.
///
/// ```rust
/// use dual_hdc::{CosineMode, Encoder, HdMapper};
///
/// # fn main() -> Result<(), dual_hdc::HdcError> {
/// let mapper = HdMapper::builder(2000, 4)
///     .seed(42)
///     .sigma(2.0)
///     .cosine_mode(CosineMode::Taylor3)
///     .build()?;
/// let hv = mapper.encode(&[1.0, 0.0, -1.0, 0.5])?;
/// assert_eq!(hv.dim(), 2000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HdMapper {
    /// Row-major `D × m` base matrix and its row norms.
    base: Base,
    sigma: f64,
    mode: CosineMode,
}

/// Builder for [`HdMapper`]; see [`HdMapper::builder`].
#[derive(Debug, Clone)]
pub struct HdMapperBuilder {
    dim: usize,
    n_features: usize,
    seed: u64,
    sigma: f64,
    mode: CosineMode,
}

impl HdMapperBuilder {
    /// Seed of the deterministic base-vector generator (base vectors are
    /// generated once offline and reused; §III-A).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Kernel bandwidth σ of the approximated RBF kernel: projections
    /// are scaled by `1/σ` before the cosine. Larger σ makes the encoder
    /// smoother (coarser clusters); must be positive and finite.
    #[must_use]
    pub fn sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma;
        self
    }

    /// Select the cosine evaluation strategy.
    #[must_use]
    pub fn cosine_mode(mut self, mode: CosineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Build the mapper, sampling the base matrix.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] when `dim` or `n_features`
    /// is zero, or σ is non-positive/non-finite.
    pub fn build(self) -> Result<HdMapper, HdcError> {
        if self.dim == 0 {
            return Err(HdcError::InvalidParameter {
                name: "dim",
                reason: "must be positive",
            });
        }
        if self.n_features == 0 {
            return Err(HdcError::InvalidParameter {
                name: "n_features",
                reason: "must be positive",
            });
        }
        if !(self.sigma.is_finite() && self.sigma > 0.0) {
            return Err(HdcError::InvalidParameter {
                name: "sigma",
                reason: "must be positive and finite",
            });
        }
        Ok(HdMapper {
            base: Base::gaussian(self.dim, self.n_features, self.seed)?,
            sigma: self.sigma,
            mode: self.mode,
        })
    }
}

impl HdMapper {
    /// Start building a mapper for `dim`-bit hypervectors over
    /// `n_features`-dimensional inputs.
    #[must_use]
    pub fn builder(dim: usize, n_features: usize) -> HdMapperBuilder {
        HdMapperBuilder {
            dim,
            n_features,
            seed: 0x5eed,
            sigma: 1.0,
            mode: CosineMode::Exact,
        }
    }

    /// Convenience constructor with defaults (`σ = 1`, exact cosine).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidParameter`] when `dim` or `n_features`
    /// is zero.
    pub fn new(dim: usize, n_features: usize, seed: u64) -> Result<Self, HdcError> {
        Self::builder(dim, n_features).seed(seed).build()
    }

    /// Base vector `B_i` (row `i` of the base matrix).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[must_use]
    pub fn base_vector(&self, i: usize) -> &[f64] {
        assert!(i < self.base.dim(), "base vector index out of range");
        let n = self.base.n_features();
        &self.base.matrix()[i * n..(i + 1) * n]
    }

    /// The raw (pre-binarization) encoding `h_i = cos(B_i·F/σ)` — exposed
    /// because the PIM encoding pipeline (§V-A) operates on exactly this
    /// intermediate before taking the sign bit.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::FeatureLength`] on a feature-count mismatch
    /// and [`HdcError::NonFiniteFeature`] on a NaN or ±∞ feature.
    pub fn project(&self, features: &[f64]) -> Result<Vec<f64>, HdcError> {
        let n_features = self.base.n_features();
        project::check_features(features, n_features)?;
        let inv_sigma = 1.0 / self.sigma;
        let mut out = Vec::with_capacity(self.base.dim());
        project::tile_dots::<1>(self.base.matrix(), n_features, features, |_, &[dot]| {
            out.push(eval_cosine(dot * inv_sigma, self.mode));
        });
        Ok(out)
    }

    /// The sign test of §III-A.
    fn sign(&self) -> CosineSign {
        CosineSign {
            inv_sigma: 1.0 / self.sigma,
            mode: self.mode,
        }
    }
}

/// The mapper's bit of a dot product: [`cosine_positive`] of `dot/σ`.
#[derive(Clone, Copy)]
pub(crate) struct CosineSign {
    pub(crate) inv_sigma: f64,
    pub(crate) mode: CosineMode,
}

impl Sign for CosineSign {
    fn positive(self, dot: f64) -> bool {
        cosine_positive(dot * self.inv_sigma, self.mode)
    }

    /// `x = dot · (1/σ)` and `r = x · (1/π)` are each one rounded
    /// multiply by a positive constant, so both are monotone in `dot`:
    /// every `dot` in `[lo, hi]` has its `r` between `lo`'s and `hi`'s.
    /// When those two share their nearest integer `k` inside the guard
    /// band, below [`MAX_ANGLE`], so does every `r` between them, and
    /// [`cosine_positive`] returns `k`'s parity for all of them.
    fn certain(self, lo: f64, hi: f64) -> Option<bool> {
        let (k, lo_in) = half_turns(lo * self.inv_sigma);
        let (k_hi, hi_in) = half_turns(hi * self.inv_sigma);
        (lo_in & hi_in & (k == k_hi)).then_some(k & 1 == 0)
    }

    fn filters(self) -> bool {
        self.mode == CosineMode::Exact
    }
}

impl Encoder for HdMapper {
    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn n_features(&self) -> usize {
        self.base.n_features()
    }

    fn encode(&self, features: &[f64]) -> Result<Hypervector, HdcError> {
        project::sign_one(&self.base, features, self.sign())
    }

    fn encode_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<Hypervector>, HdcError> {
        project::sign_batch(&self.base, rows, self.sign())
    }
}

/// Evaluate the configured cosine approximation on an arbitrary angle.
#[must_use]
pub(crate) fn eval_cosine(x: f64, mode: CosineMode) -> f64 {
    match mode {
        CosineMode::Exact => x.cos(),
        CosineMode::Taylor3 => taylor3_folded(x),
        CosineMode::Taylor3Raw => taylor3_poly(reduce_to_pi(x)),
    }
}

/// 2²⁰: angles at or above it leave [`cosine_positive`]'s parity path.
const MAX_ANGLE: f64 = (1u64 << 20) as f64;

/// `eval_cosine(x, mode) > 0.0`, the one bit the mapper keeps, without
/// evaluating the cosine where the answer is already certain.
///
/// `cos x > 0` exactly when the integer nearest to `x/π` is even. For
/// `CosineMode::Exact` and `|x| < 2²⁰`, `r = x · (1/π)` is off the true
/// quotient by less than 1.2·10⁻¹⁰ (two roundings of relative size
/// 2⁻⁵³ on `|r| < 3.4·10⁵`). Adding `1.5·2⁵²` lands the sum where
/// doubles are one apart, so the addition itself rounds `r` to its
/// nearest integer `k` and leaves `k`'s parity in the lowest mantissa
/// bit; subtracting the constant again gives `k` exactly, and so is
/// `r − k`. While `|r − k| ≤ ½ − 10⁻⁶` the true quotient is still
/// nearer to `k` than to any other integer and the parity is the sign.
/// Everything else (within 10⁻⁶ of a half-integer, `|x| ≥ 2²⁰`, NaN,
/// ±∞, the Taylor modes) takes `eval_cosine`. Outside the guard band
/// `|cos x| ≥ sin(10⁻⁶·π) > 3·10⁻⁶`, far above libm's error, so the
/// parity is libm's sign too and no bit differs from `x.cos() > 0.0`.
/// Plain adds and multiplies only. The shipped x86-64-v3 build has a
/// rounding instruction, but the portable x86-64 build does not, and
/// there `f64::round` would be a libm call again; the parity is
/// bit-identical on both.
fn cosine_positive(x: f64, mode: CosineMode) -> bool {
    let (k, parity_path) = half_turns(x);
    if mode == CosineMode::Exact && parity_path {
        k & 1 == 0
    } else {
        eval_cosine(x, mode) > 0.0
    }
}

/// The bits of `k + 1.5·2⁵²`, for `k` the integer nearest to
/// `x · (1/π)`, and whether [`cosine_positive`]'s parity path may use
/// them: `|x| < 2²⁰` and `x · (1/π)` within `½ − 10⁻⁶` of `k`. Equal
/// bits mean equal `k`.
fn half_turns(x: f64) -> (u64, bool) {
    const SHIFT: f64 = 1.5 * (1u64 << 52) as f64;
    const GUARD: f64 = 0.5 - 1e-6;
    let r = x * std::f64::consts::FRAC_1_PI;
    let shifted = r + SHIFT;
    let k = shifted - SHIFT;
    (
        shifted.to_bits(),
        x.abs() < MAX_ANGLE && (r - k).abs() <= GUARD,
    )
}

/// Range-reduce to `[-π, π]`.
fn reduce_to_pi(x: f64) -> f64 {
    use std::f64::consts::{PI, TAU};
    let mut r = x % TAU;
    if r > PI {
        r -= TAU;
    } else if r < -PI {
        r += TAU;
    }
    r
}

/// Quadrant-folded 3-term Taylor cosine: reduce to `[-π, π]`, then use
/// `cos(x) = -cos(π - |x|)` to land the polynomial argument in
/// `[-π/2, π/2]` where three terms are sign-accurate.
fn taylor3_folded(x: f64) -> f64 {
    use std::f64::consts::{FRAC_PI_2, PI};
    let r = reduce_to_pi(x).abs();
    if r <= FRAC_PI_2 {
        taylor3_poly(r)
    } else {
        -taylor3_poly(PI - r)
    }
}

/// `1 - y²/2 + y⁴/24` — the first three terms of the cosine expansion,
/// exactly what the in-memory pipeline computes with two squarings, two
/// constant multiplies, and an add/subtract chain (§V-A).
fn taylor3_poly(y: f64) -> f64 {
    let y2 = y * y;
    1.0 - y2 / 2.0 + y2 * y2 / 24.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builder_rejects_bad_params() {
        assert!(HdMapper::builder(0, 3).build().is_err());
        assert!(HdMapper::builder(10, 0).build().is_err());
        assert!(HdMapper::builder(10, 3).sigma(0.0).build().is_err());
        assert!(HdMapper::builder(10, 3).sigma(f64::NAN).build().is_err());
    }

    #[test]
    fn encode_is_deterministic_per_seed() {
        let m1 = HdMapper::new(256, 5, 9).unwrap();
        let m2 = HdMapper::new(256, 5, 9).unwrap();
        let f = [0.3, -0.2, 1.5, 0.0, 2.0];
        assert_eq!(m1.encode(&f).unwrap(), m2.encode(&f).unwrap());
    }

    #[test]
    fn different_seeds_give_different_encodings() {
        let m1 = HdMapper::new(512, 5, 1).unwrap();
        let m2 = HdMapper::new(512, 5, 2).unwrap();
        let f = [0.3, -0.2, 1.5, 0.0, 2.0];
        let h1 = m1.encode(&f).unwrap();
        let h2 = m2.encode(&f).unwrap();
        // Independent encoders should disagree on ~half the bits.
        let d = h1.hamming(&h2);
        assert!(d > 128 && d < 384, "distance {d} not near D/2");
    }

    #[test]
    fn encode_rejects_wrong_feature_count() {
        let m = HdMapper::new(64, 3, 0).unwrap();
        assert_eq!(
            m.encode(&[1.0, 2.0]),
            Err(HdcError::FeatureLength {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn encode_encode_batch_and_project_refuse_non_finite_features() {
        let m = HdMapper::new(64, 3, 0).unwrap();
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = [x, 1.0, x];
            let want = HdcError::NonFiniteFeature { index: 0 };
            assert_eq!(m.encode(&bad), Err(want.clone()));
            assert_eq!(
                m.encode_batch(&[vec![0.0; 3], bad.to_vec()]),
                Err(want.clone())
            );
            assert_eq!(m.project(&bad), Err(want));
        }
        // The largest finite values still encode.
        assert!(m.encode(&[f64::MAX, f64::MIN, 5e-324]).is_ok());
    }

    #[test]
    fn nearby_points_are_closer_than_far_points() {
        let m = HdMapper::builder(4000, 8)
            .seed(3)
            .sigma(4.0)
            .build()
            .unwrap();
        let a = [1.0, 2.0, 0.0, -1.0, 0.5, 0.2, 1.1, -0.4];
        let mut near = a;
        near[0] += 0.05;
        let far = [-3.0, 8.0, 5.0, 4.0, -6.0, 2.0, -9.0, 7.0];
        let ha = m.encode(&a).unwrap();
        let hn = m.encode(&near).unwrap();
        let hf = m.encode(&far).unwrap();
        assert!(ha.hamming(&hn) < ha.hamming(&hf));
    }

    #[test]
    fn taylor3_folded_matches_cos_sign_everywhere() {
        for k in -1000..1000 {
            let x = k as f64 * 0.013;
            let exact = x.cos();
            let approx = taylor3_folded(x);
            if exact.abs() > 0.05 {
                assert_eq!(
                    exact > 0.0,
                    approx > 0.0,
                    "sign mismatch at x={x}: cos={exact}, taylor={approx}"
                );
            }
        }
    }

    #[test]
    fn taylor3_raw_has_sign_errors_near_pi() {
        // The ablation mode must actually exhibit the failure it models.
        let x = std::f64::consts::PI * 0.98;
        assert!(x.cos() < 0.0);
        assert!(eval_cosine(x, CosineMode::Taylor3Raw) > 0.0);
    }

    #[test]
    fn taylor3_is_close_on_folded_domain() {
        for k in 0..100 {
            let x = -std::f64::consts::PI + k as f64 * (std::f64::consts::TAU / 100.0);
            assert!((taylor3_folded(x) - x.cos()).abs() < 0.02, "x={x}");
        }
    }

    /// `x` moved `ulps` representable values up (down when negative).
    fn stepped(x: f64, ulps: i32) -> f64 {
        (0..ulps.abs()).fold(x, |x, _| if ulps > 0 { x.next_up() } else { x.next_down() })
    }

    fn assert_sign_is_libms(x: f64) {
        assert_eq!(
            cosine_positive(x, CosineMode::Exact),
            x.cos() > 0.0,
            "x = {x:e} ({:#018x})",
            x.to_bits()
        );
    }

    #[test]
    fn sign_test_is_libms_sign_around_every_crossing() {
        use std::f64::consts::PI;
        // Both sides of the guard band's edge (10⁻⁶), deep inside the
        // fallback, deep inside the parity path, and the extrema.
        const OFFSETS: [f64; 9] = [0.0, 1e-12, 1e-9, 0.99e-6, 1e-6, 1.01e-6, 1e-5, 1e-3, 0.5];
        let mut crossings = 0u32;
        for k in 0.. {
            let crossing = (f64::from(k) + 0.5) * PI;
            if crossing >= MAX_ANGLE {
                break;
            }
            crossings += 1;
            for offset in OFFSETS {
                for x in [crossing - offset * PI, crossing + offset * PI] {
                    for ulps in -2..=2 {
                        let x = stepped(x, ulps);
                        assert_sign_is_libms(x);
                        assert_sign_is_libms(-x);
                    }
                }
            }
        }
        // ⌊2²⁰/π − ½⌋ + 1: the loop met every crossing below the limit.
        assert_eq!(crossings, 333_772);
    }

    #[test]
    fn sign_test_is_libms_sign_on_specials_and_at_the_range_limit() {
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            -2.2e-308,
            1e300,
            -1e300,
            MAX_ANGLE,
            -MAX_ANGLE,
            MAX_ANGLE.next_down(),
            -MAX_ANGLE.next_down(),
            MAX_ANGLE.next_up(),
        ] {
            assert_sign_is_libms(x);
        }
    }

    #[test]
    fn batch_encode_matches_single() {
        let m = HdMapper::new(128, 2, 0).unwrap();
        let rows = vec![vec![1.0, 2.0], vec![-1.0, 0.5]];
        let batch = m.encode_batch(&rows).unwrap();
        assert_eq!(batch[0], m.encode(&rows[0]).unwrap());
        assert_eq!(batch[1], m.encode(&rows[1]).unwrap());
    }

    proptest! {
        #[test]
        fn prop_encoding_dim_always_matches(dim in 1usize..512, nf in 1usize..8,
                                            feats in proptest::collection::vec(-10.0f64..10.0, 8)) {
            let m = HdMapper::new(dim, nf, 7).unwrap();
            let h = m.encode(&feats[..nf]).unwrap();
            prop_assert_eq!(h.dim(), dim);
        }

        #[test]
        fn prop_scaling_features_and_sigma_is_invariant(scale in 0.1f64..10.0,
                                                        feats in proptest::collection::vec(-3.0f64..3.0, 4)) {
            // encode(F; σ) == encode(c·F; c·σ) because only F/σ enters.
            let m1 = HdMapper::builder(128, 4).seed(5).sigma(1.0).build().unwrap();
            let m2 = HdMapper::builder(128, 4).seed(5).sigma(scale).build().unwrap();
            let scaled: Vec<f64> = feats.iter().map(|f| f * scale).collect();
            prop_assert_eq!(m1.encode(&feats).unwrap(), m2.encode(&scaled).unwrap());
        }

        #[test]
        fn prop_sign_test_is_libms_sign(x in -1.1 * MAX_ANGLE..1.1 * MAX_ANGLE) {
            prop_assert_eq!(cosine_positive(x, CosineMode::Exact), x.cos() > 0.0);
        }

        #[test]
        fn prop_taylor3_sign_agrees_with_cos(x in -50.0f64..50.0) {
            let exact = x.cos();
            prop_assume!(exact.abs() > 0.05);
            prop_assert_eq!(exact > 0.0, taylor3_folded(x) > 0.0);
        }
    }
}
