//! The HD-Mapper encoding pipeline executed *on the PIM* (§V-A, Fig. 5).
//!
//! The software [`dual_hdc::HdMapper`] is the algorithmic reference;
//! this module runs the same computation through the
//! [`dual_isa::Runtime`]'s row-parallel arithmetic, the way the chip
//! does it:
//!
//! 1. **Block 1 — dot product.** The `D` base vectors sit one per
//!    memory row (quantized to small signed integers); each feature is
//!    broadcast row-parallel, multiplied against its base column, and
//!    accumulated — `m` multiply/add rounds, exactly the §V-A loop.
//! 2. **Block 2 — cosine.** The dot product is squared twice (`y²`,
//!    `y⁴`), scaled by the Taylor coefficients (constant multiplies and
//!    bit-line shifts — shifts are free column re-addressing via VLCA
//!    bit slices), and combined into `t ≈ 1 − y²/2 + y⁴/24`.
//! 3. **Binarize.** The encoded bit is the inverse of `t`'s sign bit.
//!
//! The paper applies the three-term Taylor expansion to the raw dot
//! product (no range reduction), so this pipeline is accurate in the
//! small-angle regime the encoder's bandwidth σ is chosen for — the
//! same assumption the hardware makes.
//!
//! Everything is exact integer arithmetic, so the module carries a
//! bit-exact software mirror (`reference_encode`, test-only) that
//! tests compare against, plus an agreement check against the float
//! encoder.

use std::error::Error;
use std::fmt;

use dual_hdc::{first_non_finite, BitVec, HdMapper, HdcError, Hypervector};
use dual_isa::{IsaError, Runtime};

/// Width of the accumulator/operand fields in bits (two's complement).
const W: usize = 28;

/// Why [`PimEncoder::encode_on_pim`] produced no hypervector.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PimEncodeError {
    /// The feature vector was refused before any instruction ran: the
    /// wrong length, or a NaN or ±∞ feature.
    Features(HdcError),
    /// The runtime refused an allocation or an instruction.
    Runtime(IsaError),
}

impl fmt::Display for PimEncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Features(e) => write!(f, "features refused: {e}"),
            Self::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl Error for PimEncodeError {}

impl From<HdcError> for PimEncodeError {
    fn from(e: HdcError) -> Self {
        Self::Features(e)
    }
}

impl From<IsaError> for PimEncodeError {
    fn from(e: IsaError) -> Self {
        Self::Runtime(e)
    }
}

/// Fixed-point encoder state: the quantized base matrix plus scaling.
#[derive(Debug, Clone)]
pub struct PimEncoder {
    /// Quantized base vectors, row-major `D × m`, values in
    /// `[-2^(s_bits+2), 2^(s_bits+2)]` (±4σ of the unit Gaussian).
    base_q: Vec<i64>,
    dim: usize,
    n_features: usize,
    /// Feature/base quantization scale `S = 2^s_bits`.
    s_bits: u32,
    /// Angle scale exponent: `y_angle ≈ y_int / 2^a`.
    a: u32,
}

impl PimEncoder {
    /// Quantize `mapper`'s base matrix at scale `2^s_bits` (6 is
    /// plenty: ±1.6 % r.m.s. quantization error on unit Gaussians) for
    /// an effective kernel bandwidth of `sigma` — which is rounded to
    /// the nearest power-of-two-scaled value so all shifts stay exact.
    ///
    /// # Errors
    ///
    /// [`HdcError::InvalidParameter`] if `sigma` is not positive and
    /// finite or `s_bits` is not in `2..=8`.
    pub fn new(mapper: &HdMapper, s_bits: u32, sigma: f64) -> Result<Self, HdcError> {
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(HdcError::InvalidParameter {
                name: "sigma",
                reason: "must be positive and finite",
            });
        }
        if !(2..=8).contains(&s_bits) {
            return Err(HdcError::InvalidParameter {
                name: "s_bits",
                reason: "must be in 2..=8",
            });
        }
        let dim = dual_hdc::Encoder::dim(mapper);
        let m = dual_hdc::Encoder::n_features(mapper);
        let s = f64::from(1u32 << s_bits);
        let base_q: Vec<i64> = (0..dim)
            .map_while(|i| mapper.base_vector(i))
            .flatten()
            .map(|&b| (b * s).round().clamp(-4.0 * s, 4.0 * s) as i64)
            .collect();
        // y_int = Σ q(f)·q(B) ≈ y_real · S². Want y_angle = y_real/σ =
        // y_int/(S²σ); pick a = round(log2(S²σ)).
        let a = (s * s * sigma).log2().round().max(4.0) as u32;
        Ok(Self {
            base_q,
            dim,
            n_features: m,
            s_bits,
            a,
        })
    }

    /// The effective (power-of-two quantized) bandwidth.
    #[cfg(test)]
    fn effective_sigma(&self) -> f64 {
        (1u64 << self.a) as f64 / f64::from(1u32 << (2 * self.s_bits))
    }

    /// Quantize one feature vector at the encoder's scale.
    ///
    /// # Errors
    ///
    /// [`HdcError::FeatureLength`] on a feature-count mismatch and
    /// [`HdcError::NonFiniteFeature`] for a NaN or ±∞ feature, which
    /// has no quantized value (a cast would read NaN as 0 and ±∞ as
    /// the clamp bound).
    pub fn quantize_features(&self, features: &[f64]) -> Result<Vec<i64>, HdcError> {
        if features.len() != self.n_features {
            return Err(HdcError::FeatureLength {
                expected: self.n_features,
                got: features.len(),
            });
        }
        if let Some(index) = first_non_finite(features) {
            return Err(HdcError::NonFiniteFeature { index });
        }
        let s = f64::from(1u32 << self.s_bits);
        Ok(features
            .iter()
            .map(|&f| {
                (f * s)
                    .round()
                    .clamp(-(1 << (W - 10)) as f64, (1 << (W - 10)) as f64) as i64
            })
            .collect())
    }

    /// Fixed-point constants of the cosine stage: `(t_width, k24)`.
    fn cosine_constants(&self) -> (usize, u64) {
        // t is evaluated at width a + 14: the polynomial terms stay
        // ≤ ~2^(a+12) for |y_angle| ≤ 8.
        let t_width = (self.a as usize + 14).min(60);
        let k24 = (4096.0_f64 / 24.0).round() as u64; // 1/24 in Q12
        (t_width, k24)
    }

    /// Bit-exact software mirror of the in-memory pipeline (the test
    /// oracle). Returns the encoded hypervector.
    #[cfg(test)]
    fn reference_encode(&self, features: &[f64]) -> Result<Hypervector, HdcError> {
        let qf = self.quantize_features(features)?;
        let (t_width, k24) = self.cosine_constants();
        let a = self.a;
        let a = a as usize;
        let mask_of = |bits: usize| -> u64 {
            if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            }
        };
        // Width bookkeeping mirrors encode_on_pim exactly, truncation
        // by truncation, so the two paths are bit-identical.
        let q_bits_full = 2 * W - a;
        let q_small_bits = q_bits_full.min(30);
        let v0_bits = (2 * q_bits_full).min(60);
        let v1_bits = v0_bits - a.min(v0_bits - 1);
        let v1_small_bits = v1_bits.min(47);
        let v2_raw_bits = (v1_small_bits + 13).min(60);
        let v2_shift = (12 + a).min(v2_raw_bits - 1);
        let v2_bits = v2_raw_bits - v2_shift;
        let bits: BitVec = (0..self.dim)
            .map(|i| {
                let y: i64 = self.base_q[i * self.n_features..(i + 1) * self.n_features]
                    .iter()
                    .zip(&qf)
                    .map(|(&b, &f)| b * f)
                    .sum();
                // Wrap into W-bit two's complement like the columns do.
                let y_w = wrap(y, W);
                let sign = (y_w >> (W - 1)) & 1 == 1;
                let abs_y = (if sign { wrap(-y_w, W) } else { y_w }) as u64;
                let p = abs_y * abs_y; // ≤ 2^56, exact
                let u_full = p >> (a + 1);
                let u_t = u_full & mask_of((2 * W - (a + 1)).min(t_width));
                let q_t = (p >> a) & mask_of(q_small_bits);
                let v0 = (q_t * q_t) & mask_of(v0_bits);
                let v1 = (v0 >> a.min(v0_bits - 1)) & mask_of(v1_small_bits);
                let v2_raw = (v1 * k24) & mask_of(v2_raw_bits);
                let v2 = (v2_raw >> v2_shift) & mask_of(v2_bits.min(t_width));
                let mask = mask_of(t_width);
                let s1 = ((1u64 << a) + v2) & mask;
                let t = s1.wrapping_sub(u_t) & mask;
                let t_neg = (t >> (t_width - 1)) & 1 == 1;
                !t_neg
            })
            .collect();
        Ok(Hypervector::from_bitvec(bits))
    }

    /// Execute the encoding of one point through the PIM runtime. The
    /// result is bit-identical to the test-only `reference_encode`, and
    /// the runtime's statistics pick up the full §V-A cost: `m`
    /// multiply/accumulate rounds plus the Taylor stage.
    ///
    /// # Errors
    ///
    /// [`PimEncodeError::Features`] when [`PimEncoder::quantize_features`]
    /// refuses the point (nothing runs on the runtime), and
    /// [`PimEncodeError::Runtime`] for a runtime or allocation error.
    pub fn encode_on_pim(
        &self,
        rt: &mut Runtime,
        features: &[f64],
    ) -> Result<Hypervector, PimEncodeError> {
        let qf = self.quantize_features(features)?;
        let d = self.dim;
        let (t_width, k24) = self.cosine_constants();
        let a = self.a as usize;

        // ---- Block 1: dot product --------------------------------------
        let acc = rt.alloc(W, d)?;
        rt.broadcast(&acc, 0)?;
        let base_col = rt.alloc(W, d)?;
        let feat_col = rt.alloc(W, d)?;
        let prod = rt.alloc(W, d)?;
        let next = rt.alloc(W, d)?;
        #[expect(
            clippy::needless_range_loop,
            reason = "j indexes qf and strides base_q"
        )]
        for j in 0..self.n_features {
            // Base column for feature j (two's complement in W bits).
            let col: Vec<u64> = (0..d)
                .map(|i| wrap(self.base_q[i * self.n_features + j], W) as u64)
                .collect();
            rt.write_values(&base_col, &col)?;
            // Row-parallel broadcast of the quantized feature.
            rt.broadcast(&feat_col, wrap(qf[j], W) as u64)?;
            // Multiply-accumulate (wrapping two's complement is exact
            // for signed values within W bits).
            rt.mul(&base_col, &feat_col, &prod)?;
            rt.add(&acc, &prod, &next)?;
            rt.row_mv(&next, &acc)?;
        }

        // ---- Block 2: Taylor cosine -------------------------------------
        // |y| via sign-select.
        let sign = acc.slice_bits(W - 1, W);
        let zero = rt.alloc(W, d)?;
        rt.broadcast(&zero, 0)?;
        let neg = rt.alloc(W, d)?;
        rt.sub(&zero, &acc, &neg)?;
        let abs_y = rt.alloc(W, d)?;
        rt.select(&sign, &neg, &acc, &abs_y)?;
        // p = y² (exact: fits 2W = 56 bits).
        let p = rt.alloc(2 * W, d)?;
        rt.mul(&abs_y, &abs_y, &p)?;
        // u = p >> (a+1), q = p >> a — free bit-line re-addressing.
        let u = p.slice_bits(a + 1, 2 * W);
        let q = p.slice_bits(a, 2 * W);
        // v0 = q² at width min(2·|q|, 60); |q| = 2W − a.
        let q_bits = 2 * W - a;
        let v0_bits = (2 * q_bits).min(60);
        let q_small = rt.alloc(q_bits.min(30), d)?;
        // Copy the low bits of q into a narrow field so the square fits.
        let q_view = q.slice_bits(0, q_bits.min(30));
        rt.row_mv(&q_view, &q_small)?;
        let v0 = rt.alloc(v0_bits, d)?;
        rt.mul(&q_small, &q_small, &v0)?;
        let v1 = v0.slice_bits(a.min(v0_bits - 1), v0_bits);
        // v2 = (v1 × k24) >> (12 + a).
        let k_col = rt.alloc(13, d)?;
        rt.broadcast(&k_col, k24)?;
        let v1_bits = v0_bits - a.min(v0_bits - 1);
        let v1_small = rt.alloc(v1_bits.min(47), d)?;
        rt.row_mv(&v1.slice_bits(0, v1_bits.min(47)), &v1_small)?;
        let v2_raw = rt.alloc((v1_bits.min(47) + 13).min(60), d)?;
        rt.mul(&v1_small, &k_col, &v2_raw)?;
        let v2 = v2_raw.slice_bits((12 + a).min(v2_raw.bits() - 1), v2_raw.bits());
        // t = (1 << a) + v2 − u at t_width.
        let one_a = rt.alloc(t_width, d)?;
        rt.broadcast(&one_a, 1u64 << a)?;
        let v2_w = rt.alloc(t_width, d)?;
        let zero_t = rt.alloc(t_width, d)?;
        rt.broadcast(&zero_t, 0)?;
        let v2_cap = v2.slice_bits(0, v2.bits().min(t_width));
        let v2_tmp = rt.alloc(v2.bits().min(t_width), d)?;
        rt.row_mv(&v2_cap, &v2_tmp)?;
        rt.add(&v2_tmp, &zero_t, &v2_w)?;
        let s1 = rt.alloc(t_width, d)?;
        rt.add(&one_a, &v2_w, &s1)?;
        let u_cap = u.slice_bits(0, u.bits().min(t_width));
        let u_tmp = rt.alloc(u.bits().min(t_width), d)?;
        rt.row_mv(&u_cap, &u_tmp)?;
        let u_w = rt.alloc(t_width, d)?;
        rt.add(&u_tmp, &zero_t, &u_w)?;
        let t = rt.alloc(t_width, d)?;
        rt.sub(&s1, &u_w, &t)?;
        // Encoded bit = !sign(t).
        let t_sign = rt.read_values(&t.slice_bits(t_width - 1, t_width))?;
        let bits: BitVec = t_sign.iter().map(|&s| s == 0).collect();
        // Free the stage buffers (the paper's reserved-column reuse).
        for v in [
            &acc, &base_col, &feat_col, &prod, &next, &zero, &neg, &abs_y, &p, &q_small, &v0,
            &k_col, &v1_small, &v2_raw, &one_a, &v2_w, &zero_t, &v2_tmp, &s1, &u_tmp, &u_w, &t,
        ] {
            rt.free(v)?;
        }
        Ok(Hypervector::from_bitvec(bits))
    }
}

/// Wrap a signed value into `bits`-bit two's complement (as i64 whose
/// low `bits` are the representation).
fn wrap(v: i64, bits: usize) -> i64 {
    let mask = (1i64 << bits) - 1;
    v & mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use dual_hdc::{CosineMode, Encoder};

    fn mapper() -> HdMapper {
        HdMapper::builder(96, 6)
            .seed(5)
            .sigma(4.0)
            .cosine_mode(CosineMode::Taylor3Raw)
            .build()
            .expect("valid")
    }

    #[test]
    fn pim_encoding_matches_reference_bit_for_bit() {
        let m = mapper();
        let enc = PimEncoder::new(&m, 6, 4.0).expect("valid");
        let mut rt = Runtime::with_pool(96, 256, 64).expect("valid");
        for feats in [
            vec![0.5, -1.0, 2.0, 0.0, 1.5, -0.3],
            vec![3.0, 3.0, -3.0, 1.0, 0.2, 0.9],
            vec![0.0; 6],
        ] {
            let on_pim = enc.encode_on_pim(&mut rt, &feats).expect("runs");
            let reference = enc.reference_encode(&feats).expect("finite");
            assert_eq!(on_pim, reference, "feats {feats:?}");
        }
        // The encoder's instruction stream passes static verification,
        // including the exact cost cross-check.
        use dual_isa::verify::RuntimeVerify;
        let report = rt.verify_trace();
        assert!(report.is_clean(), "diagnostics: {:?}", report.diagnostics);
    }

    #[test]
    fn pim_encoding_agrees_with_float_encoder_in_small_angle_regime() {
        let m = mapper();
        let enc = PimEncoder::new(&m, 6, 4.0).expect("valid");
        let mut rt = Runtime::with_pool(96, 256, 64).expect("valid");
        let feats = vec![0.4, -0.2, 0.8, 0.1, -0.5, 0.3];
        let on_pim = enc.encode_on_pim(&mut rt, &feats).expect("runs");
        // Float encoder with the *effective* (power-of-two) bandwidth.
        let float = HdMapper::builder(96, 6)
            .seed(5)
            .sigma(enc.effective_sigma())
            .cosine_mode(CosineMode::Taylor3Raw)
            .build()
            .expect("valid");
        let sw = float.encode(&feats).expect("encodes");
        let agreement = 1.0 - on_pim.normalized_hamming(&sw);
        assert!(agreement > 0.9, "agreement {agreement}");
    }

    #[test]
    fn pim_encoding_costs_m_multiplies() {
        let m = mapper();
        let enc = PimEncoder::new(&m, 6, 4.0).expect("valid");
        let mut rt = Runtime::with_pool(96, 256, 64).expect("valid");
        let _ = enc
            .encode_on_pim(&mut rt, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .expect("runs");
        // 6 dot-product multiplies plus the Taylor-stage squares.
        let muls = rt.stats().count(dual_pim::Op::Mul { bits: W as u32 });
        assert!(muls >= 6, "mul count {muls}");
    }

    #[test]
    fn effective_sigma_is_power_of_two_scaled() {
        let m = mapper();
        let enc = PimEncoder::new(&m, 6, 4.0).expect("valid");
        let s = enc.effective_sigma();
        assert!((2.0..8.01).contains(&s), "effective sigma {s}");
    }

    #[test]
    fn new_refuses_bad_sigma_and_s_bits() {
        let m = mapper();
        for sigma in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                PimEncoder::new(&m, 6, sigma),
                Err(HdcError::InvalidParameter { name: "sigma", .. })
            ));
        }
        for s_bits in [0, 1, 9] {
            assert!(matches!(
                PimEncoder::new(&m, s_bits, 4.0),
                Err(HdcError::InvalidParameter { name: "s_bits", .. })
            ));
        }
    }

    #[test]
    fn quantize_features_refuses_wrong_length_and_non_finite() {
        let enc = PimEncoder::new(&mapper(), 6, 4.0).expect("valid");
        assert_eq!(
            enc.quantize_features(&[0.5; 5]),
            Err(HdcError::FeatureLength {
                expected: 6,
                got: 5
            })
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut feats = vec![0.5; 6];
            feats[3] = bad;
            assert_eq!(
                enc.quantize_features(&feats),
                Err(HdcError::NonFiniteFeature { index: 3 })
            );
        }
        assert_eq!(enc.quantize_features(&[0.5; 6]), Ok(vec![32; 6]));
    }

    #[test]
    fn encode_on_pim_refuses_bad_features_before_running() {
        let enc = PimEncoder::new(&mapper(), 6, 4.0).expect("valid");
        let mut rt = Runtime::with_pool(96, 256, 64).expect("valid");
        assert_eq!(
            enc.encode_on_pim(&mut rt, &[0.5; 7]),
            Err(PimEncodeError::Features(HdcError::FeatureLength {
                expected: 6,
                got: 7
            }))
        );
        assert_eq!(
            enc.encode_on_pim(&mut rt, &[0.5, f64::NAN, 0.5, 0.5, 0.5, 0.5]),
            Err(PimEncodeError::Features(HdcError::NonFiniteFeature {
                index: 1
            }))
        );
        assert!(
            rt.trace().is_empty(),
            "a refused point issues no instruction"
        );
    }
}
