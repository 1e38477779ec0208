//! The projection kernel shared by both encoders: `B · F` for a tile
//! of points at a time, and the sign bits taken from it.
//!
//! [`HdMapper`](crate::HdMapper) and [`LshEncoder`](crate::LshEncoder)
//! differ only in what they do with a dot product (`cos(·/σ) > 0`
//! against `· > 0`), so the loop that forms it lives here once.
//!
//! **Bit-identity.** Every `(point, base row)` dot product is one
//! accumulator, started at `-0.0` (what `f64::sum` starts from) and
//! advanced `j = 0, 1, …` by a separate multiply and add, never a
//! fused `mul_add`. That is the single-point summation to the last
//! bit. A tile only places `P` such accumulators side by side so one
//! pass over a base row serves `P` points, and no accumulator reads
//! another lane: which tile or chunk a point landed in never enters
//! any value.
//!
//! **The `f32` filter.** Only one bit of each dot product survives, so
//! at wide shapes, on targets with a fused multiply-add instruction,
//! [`sign_batch`] forms the tile's dots in `f32` lanes (fused
//! multiply-adds, twice the lanes per register) and keeps a bit only
//! where a proven error bound shows the `f64` dot above would give it
//! too ([`Sign::certain`]). Every other `(point, row)` pair is
//! summed again in the exact order above. The bits are the `f64`
//! kernel's either way; only the time differs.

use crate::{BitVec, HdcError, Hypervector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};

/// Points per tile. Private and measured, not a knob: one 64 × 784
/// batch at `D = 4000` (`encode_batch_64x784_d4000` in the `kernels`
/// bench, 2-vCPU 2.1 GHz Xeon, x86-64-v3 code, three runs each) takes,
/// by base rows per pass × points per tile:
///
/// | rows \ points | 8 | 16 | 24 | 32 |
/// |---|---|---|---|---|
/// | 1 | – | 40–42 ms | 39–55 | 27–40 |
/// | 2 | 39–47 | **27–29** | 27–33 | 33–41 |
/// | 3 | 30–37 | 27–31 | 41–57 | – |
///
/// against 54 ms for the one-row kernel on the portable x86-64 target.
/// Two rows × sixteen points keep 32 accumulators in eight 4-lane
/// registers, enough independent add chains to cover the add latency,
/// with the tightest spread and the cheapest tile for a short batch.
/// (An x86-64-v4 build runs 2 × 32 at 20–23 ms, but most client CPUs
/// lack AVX-512.)
const TILE: usize = 16;

/// Points per `f32` tile, measured the same way (the `f32` kernel alone,
/// one 64-point batch at `D = 4000 × 784`, fused multiply-add, three
/// runs each; a 24-point tile pays for 72 lanes):
///
/// | rows \ points | 8 | 16 | 24 | 32 | 64 |
/// |---|---|---|---|---|---|
/// | 1 | – | 19–20 ms | – | 14–17 | 24–27 |
/// | 2 | 22 | 10.5–12 | 10–13 | **8–10** | – |
/// | 3 | 20–22 | 10.5–12 | 9–10 | – | – |
///
/// Two rows × 32 points keep 64 accumulators in eight 8-lane registers,
/// the `f64` tile's register budget. AVX2 does at most 16 `f32` fused
/// multiply-adds per cycle, so at 2.1 GHz one 32-point tile
/// (4 000 × 784 × 32) needs at least 3.0 ms; the kernel takes ≈ 5 ms
/// (≈ 60 % of that peak, streaming the 25 MB base at ≈ 5 GB/s), and the
/// whole filtered batch 10.5–11 ms against 20–25 ms for the `f64` one.
/// Separate `f32` multiplies and adds ran the kernel at 1.69× the `f64`
/// one against 2.33× fused. The fused form is a libm `fmaf` call on the
/// portable x86-64 target, where the filtered batch took ≈ 0.73 s (the
/// `f64` kernel there: 57 ms), so [`sign_batch`] filters only where the
/// target has the instruction.
const TILE32: usize = 32;

/// Features from which [`sign_batch`] runs the `f32` filter. Measured on
/// one 64-point batch at `D = 4000` (x86-64-v3, features in `[−4, 4)`,
/// σ = 6, both kernels with the lane-wise sign, medians of 41
/// alternations), filtered against `f64`: 16 features 0.58 ms against
/// 0.45, 24 features 0.66 against 0.59, 32 features 0.72 against 0.72
/// (break-even), 48 features 0.84 against 0.98, 64 features 0.98
/// against 1.26.
const F32_MIN_FEATURES: usize = 32;

/// A row-major `D × n_features` base matrix with each row's Euclidean
/// norm, the half of the filter's bound that is fixed at build.
#[derive(Debug, Clone)]
pub(crate) struct Base {
    matrix: Vec<f64>,
    norms: Vec<f64>,
    n_features: usize,
}

impl Base {
    /// Sample `dim × n_features` unit normals from `seed`, row by row,
    /// taking each row's norm while it is still in cache.
    pub(crate) fn gaussian(dim: usize, n_features: usize, seed: u64) -> Result<Self, HdcError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let normal = Normal::new(0.0, 1.0).map_err(|_| HdcError::InvalidParameter {
            name: "normal",
            reason: "unit normal distribution rejected",
        })?;
        let mut matrix = vec![0.0; dim * n_features];
        let norms = matrix
            .chunks_exact_mut(n_features)
            .map(|row| {
                row.fill_with(|| normal.sample(&mut rng));
                norm(row)
            })
            .collect();
        Ok(Self {
            matrix,
            norms,
            n_features,
        })
    }

    /// A base over a given matrix, for the kernel's own tests.
    #[cfg(test)]
    fn from_matrix(matrix: Vec<f64>, n_features: usize) -> Self {
        let norms = matrix.chunks_exact(n_features).map(norm).collect();
        Self {
            matrix,
            norms,
            n_features,
        }
    }

    pub(crate) fn dim(&self) -> usize {
        self.norms.len()
    }

    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    pub(crate) fn matrix(&self) -> &[f64] {
        &self.matrix
    }
}

/// `‖v‖`, or `+∞` when some nonzero `|vⱼ| < 2⁻⁶⁰`. An infinite (or NaN)
/// norm makes the filter's interval unbounded, so such a row or point
/// always takes the `f64` path; every nonzero value the `f32` kernel
/// sees is therefore a normal `f32`, and so is every nonzero product of
/// two of them (≥ 2⁻¹²⁰ > 2⁻¹²⁶).
///
/// The squares are summed in eight lanes: the bound holds for any
/// summation order, and one dependent add chain over a 784-feature row
/// put ≈ 10 ms on the build of a `D = 4000` mapper.
fn norm(v: &[f64]) -> f64 {
    const TINY: f64 = 1.0 / (1u64 << 60) as f64;
    let (chunks, rest) = v.as_chunks::<8>();
    let mut last = [0.0; 8];
    last[..rest.len()].copy_from_slice(rest);
    let (mut squares, mut tiny) = ([0.0; 8], false);
    for chunk in chunks.iter().chain([&last]) {
        for (s, &x) in squares.iter_mut().zip(chunk) {
            *s += x * x;
            tiny |= (x.abs() < TINY) & (x != 0.0);
        }
    }
    if tiny {
        f64::INFINITY
    } else {
        squares.iter().sum::<f64>().sqrt()
    }
}

/// The filter's half-width per unit of `‖bᵢ‖·‖f‖` at `n` features:
/// `(γ₃₂(n + 2) + γ₆₄(n))·(1 + 2⁻²⁰)`, with `γₖ = k·u/(1 − k·u)`. The
/// whole half-width is `E = bound(n)·‖bᵢ‖·‖f‖ + n·2⁻¹⁴⁹`.
///
/// Narrowing `bⱼ` and `fⱼ` to `f32` and the `n` fused multiply-adds of
/// the `f32` sum move the `f32` dot off the exact `Σ bⱼfⱼ` by at most
/// `γ₃₂(n + 2)·Σ|bⱼfⱼ|` (two narrowings fold into the `n` roundings of
/// the sum) plus [`UNDERFLOW`] per add, and the `f64` sum moves by at
/// most `γ₆₄(n)·Σ|bⱼfⱼ|` (its products never underflow: see [`norm`]).
/// Cauchy–Schwarz bounds `Σ|bⱼfⱼ|` by `‖b‖·‖f‖`. The last factor rounds
/// upward: it covers the roundings of both norms, of the bound itself
/// and of `d ± E`, which together come to less than
/// `2(n + 4)·2⁻⁵³ + 2⁻²⁹ < 2⁻²⁰` relative for any `n` the `f32` sum can
/// bound. Past that (`(n + 2)·2⁻²⁴ ≥ 1`) the bound is infinite and every
/// bit takes the `f64` path.
fn bound(n: usize) -> f64 {
    let gamma = |k: f64, u: f64| k * u / (1.0 - k * u);
    let (n, u32, u64) = (n as f64, f64::from(f32::EPSILON) / 2.0, f64::EPSILON / 2.0);
    if (n + 2.0) * u32 >= 1.0 {
        return f64::INFINITY;
    }
    (gamma(n + 2.0, u32) + gamma(n, u64)) * (1.0 + 1.0 / f64::from(1u32 << 20))
}

/// 2⁻¹⁴⁹, the least subnormal `f32`. A fused multiply-add whose result
/// underflows is off by up to half of it, which no relative bound
/// covers; `n` of them stay below `n · 2⁻¹⁴⁹`.
const UNDERFLOW: f64 = f32::from_bits(1) as f64;

/// What an encoder keeps of a dot product.
///
/// The kernels take a row's `P` bits at once through the lane forms
/// [`Sign::lanes`] and [`Sign::certain`]: one pass of plain compares
/// and bit operations over every lane, which vectorises, and then
/// [`Sign::positive`] only on the lanes that pass left undecided. A
/// fallback inside the lane loop (a branch to libm per lane) stops it
/// vectorising, or worse, gets if-converted so every lane pays it.
pub(crate) trait Sign: Copy {
    /// The bit of one `f64` dot product: the scalar oracle, and the
    /// fallback for the lanes [`Sign::class`] leaves undecided.
    fn positive(self, dot: f64) -> bool;

    /// `dot`'s class and whether it is decided, without a branch. A
    /// decided class's lowest bit is [`Sign::positive`]`(dot)`, and two
    /// decided dots of equal class give that bit to every `f64` between
    /// them. NaN and ±∞ are never decided: an `f32` dot that overflowed
    /// or met a NaN or ±∞ bounds nothing (`[−∞, −∞]` from a lane that
    /// went to −∞ may hold a positive `f64` dot).
    fn class(self, dot: f64) -> (u64, bool);

    /// Whether [`Sign::certain`] can ever decide. `false` sends every
    /// batch to the exact kernel.
    fn filters(self) -> bool;

    /// Every lane's bit of `dots`, and the mask of lanes (bit `p` for
    /// lane `p`) left to [`Sign::positive`]; an undecided lane's bit
    /// is 0.
    fn lanes<const P: usize>(self, dots: &[f64; P]) -> ([u64; P], u64) {
        const { assert!(P <= 64) };
        let (mut bits, mut unsure) = ([0; P], 0);
        for (p, (bit, &dot)) in bits.iter_mut().zip(dots).enumerate() {
            let (class, decided) = self.class(dot);
            *bit = class & u64::from(decided) & 1;
            unsure |= u64::from(!decided) << p;
        }
        (bits, unsure)
    }

    /// [`Sign::lanes`] over intervals: lane `p`'s bit where
    /// [`Sign::positive`] gives it to every `f64` in `[lo[p], hi[p]]`,
    /// and the mask of lanes where it may not.
    fn certain<const P: usize>(self, lo: &[f64; P], hi: &[f64; P]) -> ([u64; P], u64) {
        const { assert!(P <= 64) };
        let (mut bits, mut unsure) = ([0; P], 0);
        for (p, ((bit, &lo), &hi)) in bits.iter_mut().zip(lo).zip(hi).enumerate() {
            let ((class, lo_in), (class_hi, hi_in)) = (self.class(lo), self.class(hi));
            let decided = lo_in & hi_in & (class == class_hi);
            *bit = class & u64::from(decided) & 1;
            unsure |= u64::from(!decided) << p;
        }
        (bits, unsure)
    }
}

/// OR one row's lane bits into its 64-row `block` at `shift`, then the
/// bit `exact(p)` of each lane `p` in `unsure`, in its own pass.
fn settle<const P: usize>(
    block: &mut [u64; P],
    shift: usize,
    (bits, mut unsure): ([u64; P], u64),
    mut exact: impl FnMut(usize) -> bool,
) {
    for (word, bit) in block.iter_mut().zip(bits) {
        *word |= bit << shift;
    }
    while unsure != 0 {
        let p = unsure.trailing_zeros() as usize;
        block[p] |= u64::from(exact(p)) << shift;
        unsure &= unsure - 1;
    }
}

/// The `P` hypervectors of a tile's 64-row blocks.
fn unblock<const P: usize>(blocks: &[[u64; P]], dim: usize) -> [Hypervector; P] {
    std::array::from_fn(|p| {
        let words = blocks.iter().map(|block| block[p]).collect();
        Hypervector::from_bitvec(BitVec::from_words(words, dim))
    })
}

/// An accumulator lane of [`dots`]: `f64` for the exact kernel, `f32`
/// for the filter.
trait Lane: Copy {
    fn narrow(b: f64) -> Self;
    /// `acc + b · x`.
    fn madd(self, b: Self, x: Self) -> Self;
}

impl Lane for f64 {
    fn narrow(b: f64) -> Self {
        b
    }

    fn madd(self, b: Self, x: Self) -> Self {
        self + b * x
    }
}

impl Lane for f32 {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "narrowing is the filter's point; the bound covers it"
    )]
    fn narrow(b: f64) -> Self {
        b as f32
    }

    fn madd(self, b: Self, x: Self) -> Self {
        b.mul_add(x, self)
    }
}

/// Reject a feature vector that is not `n_features` long, or that
/// carries a NaN or ±∞.
pub(crate) fn check_features(features: &[f64], n_features: usize) -> Result<(), HdcError> {
    if features.len() != n_features {
        return Err(HdcError::FeatureLength {
            expected: n_features,
            got: features.len(),
        });
    }
    match first_non_finite(features) {
        Some(index) => Err(HdcError::NonFiniteFeature { index }),
        None => Ok(()),
    }
}

/// Index of the first NaN or ±∞ in `features`, if any — the check every
/// encoder entry point and `dual_stream`'s push make. It counts before
/// it searches: a count has no early exit, so it vectorises (≈ 0.1 µs for
/// a cached 784-feature point on x86-64-v3, against ≈ 0.4 µs for a
/// search that branches on every feature).
#[must_use]
pub fn first_non_finite(features: &[f64]) -> Option<usize> {
    if features.iter().filter(|x| !x.is_finite()).count() == 0 {
        None
    } else {
        features.iter().position(|x| !x.is_finite())
    }
}

/// For every row of the row-major `D × n_features` `matrix`, in row
/// order, hand `sink` the row index and that row's dot product with
/// each of the `P` points of `tile`. `tile` is feature-major
/// (`n_features × P`: feature `j` of point `p` at `j * P + p`), which
/// for `P = 1` is the feature vector itself.
pub(crate) fn tile_dots<const P: usize>(
    matrix: &[f64],
    n_features: usize,
    tile: &[f64],
    sink: impl FnMut(usize, &[f64; P]),
) {
    dots::<P, f64>(matrix, n_features, tile, sink);
}

/// [`tile_dots`] in lanes of `L`, each base value narrowed to `L` in a
/// register as it is loaded, so no `f32` copy of the matrix exists.
///
/// Rows go two at a time: one load of feature `j`'s `P` lanes feeds
/// both rows' accumulators, so a pair keeps `2P` independent add
/// chains in flight. An odd last row runs alone.
///
/// The pair's accumulators are two arrays zipped side by side. One
/// `[[f64; P]; 2]` destructured into its rows computes the same bits,
/// but LLVM scalarised it and the 64 × 784 batch took 110 ms.
fn dots<const P: usize, L: Lane>(
    matrix: &[f64],
    n_features: usize,
    tile: &[L],
    mut sink: impl FnMut(usize, &[L; P]),
) {
    debug_assert_eq!(tile.len(), n_features * P);
    let start = L::narrow(-0.0);
    let (lanes, _) = tile.as_chunks::<P>();
    let mut pairs = matrix.chunks_exact(2 * n_features);
    let mut i = 0;
    for pair in pairs.by_ref() {
        let (first, second) = pair.split_at(n_features);
        let (mut a0, mut a1) = ([start; P], [start; P]);
        for ((&b0, &b1), x) in first.iter().zip(second).zip(lanes) {
            let (b0, b1) = (L::narrow(b0), L::narrow(b1));
            for ((a0, a1), &x) in a0.iter_mut().zip(&mut a1).zip(x) {
                *a0 = a0.madd(b0, x);
                *a1 = a1.madd(b1, x);
            }
        }
        sink(i, &a0);
        sink(i + 1, &a1);
        i += 2;
    }
    let last = pairs.remainder();
    if !last.is_empty() {
        let mut acc = [start; P];
        for (&b, x) in last.iter().zip(lanes) {
            let b = L::narrow(b);
            for (a, &x) in acc.iter_mut().zip(x) {
                *a = a.madd(b, x);
            }
        }
        sink(i, &acc);
    }
}

/// Bit `i` of point `p` is `positive(matrix[i] · point p)`, taken a
/// row's `P` lanes at a time by [`Sign::lanes`] and gathered per 64
/// rows as `[u64; P]`. Lanes past the tile's points hold zeros and
/// their bits are dropped by the caller.
fn sign_tile<const P: usize>(base: &Base, tile: &[f64], sign: impl Sign) -> [Hypervector; P] {
    let dim = base.dim();
    let mut blocks = vec![[0u64; P]; dim.div_ceil(64)];
    tile_dots::<P>(&base.matrix, base.n_features, tile, |i, dots| {
        settle(&mut blocks[i / 64], i % 64, sign.lanes(dots), |p| {
            sign.positive(dots[p])
        });
    });
    unblock(&blocks, dim)
}

/// [`sign_tile`] for `points` through the `f32` filter: `tile` holds
/// them narrowed, feature-major. Each `(point, row)` pair's `f32` dot
/// `d` stands for the interval `d ± E`, which holds the `f64` dot
/// when both ends are finite (see [`bound`]); where [`Sign::certain`]
/// cannot name the bit of the whole interval, the pair's `f64` dot is
/// summed again in the exact order and [`Sign::positive`] decides.
fn filter_tile<const P: usize>(
    base: &Base,
    points: &[Vec<f64>],
    tile: &[f32],
    sign: impl Sign,
) -> [Hypervector; P] {
    let (dim, n) = (base.dim(), base.n_features);
    let c = bound(n);
    let eta = n as f64 * UNDERFLOW;
    let scale: [f64; P] = std::array::from_fn(|p| points.get(p).map_or(0.0, |f| c * norm(f)));
    let live = (0..points.len()).fold(0u64, |mask, p| mask | 1 << p);
    let mut blocks = vec![[0u64; P]; dim.div_ceil(64)];
    dots::<P, f32>(&base.matrix, n, tile, |i, dots| {
        let norm = base.norms[i];
        let (mut lo, mut hi) = ([0.0; P], [0.0; P]);
        for (((lo, hi), &dot), &scale) in lo.iter_mut().zip(&mut hi).zip(dots).zip(&scale) {
            let (d, e) = (f64::from(dot), scale * norm + eta);
            (*lo, *hi) = (d - e, d + e);
        }
        let (bits, unsure) = sign.certain(&lo, &hi);
        let row = &base.matrix[i * n..][..n];
        settle(&mut blocks[i / 64], i % 64, (bits, unsure & live), |p| {
            let exact = row
                .iter()
                .zip(&points[p])
                .fold(-0.0, |acc, (b, f)| acc + b * f);
            sign.positive(exact)
        });
    });
    unblock(&blocks, dim)
}

/// Encode one point: the `P = 1` tile.
pub(crate) fn sign_one(
    base: &Base,
    features: &[f64],
    sign: impl Sign,
) -> Result<Hypervector, HdcError> {
    check_features(features, base.n_features)?;
    let [hv] = sign_tile::<1>(base, features, sign);
    dual_obs::Obs::global().add(dual_obs::Key::HdcEncoded, 1);
    Ok(hv)
}

/// Encode `rows` a tile at a time, each base row loaded once per tile
/// instead of once per point. Every row is checked before any work,
/// and `hdc.encoded` moves by `rows.len()` once, on success.
///
/// From [`F32_MIN_FEATURES`] up, on a target with a fused multiply-add
/// instruction, and where the encoder's sign test can bound an
/// interval, tiles go through [`filter_tile`]; otherwise through the
/// exact [`sign_tile`].
pub(crate) fn sign_batch(
    base: &Base,
    rows: &[Vec<f64>],
    sign: impl Sign,
) -> Result<Vec<Hypervector>, HdcError> {
    for row in rows {
        check_features(row, base.n_features)?;
    }
    let out =
        if base.n_features >= F32_MIN_FEATURES && cfg!(target_feature = "fma") && sign.filters() {
            filter_batch(base, rows, sign)
        } else {
            tiled::<TILE, f64>(base, rows, sign, |_, tile| sign_tile(base, tile, sign))
        };
    dual_obs::Obs::global().add(dual_obs::Key::HdcEncoded, rows.len() as u64);
    Ok(out)
}

/// `rows` a tile at a time through [`filter_tile`].
fn filter_batch(base: &Base, rows: &[Vec<f64>], sign: impl Sign) -> Vec<Hypervector> {
    tiled::<TILE32, f32>(base, rows, sign, |points, tile| {
        filter_tile(base, points, tile, sign)
    })
}

/// Cut `rows` into tiles of `P` points, copy each feature-major into
/// lanes of `L` (a short tile keeps zeros in its unused lanes) and let
/// `signs` encode it.
///
/// A tile costs the same whatever it holds, so only a lone straggler
/// goes on its own, through the `P = 1` tile. At `D = 4000 × 784` one
/// point alone takes 1.8–1.9 ms; two take 3.6–4.2 ms alone or in an
/// `f32` tile, whose 32 points take 4.9–5.8 ms (a 16-point `f64` tile:
/// 5.3–7.5 ms).
fn tiled<const P: usize, L: Lane>(
    base: &Base,
    rows: &[Vec<f64>],
    sign: impl Sign,
    signs: impl Fn(&[Vec<f64>], &[L]) -> [Hypervector; P],
) -> Vec<Hypervector> {
    let mut out = Vec::with_capacity(rows.len());
    let mut tile = vec![L::narrow(0.0); base.n_features * P];
    for points in rows.chunks(P) {
        if let [point] = points {
            out.extend(sign_tile::<1>(base, point, sign));
            continue;
        }
        for (j, lanes) in tile.chunks_exact_mut(P).enumerate() {
            for (p, lane) in lanes.iter_mut().enumerate() {
                *lane = L::narrow(points.get(p).map_or(0.0, |point| point[j]));
            }
        }
        out.extend(signs(points, &tile).into_iter().take(points.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{eval_cosine, CosineSign};
    use crate::lsh::PlaneSign;
    use crate::{CosineMode, Encoder, HdMapper, LshEncoder};
    use proptest::prelude::*;

    const MODES: [CosineMode; 2] = [CosineMode::Exact, CosineMode::Taylor3Raw];

    /// The per-point loop this module replaced (`f64::sum` over the
    /// products of one base row), kept as the oracle.
    fn reference(
        matrix: &[f64],
        n_features: usize,
        point: &[f64],
        positive: impl Fn(f64) -> bool,
    ) -> Hypervector {
        let bits: BitVec = matrix
            .chunks_exact(n_features)
            .map(|row| positive(row.iter().zip(point).map(|(b, f)| b * f).sum()))
            .collect();
        Hypervector::from_bitvec(bits)
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `n` values in `[-1, 1)`.
    fn uniform(n: usize, state: &mut u64) -> Vec<f64> {
        (0..n)
            .map(|_| (splitmix(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
            .collect()
    }

    /// `n` points of `n_features`: mostly values in `[-4, 4)`, with
    /// −0.0 and subnormals mixed in so roughly one point in three
    /// carries a special somewhere. (NaN and ±∞ never reach a kernel:
    /// [`check_features`] refuses them.)
    fn points(n: usize, n_features: usize, seed: u64) -> Vec<Vec<f64>> {
        const SPECIAL: [f64; 3] = [-0.0, 5e-324, -2.2e-308];
        let mut state = seed;
        (0..n)
            .map(|_| {
                let mut row: Vec<f64> = (0..n_features)
                    .map(|_| (splitmix(&mut state) >> 11) as f64 / (1u64 << 50) as f64 - 4.0)
                    .collect();
                let pick = splitmix(&mut state);
                if pick.is_multiple_of(3) {
                    row[(pick >> 8) as usize % n_features] = SPECIAL[(pick >> 40) as usize % 3];
                }
                row
            })
            .collect()
    }

    fn matrix_of(mapper: &HdMapper) -> Vec<f64> {
        (0..mapper.dim())
            .flat_map(|i| mapper.base_vector(i).unwrap().to_vec())
            .collect()
    }

    /// Batch sizes straddling the tile width, its multiples and the
    /// lone-straggler cut-over.
    const SIZES: [usize; 13] = [0, 1, 2, 7, 8, 9, 15, 16, 17, 18, 63, 64, 65];

    /// `encode_batch(&rows[..n]) == map(encode)` for every size in
    /// [`SIZES`], on features {1, 2, 16, 784} × D {1, 63, 64, 65, 1000}.
    /// Where `matrix` can reach the encoder's base, each single encode
    /// is also held against [`reference`] under `positive`. One test per
    /// encoder configuration so they run on separate test threads.
    fn grid<E: Encoder>(
        name: &str,
        build: impl Fn(usize, usize) -> E,
        matrix: impl Fn(&E) -> Option<Vec<f64>>,
        positive: impl Fn(f64) -> bool + Copy,
    ) {
        for n_features in [1usize, 2, 16, 784] {
            for dim in [1usize, 63, 64, 65, 1000] {
                let rows = points(65, n_features, (n_features * 4099 + dim) as u64);
                let encoder = build(dim, n_features);
                let single: Vec<Hypervector> =
                    rows.iter().map(|r| encoder.encode(r).unwrap()).collect();
                if let Some(matrix) = matrix(&encoder) {
                    for (row, hv) in rows.iter().zip(&single) {
                        let want = reference(&matrix, n_features, row, positive);
                        assert_eq!(hv, &want, "{name} m={n_features} D={dim}");
                    }
                }
                for n in SIZES {
                    assert_eq!(
                        encoder.encode_batch(&rows[..n]).unwrap(),
                        single[..n],
                        "{name} m={n_features} D={dim} n={n}"
                    );
                }
            }
        }
    }

    fn mapper_grid(mode: CosineMode) {
        grid(
            &format!("{mode:?}"),
            |dim, n_features| {
                HdMapper::builder(dim, n_features)
                    .seed(11)
                    .sigma(3.0)
                    .cosine_mode(mode)
                    .build()
                    .unwrap()
            },
            |mapper| Some(matrix_of(mapper)),
            |dot| eval_cosine(dot * (1.0 / 3.0), mode) > 0.0,
        );
    }

    #[test]
    fn grid_exact_cosine() {
        mapper_grid(CosineMode::Exact);
    }

    #[test]
    fn grid_taylor3_raw() {
        mapper_grid(CosineMode::Taylor3Raw);
    }

    #[test]
    fn angles_past_the_parity_range_match_the_sum_loop() {
        // σ = 10⁻⁷ scales every dot product above 0.105 in magnitude
        // past 2²⁰, where the mapper's sign test defers to libm.
        let (sigma, n_features) = (1e-7, 16);
        let mapper = HdMapper::builder(130, n_features)
            .seed(11)
            .sigma(sigma)
            .build()
            .unwrap();
        let matrix = matrix_of(&mapper);
        let rows = points(33, n_features, 5);
        let batch = mapper.encode_batch(&rows).unwrap();
        for (row, hv) in rows.iter().zip(&batch) {
            let want = reference(&matrix, n_features, row, |dot| {
                eval_cosine(dot * (1.0 / sigma), CosineMode::Exact) > 0.0
            });
            assert_eq!(hv, &want);
            assert_eq!(mapper.encode(row).unwrap(), want);
        }
    }

    #[test]
    fn grid_lsh() {
        // The planes are private; `lsh_sign_test_matches_the_sum_loop`
        // runs the oracle one level down instead.
        grid(
            "lsh",
            |dim, n_features| LshEncoder::new(dim, n_features, 11).unwrap(),
            |_| None,
            |dot| dot > 0.0,
        );
    }

    #[test]
    fn lsh_sign_test_matches_the_sum_loop() {
        // The kernel takes the matrix directly, so the oracle does not
        // need `LshEncoder`'s private planes.
        let n_features = 16;
        let base = Base::from_matrix(uniform(65 * n_features, &mut 5), n_features);
        let rows = points(65, n_features, 77);
        let batch = sign_batch(&base, &rows, PlaneSign).unwrap();
        for (row, hv) in rows.iter().zip(&batch) {
            assert_eq!(
                hv,
                &reference(base.matrix(), n_features, row, |dot| dot > 0.0)
            );
            assert_eq!(hv, &sign_one(&base, row, PlaneSign).unwrap());
        }
    }

    #[test]
    fn project_is_the_cosine_of_the_sum_loop() {
        // Odd and even D: rows in pairs, and a last row alone.
        for dim in [1usize, 2, 3, 64, 65] {
            for mode in MODES {
                let mapper = HdMapper::builder(dim, 16)
                    .seed(3)
                    .sigma(2.5)
                    .cosine_mode(mode)
                    .build()
                    .unwrap();
                for row in points(9, 16, 21) {
                    let got = mapper.project(&row).unwrap();
                    assert_eq!(got.len(), dim);
                    for (i, h) in got.iter().enumerate() {
                        let dot: f64 = mapper
                            .base_vector(i)
                            .unwrap()
                            .iter()
                            .zip(&row)
                            .map(|(b, f)| b * f)
                            .sum();
                        let want = eval_cosine(dot * (1.0 / 2.5), mode);
                        assert_eq!(h.to_bits(), want.to_bits(), "{mode:?} D={dim} row {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn tile_dots_sinks_every_row_once_in_order() {
        let n_features = 5;
        let mut state = 9u64;
        let tile = uniform(n_features * TILE, &mut state);
        for dim in [0usize, 1, 2, 3, 4, 7] {
            let matrix = uniform(dim * n_features, &mut state);
            let mut seen = Vec::new();
            tile_dots::<TILE>(&matrix, n_features, &tile, |i, dots| seen.push((i, *dots)));
            assert_eq!(
                seen.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                (0..dim).collect::<Vec<_>>(),
                "D={dim}"
            );
            for (i, dots) in &seen {
                let row = &matrix[i * n_features..][..n_features];
                for (p, dot) in dots.iter().enumerate() {
                    let want: f64 = row
                        .iter()
                        .enumerate()
                        .map(|(j, b)| b * tile[j * TILE + p])
                        .sum();
                    assert_eq!(dot.to_bits(), want.to_bits(), "D={dim} row {i} lane {p}");
                }
            }
        }
    }

    /// Features the filter must leave to the `f64` path or get through
    /// intact: `f32` overflow and its edge, both sides of the 2⁻⁶⁰
    /// cut-off, `f64` subnormals and signed zero.
    const EDGES: [f64; 10] = [
        f32::MAX as f64,
        -(f32::MAX as f64),
        1e39,
        -3.5e38,
        1.0 / (1u64 << 60) as f64,
        -1.0 / (1u64 << 61) as f64,
        0.75 / (1u64 << 60) as f64,
        5e-324,
        -2.2e-308,
        -0.0,
    ];

    /// Move `point` until its dot with `row` (in the kernel's exact
    /// order) is `target` to within a few ulps, by correcting the
    /// feature under the row's largest entry.
    fn place(row: &[f64], point: &mut [f64], target: f64) {
        let dot = |p: &[f64]| row.iter().zip(p).fold(-0.0, |acc, (b, f)| acc + b * f);
        let j = (0..row.len())
            .max_by(|&a, &b| row[a].abs().total_cmp(&row[b].abs()))
            .unwrap();
        for _ in 0..3 {
            point[j] += (target - dot(point)) / row[j];
        }
    }

    /// `n` points for the filtered kernel: [`points`], one in four with
    /// an [`EDGES`] value in it and one in eight with two (two large
    /// products of opposite sign overflow an `f32` lane while the `f64`
    /// dot stays finite), and every other point moved so
    /// its dot with one base row sits on `boundary(dot)`, a few ulps
    /// off where the sign test flips.
    fn edge_points(
        n: usize,
        matrix: &[f64],
        n_features: usize,
        seed: u64,
        boundary: impl Fn(f64) -> f64,
    ) -> Vec<Vec<f64>> {
        let dim = matrix.len() / n_features;
        let mut rows = points(n, n_features, seed);
        let mut state = seed;
        for (p, point) in rows.iter_mut().enumerate() {
            let pick = splitmix(&mut state);
            if p % 4 == 3 {
                point[pick as usize % n_features] = EDGES[(pick >> 32) as usize % EDGES.len()];
                if p % 8 == 7 {
                    let pick = splitmix(&mut state);
                    point[pick as usize % n_features] = EDGES[(pick >> 32) as usize % EDGES.len()];
                }
            } else if p % 2 == 0 {
                let row = &matrix[(pick as usize % dim) * n_features..][..n_features];
                let dot = row
                    .iter()
                    .zip(&*point)
                    .fold(-0.0, |acc, (b, f)| acc + b * f);
                let ulps = (pick >> 40) as i32 % 4;
                let target = (0..ulps.abs()).fold(boundary(dot), |t, _| {
                    if ulps > 0 {
                        t.next_up()
                    } else {
                        t.next_down()
                    }
                });
                place(row, point, target);
            }
        }
        rows
    }

    #[test]
    fn a_worst_case_f32_sum_falls_back() {
        // Row [2¹⁰, 1, 1, …] against point [2⁻¹⁰, ε, ε, …], with ε just
        // under half an f32 ulp of 1: the f32 lane reaches 1 and then
        // rounds every ε away, ending (n − 1)·ε below the f64 dot —
        // 98 % of the bound E. σ puts the cosine's first zero at
        // d₃₂ + ¾E, between d₃₂ + E/2 and the f64 dot, so a bound half
        // as wide would certify the wrong bit.
        let n = 784;
        let eps = (1.0 - 1.0 / 64.0) / f64::from(1u32 << 24);
        let mut row = vec![1.0; n];
        row[0] = 1024.0;
        let mut point = vec![eps; n];
        point[0] = 1.0 / 1024.0;
        let exact = row.iter().zip(&point).fold(-0.0, |acc, (b, f)| acc + b * f);
        let d32 = row.iter().zip(&point).fold(-0.0f32, |acc, (&b, &f)| {
            acc.madd(f32::narrow(b), f32::narrow(f))
        });
        let d32 = f64::from(d32);
        let e = bound(n) * norm(&row) * norm(&point) + n as f64 * UNDERFLOW;
        assert!(
            exact - d32 > 0.9 * e && exact - d32 < e,
            "{} of E",
            (exact - d32) / e
        );
        let sigma = (d32 + 0.75 * e) / std::f64::consts::FRAC_PI_2;
        let sign = CosineSign {
            inv_sigma: 1.0 / sigma,
            mode: CosineMode::Exact,
        };
        let positive = |dot: f64| eval_cosine(dot * (1.0 / sigma), CosineMode::Exact) > 0.0;
        assert!(positive(d32 + 0.5 * e) && !positive(exact));
        let base = Base::from_matrix(row, n);
        let want = reference(base.matrix(), n, &point, positive);
        // Two points: a tile, not a lone straggler. `filter_batch` runs
        // the filter on every target; `sign_batch` only where it wins.
        let rows = [point.clone(), point];
        for batch in [
            sign_batch(&base, &rows, sign).unwrap(),
            filter_batch(&base, &rows, sign),
        ] {
            for hv in batch {
                assert_eq!(hv, want);
            }
        }
    }

    #[test]
    fn an_f32_overflow_never_decides_a_bit() {
        // −1.2 · 3e38 overflows the f32 lane to −∞ on its first fused
        // multiply-add and +1.3 · 3e38 cannot bring it back, yet the
        // f64 dot is +3e37. Likewise 1e39 narrows to +∞, which the
        // −2 · 2.5e38 product cannot outweigh in f32, while the f64 dot
        // is 1e36 − 5e38 < 0. Both bits belong to the f64 path.
        let n = F32_MIN_FEATURES;
        let mut row = vec![0.0; n];
        row[..2].copy_from_slice(&[-1.2, 1.3]);
        let mut lean = vec![0.0; n];
        lean[..2].copy_from_slice(&[1e-3, -2.0]);
        let base = Base::from_matrix([row, lean].concat(), n);
        let mut point = vec![0.0; n];
        point[..2].copy_from_slice(&[3e38, 3e38]);
        let mut wide = vec![0.0; n];
        wide[..2].copy_from_slice(&[1e39, 2.5e38]);
        let rows = [point.clone(), point, wide.clone(), wide];
        for batch in [
            sign_batch(&base, &rows, PlaneSign).unwrap(),
            filter_batch(&base, &rows, PlaneSign),
        ] {
            for (row, hv) in rows.iter().zip(&batch) {
                assert_eq!(hv, &reference(base.matrix(), n, row, |dot| dot > 0.0));
            }
        }
    }

    /// `dots` through `sign`'s lane form `P` lanes at a time (a short
    /// last group padded with zeros): every decided lane carries
    /// [`Sign::positive`]'s bit, every undecided one a 0, and a lane
    /// compared with itself by [`Sign::certain`] reads as in
    /// [`Sign::lanes`].
    fn assert_lanes_are_scalar<const P: usize>(sign: impl Sign, dots: &[f64], name: &str) {
        for group in dots.chunks(P) {
            let mut lanes = [0.0; P];
            lanes[..group.len()].copy_from_slice(group);
            let (bits, unsure) = sign.lanes(&lanes);
            assert_eq!(sign.certain(&lanes, &lanes), (bits, unsure), "{name}");
            for (p, (&bit, &dot)) in bits.iter().zip(&lanes).enumerate() {
                let want = if unsure >> p & 1 == 1 {
                    0
                } else {
                    u64::from(sign.positive(dot))
                };
                assert_eq!(
                    bit,
                    want,
                    "{name} P={P} dot = {dot:e} ({:#018x})",
                    dot.to_bits()
                );
            }
        }
    }

    fn assert_every_width(sign: impl Sign, dots: &[f64], name: &str) {
        assert_lanes_are_scalar::<1>(sign, dots, name);
        assert_lanes_are_scalar::<4>(sign, dots, name);
        assert_lanes_are_scalar::<TILE>(sign, dots, name);
        assert_lanes_are_scalar::<TILE32>(sign, dots, name);
    }

    #[test]
    fn lanes_match_the_scalar_sign_on_adversarial_dots() {
        use std::f64::consts::PI;
        let limit = f64::from(1u32 << 20);
        let stepped = |x: f64, ulps: i32| {
            (0..ulps.abs()).fold(x, |x, _| if ulps > 0 { x.next_up() } else { x.next_down() })
        };
        // Every half-integer of π below 2¹² and below 2²⁰ from 333 000
        // up, ±2 ulps: on it, and on both edges of the 10⁻⁶ guard band.
        let mut angles = Vec::new();
        for k in (0..4096).chain(333_000..333_772) {
            let crossing = (f64::from(k) + 0.5) * PI;
            for offset in [0.0, 0.99e-6, 1e-6, 1.01e-6] {
                for x in [crossing - offset * PI, crossing + offset * PI] {
                    for ulps in -2..=2 {
                        angles.extend([stepped(x, ulps), -stepped(x, ulps)]);
                    }
                }
            }
        }
        for ulps in -2..=2 {
            angles.extend([stepped(limit, ulps), -stepped(limit, ulps)]);
        }
        angles.extend([
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            2.2e-308,
            -2.2e-308,
            1e300,
            -1e300,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]);
        for sigma in [1.0, 3.0] {
            let dots: Vec<f64> = angles.iter().map(|x| x * sigma).collect();
            for mode in MODES {
                let sign = CosineSign {
                    inv_sigma: 1.0 / sigma,
                    mode,
                };
                assert_every_width(sign, &dots, &format!("{mode:?} σ={sigma}"));
            }
            assert_every_width(PlaneSign, &dots, "plane");
        }
        // Only the Exact mode decides a lane; the Taylor modes defer all.
        let sign = CosineSign {
            inv_sigma: 1.0,
            mode: CosineMode::Taylor3Raw,
        };
        assert_eq!(sign.lanes(&[0.0, 1.0, -2.0, 3.0]).1, 0b1111);
        let sign = CosineSign {
            inv_sigma: 1.0,
            mode: CosineMode::Exact,
        };
        assert_eq!(sign.lanes(&[0.0, 1.0, -2.0, 3.0]), ([1, 1, 0, 0], 0));
    }

    proptest! {
        #[test]
        fn prop_any_split_of_a_batch_encodes_the_same(
            n in 0usize..48,
            n_features in 1usize..24,
            dim in 1usize..140,
            cut in 0usize..48,
            seed in any::<u64>(),
        ) {
            let rows = points(n, n_features, seed);
            let cut = cut.min(n);
            let mapper = HdMapper::builder(dim, n_features)
                .seed(seed)
                .cosine_mode(MODES[seed as usize % MODES.len()])
                .build()
                .unwrap();
            let lsh = LshEncoder::new(dim, n_features, seed).unwrap();
            let single: Vec<Hypervector> = rows.iter().map(|r| mapper.encode(r).unwrap()).collect();
            let mut halves = mapper.encode_batch(&rows[..cut]).unwrap();
            halves.extend(mapper.encode_batch(&rows[cut..]).unwrap());
            prop_assert_eq!(&mapper.encode_batch(&rows).unwrap(), &single);
            prop_assert_eq!(&halves, &single);
            let single: Vec<Hypervector> = rows.iter().map(|r| lsh.encode(r).unwrap()).collect();
            prop_assert_eq!(lsh.encode_batch(&rows).unwrap(), single);
        }

        #[test]
        fn prop_lane_tiles_match_the_scalar_sign(
            features in 0usize..8,
            size in 0usize..9,
            dim in 0usize..5,
            sigma in 0usize..4,
            seed in any::<u64>(),
        ) {
            let n_features = [1, 2, 15, 16, 17, 31, 32, 33][features];
            let n = [1, 2, 15, 16, 17, 31, 32, 33, 64][size];
            let dim = [1, 63, 64, 65, 1000][dim];
            // σ = 10⁻⁷ puts most angles past 2²⁰; the others put every
            // other point's dot with one row a few ulps off a cosine zero.
            let sigma = [1e-7, 0.5, 3.0, 20.0][sigma];
            let mode = MODES[seed as usize % MODES.len()];
            let mapper = HdMapper::builder(dim, n_features)
                .seed(seed)
                .sigma(sigma)
                .cosine_mode(mode)
                .build()
                .unwrap();
            let matrix = matrix_of(&mapper);
            let half_turn = std::f64::consts::PI * sigma;
            let rows = edge_points(n, &matrix, n_features, seed, |dot| {
                ((dot / half_turn - 0.5).round() + 0.5) * half_turn
            });
            let sign = CosineSign { inv_sigma: 1.0 / sigma, mode };
            let batch = mapper.encode_batch(&rows).unwrap();
            for (row, hv) in rows.iter().zip(&batch) {
                prop_assert_eq!(hv, &reference(&matrix, n_features, row, |dot| sign.positive(dot)));
                prop_assert_eq!(hv, &mapper.encode(row).unwrap());
            }
            let planes = Base::from_matrix(uniform(dim * n_features, &mut seed.clone()), n_features);
            let rows = edge_points(n, planes.matrix(), n_features, seed, |_| 0.0);
            let batch = sign_batch(&planes, &rows, PlaneSign).unwrap();
            for (row, hv) in rows.iter().zip(&batch) {
                let want = reference(planes.matrix(), n_features, row, |dot| PlaneSign.positive(dot));
                prop_assert_eq!(hv, &want);
                prop_assert_eq!(hv, &sign_one(&planes, row, PlaneSign).unwrap());
            }
        }

        #[test]
        fn prop_filtered_tiles_match_the_sum_loop(
            n in 2usize..70,
            n_features in F32_MIN_FEATURES..F32_MIN_FEATURES + 48,
            dim in 1usize..70,
            sigma in 0.5f64..30.0,
            seed in any::<u64>(),
        ) {
            // Dots on a cosine zero, (k + ½)·π·σ, and on the hyperplane,
            // 0; short tiles (n mod 32) and a lone straggler (n = 33, 65)
            // come from the range of n.
            let mapper = HdMapper::builder(dim, n_features).seed(seed).sigma(sigma).build().unwrap();
            let matrix = matrix_of(&mapper);
            let half_turn = std::f64::consts::PI * sigma;
            let rows = edge_points(n, &matrix, n_features, seed, |dot| {
                ((dot / half_turn - 0.5).round() + 0.5) * half_turn
            });
            let positive = |dot: f64| eval_cosine(dot * (1.0 / sigma), CosineMode::Exact) > 0.0;
            let sign = CosineSign { inv_sigma: 1.0 / sigma, mode: CosineMode::Exact };
            let base = Base::from_matrix(matrix.clone(), n_features);
            for batch in [mapper.encode_batch(&rows).unwrap(), filter_batch(&base, &rows, sign)] {
                for (row, hv) in rows.iter().zip(&batch) {
                    prop_assert_eq!(hv, &reference(&matrix, n_features, row, positive));
                }
            }
            let planes = Base::from_matrix(uniform(dim * n_features, &mut seed.clone()), n_features);
            let rows = edge_points(n, planes.matrix(), n_features, seed, |_| 0.0);
            let lsh = [
                sign_batch(&planes, &rows, PlaneSign).unwrap(),
                filter_batch(&planes, &rows, PlaneSign),
            ];
            for batch in lsh {
                for (row, hv) in rows.iter().zip(&batch) {
                    prop_assert_eq!(hv, &reference(planes.matrix(), n_features, row, |dot| dot > 0.0));
                }
            }
        }
    }
}
