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

use crate::{BitVec, HdcError, Hypervector};

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

/// Reject a feature vector that is not `n_features` long.
pub(crate) fn check_len(features: &[f64], n_features: usize) -> Result<(), HdcError> {
    if features.len() == n_features {
        Ok(())
    } else {
        Err(HdcError::FeatureLength {
            expected: n_features,
            got: features.len(),
        })
    }
}

/// For every row of the row-major `D × n_features` `matrix`, in row
/// order, hand `sink` the row index and that row's dot product with
/// each of the `P` points of `tile`. `tile` is feature-major
/// (`n_features × P`: feature `j` of point `p` at `j * P + p`), which
/// for `P = 1` is the feature vector itself.
///
/// Rows go two at a time: one load of feature `j`'s `P` lanes feeds
/// both rows' accumulators, so a pair keeps `2P` independent add
/// chains in flight. An odd last row runs alone.
///
/// The pair's accumulators are two arrays zipped side by side. One
/// `[[f64; P]; 2]` destructured into its rows computes the same bits,
/// but LLVM scalarised it and the 64 × 784 batch took 110 ms.
pub(crate) fn tile_dots<const P: usize>(
    matrix: &[f64],
    n_features: usize,
    tile: &[f64],
    mut sink: impl FnMut(usize, &[f64; P]),
) {
    debug_assert_eq!(tile.len(), n_features * P);
    let (lanes, _) = tile.as_chunks::<P>();
    let mut pairs = matrix.chunks_exact(2 * n_features);
    let mut i = 0;
    for pair in pairs.by_ref() {
        let (first, second) = pair.split_at(n_features);
        let (mut a0, mut a1) = ([-0.0f64; P], [-0.0f64; P]);
        for ((b0, b1), x) in first.iter().zip(second).zip(lanes) {
            for ((a0, a1), x) in a0.iter_mut().zip(&mut a1).zip(x) {
                *a0 += b0 * x;
                *a1 += b1 * x;
            }
        }
        sink(i, &a0);
        sink(i + 1, &a1);
        i += 2;
    }
    let last = pairs.remainder();
    if !last.is_empty() {
        let mut acc = [-0.0f64; P];
        for (b, x) in last.iter().zip(lanes) {
            for (a, x) in acc.iter_mut().zip(x) {
                *a += b * x;
            }
        }
        sink(i, &acc);
    }
}

/// Bit `i` of point `p` is `positive(matrix[i] · point p)`, written
/// straight into the packed words. Only the first `live` lanes are
/// sign-tested; the rest come back all-zero.
fn sign_tile<const P: usize>(
    matrix: &[f64],
    n_features: usize,
    tile: &[f64],
    live: usize,
    positive: impl Fn(f64) -> bool,
) -> [Hypervector; P] {
    let dim = matrix.len() / n_features;
    let mut words: [Vec<u64>; P] = std::array::from_fn(|_| vec![0; dim.div_ceil(64)]);
    tile_dots::<P>(matrix, n_features, tile, |i, dots| {
        for (w, &dot) in words.iter_mut().zip(dots).take(live) {
            w[i / 64] |= u64::from(positive(dot)) << (i % 64);
        }
    });
    words.map(|w| Hypervector::from_bitvec(BitVec::from_words(w, dim)))
}

/// Encode one point: the `P = 1` tile.
pub(crate) fn sign_one(
    matrix: &[f64],
    n_features: usize,
    features: &[f64],
    positive: impl Fn(f64) -> bool,
) -> Result<Hypervector, HdcError> {
    check_len(features, n_features)?;
    let [hv] = sign_tile::<1>(matrix, n_features, features, 1, positive);
    dual_obs::Obs::global().add(dual_obs::Key::HdcEncoded, 1);
    Ok(hv)
}

/// Encode `rows` a tile at a time, each base row loaded once per tile
/// instead of once per point. Every row is length-checked before any
/// work, and `hdc.encoded` moves by `rows.len()` once, on success.
pub(crate) fn sign_batch(
    matrix: &[f64],
    n_features: usize,
    rows: &[Vec<f64>],
    positive: impl Fn(f64) -> bool + Copy,
) -> Result<Vec<Hypervector>, HdcError> {
    for row in rows {
        check_len(row, n_features)?;
    }
    let mut out = Vec::with_capacity(rows.len());
    let mut tile = vec![0.0; n_features * TILE];
    for points in rows.chunks(TILE) {
        // A tile costs the same whatever it holds (5.3–7.5 ms at
        // D = 4000 × 784, where one point alone is 3.6–4.3 ms and two
        // are 7.5–9.4), so only a lone straggler goes on its own.
        if let [point] = points {
            out.extend(sign_tile::<1>(matrix, n_features, point, 1, positive));
            continue;
        }
        // A short tile keeps zeros in its unused lanes.
        for (j, lanes) in tile.chunks_exact_mut(TILE).enumerate() {
            for (p, lane) in lanes.iter_mut().enumerate() {
                *lane = points.get(p).map_or(0.0, |point| point[j]);
            }
        }
        let signed = sign_tile::<TILE>(matrix, n_features, &tile, points.len(), positive);
        out.extend(signed.into_iter().take(points.len()));
    }
    dual_obs::Obs::global().add(dual_obs::Key::HdcEncoded, rows.len() as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::eval_cosine;
    use crate::{CosineMode, Encoder, HdMapper, LshEncoder};
    use proptest::prelude::*;

    const MODES: [CosineMode; 3] = [
        CosineMode::Exact,
        CosineMode::Taylor3,
        CosineMode::Taylor3Raw,
    ];

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
    /// NaN, ±∞, −0.0 and subnormals mixed in so roughly one point in
    /// three carries a special somewhere.
    fn points(n: usize, n_features: usize, seed: u64) -> Vec<Vec<f64>> {
        const SPECIAL: [f64; 6] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            -2.2e-308,
        ];
        let mut state = seed;
        (0..n)
            .map(|_| {
                let mut row: Vec<f64> = (0..n_features)
                    .map(|_| (splitmix(&mut state) >> 11) as f64 / (1u64 << 50) as f64 - 4.0)
                    .collect();
                let pick = splitmix(&mut state);
                if pick.is_multiple_of(3) {
                    row[(pick >> 8) as usize % n_features] = SPECIAL[(pick >> 40) as usize % 6];
                }
                row
            })
            .collect()
    }

    fn matrix_of(mapper: &HdMapper) -> Vec<f64> {
        (0..mapper.dim())
            .flat_map(|i| mapper.base_vector(i).to_vec())
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
    fn grid_taylor3() {
        mapper_grid(CosineMode::Taylor3);
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
        let matrix = uniform(65 * n_features, &mut 5);
        let rows = points(65, n_features, 77);
        let batch = sign_batch(&matrix, n_features, &rows, |dot| dot > 0.0).unwrap();
        for (row, hv) in rows.iter().zip(&batch) {
            assert_eq!(hv, &reference(&matrix, n_features, row, |dot| dot > 0.0));
            assert_eq!(
                hv,
                &sign_one(&matrix, n_features, row, |dot| dot > 0.0).unwrap()
            );
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
                .cosine_mode(MODES[(seed % 3) as usize])
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
    }
}
