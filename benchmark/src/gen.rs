//! Seeded workload generator. The product receives only the points
//! produced here; the seed never reaches it.
//!
//! Points come from a mixture of `regimes` unit-variance Gaussian blobs
//! whose centres sit on rows of a Sylvester–Hadamard matrix scaled by
//! `separation`. Every regime then sees the same set of distances to
//! the others (exactly equal when `regimes <= features` and `features`
//! is a power of two), so how hard the mixture is depends on the spec
//! and not on where a seed happened to drop the centres; what the seed
//! changes is which rows, columns and signs are used, the drift
//! directions and the noise.

/// xoshiro256++ seeded through splitmix64, with Box–Muller normals.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    spare: Option<f64>,
}

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
            spare: None,
        }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n
    }

    /// Standard normal.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let r = (-2.0 * (1.0 - self.uniform()).ln()).sqrt();
        let (sin, cos) = (std::f64::consts::TAU * self.uniform()).sin_cos();
        self.spare = Some(r * sin);
        r * cos
    }

    /// `count` distinct integers from `lo..hi`, in draw order.
    fn distinct(&mut self, lo: usize, hi: usize, count: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (lo..hi).collect();
        assert!(count <= pool.len(), "not enough values to draw from");
        for i in 0..count {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(count);
        pool
    }
}

/// Shape of a blob mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mixture {
    /// Feature count `m`.
    pub features: usize,
    /// Number of regimes (ground-truth clusters).
    pub regimes: usize,
    /// Centre amplitude per coordinate, in noise standard deviations.
    pub separation: f64,
    /// Per-coordinate displacement scale of every centre over the whole
    /// stream, in noise standard deviations (`0` = stationary).
    pub drift: f64,
}

/// Points with the regime each was drawn from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Labelled {
    /// Feature vectors.
    pub points: Vec<Vec<f64>>,
    /// Generating regime per point.
    pub regimes: Vec<usize>,
}

impl Labelled {
    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether there are no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// One workload's input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// One labelled exemplar per warm-start slot: exemplar `s` comes
    /// from regime `s % regimes`, matching `OnlineKMeans::cluster_of`.
    pub exemplars: Labelled,
    /// The offered stream, in arrival order.
    pub stream: Labelled,
    /// Held-out points drawn from the regimes' final positions.
    pub heldout: Labelled,
}

/// Generate `slots` exemplars, `n_stream` stream points and `n_heldout`
/// held-out points of `mix` from `seed`.
#[must_use]
pub fn generate(
    mix: &Mixture,
    seed: u64,
    slots: usize,
    n_stream: usize,
    n_heldout: usize,
) -> Dataset {
    let mut rng = Rng::new(seed);
    let m = mix.features;
    let order = m.max(mix.regimes).next_power_of_two().max(2);
    let rows = rng.distinct(0, order, mix.regimes);
    let cols = rng.distinct(0, order, m);
    let flips: Vec<f64> = (0..m)
        .map(|_| if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 })
        .collect();
    let centres: Vec<Vec<f64>> = rows
        .iter()
        .map(|&r| {
            cols.iter()
                .zip(&flips)
                .map(|(&c, flip)| {
                    let sign = if (r & c).count_ones() % 2 == 0 {
                        1.0
                    } else {
                        -1.0
                    };
                    mix.separation * sign * flip
                })
                .collect()
        })
        .collect();
    let drifts: Vec<Vec<f64>> = (0..mix.regimes)
        .map(|_| (0..m).map(|_| mix.drift * rng.normal()).collect())
        .collect();
    let point = |regime: usize, progress: f64, rng: &mut Rng| -> Vec<f64> {
        centres[regime]
            .iter()
            .zip(&drifts[regime])
            .map(|(c, d)| c + progress * d + rng.normal())
            .collect()
    };

    let mut data = Dataset::default();
    for s in 0..slots {
        let regime = s % mix.regimes;
        data.exemplars.points.push(point(regime, 0.0, &mut rng));
        data.exemplars.regimes.push(regime);
    }
    for i in 0..n_stream {
        let regime = rng.below(mix.regimes);
        let progress = i as f64 / n_stream as f64;
        data.stream.points.push(point(regime, progress, &mut rng));
        data.stream.regimes.push(regime);
    }
    for _ in 0..n_heldout {
        let regime = rng.below(mix.regimes);
        data.heldout.points.push(point(regime, 1.0, &mut rng));
        data.heldout.regimes.push(regime);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mixture = Mixture {
        features: 16,
        regimes: 8,
        separation: 1.0,
        drift: 0.0,
    };

    #[test]
    fn same_seed_same_data_and_seeds_differ() {
        let a = generate(&MIX, 42, 8, 100, 10);
        assert_eq!(a, generate(&MIX, 42, 8, 100, 10));
        assert_ne!(a, generate(&MIX, 43, 8, 100, 10));
        assert_eq!(
            (a.exemplars.len(), a.stream.len(), a.heldout.len()),
            (8, 100, 10)
        );
        assert!(a.stream.regimes.iter().all(|&r| r < 8));
        assert_eq!(a.exemplars.regimes, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn regimes_are_equidistant_when_they_fit_the_hadamard_order() {
        // Recover the centres as per-regime means of many noiseless-ish
        // samples: with k <= m = 2^p every pair differs in exactly m/2
        // coordinates, so squared distances are all 4 * sep^2 * m / 2.
        let mix = Mixture {
            separation: 3.0,
            ..MIX
        };
        let data = generate(&mix, 7, 0, 40_000, 0);
        let mut sums = vec![vec![0.0; 16]; 8];
        let mut counts = [0usize; 8];
        for (p, &r) in data.stream.points.iter().zip(&data.stream.regimes) {
            counts[r] += 1;
            for (s, x) in sums[r].iter_mut().zip(p) {
                *s += x;
            }
        }
        for (s, &n) in sums.iter_mut().zip(&counts) {
            assert!(n > 4_000, "regimes are drawn uniformly");
            s.iter_mut().for_each(|x| *x /= n as f64);
        }
        for i in 0..8 {
            for j in 0..i {
                let d2: f64 = sums[i]
                    .iter()
                    .zip(&sums[j])
                    .map(|(a, b)| (a - b).powi(2))
                    .sum();
                assert!((d2 - 4.0 * 9.0 * 8.0).abs() < 8.0, "pair ({i},{j}): {d2}");
            }
        }
    }

    #[test]
    fn normals_have_unit_variance() {
        let mut rng = Rng::new(1);
        let xs: Vec<f64> = (0..100_000).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(
            mean.abs() < 0.02 && (var - 1.0).abs() < 0.02,
            "{mean} {var}"
        );
    }
}
