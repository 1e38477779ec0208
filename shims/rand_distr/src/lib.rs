//! Offline stand-in for the subset of the `rand_distr` 0.4 API this
//! workspace uses: [`Distribution`] and the [`Normal`] (Gaussian)
//! distribution.
//!
//! Sampling uses the Box–Muller transform — deterministic in the
//! generator stream and accurate to full `f64` precision, which is all
//! the synthetic-data and variation models in this repo require.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use rand::{Rng, RngCore};
use std::fmt;

/// Types that generate values of `T` from an entropy source.
pub trait Distribution<T> {
    /// Draw one value.
    fn sample<R: RngCore>(&self, rng: &mut R) -> T;
}

/// Errors from invalid distribution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// Standard deviation was negative or non-finite.
    StdDevInvalid,
    /// Mean was non-finite.
    MeanInvalid,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::StdDevInvalid => write!(f, "standard deviation must be finite and >= 0"),
            Error::MeanInvalid => write!(f, "mean must be finite"),
        }
    }
}

impl std::error::Error for Error {}

/// The normal (Gaussian) distribution `N(mean, std_dev²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Construct from mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for non-finite parameters or a negative
    /// standard deviation.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, Error> {
        if !mean.is_finite() {
            return Err(Error::MeanInvalid);
        }
        if !(std_dev.is_finite() && std_dev >= 0.0) {
            return Err(Error::StdDevInvalid);
        }
        Ok(Self { mean, std_dev })
    }

    /// The configured mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The configured standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: RngCore>(&self, rng: &mut R) -> f64 {
        // Box–Muller: two uniforms -> one standard normal draw. The
        // second transform output is intentionally discarded to keep
        // the per-call stream consumption fixed (2 u64 draws).
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE); // avoid ln(0)
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.std_dev * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_params() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
        assert!(Normal::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn moments_are_close() {
        let n = Normal::new(3.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let draws: Vec<f64> = (0..60_000).map(|_| n.sample(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / draws.len() as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn deterministic_in_seed() {
        let n = Normal::new(0.0, 1.0).unwrap();
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..32 {
            assert_eq!(n.sample(&mut a).to_bits(), n.sample(&mut b).to_bits());
        }
    }
}
