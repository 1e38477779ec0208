//! Offline stand-in for the subset of the `rand` 0.8 API this workspace
//! uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a tiny, dependency-free implementation of the `rand`
//! surface it actually calls: [`rngs::StdRng`], [`SeedableRng`],
//! [`Rng`] (`gen`, `gen_range`, `gen_bool`), and
//! [`seq::SliceRandom`] (`shuffle`, `choose`).
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — fast,
//! high-quality, and fully deterministic in the seed. Streams are *not*
//! bit-compatible with upstream `rand`'s ChaCha-based `StdRng`; all
//! in-repo consumers only rely on determinism and statistical quality,
//! not on exact upstream streams.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

/// Low-level entropy source: everything reduces to `next_u64`.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from the "standard" domain
/// (`bool` fair coin, floats in `[0, 1)`, integers over their full
/// range).
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> [0, 1) with full double precision.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types with uniform sampling over a half-open or inclusive range.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`. Callers guarantee `lo < hi`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]`. Callers guarantee `lo <= hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo.wrapping_add(uniform_u64_below(rng, span) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64_below(rng, span + 1) as $t)
            }
        }
    )*};
}
impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                lo.wrapping_add(uniform_u64_below(rng, span) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64_below(rng, span + 1) as $t)
            }
        }
    )*};
}
impl_sample_uniform_int!(i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let unit = <$t as Standard>::sample_standard(rng);
                let v = lo + (hi - lo) * unit;
                // Guard against rounding landing exactly on `hi`.
                if v >= hi { lo.max(hi - (hi - lo) * <$t>::EPSILON) } else { v }
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let unit = <$t as Standard>::sample_standard(rng);
                lo + (hi - lo) * unit
            }
        }
    )*};
}
impl_sample_uniform_float!(f32, f64);

/// Unbiased-enough uniform draw below `span` (`span == 0` means the
/// full 64-bit range). Uses 128-bit multiply-shift reduction, which is
/// deterministic and has negligible bias for the range sizes used in
/// this workspace.
fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    let x = rng.next_u64();
    if span == 0 {
        return x;
    }
    ((x as u128 * span as u128) >> 64) as u64
}

/// Ranges that can be sampled: `lo..hi` and `lo..=hi`.
pub trait SampleRange<T> {
    /// Draw a uniform value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

/// User-facing convenience methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// A value sampled from the standard domain of `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// A uniform value in `range`.
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        Self: Sized,
        T: SampleUniform,
        Rg: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} outside [0,1]"
        );
        f64::sample_standard(self) < p
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8])
    where
        Self: Sized,
    {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

impl<R: RngCore> Rng for R {}

/// Deterministic construction from seed material.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator:
    /// xoshiro256++ seeded via SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn from_splitmix(seed: u64) -> Self {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            Self { s }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            Self::from_splitmix(state)
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// Alias used by code written against `rand::rngs::SmallRng`.
    pub type SmallRng = StdRng;
}

pub mod seq {
    //! Slice helpers, mirroring `rand::seq::SliceRandom`.

    use super::{Rng, RngCore};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle, deterministic in the generator state.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// A uniformly random element, or `None` when empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

/// `rand::distributions` subset: the [`Standard`] marker lives at the
/// crate root in this shim, re-exported here for drop-in imports.
pub mod distributions {
    pub use super::Standard;
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_in_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let va: Vec<u64> = (0..8).map(|_| a.gen::<u64>()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen::<u64>()).collect();
        assert_eq!(va, vb);
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(va[0], c.gen::<u64>());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
            let i = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&i));
        }
    }

    #[test]
    fn gen_bool_probability_sane() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..40_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 40_000.0;
        assert!((0.23..0.27).contains(&frac), "{frac}");
    }

    #[test]
    fn shuffle_and_choose() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        let orig = v.clone();
        v.shuffle(&mut rng);
        assert_ne!(v, orig);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig);
        assert!(orig.contains(v.choose(&mut rng).unwrap()));
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn float_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
