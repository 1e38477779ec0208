//! Random hypervectors.
//!
//! The DUAL paper builds on the HD-computing framework it cites
//! (Kanerva 2009; Imani et al. HPCA'17): information is stored as a
//! *holographic* distribution of patterns where every dimension carries
//! equal weight — the property behind DUAL's graceful wear-out
//! (§VIII-H). A uniformly random hypervector is that framework's basic
//! item, and the deterministic fixture every test and bench draws from.

use crate::{BitVec, Hypervector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A uniformly random hypervector (each bit fair-coin), deterministic
/// in `seed`.
#[must_use]
pub fn random_hypervector(dim: usize, seed: u64) -> Hypervector {
    let mut rng = StdRng::seed_from_u64(seed);
    let bits: BitVec = (0..dim).map(|_| rng.gen::<bool>()).collect();
    Hypervector::from_bitvec(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_hypervectors_are_quasi_orthogonal() {
        let a = random_hypervector(4096, 1);
        let b = random_hypervector(4096, 2);
        let d = a.hamming(&b);
        assert!((1700..2400).contains(&d), "distance {d}");
    }
}
