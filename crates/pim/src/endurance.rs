//! Memristor endurance and DUAL lifetime model (§VIII-H).
//!
//! DUAL manages wear by spreading writes uniformly over all bitlines and
//! rotating which blocks serve as data blocks, so every device sees the
//! same write rate. With memristor endurance between 10⁹ and 10¹¹
//! cycles, the paper reports that continuously exercised arrays stay
//! exact for 13.5 years; modeling endurance as Gaussian across devices,
//! DUAL still delivers <1 % and <2 % clustering-quality loss after 17.2
//! and 19.6 years respectively — hyperdimensional representations
//! degrade gracefully because every dimension carries equal weight.

#![deny(clippy::as_conversions)]

/// Gaussian-endurance lifetime model.
///
/// Calibrated so its three headline outputs match §VIII-H:
///
/// ```rust
/// use dual_pim::EnduranceModel;
///
/// let m = EnduranceModel::paper();
/// assert!((m.exact_lifetime_years() - 13.5).abs() < 0.3);
/// assert!((m.years_until_quality_loss(0.01) - 17.2).abs() < 0.6);
/// assert!((m.years_until_quality_loss(0.02) - 19.6).abs() < 0.6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceModel {
    /// Mean device lifetime under the sustained write rate, in years
    /// (`mean endurance ÷ writes-per-second`, wear-leveled).
    pub mean_lifetime_years: f64,
    /// Relative standard deviation of device endurance.
    pub sigma_frac: f64,
    /// Quality-loss sensitivity: clustering quality lost per fraction of
    /// failed dimensions. Below 1.0 would mean HD redundancy hides
    /// failures; the calibrated value ≈ 2.2 reflects that a failed
    /// *bitline* corrupts the same dimension of every stored point.
    pub quality_sensitivity: f64,
}

impl EnduranceModel {
    /// Calibration matching the paper's 13.5 / 17.2 / 19.6-year numbers.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            mean_lifetime_years: 41.8,
            sigma_frac: 0.2257,
            quality_sensitivity: 2.2,
        }
    }

    /// Years of continuous operation before *any* meaningful device
    /// failures (3σ early tail), i.e. exact computation.
    #[must_use]
    pub fn exact_lifetime_years(&self) -> f64 {
        self.mean_lifetime_years * (1.0 - 3.0 * self.sigma_frac)
    }

    /// Fraction of devices failed after `years` of continuous operation.
    #[must_use]
    pub fn failed_fraction(&self, years: f64) -> f64 {
        let z = (years / self.mean_lifetime_years - 1.0) / self.sigma_frac;
        normal_cdf(z)
    }

    /// Expected clustering-quality loss (0..1) after `years`.
    #[must_use]
    pub fn quality_loss(&self, years: f64) -> f64 {
        (self.quality_sensitivity * self.failed_fraction(years)).min(1.0)
    }

    /// Years of continuous operation until the expected quality loss
    /// reaches `loss` (bisection over the monotone loss curve).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `(0, 1)`.
    #[must_use]
    pub fn years_until_quality_loss(&self, loss: f64) -> f64 {
        assert!(loss > 0.0 && loss < 1.0, "loss must be a fraction in (0,1)");
        let (mut lo, mut hi) = (0.0, self.mean_lifetime_years * 4.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.quality_loss(mid) < loss {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

impl Default for EnduranceModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// Functional wear-leveling simulation (§VIII-H): "since all memory
/// blocks support the same functionality, in a long time period, DUAL
/// uses different blocks as data blocks", with each tile controller
/// tracking per-block usage.
///
/// The leveler assigns the write-heavy *data-block role* to the
/// least-worn block each epoch and spreads arithmetic scratch columns
/// round-robin, so cumulative writes stay within a small band across
/// blocks — the property the 13.5-year lifetime projection assumes.
///
/// ```rust
/// use dual_pim::WearLeveler;
///
/// let mut w = WearLeveler::new(16);
/// for _ in 0..1000 {
///     let blk = w.next_data_block();
///     w.record_writes(blk, 100);
/// }
/// // 1000 equal writes over 16 blocks: none gets more than its share.
/// assert!(w.writes().iter().all(|&n| n <= 6300));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WearLeveler {
    writes: Vec<u64>,
}

impl WearLeveler {
    /// Track `n_blocks` interchangeable blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks == 0`.
    #[must_use]
    pub fn new(n_blocks: usize) -> Self {
        assert!(n_blocks > 0, "need at least one block");
        Self {
            writes: vec![0; n_blocks],
        }
    }

    /// Rebuild a leveler from previously exported per-block write
    /// counts — the snapshot-restore path. Counts are taken verbatim,
    /// so block rotation continues exactly where the snapshotted
    /// leveler stood.
    ///
    /// # Panics
    ///
    /// Panics if `writes` is empty.
    #[must_use]
    pub fn restore(writes: Vec<u64>) -> Self {
        assert!(!writes.is_empty(), "need at least one block");
        Self { writes }
    }

    /// Cumulative writes per block in block order, for snapshotting.
    #[must_use]
    pub fn writes(&self) -> &[u64] {
        &self.writes
    }

    /// The block the controller should use for the next write-heavy
    /// role: the least-worn one (ties break to the lowest index).
    #[must_use]
    pub fn next_data_block(&self) -> usize {
        self.writes
            .iter()
            .enumerate()
            .min_by_key(|&(_, &w)| w)
            .map_or(0, |(i, _)| i)
    }

    /// Record `count` cell writes against block `blk`.
    ///
    /// # Panics
    ///
    /// Panics if `blk` is out of range.
    pub fn record_writes(&mut self, blk: usize, count: u64) {
        self.writes[blk] += count;
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (|error| < 1.5e-7, ample for lifetime projections).
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normal_cdf_reference_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-2.326) - 0.01).abs() < 1e-3);
    }

    #[test]
    fn paper_lifetimes() {
        let m = EnduranceModel::paper();
        assert!(
            (m.exact_lifetime_years() - 13.5).abs() < 0.3,
            "{}",
            m.exact_lifetime_years()
        );
        let y1 = m.years_until_quality_loss(0.01);
        let y2 = m.years_until_quality_loss(0.02);
        assert!((y1 - 17.2).abs() < 0.6, "1% loss at {y1} years");
        assert!((y2 - 19.6).abs() < 0.6, "2% loss at {y2} years");
        assert!(y2 > y1);
    }

    #[test]
    fn quality_loss_negligible_within_exact_lifetime() {
        let m = EnduranceModel::paper();
        assert!(m.quality_loss(m.exact_lifetime_years()) < 0.005);
        assert!(m.failed_fraction(1.0) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn loss_out_of_range_panics() {
        let _ = EnduranceModel::paper().years_until_quality_loss(1.5);
    }

    #[test]
    fn wear_leveling_keeps_blocks_balanced() {
        // Max wear over mean wear, in percent: 100 is perfect leveling.
        let imbalance = |w: &WearLeveler| {
            let blocks = u64::try_from(w.writes().len()).unwrap();
            w.writes().iter().max().unwrap() * 100 * blocks / w.writes().iter().sum::<u64>()
        };
        let mut leveled = WearLeveler::new(16);
        let mut unleveled = WearLeveler::new(16);
        for step in 0..2000u64 {
            let b = leveled.next_data_block();
            leveled.record_writes(b, 50 + step % 7);
            unleveled.record_writes(0, 50 + step % 7); // always the same block
        }
        assert!(imbalance(&leveled) < 105, "{}", imbalance(&leveled));
        assert_eq!(imbalance(&unleveled), 1600);
    }

    #[test]
    fn fresh_leveler_defaults() {
        assert_eq!(WearLeveler::new(4).next_data_block(), 0);
    }

    proptest! {
        #[test]
        fn prop_round_robin_emerges_from_least_worn(writes in proptest::collection::vec(1u64..100, 1..64)) {
            // Feeding equal-size writes through next_data_block visits
            // every block before revisiting any (classic wear rotation).
            let mut w = WearLeveler::new(8);
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..8 {
                let b = w.next_data_block();
                prop_assert!(seen.insert(b), "revisited block {b} early");
                w.record_writes(b, 10);
            }
            let _ = writes;
        }
    }

    proptest! {
        #[test]
        fn prop_loss_monotone_in_years(a in 0.0f64..80.0, b in 0.0f64..80.0) {
            let m = EnduranceModel::paper();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(m.quality_loss(lo) <= m.quality_loss(hi) + 1e-12);
        }

        #[test]
        fn prop_years_until_loss_inverts_loss(loss in 0.005f64..0.5) {
            let m = EnduranceModel::paper();
            let y = m.years_until_quality_loss(loss);
            prop_assert!((m.quality_loss(y) - loss).abs() < 1e-3);
        }
    }
}
