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
/// use dual_pim::endurance::EnduranceModel;
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
/// use dual_pim::endurance::WearLeveler;
///
/// let mut w = WearLeveler::new(16);
/// for _ in 0..1000 {
///     let blk = w.next_data_block();
///     w.record_writes(blk, 100);
/// }
/// assert!(w.imbalance() < 1.05); // near-perfect spread
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

    /// Total writes recorded.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Wear of the most-worn block.
    #[must_use]
    pub fn max_wear(&self) -> u64 {
        self.writes.iter().copied().max().unwrap_or(0)
    }

    /// Imbalance factor: max wear over mean wear (1.0 = perfect
    /// leveling). Returns 1.0 before any writes.
    #[must_use]
    #[expect(clippy::as_conversions, reason = "wear counts ≪ 2^53, exact in f64")]
    pub fn imbalance(&self) -> f64 {
        let total = self.total_writes();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.writes.len() as f64;
        self.max_wear() as f64 / mean
    }

    /// Years of operation left before the most-worn block crosses the
    /// device endurance, given the observed average write rate.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed_seconds` is not positive.
    #[must_use]
    pub fn projected_lifetime_years(&self, endurance: f64, elapsed_seconds: f64) -> f64 {
        assert!(elapsed_seconds > 0.0, "need an observation window");
        #[expect(clippy::as_conversions, reason = "wear counts ≪ 2^53, exact in f64")]
        let rate = self.max_wear() as f64 / elapsed_seconds; // writes/s on the hot block
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        endurance / rate / (365.25 * 24.0 * 3600.0)
    }

    /// Per-block stuck-cell rates implied by the recorded wear: the
    /// fraction of a block's cells expected to have failed after its
    /// write count, for a device `endurance` (writes per cell, mean)
    /// with relative endurance spread `sigma_frac` — the same Gaussian
    /// wear-out tail as [`EnduranceModel::failed_fraction`], but keyed
    /// on *observed* per-block writes instead of projected years.
    ///
    /// The output feeds `dual_fault::FaultPlan::with_wear_rates` (after
    /// expansion to rows via [`WearLeveler::wear_row_rates`]), closing
    /// the loop from the analytic lifetime model to actual injected
    /// faults in the functional simulation.
    ///
    /// # Panics
    ///
    /// Panics if `endurance` or `sigma_frac` is not positive.
    #[must_use]
    pub fn wear_fault_rates(&self, endurance: f64, sigma_frac: f64) -> Vec<f64> {
        assert!(endurance > 0.0, "endurance must be positive");
        assert!(sigma_frac > 0.0, "sigma_frac must be positive");
        self.writes
            .iter()
            .map(|&w| {
                #[expect(clippy::as_conversions, reason = "wear counts ≪ 2^53, exact in f64")]
                let z = (w as f64 / endurance - 1.0) / sigma_frac;
                normal_cdf(z)
            })
            .collect()
    }

    /// [`WearLeveler::wear_fault_rates`] expanded to per-row rates:
    /// each block's rate is repeated `rows_per_block` times, matching
    /// the row-major layout `dual_fault::FaultPlan` expects.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_block == 0` (and as
    /// [`WearLeveler::wear_fault_rates`]).
    #[must_use]
    pub fn wear_row_rates(
        &self,
        endurance: f64,
        sigma_frac: f64,
        rows_per_block: usize,
    ) -> Vec<f64> {
        assert!(rows_per_block > 0, "need at least one row per block");
        let mut rows = Vec::with_capacity(self.writes.len() * rows_per_block);
        for rate in self.wear_fault_rates(endurance, sigma_frac) {
            rows.extend(std::iter::repeat_n(rate, rows_per_block));
        }
        rows
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (|error| < 1.5e-7, ample for lifetime projections).
#[must_use]
pub fn normal_cdf(z: f64) -> f64 {
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
        let mut leveled = WearLeveler::new(16);
        let mut unleveled = WearLeveler::new(16);
        for step in 0..2000u64 {
            let b = leveled.next_data_block();
            leveled.record_writes(b, 50 + step % 7);
            unleveled.record_writes(0, 50 + step % 7); // always the same block
        }
        assert!(leveled.imbalance() < 1.05, "{}", leveled.imbalance());
        assert!((unleveled.imbalance() - 16.0).abs() < 1e-9);
        // The leveled array lives ~16× longer.
        let life_l = leveled.projected_lifetime_years(1e10, 1000.0);
        let life_u = unleveled.projected_lifetime_years(1e10, 1000.0);
        assert!((life_l / life_u - 16.0).abs() < 1.0, "{}", life_l / life_u);
    }

    #[test]
    fn fresh_leveler_defaults() {
        let w = WearLeveler::new(4);
        assert_eq!(w.imbalance(), 1.0);
        assert_eq!(w.next_data_block(), 0);
        assert_eq!(w.projected_lifetime_years(1e10, 1.0), f64::INFINITY);
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
