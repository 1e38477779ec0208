//! Memristor device model (VTEAM-parameterized, §VIII-A).
//!
//! The paper adopts the VTEAM memristor model with parameters chosen to
//! match practical bipolar resistive devices: 1 ns switching, 1 V RESET
//! and 2 V SET pulses, and an OFF/ON resistance ratio large enough that
//! the CAM match-line discharge stages are cleanly separable. This
//! module captures the thermal/process-variation derating of that
//! working point the paper analyzes in §VIII-H.

/// Derated operating point under device variation (§VIII-H).
///
/// Thermal and process variation shrink the effective `R_off/R_on`
/// ratio; to keep search and NOR results exact the controller stretches
/// the clocks. At the paper's worst case — 50 % variation, ratio ≈ 50 —
/// the search clock grows from 200 ps to 350 ps and the NOR cycle from
/// 1 ns to 1.8 ns, which at architecture level costs 1.83× performance
/// and 1.45× energy efficiency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceVariation {
    /// Fractional variation of the OFF/ON ratio, in `[0, 0.5]`.
    pub variation: f64,
}

impl DeviceVariation {
    /// Construct; values are clamped into `[0, 0.5]` (the paper's
    /// studied range).
    #[must_use]
    pub fn new(variation: f64) -> Self {
        Self {
            variation: variation.clamp(0.0, 0.5),
        }
    }

    /// No variation.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(0.0)
    }

    /// Required search sampling period in picoseconds.
    ///
    /// Linear interpolation between the two measured points the paper
    /// reports: 200 ps at 0 % and 350 ps at 50 % variation.
    #[must_use]
    pub fn search_sample_ps(&self, nominal_ps: f64) -> f64 {
        nominal_ps * (1.0 + self.variation * (350.0 / 200.0 - 1.0) / 0.5)
    }

    /// Required NOR cycle time in nanoseconds (1 ns → 1.8 ns at 50 %).
    #[must_use]
    pub fn nor_cycle_ns(&self, nominal_ns: f64) -> f64 {
        nominal_ns * (1.0 + self.variation * (1.8 - 1.0) / 0.5)
    }

    /// Architecture-level slowdown factor relative to nominal.
    ///
    /// Clustering time on DUAL is a mix of search-bound and NOR-bound
    /// phases; the paper reports the blended slowdown reaching 1.83× at
    /// 50 % variation. We interpolate on the variation fraction.
    #[must_use]
    pub fn performance_derating(&self) -> f64 {
        1.0 + self.variation * (1.83 - 1.0) / 0.5
    }

    /// Architecture-level energy-efficiency derating (1.45× at 50 %).
    #[must_use]
    pub fn energy_derating(&self) -> f64 {
        1.0 + self.variation * (1.45 - 1.0) / 0.5
    }
}

impl Default for DeviceVariation {
    fn default() -> Self {
        Self::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn worst_case_variation_matches_paper() {
        let v = DeviceVariation::new(0.5);
        assert!((v.search_sample_ps(200.0) - 350.0).abs() < 1e-9);
        assert!((v.nor_cycle_ns(1.0) - 1.8).abs() < 1e-9);
        assert!((v.performance_derating() - 1.83).abs() < 1e-9);
        assert!((v.energy_derating() - 1.45).abs() < 1e-9);
    }

    #[test]
    fn nominal_variation_is_identity() {
        let v = DeviceVariation::nominal();
        assert_eq!(v.search_sample_ps(200.0), 200.0);
        assert_eq!(v.nor_cycle_ns(1.0), 1.0);
        assert_eq!(v.performance_derating(), 1.0);
    }

    #[test]
    fn variation_is_clamped() {
        assert_eq!(DeviceVariation::new(2.0).variation, 0.5);
        assert_eq!(DeviceVariation::new(-1.0).variation, 0.0);
    }

    proptest! {
        #[test]
        fn prop_deratings_are_monotone(a in 0.0f64..0.5, b in 0.0f64..0.5) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let vl = DeviceVariation::new(lo);
            let vh = DeviceVariation::new(hi);
            prop_assert!(vl.performance_derating() <= vh.performance_derating());
            prop_assert!(vl.energy_derating() <= vh.energy_derating());
            prop_assert!(vl.nor_cycle_ns(1.0) <= vh.nor_cycle_ns(1.0));
        }
    }
}
