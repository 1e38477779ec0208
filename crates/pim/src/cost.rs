//! Per-operation latency/energy/footprint model (Table III).
//!
//! All numbers anchor to the paper's HSPICE-measured 28 nm results for a
//! row-parallel operation on one 1k-row crossbar block:
//!
//! | operation          | size   | energy  | time      | memory       |
//! |--------------------|--------|---------|-----------|--------------|
//! | Hamming computing  | 7 bits | 1632 fJ | 200/100 ps| 3 bits/row   |
//! | Nearest search     | 4 bits | 1214 fJ | 200 ps    | 1 bit/row    |
//! | Addition           | 8 bit  | 2.3 pJ  | 98.4 ns   | 12 bits/row  |
//! | Multiplication     | 8 bit  | 67.7 pJ | 448.3 ns  | 155 bits/row |
//! | Division           | 8 bit  | 72.5 pJ | 561.4 ns  | 168 bits/row |
//! | Data transfer      | 1 bit  | 748 fJ  | 1.1 ns    | 1 bit/row    |
//!
//! Scaling beyond the anchored sizes follows the NOR microcode: addition
//! is linear in bit-width (ripple carry, ~12 NOR cycles/bit), while
//! multiplication and division are quadratic (shift-add partial
//! products / reciprocal-multiply). Search-based operations scale by the
//! number of windows/stages. The "200/100 ps" Hamming entry is the
//! non-linear sampling schedule of Fig. 4c: the first sample fires after
//! 200 ps and the remaining six at 100 ps spacing, so one full 7-bit
//! window sweep costs 800 ps.

#![deny(clippy::as_conversions)]

use crate::device::DeviceVariation;

/// One row-parallel PIM operation on a block, the unit of cost
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Op {
    /// One 7-bit Hamming window search over all rows (§IV-A1).
    HammingWindow,
    /// One 4-bit stage of the weighted nearest-value search (§IV-A2).
    NearestStage,
    /// Row-parallel addition of two `bits`-wide columnsets.
    Add {
        /// Operand bit-width.
        bits: u32,
    },
    /// Row-parallel subtraction (same microcode cost as addition plus a
    /// bitwise complement pass).
    Sub {
        /// Operand bit-width.
        bits: u32,
    },
    /// Row-parallel multiplication of two `bits`-wide columnsets.
    Mul {
        /// Operand bit-width.
        bits: u32,
    },
    /// Row-parallel division of two `bits`-wide columnsets.
    Div {
        /// Operand bit-width.
        bits: u32,
    },
    /// Bit-serial / row-parallel transfer of `bits` bit-columns over the
    /// tile interconnect.
    Transfer {
        /// Number of bit-columns moved.
        bits: u32,
    },
    /// Row-parallel write of `bits` bit-columns into NVM cells.
    Write {
        /// Number of bit-columns written.
        bits: u32,
    },
}

impl Op {
    /// The operation's [`dual_obs::OpFamily`] — its bit-width-erased
    /// label in the shared observability vocabulary. This is the single
    /// mapping from `dual_pim`'s op names onto exported metric names,
    /// so the `pim.op.<family>.issues` gauges agree with the rest of
    /// the workspace.
    #[must_use]
    pub fn family(self) -> dual_obs::OpFamily {
        match self {
            Self::HammingWindow => dual_obs::OpFamily::HammingWindow,
            Self::NearestStage => dual_obs::OpFamily::NearestStage,
            Self::Add { .. } => dual_obs::OpFamily::Add,
            Self::Sub { .. } => dual_obs::OpFamily::Sub,
            Self::Mul { .. } => dual_obs::OpFamily::Mul,
            Self::Div { .. } => dual_obs::OpFamily::Div,
            Self::Transfer { .. } => dual_obs::OpFamily::Transfer,
            Self::Write { .. } => dual_obs::OpFamily::Write,
        }
    }
}

/// Table III anchor constants (28 nm, 1k-row block).
mod anchor {
    /// Hamming 7-bit window energy, femtojoules.
    pub const HAMMING_FJ: f64 = 1632.0;
    /// First Hamming sample delay, ns.
    pub const HAMMING_FIRST_NS: f64 = 0.200;
    /// Subsequent Hamming sample delay, ns (non-linear schedule).
    pub const HAMMING_NEXT_NS: f64 = 0.100;
    /// Samples per 7-bit window (detects 0..=7 mismatches).
    pub const HAMMING_SAMPLES: u32 = 7;
    /// Nearest-search 4-bit stage energy, femtojoules.
    pub const NEAREST_FJ: f64 = 1214.0;
    /// Nearest-search 4-bit stage latency, ns.
    pub const NEAREST_NS: f64 = 0.200;
    /// 8-bit addition: energy pJ / latency ns / reserved bits.
    pub const ADD8: (f64, f64, f64) = (2.3, 98.4, 12.0);
    /// 8-bit multiplication anchors.
    pub const MUL8: (f64, f64, f64) = (67.7, 448.3, 155.0);
    /// 8-bit division anchors.
    pub const DIV8: (f64, f64, f64) = (72.5, 561.4, 168.0);
    /// 1-bit transfer: energy fJ / latency ns.
    pub const TRANSFER: (f64, f64) = (748.0, 1.1);
    /// NVM write latency per column, ns.
    pub const WRITE_NS: f64 = 1.0;
    /// Write energy per row-parallel column write, fJ — derived as the
    /// per-cycle energy of the NOR add microcode (2.3 pJ / 98.4 cycles),
    /// since a MAGIC cycle *is* a conditional write.
    pub const WRITE_FJ: f64 = 2300.0 / 98.4;
}

/// Cost model for row-parallel block operations, optionally derated for
/// device variation (§VIII-H).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    variation: DeviceVariation,
}

impl CostModel {
    /// Nominal (no-variation) model — the paper's main configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            variation: DeviceVariation::nominal(),
        }
    }

    /// Model derated for the given device variation.
    #[must_use]
    pub fn with_variation(variation: DeviceVariation) -> Self {
        Self { variation }
    }

    /// The variation this model is derated for.
    #[must_use]
    pub fn variation(&self) -> DeviceVariation {
        self.variation
    }

    /// Latency of one operation in nanoseconds.
    #[must_use]
    pub fn latency_ns(&self, op: Op) -> f64 {
        let search_scale = self.variation.search_sample_ps(200.0) / 200.0;
        let nor_scale = self.variation.nor_cycle_ns(1.0);
        match op {
            Op::HammingWindow => {
                (anchor::HAMMING_FIRST_NS
                    + anchor::HAMMING_NEXT_NS * f64::from(anchor::HAMMING_SAMPLES - 1))
                    * search_scale
            }
            Op::NearestStage => anchor::NEAREST_NS * search_scale,
            Op::Add { bits } | Op::Sub { bits } => {
                anchor::ADD8.1 * f64::from(bits) / 8.0 * nor_scale
            }
            Op::Mul { bits } => anchor::MUL8.1 * (f64::from(bits) / 8.0).powi(2) * nor_scale,
            Op::Div { bits } => anchor::DIV8.1 * (f64::from(bits) / 8.0).powi(2) * nor_scale,
            Op::Transfer { bits } => anchor::TRANSFER.1 * f64::from(bits),
            Op::Write { bits } => anchor::WRITE_NS * f64::from(bits) * nor_scale,
        }
    }

    /// Energy of one operation in picojoules.
    #[must_use]
    pub fn energy_pj(&self, op: Op) -> f64 {
        let derate = self.variation.energy_derating();
        let pj = match op {
            Op::HammingWindow => anchor::HAMMING_FJ / 1000.0,
            Op::NearestStage => anchor::NEAREST_FJ / 1000.0,
            Op::Add { bits } | Op::Sub { bits } => anchor::ADD8.0 * f64::from(bits) / 8.0,
            Op::Mul { bits } => anchor::MUL8.0 * (f64::from(bits) / 8.0).powi(2),
            Op::Div { bits } => anchor::DIV8.0 * (f64::from(bits) / 8.0).powi(2),
            Op::Transfer { bits } => anchor::TRANSFER.0 / 1000.0 * f64::from(bits),
            Op::Write { bits } => anchor::WRITE_FJ / 1000.0 * f64::from(bits),
        };
        pj * derate
    }

    /// Scratch columns the operation reserves per row (Table III,
    /// "required memory").
    #[must_use]
    pub fn reserved_bits_per_row(&self, op: Op) -> u32 {
        match op {
            Op::HammingWindow => 3,
            Op::NearestStage | Op::Transfer { .. } => 1,
            #[expect(
                clippy::as_conversions,
                reason = "ceil of a small positive column count, always well inside u32 range"
            )]
            Op::Add { bits } | Op::Sub { bits } => {
                (anchor::ADD8.2 * f64::from(bits) / 8.0).ceil() as u32
            }
            #[expect(
                clippy::as_conversions,
                reason = "ceil of a small positive column count"
            )]
            Op::Mul { bits } => (anchor::MUL8.2 * (f64::from(bits) / 8.0).powi(2)).ceil() as u32,
            #[expect(
                clippy::as_conversions,
                reason = "ceil of a small positive column count"
            )]
            Op::Div { bits } => (anchor::DIV8.2 * (f64::from(bits) / 8.0).powi(2)).ceil() as u32,
            Op::Write { .. } => 0,
        }
    }

    /// Rows of Table III as `(name, size, energy pJ, time ns, bits/row)`
    /// for the benchmark harness.
    #[must_use]
    pub fn table3(&self) -> Vec<(&'static str, &'static str, f64, f64, u32)> {
        let ops = [
            ("Hamming Computing", "7-bits", Op::HammingWindow),
            ("Nearest Search", "4-bits", Op::NearestStage),
            ("Addition", "8-bit", Op::Add { bits: 8 }),
            ("Multiplication", "8-bit", Op::Mul { bits: 8 }),
            ("Division", "8-bit", Op::Div { bits: 8 }),
            ("Data Transfer", "1-bit", Op::Transfer { bits: 1 }),
        ];
        ops.iter()
            .map(|&(name, size, op)| {
                (
                    name,
                    size,
                    self.energy_pj(op),
                    self.latency_ns(op),
                    self.reserved_bits_per_row(op),
                )
            })
            .collect()
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn anchors_match_table3() {
        let m = CostModel::paper();
        assert!((m.energy_pj(Op::HammingWindow) - 1.632).abs() < 1e-9);
        assert!((m.latency_ns(Op::HammingWindow) - 0.8).abs() < 1e-9);
        assert!((m.energy_pj(Op::NearestStage) - 1.214).abs() < 1e-9);
        assert!((m.latency_ns(Op::NearestStage) - 0.2).abs() < 1e-9);
        assert!((m.energy_pj(Op::Add { bits: 8 }) - 2.3).abs() < 1e-9);
        assert!((m.latency_ns(Op::Add { bits: 8 }) - 98.4).abs() < 1e-9);
        assert!((m.energy_pj(Op::Mul { bits: 8 }) - 67.7).abs() < 1e-9);
        assert!((m.latency_ns(Op::Mul { bits: 8 }) - 448.3).abs() < 1e-9);
        assert!((m.energy_pj(Op::Div { bits: 8 }) - 72.5).abs() < 1e-9);
        assert!((m.latency_ns(Op::Div { bits: 8 }) - 561.4).abs() < 1e-9);
        assert!((m.energy_pj(Op::Transfer { bits: 1 }) - 0.748).abs() < 1e-9);
        assert!((m.latency_ns(Op::Transfer { bits: 1 }) - 1.1).abs() < 1e-9);
    }

    #[test]
    fn reserved_bits_match_table3() {
        let m = CostModel::paper();
        assert_eq!(m.reserved_bits_per_row(Op::HammingWindow), 3);
        assert_eq!(m.reserved_bits_per_row(Op::NearestStage), 1);
        assert_eq!(m.reserved_bits_per_row(Op::Add { bits: 8 }), 12);
        assert_eq!(m.reserved_bits_per_row(Op::Mul { bits: 8 }), 155);
        assert_eq!(m.reserved_bits_per_row(Op::Div { bits: 8 }), 168);
        assert_eq!(m.reserved_bits_per_row(Op::Transfer { bits: 4 }), 1);
    }

    #[test]
    fn add_scales_linearly_mul_quadratically() {
        let m = CostModel::paper();
        let a8 = m.latency_ns(Op::Add { bits: 8 });
        let a32 = m.latency_ns(Op::Add { bits: 32 });
        assert!((a32 / a8 - 4.0).abs() < 1e-9);
        let m8 = m.latency_ns(Op::Mul { bits: 8 });
        let m32 = m.latency_ns(Op::Mul { bits: 32 });
        assert!((m32 / m8 - 16.0).abs() < 1e-9);
    }

    #[test]
    fn a_single_32bit_mul_is_slower_than_cmos_scale() {
        // §IV-B: a 32-bit PIM multiplication is ~60× slower than a CMOS
        // multiplier (~2 GHz pipelined, throughput ≈ several ns at
        // iso-latency). Our model puts it in the microseconds.
        let m = CostModel::paper();
        let t = m.latency_ns(Op::Mul { bits: 32 });
        assert!(t > 5_000.0 && t < 10_000.0, "got {t} ns");
    }

    #[test]
    fn variation_derates_latency_and_energy() {
        let worst = CostModel::with_variation(DeviceVariation::new(0.5));
        let nom = CostModel::paper();
        assert!(
            (worst.latency_ns(Op::NearestStage) / nom.latency_ns(Op::NearestStage) - 1.75).abs()
                < 1e-9
        );
        assert!(
            (worst.latency_ns(Op::Add { bits: 8 }) / nom.latency_ns(Op::Add { bits: 8 }) - 1.8)
                .abs()
                < 1e-9
        );
        assert!(worst.energy_pj(Op::HammingWindow) > nom.energy_pj(Op::HammingWindow));
    }

    #[test]
    fn table3_has_six_rows() {
        let rows = CostModel::paper().table3();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].0, "Hamming Computing");
    }

    proptest! {
        #[test]
        fn prop_costs_positive_and_monotone_in_bits(bits in 1u32..128) {
            let m = CostModel::paper();
            for op in [Op::Add { bits }, Op::Mul { bits }, Op::Div { bits },
                       Op::Transfer { bits }, Op::Write { bits }] {
                prop_assert!(m.latency_ns(op) > 0.0);
                prop_assert!(m.energy_pj(op) > 0.0);
            }
            let wider = bits + 1;
            let (add_w, add_n) = (m.latency_ns(Op::Add { bits: wider }), m.latency_ns(Op::Add { bits }));
            let (mul_w, mul_n) = (m.latency_ns(Op::Mul { bits: wider }), m.latency_ns(Op::Mul { bits }));
            prop_assert!(add_w > add_n);
            prop_assert!(mul_w > mul_n);
        }

        #[test]
        fn prop_div_costs_more_than_mul(bits in 1u32..64) {
            // Division = reciprocal + multiply, so it must dominate.
            let m = CostModel::paper();
            let (div_t, mul_t) = (m.latency_ns(Op::Div { bits }), m.latency_ns(Op::Mul { bits }));
            let (div_e, mul_e) = (m.energy_pj(Op::Div { bits }), m.energy_pj(Op::Mul { bits }));
            prop_assert!(div_t > mul_t);
            prop_assert!(div_e > mul_e);
        }
    }
}
