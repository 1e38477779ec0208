//! The chip-cost vocabulary: the search widths, the counts derived from
//! them, and each pipeline phase's Table III op list, written once.
//!
//! `dual_core::PerfModel` prices whole runs from these lists, the stream
//! engine records them per micro-batch on its `StreamMeter`, and the ISA
//! runtime and verifier name the same widths. A list carries counts
//! only, `(op, count)` rows in a fixed order; each caller keeps its own
//! grouping and float-summation order when it prices or records them.
//!
//! ```rust
//! use dual_pim::{encode_ops, windows, CostModel};
//!
//! assert_eq!(windows(4000), 572);
//! let (ns, pj) = CostModel::paper().price(&encode_ops(784));
//! assert!(ns > 0.0 && pj > 0.0);
//! ```

#![deny(clippy::as_conversions)]

use crate::arch::ChipConfig;
use crate::cost::{CostModel, Op};

/// Bits one Hamming window search compares (Table III, §IV-A1).
pub const WINDOW_BITS: usize = 7;

/// Bits one nearest-search stage resolves (Table III, §IV-A2).
pub const STAGE_BITS: u32 = 4;

/// Hamming windows one full search over `dim`-bit vectors sweeps:
/// `⌈dim / 7⌉`.
#[must_use]
pub fn windows(dim: usize) -> u64 {
    u64::try_from(dim.div_ceil(WINDOW_BITS)).unwrap_or(u64::MAX)
}

/// Width of a Hamming distance over `dim`-bit vectors: `⌈log₂(dim+1)⌉`,
/// at least 1.
#[must_use]
pub fn distance_bits(dim: usize) -> u32 {
    (usize::BITS - dim.leading_zeros()).max(1)
}

/// Stages of one nearest search over `bits`-wide values: `⌈bits / 4⌉`.
#[must_use]
pub fn nearest_stages(bits: u32) -> u32 {
    bits.div_ceil(STAGE_BITS)
}

/// Crossbar blocks that `rows` rows (hypervector dimensions or stored
/// sub-centroids) spread over on the paper's chip: `⌈rows / 1024⌉`, at
/// least 1.
#[must_use]
pub fn blocks(rows: usize) -> usize {
    rows.div_ceil(ChipConfig::paper().rows).max(1)
}

/// HD-Mapper encode, per point with `features` inputs (§V-A): the serial
/// 8-bit multiplies, a `⌈log₂ m⌉`-deep 16-bit add tree, then the 3-term
/// Taylor cosine's four 16-bit multiplies (two squarings, two constant
/// multiplies) and three-add chain. Every row is issued on each row
/// block of the hypervector.
#[must_use]
pub fn encode_ops(features: usize) -> [(Op, u64); 4] {
    let m = u64::try_from(features).unwrap_or(u64::MAX);
    let log_m = u64::from(features.max(2).next_power_of_two().trailing_zeros());
    [
        (Op::Mul { bits: 8 }, m),
        (Op::Add { bits: 16 }, log_m),
        (Op::Mul { bits: 16 }, 4),
        (Op::Add { bits: 16 }, 3),
    ]
}

/// Stream assignment, per query over `dim`-bit vectors (§IV-A): every
/// window swept `reads` times (a majority re-read repeats the sweep),
/// then a staged nearest search over the distance bits. Both rows are
/// issued on each block storing sub-centroid rows.
#[must_use]
pub fn assign_ops(dim: usize, reads: u64) -> [(Op, u64); 2] {
    let stages = u64::from(nearest_stages(distance_bits(dim)));
    [
        (Op::HammingWindow, windows(dim) * reads),
        (Op::NearestStage, stages),
    ]
}

/// Stream centroid update over `dim`-bit vectors (§VI-C): the first row
/// is per point, a 16-bit counter add issued on each row block of the
/// hypervector; the second is per re-binarized sub-centroid, a serial
/// `dim`-column write.
#[must_use]
pub fn update_ops(dim: usize) -> [(Op, u64); 2] {
    let bits = u32::try_from(dim).unwrap_or(u32::MAX);
    [(Op::Add { bits: 16 }, 1), (Op::Write { bits }, 1)]
}

/// One row-parallel Ward distance-update kernel (§V-D) with `size`-,
/// `coeff`- and `dist`-bit columns: two size writes, three size
/// additions, three coefficient divisions and multiplies, two distance
/// additions and two distance write-backs.
#[must_use]
pub fn ward_update_ops(size: u32, coeff: u32, dist: u32) -> [(Op, u64); 6] {
    [
        (Op::Write { bits: size }, 2),
        (Op::Add { bits: size }, 3),
        (Op::Div { bits: coeff }, 3),
        (Op::Mul { bits: coeff }, 3),
        (Op::Add { bits: dist }, 2),
        (Op::Write { bits: dist }, 2),
    ]
}

impl CostModel {
    /// Price `rows` as serial issues: `(Σ count × latency ns,
    /// Σ count × energy pJ)`, each sum taken in the order given.
    #[must_use]
    #[expect(clippy::as_conversions, reason = "op counts ≪ 2^53, exact in f64")]
    pub fn price(&self, rows: &[(Op, u64)]) -> (f64, f64) {
        rows.iter().fold((0.0, 0.0), |(ns, pj), &(op, count)| {
            let count = count as f64;
            (
                ns + count * self.latency_ns(op),
                pj + count * self.energy_pj(op),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_window_counts_round_up() {
        assert_eq!(
            [blocks(0), blocks(1024), blocks(1025), blocks(4000)],
            [1, 1, 2, 4]
        );
        assert_eq!([windows(7), windows(8), windows(4000)], [1, 2, 572]);
    }

    #[test]
    fn encode_tree_depth_is_the_float_ceiling_log() {
        // `PerfModel` priced the tree as `(m.max(2) as f64).log2().ceil()`
        // before the list was shared; the integer depth must equal it.
        for m in 1..5000u32 {
            let (op, depth) = encode_ops(m.try_into().unwrap())[1];
            assert_eq!(op, Op::Add { bits: 16 });
            let depth = f64::from(u32::try_from(depth).unwrap());
            assert_eq!(depth, f64::from(m.max(2)).log2().ceil(), "m {m}");
        }
    }

    #[test]
    fn price_sums_rows_in_order() {
        let c = CostModel::paper();
        let (ns, pj) = c.price(&[(Op::HammingWindow, 2), (Op::NearestStage, 3)]);
        let want_ns = 2.0 * c.latency_ns(Op::HammingWindow) + 3.0 * c.latency_ns(Op::NearestStage);
        let want_pj = 2.0 * c.energy_pj(Op::HammingWindow) + 3.0 * c.energy_pj(Op::NearestStage);
        assert_eq!(
            (ns.to_bits(), pj.to_bits()),
            (want_ns.to_bits(), want_pj.to_bits())
        );
        assert_eq!(c.price(&[]), (0.0, 0.0));
    }
}
