//! One crossbar memory block: storage + CAM search + NOR arithmetic.
//!
//! A block is a 1k×1k memristive crossbar (§VI) that operates in three
//! modes on the *same* cells — storage, content-addressable search, and
//! MAGIC NOR arithmetic — which is the property that lets DUAL keep data
//! in place for the entire clustering run.

use crate::cam::{MlDischargeModel, SamplingSchedule};
use crate::nor::NorEngine;

/// A single crossbar memory block.
///
/// Geometry is configurable so tests can use small blocks; the paper's
/// block is [`MemoryBlock::paper`] (1024×1024, one megabit).
///
/// See the crate-level example for the CAM search mode, and
/// [`MemoryBlock::nor_engine_mut`] for arithmetic.
#[derive(Debug, Clone)]
pub struct MemoryBlock {
    engine: NorEngine,
    schedule: SamplingSchedule,
    discharge: MlDischargeModel,
}

impl MemoryBlock {
    /// Create a `rows × cols` block with the paper's non-linear CAM
    /// sampling schedule.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "block geometry must be non-zero");
        #[expect(
            clippy::expect_used,
            reason = "NorEngine::new only fails on zero dimensions, asserted above"
        )]
        let engine = NorEngine::new(rows, cols).expect("unreachable: dimensions asserted non-zero");
        Self {
            engine,
            schedule: SamplingSchedule::paper(),
            discharge: MlDischargeModel::paper(),
        }
    }

    /// The paper's 1k×1k block.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(1024, 1024)
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.engine.rows()
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.engine.n_cols()
    }

    /// Borrow the NOR arithmetic engine backing this block.
    #[must_use]
    pub fn nor_engine(&self) -> &NorEngine {
        &self.engine
    }

    /// Mutably borrow the NOR arithmetic engine (arithmetic mode).
    #[must_use]
    pub fn nor_engine_mut(&mut self) -> &mut NorEngine {
        &mut self.engine
    }

    /// Write `bits` into row `r` starting at column 0.
    ///
    /// # Panics
    ///
    /// Panics if the row is out of range or `bits` is wider than the
    /// block.
    pub fn write_row_bits(&mut self, r: usize, bits: &[bool]) {
        assert!(bits.len() <= self.cols(), "row data wider than block");
        for (c, &b) in bits.iter().enumerate() {
            self.engine.write_bit(r, c, b);
        }
    }

    /// CAM mode: one Hamming window search (§IV-A1). Compares
    /// `query.len() ≤ 7` bits starting at `start_col` against every row
    /// simultaneously and returns the mismatch count each row's sense
    /// amplifier reports under the configured sampling schedule.
    ///
    /// With the paper's non-linear schedule the counts are exact; with a
    /// linear schedule wide windows may alias (the Fig. 4c limitation)
    /// and the reported count is the conservative lower bound.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty, wider than 7 bits, or overruns the
    /// block columns.
    #[must_use]
    pub fn cam_hamming_window(&self, query: &[bool], start_col: usize) -> Vec<u8> {
        assert!(
            !query.is_empty() && query.len() <= 7,
            "hardware windows are 1..=7 bits"
        );
        assert!(
            start_col + query.len() <= self.cols(),
            "window overruns block"
        );
        let w = query.len() as u32;
        (0..self.rows())
            .map(|r| {
                let mismatches = query
                    .iter()
                    .enumerate()
                    .filter(|&(k, &q)| self.engine.bit(r, start_col + k) != q)
                    .count() as u32;
                self.schedule
                    .detect(self.discharge, mismatches, w)
                    .reported()
            })
            .collect()
    }

    /// Full Hamming distance of `query` against every row: serial sweep
    /// of 7-bit windows (§V-B) accumulating the per-window counts — the
    /// data-block primitive of the clustering pipeline.
    ///
    /// Returns the distance per row, plus the number of window searches
    /// performed (for cost accounting: `⌈query.len()/7⌉`).
    ///
    /// # Panics
    ///
    /// Panics if `query` is empty or wider than the block.
    #[must_use]
    pub fn cam_hamming_distance(&self, query: &[bool]) -> (Vec<u64>, u32) {
        assert!(!query.is_empty() && query.len() <= self.cols());
        let mut totals = vec![0u64; self.rows()];
        let mut windows = 0u32;
        let mut start = 0usize;
        while start < query.len() {
            let end = (start + 7).min(query.len());
            let counts = self.cam_hamming_window(&query[start..end], start);
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += u64::from(c);
            }
            windows += 1;
            start = end;
        }
        (totals, windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_block_is_one_megabit() {
        let b = MemoryBlock::paper();
        assert_eq!(b.rows() * b.cols(), 1 << 20);
    }

    #[test]
    fn row_roundtrip() {
        let mut b = MemoryBlock::new(4, 32);
        let bits: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        b.write_row_bits(2, &bits);
        let read: Vec<bool> = (0..32).map(|c| b.nor_engine().bit(2, c)).collect();
        assert_eq!(read, bits);
    }

    #[test]
    fn hamming_window_counts_mismatches() {
        let mut b = MemoryBlock::new(3, 16);
        b.write_row_bits(0, &[true, true, true, true, true, true, true]);
        b.write_row_bits(1, &[true, false, true, false, true, false, true]);
        b.write_row_bits(2, &[false; 7]);
        let q = vec![true; 7];
        assert_eq!(b.cam_hamming_window(&q, 0), vec![0, 3, 7]);
    }

    #[test]
    fn full_distance_sweeps_windows() {
        let mut b = MemoryBlock::new(2, 32);
        let stored: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        b.write_row_bits(0, &stored);
        b.write_row_bits(1, &[false; 20]);
        let query: Vec<bool> = (0..20).map(|i| i % 4 == 0).collect();
        let (d, windows) = b.cam_hamming_distance(&query);
        assert_eq!(windows, 3); // 7 + 7 + 6
        let expect0 = stored.iter().zip(&query).filter(|(a, b)| a != b).count() as u64;
        let expect1 = query.iter().filter(|&&q| q).count() as u64;
        assert_eq!(d, vec![expect0, expect1]);
    }

    #[test]
    fn linear_schedule_aliases_wide_windows() {
        let mut b = MemoryBlock::new(2, 8);
        b.schedule = SamplingSchedule::linear_200ps();
        b.write_row_bits(0, &[true, true, false, false, false, false, false]); // 5 mismatches vs all-ones
        b.write_row_bits(1, &[true, false, false, false, false, false, false]); // 6 mismatches
                                                                                // Linear sampling cannot separate 5 from 6 mismatches: both
                                                                                // report the conservative bound.
        let counts = b.cam_hamming_window(&[true; 7], 0);
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    #[should_panic(expected = "1..=7")]
    fn window_wider_than_seven_panics() {
        let b = MemoryBlock::new(2, 16);
        let _ = b.cam_hamming_window(&[true; 8], 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_block_distance_equals_software_hamming(
            rows in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 24), 1..6),
            query in proptest::collection::vec(any::<bool>(), 24),
        ) {
            // The in-memory search must agree exactly with a software
            // XOR/popcount — the algorithm/hardware equivalence DUAL
            // relies on.
            let mut b = MemoryBlock::new(rows.len(), 24);
            for (r, bits) in rows.iter().enumerate() {
                b.write_row_bits(r, bits);
            }
            let (d, _) = b.cam_hamming_distance(&query);
            for (r, bits) in rows.iter().enumerate() {
                let sw = bits.iter().zip(&query).filter(|(a, b)| a != b).count() as u64;
                prop_assert_eq!(d[r], sw);
            }
        }
    }
}
