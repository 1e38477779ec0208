//! One crossbar memory block: storage + CAM search + NOR arithmetic.
//!
//! A block is a 1k×1k memristive crossbar (§VI) that operates in three
//! modes on the *same* cells — storage, content-addressable search, and
//! MAGIC NOR arithmetic — which is the property that lets DUAL keep data
//! in place for the entire clustering run.

use crate::cam::{self, Detection, MlDischargeModel, SamplingSchedule};
use crate::nor::NorEngine;
use crate::PimError;

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

    /// Replace the CAM sampling schedule (ablations).
    #[must_use]
    pub fn with_schedule(mut self, schedule: SamplingSchedule) -> Self {
        self.schedule = schedule;
        self
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

    /// The active sampling schedule.
    #[must_use]
    pub fn schedule(&self) -> SamplingSchedule {
        self.schedule
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

    /// Read `width` bits of row `r` starting at column 0.
    ///
    /// # Panics
    ///
    /// Panics if the row or width is out of range.
    #[must_use]
    pub fn read_row_bits(&self, r: usize, width: usize) -> Vec<bool> {
        assert!(width <= self.cols(), "width overruns block");
        (0..width).map(|c| self.engine.bit(r, c)).collect()
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

    /// Detailed window search exposing [`Detection`] per row (for
    /// sampling-schedule studies).
    ///
    /// # Panics
    ///
    /// As [`MemoryBlock::cam_hamming_window`].
    #[must_use]
    pub fn cam_hamming_window_detections(
        &self,
        query: &[bool],
        start_col: usize,
    ) -> Vec<Detection> {
        assert!(!query.is_empty() && query.len() <= 7);
        assert!(start_col + query.len() <= self.cols());
        let w = query.len() as u32;
        (0..self.rows())
            .map(|r| {
                let mismatches = query
                    .iter()
                    .enumerate()
                    .filter(|&(k, &q)| self.engine.bit(r, start_col + k) != q)
                    .count() as u32;
                self.schedule.detect(self.discharge, mismatches, w)
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

    /// The CAM's *native* exact-match search (§IV-A): all rows whose
    /// window starting at `start_col` equals `query` exactly — the rows
    /// whose match lines never discharge. One search cycle regardless of
    /// the number of matches.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or overruns the block columns.
    #[must_use]
    pub fn cam_exact_match(&self, query: &[bool], start_col: usize) -> Vec<usize> {
        assert!(!query.is_empty(), "query must be non-empty");
        assert!(
            start_col + query.len() <= self.cols(),
            "window overruns block"
        );
        (0..self.rows())
            .filter(|&r| {
                query
                    .iter()
                    .enumerate()
                    .all(|(k, &q)| self.engine.bit(r, start_col + k) == q)
            })
            .collect()
    }

    /// Nearest-value search over an integer field stored little-endian
    /// in `cols`, honoring the `active` row mask (§IV-A2). Returns the
    /// winning `(row, value)`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::OutOfRange`] for bad columns or
    /// [`PimError::InvalidParameter`] when `active` has the wrong
    /// length.
    pub fn nearest_search_field(
        &self,
        cols: &[usize],
        active: &[bool],
        query: u64,
    ) -> Result<Option<(usize, u64)>, PimError> {
        if active.len() != self.rows() {
            return Err(PimError::InvalidParameter {
                name: "active",
                reason: "mask must have one entry per row",
            });
        }
        let values = self.engine.read_field_all(cols)?;
        Ok(cam::nearest_search(
            &values,
            active,
            query,
            cols.len() as u32,
            4,
        ))
    }

    /// Fault-aware window search: every stored bit is read through
    /// `plan` at `epoch` (and majority-voted over `reads` re-reads
    /// when `reads > 1`) before the match lines are sensed. With a
    /// fault-free plan this is exactly [`MemoryBlock::cam_hamming_window`].
    ///
    /// # Panics
    ///
    /// As [`MemoryBlock::cam_hamming_window`].
    #[must_use]
    pub fn cam_hamming_window_faulty(
        &self,
        query: &[bool],
        start_col: usize,
        plan: &dual_fault::FaultPlan,
        epoch: u64,
        reads: u32,
    ) -> Vec<u8> {
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
                    .filter(|&(k, &q)| {
                        let col = start_col + k;
                        let stored = self.engine.bit(r, col);
                        let seen = if reads > 1 {
                            dual_fault::majority_read_bit(plan, r, col, stored, epoch, reads)
                        } else {
                            plan.read_bit(r, col, stored, epoch)
                        };
                        seen != q
                    })
                    .count() as u32;
                self.schedule
                    .detect(self.discharge, mismatches, w)
                    .reported()
            })
            .collect()
    }

    /// Fault-aware full Hamming distance: the window sweep of
    /// [`MemoryBlock::cam_hamming_distance`] with every stored bit read
    /// through `plan`. Window `i` reads at epoch `epoch + i` so
    /// re-sweeps redraw transient flips.
    ///
    /// # Panics
    ///
    /// Panics if `query` is empty or wider than the block.
    #[must_use]
    pub fn cam_hamming_distance_faulty(
        &self,
        query: &[bool],
        plan: &dual_fault::FaultPlan,
        epoch: u64,
        reads: u32,
    ) -> (Vec<u64>, u32) {
        assert!(!query.is_empty() && query.len() <= self.cols());
        let mut totals = vec![0u64; self.rows()];
        let mut windows = 0u32;
        let mut start = 0usize;
        while start < query.len() {
            let end = (start + 7).min(query.len());
            let counts = self.cam_hamming_window_faulty(
                &query[start..end],
                start,
                plan,
                epoch.wrapping_add(u64::from(windows)),
                reads,
            );
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += u64::from(c);
            }
            windows += 1;
            start = end;
        }
        (totals, windows)
    }
}

/// Corrupting a block pulls the plan's permanent faults into the
/// underlying [`NorEngine`] storage (dead rows zeroed, stuck cells
/// snapped); the CAM sampling schedule and discharge model are
/// unaffected.
impl dual_fault::Corruptible for MemoryBlock {
    fn corrupt(&mut self, plan: &dual_fault::FaultPlan) -> dual_fault::InjectionReport {
        self.engine.corrupt(plan)
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
        assert_eq!(b.read_row_bits(2, 32), bits);
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
    fn faulty_window_matches_clean_one_under_clean_plan() {
        use dual_fault::FaultPlan;
        let mut b = MemoryBlock::new(3, 16);
        b.write_row_bits(0, &[true, true, true, true, true, true, true]);
        b.write_row_bits(1, &[true, false, true, false, true, false, true]);
        b.write_row_bits(2, &[false; 7]);
        let q = vec![true; 7];
        let plan = FaultPlan::fault_free(3, 16);
        for epoch in [0, 7, 99] {
            assert_eq!(
                b.cam_hamming_window_faulty(&q, 0, &plan, epoch, 1),
                b.cam_hamming_window(&q, 0)
            );
        }
        let (clean, w1) = b.cam_hamming_distance(&q);
        let (faulty, w2) = b.cam_hamming_distance_faulty(&q, &plan, 3, 3);
        assert_eq!((clean, w1), (faulty, w2));
    }

    #[test]
    fn dead_row_dominates_faulty_search_and_corrupt_persists() {
        use dual_fault::{Corruptible, FaultPlan};
        let mut b = MemoryBlock::new(3, 16);
        b.write_row_bits(0, &[true; 7]);
        b.write_row_bits(1, &[true; 7]);
        b.write_row_bits(2, &[true; 7]);
        let plan = FaultPlan::fault_free(3, 16).with_dead_row(1).unwrap();
        let q = vec![true; 7];
        // Read path: the dead row reads zeros, so it mismatches fully.
        assert_eq!(
            b.cam_hamming_window_faulty(&q, 0, &plan, 0, 1),
            vec![0, 7, 0]
        );
        // Write path: corruption makes the damage persistent.
        let report = b.corrupt(&plan);
        assert_eq!(report.rows_dead, 1);
        assert_eq!(b.cam_hamming_window(&q, 0), vec![0, 7, 0]);
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
        let mut b = MemoryBlock::new(2, 8).with_schedule(SamplingSchedule::linear_200ps());
        b.write_row_bits(0, &[true, true, false, false, false, false, false]); // 5 mismatches vs all-ones
        b.write_row_bits(1, &[true, false, false, false, false, false, false]); // 6 mismatches
        let q = vec![true; 7];
        let counts = b.cam_hamming_window(&q, 0);
        // Linear sampling cannot separate 5 from 6 mismatches: both
        // report the conservative bound.
        assert_eq!(counts[0], counts[1]);
        // The detailed API confirms ambiguity.
        let det = b.cam_hamming_window_detections(&q, 0);
        assert!(det.iter().any(|d| !d.is_exact()));
    }

    #[test]
    fn nearest_field_search_min() {
        let mut b = MemoryBlock::new(4, 16);
        let cols: Vec<usize> = (0..8).collect();
        b.nor_engine_mut()
            .write_field_all(&cols, &[40, 7, 99, 7])
            .unwrap();
        let got = b
            .nearest_search_field(&cols, &[true; 4], 0)
            .unwrap()
            .unwrap();
        assert_eq!(got, (1, 7));
        // Masked-out winner falls through to the next row.
        let got = b
            .nearest_search_field(&cols, &[true, false, true, true], 0)
            .unwrap()
            .unwrap();
        assert_eq!(got, (3, 7));
        assert!(b.nearest_search_field(&cols, &[true; 3], 0).is_err());
    }

    #[test]
    fn exact_match_finds_identical_rows() {
        let mut b = MemoryBlock::new(4, 16);
        b.write_row_bits(0, &[true, false, true]);
        b.write_row_bits(1, &[true, true, true]);
        b.write_row_bits(2, &[true, false, true]);
        b.write_row_bits(3, &[false, false, true]);
        assert_eq!(b.cam_exact_match(&[true, false, true], 0), vec![0, 2]);
        assert_eq!(
            b.cam_exact_match(&[false, true, false], 0),
            Vec::<usize>::new()
        );
        // Offset windows work too.
        assert_eq!(b.cam_exact_match(&[false, true], 1), vec![0, 2, 3]);
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
