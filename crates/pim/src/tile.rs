//! Tiles: lazily materialized grids of crossbar blocks sharing a row
//! interconnect and per-block 3-bit counters (§VI, Fig. 8).

use crate::arch::ChipConfig;
use crate::block::MemoryBlock;
use crate::PimError;
use std::collections::BTreeMap;

/// Whether the per-block 3-bit counters are present (ablation switch for
/// the Fig. 12 "no counter" bars).
///
/// With counters, the sense results of a Hamming window are latched in a
/// register and the 3-bit distance is written to the distance block in a
/// single row-parallel write per distinct counter value. Without them,
/// every sampling step must serialize an NVM write (1 ns each), which
/// slows Hamming computing by roughly the ratio of write latency to
/// sampling period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CounterMode {
    /// The paper's design: one 3-bit counter + 7-bit register per block.
    #[default]
    Enabled,
    /// Ablation: distances written back sample-by-sample.
    Disabled,
}

impl CounterMode {
    /// Row-parallel NVM writes needed to commit one 7-bit window's
    /// distance result to the distance block.
    ///
    /// Enabled: the 3-bit counter value is written once per distinct
    /// sampling level that saw discharges — amortized ≈ 3 column writes.
    /// Disabled: each of the 7 sampling steps serializes a 3-bit write.
    #[must_use]
    pub fn writeback_columns(self) -> u32 {
        match self {
            Self::Enabled => 3,
            Self::Disabled => 21,
        }
    }
}

/// One tile: a square grid of blocks created on demand.
///
/// The paper's tile is 16×16 blocks; in each row the first block acts as
/// the *data block* and the rest as *distance blocks* (Fig. 8). The
/// functional model materializes only blocks that are touched, so tests
/// can instantiate the paper geometry without allocating 32 MB.
#[derive(Debug, Clone)]
pub struct Tile {
    config: ChipConfig,
    blocks: BTreeMap<usize, MemoryBlock>,
}

impl Tile {
    /// Create an empty tile with the given geometry.
    #[must_use]
    pub fn new(config: ChipConfig) -> Self {
        Self {
            config,
            blocks: BTreeMap::new(),
        }
    }

    /// The tile geometry.
    #[must_use]
    pub fn config(&self) -> ChipConfig {
        self.config
    }

    /// Number of blocks materialized so far.
    #[must_use]
    pub fn materialized_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Access block `idx`, materializing it on first touch.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::OutOfRange`] when `idx` exceeds the tile's
    /// block count.
    pub fn block_mut(&mut self, idx: usize) -> Result<&mut MemoryBlock, PimError> {
        if idx >= self.config.blocks_per_tile {
            return Err(PimError::OutOfRange {
                what: "block",
                index: idx,
                bound: self.config.blocks_per_tile,
            });
        }
        let (rows, cols) = (self.config.rows, self.config.cols);
        Ok(self
            .blocks
            .entry(idx)
            .or_insert_with(|| MemoryBlock::new(rows, cols)))
    }

    /// Access block `idx` immutably if it has been materialized.
    #[must_use]
    pub fn block(&self, idx: usize) -> Option<&MemoryBlock> {
        self.blocks.get(&idx)
    }

    /// Functional row-parallel transfer: copy `width` columns starting
    /// at `src_col` of block `src` into `dst_col` of block `dst`
    /// (the interconnect's data path; costs are accounted separately by
    /// [`crate::interconnect::Interconnect`]).
    ///
    /// # Errors
    ///
    /// Propagates range errors for blocks and columns.
    pub fn transfer_columns(
        &mut self,
        src: usize,
        src_col: usize,
        dst: usize,
        dst_col: usize,
        width: usize,
    ) -> Result<(), PimError> {
        if src == dst {
            return Err(PimError::InvalidParameter {
                name: "dst",
                reason: "transfer requires distinct blocks",
            });
        }
        let rows = self.config.rows;
        // Read out of the source…
        let mut payload: Vec<Vec<bool>> = Vec::with_capacity(width);
        {
            let s = self.block_mut(src)?;
            for w in 0..width {
                let col = src_col + w;
                let bits: Result<Vec<bool>, PimError> =
                    (0..rows).map(|r| s.nor_engine().get_bit(r, col)).collect();
                payload.push(bits?);
            }
        }
        // …and write into the destination.
        let d = self.block_mut(dst)?;
        for (w, bits) in payload.iter().enumerate() {
            for (r, &b) in bits.iter().enumerate() {
                d.nor_engine_mut().set_bit(r, dst_col + w, b)?;
            }
        }
        Ok(())
    }
}

/// Functional model of the Fig. 8B Hamming data path within one tile
/// row: the data block's CAM searches a 7-bit window, the 3-bit counter
/// walks the sampling clock, the 7-bit register latches which rows
/// discharged at each sample, and the counter value is written
/// row-parallel into the distance block over the row interconnect.
///
/// This is the cycle-faithful counterpart of the analytic
/// `window_eff_ns` model: a test drives a full query through it and
/// checks the distance block ends up holding exactly the software
/// Hamming distances.
#[derive(Debug)]
pub struct HammingDatapath<'t> {
    tile: &'t mut Tile,
    /// Index of the data block within the tile.
    pub data_block: usize,
    /// Index of the distance block receiving results.
    pub distance_block: usize,
}

impl<'t> HammingDatapath<'t> {
    /// Bind a data/distance block pair in one tile.
    ///
    /// # Errors
    ///
    /// Propagates block-range errors; the blocks must be distinct.
    pub fn new(
        tile: &'t mut Tile,
        data_block: usize,
        distance_block: usize,
    ) -> Result<Self, PimError> {
        if data_block == distance_block {
            return Err(PimError::InvalidParameter {
                name: "distance_block",
                reason: "data and distance blocks must differ",
            });
        }
        // Materialize both blocks up front.
        tile.block_mut(data_block)?;
        tile.block_mut(distance_block)?;
        Ok(Self {
            tile,
            data_block,
            distance_block,
        })
    }

    /// Run one full-vector Hamming query: serial 7-bit window sweeps on
    /// the data block, each window's per-row counts committed to the
    /// distance block as 3-bit fields (window `w` lands at columns
    /// `3w..3w+3`), exactly as §IV-A1 describes. Returns the number of
    /// windows processed.
    ///
    /// # Errors
    ///
    /// [`PimError::InvalidParameter`] when the query is empty, wider
    /// than the data block, or its `⌈len/7⌉ × 3` bits of results do not
    /// fit the distance block's columns.
    pub fn run_query(&mut self, query: &[bool]) -> Result<u32, PimError> {
        let cfg = self.tile.config();
        if query.is_empty() || query.len() > cfg.cols {
            return Err(PimError::InvalidParameter {
                name: "query",
                reason: "query must be 1..=block-width bits",
            });
        }
        let windows = query.len().div_ceil(7);
        if windows * 3 > cfg.cols {
            return Err(PimError::InvalidParameter {
                name: "query",
                reason: "distance block cannot hold the 3-bit partials",
            });
        }
        for w in 0..windows {
            let start = w * 7;
            let end = (start + 7).min(query.len());
            // CAM search: per-row mismatch counts for this window.
            let counts = {
                let data = self.tile.block_mut(self.data_block)?;
                data.cam_hamming_window(&query[start..end], start)
            };
            // Counter walk: for each counter value, activate the rows
            // that discharged at that sampling level and write the
            // counter row-parallel (one write per distinct level).
            let dist = self.tile.block_mut(self.distance_block)?;
            for level in 0..=7u8 {
                let rows: Vec<usize> = counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c == level)
                    .map(|(r, _)| r)
                    .collect();
                for r in rows {
                    for bit in 0..3 {
                        dist.nor_engine_mut()
                            .set_bit(r, w * 3 + bit, (level >> bit) & 1 == 1)?;
                    }
                }
            }
        }
        Ok(windows as u32)
    }

    /// Read the accumulated distance of every row from the 3-bit
    /// partials stored in the distance block.
    ///
    /// # Errors
    ///
    /// Propagates range errors.
    pub fn read_distances(&mut self, windows: u32) -> Result<Vec<u64>, PimError> {
        let rows = self.tile.config().rows;
        let dist = self.tile.block_mut(self.distance_block)?;
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let mut total = 0u64;
            for w in 0..windows as usize {
                let mut v = 0u64;
                for bit in 0..3 {
                    if dist.nor_engine().get_bit(r, w * 3 + bit)? {
                        v |= 1 << bit;
                    }
                }
                total += v;
            }
            out.push(total);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_datapath_reproduces_software_distances() {
        let mut t = Tile::new(ChipConfig::tiny());
        let stored: Vec<Vec<bool>> = (0..8)
            .map(|r| (0..40).map(|b| (b * 3 + r) % 5 == 0).collect())
            .collect();
        {
            let data = t.block_mut(0).unwrap();
            for (r, bits) in stored.iter().enumerate() {
                data.write_row_bits(r, bits);
            }
        }
        let query: Vec<bool> = (0..40).map(|b| b % 2 == 0).collect();
        let mut dp = HammingDatapath::new(&mut t, 0, 1).unwrap();
        let windows = dp.run_query(&query).unwrap();
        assert_eq!(windows, 6);
        let got = dp.read_distances(windows).unwrap();
        for (r, bits) in stored.iter().enumerate() {
            let sw = bits.iter().zip(&query).filter(|(a, b)| a != b).count() as u64;
            assert_eq!(got[r], sw, "row {r}");
        }
    }

    #[test]
    fn hamming_datapath_validates_inputs() {
        let mut t = Tile::new(ChipConfig::tiny());
        assert!(HammingDatapath::new(&mut t, 0, 0).is_err());
        let mut dp = HammingDatapath::new(&mut t, 0, 1).unwrap();
        assert!(dp.run_query(&[]).is_err());
        assert!(dp.run_query(&vec![true; 9999]).is_err());
    }

    #[test]
    fn counter_mode_writeback() {
        assert_eq!(CounterMode::Enabled.writeback_columns(), 3);
        assert!(
            CounterMode::Disabled.writeback_columns() > CounterMode::Enabled.writeback_columns()
        );
    }

    #[test]
    fn blocks_materialize_lazily() {
        let mut t = Tile::new(ChipConfig::tiny());
        assert_eq!(t.materialized_blocks(), 0);
        t.block_mut(0).unwrap();
        t.block_mut(3).unwrap();
        t.block_mut(0).unwrap();
        assert_eq!(t.materialized_blocks(), 2);
        assert!(t.block(1).is_none());
        assert!(t.block_mut(99).is_err());
    }

    #[test]
    fn transfer_moves_columns() {
        let mut t = Tile::new(ChipConfig::tiny());
        {
            let b = t.block_mut(0).unwrap();
            b.write_row_bits(0, &[true, false, true]);
            b.write_row_bits(1, &[false, true, true]);
        }
        t.transfer_columns(0, 0, 1, 4, 3).unwrap();
        let d = t.block(1).unwrap();
        assert_eq!(d.read_row_bits(0, 8)[4..7], [true, false, true]);
        assert_eq!(d.read_row_bits(1, 8)[4..7], [false, true, true]);
        assert!(t.transfer_columns(0, 0, 0, 4, 1).is_err());
    }
}
