//! Chip-level container: tiles plus cross-tile movement (§VI, Fig. 8A).
//!
//! The functional layer materializes tiles (and blocks within them)
//! lazily, so instantiating the paper's 64-tile geometry costs nothing
//! until blocks are touched. Inter-tile transfers ride the global
//! interconnect; their cost is priced by the same bit-serial transfer
//! model plus a documented hop factor.

use crate::arch::ChipConfig;
use crate::cost::{CostModel, Op};
use crate::tile::Tile;
use crate::PimError;
use std::collections::BTreeMap;

/// One DUAL chip: a lazily materialized grid of tiles.
#[derive(Debug, Clone)]
pub struct Chip {
    config: ChipConfig,
    // BTreeMap for deterministic tile iteration order.
    tiles: BTreeMap<usize, Tile>,
}

/// Inter-tile transfers traverse the chip-level interconnect; the
/// paper's circuit-level model makes them this factor slower than an
/// intra-tile row transfer.
pub const INTER_TILE_HOP_FACTOR: f64 = 4.0;

impl Chip {
    /// An empty chip with the given geometry.
    #[must_use]
    pub fn new(config: ChipConfig) -> Self {
        Self {
            config,
            tiles: BTreeMap::new(),
        }
    }

    /// The chip geometry.
    #[must_use]
    pub fn config(&self) -> ChipConfig {
        self.config
    }

    /// Tiles materialized so far.
    #[must_use]
    pub fn materialized_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Access tile `idx`, materializing it on first touch.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::OutOfRange`] when `idx ≥ tiles`.
    pub fn tile_mut(&mut self, idx: usize) -> Result<&mut Tile, PimError> {
        if idx >= self.config.tiles {
            return Err(PimError::OutOfRange {
                what: "tile",
                index: idx,
                bound: self.config.tiles,
            });
        }
        let cfg = self.config;
        Ok(self.tiles.entry(idx).or_insert_with(|| Tile::new(cfg)))
    }

    /// Functional cross-tile transfer: copy `width` columns of a block
    /// in one tile into a block of another tile, returning the modeled
    /// latency in nanoseconds.
    ///
    /// # Errors
    ///
    /// Propagates tile/block/column range errors; source and
    /// destination must name different tiles.
    #[expect(
        clippy::too_many_arguments,
        reason = "a transfer names source and destination tile, block and column"
    )]
    pub fn transfer_between_tiles(
        &mut self,
        cost: &CostModel,
        src_tile: usize,
        src_block: usize,
        src_col: usize,
        dst_tile: usize,
        dst_block: usize,
        dst_col: usize,
        width: usize,
    ) -> Result<f64, PimError> {
        if src_tile == dst_tile {
            return Err(PimError::InvalidParameter {
                name: "dst_tile",
                reason: "use Tile::transfer_columns within one tile",
            });
        }
        let rows = self.config.rows;
        // Read out of the source tile…
        let payload: Vec<Vec<bool>> = {
            let st = self.tile_mut(src_tile)?;
            let sb = st.block_mut(src_block)?;
            (0..width)
                .map(|w| {
                    (0..rows)
                        .map(|r| sb.nor_engine().get_bit(r, src_col + w))
                        .collect::<Result<Vec<bool>, PimError>>()
                })
                .collect::<Result<Vec<Vec<bool>>, PimError>>()?
        };
        // …and write into the destination tile.
        let dt = self.tile_mut(dst_tile)?;
        let db = dt.block_mut(dst_block)?;
        for (w, bits) in payload.iter().enumerate() {
            for (r, &b) in bits.iter().enumerate() {
                db.nor_engine_mut().set_bit(r, dst_col + w, b)?;
            }
        }
        Ok(cost.latency_ns(Op::Transfer { bits: width as u32 }) * INTER_TILE_HOP_FACTOR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_materialize_lazily() {
        let mut chip = Chip::new(ChipConfig::tiny());
        assert_eq!(chip.materialized_tiles(), 0);
        chip.tile_mut(0).unwrap();
        chip.tile_mut(1).unwrap();
        chip.tile_mut(0).unwrap();
        assert_eq!(chip.materialized_tiles(), 2);
        assert!(chip.tile_mut(99).is_err());
    }

    #[test]
    fn cross_tile_transfer_moves_bits_and_costs_more() {
        let mut chip = Chip::new(ChipConfig::tiny());
        {
            let t0 = chip.tile_mut(0).unwrap();
            let b = t0.block_mut(0).unwrap();
            b.write_row_bits(0, &[true, false, true, true]);
        }
        let cost = CostModel::paper();
        let ns = chip
            .transfer_between_tiles(&cost, 0, 0, 0, 1, 2, 8, 4)
            .unwrap();
        let intra = cost.latency_ns(Op::Transfer { bits: 4 });
        assert!((ns - intra * INTER_TILE_HOP_FACTOR).abs() < 1e-9);
        let t1 = chip.tile_mut(1).unwrap();
        let got = t1.block_mut(2).unwrap().read_row_bits(0, 12);
        assert_eq!(&got[8..12], &[true, false, true, true]);
        // Same-tile transfers are rejected here.
        assert!(chip
            .transfer_between_tiles(&cost, 0, 0, 0, 0, 1, 0, 1)
            .is_err());
    }

    #[test]
    fn paper_geometry_instantiates_cheaply() {
        let mut chip = Chip::new(ChipConfig::paper());
        assert_eq!(chip.config().tiles, 64);
        // Touch one tile/block of the full-size geometry: no other
        // allocation happens.
        chip.tile_mut(63).unwrap().block_mut(255).unwrap();
        assert_eq!(chip.materialized_tiles(), 1);
    }
}
