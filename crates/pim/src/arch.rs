//! Chip structure and the Table II area/power model.

#![deny(clippy::as_conversions)]

/// Structural configuration of a DUAL chip (§VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChipConfig {
    /// Tiles per chip (paper: 64).
    pub tiles: usize,
    /// Crossbar blocks per tile (paper: 256).
    pub blocks_per_tile: usize,
    /// Rows per block (paper: 1024).
    pub rows: usize,
    /// Columns per block (paper: 1024).
    pub cols: usize,
    /// Interconnect wires per tile row (paper: 1024).
    pub interconnect_wires: usize,
}

impl ChipConfig {
    /// The paper's 64-tile configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            tiles: 64,
            blocks_per_tile: 256,
            rows: 1024,
            cols: 1024,
            interconnect_wires: 1024,
        }
    }

    /// Bits per block.
    #[must_use]
    pub fn block_bits(&self) -> usize {
        self.rows * self.cols
    }

    /// Bytes per tile (paper: 32 MB).
    #[must_use]
    pub fn tile_bytes(&self) -> usize {
        self.blocks_per_tile * self.block_bits() / 8
    }

    /// Bytes per chip (paper: 2 GB).
    #[must_use]
    pub fn chip_bytes(&self) -> usize {
        self.tiles * self.tile_bytes()
    }

    /// Blocks per tile row — blocks are arranged in a square grid, so a
    /// row holds `sqrt(blocks_per_tile)` of them (16 in the paper), one
    /// data block plus 15 distance blocks (Fig. 8).
    #[must_use]
    #[expect(
        clippy::as_conversions,
        reason = "block counts ≪ 2^53; rounded sqrt of a non-negative count fits usize"
    )]
    pub fn blocks_per_tile_row(&self) -> usize {
        (self.blocks_per_tile as f64).sqrt().round() as usize
    }

    /// Total blocks on the chip.
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        self.tiles * self.blocks_per_tile
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Area/power of one named component (a row of Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentBudget {
    /// Area in square micrometres.
    pub area_um2: f64,
    /// Power in milliwatts.
    pub power_mw: f64,
}

impl ComponentBudget {
    /// Scale by a replication count.
    #[must_use]
    pub fn times(self, n: usize) -> Self {
        Self {
            #[expect(clippy::as_conversions, reason = "replication counts ≪ 2^53")]
            area_um2: self.area_um2 * n as f64,
            #[expect(clippy::as_conversions, reason = "replication counts ≪ 2^53")]
            power_mw: self.power_mw * n as f64,
        }
    }

    /// Component-wise sum.
    #[must_use]
    pub fn plus(self, other: Self) -> Self {
        Self {
            area_um2: self.area_um2 + other.area_um2,
            power_mw: self.power_mw + other.power_mw,
        }
    }
}

/// Table II area/power model (28 nm), composed bottom-up from the
/// paper's per-component HSPICE/NVSim measurements.
///
/// The only calibration beyond the published constants is a tile-level
/// power activity factor (≈ 0.70): the paper's tile-memory power
/// (1.57 W) is below 256× the worst-case block power (8.79 mW) because
/// not every block drives its sense amplifiers simultaneously.
///
/// ```rust
/// use dual_pim::{AreaPowerModel, ChipConfig};
///
/// let m = AreaPowerModel::paper();
/// let chip = m.chip(ChipConfig::paper());
/// assert!((chip.area_um2 * 1e-6 - 53.57).abs() / 53.57 < 0.02); // mm²
/// assert!((chip.power_mw * 1e-3 - 113.51).abs() / 113.51 < 0.02); // W
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaPowerModel {
    /// 1 Mb crossbar array.
    pub crossbar: ComponentBudget,
    /// 1k sense amplifiers (per block).
    pub sense_amps: ComponentBudget,
    /// One 3-bit counter (per block).
    pub counter: ComponentBudget,
    /// Row interconnect (per tile).
    pub interconnect: ComponentBudget,
    /// Tile controller (per tile).
    pub controller: ComponentBudget,
    /// Fraction of blocks active simultaneously (power only).
    pub tile_activity: f64,
}

impl AreaPowerModel {
    /// Table II constants.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            crossbar: ComponentBudget {
                area_um2: 3136.0,
                power_mw: 6.14,
            },
            sense_amps: ComponentBudget {
                area_um2: 57.13,
                power_mw: 2.38,
            },
            counter: ComponentBudget {
                area_um2: 24.06,
                power_mw: 0.27,
            },
            interconnect: ComponentBudget {
                area_um2: 0.01e6,
                power_mw: 62.08,
            },
            controller: ComponentBudget {
                area_um2: 289.2,
                power_mw: 131.75,
            },
            tile_activity: 1570.0 / (8.79 * 256.0),
        }
    }

    /// One memory block (crossbar + sense amps + counter) — Table II's
    /// "Memory Block" row (3217.19 µm², 8.79 mW).
    #[must_use]
    pub fn block(&self) -> ComponentBudget {
        self.crossbar.plus(self.sense_amps).plus(self.counter)
    }

    /// Tile memory: all blocks, with the power activity factor applied.
    #[must_use]
    pub fn tile_memory(&self, config: ChipConfig) -> ComponentBudget {
        let raw = self.block().times(config.blocks_per_tile);
        ComponentBudget {
            area_um2: raw.area_um2,
            power_mw: raw.power_mw * self.tile_activity,
        }
    }

    /// One full tile (memory + interconnect + controller).
    #[must_use]
    pub fn tile(&self, config: ChipConfig) -> ComponentBudget {
        self.tile_memory(config)
            .plus(self.interconnect)
            .plus(self.controller)
    }

    /// The whole chip.
    #[must_use]
    pub fn chip(&self, config: ChipConfig) -> ComponentBudget {
        self.tile(config).times(config.tiles)
    }

    /// Rows of Table II: `(component, spec, area µm², power mW)`.
    #[must_use]
    pub fn table2(&self, config: ChipConfig) -> Vec<(&'static str, String, f64, f64)> {
        let block = self.block();
        let tile_mem = self.tile_memory(config);
        let tile = self.tile(config);
        let chip = self.chip(config);
        vec![
            (
                "Crossbar array",
                format!("{} Mb", config.block_bits() >> 20),
                self.crossbar.area_um2,
                self.crossbar.power_mw,
            ),
            (
                "Sense Amp",
                format!("{}", config.cols),
                self.sense_amps.area_um2,
                self.sense_amps.power_mw,
            ),
            (
                "Counter",
                "1".to_string(),
                self.counter.area_um2,
                self.counter.power_mw,
            ),
            (
                "Memory Block",
                "1".to_string(),
                block.area_um2,
                block.power_mw,
            ),
            (
                "Tile Memory",
                format!("{} blocks", config.blocks_per_tile),
                tile_mem.area_um2,
                tile_mem.power_mw,
            ),
            (
                "Interconnect",
                format!("{}/row", config.interconnect_wires),
                self.interconnect.area_um2,
                self.interconnect.power_mw,
            ),
            (
                "Controller",
                "1".to_string(),
                self.controller.area_um2,
                self.controller.power_mw,
            ),
            (
                "Tile",
                format!("{} MB", config.tile_bytes() >> 20),
                tile.area_um2,
                tile.power_mw,
            ),
            (
                "Total",
                format!("{} Tiles", config.tiles),
                chip.area_um2,
                chip.power_mw,
            ),
        ]
    }
}

impl Default for AreaPowerModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_capacities() {
        let c = ChipConfig::paper();
        assert_eq!(c.block_bits(), 1 << 20);
        assert_eq!(c.tile_bytes(), 32 << 20);
        assert_eq!(c.chip_bytes(), 2 << 30);
        assert_eq!(c.blocks_per_tile_row(), 16);
        assert_eq!(c.total_blocks(), 16384);
    }

    #[test]
    fn block_budget_matches_table2_exactly() {
        let m = AreaPowerModel::paper();
        let b = m.block();
        assert!((b.area_um2 - 3217.19).abs() < 0.01);
        assert!((b.power_mw - 8.79).abs() < 0.01);
    }

    #[test]
    fn tile_and_chip_within_two_percent_of_table2() {
        let m = AreaPowerModel::paper();
        let cfg = ChipConfig::paper();
        let tile_mem = m.tile_memory(cfg);
        assert!(
            (tile_mem.area_um2 * 1e-6 - 0.82).abs() < 0.01,
            "{}",
            tile_mem.area_um2
        );
        assert!((tile_mem.power_mw * 1e-3 - 1.57).abs() < 0.01);
        let tile = m.tile(cfg);
        assert!((tile.area_um2 * 1e-6 - 0.84).abs() / 0.84 < 0.02);
        assert!((tile.power_mw * 1e-3 - 1.76).abs() / 1.76 < 0.01);
        let chip = m.chip(cfg);
        assert!((chip.area_um2 * 1e-6 - 53.57).abs() / 53.57 < 0.02);
        assert!((chip.power_mw * 1e-3 - 113.51).abs() / 113.51 < 0.02);
    }

    #[test]
    fn counters_are_under_one_percent_of_tile_area_and_four_of_power() {
        // §VIII-A: counters take <0.7% of tile area and ~3.1% of power.
        let m = AreaPowerModel::paper();
        let cfg = ChipConfig::paper();
        let counters = m.counter.times(cfg.blocks_per_tile);
        let tile = m.tile(cfg);
        assert!(counters.area_um2 / tile.area_um2 < 0.007 + 0.001);
        assert!(counters.power_mw * m.tile_activity / tile.power_mw < 0.04);
    }

    #[test]
    fn table2_has_nine_rows() {
        let rows = AreaPowerModel::paper().table2(ChipConfig::paper());
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[8].0, "Total");
    }

    #[test]
    fn budget_algebra() {
        let a = ComponentBudget {
            area_um2: 1.0,
            power_mw: 2.0,
        };
        let b = a.times(3).plus(a);
        assert_eq!(b.area_um2, 4.0);
        assert_eq!(b.power_mw, 8.0);
    }
}
