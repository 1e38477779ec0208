//! Accelerator configuration.

use dual_pim::{ChipConfig, CostModel, CounterMode, DeviceVariation, Interconnect};

/// Full configuration of a DUAL deployment: chip geometry, encoding
/// dimensionality, arithmetic precisions, ablation switches and
/// parallelism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualConfig {
    /// Hypervector dimensionality `D` (paper default 4000).
    pub dim: usize,
    /// Chip geometry.
    pub chip: ChipConfig,
    /// Number of chips ganged together (Fig. 14b).
    pub chips: usize,
    /// Data-block replication level — how many copies of the encoded
    /// dataset serve queries in parallel (Fig. 14a; 1 = low-power mode).
    pub copies: usize,
    /// 3-bit counter ablation switch (Fig. 12 "no counter").
    pub counters: CounterMode,
    /// Row-interconnect ablation switch (Fig. 12 "no interconnect").
    pub interconnect: Interconnect,
    /// Per-operation cost model (device variation folds in here).
    pub cost: CostModel,
    /// Bit precision of the Ward/average-linkage coefficients (the
    /// paper's Table III anchors arithmetic at 8 bits).
    pub coeff_bits: u32,
    /// Bit precision of cluster-size columns.
    pub size_bits: u32,
    /// K-means iterations assumed by the analytical model.
    pub kmeans_iters: usize,
    /// Average chip power while clustering, in watts — switching plus
    /// peripheral (controller/interconnect/sense) power averaged over a
    /// run. Sits at ≈ 39 % of the Table II worst-case 113.51 W because
    /// only a fraction of tiles fire each cycle; the energy side of the
    /// Fig. 12 comparison is `op energy + this × time`.
    pub active_power_w: f64,
}

impl DualConfig {
    /// The paper's configuration: D = 4000 on one 64-tile chip, single
    /// data copy, counters and interconnect enabled.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            dim: 4000,
            chip: ChipConfig::paper(),
            chips: 1,
            copies: 1,
            counters: CounterMode::Enabled,
            interconnect: Interconnect::paper(),
            cost: CostModel::paper(),
            coeff_bits: 8,
            size_bits: 16,
            kmeans_iters: 20,
            active_power_w: 44.0,
        }
    }

    /// Override the dimensionality (Fig. 10b-d / Fig. 13 sweeps).
    #[must_use]
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Override the replication level (Fig. 14a).
    #[must_use]
    pub fn with_copies(mut self, copies: usize) -> Self {
        self.copies = copies.max(1);
        self
    }

    /// Override the chip count (Fig. 14b).
    #[must_use]
    pub fn with_chips(mut self, chips: usize) -> Self {
        self.chips = chips.max(1);
        self
    }

    /// Disable the row interconnect (ablation).
    #[must_use]
    pub fn without_interconnect(mut self) -> Self {
        self.interconnect = Interconnect::disabled();
        self
    }

    /// Disable the per-block counters (ablation).
    #[must_use]
    pub fn without_counters(mut self) -> Self {
        self.counters = CounterMode::Disabled;
        self
    }

    /// Apply device variation derating (§VIII-H).
    #[must_use]
    pub fn with_variation(mut self, variation: DeviceVariation) -> Self {
        self.cost = CostModel::with_variation(variation);
        self
    }

    /// Distance-value bit width: `⌈log₂(D+1)⌉`.
    #[must_use]
    pub fn distance_bits(&self) -> u32 {
        (usize::BITS - self.dim.leading_zeros()).max(1)
    }

    /// 7-bit Hamming windows per full-vector search.
    #[must_use]
    pub fn windows(&self) -> u64 {
        self.dim.div_ceil(7) as u64
    }

    /// Total crossbar blocks across all chips.
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        self.chip.total_blocks() * self.chips
    }
}

impl Default for DualConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = DualConfig::paper();
        assert_eq!(c.dim, 4000);
        assert_eq!(c.distance_bits(), 12);
        assert_eq!(c.windows(), 572);
        assert_eq!(c.total_blocks(), 16384);
    }

    #[test]
    fn distance_bits_covers_dim() {
        for dim in [1usize, 7, 63, 64, 1000, 4000, 8000] {
            let c = DualConfig::paper().with_dim(dim);
            assert!(1u64 << c.distance_bits() > dim as u64, "dim {dim}");
        }
    }

    #[test]
    fn builder_overrides() {
        let c = DualConfig::paper()
            .with_dim(2000)
            .with_copies(4)
            .with_chips(16)
            .without_interconnect()
            .without_counters();
        assert_eq!(c.dim, 2000);
        assert_eq!(c.copies, 4);
        assert_eq!(c.total_blocks(), 16 * 16384);
        assert_eq!(c.counters, dual_pim::CounterMode::Disabled);
        // Degenerate values clamp.
        assert_eq!(DualConfig::paper().with_copies(0).copies, 1);
    }
}
