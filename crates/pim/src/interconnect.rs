//! The tile-row interconnect (§VI, Fig. 8).
//!
//! Blocks in one tile row share a 1k-wire bus that carries CAM sense
//! results from a data block to the row drivers of any distance block in
//! the same row, and performs bit-serial/row-parallel column transfers
//! between blocks. Removing it (the Fig. 12 ablation) forces results to
//! relay hop-by-hop through neighbor blocks as explicit NVM
//! writes/reads, which is what makes hierarchical clustering 3.9× slower
//! without it.

#![deny(clippy::as_conversions)]

use crate::cost::{CostModel, Op};

/// Whether the dedicated row interconnect is present (ablation switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InterconnectMode {
    /// The paper's design: 1k-wire row bus.
    #[default]
    Enabled,
    /// Ablation: results relay through neighbor blocks serially.
    Disabled,
}

/// Cost model of moving `bits` bit-columns (row-parallel) between two
/// blocks in the same tile row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    mode: InterconnectMode,
    /// Wires per tile row (paper: 1k — one per block row, so a transfer
    /// moves one bit-column of the whole block per bus cycle).
    pub wires: usize,
    /// How many block hops a relay traverses on average when the bus is
    /// absent. Each hop costs one NVM write plus one read per
    /// bit-column. Half the blocks of a 16-wide tile row is the expected
    /// distance: 8.
    pub relay_hops: u32,
}

impl Interconnect {
    /// The paper's configuration.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            mode: InterconnectMode::Enabled,
            wires: 1024,
            relay_hops: 8,
        }
    }

    /// The ablated configuration (Fig. 12 "no interconnect").
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            mode: InterconnectMode::Disabled,
            ..Self::paper()
        }
    }

    /// Current mode.
    #[must_use]
    pub fn mode(&self) -> InterconnectMode {
        self.mode
    }

    /// Latency of a `bits`-column row-parallel transfer, nanoseconds.
    #[must_use]
    pub fn transfer_latency_ns(&self, model: &CostModel, bits: u32) -> f64 {
        match self.mode {
            InterconnectMode::Enabled => model.latency_ns(Op::Transfer { bits }),
            InterconnectMode::Disabled => {
                // Relay: per hop, write the columns into the neighbor and
                // sense them back out (reads cost a search-sample cycle).
                let per_hop = model.latency_ns(Op::Write { bits })
                    + model.latency_ns(Op::NearestStage) * f64::from(bits);
                per_hop * f64::from(self.relay_hops)
            }
        }
    }

    /// Energy of a `bits`-column row-parallel transfer, picojoules.
    #[must_use]
    pub fn transfer_energy_pj(&self, model: &CostModel, bits: u32) -> f64 {
        match self.mode {
            InterconnectMode::Enabled => model.energy_pj(Op::Transfer { bits }),
            InterconnectMode::Disabled => {
                let per_hop = model.energy_pj(Op::Write { bits })
                    + model.energy_pj(Op::NearestStage) * f64::from(bits);
                per_hop * f64::from(self.relay_hops)
            }
        }
    }
}

impl Default for Interconnect {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn enabled_matches_table3_transfer() {
        let ic = Interconnect::paper();
        let m = CostModel::paper();
        assert!((ic.transfer_latency_ns(&m, 1) - 1.1).abs() < 1e-9);
        assert!((ic.transfer_energy_pj(&m, 1) - 0.748).abs() < 1e-9);
    }

    #[test]
    fn disabling_makes_transfers_much_slower() {
        let m = CostModel::paper();
        let on = Interconnect::paper();
        let off = Interconnect::disabled();
        let ratio = off.transfer_latency_ns(&m, 3) / on.transfer_latency_ns(&m, 3);
        assert!(ratio > 5.0, "relay should dominate, got {ratio}");
        assert!(off.transfer_energy_pj(&m, 3) > on.transfer_energy_pj(&m, 3));
    }

    proptest! {
        #[test]
        fn prop_transfer_costs_monotone_in_bits(bits in 1u32..64) {
            let m = CostModel::paper();
            for ic in [Interconnect::paper(), Interconnect::disabled()] {
                prop_assert!(ic.transfer_latency_ns(&m, bits + 1) > ic.transfer_latency_ns(&m, bits));
                prop_assert!(ic.transfer_energy_pj(&m, bits + 1) > ic.transfer_energy_pj(&m, bits));
            }
        }
    }
}
