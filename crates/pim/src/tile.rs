//! The per-block 3-bit counters of a tile (§VI, Fig. 8B).

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_mode_writeback() {
        assert_eq!(CounterMode::Enabled.writeback_columns(), 3);
        assert!(
            CounterMode::Disabled.writeback_columns() > CounterMode::Enabled.writeback_columns()
        );
    }
}
