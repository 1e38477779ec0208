//! Latency/energy accounting for simulated PIM executions.

#![deny(clippy::as_conversions)]

use crate::cost::{CostModel, Op};
use std::collections::BTreeMap;

/// Accumulator of executed operations with derived latency and energy.
///
/// Two composition rules mirror the hardware:
/// * [`EnergyStats::record`] — a *serial* step: latency and energy add.
/// * [`EnergyStats::record_parallel`] — the same op issued on `n` blocks
///   simultaneously: energy adds `n` times, latency once (row/block
///   parallelism, §VI-A).
///
/// ```rust
/// use dual_pim::{CostModel, EnergyStats, Op};
///
/// let model = CostModel::paper();
/// let mut stats = EnergyStats::new();
/// stats.record_parallel(&model, Op::HammingWindow, 256);
/// assert!((stats.time_ns() - 0.8).abs() < 1e-9);          // one window sweep
/// assert!((stats.energy_pj() - 256.0 * 1.632).abs() < 1e-6); // 256 blocks pay energy
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyStats {
    time_ns: f64,
    energy_pj: f64,
    // BTreeMap (not HashMap) so iteration during merges is key-ordered:
    // f64 accumulation over the counts is then fold-order stable across
    // runs, a determinism invariant `.clippy.toml` enforces.
    counts: BTreeMap<Op, u64>,
}

impl EnergyStats {
    /// Empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total (critical-path) latency in nanoseconds.
    #[must_use]
    pub fn time_ns(&self) -> f64 {
        self.time_ns
    }

    /// Total latency in seconds.
    #[must_use]
    pub fn time_s(&self) -> f64 {
        self.time_ns * 1e-9
    }

    /// Total energy in picojoules.
    #[must_use]
    pub fn energy_pj(&self) -> f64 {
        self.energy_pj
    }

    /// Total energy in joules.
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.energy_pj * 1e-12
    }

    /// How many times `op` was recorded (counting parallel issues once
    /// per participating block).
    #[must_use]
    pub fn count(&self, op: Op) -> u64 {
        self.counts.get(&op).copied().unwrap_or(0)
    }

    /// Every recorded `(op, issue count)` pair in `Op` order (the
    /// backing map is a `BTreeMap`, so iteration order is stable).
    /// The observability bridge folds these through [`Op::family`]
    /// into the `pim.op.<family>.issues` gauges.
    pub fn counts(&self) -> impl Iterator<Item = (Op, u64)> + '_ {
        self.counts.iter().map(|(&op, &c)| (op, c))
    }

    /// Record one serial operation.
    pub fn record(&mut self, model: &CostModel, op: Op) {
        self.record_parallel(model, op, 1);
    }

    /// Record `blocks` simultaneous issues of `op`: latency once, energy
    /// `blocks` times.
    #[expect(clippy::as_conversions, reason = "issue counts ≪ 2^53, exact in f64")]
    pub fn record_parallel(&mut self, model: &CostModel, op: Op, blocks: u64) {
        if blocks == 0 {
            return;
        }
        self.time_ns += model.latency_ns(op);
        self.energy_pj += model.energy_pj(op) * blocks as f64;
        *self.counts.entry(op).or_default() += blocks;
    }

    /// Record `times` back-to-back serial issues of `op`.
    #[expect(clippy::as_conversions, reason = "issue counts ≪ 2^53, exact in f64")]
    pub fn record_serial(&mut self, model: &CostModel, op: Op, times: u64) {
        if times == 0 {
            return;
        }
        self.time_ns += model.latency_ns(op) * times as f64;
        self.energy_pj += model.energy_pj(op) * times as f64;
        *self.counts.entry(op).or_default() += times;
    }

    /// Record a *grid* of issues: `serial` back-to-back rounds of `op`,
    /// each round issued on `blocks` blocks simultaneously. Latency
    /// adds `serial` times, energy `serial × blocks` times — the shape
    /// of a windowed search (serial window sweeps, block-parallel rows)
    /// folded into one call.
    #[expect(clippy::as_conversions, reason = "issue counts ≪ 2^53, exact in f64")]
    pub fn record_grid(&mut self, model: &CostModel, op: Op, serial: u64, blocks: u64) {
        if serial == 0 || blocks == 0 {
            return;
        }
        self.time_ns += model.latency_ns(op) * serial as f64;
        self.energy_pj += model.energy_pj(op) * (serial * blocks) as f64;
        *self.counts.entry(op).or_default() += serial * blocks;
    }

    /// Add raw latency/energy that does not correspond to a tabulated op
    /// (e.g. inter-chip transfers modeled at a coarser grain).
    pub fn record_raw(&mut self, time_ns: f64, energy_pj: f64) {
        self.time_ns += time_ns;
        self.energy_pj += energy_pj;
    }

    /// Add `count` issues of `op` to the ledger **without** charging
    /// latency or energy — the snapshot-restore path, where the totals
    /// arrive bit-exact through [`EnergyStats::record_raw`] and the op
    /// counts must be replayed verbatim rather than re-priced (pricing
    /// would accumulate the totals in a different addition order).
    pub fn record_untimed(&mut self, op: Op, count: u64) {
        if count == 0 {
            return;
        }
        *self.counts.entry(op).or_default() += count;
    }

    /// Sequential composition: `self` then `other`.
    pub fn merge_serial(&mut self, other: &Self) {
        self.time_ns += other.time_ns;
        self.energy_pj += other.energy_pj;
        for (&op, &c) in &other.counts {
            *self.counts.entry(op).or_default() += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_composition() {
        let m = CostModel::paper();
        let mut a = EnergyStats::new();
        a.record_serial(&m, Op::Add { bits: 8 }, 2);
        assert!((a.time_ns() - 196.8).abs() < 1e-9);
        assert!((a.energy_pj() - 4.6).abs() < 1e-9);
        assert_eq!(a.count(Op::Add { bits: 8 }), 2);

        let mut b = EnergyStats::new();
        b.record(&m, Op::NearestStage);
        let mut ser = a.clone();
        ser.merge_serial(&b);
        assert!((ser.time_ns() - 197.0).abs() < 1e-9);
    }

    #[test]
    fn zero_issues_are_noops() {
        let m = CostModel::paper();
        let mut s = EnergyStats::new();
        s.record_parallel(&m, Op::HammingWindow, 0);
        s.record_serial(&m, Op::HammingWindow, 0);
        assert_eq!(s.time_ns(), 0.0);
        assert_eq!(s.energy_pj(), 0.0);
    }

    #[test]
    fn grid_is_serial_rounds_of_parallel_issues() {
        let m = CostModel::paper();
        let mut s = EnergyStats::new();
        s.record_grid(&m, Op::HammingWindow, 3, 4);
        // Latency: 3 serial rounds. Energy: 12 block-issues.
        assert!((s.time_ns() - 3.0 * m.latency_ns(Op::HammingWindow)).abs() < 1e-9);
        assert!((s.energy_pj() - 12.0 * m.energy_pj(Op::HammingWindow)).abs() < 1e-9);
        assert_eq!(s.count(Op::HammingWindow), 12);
        s.record_grid(&m, Op::HammingWindow, 0, 4);
        s.record_grid(&m, Op::HammingWindow, 4, 0);
        assert_eq!(s.count(Op::HammingWindow), 12);
    }

    #[test]
    fn raw_records_accumulate() {
        let mut s = EnergyStats::new();
        s.record_raw(5.0, 10.0);
        s.record_raw(1.0, 2.0);
        assert_eq!(s.time_ns(), 6.0);
        assert_eq!(s.energy_pj(), 12.0);
    }
}
