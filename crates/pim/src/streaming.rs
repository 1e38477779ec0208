//! Per-batch cost attribution for streaming workloads.
//!
//! The batch benchmarks price a whole clustering run at once
//! ([`crate::stats::EnergyStats`] + the analytical model in
//! `dual-core`); a *streaming* engine instead needs to answer "what did
//! the DUAL chip spend on **this** micro-batch?" so operators can see
//! energy/latency per unit of ingested traffic. [`StreamMeter`] is that
//! hook: the engine records the row-parallel ops each pipeline stage
//! would issue (encode multiplies, Hamming window sweeps, nearest
//! stages, centroid writes), then commits the open batch to obtain a
//! [`StreamBatchCost`]; running totals accumulate across batches in
//! commit order, so the fold is deterministic.
//!
//! ```rust
//! use dual_pim::{CostModel, Op, StreamMeter};
//!
//! let mut meter = StreamMeter::new(CostModel::paper());
//! meter.record_parallel(Op::HammingWindow, 4); // 4 blocks, one sweep
//! let batch = meter.commit_batch(128);
//! assert_eq!(batch.batch, 1);
//! assert_eq!(batch.points, 128);
//! assert!(batch.energy_pj > 0.0 && batch.time_ns > 0.0);
//! assert_eq!(meter.total().count(Op::HammingWindow), 4);
//! ```

#![deny(clippy::as_conversions)]

use crate::cost::{CostModel, Op};
use crate::stats::EnergyStats;

/// Cost of one committed micro-batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamBatchCost {
    /// 1-based batch sequence number.
    pub batch: u64,
    /// Points the batch carried.
    pub points: u64,
    /// Critical-path latency of the batch on the chip, nanoseconds.
    pub time_ns: f64,
    /// Energy spent on the batch, picojoules.
    pub energy_pj: f64,
}

impl StreamBatchCost {
    /// Energy per point in picojoules (0 for an empty batch).
    #[must_use]
    #[expect(clippy::as_conversions, reason = "point counts ≪ 2^53, exact in f64")]
    pub fn energy_pj_per_point(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.energy_pj / self.points as f64
        }
    }
}

/// Accumulates per-operation costs for the *open* micro-batch and
/// running totals over all committed batches (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamMeter {
    model: CostModel,
    open: EnergyStats,
    total: EnergyStats,
    batches: u64,
    points: u64,
    last: Option<StreamBatchCost>,
}

impl StreamMeter {
    /// A meter pricing ops with `model`, with no open batch.
    #[must_use]
    pub fn new(model: CostModel) -> Self {
        Self {
            model,
            open: EnergyStats::new(),
            total: EnergyStats::new(),
            batches: 0,
            points: 0,
            last: None,
        }
    }

    /// Rebuild a meter from previously exported state — the
    /// snapshot-restore path. `total` (with its bit-exact running
    /// sums), `batches`, `points`, and `last` are taken verbatim; the
    /// open batch starts empty, which matches any snapshot taken
    /// between batch commits (the engine records and commits within a
    /// single cut).
    #[must_use]
    pub fn restore(
        model: CostModel,
        total: EnergyStats,
        batches: u64,
        points: u64,
        last: Option<StreamBatchCost>,
    ) -> Self {
        Self {
            model,
            open: EnergyStats::new(),
            total,
            batches,
            points,
            last,
        }
    }

    /// Record one serial op against the open batch.
    pub fn record(&mut self, op: Op) {
        let model = self.model;
        self.open.record(&model, op);
    }

    /// Record `blocks` simultaneous issues of `op` (latency once,
    /// energy `blocks` times) against the open batch.
    pub fn record_parallel(&mut self, op: Op, blocks: u64) {
        let model = self.model;
        self.open.record_parallel(&model, op, blocks);
    }

    /// Record `times` back-to-back serial issues of `op` against the
    /// open batch.
    pub fn record_serial(&mut self, op: Op, times: u64) {
        let model = self.model;
        self.open.record_serial(&model, op, times);
    }

    /// Record `serial` rounds of `op`, each round issued on `blocks`
    /// blocks simultaneously (latency `serial` times, energy
    /// `serial × blocks` times), against the open batch.
    pub fn record_grid(&mut self, op: Op, serial: u64, blocks: u64) {
        let model = self.model;
        self.open.record_grid(&model, op, serial, blocks);
    }

    /// Close the open batch carrying `points` points: fold it into the
    /// running totals and return its cost. Recording starts fresh for
    /// the next batch. Committing with nothing recorded yields a
    /// zero-cost batch (a tick that cut an empty deadline batch).
    pub fn commit_batch(&mut self, points: u64) -> StreamBatchCost {
        self.batches = self.batches.saturating_add(1);
        self.points = self.points.saturating_add(points);
        let cost = StreamBatchCost {
            batch: self.batches,
            points,
            time_ns: self.open.time_ns(),
            energy_pj: self.open.energy_pj(),
        };
        self.total.merge_serial(&self.open);
        self.open = EnergyStats::new();
        self.last = Some(cost);
        cost
    }

    /// Batches committed so far.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Points across all committed batches.
    #[must_use]
    pub fn points(&self) -> u64 {
        self.points
    }

    /// Running totals over committed batches (op counts included).
    #[must_use]
    pub fn total(&self) -> &EnergyStats {
        &self.total
    }

    /// Costs recorded against the not-yet-committed batch.
    #[must_use]
    pub fn in_flight(&self) -> &EnergyStats {
        &self.open
    }

    /// The most recently committed batch, if any.
    #[must_use]
    pub fn last_batch(&self) -> Option<&StreamBatchCost> {
        self.last.as_ref()
    }
}

/// An admission-control ledger pricing a tenant's ingest quota in chip
/// energy: each logical topology tick grants `per_tick_pj` picojoules
/// of credit, and the tenant is *over budget* whenever the energy its
/// [`StreamMeter`] has actually spent exceeds the credit granted so
/// far. The ledger never spends — it only grants and compares — so the
/// meter remains the single source of truth for what the chip did.
///
/// Determinism: credit is granted one tick at a time by repeated
/// addition (`granted += per_tick`), never by a `ticks × per_tick`
/// multiply, so the granted total is the exact same f64 fold on every
/// run regardless of when callers observe it.
///
/// ```rust
/// use dual_pim::EnergyBudget;
///
/// let mut b = EnergyBudget::per_tick(10.0);
/// b.grant_tick();
/// assert!(!b.over(10.0)); // spending the full credit is in budget
/// assert!(b.over(10.5));
/// b.grant_tick();
/// assert!(!b.over(10.5));
/// assert!(!EnergyBudget::unlimited().over(f64::MAX));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBudget {
    per_tick_pj: f64,
    granted_pj: f64,
    ticks: u64,
}

impl EnergyBudget {
    /// A ledger granting `per_tick_pj` picojoules per tick, with no
    /// ticks granted yet. Non-finite or negative rates are clamped to
    /// unlimited / zero respectively so the ledger can't go NaN.
    #[must_use]
    pub fn per_tick(per_tick_pj: f64) -> Self {
        let rate = if per_tick_pj.is_nan() || per_tick_pj < 0.0 {
            0.0
        } else {
            per_tick_pj
        };
        Self {
            per_tick_pj: rate,
            granted_pj: 0.0,
            ticks: 0,
        }
    }

    /// A ledger that never runs out: infinite credit per tick.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::per_tick(f64::INFINITY)
    }

    /// Rebuild a ledger from exported state — the snapshot-restore
    /// path. `granted_pj` is taken verbatim (bit-exact), so a restored
    /// ledger continues the same repeated-addition fold.
    #[must_use]
    pub fn restore(per_tick_pj: f64, granted_pj: f64, ticks: u64) -> Self {
        let mut b = Self::per_tick(per_tick_pj);
        b.granted_pj = granted_pj;
        b.ticks = ticks;
        b
    }

    /// Grant one tick's worth of credit.
    pub fn grant_tick(&mut self) {
        self.granted_pj += self.per_tick_pj;
        self.ticks += 1;
    }

    /// Credit rate, picojoules per tick (`+inf` for unlimited).
    #[must_use]
    pub fn rate_pj(&self) -> f64 {
        self.per_tick_pj
    }

    /// Total credit granted so far, picojoules.
    #[must_use]
    pub fn granted_pj(&self) -> f64 {
        self.granted_pj
    }

    /// Ticks granted so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// True when the ledger never constrains admission.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.per_tick_pj == f64::INFINITY
    }

    /// Is `spent_pj` strictly beyond the granted credit? Spending the
    /// credit exactly is still in budget, so a zero-rate ledger with
    /// zero spend admits (useful for drained tenants). An unlimited
    /// ledger is never over, even before its first grant.
    #[must_use]
    pub fn over(&self, spent_pj: f64) -> bool {
        !self.is_unlimited() && spent_pj > self.granted_pj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_fold_into_totals_in_order() {
        let mut m = StreamMeter::new(CostModel::paper());
        m.record_serial(Op::Mul { bits: 8 }, 3);
        let b1 = m.commit_batch(10);
        m.record(Op::HammingWindow);
        let b2 = m.commit_batch(5);
        assert_eq!((b1.batch, b2.batch), (1, 2));
        assert_eq!(m.batches(), 2);
        assert_eq!(m.points(), 15);
        let want = b1.energy_pj + b2.energy_pj;
        assert!((m.total().energy_pj() - want).abs() < 1e-12);
        assert_eq!(m.total().count(Op::Mul { bits: 8 }), 3);
        assert_eq!(m.total().count(Op::HammingWindow), 1);
    }

    #[test]
    fn empty_batch_commits_at_zero_cost() {
        let mut m = StreamMeter::new(CostModel::paper());
        let b = m.commit_batch(0);
        assert_eq!(b.points, 0);
        assert_eq!(b.energy_pj, 0.0);
        assert_eq!(b.time_ns, 0.0);
        assert_eq!(b.energy_pj_per_point(), 0.0);
    }

    #[test]
    fn in_flight_resets_after_commit() {
        let mut m = StreamMeter::new(CostModel::paper());
        m.record(Op::NearestStage);
        assert!(m.in_flight().energy_pj() > 0.0);
        let _ = m.commit_batch(1);
        assert_eq!(m.in_flight().energy_pj(), 0.0);
        assert_eq!(m.last_batch().map(|b| b.points), Some(1));
    }

    #[test]
    fn grid_charges_the_open_batch() {
        let mut m = StreamMeter::new(CostModel::paper());
        m.record_grid(Op::HammingWindow, 5, 2);
        assert_eq!(m.in_flight().count(Op::HammingWindow), 10);
        let b = m.commit_batch(5);
        assert!((b.time_ns - 5.0 * 0.8).abs() < 1e-9);
        assert!((b.energy_pj - 10.0 * 1.632).abs() < 1e-9);
    }

    #[test]
    fn per_point_energy_divides_through() {
        let mut m = StreamMeter::new(CostModel::paper());
        m.record_parallel(Op::HammingWindow, 10);
        let b = m.commit_batch(10);
        assert!((b.energy_pj_per_point() - 1.632).abs() < 1e-9);
    }

    #[test]
    fn budget_grants_by_repeated_addition() {
        let mut b = EnergyBudget::per_tick(0.1);
        for _ in 0..10 {
            b.grant_tick();
        }
        // The fold is 0.1 added ten times — NOT 10 × 0.1 — and must be
        // bit-reproducible as exactly that sum.
        let mut want = 0.0f64;
        for _ in 0..10 {
            want += 0.1;
        }
        assert_eq!(b.granted_pj().to_bits(), want.to_bits());
        assert_eq!(b.ticks(), 10);
    }

    #[test]
    fn budget_over_is_strict_and_exact_spend_admits() {
        let mut b = EnergyBudget::per_tick(5.0);
        assert!(!b.over(0.0));
        assert!(b.over(0.1));
        b.grant_tick();
        assert!(!b.over(5.0));
        assert!(b.over(5.0000001));
    }

    #[test]
    fn unlimited_budget_never_constrains() {
        let mut b = EnergyBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.over(f64::MAX));
        b.grant_tick();
        assert!(b.granted_pj().is_infinite());
        assert!(!b.over(f64::MAX));
    }

    #[test]
    fn budget_sanitizes_degenerate_rates() {
        assert_eq!(EnergyBudget::per_tick(f64::NAN).rate_pj(), 0.0);
        assert_eq!(EnergyBudget::per_tick(-1.0).rate_pj(), 0.0);
        let mut zero = EnergyBudget::per_tick(0.0);
        zero.grant_tick();
        assert!(!zero.over(0.0));
        assert!(zero.over(f64::MIN_POSITIVE));
    }

    #[test]
    fn budget_restore_continues_the_same_fold() {
        let mut a = EnergyBudget::per_tick(0.3);
        for _ in 0..7 {
            a.grant_tick();
        }
        let mut b = EnergyBudget::restore(a.rate_pj(), a.granted_pj(), a.ticks());
        assert_eq!(a, b);
        a.grant_tick();
        b.grant_tick();
        assert_eq!(a.granted_pj().to_bits(), b.granted_pj().to_bits());
    }
}
