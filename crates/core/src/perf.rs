//! Analytical performance/energy model of DUAL (§VI, §VIII).
//!
//! Every quantity is derived from op counts priced by the Table III
//! cost model, composed with the row/block-parallelism rules of the
//! architecture. The model is *functional-free*: it never touches data,
//! so it evaluates 10M-point workloads instantly — the same numbers the
//! cycle-level path produces for small inputs.
//!
//! ## Phase formulas (one data copy)
//!
//! With `n` points, `D` dims, `W = ⌈D/7⌉` windows, `b = ⌈log₂(D+1)⌉`
//! distance bits, block geometry `R × C`:
//!
//! * **Hamming** — queries are serial on a data block, windows serial
//!   within a query; each window's 3-bit counter write-back pipelines
//!   behind the next window search when the counters exist
//!   (`t_win = max(search, writeback)`), otherwise serializes
//!   (`search + writeback`); removing the interconnect adds the relay
//!   cost of shipping results to the distance blocks.
//! * **Accumulation** — the `W` 3-bit partials of one query spread over
//!   the 15 distance blocks of a tile row and reduce concurrently; the
//!   reduction is hidden behind subsequent queries for hierarchical and
//!   k-means (block-level pipelining, §VI-B) but sits on the critical
//!   path for DBSCAN's serial chain.
//! * **Nearest** — per search: `C/b` column groups × `⌈b/4⌉` stages in
//!   every distance block in parallel, then a fan-in-`R` reduction tree
//!   over per-block winners.
//! * **Update** (hierarchical/Ward) — two row-parallel size writes,
//!   three size additions, three 8-bit divisions (coefficients), three
//!   quantized multiplies, two distance adds and the column/row
//!   write-backs, all row-parallel.
//! * **K-means update** — per center group, a fan-in-2 row reduction
//!   tree of depth `log₂R` per `⌈n/R⌉` row blocks and `⌈D/C⌉` column
//!   blocks (the "slow arithmetic" that caps k-means at the paper's
//!   37.5×).

#![deny(clippy::as_conversions)]

use crate::config::DualConfig;
use dual_obs::Stage;
use dual_pim::{distance_bits, nearest_stages, windows, CounterMode, EnergyStats, Op};

/// A geometry size or count (rows, columns, dims, windows, blocks,
/// points, copies, iterations) as `f64`, the model's one integer-to-float
/// conversion.
#[expect(
    clippy::as_conversions,
    reason = "model sizes and counts are far below 2^53, exact in f64"
)]
fn count_f64(n: impl TryInto<u64>) -> f64 {
    let n: u64 = n.try_into().unwrap_or(u64::MAX);
    n as f64
}

/// Per-phase cost report of one accelerated run, each phase labelled by
/// its [`Stage`] (Fig. 15b's categories).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseReport {
    phases: Vec<(Stage, EnergyStats)>,
}

impl PhaseReport {
    /// The phases in execution order.
    #[must_use]
    pub fn phases(&self) -> &[(Stage, EnergyStats)] {
        &self.phases
    }

    fn push(&mut self, phase: Stage, stats: EnergyStats) {
        self.phases.push((phase, stats));
    }

    /// Total execution time in seconds.
    #[must_use]
    pub fn time_s(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s.time_s()).sum()
    }

    /// Total energy in joules.
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s.energy_j()).sum()
    }

    /// Fraction of time in one phase.
    #[must_use]
    pub fn phase_fraction(&self, phase: Stage) -> f64 {
        let total = self.time_s();
        if total <= 0.0 {
            return 0.0;
        }
        self.phases
            .iter()
            .filter(|(p, _)| *p == phase)
            .map(|(_, s)| s.time_s())
            .sum::<f64>()
            / total
    }

    /// Prepend another report (e.g. the encoding pass).
    #[must_use]
    pub fn preceded_by(mut self, mut other: Self) -> Self {
        other.phases.append(&mut self.phases);
        other
    }
}

/// The analytical model, parameterized by a [`DualConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    cfg: DualConfig,
}

impl PerfModel {
    /// Build a model for one configuration.
    #[must_use]
    pub fn new(cfg: DualConfig) -> Self {
        Self { cfg }
    }

    /// Fold the average active-chip power (`DualConfig::active_power_w`)
    /// into every phase's energy: `E = op energy + P_active × t`.
    fn add_background(&self, mut report: PhaseReport) -> PhaseReport {
        let pj_per_ns = self.cfg.active_power_w * 1000.0 * count_f64(self.cfg.chips);
        for (_, s) in &mut report.phases {
            s.record_raw(0.0, s.time_ns() * pj_per_ns);
        }
        report
    }

    /// A copy of this model whose ablated-interconnect relay spans only
    /// `hops` neighbor blocks. Hierarchical scatters distance results
    /// across the whole tile row (8 expected hops); DBSCAN writes a
    /// single distance vector into the adjacent block (1 hop) and
    /// k-means into a couple of center columns (2 hops) — the reason
    /// those algorithms shrug off the Fig. 12 interconnect ablation.
    fn with_relay_hops(&self, hops: u32) -> Self {
        let mut cfg = self.cfg;
        cfg.interconnect.relay_hops = hops;
        Self { cfg }
    }

    // ---- shared kernels -------------------------------------------------

    /// Effective time of one 7-bit window (search + counter write-back).
    fn window_eff_ns(&self) -> f64 {
        let c = &self.cfg.cost;
        let search = c.latency_ns(Op::HammingWindow);
        let wb_cols = self.cfg.counters.writeback_columns();
        let mut wb = c.latency_ns(Op::Write { bits: wb_cols });
        // Results travel to a distance block in the same tile row; the
        // relay penalty only exists when the bus is ablated away.
        wb += self.cfg.interconnect.transfer_latency_ns(c, 3)
            - c.latency_ns(Op::Transfer { bits: 3 })
                .min(self.cfg.interconnect.transfer_latency_ns(c, 3));
        match self.cfg.counters {
            CounterMode::Enabled => search.max(wb),
            CounterMode::Disabled => search + wb,
        }
    }

    fn window_energy_pj(&self) -> f64 {
        let c = &self.cfg.cost;
        let wb_cols = self.cfg.counters.writeback_columns();
        c.energy_pj(Op::HammingWindow)
            + c.energy_pj(Op::Write { bits: wb_cols })
            + self.cfg.interconnect.transfer_energy_pj(c, 3)
    }

    /// Serial time of one full-vector Hamming query over all stored
    /// points (row-parallel over rows, block-parallel over row/column
    /// blocks).
    fn per_query_hamming_ns(&self) -> f64 {
        count_f64(windows(self.cfg.dim)) * self.window_eff_ns()
    }

    /// Data blocks a query activates (energy side).
    fn data_blocks(&self, n: usize) -> f64 {
        let r = count_f64(self.cfg.chip.rows);
        let c = count_f64(self.cfg.chip.cols);
        (count_f64(n) / r).ceil() * (count_f64(self.cfg.dim) / c).ceil()
    }

    /// One query's partial-distance accumulation: local add trees spread
    /// over the tile row's distance blocks plus a cross-block reduction.
    fn accumulate_ns(&self) -> f64 {
        let c = &self.cfg.cost;
        let spread = count_f64((self.cfg.chip.blocks_per_tile_row() - 1).max(1));
        let w = count_f64(windows(self.cfg.dim));
        let b = distance_bits(self.cfg.dim);
        let local = (w / spread).ceil() * c.latency_ns(Op::Add { bits: 8 });
        let cross = spread.log2().ceil()
            * (self.cfg.interconnect.transfer_latency_ns(c, b) + c.latency_ns(Op::Add { bits: b }));
        local + cross
    }

    fn accumulate_energy_pj(&self) -> f64 {
        let c = &self.cfg.cost;
        let w = count_f64(windows(self.cfg.dim));
        let b = distance_bits(self.cfg.dim);
        w * c.energy_pj(Op::Add { bits: 8 })
            + 8.0
                * (self.cfg.interconnect.transfer_energy_pj(c, b)
                    + c.energy_pj(Op::Add { bits: b }))
    }

    /// One global minimum search over `n_values` distance entries.
    fn nearest_ns(&self, n_values: f64) -> f64 {
        let c = &self.cfg.cost;
        let b = distance_bits(self.cfg.dim);
        let stages = f64::from(nearest_stages(b));
        let stage = c.latency_ns(Op::NearestStage);
        let groups = (count_f64(self.cfg.chip.cols) / f64::from(b))
            .floor()
            .max(1.0);
        let in_block = groups * stages * stage;
        let block_bits = count_f64(self.cfg.chip.block_bits());
        let nb = (n_values * f64::from(b) / block_bits).ceil().max(1.0);
        let fan_in = count_f64(self.cfg.chip.rows);
        let levels = if nb <= 1.0 {
            0.0
        } else {
            (nb.ln() / fan_in.ln()).ceil()
        };
        let per_level = self.cfg.interconnect.transfer_latency_ns(c, b) + stages * stage;
        in_block + levels * per_level
    }

    fn nearest_energy_pj(&self, n_values: f64) -> f64 {
        let c = &self.cfg.cost;
        let b = distance_bits(self.cfg.dim);
        let stages = f64::from(nearest_stages(b));
        let block_bits = count_f64(self.cfg.chip.block_bits());
        let nb = (n_values * f64::from(b) / block_bits).ceil().max(1.0);
        nb * stages * c.energy_pj(Op::NearestStage)
    }

    /// Replication aggregation overhead (Fig. 14a): merging per-copy
    /// distance results back into one distance memory grows with the
    /// square of the dataset's row-block footprint.
    fn replication_agg_ns(&self, n: usize) -> f64 {
        let p = count_f64(self.cfg.copies);
        if p <= 1.0 {
            return 0.0;
        }
        let row_blocks = count_f64(n) / count_f64(self.cfg.chip.rows);
        let b = distance_bits(self.cfg.dim);
        4.0 * (p - 1.0)
            * row_blocks
            * row_blocks
            * self.cfg.interconnect.transfer_latency_ns(&self.cfg.cost, b)
    }

    // ---- encoding (§V-A) ------------------------------------------------

    /// HD-Mapper encoding of `n` points with `m` features each: per
    /// point, `m` serial 8-bit multiplies, a log-tree accumulation, and
    /// the 3-term Taylor cosine — two-block pipelines replicated across
    /// the whole chip.
    #[must_use]
    pub fn encoding(&self, n: usize, m: usize) -> PhaseReport {
        let (per_point, e_point) = self.cfg.cost.price(&dual_pim::encode_ops(m));
        let blocks_per_point =
            2.0 * (count_f64(self.cfg.dim) / count_f64(self.cfg.chip.rows)).ceil();
        let pipelines = (count_f64(self.cfg.total_blocks()) / blocks_per_point)
            .floor()
            .max(1.0);
        let time = (count_f64(n) / pipelines).ceil() * per_point;
        let energy = count_f64(n)
            * e_point
            * (count_f64(self.cfg.dim) / count_f64(self.cfg.chip.rows)).ceil();
        let mut report = PhaseReport::default();
        let mut s = EnergyStats::new();
        s.record_raw(time, energy);
        report.push(Stage::Encoding, s);
        self.add_background(report)
    }

    // ---- hierarchical (§V-B..D) ------------------------------------------

    /// Hierarchical clustering of `n` encoded points (excluding the
    /// encoding pass — compose with [`PerfModel::encoding`] via
    /// [`PhaseReport::preceded_by`]).
    #[must_use]
    pub fn hierarchical(&self, n: usize) -> PhaseReport {
        let cfg = &self.cfg;
        let c = &cfg.cost;
        let nf = count_f64(n);
        let p = count_f64(cfg.copies * cfg.chips);
        let mut report = PhaseReport::default();

        // Phase 1: all-pairs Hamming. Queries split across data copies;
        // accumulation hides behind the query stream (§VI-B).
        let mut hamming = EnergyStats::new();
        hamming.record_raw(
            nf / p * self.per_query_hamming_ns() + self.replication_agg_ns(n),
            nf * count_f64(windows(cfg.dim)) * self.window_energy_pj() * self.data_blocks(n),
        );
        report.push(Stage::Hamming, hamming);
        let mut accum = EnergyStats::new();
        accum.record_raw(0.0, nf * self.accumulate_energy_pj());
        report.push(Stage::Accumulate, accum);

        // Phase 2: n-1 merge iterations. Replicated distance memories
        // share the per-iteration column searches and updates, which is
        // what lets small datasets scale almost linearly in Fig. 14a.
        let iters = nf.max(1.0) - 1.0;
        let matrix_values = nf * nf;
        let mut nearest = EnergyStats::new();
        nearest.record_raw(
            iters * self.nearest_ns(matrix_values) / p,
            iters * self.nearest_energy_pj(matrix_values),
        );
        report.push(Stage::Nearest, nearest);

        let b = distance_bits(cfg.dim);
        let (update_ns, update_e) =
            c.price(&dual_pim::ward_update_ops(cfg.size_bits, cfg.coeff_bits, b));
        // The update arithmetic is row-parallel but every row block of
        // the matrix participates: energy scales with the row blocks.
        let row_blocks = (nf / count_f64(cfg.chip.rows)).ceil();
        let mut update = EnergyStats::new();
        update.record_raw(iters * update_ns / p, iters * update_e * row_blocks);
        report.push(Stage::Update, update);

        let transfer_ns = 2.0 * cfg.interconnect.transfer_latency_ns(c, b);
        let mut transfer = EnergyStats::new();
        transfer.record_raw(
            iters * transfer_ns / p,
            iters * 2.0 * cfg.interconnect.transfer_energy_pj(c, b) * row_blocks,
        );
        report.push(Stage::Transfer, transfer);
        self.add_background(report)
    }

    // ---- k-means (§VI-C, Fig. 9b) -----------------------------------------

    /// K-means over `n` encoded points with `k` centers for the
    /// configured iteration count.
    #[must_use]
    pub fn kmeans(&self, n: usize, k: usize) -> PhaseReport {
        let cfg = &self.cfg;
        let c = &cfg.cost;
        let nf = count_f64(n);
        let kf = count_f64(k.max(1));
        let iters = count_f64(cfg.kmeans_iters.max(1));
        let p = count_f64(cfg.copies * cfg.chips);
        let b = distance_bits(cfg.dim);
        // The k distance columns occupy a few nearby blocks.
        let near = self.with_relay_hops(4);
        let mut report = PhaseReport::default();

        // Assignment: k center queries per iteration.
        let mut hamming = EnergyStats::new();
        hamming.record_raw(
            iters * (kf / p).ceil() * near.per_query_hamming_ns(),
            iters
                * kf
                * count_f64(windows(cfg.dim))
                * near.window_energy_pj()
                * self.data_blocks(n),
        );
        report.push(Stage::Hamming, hamming);
        // Accumulation across centers overlaps; one residual per iter.
        let mut accum = EnergyStats::new();
        accum.record_raw(
            iters * near.accumulate_ns(),
            iters * kf * near.accumulate_energy_pj(),
        );
        report.push(Stage::Accumulate, accum);

        // Per-point argmin across the k distance columns: pairwise
        // row-parallel subtractions (§VI-C).
        let mut nearest = EnergyStats::new();
        let cmp_ns = (kf - 1.0).max(0.0) * c.latency_ns(Op::Sub { bits: b });
        let row_blocks = (nf / count_f64(cfg.chip.rows)).ceil();
        nearest.record_raw(
            iters * cmp_ns,
            iters * (kf - 1.0).max(0.0) * c.energy_pj(Op::Sub { bits: b }) * row_blocks,
        );
        report.push(Stage::Nearest, nearest);

        // Center update: fan-in-2 row-reduction trees per row block —
        // the slow-arithmetic phase. Row-wise summation is the awkward
        // direction for a column-parallel PIM: every tree level must
        // first shuffle the surviving rows into column alignment, a
        // bit-serial transfer of all `D` bit-columns over the 1k-wire
        // bus, and only then add.
        let col_blocks = (count_f64(cfg.dim) / count_f64(cfg.chip.cols)).ceil();
        let count_bits = cfg.chip.rows.next_power_of_two().trailing_zeros() + 1;
        let levels = count_f64(cfg.chip.rows).log2().ceil();
        let row_move = count_f64(cfg.dim) * cfg.interconnect.transfer_latency_ns(c, 1);
        let per_level = col_blocks * c.latency_ns(Op::Add { bits: count_bits }) + row_move;
        let update_ns = (row_blocks / p).ceil() * levels * per_level;
        let update_e = row_blocks
            * levels
            * (col_blocks * c.energy_pj(Op::Add { bits: count_bits })
                + count_f64(cfg.dim) * cfg.interconnect.transfer_energy_pj(c, 1));
        let mut update = EnergyStats::new();
        update.record_raw(iters * update_ns, iters * update_e);
        report.push(Stage::Update, update);

        // Binarized centers travel back to the data blocks each iter.
        let mut transfer = EnergyStats::new();
        transfer.record_raw(
            iters * kf * cfg.interconnect.transfer_latency_ns(c, 1) * col_blocks,
            iters * kf * cfg.interconnect.transfer_energy_pj(c, 1) * col_blocks,
        );
        report.push(Stage::Transfer, transfer);
        self.add_background(report)
    }

    // ---- DBSCAN (§VI-C, Fig. 9a) -------------------------------------------

    /// DBSCAN (nearest-chain formulation) over `n` encoded points.
    #[must_use]
    pub fn dbscan(&self, n: usize) -> PhaseReport {
        let cfg = &self.cfg;
        let nf = count_f64(n);
        let p = count_f64(cfg.copies * cfg.chips);
        // The single distance vector lands in the neighbor block.
        let near = self.with_relay_hops(2);
        let mut report = PhaseReport::default();
        // Each chain step: one query's Hamming + its (non-hideable)
        // accumulation + one nearest search over n values.
        let mut hamming = EnergyStats::new();
        hamming.record_raw(
            nf / p * near.per_query_hamming_ns(),
            nf * count_f64(windows(cfg.dim)) * near.window_energy_pj() * self.data_blocks(n),
        );
        report.push(Stage::Hamming, hamming);
        let mut accum = EnergyStats::new();
        accum.record_raw(
            nf / p * near.accumulate_ns(),
            nf * near.accumulate_energy_pj(),
        );
        report.push(Stage::Accumulate, accum);
        let mut nearest = EnergyStats::new();
        nearest.record_raw(
            nf / p * near.nearest_ns(nf),
            nf * near.nearest_energy_pj(nf),
        );
        report.push(Stage::Nearest, nearest);
        // Flag-bit bookkeeping.
        let mut update = EnergyStats::new();
        let c = &cfg.cost;
        update.record_raw(
            nf * c.latency_ns(Op::Write { bits: 1 }),
            nf * c.energy_pj(Op::Write { bits: 1 }),
        );
        report.push(Stage::Update, update);
        self.add_background(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{Algorithm, GpuModel};

    fn model() -> PerfModel {
        PerfModel::new(DualConfig::paper())
    }

    #[test]
    fn window_pipeline_hides_search_behind_writeback() {
        let m = model();
        // Counters enabled: 3 column writes (3 ns) dominate the 0.8 ns
        // search.
        assert!(
            (m.window_eff_ns() - 3.0).abs() < 0.2,
            "{}",
            m.window_eff_ns()
        );
        let no_counter = PerfModel::new(DualConfig::paper().without_counters());
        assert!(no_counter.window_eff_ns() > 3.0 * m.window_eff_ns());
    }

    #[test]
    fn ablations_slow_things_down() {
        let n = 20_000;
        let base = model().hierarchical(n).time_s();
        let no_ic = PerfModel::new(DualConfig::paper().without_interconnect())
            .hierarchical(n)
            .time_s();
        let no_ctr = PerfModel::new(DualConfig::paper().without_counters())
            .hierarchical(n)
            .time_s();
        // Fig 12: ~3.9× without interconnect, ~2.7× without counters.
        assert!(no_ic / base > 1.5, "interconnect ablation {}", no_ic / base);
        assert!(no_ctr / base > 1.5, "counter ablation {}", no_ctr / base);
    }

    #[test]
    fn dimension_reduction_speeds_up() {
        let full = model().hierarchical(10_000).time_s();
        let half = PerfModel::new(DualConfig::paper().with_dim(2000))
            .hierarchical(10_000)
            .time_s();
        assert!(half < full);
    }

    #[test]
    fn encoding_is_a_small_fraction() {
        // Fig 15b: encoding < 5 % of DUAL execution.
        let m = model();
        let enc = m.encoding(60_000, 784);
        let total = m.hierarchical(60_000).preceded_by(enc.clone());
        assert!(
            total.phase_fraction(Stage::Encoding) < 0.05,
            "encoding fraction {}",
            total.phase_fraction(Stage::Encoding)
        );
    }

    #[test]
    fn speedup_ordering_matches_paper() {
        // Fig 12: dbscan ≈ hierarchical ≫ k-means (37.5×).
        let m = model();
        let gpu = GpuModel::gtx_1080();
        let (n, feat, k) = (60_000, 784, 10);
        let s_h =
            gpu.cost(Algorithm::Hierarchical, n, feat, k, 1).time_s() / m.hierarchical(n).time_s();
        let s_k = gpu.cost(Algorithm::KMeans, n, feat, k, 20).time_s() / m.kmeans(n, k).time_s();
        let s_d = gpu.cost(Algorithm::Dbscan, n, feat, k, 1).time_s() / m.dbscan(n).time_s();
        assert!(s_h > s_k, "hier {s_h} vs kmeans {s_k}");
        assert!(s_d > s_k, "dbscan {s_d} vs kmeans {s_k}");
        assert!(s_k > 5.0, "k-means should still win: {s_k}");
    }

    #[test]
    fn replication_helps_until_aggregation_bites() {
        let n = 100_000;
        let t1 = model().hierarchical(n).time_s();
        let t4 = PerfModel::new(DualConfig::paper().with_copies(4))
            .hierarchical(n)
            .time_s();
        let t64 = PerfModel::new(DualConfig::paper().with_copies(64))
            .hierarchical(n)
            .time_s();
        assert!(t4 < t1);
        // Saturation: 64 copies is nowhere near 64× faster.
        assert!(t1 / t64 < 48.0, "speedup {}", t1 / t64);
    }

    #[test]
    fn report_algebra() {
        let m = model();
        let r = m.dbscan(1000);
        let total: f64 = Stage::ALL.iter().map(|&p| r.phase_fraction(p)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
