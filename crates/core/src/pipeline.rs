//! Event-driven pipeline simulation (§VI-B, Fig. 8B).
//!
//! The closed-form [`crate::PerfModel`] prices a 7-bit window at
//! `max(search, writeback)` when the counters exist and
//! `search + writeback` when they don't. This module *derives* those
//! numbers instead of assuming them: a small event-driven simulator
//! walks the Hamming-computing pipeline (search unit → counter latch →
//! row-parallel distance write) and the clustering pipeline (Nearest →
//! Comp → Data Transfer → Distance Update) item by item, respecting the
//! structural hazards, and reports the makespan and per-stage
//! occupancy. Tests assert that the simulated steady-state throughput
//! matches the analytical model within a few percent.

use crate::config::DualConfig;
use dual_pim::cost::Op;
use dual_pim::tile::CounterMode;

/// A linear pipeline described by its per-item stage service times.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePipeline {
    /// Stage names (for reports).
    pub stages: Vec<&'static str>,
    /// Service time of each stage for one item, nanoseconds.
    pub service_ns: Vec<f64>,
    /// `true` ⇒ item `i+1` may not enter stage 0 before item `i` has
    /// *fully drained* (a true data dependency, e.g. DBSCAN's chain or
    /// a single-buffer design); `false` ⇒ items flow as soon as stages
    /// free up.
    pub serialize_items: bool,
}

/// Result of simulating a [`StagePipeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineTrace {
    /// Total makespan for all items, nanoseconds.
    pub makespan_ns: f64,
    /// Busy time accumulated per stage, nanoseconds.
    pub busy_ns: Vec<f64>,
    /// Items pushed through.
    pub items: u64,
}

impl PipelineTrace {
    /// Utilization of stage `s` over the makespan.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn utilization(&self, s: usize) -> f64 {
        if self.makespan_ns <= 0.0 {
            0.0
        } else {
            self.busy_ns[s] / self.makespan_ns
        }
    }

    /// Steady-state time per item (makespan / items).
    #[must_use]
    pub fn per_item_ns(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.makespan_ns / self.items as f64
        }
    }
}

impl StagePipeline {
    /// Simulate `items` identical items flowing through the pipeline.
    ///
    /// Classic in-order pipeline recurrence: stage `s` of item `i`
    /// starts when stage `s-1` of item `i` and stage `s` of item `i-1`
    /// have both finished (plus the full-drain constraint when
    /// `serialize_items` is set).
    ///
    /// # Panics
    ///
    /// Panics if `stages` and `service_ns` lengths differ.
    #[must_use]
    pub fn simulate(&self, items: u64) -> PipelineTrace {
        assert_eq!(
            self.stages.len(),
            self.service_ns.len(),
            "stage/service length mismatch"
        );
        let n_stages = self.service_ns.len();
        let mut stage_free = vec![0.0f64; n_stages];
        let mut busy = vec![0.0f64; n_stages];
        let mut prev_drain = 0.0f64;
        let mut makespan = 0.0f64;
        for _ in 0..items {
            let mut ready = if self.serialize_items {
                prev_drain
            } else {
                0.0
            };
            for s in 0..n_stages {
                let start = ready.max(stage_free[s]);
                let end = start + self.service_ns[s];
                stage_free[s] = end;
                busy[s] += self.service_ns[s];
                ready = end;
            }
            prev_drain = ready;
            makespan = makespan.max(ready);
        }
        PipelineTrace {
            makespan_ns: makespan,
            busy_ns: busy,
            items,
        }
    }
}

/// The Hamming-computing pipeline of one data block: window search →
/// counter latch → row-parallel distance write (Fig. 8B). One *item* is
/// one 7-bit window.
#[must_use]
pub fn hamming_pipeline(cfg: &DualConfig) -> StagePipeline {
    let c = &cfg.cost;
    let search = c.latency_ns(Op::HammingWindow);
    // The counter latch is a register capture: one search-sample cycle.
    let latch = c.latency_ns(Op::NearestStage);
    let wb_cols = cfg.counters.writeback_columns();
    let mut write = c.latency_ns(Op::Write { bits: wb_cols });
    write += cfg.interconnect.transfer_latency_ns(c, 3)
        - c.latency_ns(Op::Transfer { bits: 3 })
            .min(cfg.interconnect.transfer_latency_ns(c, 3));
    StagePipeline {
        stages: vec!["search", "latch", "write"],
        service_ns: vec![search, latch, write],
        // Without the register+counter there is nowhere to park the
        // sense result: the next search may not start until the write
        // drained.
        serialize_items: matches!(cfg.counters, CounterMode::Disabled),
    }
}

/// The clustering pipeline: Nearest → Comp → Data Transfer → Distance
/// Update (Fig. 8's four labeled stages). One *item* is one merge
/// iteration; `matrix_values` sizes the Nearest stage.
#[must_use]
pub fn clustering_pipeline(cfg: &DualConfig, n: usize) -> StagePipeline {
    let model = crate::PerfModel::new(*cfg);
    let c = &cfg.cost;
    let b = cfg.distance_bits();
    let nearest = model.nearest_kernel_ns(n as f64 * n as f64);
    let comp = c.latency_ns(Op::Sub { bits: b });
    let transfer = 2.0 * cfg.interconnect.transfer_latency_ns(c, b);
    let update = model.ward_update_kernel_ns();
    StagePipeline {
        stages: vec!["nearest", "comp", "transfer", "update"],
        service_ns: vec![nearest, comp, transfer, update],
        // Iteration i+1's Nearest reads the matrix iteration i updated:
        // a true dependency — the stages of one iteration overlap, but
        // iterations serialize.
        serialize_items: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PerfModel;

    #[test]
    fn two_stage_pipeline_throughput_is_bottleneck_bound() {
        let p = StagePipeline {
            stages: vec!["a", "b"],
            service_ns: vec![1.0, 3.0],
            serialize_items: false,
        };
        let t = p.simulate(1000);
        // Steady state: one item per 3 ns (the slow stage).
        assert!((t.per_item_ns() - 3.0).abs() < 0.01, "{}", t.per_item_ns());
        assert!(t.utilization(1) > 0.99);
        assert!((t.utilization(0) - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn serialized_pipeline_sums_stages() {
        let p = StagePipeline {
            stages: vec!["a", "b"],
            service_ns: vec![1.0, 3.0],
            serialize_items: true,
        };
        let t = p.simulate(100);
        assert!((t.per_item_ns() - 4.0).abs() < 0.01);
    }

    #[test]
    fn hamming_pipeline_matches_analytic_window_cost() {
        // With counters: the simulated steady-state window time must
        // match the PerfModel's max(search, writeback) within 10 %
        // (the latch stage adds a small sliver the closed form folds in).
        let cfg = DualConfig::paper();
        let sim = hamming_pipeline(&cfg).simulate(10_000);
        let model = PerfModel::new(cfg);
        let analytic = model.window_eff_ns_public();
        let ratio = sim.per_item_ns() / analytic;
        assert!(
            (0.9..1.1).contains(&ratio),
            "sim {} vs analytic {analytic}",
            sim.per_item_ns()
        );
    }

    #[test]
    fn no_counter_pipeline_serializes() {
        let cfg = DualConfig::paper().without_counters();
        let sim = hamming_pipeline(&cfg).simulate(10_000);
        let model = PerfModel::new(cfg);
        let analytic = model.window_eff_ns_public();
        let ratio = sim.per_item_ns() / analytic;
        assert!(
            (0.9..1.15).contains(&ratio),
            "sim {} vs analytic {analytic}",
            sim.per_item_ns()
        );
        // And it is much slower than the buffered design.
        let buffered = hamming_pipeline(&DualConfig::paper()).simulate(10_000);
        assert!(sim.per_item_ns() > 3.0 * buffered.per_item_ns());
    }

    #[test]
    fn clustering_pipeline_is_update_bound() {
        let cfg = DualConfig::paper();
        let p = clustering_pipeline(&cfg, 60_000);
        let t = p.simulate(1_000);
        // The Ward update dominates the iteration (Fig 15b).
        let update_idx = p.stages.iter().position(|&s| s == "update").unwrap();
        assert!(t.utilization(update_idx) > 0.5);
        // Per-iteration time within 15 % of the closed form's
        // nearest+update+transfer sum.
        let model = PerfModel::new(cfg);
        let analytic = model.nearest_kernel_ns(60_000f64 * 60_000f64)
            + model.ward_update_kernel_ns()
            + 2.0
                * cfg
                    .interconnect
                    .transfer_latency_ns(&cfg.cost, cfg.distance_bits());
        let ratio = t.per_item_ns() / analytic;
        assert!(
            (0.85..1.15).contains(&ratio),
            "sim {} vs analytic {analytic}",
            t.per_item_ns()
        );
    }

    #[test]
    fn empty_pipeline_trace_is_zeroed() {
        let p = StagePipeline {
            stages: vec!["a"],
            service_ns: vec![1.0],
            serialize_items: false,
        };
        let t = p.simulate(0);
        assert_eq!(t.makespan_ns, 0.0);
        assert_eq!(t.per_item_ns(), 0.0);
        assert_eq!(t.utilization(0), 0.0);
    }
}
