//! Regenerate Fig. 14: (a) DUAL speedup at different data-replication
//! levels for 1 K and 100 K points; (b) multi-chip scalability for
//! 100 K / 1 M / 10 M points, including the 16-chip iso-area comparison
//! against the GPU.
//!
//! Paper expectation: small datasets scale near-linearly with
//! replication while large ones saturate; doubling chips buys ~1.6× at
//! 100 K and ~1.4× at 10 M points; 16 chips on 10 M points reach ~4.6×
//! over one chip and ~621× over the GPU.

use std::fmt::Write as _;

use super::{table, Result};
use dual_bench::dual_report;
use dual_core::baseline::{Algorithm, GpuModel};
use dual_core::{chip_scaling_speedup, replication_speedup, DualConfig, ScalingModel};
use dual_data::{workload, Workload};

pub fn run(out: &mut String) -> Result {
    // ---- Fig 14a: replication parallelism --------------------------------
    let copies = [1usize, 2, 4, 8, 16, 32, 64];
    for &n in &[1_000usize, 100_000] {
        let rows: Vec<Vec<String>> = copies
            .iter()
            .map(|&p| {
                let s = replication_speedup(ScalingModel::Hierarchical, n, p);
                vec![p.to_string(), format!("{s:.2}x")]
            })
            .collect();
        table(
            out,
            &format!("Fig 14a: speedup vs replication, hierarchical, n = {n}"),
            &["copies", "speedup"],
            &rows,
        );
    }

    // ---- Fig 14b: multi-chip scalability ----------------------------------
    let chip_counts = [1usize, 2, 4, 8, 16, 32, 64];
    let sizes = [100_000usize, 1_000_000, 10_000_000];
    let mut rows = Vec::new();
    for &chips in &chip_counts {
        let mut row = vec![chips.to_string()];
        for &n in &sizes {
            let s = chip_scaling_speedup(ScalingModel::Hierarchical, n, chips);
            row.push(format!("{s:.2}x"));
        }
        rows.push(row);
    }
    table(
        out,
        "Fig 14b: speedup vs #chips, hierarchical (paper: ~1.6x/doubling @100k, ~1.4x @10M)",
        &["chips", "100k", "1M", "10M"],
        &rows,
    );

    // Iso-area headline: 16 DUAL chips ≈ one GPU die area, on the 10M
    // synthetic set. Neither platform fits a 10M×10M distance matrix
    // (it is ~150 TB), so both process the run as a partitioned
    // schedule over the largest chunk the GPU's 8 GB memory admits;
    // the ratio of per-chunk times is then the end-to-end ratio.
    let spec = workload(Workload::Synthetic3);
    let chunk = (8e9_f64 / 4.0).sqrt() as usize; // ≈ 44.7k points
    let dual_chunk = dual_report(
        DualConfig::paper(),
        Algorithm::Hierarchical,
        chunk,
        spec.n_features,
        spec.n_clusters,
    )
    .time_s();
    let s16 = chip_scaling_speedup(ScalingModel::Hierarchical, spec.n_points, 16);
    let dual_16 = dual_chunk / s16;
    let gpu = GpuModel::gtx_1080()
        .cost(
            Algorithm::Hierarchical,
            chunk,
            spec.n_features,
            spec.n_clusters,
            1,
        )
        .time_s();
    writeln!(
        out,
        "iso-area check, 10M points ({chunk}-point partitions): 16-chip DUAL vs GPU = {:.0}x (paper ~621x), vs 1-chip DUAL = {s16:.1}x (paper ~4.6x)",
        gpu / dual_16
    )?;

    // DUAL's own partition planner for the same run (§VI-A capacity).
    let cfg16 = DualConfig::paper().with_chips(16);
    let plan = dual_core::partition_plan(&cfg16, spec.n_points, spec.n_clusters);
    let cost = dual_core::partitioned_cost(&cfg16, spec.n_points, spec.n_clusters);
    writeln!(
        out,
        "DUAL partition plan @16 chips: {} partitions of {} points (local k = {}), modeled end-to-end {:.1} s",
        plan.partitions,
        plan.partition_size,
        plan.local_k,
        cost.time_s()
    )?;
    Ok(())
}
