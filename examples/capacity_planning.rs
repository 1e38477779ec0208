//! Capacity planning: how many chips does a workload need, when does
//! partitioning kick in, and what does the deployment cost end to end?
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use dual::core::{
    hierarchical_capacity, partition_plan, partitioned_cost, replication_speedup, DualConfig,
    ScalingModel,
};
use dual::data::{workload, Workload};
use dual::pim::{AreaPowerModel, ChipConfig};

fn main() {
    // 1. What one chip holds.
    let cfg = DualConfig::paper();
    let budget = AreaPowerModel::paper().chip(ChipConfig::paper());
    println!(
        "one DUAL chip: {:.1} mm2, {:.1} W, {} GB of crossbar memory",
        budget.area_um2 * 1e-6,
        budget.power_mw * 1e-3,
        cfg.chip.chip_bytes() >> 30
    );
    println!(
        "hierarchical capacity (full n x n distance matrix in memory): {} points\n",
        hierarchical_capacity(&cfg)
    );

    // 2. Partition plans across the Table IV workloads.
    println!(
        "{:<12} {:>10} {:>11} {:>10} {:>14}",
        "workload", "points", "partitions", "part size", "modeled time"
    );
    for w in [
        Workload::Mnist,
        Workload::Synthetic1,
        Workload::Synthetic2,
        Workload::Synthetic3,
    ] {
        let spec = workload(w);
        let plan = partition_plan(&cfg, spec.n_points, spec.n_clusters);
        let cost = partitioned_cost(&cfg, spec.n_points, spec.n_clusters);
        println!(
            "{:<12} {:>10} {:>11} {:>10} {:>12.2} s",
            spec.workload.name(),
            spec.n_points,
            plan.partitions,
            plan.partition_size,
            cost.time_s()
        );
    }

    // 3. Should you replicate the data blocks? Depends on the size.
    println!("\nreplication speedup (hierarchical):");
    for &n in &[1_000usize, 100_000] {
        let line: Vec<String> = [1usize, 4, 16, 64]
            .iter()
            .map(|&p| {
                format!(
                    "{p} copies: {:.1}x",
                    replication_speedup(ScalingModel::Hierarchical, n, p)
                )
            })
            .collect();
        println!("  n = {n:>7}: {}", line.join("   "));
    }
    println!("\nsmall jobs scale with copies; big jobs saturate on aggregation — add chips instead (Fig 14).");
}
