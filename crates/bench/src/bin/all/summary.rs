//! Headline summary: average DUAL speedup / energy efficiency vs GPU
//! over the UCI workloads (the abstract's 58.8× / 251.2×), plus the
//! per-algorithm averages of §VIII-D.

use super::{table, Result};
use dual_bench::{mean, speedup_energy};
use dual_core::baseline::Algorithm;
use dual_core::DualConfig;
use dual_data::Workload;

pub fn run(out: &mut String) -> Result {
    let cfg = DualConfig::paper();
    let mut rows = Vec::new();
    let mut all_s = Vec::new();
    let mut all_e = Vec::new();
    for alg in Algorithm::all() {
        let (speedups, energies): (Vec<f64>, Vec<f64>) = Workload::uci()
            .into_iter()
            .map(|w| speedup_energy(cfg, alg, w))
            .unzip();
        let s = mean(&speedups);
        let e = mean(&energies);
        all_s.extend_from_slice(&speedups);
        all_e.extend_from_slice(&energies);
        rows.push(vec![
            alg.name().to_string(),
            format!("{s:.1}x"),
            format!("{e:.1}x"),
            format!(
                "{:.1}x..{:.1}x",
                speedups.iter().copied().fold(f64::INFINITY, f64::min),
                speedups.iter().copied().fold(0.0, f64::max)
            ),
        ]);
    }
    rows.push(vec![
        "average".to_string(),
        format!("{:.1}x", mean(&all_s)),
        format!("{:.1}x", mean(&all_e)),
        String::new(),
    ]);
    table(
        out,
        "DUAL vs GTX 1080 (paper: 58.8x speedup, 251.2x energy; hier 67.1/328.7, k-means 37.5/131.6, dbscan 71.7/293.3)",
        &["algorithm", "speedup", "energy eff.", "speedup range"],
        &rows,
    );
    Ok(())
}
