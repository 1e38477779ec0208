//! Regenerate Fig. 10a: clustering quality of DUAL (HD-Mapper, D=4000,
//! Hamming) vs the baseline algorithms (original space, Euclidean),
//! across the three algorithms and the UCI workload surrogates.
//!
//! Paper expectation: DUAL is within ~1–2 % of the baseline on average
//! (hierarchical +1.2 %, DBSCAN +0.4 %, k-means −1.3 %).

use std::fmt::Write as _;

use super::{table, Result};
use dual_bench::{mean, quality, quality_dataset, Representation, BENCH_SEED};
use dual_core::baseline::Algorithm;
use dual_data::Workload;

pub fn run(out: &mut String) -> Result {
    let dim = 4000;
    // O(n²)-friendly evaluation subsample (relative quality is
    // size-stable; see EXPERIMENTS.md).
    let cap = 400;
    let mut rows = Vec::new();
    let mut deltas: Vec<(Algorithm, f64)> = Vec::new();
    for w in Workload::uci() {
        let ds = quality_dataset(w, cap);
        let mut row = vec![w.name().to_string()];
        for alg in Algorithm::all() {
            let base = quality(&ds, alg, Representation::Baseline, BENCH_SEED)?;
            let dual = quality(&ds, alg, Representation::HdMapper { dim }, BENCH_SEED)?;
            deltas.push((alg, dual - base));
            row.push(format!("{base:.3}"));
            row.push(format!("{dual:.3}"));
        }
        rows.push(row);
    }
    table(
        out,
        "Fig 10a: quality of clustering, baseline vs DUAL (D=4000)",
        &[
            "dataset",
            "hier base",
            "hier DUAL",
            "kmeans base",
            "kmeans DUAL",
            "dbscan base",
            "dbscan DUAL",
        ],
        &rows,
    );
    for alg in Algorithm::all() {
        let ds: Vec<f64> = deltas
            .iter()
            .filter(|(a, _)| *a == alg)
            .map(|(_, d)| *d)
            .collect();
        writeln!(
            out,
            "{:12} mean quality delta (DUAL - baseline): {:+.3} (paper: {})",
            alg.name(),
            mean(&ds),
            match alg {
                Algorithm::Hierarchical => "+0.012",
                Algorithm::KMeans => "-0.013",
                Algorithm::Dbscan => "+0.004",
            }
        )?;
    }
    Ok(())
}
