//! Regenerate Fig. 10b-d: clustering quality of DUAL's HD-Mapper vs the
//! LSH encoder as a function of dimensionality, on the MNIST surrogate,
//! for hierarchical (b), k-means (c) and DBSCAN (d).
//!
//! Paper expectation: at every D the non-linear HD-Mapper beats LSH
//! (5.9 % / 5.2 % / 3.3 % at D=4000); hierarchical clustering stays
//! robust down to D≈2000 while k-means degrades fastest.

use super::{table, Result};
use dual_bench::{quality, quality_dataset, Representation, BENCH_SEED};
use dual_core::baseline::Algorithm;
use dual_data::Workload;

pub fn run(out: &mut String) -> Result {
    let dims = [500usize, 1000, 2000, 4000, 8000];
    let ds = quality_dataset(Workload::Mnist, 400);
    for (panel, alg) in [
        ("b: hierarchical", Algorithm::Hierarchical),
        ("c: k-means", Algorithm::KMeans),
        ("d: DBSCAN", Algorithm::Dbscan),
    ] {
        let mut rows = Vec::new();
        for &dim in &dims {
            let dual = quality(&ds, alg, Representation::HdMapper { dim }, BENCH_SEED)?;
            let lsh = quality(&ds, alg, Representation::Lsh { dim }, BENCH_SEED)?;
            rows.push(vec![
                dim.to_string(),
                format!("{dual:.3}"),
                format!("{lsh:.3}"),
                format!("{:+.3}", dual - lsh),
            ]);
        }
        let baseline = quality(&ds, alg, Representation::Baseline, BENCH_SEED)?;
        rows.push(vec![
            "baseline".into(),
            format!("{baseline:.3}"),
            "-".into(),
            "-".into(),
        ]);
        table(
            out,
            &format!("Fig 10{panel} — MNIST surrogate, DUAL (HD-Mapper) vs LSH"),
            &["D", "DUAL", "LSH", "DUAL-LSH"],
            &rows,
        );
    }
    Ok(())
}
