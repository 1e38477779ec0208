//! Regenerate Fig. 13: the quality–efficiency trade-off — speedup and
//! energy efficiency when the dimensionality is reduced until quality
//! drops by at most 1 % / 2 % relative to D=4000.
//!
//! Paper expectation: hierarchical tolerates aggressive reduction
//! (90.6× / 443.9× at 1 % loss, 116.7× / 572.2× at 2 %), k-means is the
//! most sensitive (42.2× / 139.5× and 46.5× / 146.4×).

use super::table;
use dual_bench::{
    mean, quality, quality_dataset, speedup_energy, BenchError, Representation, BENCH_SEED,
};
use dual_core::baseline::Algorithm;
use dual_core::DualConfig;
use dual_data::Workload;

/// The candidate dimensionalities swept, descending.
const DIMS: [usize; 9] = [4000, 3000, 2500, 2000, 1500, 1000, 750, 500, 250];

fn minimal_dim_for_loss(alg: Algorithm, budget: f64) -> Result<usize, BenchError> {
    // The smallest D that keeps EVERY dataset within `budget` of its own
    // D=4000 reference — the paper's "less than x% quality loss on all
    // tested datasets".
    let sets: Vec<_> = Workload::uci()
        .into_iter()
        .map(|w| quality_dataset(w, 300))
        .collect();
    let per_set = |dim: usize| -> Result<Vec<f64>, BenchError> {
        sets.iter()
            .map(|ds| quality(ds, alg, Representation::HdMapper { dim }, BENCH_SEED))
            .collect()
    };
    let reference = per_set(4000)?;
    let mut best = 4000;
    for &dim in &DIMS {
        let q = per_set(dim)?;
        let ok = q.iter().zip(&reference).all(|(&qi, &ri)| qi >= ri - budget);
        if ok {
            best = dim;
        } else {
            break;
        }
    }
    Ok(best)
}

pub fn run(out: &mut String) -> super::Result {
    let mut rows = Vec::new();
    for alg in Algorithm::all() {
        for (label, budget) in [("1%", 0.01), ("2%", 0.02)] {
            let dim = minimal_dim_for_loss(alg, budget)?;
            let cfg = DualConfig::paper().with_dim(dim);
            let (speedups, energies): (Vec<f64>, Vec<f64>) = Workload::uci()
                .into_iter()
                .map(|w| speedup_energy(cfg, alg, w))
                .unzip();
            rows.push(vec![
                alg.name().to_string(),
                label.to_string(),
                dim.to_string(),
                format!("{:.1}x", mean(&speedups)),
                format!("{:.1}x", mean(&energies)),
            ]);
        }
    }
    table(
        out,
        "Fig 13: efficiency at bounded quality loss (paper: hier 90.6x/443.9x @1%, 116.7x/572.2x @2%; kmeans 42.2x/139.5x, 46.5x/146.4x)",
        &["algorithm", "loss budget", "chosen D", "speedup", "energy eff."],
        &rows,
    );
    Ok(())
}
