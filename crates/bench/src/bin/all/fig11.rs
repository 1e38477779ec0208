//! Regenerate Fig. 11: t-SNE visualization of the UCIHAR surrogate in
//! (a) the original 561-dimensional space, (b) DUAL's D=4000 HD space
//! and (c) D=1000.
//!
//! The artifact writes the three 2-D embeddings as CSV files under
//! `results/` and prints the quantitative readout: the
//! nearest-neighbor label agreement of each embedding. Paper
//! expectation: D=4000 is at least as clustering-friendly as the
//! original space; D=1000 is visibly worse (the paper quotes a 5.7 %
//! quality drop from D=4000 to D=1000).

use std::fmt::Write as _;
use std::path::Path;

use super::Result;
use dual_bench::{auto_sigma, neighbor_agreement, quality_dataset, Tsne, BENCH_SEED};
use dual_data::Workload;
use dual_hdc::{Encoder, HdMapper};

/// The embedded spaces in output order: CSV file under `results/`,
/// label, and HD dimensionality (`None`: the original features).
pub const SPACES: [(&str, &str, Option<usize>); 3] = [
    ("fig11_original.csv", "original", None),
    ("fig11_dual_d4000.csv", "dual_d4000", Some(4000)),
    ("fig11_dual_d1000.csv", "dual_d1000", Some(1000)),
];

pub fn run(out: &mut String) -> Result {
    let ds = quality_dataset(Workload::Ucihar, 240);
    let sigma = auto_sigma(&ds.points) * 0.5;
    std::fs::create_dir_all("results")?;
    for (file, name, dim) in SPACES {
        let pts = match dim {
            None => ds.points.clone(),
            Some(dim) => HdMapper::builder(dim, ds.n_features())
                .seed(BENCH_SEED)
                .sigma(sigma)
                .build()?
                .encode_batch(&ds.points)?
                .iter()
                .map(|hv| hv.bits().iter().map(f64::from).collect())
                .collect(),
        };
        let emb = Tsne::new()
            .perplexity(20.0)
            .iterations(350)
            .seed(BENCH_SEED)
            .embed(&pts);
        let score = neighbor_agreement(&emb, &ds.labels);
        let mut csv = String::from("x,y,label\n");
        for (p, &l) in emb.iter().zip(&ds.labels) {
            writeln!(csv, "{:.4},{:.4},{}", p[0], p[1], l)?;
        }
        std::fs::write(Path::new("results").join(file), csv)?;
        writeln!(out, "{name:12} 1-NN label agreement = {score:.3}")?;
    }
    writeln!(out, "\nembeddings written to:")?;
    for (file, _, _) in SPACES {
        writeln!(out, "  {file}")?;
    }
    writeln!(
        out,
        "paper expectation: dual_d4000 >= original > dual_d1000 in clustering friendliness"
    )?;
    Ok(())
}
