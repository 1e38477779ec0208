//! Regenerate Fig. 11: t-SNE visualization of the UCIHAR surrogate in
//! (a) the original 561-dimensional space, (b) DUAL's D=4000 HD space
//! and (c) D=1000.
//!
//! The binary writes the three 2-D embeddings as CSV files under
//! `results/` and prints the quantitative readout: the
//! nearest-neighbor label agreement of each embedding. Paper
//! expectation: D=4000 is at least as clustering-friendly as the
//! original space; D=1000 is visibly worse (the paper quotes a 5.7 %
//! quality drop from D=4000 to D=1000).

use dual_bench::{auto_sigma, quality_dataset, BENCH_SEED};
use dual_data::Workload;
use dual_hdc::{Encoder, HdMapper};
use dual_tsne::{neighbor_agreement, Tsne};
use std::fs;
use std::path::Path;

fn main() {
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("can create results/");
    let ds = quality_dataset(Workload::Ucihar, 240);
    let sigma = auto_sigma(&ds.points) * 0.5;
    let mut outputs: Vec<(String, f64)> = Vec::new();
    let mut spaces: Vec<(&str, Vec<Vec<f64>>)> = vec![("original", ds.points.clone())];
    for dim in [4000usize, 1000] {
        let mapper = HdMapper::builder(dim, ds.n_features())
            .seed(BENCH_SEED)
            .sigma(sigma)
            .build()
            .expect("valid shape");
        let encoded = mapper.encode_batch(&ds.points).expect("shapes match");
        let float: Vec<Vec<f64>> = encoded
            .iter()
            .map(|hv| hv.bits().iter().map(f64::from).collect())
            .collect();
        spaces.push((
            if dim == 4000 {
                "dual_d4000"
            } else {
                "dual_d1000"
            },
            float,
        ));
    }
    for (name, pts) in &spaces {
        let emb = Tsne::new()
            .perplexity(20.0)
            .iterations(350)
            .seed(BENCH_SEED)
            .embed(pts);
        let score = neighbor_agreement(&emb, &ds.labels);
        let mut csv = String::from("x,y,label\n");
        for (p, &l) in emb.iter().zip(&ds.labels) {
            csv.push_str(&format!("{:.4},{:.4},{}\n", p[0], p[1], l));
        }
        let file = format!("fig11_{name}.csv");
        fs::write(out_dir.join(&file), csv).expect("writable results/");
        outputs.push((file, score));
        println!("{name:12} 1-NN label agreement = {score:.3}");
    }
    println!("\nembeddings written to:");
    for (file, _) in &outputs {
        println!("  {file}");
    }
    println!("paper expectation: dual_d4000 >= original > dual_d1000 in clustering friendliness");
}
