//! Image-analysis scenario: hierarchical clustering of an MNIST-like
//! workload, comparing the three representations of Fig. 10 (original
//! Euclidean, DUAL's HD-Mapper, and LSH) and sweeping dimensionality.
//!
//! ```text
//! cargo run --release --example image_clusters
//! ```

use dual::cluster::{cluster_accuracy, hamming, silhouette, AgglomerativeClustering, Linkage};
use dual::data::{workload, Workload};
use dual::hdc::{Encoder, HdMapper, LshEncoder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = workload(Workload::Mnist).generate(0.005, 7).truncated(300);
    println!(
        "workload: {} surrogate, {} points x {} features, {} classes\n",
        ds.name,
        ds.len(),
        ds.n_features(),
        ds.n_clusters
    );

    // Baseline: Ward on squared Euclidean in the original space.
    let base =
        AgglomerativeClustering::fit(&ds.points, Linkage::Ward, dual::cluster::squared_euclidean)
            .cut(ds.n_clusters);
    println!(
        "original space (Euclidean):        accuracy {:.3}",
        cluster_accuracy(&base, &ds.labels)
    );

    // Bandwidth for the RBF-style encoder: cross-validated over a small
    // grid of fractions of the median pairwise distance, exactly like
    // any kernel method tunes its bandwidth.
    let median = median_distance(&ds.points);

    for dim in [1000usize, 4000] {
        let mut best = 0.0f64;
        let mut best_sigma = median;
        for mult in [0.15, 0.25, 0.35, 0.5] {
            let mapper = HdMapper::builder(dim, ds.n_features())
                .seed(11)
                .sigma(median * mult)
                .build()?;
            let encoded = mapper.encode_batch(&ds.points)?;
            let labels =
                AgglomerativeClustering::fit(&encoded, Linkage::Ward, hamming).cut(ds.n_clusters);
            let acc = cluster_accuracy(&labels, &ds.labels);
            if acc > best {
                best = acc;
                best_sigma = median * mult;
            }
        }
        println!(
            "DUAL HD-Mapper D={dim:<5}             accuracy {best:.3} (sigma = {best_sigma:.1})",
        );
    }

    let lsh = LshEncoder::new(4000, ds.n_features(), 11)?;
    let encoded = lsh.encode_batch(&ds.points)?;
    let labels = AgglomerativeClustering::fit(&encoded, Linkage::Ward, hamming).cut(ds.n_clusters);
    println!(
        "LSH D=4000 (linear, angle-only):   accuracy {:.3}",
        cluster_accuracy(&labels, &ds.labels)
    );
    // A label-free sanity check a deployment could run: silhouette of
    // the baseline partition in the original space.
    let sil = silhouette(&ds.points, &base, dual::cluster::euclidean);
    println!("\nbaseline silhouette (label-free): {sil:.3}");
    println!("the non-linear HD-Mapper preserves the magnitude structure LSH discards.");
    Ok(())
}

fn median_distance(points: &[Vec<f64>]) -> f64 {
    let mut d = Vec::new();
    for i in (0..points.len()).step_by(3) {
        for j in (i + 1..points.len()).step_by(3) {
            d.push(dual::cluster::euclidean(&points[i], &points[j]));
        }
    }
    d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    d[d.len() / 2]
}
