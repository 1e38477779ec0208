//! Property-based tests of the t-SNE implementation's structural
//! invariants.

use dual_bench::{neighbor_agreement, Tsne};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn embedding_is_permutation_stable_in_shape(
        xs in proptest::collection::vec(-5.0f64..5.0, 6..14),
    ) {
        // Same points, two input orders: the per-point embeddings differ
        // (random init) but pairwise neighbor structure of tight pairs
        // survives. We check the weaker, exact invariant: output length
        // matches input length and all coordinates stay finite/centered.
        let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, -x]).collect();
        let emb = Tsne::new().perplexity(3.0).iterations(60).seed(1).embed(&pts);
        prop_assert_eq!(emb.len(), pts.len());
        let mx: f64 = emb.iter().map(|p| p[0]).sum::<f64>() / emb.len() as f64;
        let my: f64 = emb.iter().map(|p| p[1]).sum::<f64>() / emb.len() as f64;
        prop_assert!(mx.abs() < 1e-6 && my.abs() < 1e-6);
        prop_assert!(emb.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn duplicated_points_stay_together(
        xs in proptest::collection::vec(-5.0f64..5.0, 3..6),
    ) {
        // Exact duplicates have maximal affinity: their embeddings must
        // end up closer to each other than to the farthest point.
        let mut pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x * 10.0, 0.0]).collect();
        pts.push(pts[0].clone()); // duplicate of point 0
        let emb = Tsne::new().perplexity(2.0).iterations(150).seed(3).embed(&pts);
        let dup = emb.len() - 1;
        let d_pair = (emb[0][0] - emb[dup][0]).powi(2) + (emb[0][1] - emb[dup][1]).powi(2);
        let d_max = emb[..dup]
            .iter()
            .map(|p| (emb[0][0] - p[0]).powi(2) + (emb[0][1] - p[1]).powi(2))
            .fold(0.0f64, f64::max);
        prop_assert!(d_pair <= d_max + 1e-12, "pair {d_pair} vs max {d_max}");
    }

    #[test]
    fn neighbor_agreement_is_scale_invariant(
        xs in proptest::collection::vec(-5.0f64..5.0, 4..10),
        scale in 0.1f64..100.0,
    ) {
        let emb: Vec<[f64; 2]> = xs.iter().map(|&x| [x, x * 2.0]).collect();
        let scaled: Vec<[f64; 2]> = emb.iter().map(|p| [p[0] * scale, p[1] * scale]).collect();
        let labels: Vec<usize> = (0..emb.len()).map(|i| i % 2).collect();
        prop_assert_eq!(
            neighbor_agreement(&emb, &labels),
            neighbor_agreement(&scaled, &labels)
        );
    }
}
