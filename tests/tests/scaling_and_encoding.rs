//! Integration tests for the capacity/partitioning layer and the
//! on-PIM encoding pipeline — the pieces that connect `dual-core` to
//! the substrates end to end.

use dual_core::{
    hierarchical_capacity, partition_plan, partitioned_cost, partitioned_hierarchical, DualConfig,
    PerfModel, PimEncoder,
};
use dual_hdc::{CosineMode, Encoder, HdMapper};
use dual_isa::Runtime;

#[test]
fn capacity_grows_with_chips_and_shrinks_with_distance_bits() {
    let one = hierarchical_capacity(&DualConfig::paper());
    let four = hierarchical_capacity(&DualConfig::paper().with_chips(4));
    assert!((1.9..2.1).contains(&(four as f64 / one as f64)), "√4 = 2×");
    // A higher D needs wider distance fields, lowering capacity.
    let wide = hierarchical_capacity(&DualConfig::paper().with_dim(8000));
    assert!(wide < one);
}

#[test]
fn partitioned_cost_is_continuous_at_the_capacity_boundary() {
    let cfg = DualConfig::paper();
    let cap = hierarchical_capacity(&cfg);
    let below = partitioned_cost(&cfg, cap - 1, 10).time_s();
    let above = partitioned_cost(&cfg, cap + 1, 10).time_s();
    // Crossing the boundary adds the representative pass, not an order
    // of magnitude.
    assert!(above / below < 1.5, "jump {}", above / below);
    let plan = partition_plan(&cfg, cap + 1, 10);
    assert_eq!(plan.partitions, 2);
}

#[test]
fn partitioned_functional_path_matches_monolithic_on_clean_data() {
    // Well-separated hypervector blobs: the two-level scheme must land
    // on the same flat clustering as the monolithic run.
    let mapper = HdMapper::builder(384, 3)
        .seed(2)
        .sigma(3.0)
        .build()
        .unwrap();
    let mut pts = Vec::new();
    let mut truth = Vec::new();
    for c in 0..3 {
        for j in 0..16 {
            pts.push(vec![c as f64 * 9.0, 9.0 - c as f64 * 4.0, 0.1 * j as f64]);
            truth.push(c);
        }
    }
    let encoded = mapper.encode_batch(&pts).unwrap();
    let labels = partitioned_hierarchical(&encoded, 3, 16).unwrap();
    let acc = dual_cluster::cluster_accuracy(&labels, &truth);
    assert!(acc > 0.95, "partitioned accuracy {acc}");
}

#[test]
fn pim_encoder_feeds_the_clustering_stack() {
    // Full loop: quantized on-PIM encoding → software Hamming
    // clustering recovers the blob structure.
    let mapper = HdMapper::builder(192, 4)
        .seed(8)
        .sigma(4.0)
        .cosine_mode(CosineMode::Taylor3Raw)
        .build()
        .unwrap();
    let enc = PimEncoder::new(&mapper, 6, 4.0).unwrap();
    let mut rt = Runtime::with_pool(192, 256, 64).unwrap();
    let mut encoded = Vec::new();
    let mut truth = Vec::new();
    for c in 0..2 {
        for j in 0..8 {
            let p = vec![
                c as f64 * 6.0,
                3.0 - c as f64 * 6.0,
                0.2 * j as f64,
                c as f64,
            ];
            encoded.push(enc.encode_on_pim(&mut rt, &p).unwrap());
            truth.push(c);
        }
    }
    let labels = dual_cluster::AgglomerativeClustering::fit(
        &encoded,
        dual_cluster::Linkage::Ward,
        dual_cluster::hamming,
    )
    .cut(2);
    let acc = dual_cluster::cluster_accuracy(&labels, &truth);
    assert!(acc > 0.9, "on-PIM encoded clustering accuracy {acc}");
    // The runtime priced the whole thing.
    assert!(rt.stats().time_ns() > 0.0);
}

#[test]
fn encoding_cost_model_and_functional_path_are_consistent_in_shape() {
    // The analytic encoding model says per-point cost is dominated by
    // m multiplies; the functional runtime's multiply count for one
    // point must equal m plus the constant Taylor-stage squares.
    let m_features = 10;
    let mapper = HdMapper::builder(64, m_features)
        .seed(1)
        .sigma(4.0)
        .build()
        .unwrap();
    let enc = PimEncoder::new(&mapper, 6, 4.0).unwrap();
    let mut rt = Runtime::with_pool(64, 256, 64).unwrap();
    let feats: Vec<f64> = (0..m_features).map(|i| 0.1 * i as f64).collect();
    let _ = enc.encode_on_pim(&mut rt, &feats).unwrap();
    let muls: u64 = (1..=64u32)
        .map(|b| rt.stats().count(dual_pim::Op::Mul { bits: b }))
        .sum();
    assert_eq!(
        muls as usize,
        m_features + 3,
        "m dot-product muls + y², q², v1·k24"
    );
    // And the analytic model scales ~linearly in m once the constant
    // Taylor stage is amortized.
    let model = PerfModel::new(DualConfig::paper());
    let e100 = model.encoding(10_000, 100).time_s();
    let e200 = model.encoding(10_000, 200).time_s();
    assert!((1.6..2.2).contains(&(e200 / e100)), "{}", e200 / e100);
}
