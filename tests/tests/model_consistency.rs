//! Cross-layer consistency of the cost models: the ISA runtime's
//! op-count accounting, the analytical performance model, and the
//! ablation/scaling behaviours must agree in their overlapping regimes.

use dual_core::baseline::{Algorithm, GpuModel, ImpModel};
use dual_core::{chip_scaling_speedup, DualConfig, PerfModel, Phase, ScalingModel};
use dual_isa::Runtime;
use dual_pim::{CostModel, Op};

#[test]
fn runtime_hamming_costs_match_cost_model() {
    // One 70-bit hamming over 8 refs: 10 windows, each priced exactly
    // as the Table III model says.
    let mut rt = Runtime::with_block_geometry(16, 256).expect("valid");
    let refs = rt.alloc(70, 8).expect("fits");
    for r in 0..8 {
        let bits: Vec<bool> = (0..70).map(|b| (b * (r + 1)) % 3 == 0).collect();
        rt.write_bits(&refs, r, &bits).expect("fits");
    }
    let query = vec![true; 70];
    let before = rt.stats().time_ns();
    let _ = rt.hamming(&query, &refs).expect("runs");
    let model = CostModel::paper();
    let spent = rt.stats().time_ns() - before;
    let floor = 10.0 * model.latency_ns(Op::HammingWindow);
    assert!(spent >= floor, "hamming under-priced: {spent} < {floor}");
    assert_eq!(rt.stats().count(Op::HammingWindow), 10);
}

#[test]
fn perf_model_time_scales_linearly_in_points() {
    let m = PerfModel::new(DualConfig::paper());
    let t1 = m.hierarchical(10_000).time_s();
    let t2 = m.hierarchical(20_000).time_s();
    let ratio = t2 / t1;
    assert!(
        (1.8..2.2).contains(&ratio),
        "hierarchical should be ~linear, got {ratio}"
    );
    let d1 = m.dbscan(10_000).time_s();
    let d2 = m.dbscan(20_000).time_s();
    assert!((1.8..2.2).contains(&(d2 / d1)));
}

#[test]
fn dimensionality_drives_hamming_phase() {
    let full = PerfModel::new(DualConfig::paper());
    let half = PerfModel::new(DualConfig::paper().with_dim(2000));
    let f = full.hierarchical(30_000);
    let h = half.hierarchical(30_000);
    // Hamming time halves with D; other phases barely move.
    let fh = f
        .phases()
        .iter()
        .find(|(p, _)| *p == Phase::Hamming)
        .expect("has hamming")
        .1
        .time_s();
    let hh = h
        .phases()
        .iter()
        .find(|(p, _)| *p == Phase::Hamming)
        .expect("has hamming")
        .1
        .time_s();
    assert!((hh / fh - 0.5).abs() < 0.05, "hamming ratio {}", hh / fh);
    assert!(h.time_s() < f.time_s());
}

#[test]
fn ablations_compose_monotonically() {
    let n = 20_000;
    let base = PerfModel::new(DualConfig::paper()).hierarchical(n).time_s();
    let no_ic = PerfModel::new(DualConfig::paper().without_interconnect())
        .hierarchical(n)
        .time_s();
    let no_ctr = PerfModel::new(DualConfig::paper().without_counters())
        .hierarchical(n)
        .time_s();
    let both = PerfModel::new(
        DualConfig::paper()
            .without_interconnect()
            .without_counters(),
    )
    .hierarchical(n)
    .time_s();
    assert!(no_ic > base && no_ctr > base);
    assert!(both >= no_ic.max(no_ctr), "ablations must compound");
}

#[test]
fn chip_scaling_is_sublinear_and_monotone() {
    let mut prev = 0.0;
    for chips in [1usize, 2, 4, 8, 16] {
        let s = chip_scaling_speedup(ScalingModel::Hierarchical, 1_000_000, chips);
        assert!(s >= prev, "monotone in chips");
        assert!(s <= chips as f64 + 1e-9, "never superlinear");
        prev = s;
    }
}

#[test]
fn imp_sits_between_gpu_and_dual() {
    let gpu = GpuModel::gtx_1080();
    let imp = ImpModel::paper();
    let dual = PerfModel::new(DualConfig::paper());
    let (n, m, k) = (60_000, 784, 10);
    for alg in Algorithm::all() {
        let t_gpu = gpu.cost(alg, n, m, k, 20).time_s();
        let t_imp = imp.cost(&gpu, alg, n, m, k, 20).time_s();
        let t_dual = match alg {
            Algorithm::Hierarchical => dual.hierarchical(n).time_s(),
            Algorithm::KMeans => dual.kmeans(n, k).time_s(),
            Algorithm::Dbscan => dual.dbscan(n).time_s(),
        };
        assert!(t_imp <= t_gpu, "{alg:?}: IMP no slower than GPU");
        assert!(t_dual < t_imp, "{alg:?}: DUAL beats IMP");
    }
}

#[test]
fn gpu_hd_penalty_matches_section_viii_d_direction() {
    // Running the HD-encoded algorithm on the GPU must be slower than
    // the original-space version — the whole point of the co-design.
    let gpu = GpuModel::gtx_1080();
    for alg in Algorithm::all() {
        let orig = gpu.cost(alg, 20_000, 300, 10, 20).time_s();
        let hd = gpu.cost_hd_on_gpu(alg, 20_000, 300, 4_000, 10, 20).time_s();
        assert!(hd > orig, "{alg:?}: HD-on-GPU should lose");
    }
}
