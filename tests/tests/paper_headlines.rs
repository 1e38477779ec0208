//! The paper's headline numbers, checked end to end against the models
//! (tolerances reflect that our GPU side is a calibrated analytical
//! model — see EXPERIMENTS.md).

use dual_bench::speedup_energy;
use dual_core::baseline::Algorithm;
use dual_core::DualConfig;
use dual_data::Workload;
use dual_pim::{
    run_monte_carlo, AreaPowerModel, ChipConfig, CostModel, DeviceVariation, EnduranceModel,
    MonteCarloConfig, Op,
};

fn mean_speedup_energy(alg: Algorithm) -> (f64, f64) {
    let cfg = DualConfig::paper();
    let mut s = Vec::new();
    let mut e = Vec::new();
    for w in Workload::uci() {
        let (si, ei) = speedup_energy(cfg, alg, w);
        s.push(si);
        e.push(ei);
    }
    (
        s.iter().sum::<f64>() / s.len() as f64,
        e.iter().sum::<f64>() / e.len() as f64,
    )
}

#[test]
fn abstract_headline_58x_speedup_251x_energy() {
    let mut speedups = Vec::new();
    let mut energies = Vec::new();
    for alg in Algorithm::all() {
        let (s, e) = mean_speedup_energy(alg);
        speedups.push(s);
        energies.push(e);
    }
    let s = speedups.iter().sum::<f64>() / 3.0;
    let e = energies.iter().sum::<f64>() / 3.0;
    assert!(
        (s - 58.8).abs() / 58.8 < 0.10,
        "average speedup {s:.1} vs paper 58.8"
    );
    assert!(
        (e - 251.2).abs() / 251.2 < 0.15,
        "average energy {e:.1} vs paper 251.2"
    );
}

#[test]
fn per_algorithm_averages_match_section_viii_d() {
    let (s_h, e_h) = mean_speedup_energy(Algorithm::Hierarchical);
    assert!((s_h - 67.1).abs() / 67.1 < 0.10, "hier speedup {s_h:.1}");
    assert!((e_h - 328.7).abs() / 328.7 < 0.25, "hier energy {e_h:.1}");
    let (s_k, e_k) = mean_speedup_energy(Algorithm::KMeans);
    assert!((s_k - 37.5).abs() / 37.5 < 0.10, "kmeans speedup {s_k:.1}");
    assert!((e_k - 131.6).abs() / 131.6 < 0.25, "kmeans energy {e_k:.1}");
    let (s_d, e_d) = mean_speedup_energy(Algorithm::Dbscan);
    assert!((s_d - 71.7).abs() / 71.7 < 0.10, "dbscan speedup {s_d:.1}");
    assert!((e_d - 293.3).abs() / 293.3 < 0.25, "dbscan energy {e_d:.1}");
    // Ordering: dbscan ≥ hier ≫ k-means.
    assert!(s_d > s_k && s_h > s_k);
}

#[test]
fn table2_chip_area_and_power() {
    let chip = AreaPowerModel::paper().chip(ChipConfig::paper());
    assert!((chip.area_um2 * 1e-6 - 53.57).abs() / 53.57 < 0.02);
    assert!((chip.power_mw * 1e-3 - 113.51).abs() / 113.51 < 0.02);
}

#[test]
fn table3_anchors_are_exact() {
    let m = CostModel::paper();
    assert_eq!(m.latency_ns(Op::Add { bits: 8 }), 98.4);
    assert_eq!(m.latency_ns(Op::Mul { bits: 8 }), 448.3);
    assert_eq!(m.latency_ns(Op::Div { bits: 8 }), 561.4);
    assert_eq!(m.energy_pj(Op::Transfer { bits: 1 }), 0.748);
}

#[test]
fn lifetime_and_variation_headlines() {
    let m = EnduranceModel::paper();
    assert!((m.exact_lifetime_years() - 13.5).abs() < 0.3);
    assert!((m.years_until_quality_loss(0.01) - 17.2).abs() < 0.6);
    assert!((m.years_until_quality_loss(0.02) - 19.6).abs() < 0.6);
    let v = DeviceVariation::new(0.5);
    assert!((v.performance_derating() - 1.83).abs() < 1e-9);
    assert!((v.energy_derating() - 1.45).abs() < 1e-9);
    let mc = run_monte_carlo(MonteCarloConfig::paper());
    assert!(mc.accuracy() >= 0.999);
}

#[test]
fn variation_propagates_into_end_to_end_costs() {
    use dual_core::PerfModel;
    let nominal = PerfModel::new(DualConfig::paper()).hierarchical(10_000);
    let derated = PerfModel::new(DualConfig::paper().with_variation(DeviceVariation::new(0.5)))
        .hierarchical(10_000);
    let ratio = derated.time_s() / nominal.time_s();
    assert!((1.5..1.95).contains(&ratio), "variation slowdown {ratio}");
}
