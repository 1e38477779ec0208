//! Regenerate Fig. 12: DUAL speedup and energy-efficiency improvement
//! over the GTX 1080 baseline, per algorithm and dataset, plus the two
//! ablations (no interconnect, no counters).
//!
//! Paper expectation (averages): hierarchical 67.1× / 328.7×, k-means
//! 37.5× / 131.6×, DBSCAN 71.7× / 293.3×; without the interconnect
//! hierarchical loses ~3.9× and DBSCAN ~1.6×; without counters the
//! three algorithms lose ~2.7× / 2.1× / 2.4×.

use std::fmt::Write as _;

use super::{table, Result};
use dual_bench::{dual_report, geomean, mean, speedup_energy};
use dual_core::baseline::Algorithm;
use dual_core::DualConfig;
use dual_data::{workload, Workload};

pub fn run(out: &mut String) -> Result {
    let cfg = DualConfig::paper();
    for alg in Algorithm::all() {
        let mut rows = Vec::new();
        let mut speedups = Vec::new();
        let mut energies = Vec::new();
        for w in Workload::uci() {
            let (s, e) = speedup_energy(cfg, alg, w);
            let (s_noic, _) = speedup_energy(cfg.without_interconnect(), alg, w);
            let (s_noctr, _) = speedup_energy(cfg.without_counters(), alg, w);
            speedups.push(s);
            energies.push(e);
            rows.push(vec![
                w.name().to_string(),
                format!("{s:.1}x"),
                format!("{e:.1}x"),
                format!("{s_noic:.1}x"),
                format!("{s_noctr:.1}x"),
            ]);
        }
        rows.push(vec![
            "mean".into(),
            format!("{:.1}x", mean(&speedups)),
            format!("{:.1}x", mean(&energies)),
            String::new(),
            String::new(),
        ]);
        table(
            out,
            &format!("Fig 12 — {} vs GPU", alg.name()),
            &[
                "dataset",
                "speedup",
                "energy eff.",
                "no-interconnect",
                "no-counter",
            ],
            &rows,
        );
    }
    // Ablation slowdown factors (DUAL-relative, mean over datasets).
    writeln!(
        out,
        "== ablation slowdowns (DUAL time ratio vs full design) =="
    )?;
    for alg in Algorithm::all() {
        let mut no_ic = Vec::new();
        let mut no_ctr = Vec::new();
        for w in Workload::uci() {
            let spec = workload(w);
            let (n, m, k) = (spec.n_points, spec.n_features, spec.n_clusters);
            let base = dual_report(cfg, alg, n, m, k).time_s();
            no_ic.push(dual_report(cfg.without_interconnect(), alg, n, m, k).time_s() / base);
            no_ctr.push(dual_report(cfg.without_counters(), alg, n, m, k).time_s() / base);
        }
        writeln!(
            out,
            "{:12} no-interconnect {:.1}x   no-counter {:.1}x   (paper: {} / {})",
            alg.name(),
            geomean(&no_ic),
            geomean(&no_ctr),
            match alg {
                Algorithm::Hierarchical => "3.9x",
                Algorithm::KMeans => "n/a (center-count dependent)",
                Algorithm::Dbscan => "1.6x",
            },
            match alg {
                Algorithm::Hierarchical => "2.7x",
                Algorithm::KMeans => "2.1x",
                Algorithm::Dbscan => "2.4x",
            },
        )?;
    }
    Ok(())
}
