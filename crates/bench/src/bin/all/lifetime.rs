//! Regenerate the §VIII-H lifetime and device-variability analyses.
//!
//! Paper expectation: continuously exercised arrays compute exactly for
//! 13.5 years, and stay within 1 % / 2 % quality loss for 17.2 / 19.6
//! years; at 50 % R_off/R_on variation the stretched clocks cost 1.83×
//! performance and 1.45× energy efficiency; 4-bit nearest-search stages
//! survive 10 % variation over 5000 Monte-Carlo trials.

use std::fmt::Write as _;

use super::{table, Result};
use dual_pim::{
    max_safe_stage_bits, run_monte_carlo, DeviceVariation, EnduranceModel, MonteCarloConfig,
};

pub fn run(out: &mut String) -> Result {
    // ---- lifetime ---------------------------------------------------------
    let m = EnduranceModel::paper();
    let rows = vec![
        vec![
            "exact computation".to_string(),
            format!("{:.1} years", m.exact_lifetime_years()),
            "13.5 years".to_string(),
        ],
        vec![
            "< 1% quality loss".to_string(),
            format!("{:.1} years", m.years_until_quality_loss(0.01)),
            "17.2 years".to_string(),
        ],
        vec![
            "< 2% quality loss".to_string(),
            format!("{:.1} years", m.years_until_quality_loss(0.02)),
            "19.6 years".to_string(),
        ],
    ];
    table(
        out,
        "DUAL lifetime (Gaussian endurance, wear-leveled)",
        &["condition", "model", "paper"],
        &rows,
    );

    // ---- variation --------------------------------------------------------
    let mut rows = Vec::new();
    for &v in &[0.0, 0.1, 0.25, 0.5] {
        let dv = DeviceVariation::new(v);
        rows.push(vec![
            format!("{:.0}%", v * 100.0),
            format!("{:.0} ps", dv.search_sample_ps(200.0)),
            format!("{:.2} ns", dv.nor_cycle_ns(1.0)),
            format!("{:.2}x", dv.performance_derating()),
            format!("{:.2}x", dv.energy_derating()),
        ]);
    }
    table(
        out,
        "Device variation derating (paper @50%: 350 ps search, 1.8 ns NOR, 1.83x perf, 1.45x energy)",
        &["variation", "search clock", "NOR cycle", "perf cost", "energy cost"],
        &rows,
    );

    // ---- Monte-Carlo search margin -----------------------------------------
    let mc = run_monte_carlo(MonteCarloConfig::paper());
    writeln!(
        out,
        "Monte-Carlo nearest search: {}/{} exact at 10% variation with 4-bit stages (paper: exact over 5000 runs)",
        mc.correct, mc.trials
    )?;
    writeln!(
        out,
        "max safe stage width: {} bits at 10% variation, {} bits at nominal (paper: 4 and up to 8)",
        max_safe_stage_bits(0.10, 5000, 11),
        max_safe_stage_bits(0.01, 5000, 11)
    )?;
    Ok(())
}
