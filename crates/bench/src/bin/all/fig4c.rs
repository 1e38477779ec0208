//! Regenerate the Fig. 4c microbenchmark: linear vs non-linear
//! match-line sampling across CAM window widths.
//!
//! Paper expectation: linear (fixed-period) sampling distinguishes
//! mismatch counts exactly only up to 4-bit windows; DUAL's non-linear
//! schedule — one sample per discharge level, 200 ps first then ~100 ps
//! spacing — resolves 7-bit windows.

use std::fmt::Write as _;

use super::{table, Result};
use dual_pim::{Detection, MlDischargeModel, SamplingSchedule};

pub fn run(out: &mut String) -> Result {
    let model = MlDischargeModel::paper();
    let linear = SamplingSchedule::linear_200ps();
    let nonlinear = SamplingSchedule::paper();

    // Discharge curve (the physics both schedules sample).
    let rows: Vec<Vec<String>> = (1..=7u32)
        .map(|m| {
            vec![
                m.to_string(),
                format!("{:.0} ps", model.discharge_time_ps(m)),
            ]
        })
        .collect();
    table(
        out,
        "ML discharge time vs mismatches (τ = 1400 ps)",
        &["mismatches", "discharge"],
        &rows,
    );

    // Resolvability per window width.
    let mut rows = Vec::new();
    for width in 1..=8u32 {
        let exact = |s: &SamplingSchedule| {
            (0..=width).all(|m| matches!(s.detect(model, m, width), Detection::Exact(_)))
        };
        rows.push(vec![
            format!("{width}-bit"),
            if exact(&linear) { "exact" } else { "ambiguous" }.to_string(),
            if exact(&nonlinear) {
                "exact"
            } else {
                "ambiguous"
            }
            .to_string(),
        ]);
    }
    table(
        out,
        "Fig 4c: window resolvability (paper: linear caps at 4 bits, non-linear reaches 7)",
        &["window", "linear 200 ps", "non-linear"],
        &rows,
    );
    writeln!(
        out,
        "max exact window: linear = {} bits, non-linear = {} bits",
        linear.max_resolvable_bits(model),
        nonlinear.max_resolvable_bits(model).min(7)
    )?;
    let times = nonlinear.sample_times_ps(model, 7);
    let spaced: Vec<String> = times.iter().map(|t| format!("{t:.0}")).collect();
    writeln!(out, "non-linear sample times (ps): {}", spaced.join(", "))?;
    Ok(())
}
