//! Regenerate Table III: per-operation energy, execution time and
//! memory footprint of the DUAL supported operations.

use std::fmt::Write as _;

use super::{table, Result};
use dual_pim::CostModel;

pub fn run(out: &mut String) -> Result {
    let model = CostModel::paper();
    let rows: Vec<Vec<String>> = model
        .table3()
        .into_iter()
        .map(|(name, size, energy_pj, time_ns, bits)| {
            let energy = if energy_pj >= 1.0 {
                format!("{energy_pj:.1} pJ")
            } else {
                format!("{:.0} fJ", energy_pj * 1000.0)
            };
            let time = if time_ns >= 1.0 {
                format!("{time_ns:.1} ns")
            } else {
                format!("{:.0} ps", time_ns * 1000.0)
            };
            vec![
                name.to_string(),
                size.to_string(),
                energy,
                time,
                format!("{bits}-bits/row"),
            ]
        })
        .collect();
    table(
        out,
        "Table III: DUAL supported operations (28 nm, row-parallel on a 1k-row block)",
        &[
            "Operation",
            "Size",
            "Energy",
            "Execution Time",
            "Required Memory",
        ],
        &rows,
    );
    writeln!(out, "note: Hamming '0.8 ns' is the full 7-sample non-linear sweep (200 ps first sample + 6 x 100 ps).")?;
    Ok(())
}
