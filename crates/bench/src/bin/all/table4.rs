//! Regenerate Table IV: the evaluation workloads (UCI surrogates and
//! the paper's synthetic sets).

use std::fmt::Write as _;

use super::{table, Result};
use dual_data::table4;

pub fn run(out: &mut String) -> Result {
    let rows: Vec<Vec<String>> = table4()
        .into_iter()
        .map(|spec| {
            vec![
                spec.workload.name().to_string(),
                spec.n_points.to_string(),
                spec.n_features.to_string(),
                spec.n_clusters.to_string(),
                spec.description.to_string(),
            ]
        })
        .collect();
    table(
        out,
        "Table IV: Workloads",
        &[
            "Datasets",
            "# Data Point",
            "# Features",
            "# Clusters",
            "Description",
        ],
        &rows,
    );
    writeln!(out, "UCI rows are surrogate generators matching the published (n, m, k) signatures; see DESIGN.md substitution 1.")?;
    Ok(())
}
