//! `benchmark compare <a.json> <b.json>`: apply each end-to-end
//! metric's bound from `BENCHMARK.json` to two result files.

use crate::json::Json;
use std::fmt::Write as _;

/// Per-layer counts that must not differ between two runs of the same
/// code on the same seed.
const EXACT_COUNTS: [&str; 6] = [
    "stream.batches",
    "stream.inline_flushes",
    "stream.size_cuts",
    "stream.deadline_cuts",
    "fault.injected",
    "fault.healed",
];
/// End-to-end metrics that are simulated or counted, not timed, and so
/// repeat exactly on any machine.
const EXACT_END_TO_END: [&str; 3] = [
    "cluster_accuracy",
    "sim_energy_pj_per_point",
    "sim_time_ns_per_point",
];
/// Relative tolerance for "identical" floating-point values.
const EXACT_TOLERANCE: f64 = 1e-9;

/// Verdict on one `(workload, metric)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// `b` is not worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// `b` reads worse, and the pass-to-pass spread is wider than the
    /// bound, so the difference cannot be told from noise.
    Unresolved,
    /// An exactly repeating value is the same in both files.
    Same,
    /// An exactly repeating value differs between the files.
    Changed,
}

impl Status {
    /// The word printed in the table.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Regressed => "regressed",
            Self::Unresolved => "unresolved",
            Self::Same => "same",
            Self::Changed => "changed",
        }
    }
}

/// One output row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in the first file.
    pub a: f64,
    /// Value in the second file.
    pub b: f64,
    /// How much worse `b` is, as a share of `a` (negative = better).
    pub worse: f64,
    /// The verdict.
    pub status: Status,
}

/// Outcome of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per `(workload, metric)`.
    pub rows: Vec<Row>,
}

impl Comparison {
    /// Whether any bounded metric regressed.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.status == Status::Regressed)
    }

    /// Whether any exactly repeating value changed.
    #[must_use]
    pub fn changed(&self) -> bool {
        self.rows.iter().any(|r| r.status == Status::Changed)
    }

    /// The table, one row per line.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:<28} {:>16} {:>16} {:>9}  status",
            "workload", "metric", "a", "b", "worse"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<18} {:<28} {:>16.6} {:>16.6} {:>+8.2}%  {}",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.worse * 100.0,
                r.status.word()
            );
        }
        out
    }
}

fn value(run: &Json, group: &str, metric: &str) -> Option<f64> {
    run.get(group)?.get(metric)?.get("value")?.as_f64()
}

fn relative_difference(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(b.abs())
    }
}

/// Compare result files `a` (the parent) and `b` (the change) under the
/// bounds of `spec` (`BENCHMARK.json`).
///
/// # Errors
///
/// Returns a message when a file lacks the expected structure.
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<Comparison, String> {
    let bounds = spec
        .get("end_to_end")
        .ok_or("BENCHMARK.json: no end_to_end")?;
    let runs_a = a.get("workloads").ok_or("first file: no workloads")?;
    let runs_b = b.get("workloads").ok_or("second file: no workloads")?;
    let mut rows = Vec::new();
    for (workload, run_a) in runs_a.fields() {
        let Some(run_b) = runs_b.get(workload) else {
            continue;
        };
        let spread = |run: &Json, metric: &str| {
            run.get("spread")
                .and_then(|s| s.get(metric))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        for m in bounds.items() {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(va), Some(vb)) = (
                value(run_a, "end_to_end", name),
                value(run_b, "end_to_end", name),
            ) else {
                continue;
            };
            let worse = if va == 0.0 {
                0.0
            } else if lower {
                (vb - va) / va.abs()
            } else {
                (va - vb) / va.abs()
            };
            let status = if EXACT_END_TO_END.contains(&name) {
                if relative_difference(va, vb) <= EXACT_TOLERANCE {
                    Status::Same
                } else if worse > bound {
                    Status::Regressed
                } else {
                    Status::Changed
                }
            } else if worse <= 0.0 {
                Status::Ok
            } else if spread(run_a, name).max(spread(run_b, name)) > bound {
                Status::Unresolved
            } else if worse > bound {
                Status::Regressed
            } else {
                Status::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: name.to_owned(),
                a: va,
                b: vb,
                worse,
                status,
            });
        }
        // Failures: any increase of the failed share is a regression.
        let share = |run: &Json| {
            let failed = run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            let attempted = run.get("attempted").and_then(Json::as_f64).unwrap_or(1.0);
            failed / attempted.max(1.0)
        };
        let (fa, fb) = (share(run_a), share(run_b));
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed_ops_share".into(),
            a: fa,
            b: fb,
            worse: fb - fa,
            status: if fb > fa {
                Status::Regressed
            } else {
                Status::Same
            },
        });
        for name in EXACT_COUNTS {
            if let (Some(va), Some(vb)) = (
                value(run_a, "per_layer", name),
                value(run_b, "per_layer", name),
            ) {
                rows.push(Row {
                    workload: workload.clone(),
                    metric: name.into(),
                    a: va,
                    b: vb,
                    worse: 0.0,
                    status: if va == vb {
                        Status::Same
                    } else {
                        Status::Changed
                    },
                });
            }
        }
        let digest = |run: &Json| {
            run.get("state_digest")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        if let (Some(da), Some(db)) = (digest(run_a), digest(run_b)) {
            // The table prints numbers: show the leading 32 bits, which
            // an f64 holds exactly.
            let as_number = |d: &str| (u64::from_str_radix(d, 16).unwrap_or(0) >> 32) as f64;
            rows.push(Row {
                workload: workload.clone(),
                metric: "state_digest".into(),
                a: as_number(&da),
                b: as_number(&db),
                worse: 0.0,
                status: if da == db {
                    Status::Same
                } else {
                    Status::Changed
                },
            });
        }
    }
    Ok(Comparison { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Json {
        Json::parse(
            r#"{"end_to_end":[
                {"name":"points_per_s","unit":"1/s","better":"higher","bound":0.05},
                {"name":"commit_latency_ms_p50","unit":"ms","better":"lower","bound":0.05},
                {"name":"sim_energy_pj_per_point","unit":"pJ/point","better":"lower","bound":0.01}
            ]}"#,
        )
        .unwrap()
    }

    fn results(
        rate: f64,
        latency: f64,
        energy: f64,
        spread: f64,
        failed: u64,
        digest: &str,
    ) -> Json {
        Json::parse(&format!(
            r#"{{"workloads":{{"w":{{"attempted":100,"failed":{failed},"state_digest":"{digest}",
                "end_to_end":{{"points_per_s":{{"value":{rate},"unit":"1/s"}},
                               "commit_latency_ms_p50":{{"value":{latency},"unit":"ms"}},
                               "sim_energy_pj_per_point":{{"value":{energy},"unit":"pJ/point"}}}},
                "per_layer":{{"stream.batches":{{"value":16,"unit":"count"}}}},
                "spread":{{"points_per_s":{spread}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn status(c: &Comparison, metric: &str) -> Status {
        c.rows.iter().find(|r| r.metric == metric).unwrap().status
    }

    #[test]
    fn within_bound_is_ok_and_beyond_is_regressed() {
        let a = results(1000.0, 10.0, 5.0, 0.01, 0, "ab");
        let c = compare(&spec(), &a, &results(960.0, 10.4, 5.0, 0.01, 0, "ab")).unwrap();
        assert_eq!(status(&c, "points_per_s"), Status::Ok);
        assert_eq!(status(&c, "commit_latency_ms_p50"), Status::Ok);
        assert_eq!(status(&c, "sim_energy_pj_per_point"), Status::Same);
        assert_eq!(status(&c, "stream.batches"), Status::Same);
        assert_eq!(status(&c, "state_digest"), Status::Same);
        assert!(!c.regressed() && !c.changed());

        let c = compare(&spec(), &a, &results(940.0, 10.6, 5.0, 0.01, 0, "ab")).unwrap();
        assert_eq!(status(&c, "points_per_s"), Status::Regressed);
        assert_eq!(status(&c, "commit_latency_ms_p50"), Status::Regressed);
        assert!(c.regressed());
        assert!(c.table().contains("regressed"));
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_change_reads_better() {
        let a = results(1000.0, 10.0, 5.0, 0.08, 0, "ab");
        let c = compare(&spec(), &a, &results(900.0, 10.0, 5.0, 0.02, 0, "ab")).unwrap();
        assert_eq!(status(&c, "points_per_s"), Status::Unresolved);
        assert!(!c.regressed());
        let c = compare(&spec(), &a, &results(1100.0, 10.0, 5.0, 0.08, 0, "ab")).unwrap();
        assert_eq!(status(&c, "points_per_s"), Status::Ok);
    }

    #[test]
    fn exact_values_failures_and_digests_are_reported() {
        let a = results(1000.0, 10.0, 5.0, 0.0, 0, "ab");
        let c = compare(&spec(), &a, &results(1000.0, 10.0, 5.001, 0.0, 1, "cd")).unwrap();
        assert_eq!(status(&c, "sim_energy_pj_per_point"), Status::Changed);
        assert_eq!(status(&c, "failed_ops_share"), Status::Regressed);
        assert_eq!(status(&c, "state_digest"), Status::Changed);
        assert!(c.regressed() && c.changed());
        let c = compare(&spec(), &a, &results(1000.0, 10.0, 5.2, 0.0, 0, "ab")).unwrap();
        assert_eq!(status(&c, "sim_energy_pj_per_point"), Status::Regressed);
    }

    #[test]
    fn malformed_files_are_an_error_not_a_panic() {
        let a = results(1.0, 1.0, 1.0, 0.0, 0, "ab");
        assert!(compare(&Json::obj(), &a, &a).is_err());
        assert!(compare(&spec(), &Json::obj(), &a).is_err());
    }
}
