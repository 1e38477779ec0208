//! Perf-regression ratchet: compare freshly measured timing ratios
//! against the committed baseline `results/bench_summary.json`.
//!
//! ```text
//! cargo run --release -p dual-bench --bin bench_ratchet -- \
//!     --baseline results/bench_summary.json \
//!     --measured /tmp/stream.json --measured /tmp/obs.json [--update]
//! ```
//!
//! Every input is a flat `{"name": ratio}` JSON object in the
//! workspace's byte-stable idiom (`--summary-out` of
//! `stream_throughput` and `obs_overhead`). The metrics are
//! machine-normalized wall-time **ratios** (instrumented/baseline,
//! pipeline/encode), so a single committed baseline is meaningful
//! across hosts. Two failure modes:
//!
//! * **regression** — measured > baseline × (1 + `DUAL_BENCH_TOL`),
//!   default 10%. The hot path got slower; fix it or raise the
//!   tolerance explicitly.
//! * **stale baseline** — measured < baseline × (1 − 25%). The code got
//!   faster; the win must be locked in by re-running with `--update`
//!   and committing the new, lower baseline. This is the one-way
//!   burn-down: baselines only ratchet downward, never drift upward.
//!
//! `--update` rewrites the baseline from the measured values (sorted
//! keys, fixed `{:.4}` formatting) instead of checking.
//!
//! A failed check prints every failure and exits 1; a bad command line
//! or an unreadable input exits 2.

use dual_bench::{exit_failed, exit_usage, write_out, JsonObject};

const STALE_FRACTION: f64 = 0.25;

fn tolerance() -> f64 {
    std::env::var("DUAL_BENCH_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.10)
}

/// Parse the flat `{"name": number}` byte-stable JSON produced by the
/// `--summary-out` writers. Anything that is not a `"key": number`
/// line (braces, the `version` marker) is skipped; a non-numeric value
/// is an error naming `path` and the metric.
fn parse_flat(text: &str, path: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, value)) = rest.split_once("\":") else {
            continue;
        };
        if name == "version" {
            continue;
        }
        let value: f64 = value.trim().parse().map_err(|_| {
            format!("bench_ratchet: {path}: metric `{name}` has a non-numeric value")
        })?;
        out.push((name.to_string(), value));
    }
    Ok(out)
}

/// Read and parse one ratchet input; an unreadable file is an error
/// naming it.
fn read_metrics(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("bench_ratchet: cannot read ratchet input {path}: {e}"))?;
    parse_flat(&text, path)
}

fn to_json(metrics: &[(String, f64)]) -> String {
    metrics
        .iter()
        .fold(
            JsonObject::new().field("version", 1),
            |json, (name, value)| json.field(name, format_args!("{value:.4}")),
        )
        .pretty()
}

const SYNOPSIS: &str = "--baseline PATH --measured PATH... [--update]";

/// The command line, its options in any order.
#[derive(Debug, PartialEq)]
struct Args {
    baseline: String,
    measured: Vec<String>,
    update: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let bad = |problem: &str| format!("bench_ratchet: {problem}\nusage: bench_ratchet {SYNOPSIS}");
    let (mut baseline, mut measured, mut update) = (None, Vec::new(), false);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut path = || {
            args.next()
                .ok_or_else(|| bad(&format!("{arg} requires a path")))
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(path()?),
            "--measured" => measured.push(path()?),
            "--update" => update = true,
            _ => return Err(bad(&format!("unknown argument `{arg}`"))),
        }
    }
    let baseline = baseline.ok_or_else(|| bad("--baseline is required"))?;
    if measured.is_empty() {
        return Err(bad("at least one --measured input is required"));
    }
    Ok(Args {
        baseline,
        measured,
        update,
    })
}

/// One failure per metric that the name-sorted `measured` holds twice.
fn duplicates(measured: &[(String, f64)]) -> Vec<String> {
    measured
        .windows(2)
        .filter(|pair| pair[0].0 == pair[1].0)
        .map(|pair| {
            format!(
                "metric `{}` measured twice — the --summary-out inputs overlap",
                pair[0].0
            )
        })
        .collect()
}

/// Hold `measured` against `baseline`, print one table row per baseline
/// metric, and return every failure: a metric regressed past `tol`,
/// stale by more than [`STALE_FRACTION`], missing from the inputs, or
/// measured without a baseline.
fn check(
    baseline: &[(String, f64)],
    measured: &[(String, f64)],
    tol: f64,
    baseline_path: &str,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, base) in baseline {
        let base = *base;
        let Some(got) = measured.iter().find(|(n, _)| n == name).map(|&(_, v)| v) else {
            failures.push(format!("metric `{name}` missing from the measured inputs"));
            continue;
        };
        let delta = got / base.max(1e-12) - 1.0;
        let verdict = if got > base * (1.0 + tol) {
            failures.push(format!(
                "`{name}` regressed: {got:.4} vs baseline {base:.4} (+{:.1}% > +{:.0}%)",
                delta * 100.0,
                tol * 100.0
            ));
            "REGRESSED"
        } else if got < base * (1.0 - STALE_FRACTION) {
            failures.push(format!(
                "`{name}` baseline is stale: measured {got:.4} beats {base:.4} by {:.1}% — lock in the win via --update and commit the new baseline",
                -delta * 100.0
            ));
            "STALE"
        } else {
            "ok"
        };
        println!(
            "  {name:<28} {base:>9.4} {got:>9.4} {:>+7.1}%  {verdict}",
            delta * 100.0
        );
    }
    for (name, _) in measured {
        if !baseline.iter().any(|(n, _)| n == name) {
            failures.push(format!(
                "metric `{name}` is measured but absent from {baseline_path} — add it via --update"
            ));
        }
    }
    failures
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(exit_usage);
    let baseline_path = args.baseline;

    let mut measured: Vec<(String, f64)> = Vec::new();
    for path in &args.measured {
        measured.extend(read_metrics(path).unwrap_or_else(exit_usage));
    }
    measured.sort_by(|a, b| a.0.cmp(&b.0));
    let twice = duplicates(&measured);
    if !twice.is_empty() {
        exit_failed("bench_ratchet", &twice);
    }

    if args.update {
        write_out(&baseline_path, to_json(&measured)).unwrap_or_else(|e| {
            exit_usage(format!(
                "bench_ratchet: cannot write baseline {baseline_path}: {e}"
            ))
        });
        println!(
            "bench_ratchet: baseline {baseline_path} rewritten with {} metric(s)",
            measured.len()
        );
        return;
    }

    let tol = tolerance();
    let baseline = read_metrics(&baseline_path).unwrap_or_else(exit_usage);
    println!(
        "bench_ratchet: tolerance +{:.0}% (DUAL_BENCH_TOL), stale below -{:.0}%\n",
        tol * 100.0,
        STALE_FRACTION * 100.0
    );
    println!(
        "  {:<28} {:>9} {:>9} {:>8}  verdict",
        "metric", "baseline", "measured", "delta"
    );
    let failures = check(&baseline, &measured, tol, &baseline_path);
    if !failures.is_empty() {
        exit_failed("bench_ratchet", &failures);
    }
    println!(
        "\nbench_ratchet OK ({} metric(s) within the ratchet)",
        baseline.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Args, String> {
        parse_args(args.split_whitespace().map(String::from))
    }

    #[test]
    fn args_take_defaults_overrides_and_reject_with_usage() {
        let args = |measured: &[&str], update| Args {
            baseline: "b".into(),
            measured: measured.iter().map(|m| m.to_string()).collect(),
            update,
        };
        assert_eq!(parse("--baseline b --measured m"), Ok(args(&["m"], false)));
        let all = parse("--measured m1 --update --baseline b --measured m2");
        assert_eq!(all, Ok(args(&["m1", "m2"], true)));
        for bad in [
            "",
            "--measured m",
            "--baseline b",
            "--baseline",
            "--baseline b --measured m -v",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.ends_with(&format!("usage: bench_ratchet {SYNOPSIS}")),
                "{err}"
            );
        }
    }

    fn metrics(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn each_failed_verdict_is_a_returned_failure() {
        let baseline = metrics(&[("a", 1.0), ("b", 1.0), ("c", 1.0)]);
        // a within the tolerance, b regressed past it, c stale.
        let failures = check(
            &baseline,
            &metrics(&[("a", 1.05), ("b", 1.2), ("c", 0.5)]),
            0.1,
            "base.json",
        );
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(
            failures[0].starts_with("`b` regressed: 1.2000"),
            "{failures:?}"
        );
        assert!(
            failures[1].starts_with("`c` baseline is stale"),
            "{failures:?}"
        );
        let missing_and_new = check(
            &baseline,
            &metrics(&[("a", 1.0), ("b", 1.0), ("d", 1.0)]),
            0.1,
            "base.json",
        );
        assert_eq!(
            missing_and_new,
            [
                "metric `c` missing from the measured inputs",
                "metric `d` is measured but absent from base.json — add it via --update",
            ]
        );
        assert!(check(&baseline, &baseline, 0.1, "base.json").is_empty());
    }

    #[test]
    fn a_metric_measured_twice_is_a_failure() {
        assert_eq!(
            duplicates(&metrics(&[("a", 1.0), ("b", 1.0), ("b", 2.0)])),
            ["metric `b` measured twice — the --summary-out inputs overlap"]
        );
        assert!(duplicates(&metrics(&[("a", 1.0), ("b", 1.0)])).is_empty());
    }

    #[test]
    fn an_unreadable_input_is_an_error_naming_the_file() {
        let path =
            std::env::temp_dir().join(format!("dual-ratchet-missing-{}", std::process::id()));
        let path = path.to_str().unwrap();
        let err = read_metrics(path).unwrap_err();
        assert!(
            err.starts_with(&format!(
                "bench_ratchet: cannot read ratchet input {path}: "
            )),
            "{err}"
        );
        assert!(!err.contains('\n'), "one line: {err}");
    }

    #[test]
    fn a_non_numeric_value_is_an_error_naming_the_file_and_metric() {
        let text = "{\n  \"version\": 1,\n  \"a\": 1.5,\n  \"b\": fast\n}\n";
        assert_eq!(
            parse_flat(text, "m.json"),
            Err("bench_ratchet: m.json: metric `b` has a non-numeric value".into())
        );
        assert_eq!(
            parse_flat(&text.replace("fast", "2"), "m.json"),
            Ok(vec![("a".into(), 1.5), ("b".into(), 2.0)])
        );
    }
}
