//! Integration tests for the `dual-lint` analyzer: every rule fires on
//! its fixture, suppressions parse (and rot loudly), the baseline
//! ratchet fails in BOTH directions, the JSON report is byte-stable —
//! and the real workspace is clean against the checked-in baseline,
//! with the pim burn-down locked at zero.

use std::path::Path;

use dual_lint::baseline::{Baseline, Counts, Drift};
use dual_lint::report::to_json;
use dual_lint::rules::{analyze_source, RuleConfig, RuleId};
use dual_lint::{scan_workspace, ScanReport};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn count(violations: &[dual_lint::rules::Violation], rule: RuleId) -> usize {
    violations
        .iter()
        .filter(|v| v.rule == rule && v.suppressed.is_none())
        .count()
}

// ---------------------------------------------------------------- R1

#[test]
fn r1_fires_on_every_panic_pattern_in_library_code() {
    let src = fixture("r1_panic.rs");
    let v = analyze_source("crates/pim/src/fixture.rs", &src, &RuleConfig::default());
    // unwrap, expect, panic!, unreachable!, todo!, unwrap_err,
    // expect_err — and nothing from the test mod, the comment, or the
    // string literal.
    assert_eq!(count(&v, RuleId::R1Panic), 7, "{v:#?}");
    assert_eq!(count(&v, RuleId::Config), 0, "{v:#?}");
}

#[test]
fn r1_exempts_tests_benches_examples_and_bins() {
    let src = fixture("r1_panic.rs");
    for path in [
        "crates/pim/tests/fixture.rs",
        "crates/pim/benches/fixture.rs",
        "crates/pim/examples/fixture.rs",
        "crates/bench/src/bin/fixture.rs",
    ] {
        let v = analyze_source(path, &src, &RuleConfig::default());
        assert_eq!(count(&v, RuleId::R1Panic), 0, "{path} should be exempt");
    }
}

#[test]
fn r1_test_mod_exemption_is_token_scoped() {
    let src = fixture("r1_panic.rs");
    let v = analyze_source("crates/pim/src/fixture.rs", &src, &RuleConfig::default());
    // The unwrap/expect inside `#[cfg(test)] mod tests` must not appear.
    let test_mod_line = src
        .lines()
        .position(|l| l.contains("fn tests_may_panic_freely"))
        .expect("fixture anchor") as u32;
    assert!(
        v.iter().all(|f| f.line <= test_mod_line),
        "findings leaked into the test mod: {v:#?}"
    );
}

// ---------------------------------------------------------------- R2

#[test]
fn r2_fires_only_in_result_producing_crates() {
    let src = fixture("r2_determinism.rs");
    let in_pim = analyze_source("crates/pim/src/fixture.rs", &src, &RuleConfig::default());
    assert_eq!(count(&in_pim, RuleId::R2HashIter), 5, "{in_pim:#?}");
    assert_eq!(count(&in_pim, RuleId::R2Time), 4, "{in_pim:#?}");

    // bench is not a result-producing crate: R2 does not apply.
    let in_bench = analyze_source("crates/bench/src/fixture.rs", &src, &RuleConfig::default());
    assert_eq!(count(&in_bench, RuleId::R2HashIter), 0);
    assert_eq!(count(&in_bench, RuleId::R2Time), 0);
}

// ---------------------------------------------------------------- R3

#[test]
fn r3_fires_only_in_cast_audited_files() {
    let src = fixture("r3_casts.rs");
    let cfg = RuleConfig::default();
    let audited = cfg.cast_audited_files.first().expect("non-empty config");

    let in_audited = analyze_source(audited, &src, &cfg);
    assert_eq!(
        count(&in_audited, RuleId::R3LossyCast),
        3,
        "{in_audited:#?}"
    );

    let elsewhere = analyze_source("crates/pim/src/not_audited.rs", &src, &cfg);
    assert_eq!(count(&elsewhere, RuleId::R3LossyCast), 0);
}

// ---------------------------------------------------------------- R4

#[test]
fn r4_forbids_unsafe_under_crates() {
    let src = fixture("r4_unsafe_shim.rs");
    let v = analyze_source("crates/pim/src/fixture.rs", &src, &RuleConfig::default());
    // Both unsafe blocks are findings under crates/ — SAFETY comments
    // don't excuse them there.
    assert_eq!(count(&v, RuleId::R4Unsafe), 2, "{v:#?}");
}

#[test]
fn r4_requires_safety_comments_in_shims() {
    let src = fixture("r4_unsafe_shim.rs");
    let v = analyze_source("shims/rand/src/fixture.rs", &src, &RuleConfig::default());
    // Only the undocumented block is a finding.
    assert_eq!(count(&v, RuleId::R4Unsafe), 1, "{v:#?}");
    let undocumented_line = src
        .lines()
        .position(|l| l.contains("fn undocumented"))
        .expect("fixture anchor") as u32;
    let finding = v
        .iter()
        .find(|f| f.rule == RuleId::R4Unsafe)
        .expect("one finding");
    assert!(finding.line > undocumented_line, "{finding:#?}");
}

// ------------------------------------------------------- suppressions

#[test]
fn suppressions_silence_cover_and_rot() {
    let src = fixture("suppressions.rs");
    let v = analyze_source("crates/pim/src/fixture.rs", &src, &RuleConfig::default());

    let suppressed: Vec<_> = v.iter().filter(|f| f.suppressed.is_some()).collect();
    let active_r1 = count(&v, RuleId::R1Panic);
    // Own-line + trailing suppressions cover two of the three unwraps.
    assert_eq!(suppressed.len(), 2, "{v:#?}");
    assert_eq!(active_r1, 1, "{v:#?}");

    // Config errors: one unused suppression + two malformed ones.
    let config: Vec<_> = v.iter().filter(|f| f.rule == RuleId::Config).collect();
    assert_eq!(config.len(), 3, "{config:#?}");
    assert!(config.iter().any(|f| f.message.contains("unused")));
    assert!(config.iter().any(|f| f.message.contains("unknown rule id")));
    assert!(config
        .iter()
        .any(|f| f.message.contains("missing `: <reason>`")));
}

#[test]
fn suppressed_findings_do_not_enter_baseline_counts() {
    let src = fixture("suppressions.rs");
    let violations = analyze_source("crates/pim/src/fixture.rs", &src, &RuleConfig::default());
    let files = vec!["crates/pim/src/fixture.rs".to_string()];
    let report = ScanReport { files, violations };
    let counts = report.counts();
    // Only the one active unwrap counts; config errors never baseline.
    assert_eq!(
        counts.get("r1-panic").and_then(|m| m.values().next()),
        Some(&1)
    );
    assert!(!counts.contains_key("lint-config"));
}

// ------------------------------------------------------------ ratchet

fn counts_of(rule: &str, file: &str, n: u64) -> Counts {
    let mut c = Counts::new();
    c.entry(rule.to_string())
        .or_default()
        .insert(file.to_string(), n);
    c
}

#[test]
fn ratchet_fails_on_new_debt() {
    let baseline = Baseline::parse("[r1-panic]\n\"crates/x/src/lib.rs\" = 2\n").expect("parses");
    let drifts = baseline.compare(&counts_of("r1-panic", "crates/x/src/lib.rs", 3));
    assert_eq!(drifts.len(), 1);
    assert!(drifts[0].is_new_debt(), "{drifts:#?}");
    assert!(drifts[0].to_string().contains("baseline allows 2"));
}

#[test]
fn ratchet_fails_on_overstated_baseline() {
    let baseline = Baseline::parse("[r1-panic]\n\"crates/x/src/lib.rs\" = 2\n").expect("parses");
    // Debt was paid down: the stale baseline must also fail the gate.
    let drifts = baseline.compare(&counts_of("r1-panic", "crates/x/src/lib.rs", 1));
    assert_eq!(drifts.len(), 1);
    assert!(!drifts[0].is_new_debt(), "{drifts:#?}");
    assert!(drifts[0].to_string().contains("--write-baseline"));

    // …including when the file is now completely clean.
    let drifts = baseline.compare(&Counts::new());
    assert_eq!(drifts.len(), 1);
    assert!(matches!(drifts[0], Drift::Overstated { .. }));
}

#[test]
fn ratchet_passes_on_exact_match() {
    let baseline = Baseline::parse("[r1-panic]\n\"crates/x/src/lib.rs\" = 2\n").expect("parses");
    let drifts = baseline.compare(&counts_of("r1-panic", "crates/x/src/lib.rs", 2));
    assert!(drifts.is_empty(), "{drifts:#?}");
}

#[test]
fn baseline_serialize_parse_roundtrip() {
    let mut counts = counts_of("r1-panic", "crates/x/src/lib.rs", 2);
    counts
        .entry("r3-lossy-cast".to_string())
        .or_default()
        .insert("crates/y/src/cost.rs".to_string(), 7);
    let b = Baseline::from_counts(&counts);
    let text = b.serialize();
    let reparsed = Baseline::parse(&text).expect("own output parses");
    assert!(reparsed.compare(&counts).is_empty());
    // Canonical form is stable.
    assert_eq!(text, Baseline::from_counts(&counts).serialize());
}

#[test]
fn baseline_rejects_bad_input() {
    for (bad, why) in [
        ("\"crates/x.rs\" = 1\n", "entry before any section"),
        ("[no-such-rule]\n", "unknown rule"),
        ("[lint-config]\n", "unbaselinable rule"),
        ("[r1-panic]\n\"crates/x.rs\" = 0\n", "zero count"),
        (
            "[r1-panic]\n\"crates/x.rs\" = 1\n\"crates/x.rs\" = 2\n",
            "duplicate",
        ),
    ] {
        assert!(Baseline::parse(bad).is_err(), "should reject: {why}");
    }
}

// --------------------------------------------------------------- JSON

#[test]
fn json_report_is_byte_stable_and_well_formed() {
    let src = fixture("suppressions.rs");
    let violations = analyze_source("crates/pim/src/fixture.rs", &src, &RuleConfig::default());
    let report = ScanReport {
        files: vec!["crates/pim/src/fixture.rs".to_string()],
        violations,
    };
    let baseline = Baseline::default();
    let drifts = baseline.compare(&report.counts());

    let a = to_json(&report, &drifts);
    let b = to_json(&report, &drifts);
    assert_eq!(a, b, "report must be deterministic");

    // Fixed shape: version header, every rule in the summary, baseline
    // verdict last.
    assert!(a.starts_with("{\n  \"version\": 1,\n"));
    for rule in dual_lint::rules::ALL_RULES {
        assert!(a.contains(&format!("\"{}\":", rule.id())), "{a}");
    }
    assert!(a.contains("\"files_scanned\": 1,"));
    assert!(a.contains("\"suppressed\": 2,"));
    assert!(a.contains("\"new_debt\": 1")); // the one active unwrap
    assert!(a.trim_end().ends_with('}'));
}

// ----------------------------------------------------- real workspace

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
}

#[test]
fn real_workspace_matches_checked_in_baseline() {
    let root = workspace_root();
    let report = scan_workspace(root, &RuleConfig::default()).expect("scan");
    assert!(report.files.len() > 50, "scan looks truncated");
    assert_eq!(
        report.config_errors().count(),
        0,
        "malformed/unused suppressions in tree: {:#?}",
        report.config_errors().collect::<Vec<_>>()
    );
    let text = std::fs::read_to_string(root.join("lint-baseline.toml")).expect("baseline exists");
    let baseline = Baseline::parse(&text).expect("baseline parses");
    let drifts = baseline.compare(&report.counts());
    assert!(drifts.is_empty(), "workspace drifted: {drifts:#?}");
}

#[test]
fn default_config_names_only_paths_that_exist() {
    // A rule scoped to a deleted crate or file silently checks nothing.
    let root = workspace_root();
    let cfg = RuleConfig::default();
    for name in &cfg.result_crates {
        assert!(
            root.join("crates").join(name).is_dir(),
            "result_crates names missing crates/{name}"
        );
    }
    for file in &cfg.cast_audited_files {
        assert!(
            root.join(file).is_file(),
            "cast_audited_files names missing {file}"
        );
    }
}

#[test]
fn pim_debt_is_burned_to_zero() {
    // PR acceptance: the pim entries must be strictly below the pre-PR
    // debt (14 r1-panic + 5 r2-hash-iter + 11 r3-lossy-cast findings).
    // This PR burns them to zero — lock that in.
    let root = workspace_root();
    let report = scan_workspace(root, &RuleConfig::default()).expect("scan");
    let pim_active: Vec<_> = report
        .active()
        .filter(|v| v.file.starts_with("crates/pim/"))
        .collect();
    assert!(
        pim_active.is_empty(),
        "crates/pim regressed: {pim_active:#?}"
    );
    let text = std::fs::read_to_string(root.join("lint-baseline.toml")).expect("baseline exists");
    let baseline = Baseline::parse(&text).expect("baseline parses");
    assert_eq!(baseline.debt_under("crates/pim"), 0);

    // Determinism rules hold tree-wide, not just in pim.
    let counts = report.counts();
    for rule in ["r2-hash-iter", "r2-time", "r4-unsafe"] {
        let total: u64 = counts.get(rule).map(|m| m.values().sum()).unwrap_or(0);
        assert_eq!(total, 0, "{rule} must stay at zero tree-wide");
    }
}
