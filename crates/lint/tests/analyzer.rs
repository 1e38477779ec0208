//! Integration tests for the `dual-lint` analyzer: every rule fires on
//! its fixture, suppressions parse (and rot loudly), the JSON report is
//! byte-stable — and the real workspace has no active finding at all.

use std::path::Path;

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
fn suppressed_findings_stay_out_of_active() {
    let src = fixture("suppressions.rs");
    let violations = analyze_source("crates/pim/src/fixture.rs", &src, &RuleConfig::default());
    let report = ScanReport {
        files: vec!["crates/pim/src/fixture.rs".to_string()],
        violations,
    };
    // The two suppressed unwraps leave only the third one active; the
    // three config errors stay active too, since nothing suppresses them.
    let active: Vec<_> = report.active().collect();
    assert_eq!(report.suppressed_count(), 2);
    assert_eq!(
        active.iter().filter(|v| v.rule == RuleId::R1Panic).count(),
        1
    );
    assert_eq!(
        active.iter().filter(|v| v.rule == RuleId::Config).count(),
        3
    );
    assert!(active.iter().all(|v| v.suppressed.is_none()));
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
    let a = to_json(&report);
    let b = to_json(&report);
    assert_eq!(a, b, "report must be deterministic");

    // Fixed shape: version header, every rule in the summary, verdict
    // last.
    assert!(a.starts_with("{\n  \"version\": 2,\n"));
    for rule in dual_lint::rules::ALL_RULES {
        assert!(a.contains(&format!("\"{}\":", rule.id())), "{a}");
    }
    assert!(a.contains("\"files_scanned\": 1,"));
    assert!(a.contains("\"suppressed\": 2,"));
    assert!(a.contains("\"r1-panic\": 1,")); // the one active unwrap
    assert!(a.contains("\"lint-config\": 3}"));
    assert!(a.trim_end().ends_with("  \"ok\": false\n}"));
}

// ----------------------------------------------------- real workspace

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
}

#[test]
fn real_workspace_is_clean() {
    // No baseline: every finding in the tree is either fixed or carries
    // a justified site suppression, and an unused or malformed
    // suppression is itself an active finding.
    let report = scan_workspace(workspace_root(), &RuleConfig::default()).expect("scan");
    assert!(report.files.len() > 50, "scan looks truncated");
    let active: Vec<_> = report.active().collect();
    assert!(active.is_empty(), "active findings in tree: {active:#?}");
    assert!(to_json(&report).ends_with("  \"ok\": true\n}\n"));
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
