//! Machine-readable `--json` report (hand-serialized: the workspace is
//! offline and has no serialization framework, so the writer emits a
//! small, stable JSON document directly).
//!
//! Key order is fixed and collections are sorted, so the report is
//! byte-stable for identical inputs — snapshot-testable and diffable
//! across CI runs.

use std::fmt::Write as _;

use crate::baseline::Drift;
use crate::rules::ALL_RULES;
use crate::ScanReport;

/// JSON-escape a string (control characters, quotes, backslashes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the full machine report.
///
/// Shape (stable, `version` bumps on change):
///
/// ```json
/// {
///   "version": 1,
///   "files_scanned": 64,
///   "summary": {"r1-panic": 12, "r2-hash-iter": 0, ...},
///   "suppressed": 3,
///   "violations": [{"file": "...", "line": 7, "rule": "r1-panic", "message": "..."}],
///   "baseline": {"new_debt": 0, "overstated": 0, "ok": true}
/// }
/// ```
#[must_use]
pub fn to_json(report: &ScanReport, drifts: &[Drift]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files.len());

    // Per-rule active counts, every rule always present.
    out.push_str("  \"summary\": {");
    for (i, rule) in ALL_RULES.iter().enumerate() {
        let n = report.active().filter(|v| v.rule == *rule).count();
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", rule.id(), n);
    }
    out.push_str("},\n");

    let _ = writeln!(out, "  \"suppressed\": {},", report.suppressed_count());

    out.push_str("  \"violations\": [");
    let active: Vec<_> = report.active().collect();
    for (i, v) in active.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            escape(&v.file),
            v.line,
            v.rule.id(),
            escape(&v.message)
        );
    }
    if active.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }

    let new_debt = drifts.iter().filter(|d| d.is_new_debt()).count();
    let overstated = drifts.len() - new_debt;
    let config_errors = report.config_errors().count();
    let ok = drifts.is_empty() && config_errors == 0;
    let _ = writeln!(
        out,
        "  \"baseline\": {{\"new_debt\": {new_debt}, \"overstated\": {overstated}, \"ok\": {ok}}}"
    );
    out.push_str("}\n");
    out
}
