//! # dual-lint — in-tree static-analysis gate for the DUAL workspace
//!
//! A dependency-free analyzer that tokenizes every `.rs` file under
//! `crates/` and `shims/` and enforces the project invariants the
//! deterministic-kernel work of PR 1 rests on:
//!
//! * **R1 `r1-panic`** — panic-freedom in library code,
//! * **R2 `r2-hash-iter` / `r2-time`** — determinism (no hash-ordered
//!   collections or wall-clock reads in result-producing crates),
//! * **R3 `r3-lossy-cast`** — numeric-cast audit in the timing/energy
//!   cost-model files the paper's tables depend on,
//! * **R4 `r4-unsafe`** — no `unsafe` in `crates/`, `// SAFETY:`
//!   comments required in `shims/`.
//!
//! Findings are silenced at the site with
//! `// lint:allow(<rule-id>): <reason>`; any unsuppressed finding fails
//! the gate. See `DESIGN.md` § "Static-analysis gate".
//!
//! ```
//! use dual_lint::rules::{analyze_source, RuleConfig, RuleId};
//!
//! let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
//! let v = analyze_source("crates/pim/src/demo.rs", src, &RuleConfig::default());
//! assert_eq!(v[0].rule, RuleId::R1Panic);
//! ```

#![forbid(unsafe_code)]
// This crate's unwrap/expect debt is burned to zero: deny outright.
// (Test code is exempt via .clippy.toml allow-*-in-tests keys.)
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod lexer;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

use rules::{analyze_source, RuleConfig, Violation};

/// Result of scanning a workspace tree.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Workspace-relative paths of every file scanned (sorted).
    pub files: Vec<String>,
    /// Every finding, including suppressed ones, sorted by
    /// (file, line, rule).
    pub violations: Vec<Violation>,
}

impl ScanReport {
    /// Unsuppressed findings.
    pub fn active(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.suppressed.is_none())
    }

    /// Number of suppressed findings.
    #[must_use]
    pub fn suppressed_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.suppressed.is_some())
            .count()
    }
}

/// Scan errors (I/O only — source that fails to lex cleanly still
/// produces tokens on a best-effort basis).
#[derive(Debug)]
pub struct ScanError {
    /// Offending path.
    pub path: PathBuf,
    /// Underlying I/O error message.
    pub message: String,
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

/// The directory subtrees scanned relative to the workspace root.
pub const SCAN_ROOTS: [&str; 2] = ["crates", "shims"];

/// Directory names never descended into.
const SKIP_DIRS: [&str; 3] = ["target", "fixtures", ".git"];

/// Recursively collect `.rs` files under `root/{crates,shims}`,
/// workspace-relative with forward slashes, sorted.
pub fn collect_rs_files(root: &Path) -> Result<Vec<String>, ScanError> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), ScanError> {
    let entries = std::fs::read_dir(dir).map_err(|e| ScanError {
        path: dir.to_path_buf(),
        message: e.to_string(),
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| ScanError {
            path: dir.to_path_buf(),
            message: e.to_string(),
        })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Scan the workspace rooted at `root` with the given rule config.
pub fn scan_workspace(root: &Path, cfg: &RuleConfig) -> Result<ScanReport, ScanError> {
    let files = collect_rs_files(root)?;
    let mut violations = Vec::new();
    for rel in &files {
        let path = root.join(rel);
        let src = std::fs::read_to_string(&path).map_err(|e| ScanError {
            path: path.clone(),
            message: e.to_string(),
        })?;
        violations.extend(analyze_source(rel, &src, cfg));
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(ScanReport { files, violations })
}
