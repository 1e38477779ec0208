//! The project-specific rules `dual-lint` enforces, evaluated over the
//! token stream produced by [`crate::lexer`].
//!
//! | id              | invariant                                                          |
//! |-----------------|--------------------------------------------------------------------|
//! | `r1-panic`      | no `unwrap()` / `expect()` / `unwrap_err()` / `expect_err()` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` in library code |
//! | `r2-hash-iter`  | no `HashMap` / `HashSet` in result-producing crates (hash iteration order reorders f64 folds) |
//! | `r2-time`       | no `SystemTime` / `Instant` feeding simulator outputs              |
//! | `r3-lossy-cast` | numeric `as` casts in the timing/energy cost-model files must be justified |
//! | `r4-unsafe`     | no `unsafe` in `crates/`; `unsafe` in `shims/` requires a `// SAFETY:` comment |
//!
//! Tests, benches, examples, fixtures, and `src/bin/` application code
//! are exempt from R1–R3 (R4 applies everywhere) — with one carve-out:
//! a file explicitly listed in [`RuleConfig::cast_audited_files`] is
//! audited by R3 even when it lives under an exempt path, so
//! result-emitting binaries (e.g. `fault_sweep`) carry the same cast
//! discipline as the cost-model library files. Any finding can be
//! silenced at the site with `// lint:allow(<rule-id>): <reason>` —
//! either trailing on the offending line or on its own line directly
//! above the offending statement.

use crate::lexer::{lex, LexOutput, Tok};

/// Stable identifier of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Panic-freedom in library code.
    R1Panic,
    /// Hash-order-dependent collections in result-producing crates.
    R2HashIter,
    /// Wall-clock time sources in result-producing crates.
    R2Time,
    /// Numeric `as` casts in the cost-model files.
    R3LossyCast,
    /// `unsafe` audit.
    R4Unsafe,
    /// Malformed `lint:allow` suppressions (never baselinable).
    Config,
}

/// All enforceable rules, in reporting order.
pub const ALL_RULES: [RuleId; 6] = [
    RuleId::R1Panic,
    RuleId::R2HashIter,
    RuleId::R2Time,
    RuleId::R3LossyCast,
    RuleId::R4Unsafe,
    RuleId::Config,
];

impl RuleId {
    /// The stable string id used in diagnostics, suppressions, and the
    /// baseline file.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Self::R1Panic => "r1-panic",
            Self::R2HashIter => "r2-hash-iter",
            Self::R2Time => "r2-time",
            Self::R3LossyCast => "r3-lossy-cast",
            Self::R4Unsafe => "r4-unsafe",
            Self::Config => "lint-config",
        }
    }

    /// Parse a string id back into a rule.
    #[must_use]
    pub fn from_id(s: &str) -> Option<Self> {
        ALL_RULES.iter().copied().find(|r| r.id() == s)
    }

    /// One-line description for `dual-lint rules` and reports.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Self::R1Panic => {
                "library code must not use unwrap()/expect() (nor their _err duals), \
                 panic!/unreachable!/todo!/unimplemented!"
            }
            Self::R2HashIter => {
                "result-producing crates must not use HashMap/HashSet (hash iteration order \
                 silently reorders floating-point folds); use BTreeMap/BTreeSet or justify"
            }
            Self::R2Time => {
                "result-producing crates must not read SystemTime/Instant (simulator outputs \
                 must be a pure function of inputs)"
            }
            Self::R3LossyCast => {
                "numeric `as` casts in the cost-model files must be replaced by From/TryFrom \
                 or justified with their value bounds"
            }
            Self::R4Unsafe => {
                "no `unsafe` in crates/; `unsafe` in shims/ requires a `// SAFETY:` comment"
            }
            Self::Config => "malformed lint:allow suppression (requires a rule id and a reason)",
        }
    }

    /// Whether pre-existing violations of this rule may be carried in
    /// the burn-down baseline (config errors never are).
    #[must_use]
    pub fn baselinable(self) -> bool {
        self != Self::Config
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable detail.
    pub message: String,
    /// `Some(reason)` when silenced by an inline `lint:allow`.
    pub suppressed: Option<String>,
}

/// Which rules apply to which files.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Crates (directory names under `crates/`) whose outputs are
    /// results of the reproduction — R2 applies here.
    pub result_crates: Vec<String>,
    /// Workspace-relative files audited by R3.
    pub cast_audited_files: Vec<String>,
}

impl Default for RuleConfig {
    fn default() -> Self {
        Self {
            result_crates: [
                "pim", "cluster", "core", "hdc", "stream", "obs", "fault", "snap", "verify",
                "topology", "trace",
            ]
            .iter()
            .map(ToString::to_string)
            .collect(),
            cast_audited_files: [
                "crates/pim/src/arch.rs",
                "crates/pim/src/cost.rs",
                "crates/pim/src/endurance.rs",
                "crates/pim/src/interconnect.rs",
                "crates/pim/src/stats.rs",
                "crates/pim/src/streaming.rs",
                "crates/pim/src/variation.rs",
                "crates/core/src/perf.rs",
                "crates/verify/src/verifier.rs",
                "crates/bench/src/bin/fault_sweep.rs",
            ]
            .iter()
            .map(ToString::to_string)
            .collect(),
        }
    }
}

const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

const R1_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Whether R1–R3 skip this file entirely (test/bench/example/application
/// code, and the analyzer's own fixtures).
#[must_use]
pub fn is_exempt_file(rel_path: &str) -> bool {
    let p = rel_path;
    p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.contains("/fixtures/")
        || p.contains("/src/bin/")
        || p.starts_with("tests/")
        || p.starts_with("examples/")
}

/// The crate directory name of a `crates/<name>/…` path, if any.
#[must_use]
pub fn crate_of(rel_path: &str) -> Option<&str> {
    rel_path.strip_prefix("crates/")?.split('/').next()
}

/// A parsed inline suppression.
#[derive(Debug, Clone)]
struct Suppression {
    rule: RuleId,
    reason: String,
    /// Line range (inclusive) of violations this suppression covers.
    covers: (u32, u32),
    used: std::cell::Cell<bool>,
    line: u32,
}

/// Analyze one file's source. `rel_path` must be workspace-relative with
/// forward slashes (it selects which rules apply).
#[must_use]
pub fn analyze_source(rel_path: &str, src: &str, cfg: &RuleConfig) -> Vec<Violation> {
    let lx = lex(src);
    let mut out = Vec::new();
    let exempt_file = is_exempt_file(rel_path);
    let in_shims = rel_path.starts_with("shims/");
    let in_crates = rel_path.starts_with("crates/");

    let (suppressions, mut config_errors) = collect_suppressions(rel_path, &lx);
    out.append(&mut config_errors);

    let exempt_tokens = test_exempt_token_mask(&lx);

    let result_crate = crate_of(rel_path)
        .map(|c| cfg.result_crates.iter().any(|r| r == c))
        .unwrap_or(false);
    let cast_audited = cfg.cast_audited_files.iter().any(|f| f == rel_path);

    let toks = &lx.tokens;
    for (k, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        let prev_punct = |c: char| k > 0 && toks[k - 1].tok == Tok::Punct(c);
        let next_punct = |c: char| toks.get(k + 1).map(|n| n.tok == Tok::Punct(c)) == Some(true);

        // R1: panic-freedom.
        if !exempt_file && !exempt_tokens[k] {
            let method_panic = (name == "unwrap"
                || name == "expect"
                || name == "unwrap_err"
                || name == "expect_err")
                && prev_punct('.')
                && next_punct('(');
            let macro_panic = R1_MACROS.contains(&name.as_str()) && next_punct('!');
            if method_panic || macro_panic {
                let what = if macro_panic {
                    format!("{name}!")
                } else {
                    format!(".{name}()")
                };
                out.push(Violation {
                    rule: RuleId::R1Panic,
                    file: rel_path.to_string(),
                    line: t.line,
                    message: format!("`{what}` in library code (return a typed error instead)"),
                    suppressed: None,
                });
            }
        }

        // R2: determinism in result-producing crates.
        if !exempt_file && !exempt_tokens[k] && result_crate {
            if name == "HashMap" || name == "HashSet" {
                out.push(Violation {
                    rule: RuleId::R2HashIter,
                    file: rel_path.to_string(),
                    line: t.line,
                    message: format!(
                        "`{name}` in a result-producing crate: iteration order is \
                         hash-order-dependent; use BTreeMap/BTreeSet (or sort before folding)"
                    ),
                    suppressed: None,
                });
            }
            if name == "SystemTime" || name == "Instant" {
                out.push(Violation {
                    rule: RuleId::R2Time,
                    file: rel_path.to_string(),
                    line: t.line,
                    message: format!(
                        "`{name}` in a result-producing crate: simulator outputs must not \
                         depend on wall-clock time"
                    ),
                    suppressed: None,
                });
            }
        }

        // R3: numeric-cast audit in cost-model files. An explicit
        // `cast_audited_files` listing overrides the path exemption, so
        // result-emitting `src/bin/` code can opt into the audit.
        if cast_audited && !exempt_tokens[k] && name == "as" {
            if let Some(Tok::Ident(ty)) = toks.get(k + 1).map(|n| &n.tok) {
                if NUMERIC_TYPES.contains(&ty.as_str()) {
                    out.push(Violation {
                        rule: RuleId::R3LossyCast,
                        file: rel_path.to_string(),
                        line: t.line,
                        message: format!(
                            "numeric cast `as {ty}` in a cost-model file: use \
                             From/TryFrom or justify the value bounds"
                        ),
                        suppressed: None,
                    });
                }
            }
        }

        // R4: unsafe audit (applies to tests too — unsafety is unsafety).
        if name == "unsafe" {
            if in_crates {
                out.push(Violation {
                    rule: RuleId::R4Unsafe,
                    file: rel_path.to_string(),
                    line: t.line,
                    message: "`unsafe` is forbidden under crates/ (#![forbid(unsafe_code)])"
                        .to_string(),
                    suppressed: None,
                });
            } else if in_shims && !has_safety_comment(&lx, t.line) {
                out.push(Violation {
                    rule: RuleId::R4Unsafe,
                    file: rel_path.to_string(),
                    line: t.line,
                    message: "`unsafe` in shims/ without a `// SAFETY:` comment on or \
                              directly above the line"
                        .to_string(),
                    suppressed: None,
                });
            }
        }
    }

    // Apply suppressions.
    for v in &mut out {
        if v.rule == RuleId::Config {
            continue;
        }
        // When continuation windows overlap, the *nearest* suppression
        // (greatest covering start line) claims the violation, so two
        // own-line suppressions on consecutive statements each match
        // their own line instead of the first swallowing both.
        if let Some(s) = suppressions
            .iter()
            .filter(|s| s.rule == v.rule && s.covers.0 <= v.line && v.line <= s.covers.1)
            .max_by_key(|s| s.covers.0)
        {
            s.used.set(true);
            v.suppressed = Some(s.reason.clone());
        }
    }

    // Unused suppressions are config errors: they hide nothing and rot.
    for s in &suppressions {
        if !s.used.get() {
            out.push(Violation {
                rule: RuleId::Config,
                file: rel_path.to_string(),
                line: s.line,
                message: format!(
                    "unused suppression `lint:allow({})` — no matching violation in its range",
                    s.rule.id()
                ),
                suppressed: None,
            });
        }
    }

    out.sort_by_key(|a| (a.line, a.rule));
    out
}

/// How many lines below its target code line an own-line suppression or
/// SAFETY comment still covers (rustfmt may wrap the statement).
const COVER_CONTINUATION_LINES: u32 = 2;

fn collect_suppressions(rel_path: &str, lx: &LexOutput) -> (Vec<Suppression>, Vec<Violation>) {
    let mut sups = Vec::new();
    let mut errs = Vec::new();
    for c in &lx.comments {
        // Doc comments (`///`, `//!`) are prose: a mention of the
        // suppression marker there documents the mechanism, not uses it.
        if c.text.starts_with('/') || c.text.starts_with('!') || c.text.starts_with('*') {
            continue;
        }
        let Some(pos) = c.text.find("lint:allow") else {
            continue;
        };
        let rest = &c.text[pos + "lint:allow".len()..];
        let parsed = parse_allow(rest);
        match parsed {
            Ok((rule, reason)) => {
                let covers = if c.own_line {
                    match lx.next_code_line(c.end_line) {
                        Some(target) => (target, target + COVER_CONTINUATION_LINES),
                        None => (c.end_line, c.end_line),
                    }
                } else {
                    (c.line, c.line)
                };
                sups.push(Suppression {
                    rule,
                    reason,
                    covers,
                    used: std::cell::Cell::new(false),
                    line: c.line,
                });
            }
            Err(why) => errs.push(Violation {
                rule: RuleId::Config,
                file: rel_path.to_string(),
                line: c.line,
                message: format!("malformed lint:allow: {why}"),
                suppressed: None,
            }),
        }
    }
    (sups, errs)
}

/// Parse `(rule-id): reason` (the text following `lint:allow`).
fn parse_allow(rest: &str) -> Result<(RuleId, String), String> {
    let rest = rest.trim_start();
    let Some(stripped) = rest.strip_prefix('(') else {
        return Err("expected `(<rule-id>): <reason>`".to_string());
    };
    let Some(close) = stripped.find(')') else {
        return Err("missing `)` after rule id".to_string());
    };
    let id = stripped[..close].trim();
    let Some(rule) = RuleId::from_id(id) else {
        return Err(format!("unknown rule id `{id}`"));
    };
    if !rule.baselinable() {
        return Err(format!("rule `{id}` cannot be suppressed"));
    }
    let after = stripped[close + 1..].trim_start();
    let Some(reason) = after.strip_prefix(':') else {
        return Err("missing `: <reason>` after rule id".to_string());
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Err("empty suppression reason".to_string());
    }
    Ok((rule, reason.to_string()))
}

/// Whether a `// SAFETY:` comment covers `line` (trailing on the same
/// line, or own-line within the 3 lines directly above).
fn has_safety_comment(lx: &LexOutput, line: u32) -> bool {
    lx.comments.iter().any(|c| {
        c.text.contains("SAFETY:")
            && ((c.line == line) || (c.own_line && c.end_line < line && line - c.end_line <= 3))
    })
}

/// Token mask marking `#[cfg(test)] mod { … }` bodies and
/// `#[test]`-attributed items as exempt.
fn test_exempt_token_mask(lx: &LexOutput) -> Vec<bool> {
    let toks = &lx.tokens;
    let mut exempt = vec![false; toks.len()];
    let mut k = 0usize;
    while k < toks.len() {
        if toks[k].tok != Tok::Punct('#') {
            k += 1;
            continue;
        }
        // Attribute: `#[ … ]` with nested brackets.
        let Some(open) = toks.get(k + 1) else { break };
        if open.tok != Tok::Punct('[') {
            k += 1;
            continue;
        }
        let Some(attr_end) = matching(toks, k + 1, '[', ']') else {
            break;
        };
        let attr_idents: Vec<&str> = toks[k + 2..attr_end]
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        let is_test_attr = attr_idents == ["test"]
            || (attr_idents.contains(&"cfg") && attr_idents.contains(&"test"));
        if !is_test_attr {
            k = attr_end + 1;
            continue;
        }
        // Skip any further attributes, then exempt the item's braced body.
        let mut j = attr_end + 1;
        while toks.get(j).map(|t| t.tok == Tok::Punct('#')) == Some(true)
            && toks.get(j + 1).map(|t| t.tok == Tok::Punct('[')) == Some(true)
        {
            match matching(toks, j + 1, '[', ']') {
                Some(e) => j = e + 1,
                None => break,
            }
        }
        // Find the opening brace of the item, bailing at `;` (e.g. a
        // cfg(test)-gated `use`).
        let mut b = j;
        let mut open_brace = None;
        while let Some(t) = toks.get(b) {
            match t.tok {
                Tok::Punct('{') => {
                    open_brace = Some(b);
                    break;
                }
                Tok::Punct(';') => break,
                _ => b += 1,
            }
        }
        if let Some(ob) = open_brace {
            if let Some(cb) = matching(toks, ob, '{', '}') {
                for e in exempt.iter_mut().take(cb + 1).skip(k) {
                    *e = true;
                }
                k = cb + 1;
                continue;
            }
        }
        k = attr_end + 1;
    }
    exempt
}

/// Index of the token closing the bracket opened at `open_idx`.
fn matching(
    toks: &[crate::lexer::Token],
    open_idx: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.tok == Tok::Punct(open) {
            depth += 1;
        } else if t.tok == Tok::Punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}
