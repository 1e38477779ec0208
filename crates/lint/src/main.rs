//! `dual-lint` — the workspace's static-analysis gate.
//!
//! ```text
//! dual-lint check [--root DIR] [--json [PATH]]
//! dual-lint rules
//! ```
//!
//! `check` exits 0 when no finding is active, 1 on any unsuppressed
//! finding (config errors included), 2 on usage or I/O errors. `ci.sh`
//! runs it as a hard gate.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use dual_lint::report::to_json;
use dual_lint::rules::{RuleConfig, ALL_RULES};
use dual_lint::scan_workspace;

const USAGE: &str = "usage: dual-lint <check|rules> [--root DIR] [--json [PATH]]";

const DEFAULT_JSON: &str = "results/lint-report.json";

struct Options {
    root: PathBuf,
    json: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut cmd = None;
    let mut root = PathBuf::from(".");
    let mut json = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" | "rules" if cmd.is_none() => cmd = Some(a.clone()),
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a value")?);
            }
            "--json" => {
                let path = match it.peek() {
                    Some(p) if !p.starts_with('-') => {
                        PathBuf::from(it.next().ok_or("unreachable: peeked value disappeared")?)
                    }
                    _ => PathBuf::from(DEFAULT_JSON),
                };
                json = Some(path);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let cmd = cmd.ok_or(USAGE.to_string())?;
    let json = json.map(|j| if j.is_absolute() { j } else { root.join(j) });
    Ok((cmd, Options { root, json }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("dual-lint: {e}");
            return ExitCode::from(2);
        }
    };
    match cmd.as_str() {
        "rules" => {
            println!("dual-lint rules:\n");
            for rule in ALL_RULES {
                println!("  {:14} {}", rule.id(), rule.describe());
            }
            println!("\nSuppress at a site with `// lint:allow(<rule-id>): <reason>`.");
            ExitCode::SUCCESS
        }
        "check" => match run_check(&opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("dual-lint: {e}");
                ExitCode::from(2)
            }
        },
        other => {
            eprintln!("dual-lint: unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_check(opts: &Options) -> Result<bool, String> {
    let report = scan_workspace(&opts.root, &RuleConfig::default())
        .map_err(|e| format!("scan failed: {e}"))?;

    if let Some(json_path) = &opts.json {
        if let Some(parent) = json_path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("creating {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(json_path, to_json(&report))
            .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    }

    let mut active = 0usize;
    for v in report.active() {
        active += 1;
        eprintln!("{}:{}: [{}] {}", v.file, v.line, v.rule.id(), v.message);
    }
    println!(
        "dual-lint: {} file(s) scanned, {} suppressed, {active} active finding(s)",
        report.files.len(),
        report.suppressed_count(),
    );
    if active == 0 {
        println!("dual-lint: OK");
    } else {
        eprintln!("dual-lint: FAILED (see diagnostics above)");
    }
    Ok(active == 0)
}
