//! The whole suite: every workload, untraced then traced, each in a
//! fresh child process so `peak_rss_mb` is per workload.

use crate::json::Json;
use crate::spec::WORKLOADS;
use crate::Res;
use std::path::Path;
use std::process::{Command, Stdio};

/// Prefix of the line a child prints just before its result line,
/// carrying digest, spreads and check verdicts for `results.json`.
pub const EXTRA_PREFIX: &str = "#extra ";

/// Options of a suite run.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Input seed for every workload.
    pub seed: u64,
    /// Measuring time per end-to-end run.
    pub seconds: f64,
    /// `--quick` sizing.
    pub quick: bool,
    /// Output directory (`results.json`, trace files).
    pub out_dir: std::path::PathBuf,
    /// `key=value` facts about the machine and build, from `run.sh`.
    pub meta: Vec<(String, String)>,
}

/// Run one child and return `(result line, extra line)` parsed.
fn child(exe: &Path, args: &SuiteArgs, workload: &str, trace: bool) -> Res<(Json, Json)> {
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        )
        .into());
    }
    let result = stdout.lines().last().ok_or("child printed nothing")?;
    let extra = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(EXTRA_PREFIX))
        .ok_or("child printed no #extra line")?;
    Ok((Json::parse(result)?, Json::parse(extra)?))
}

/// Run the suite and write `<out>/results.json`. Returns whether every
/// run was correct.
///
/// # Errors
///
/// A child that cannot be started or exits non-zero, unparsable child
/// output, or I/O errors writing the results.
pub fn suite(args: &SuiteArgs) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let mut meta = Json::obj()
        .with("seed", Json::Num(args.seed as f64))
        .with("seconds", Json::Num(args.seconds))
        .with("quick", Json::Bool(args.quick));
    for (k, v) in &args.meta {
        meta.set(k, Json::Str(v.clone()));
    }
    let mut workloads = Json::obj();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let (end_to_end, extra) = child(&exe, args, workload, false)?;
        let (per_layer, traced_extra) = child(&exe, args, workload, true)?;
        let flag = |j: &Json| j.get("correct").and_then(Json::as_bool).unwrap_or(false);
        // Two processes, tracing off and on, must end in the same state.
        let correct = flag(&end_to_end)
            && flag(&per_layer)
            && extra.get("state_digest") == traced_extra.get("state_digest");
        all_correct &= correct;
        let field = |j: &Json, key: &str| j.get(key).cloned().unwrap_or(Json::Null);
        workloads.set(
            workload,
            Json::obj()
                .with("correct", Json::Bool(correct))
                .with("attempted", field(&end_to_end, "attempted"))
                .with("failed", field(&end_to_end, "failed"))
                .with("state_digest", field(&extra, "state_digest"))
                .with("traced_state_digest", field(&traced_extra, "state_digest"))
                .with("end_to_end", field(&end_to_end, "metrics"))
                .with("per_layer", field(&per_layer, "metrics"))
                .with("spread", field(&extra, "spread"))
                .with("checks", field(&extra, "checks"))
                .with("traced_checks", field(&traced_extra, "checks")),
        );
    }
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join("results.json");
    let doc = Json::obj().with("meta", meta).with("workloads", workloads);
    std::fs::write(&path, doc.pretty())?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}
