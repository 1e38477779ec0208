//! `benchmark run|suite|compare` — see README.md.

use dual_benchmark::compare::compare;
use dual_benchmark::json::Json;
use dual_benchmark::run::{run, Args};
use dual_benchmark::spec::Scale;
use dual_benchmark::suite::{suite, SuiteArgs, EXTRA_PREFIX};
use dual_benchmark::Res;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
  benchmark suite [--seed N] [--seconds S] [--quick] [--out DIR] [--meta key=value]...
  benchmark compare <a.json> <b.json> [--spec BENCHMARK.json] [--exact]";

/// Flags shared by `run` and `suite`.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    exact: bool,
    out: PathBuf,
    spec: PathBuf,
    meta: Vec<(String, String)>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Res<Flags> {
    let mut f = Flags {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        exact: false,
        out: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
        meta: Vec::new(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => f.seed = value()?.parse()?,
            "--seconds" => f.seconds = Some(value()?.parse()?),
            "--trace" => f.trace = value()?.parse::<u8>()? != 0,
            "--out" => f.out = PathBuf::from(value()?),
            "--spec" => f.spec = PathBuf::from(value()?),
            "--meta" => {
                let (k, v) = value()?.split_once('=').ok_or("--meta takes key=value")?;
                f.meta.push((k.to_owned(), v.to_owned()));
            }
            "--quick" => f.quick = true,
            "--exact" => f.exact = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}\n{USAGE}").into())
            }
            _ => f.positional.push(arg.clone()),
        }
    }
    if f.seconds.is_some_and(|s| !(s.is_finite() && s >= 0.0)) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(f)
}

fn refuse_debug_build() -> Res<()> {
    if cfg!(debug_assertions) {
        return Err(
            "refusing to measure a debug build: build with --release (benchmark/run.sh does)"
                .into(),
        );
    }
    Ok(())
}

fn main_inner() -> Res<bool> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) if !c.starts_with("--") => (c.as_str(), rest),
        _ => return Err(USAGE.into()),
    };
    let f = parse(rest)?;
    // `run_seconds` of BENCHMARK.json; a quick run is its minimum number
    // of passes.
    let seconds = f.seconds.unwrap_or(if f.quick { 0.0 } else { 20.0 });
    match command {
        "run" => {
            refuse_debug_build()?;
            let result = run(&Args {
                workload: f.workload.ok_or("run needs --workload")?,
                seed: f.seed,
                seconds,
                trace: f.trace,
                scale: if f.quick { Scale::Quick } else { Scale::Full },
                out_dir: f.out,
            })?;
            print!("{}", result.human());
            println!("{EXTRA_PREFIX}{}", result.extra_json().render());
            println!("{}", result.result_line());
            Ok(true)
        }
        "suite" => {
            refuse_debug_build()?;
            suite(&SuiteArgs {
                seed: f.seed,
                seconds,
                quick: f.quick,
                out_dir: f.out,
                meta: f.meta,
            })
        }
        "compare" => {
            let [a, b] = f.positional.as_slice() else {
                return Err(USAGE.into());
            };
            let load = |p: &std::path::Path| -> Res<Json> {
                let text =
                    std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
                Ok(Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?)
            };
            let c = compare(&load(&f.spec)?, &load(a.as_ref())?, &load(b.as_ref())?)?;
            print!("{}", c.table());
            Ok(!(c.regressed() || f.exact && c.changed()))
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
