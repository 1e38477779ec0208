//! Regenerate every table and figure of the paper, in process.
//!
//! ```text
//! cargo run --release -p dual-bench --bin all              # write results/<name>.txt
//! cargo run --release -p dual-bench --bin all -- fig12 ... # print the named artifacts
//! ```
//!
//! With no arguments every artifact is written to `results/<name>.txt`;
//! with names, those artifacts' text goes to stdout instead. Fig. 11
//! also writes its three `fig11_*.csv` embeddings either way. An
//! artifact that fails is reported, the rest still run, and the exit
//! status is 1.

use std::error::Error;
use std::path::Path;
use std::process::ExitCode;

use dual_bench::render_table;

mod fig10a;
mod fig10bcd;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig4c;
mod lifetime;
mod summary;
mod table2;
mod table3;
mod table4;

type Result<T = ()> = std::result::Result<T, Box<dyn Error>>;

/// An artifact's generator: it appends what it regenerates to the
/// string.
type Run = fn(&mut String) -> Result;

/// Every artifact, in regeneration order.
const ARTIFACTS: [(&str, Run); 13] = [
    ("table2", table2::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("fig4c", fig4c::run),
    ("fig10a", fig10a::run),
    ("fig10bcd", fig10bcd::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("lifetime", lifetime::run),
    ("summary", summary::run),
];

/// Append a [`render_table`] and a blank line.
fn table(out: &mut String, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    out.push_str(&render_table(title, headers, rows));
    out.push('\n');
}

/// Run one artifact; unless `to_stdout`, also write its text to
/// `results/<name>.txt`.
fn regenerate(name: &str, run: Run, to_stdout: bool) -> Result<String> {
    let mut text = String::new();
    run(&mut text)?;
    if !to_stdout {
        std::fs::create_dir_all("results")?;
        std::fs::write(Path::new("results").join(format!("{name}.txt")), &text)?;
    }
    Ok(text)
}

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = names.iter().find(|n| ARTIFACTS.iter().all(|(a, _)| a != n)) {
        let known: Vec<&str> = ARTIFACTS.iter().map(|(a, _)| *a).collect();
        eprintln!(
            "all: unknown artifact `{bad}`\nusage: all [{}]...",
            known.join("|")
        );
        return ExitCode::from(2);
    }
    let to_stdout = !names.is_empty();
    let mut failed = false;
    for (name, run) in ARTIFACTS {
        if to_stdout && !names.iter().any(|n| n == name) {
            continue;
        }
        match regenerate(name, run, to_stdout) {
            Ok(text) if to_stdout => print!("{text}"),
            Ok(text) => println!("{name:10} ok ({} bytes -> results/{name}.txt)", text.len()),
            Err(e) => {
                failed = true;
                eprintln!("{name:10} FAILED: {e}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The committed `results/` files named `*{ext}`.
    fn committed(ext: &str) -> BTreeSet<String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.ends_with(ext))
            .collect()
    }

    #[test]
    fn every_committed_text_artifact_is_regenerated() {
        let names: BTreeSet<String> = ARTIFACTS.iter().map(|(n, _)| format!("{n}.txt")).collect();
        assert_eq!(names.len(), ARTIFACTS.len(), "duplicate artifact name");
        assert_eq!(names, committed(".txt"));
    }

    #[test]
    fn fig11_owns_every_committed_csv() {
        let files: BTreeSet<String> = fig11::SPACES.iter().map(|s| s.0.to_string()).collect();
        assert_eq!(files, committed(".csv"));
    }
}
