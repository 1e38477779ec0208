//! The byte-stable JSON layout the report bins share, their common
//! `--out PATH --seed N` command line, and the one way a bin writes an
//! output file.
//!
//! A report is one pretty-printed object: `{`, one two-space-indented
//! `"key": value` entry per line, arrays of one-line `{"k": v, ...}`
//! records, `}`. Keys keep their insertion order and values arrive
//! preformatted, so each caller keeps its own float formatting.

use std::path::Path;
use std::{fmt, io};

/// A JSON object built entry by entry: [`pretty`](Self::pretty) for a
/// whole report, `Display` for a one-line record or nested value.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    entries: Vec<String>,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `"key": value`, with `value` written as it displays.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.entries.push(format!("\"{key}\": {value}"));
        self
    }

    /// Append `"key": "value"` (unescaped: report strings are names).
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Self {
        self.field(key, format_args!("\"{value}\""))
    }

    /// Append `"key": [...]`, one record per line of the pretty form.
    #[must_use]
    pub fn records(self, key: &str, records: impl IntoIterator<Item = JsonObject>) -> Self {
        let lines: Vec<String> = records.into_iter().map(|r| format!("\n    {r}")).collect();
        self.field(key, format_args!("[{}\n  ]", lines.join(",")))
    }

    /// The multi-line report form, newline-terminated.
    #[must_use]
    pub fn pretty(&self) -> String {
        format!("{{\n  {}\n}}\n", self.entries.join(",\n  "))
    }
}

impl fmt::Display for JsonObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.entries.join(", "))
    }
}

/// Write `contents` to `path`, creating the missing directories of
/// its parent first, so a bin writes where its `--out` points from any
/// working directory.
///
/// # Errors
///
/// The I/O error of creating a directory or writing the file.
pub fn write_out(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

/// Parse `[--out PATH] [--seed N]` (any order) over the defaults `out`
/// and `seed`, for the bin named `bin`.
///
/// # Errors
///
/// A message naming the bad argument, followed by the usage line.
pub fn out_seed_args(
    bin: &str,
    args: impl IntoIterator<Item = String>,
    out: &str,
    seed: u64,
) -> Result<(String, u64), String> {
    let usage = |problem: &str| format!("{bin}: {problem}\nusage: {bin} [--out PATH] [--seed N]");
    let (mut out, mut seed) = (out.to_string(), seed);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().ok_or_else(|| usage("--out requires a path"))?,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| usage("--seed requires an unsigned integer"))?;
            }
            _ => return Err(usage(&format!("unknown argument `{arg}`"))),
        }
    }
    Ok((out, seed))
}

/// Print a command-line error and exit with status 2: a bin's
/// `parse_args(..).unwrap_or_else(exit_usage)`.
pub fn exit_usage<T>(usage: String) -> T {
    eprintln!("{usage}");
    std::process::exit(2)
}

/// Print a gate's failed checks and exit with status 1: a failed gate
/// is a verdict, not a crash, and 1 keeps it apart from
/// [`exit_usage`]'s 2.
pub fn exit_failed(name: &str, failures: &[String]) -> ! {
    eprintln!("{name} failed:\n  - {}", failures.join("\n  - "));
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_interleaves_fields_and_record_arrays() {
        let row = |v| JsonObject::new().field("p", JsonObject::new().str("q", v));
        let json = JsonObject::new()
            .field("seed", 7)
            .records("empty", [])
            .records("rows", [row("a"), row("b")])
            .field("clean", true)
            .pretty();
        assert_eq!(
            json,
            "{\n  \"seed\": 7,\n  \"empty\": [\n  ],\n  \"rows\": [\n    {\"p\": {\"q\": \"a\"}},\n    {\"p\": {\"q\": \"b\"}}\n  ],\n  \"clean\": true\n}\n"
        );
    }

    #[test]
    fn out_seed_args_take_defaults_overrides_and_reject_with_usage() {
        let parse = |a: &[&str]| out_seed_args("b", a.iter().map(|s| s.to_string()), "r", 42);
        assert_eq!(parse(&[]), Ok(("r".into(), 42)));
        assert_eq!(parse(&["--seed", "9", "--out", "x"]), Ok(("x".into(), 9)));
        for bad in [&["--seed"][..], &["--seed", "-1"], &["--out"], &["-v"]] {
            let err = parse(bad).unwrap_err();
            assert!(err.ends_with("usage: b [--out PATH] [--seed N]"), "{err}");
        }
    }

    #[test]
    fn write_out_creates_the_missing_parent_directories() {
        let root =
            std::env::temp_dir().join(format!("dual-bench-write-out-{}", std::process::id()));
        let path = root.join("nested").join("deeper").join("report.json");
        let _ = std::fs::remove_dir_all(&root);
        write_out(&path, "{}\n").unwrap();
        write_out(&path, "{\"v\": 1}\n").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(text, "{\"v\": 1}\n", "the second write replaces the first");
    }
}
