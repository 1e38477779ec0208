//! Pins the lint configuration that `cargo clippy -D warnings` enforces
//! (DESIGN.md § "Lint policy"). Deleting one of these attributes would
//! leave clippy green in silence, so their presence is checked here.

use std::fs;
use std::path::{Path, PathBuf};

const R1_DENY: &str =
    "#![deny(clippy::unwrap_used,clippy::expect_used,clippy::panic,clippy::unreachable)]";

/// The cost-model files whose numeric `as` casts must each be justified.
const CAST_AUDITED: [&str; 10] = [
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
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The file's lines that do not start with `comment`, concatenated.
fn code(rel: &str, comment: &str) -> String {
    fs::read_to_string(root().join(rel))
        .unwrap_or_else(|e| panic!("{rel}: {e}"))
        .lines()
        .filter(|l| !l.trim_start().starts_with(comment))
        .collect()
}

#[test]
fn every_lib_root_denies_the_panic_lints() {
    let mut roots = 0;
    for dir in ["crates", "shims"] {
        for entry in fs::read_dir(root().join(dir)).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            let src: String = code(&format!("{dir}/{name}/src/lib.rs"), "//")
                .split_whitespace()
                .collect();
            assert!(
                src.contains(R1_DENY),
                "{dir}/{name}/src/lib.rs lacks {R1_DENY}"
            );
            roots += 1;
        }
    }
    assert!(roots >= 21, "found only {roots} lib roots");
}

#[test]
fn cast_audited_files_begin_with_the_cast_deny() {
    for rel in CAST_AUDITED {
        let src = code(rel, "//!");
        assert!(src.starts_with("#![deny(clippy::as_conversions)]"), "{rel}");
    }
}

#[test]
fn clippy_toml_disallows_hash_order_and_wall_clock_types() {
    let toml = code(".clippy.toml", "#");
    for ty in [
        "collections::HashMap",
        "collections::HashSet",
        "time::Instant",
        "time::SystemTime",
    ] {
        assert!(
            toml.contains(&format!("path = \"std::{ty}\"")),
            "{ty} not disallowed"
        );
    }
}
