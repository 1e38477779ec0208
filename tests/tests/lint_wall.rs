//! Pins the lint configuration that `cargo clippy -D warnings` enforces
//! (DESIGN.md § "Lint policy"). Deleting one of these attributes would
//! leave clippy green in silence, so their presence is checked here.
//! The crate layering (DESIGN.md § 2) is pinned here too: cargo accepts
//! any acyclic edge, so a new one would land in silence as well. So is
//! the rule that lib roots declare private modules: rustc's `dead_code`
//! cannot see an item a `pub mod` exposes.

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
    "crates/isa/src/verifier.rs",
    "crates/bench/src/bin/fault_sweep.rs",
];

/// The `pub mod`s a `crates/*/src/lib.rs` may declare, as
/// `crate-dir::module`, each with the reason its path must stay public.
const PUB_MODS: [(&str, &str); 3] = [
    (
        "core::baseline",
        "the facade re-exports it as `dual::baseline`, and bins and tests name its path",
    ),
    (
        "hdc::search",
        "benchmark/src calls `search::assign_batch` and may not be edited with the product",
    ),
    (
        "isa::verify",
        "the facade re-exports it as `dual::verify`, and bins and tests name its path",
    ),
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
    assert!(roots >= 18, "found only {roots} lib roots");
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

/// The crate names `crates/<dir>/Cargo.toml` lists as `[dependencies]`,
/// in either the `[dependencies]` table or `[dependencies.<name>]` form.
fn dependencies(dir: &str) -> Vec<String> {
    let rel = format!("crates/{dir}/Cargo.toml");
    let toml = fs::read_to_string(root().join(&rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    let mut deps = Vec::new();
    let mut in_table = false;
    for line in toml.lines().map(str::trim).filter(|l| !l.starts_with('#')) {
        if line.starts_with('[') {
            in_table = line == "[dependencies]";
            if let Some(name) = line.strip_prefix("[dependencies.") {
                deps.push(name.trim_end_matches(']').to_string());
            }
        } else if in_table && !line.is_empty() {
            deps.push(line.split(['.', '=', ' ']).next().unwrap().to_string());
        }
    }
    deps
}

#[test]
fn leaf_crates_stay_leaves_and_pim_has_no_fault_edge() {
    for leaf in ["fault", "obs", "snap"] {
        assert_eq!(
            dependencies(leaf),
            Vec::<String>::new(),
            "dual-{leaf} must depend on nothing"
        );
    }
    let pim = dependencies("pim");
    assert!(pim.contains(&"dual-obs".to_string()), "read {pim:?}");
    assert!(
        !pim.contains(&"dual-fault".to_string()),
        "dual-pim must not depend on dual-fault: {pim:?}"
    );
}

#[test]
fn lib_roots_declare_no_pub_mod_outside_the_allowlist() {
    let mut found = Vec::new();
    for entry in fs::read_dir(root().join("crates")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let rel = format!("crates/{name}/src/lib.rs");
        let src = fs::read_to_string(root().join(&rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        for line in src.lines() {
            if let Some(module) = line.trim_start().strip_prefix("pub mod ") {
                found.push(format!(
                    "{name}::{}",
                    module.trim_end_matches([';', '{', ' '])
                ));
            }
        }
    }
    found.sort();
    let allowed: Vec<&str> = PUB_MODS.iter().map(|&(module, _)| module).collect();
    assert_eq!(
        found, allowed,
        "a lib root declares a `pub mod` outside PUB_MODS (re-export its items instead), \
         or an allowlisted one is gone"
    );
}
