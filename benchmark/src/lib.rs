//! Benchmark of the DUAL clustering stack: absolute points/s, commit
//! latency and a per-layer breakdown over four workloads.
//!
//! The harness measures the product only through its public API and is
//! its own Cargo workspace, so product PRs can refactor internals
//! without editing it. README.md documents workloads, metrics, bounds
//! and how to read the output.

pub mod compare;
pub mod gen;
pub mod json;
pub mod offline;
pub mod run;
pub mod span;
pub mod spec;
pub mod stats;
pub mod streaming;
pub mod suite;

/// Fallible result with a boxed error: set-up and I/O failures abort a
/// run with a message; failures of measured product calls are counted
/// instead (see `failed` in the result line).
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;
