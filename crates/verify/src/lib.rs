//! # dual-isa-verify — static dataflow verifier for PIM instruction streams
//!
//! A [`Runtime`](dual_isa::Runtime) executes Table I instructions and
//! leaves behind a complete trace. This crate checks that trace — or
//! any candidate stream a compiler might emit — **without executing
//! it**, by abstract interpretation over four analysis families:
//!
//! 1. **Geometry** — every block/row/column operand lies inside the
//!    pool the trace claims to target; widths are non-zero and fit the
//!    64-bit driver limit.
//! 2. **Dataflow** — def-before-use on the query register: `hamm_7`
//!    window sweeps and `near_search`/`exact_search` issues are only
//!    legal after a `set_qinput` whose live span covers them, tracked
//!    through [`RegisterFile`](dual_isa::RegisterFile) effects.
//! 3. **Hazards** — intra-instruction interval overlap: arithmetic
//!    destinations vs. operands and scratch columns, `row_mv`
//!    source/destination aliasing, `select` flag-in-destination.
//! 4. **Cost bound** — an analytical serial upper bound priced from the
//!    trace alone, cross-checked for exact per-op count agreement
//!    against the executed [`EnergyStats`](dual_pim::EnergyStats).
//!
//! ```rust
//! use dual_isa::Runtime;
//! use dual_isa_verify::RuntimeVerify;
//!
//! # fn main() -> Result<(), dual_isa::IsaError> {
//! let mut rt = Runtime::with_block_geometry(64, 256)?;
//! let a = rt.alloc(8, 4)?;
//! let b = rt.alloc(8, 4)?;
//! let out = rt.alloc(9, 4)?;
//! rt.write_values(&a, &[1, 2, 3, 4])?;
//! rt.write_values(&b, &[5, 6, 7, 8])?;
//! rt.add(&a, &b, &out)?;
//! let report = rt.verify_trace();
//! assert!(report.is_clean());
//! assert_eq!(report.instructions, rt.trace().len());
//! # Ok(())
//! # }
//! ```
//!
//! Diagnostics are typed ([`VerifyError`]), anchored to the offending
//! instruction ([`Diagnostic`]), and split into gate-failing errors and
//! advisories ([`Severity`]). The `trace_verifier` bench bin aggregates
//! reports over every in-tree workload into the byte-stable
//! `results/isa_verify.json` consumed by `ci.sh --stage verify-isa`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod report;
mod verifier;

pub use report::{CostBound, Diagnostic, Severity, VerifyError, VerifyReport};
pub use verifier::{op_key, trace_ledger, Geometry, RuntimeVerify, Verifier};
