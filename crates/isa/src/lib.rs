//! # dual-isa — DUAL's PIM instruction set, VLCA arrays and runtime
//!
//! The programming layer of DUAL (§VII): programs manipulate
//! **Variable-Length Column Arrays** ([`Vlca`]) — `N`-element arrays of
//! `D`-bit values laid out column-wise in crossbar blocks — through a
//! small set of built-in functions that a runtime lowers onto the PIM
//! instructions of Table I:
//!
//! | instruction       | read registers                  | write registers |
//! |-------------------|---------------------------------|-----------------|
//! | `set_qinput`      | `b, <addr>, <size>`             | `q`             |
//! | `hamm_7`          | `b, c1, c2, q`                  | —               |
//! | `add/sub/mul/div` | `b1,c1,b2,c2,d,dc,c3`           | —               |
//! | `near_search`     | `b, nc, c, q`                   | `rst, idx`      |
//! | `exact_search`    | `b, nc, c, q`                   | —               |
//! | `row_mv`          | `b1,r1,c1,b2,r2,c2,nr,nc`       | —               |
//! | `write`           | `b, r, c, nr, <bits>`           | —               |
//! | `select`          | `bf,cf,bx,cx,by,cy,bd,cd`       | —               |
//!
//! [`Runtime`] executes these against functional
//! [`dual_pim::MemoryBlock`]s — results are bit-exact against software —
//! while accounting latency/energy with the Table III cost model. The
//! trace is *complete*: every charged device operation appears as one
//! entry with block-local physical addressing, which is what the
//! [`verify`] static pass consumes.
//!
//! ```rust
//! use dual_isa::Runtime;
//!
//! # fn main() -> Result<(), dual_isa::IsaError> {
//! let mut rt = Runtime::with_block_geometry(64, 256)?;
//! // Store four 8-bit values and add them element-wise to another four.
//! let a = rt.alloc(8, 4)?;
//! let b = rt.alloc(8, 4)?;
//! let out = rt.alloc(9, 4)?;
//! rt.write_values(&a, &[1, 2, 3, 200])?;
//! rt.write_values(&b, &[9, 8, 7, 100])?;
//! rt.add(&a, &b, &out)?;
//! assert_eq!(rt.read_values(&out)?, vec![10, 10, 10, 300]);
//! assert!(rt.stats().time_ns() > 0.0); // the work was costed
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod alloc;
mod error;
mod inst;
mod report;
mod runtime;
mod verifier;
mod vlca;

pub use error::IsaError;
pub use inst::{ArithKind, Instruction};
pub use runtime::Runtime;
pub use vlca::Vlca;

pub mod verify {
    //! Static dataflow verifier for PIM instruction streams.
    //!
    //! A [`Runtime`](crate::Runtime) executes Table I instructions and
    //! leaves behind a complete trace. This module checks that trace — or
    //! any candidate stream a compiler might emit — **without executing
    //! it**, by abstract interpretation over four analysis families:
    //!
    //! 1. **Geometry** — every block/row/column operand lies inside the
    //!    pool the trace claims to target; widths are non-zero and fit the
    //!    64-bit driver limit.
    //! 2. **Dataflow** — def-before-use on the query register: `hamm_7`
    //!    window sweeps and `near_search`/`exact_search` issues are only
    //!    legal after a `set_qinput` whose live span covers them, tracked
    //!    through the query-register effects of each instruction.
    //! 3. **Hazards** — intra-instruction interval overlap: arithmetic
    //!    destinations vs. operands and scratch columns, `row_mv`
    //!    source/destination aliasing, `select` flag-in-destination.
    //! 4. **Cost bound** — an analytical serial upper bound priced from the
    //!    trace alone, cross-checked for exact per-op count agreement
    //!    against the executed [`EnergyStats`](dual_pim::EnergyStats).
    //!
    //! ```rust
    //! use dual_isa::Runtime;
    //! use dual_isa::verify::RuntimeVerify;
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
    //! advisories ([`Severity`]). The `trace_verifier` bench bin
    //! aggregates reports over every in-tree workload into the byte-stable
    //! `results/isa_verify.json` consumed by `ci.sh --stage verify-isa`.

    pub use crate::report::{CostBound, Diagnostic, Severity, VerifyError, VerifyReport};
    pub use crate::verifier::{Geometry, RuntimeVerify, Verifier};
}
