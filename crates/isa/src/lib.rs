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
//! `dual-isa-verify` static pass consumes (see `dual::verify`).
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
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod alloc;
mod error;
mod inst;
mod runtime;
mod vlca;

pub use alloc::{AllocId, Allocation, BlockAllocator};
pub use error::IsaError;
pub use inst::{ArithKind, Instruction, RegisterFile};
pub use runtime::Runtime;
pub use vlca::Vlca;
