//! # dual-compile — register-allocating bytecode compiler for the PIM ISA
//!
//! [`Compiler::compile`] lowers a whole clustering micro-batch —
//! encode → sharded Hamming search → centroid update — for a fixed
//! [`PipelineShape`] into one flat, contiguous
//! [`Program`](dual_isa::Program) of Table I instructions: how many
//! 7-bit windows a dimension needs, where each chunk block starts,
//! which query-register loads are actually required, all decided once.
//! The resulting [`CompiledPipeline`] is the statically verified,
//! Table-III-priced *description* of a batch. It is not on the stream
//! engine's hot path — production assignment is the one kernel
//! `dual_hdc::search::assign_sharded`, and this crate does not depend
//! on the engine nor the engine on it.
//!
//! Three properties define the artifact:
//!
//! * **Constant folding + hoisting** — dimension, shard and geometry
//!   parameters are folded into operands at compile time, and the
//!   per-point `set_qinput` is hoisted so one query load serves both
//!   the window sweep and the CAM search (the interpreter issues two).
//! * **Register/column allocation** — encode temporaries live in
//!   scratch-block columns handed out by a linear-scan
//!   [`ColumnAllocator`]; expired intervals are reused across the
//!   unrolled batch, so the footprint is one point's worth of columns.
//! * **Verified at build** — every emitted program is gated on
//!   [`dual_isa_verify::Verifier::check`]; *any* diagnostic, advisory
//!   included, fails compilation with [`CompileError::Rejected`]. The
//!   [`Mutation`] corpus keeps the gate honest by force-feeding the
//!   allocator overlapping columns and proving the verifier refuses
//!   each corruption with the expected diagnostic class.
//!
//! The artifact has two reference executors: the literal-window [`Vm`]
//! and the functional simulator via
//! [`dual_isa::Runtime::run_program`]. Both exist to be compared
//! against — the differential suite pins them bit-identical to
//! `search::assign_sharded` and the flat `search::assign_batch`.
//!
//! ```rust
//! use dual_compile::{Compiler, PipelineShape};
//! use dual_hdc::{search, BitVec, Hypervector};
//!
//! let shape = PipelineShape {
//!     dim: 128,
//!     n_features: 4,
//!     slots: 2,
//!     shards: 2,
//!     batch: 3,
//! };
//! let compiled = Compiler::compile(shape)?;
//! // One hoisted query load per point, already verified clean.
//! assert_eq!(compiled.program().count_of("set_qinput"), 3);
//!
//! let zeros = Hypervector::from_bitvec(BitVec::zeros(128));
//! let ones = Hypervector::from_bitvec(BitVec::ones(128));
//! let queries = [zeros.clone(), ones.clone(), zeros.clone()];
//! let centroids = [zeros, ones];
//! // The literal VM agrees with the production kernel.
//! let assigned = compiled.vm().assign(&queries, &centroids)?;
//! assert_eq!(assigned, vec![(0, 0), (1, 0), (0, 0)]);
//! assert_eq!(assigned, search::assign_sharded(&queries, &centroids, shape.shards, 1));
//! # Ok::<(), dual_compile::CompileError>(())
//! ```

#![forbid(unsafe_code)]
// This crate starts at zero unwrap/expect debt: deny outright.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod alloc;
mod compiler;
mod error;
mod pipeline;
mod shape;
mod vm;

pub use alloc::{AllocStats, ColSpan, ColumnAllocator};
pub use compiler::{Compiler, Mutation};
pub use error::CompileError;
pub use pipeline::CompiledPipeline;
pub use shape::{PipelineShape, COLS, DATA_COLS};
pub use vm::Vm;
