//! # dual-stream — backpressured streaming clustering on DUAL
//!
//! The batch pipeline (`dual-cluster`) answers "cluster this frozen
//! dataset"; this crate answers "keep clustering an **unbounded
//! stream** on a DUAL chip without falling over". It composes four
//! stages, each reusing the batch building blocks:
//!
//! ```text
//!  producers ──► Ring (bounded, BackpressurePolicy) ──► Batcher (size ∨ deadline, logical ticks)
//!                                                            │ micro-batch
//!                                                            ▼
//!                      OnlineKMeans ◄── encode (dual_hdc::Encoder, deterministic fan-out)
//!                 decayed accumulators │
//!                 + sharded assign    ▼
//!                              StreamMeter (per-batch pJ / ns, dual_pim::CostModel)
//! ```
//!
//! * **Ingest** — a fixed-capacity [`Ring`] with an explicit
//!   [`BackpressurePolicy`]: `Block` turns producer pressure into an
//!   inline flush, `DropOldest` sheds stale load, `Reject` refuses
//!   (HTTP-429 semantics). Every outcome is reported as a
//!   [`PushOutcome`] and counted.
//! * **Batching** — [`Batcher`] cuts micro-batches on
//!   size-or-deadline over a **logical tick clock**, never wall time,
//!   so every run replays bit-identically.
//! * **Clustering** — [`OnlineKMeans`]: decayed per-centroid
//!   bit-count accumulators with majority re-binarization (the exact
//!   vote of the batch solver) and MEMHD-style multi-centroid sets,
//!   searched flat by `dual_hdc::search::assign_batch` — the one
//!   batch nearest-centroid kernel, pristine and fault-sensed alike.
//! * **Attribution** — every committed batch is priced on the paper's
//!   chip cost model via `dual_pim::StreamMeter`.
//! * **Durability** (opt-in) — [`StreamEngine::checkpoint`] captures
//!   the complete engine state into a `dual_snap` blob (periodically
//!   via `snapshot_every` on the tick clock) and
//!   [`StreamEngine::restore`] rebuilds it; replaying the post-capture
//!   ticks reproduces the uninterrupted run bit-for-bit (see
//!   [`crate::StreamEngine::checkpoint`] and DESIGN.md §9).
//! * **Fault tolerance** (opt-in) — [`StreamEngine::with_fault_injection`]
//!   senses stored sub-centroids through a deterministic
//!   `dual_fault::FaultPlan` before every assignment, remaps dead rows
//!   into a bounded spare pool, majority-votes re-reads, and
//!   quarantines shards whose observed corruption exceeds a threshold
//!   (their batches defer in the ring and requeue after an
//!   exponential backoff on the logical tick clock).
//!
//! ## Determinism contract
//!
//! For a fixed pushed stream, tick schedule, and configuration, every
//! observable — centroids, counters, per-batch energy — is
//! **bit-identical for any `threads` and `shards` setting** (the PR-1
//! kernel contract extended to the full pipeline).
//!
//! ## Quickstart
//!
//! ```rust
//! use dual_hdc::HdMapper;
//! use dual_stream::{StreamConfig, StreamEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let encoder = HdMapper::builder(512, 2).seed(7).sigma(2.0).build()?;
//! let mut cfg = StreamConfig::new(3); // k = 3 clusters
//! cfg.max_batch = 64;
//! cfg.decay = 0.9;
//! let mut engine = StreamEngine::new(encoder, cfg)?;
//!
//! for i in 0..500u32 {
//!     let x = f64::from(i % 3) * 4.0; // three well-separated lanes
//!     engine.push(&[x, -x])?;
//!     if i % 50 == 49 {
//!         engine.tick()?; // the consumer's schedule point
//!     }
//! }
//! engine.drain()?;
//!
//! let snap = engine.snapshot();
//! assert_eq!(snap.clusters.len(), 3);
//! assert_eq!(snap.points, 500);
//! assert!(snap.energy_pj > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// Streaming engines must degrade, not abort: unwrap/expect are denied
// outright in lib code (tests are exempt via .clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod batcher;
mod engine;
mod error;
mod fault;
mod online;
mod persist;
mod ring;

pub use batcher::{Batcher, CutReason};
pub use engine::{StreamConfig, StreamCounters, StreamEngine, StreamSnapshot};
pub use error::StreamError;
pub use fault::{FaultConfig, FaultStatus};
pub use online::{BatchUpdate, OnlineKMeans};
pub use ring::{BackpressurePolicy, PushOutcome, Ring};
