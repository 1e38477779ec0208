//! # dual — DUAL: Digital-based Unsupervised learning AcceLeration
//!
//! A production-quality Rust reproduction of *DUAL: Acceleration of
//! Clustering Algorithms using Digital-based Processing In-Memory*
//! (Imani et al., MICRO 2020): a hyperdimensional-computing front end
//! that turns Euclidean clustering into Hamming-space clustering, plus
//! a fully digital memristive processing-in-memory accelerator that
//! executes every clustering primitive in place.
//!
//! This crate is a facade re-exporting the workspace layers:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`hdc`] | `dual-hdc` | bit-packed hypervectors, HD-Mapper and LSH encoders |
//! | [`cluster`] | `dual-cluster` | hierarchical / k-means / DBSCAN over any metric |
//! | [`pim`] | `dual-pim` | crossbar blocks, CAM search, NOR arithmetic, cost models |
//! | [`isa`] | `dual-isa` | VLCA arrays, Table I instructions, allocator, runtime |
//! | [`verify`] | `dual-isa-verify` | static dataflow verifier for PIM instruction traces |
//! | [`core`] | `dual-core` | the accelerator: functional path + performance model |
//! | [`baseline`] | `dual-baseline` | calibrated GPU (GTX 1080) and IMP comparators |
//! | [`data`] | `dual-data` | Table IV workload generators |
//! | [`stream`] | `dual-stream` | backpressured streaming-clustering engine |
//! | [`fault`] | `dual-fault` | deterministic fault injection + self-healing policies |
//! | [`obs`] | `dual-obs` | deterministic metrics registry + logical-clock tracing |
//! | [`snap`] | `dual-snap` | versioned write-ahead snapshot format + replay recovery |
//! | [`topology`] | `dual-topology` | multi-tenant topology service: quotas, fair-share scheduling, lifecycle |
//! | [`trace`] | `dual-trace` | deterministic flight recorder, causal spans, tick-clock alerting |
//! | [`tsne`] | `dual-tsne` | exact t-SNE for the Fig. 11 visualization |
//!
//! ## Quickstart
//!
//! ```rust
//! use dual::core::{DualAccelerator, DualConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three tiny blobs in 3-D, clustered entirely through the PIM path.
//! let points: Vec<Vec<f64>> = (0..24)
//!     .map(|i| {
//!         let c = (i % 3) as f64 * 8.0;
//!         vec![c, c + 0.1 * i as f64, -c]
//!     })
//!     .collect();
//! let accel = DualAccelerator::new(DualConfig::paper().with_dim(512), 3, 7)?;
//! let outcome = accel.fit_hierarchical(&points, 3)?;
//! assert_eq!(outcome.labels.len(), 24);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries regenerating every table and figure of the paper.

#![warn(missing_docs)]

pub use dual_baseline as baseline;
pub use dual_cluster as cluster;
pub use dual_core as core;
pub use dual_data as data;
pub use dual_fault as fault;
pub use dual_hdc as hdc;
pub use dual_isa as isa;
pub use dual_isa_verify as verify;
pub use dual_obs as obs;
pub use dual_pim as pim;
pub use dual_snap as snap;
pub use dual_stream as stream;
pub use dual_topology as topology;
pub use dual_trace as trace;
pub use dual_tsne as tsne;

// Compile the README / DESIGN code fences as doctests through the
// facade (they use the `dual::` re-export paths). The modules only
// exist while rustdoc collects doctests, so the rendered API docs are
// unaffected; `ci.sh --stage doc` runs them via
// `cargo test --doc --workspace`.

/// README.md code fences, compiled as `no_run` doctests.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub mod readme_doctests {}

/// DESIGN.md code fences, compiled as doctests.
#[doc = include_str!("../DESIGN.md")]
#[cfg(doctest)]
pub mod design_doctests {}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        let cfg = crate::core::DualConfig::paper();
        assert_eq!(cfg.dim, 4000);
        let chip = crate::pim::AreaPowerModel::paper().chip(cfg.chip);
        assert!(chip.area_um2 > 0.0);
    }
}
