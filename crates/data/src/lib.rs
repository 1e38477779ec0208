//! # dual-data — evaluation workloads for DUAL
//!
//! Generators for the datasets of the paper's Table IV:
//!
//! * the three **synthetic** sets the paper describes exactly (random
//!   clusters, 100 centers, radius ranges `[0..√2, √2..√32]`, 0–10 %
//!   noise) — [`SyntheticSpec`];
//! * **surrogates** for the seven UCI datasets, matching each one's
//!   `(n_points, n_features, n_clusters)` signature with anisotropic
//!   Gaussian mixtures (this environment has no dataset downloads; the
//!   quantities the paper measures depend on geometric cluster
//!   structure, which the surrogates preserve) — [`workload`].
//!
//! ```rust
//! use dual_data::{workload, Workload};
//!
//! // A 1%-scale surrogate of the MNIST row of Table IV.
//! let ds = workload(Workload::Mnist).generate(0.01, 7);
//! assert_eq!(ds.n_features(), 784);
//! assert_eq!(ds.n_clusters, 10);
//! assert_eq!(ds.len(), 600);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod catalog;
mod dataset;
mod synthetic;

pub use catalog::{table4, workload, Workload, WorkloadSpec};
pub use dataset::Dataset;
pub use synthetic::{DriftSpec, DriftingBlobs, SyntheticSpec};
