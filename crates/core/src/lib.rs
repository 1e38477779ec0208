//! # dual-core — the DUAL accelerator
//!
//! The paper's primary contribution, assembled from the substrate
//! crates: a **D**igital-based **U**nsupervised learning
//! **A**cce**L**erator that
//!
//! 1. encodes data points into binary hypervectors with the non-linear
//!    HD-Mapper (`dual-hdc`),
//! 2. stores them in memristive crossbar *data blocks* and computes all
//!    pairwise similarities with row-parallel Hamming search
//!    (`dual-pim`, `dual-isa`), and
//! 3. runs hierarchical clustering, k-means, or DBSCAN entirely
//!    in-memory using nearest search and NOR arithmetic for the
//!    distance-matrix updates (`dual-cluster` provides the reference
//!    semantics).
//!
//! Two layers are exposed:
//!
//! * [`DualAccelerator`] — the *functional* path: actually executes
//!   clustering through the PIM instruction runtime on small datasets,
//!   so results can be checked bit-for-bit against the software
//!   algorithms.
//! * [`PerfModel`] — the *analytical* path: op-count accounting with
//!   Table II/III costs for arbitrarily large workloads (the paper's
//!   10M-point runs), including the ablation switches (no interconnect,
//!   no counters), data-copy parallelism and multi-chip scaling that
//!   drive Figs. 12–15.
//!
//! ```rust
//! use dual_core::{DualConfig, PerfModel};
//! use dual_core::baseline::{Algorithm, GpuModel};
//!
//! let model = PerfModel::new(DualConfig::paper());
//! let dual = model.hierarchical(60_000);
//! let gpu = GpuModel::gtx_1080().cost(Algorithm::Hierarchical, 60_000, 784, 10, 1);
//! let speedup = gpu.time_s() / dual.time_s();
//! assert!(speedup > 10.0, "DUAL must clearly beat the GPU, got {speedup:.1}x");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod accelerator;
mod config;
mod gpu;
mod imp;
mod parallel;
mod partition;
mod perf;
mod pim_encoder;

pub mod baseline {
    //! GPU and IMP comparison models.
    //!
    //! DUAL's evaluation compares against (i) clustering on an NVIDIA GTX
    //! 1080 — nvGRAPH hierarchical, NVIDIA's k-means, and G-DBSCAN — and
    //! (ii) the In-Memory data-parallel Processor (IMP, Fujiki et al.
    //! ASPLOS'18), an analog PIM that can offload arithmetic-friendly
    //! phases.
    //!
    //! Neither platform is runnable in this environment, so both are
    //! **analytical cost models** (see DESIGN.md substitution 2):
    //!
    //! * [`GpuModel`] expresses each algorithm as compute-bound and
    //!   memory-bound phases of the GTX 1080 (2560 cores @ 1.607 GHz,
    //!   320 GB/s, 180 W). Each algorithm has *one* scalar efficiency
    //!   constant calibrated so the paper's reported average speedups hold
    //!   at the reference workloads; the per-phase split reproduces the
    //!   GPU breakdowns of Fig. 15b. Everything downstream (per-dataset
    //!   spreads, scaling, crossover shapes) is then derived, not copied.
    //! * [`ImpModel`] represents IMP by the offload fractions and resulting
    //!   per-algorithm speedups the paper reports (Fig. 15a) — IMP is a
    //!   comparator, not a contribution, so its published behaviour is the
    //!   most faithful stand-in available.

    pub use crate::gpu::{Algorithm, GpuCost, GpuModel, GpuSpec};
    pub use crate::imp::ImpModel;
}

pub use accelerator::{DualAccelerator, DualClusteringOutcome};
pub use config::DualConfig;
pub use parallel::{chip_scaling_speedup, replication_speedup, ScalingModel};
pub use partition::{
    hierarchical_capacity, partitioned_cost, partitioned_hierarchical, plan as partition_plan,
    PartitionPlan,
};
pub use perf::{PerfModel, Phase, PhaseReport};
pub use pim_encoder::PimEncoder;
