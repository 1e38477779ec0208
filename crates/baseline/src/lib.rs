//! # dual-baseline — GPU and IMP comparison models
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod gpu;
mod imp;

pub use gpu::{Algorithm, GpuCost, GpuModel, GpuSpec};
pub use imp::ImpModel;
