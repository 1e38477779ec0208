//! # dual-pim — digital processing-in-memory simulator for DUAL
//!
//! A functional *and* timing/energy model of the DUAL chip
//! (Imani et al., MICRO 2020): a fully digital PIM architecture built
//! from memristive crossbar blocks that supports, without any ADC/DAC,
//!
//! * **search-based operations** — row-parallel Hamming distance over
//!   7-bit windows using match-line discharge timing
//!   ([`SamplingSchedule`], §IV-A1) and staged 4-bit nearest-value
//!   search with weighted bitlines ([`nearest_search`], §IV-A2);
//! * **arithmetic operations** — row-parallel NOR (MAGIC) microcode for
//!   addition, subtraction, multiplication and division
//!   ([`NorEngine`], §IV-B);
//! * the **structural hierarchy** — 1k×1k crossbar blocks with a 3-bit
//!   counter each, 256 blocks per tile joined by a 1k-wire row
//!   interconnect, 64 tiles per chip ([`MemoryBlock`], [`CounterMode`],
//!   §VI).
//!
//! Cost accounting reproduces the paper's HSPICE/NVSim-derived anchors
//! (Tables II and III) through [`CostModel`] and [`AreaPowerModel`];
//! [`EnduranceModel`] and [`run_monte_carlo`] reproduce the §VIII-H
//! lifetime and device-variability analyses. Cells here
//! always hold what was written: injected faults are a read-path model
//! in the `dual-fault` crate, which the streaming engine senses its
//! stored state through, so this crate does not depend on it.
//!
//! The *functional* layer operates on real bits so higher layers can
//! verify that in-memory computation produces exactly the same results
//! as the software algorithms; the *cost* layer is what the benchmark
//! harness uses to regenerate the paper's performance/energy figures.
//!
//! ```rust
//! use dual_pim::MemoryBlock;
//!
//! // A small crossbar; store two rows and Hamming-search a query.
//! let mut blk = MemoryBlock::new(4, 16);
//! blk.write_row_bits(0, &[true; 16]);
//! blk.write_row_bits(1, &[false; 16]);
//! let query = vec![true; 7];
//! let counts = blk.cam_hamming_window(&query, 0);
//! assert_eq!(counts[0], 0); // row 0 matches the all-ones window
//! assert_eq!(counts[1], 7); // row 1 mismatches all 7 bits
//! ```

#![forbid(unsafe_code)]
// Library code must not panic: this crate's debt is burned to zero.
// (Test code is exempt via .clippy.toml allow-*-in-tests keys.)
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![warn(missing_docs)]

mod arch;
mod block;
mod cam;
mod cost;
mod device;
mod endurance;
mod error;
mod interconnect;
mod nor;
mod stats;
mod streaming;
mod tile;
mod variation;

pub use arch::{AreaPowerModel, ChipConfig, ComponentBudget};
pub use block::MemoryBlock;
pub use cam::{
    nearest_search, nearest_search_stages, Detection, MlDischargeModel, SamplingSchedule,
};
pub use cost::{CostModel, Op};
pub use device::DeviceVariation;
pub use endurance::{EnduranceModel, WearLeveler};
pub use error::PimError;
pub use interconnect::Interconnect;
pub use nor::{div_approx, NorEngine};
pub use stats::EnergyStats;
pub use streaming::{EnergyBudget, StreamBatchCost, StreamMeter};
pub use tile::CounterMode;
pub use variation::{max_safe_stage_bits, run_monte_carlo, MonteCarloConfig};
