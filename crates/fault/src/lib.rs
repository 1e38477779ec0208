//! Deterministic fault injection and self-healing for the DUAL chip
//! simulation.
//!
//! DUAL's robustness story (paper §VI) rests on two claims: HD
//! redundancy makes clustering degrade *gracefully* under memristor
//! cell faults, and cheap healing (row sparing, re-read voting)
//! recovers most of the loss. This crate makes both claims testable
//! in the functional simulation instead of only analytically:
//!
//! * [`FaultPlan`] — a seedable map of permanent stuck-at cells, dead
//!   rows, endurance-driven wear surcharges, and transient variation
//!   flips. Every draw is a pure keyed hash of
//!   `(seed, row, col, epoch)`, never a sequential RNG, so fault
//!   patterns are identical across thread counts and access orders
//!   (the PR-1 determinism contract).
//! * [`Corruptible`] — the trait the PIM structures
//!   (`dual_pim::{cam, nor, block}`) and hypervector arrays implement
//!   to pull a plan's permanent faults into their stored state.
//! * [`HealingPolicy`] / [`SpareRowPool`] / [`majority_read_bit`] —
//!   spare-row remap for dead and over-worn rows, and majority-vote
//!   re-read that cancels transient flips.
//! * [`RowMasks`] / [`sense_row`] — the word-level read path: one
//!   row's permanent faults as cached word masks, and the kernel that
//!   senses a stored row through them plus the epoch's transient flips
//!   (raw and majority-voted), bit for bit what the per-cell
//!   [`FaultPlan::read_bit`] / [`majority_read_bit`] definition gives.
//! * [`Quarantine`] — the shard quarantine/requeue state machine the
//!   streaming engine drives on its logical tick clock.
//!
//! Time never enters through the wall clock: transient flips and
//! quarantine backoffs are keyed on caller-supplied logical epochs
//! and ticks.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![warn(missing_docs)]

pub mod heal;
pub mod plan;
pub mod quarantine;
pub mod sense;

pub use heal::{majority_read_bit, HealingPolicy, SpareRowPool};
pub use plan::{
    corrupt_hypervector_row, Corruptible, FaultError, FaultKind, FaultPlan, FaultPlanSpec,
    InjectionReport,
};
pub use quarantine::{Quarantine, QuarantineConfig, QuarantineStats, ShardHealth};
pub use sense::{sense_row, RowMasks, SenseCounts};
