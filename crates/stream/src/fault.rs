//! Fault injection as the engine sees it: the [`FaultConfig`] a caller
//! arms it with, the [`FaultStatus`] it exports, and the live
//! [`FaultState`] the sense stage reads every stored sub-centroid
//! through.

use dual_fault::{
    sense_row, FaultPlan, HealingPolicy, Quarantine, QuarantineConfig, RowMasks, SenseCounts,
    SpareRowPool,
};
use dual_hdc::{BitVec, Hypervector};
use serde::{Deserialize, Serialize};

/// Fault-injection configuration of a [`crate::StreamEngine`]: the physical
/// fault plan, the self-healing policy, and the shard quarantine
/// budget (see [`crate::StreamEngine::with_fault_injection`]).
///
/// The plan's geometry must cover the engine: `cols ≥ dim(D)` (every
/// hypervector bit has a cell) and `rows ≥ slots + spares` (every
/// sub-centroid slot has a row, followed by the spare pool).
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// The deterministic fault plan stored sub-centroids are read
    /// through.
    pub plan: FaultPlan,
    /// Which self-healing mechanisms are active.
    pub policy: HealingPolicy,
    /// Retry/backoff budget of the shard quarantine machine.
    pub quarantine: QuarantineConfig,
    /// Observed corrupted-bit fraction (per shard, per sense pass)
    /// above which the shard is benched. In `(0, 1]`.
    pub quarantine_threshold: f64,
}

impl FaultConfig {
    /// A config over `plan` with healing off, the default quarantine
    /// budget, and a 2 % corruption threshold.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            policy: HealingPolicy::Off,
            quarantine: QuarantineConfig::default(),
            quarantine_threshold: 0.02,
        }
    }

    /// Replace the healing policy.
    #[must_use]
    pub fn with_policy(mut self, policy: HealingPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// A consistent export of the engine's fault/healing state (see
/// [`crate::StreamEngine::fault_status`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultStatus {
    /// Healing policy label (`off` / `spare_rows` / `majority_reread`
    /// / `full`).
    pub policy: String,
    /// Reads per cell under majority re-read (1 when off).
    pub reads: u32,
    /// Spare rows handed out by the remap pool.
    pub spares_used: usize,
    /// Spare rows still available.
    pub spares_free: usize,
    /// Bits observed corrupted on the raw (first) read, lifetime.
    pub injected: u64,
    /// Corrupted raw reads repaired by majority voting, lifetime.
    pub healed: u64,
    /// Shard quarantine trips, lifetime.
    pub quarantine_trips: u64,
    /// Quarantined shards released back to service, lifetime.
    pub requeues: u64,
    /// Shards currently benched.
    pub quarantined_now: usize,
    /// Shards permanently out of rotation.
    pub dead_shards: usize,
}

/// Live fault-injection state threaded through the cut pipeline.
/// Fields are crate-visible for the snapshot path in
/// [`crate::persist`].
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    pub(crate) policy: HealingPolicy,
    pub(crate) pool: SpareRowPool,
    pub(crate) quarantine: Quarantine,
    /// Per-shard corrupted-bit fraction that trips quarantine.
    pub(crate) threshold: f64,
    /// Permanent faults per row above which a row is remapped
    /// (`cols / 100 + 1`: about 1 % of the row).
    pub(crate) remap_threshold: usize,
    /// Permanent-fault masks per *physical* row (slots, then the spare
    /// pool), built the first time a row is sensed or checked against
    /// `remap_threshold`. A pure function of `plan`, so it is never
    /// snapshotted: a restored engine starts with it empty.
    pub(crate) masks: Vec<Option<RowMasks>>,
    /// Route [`FaultState::sense_slot`] through the per-bit loop it
    /// replaced (the differential test's reference run).
    #[cfg(test)]
    pub(crate) per_bit_reference: bool,
}

/// The cached masks of physical `row`, scanning the plan on first use.
fn row_masks<'a>(masks: &'a mut [Option<RowMasks>], plan: &FaultPlan, row: usize) -> &'a RowMasks {
    masks[row].get_or_insert_with(|| RowMasks::build(plan, row))
}

impl FaultState {
    /// Sense sub-centroid `slot` at `epoch`: remap the row into the
    /// spare pool first if the policy provisions spares and the row is
    /// dead or worn past `remap_threshold`, then read `stored` through
    /// the physical row it resolves to, majority-voted over the
    /// policy's re-reads.
    pub(crate) fn sense_slot(
        &mut self,
        slot: usize,
        stored: &Hypervector,
        epoch: u64,
    ) -> (Hypervector, SenseCounts) {
        #[cfg(test)]
        if self.per_bit_reference {
            return tests::sense_slot_per_bit(self, slot, stored, epoch);
        }
        let Self {
            plan,
            policy,
            pool,
            masks,
            remap_threshold,
            ..
        } = self;
        if policy.spares() > 0 && !pool.is_remapped(slot) {
            let own = row_masks(masks, plan, slot);
            if own.is_dead() || own.fault_count() >= *remap_threshold {
                // An exhausted pool returns None: the row keeps
                // serving faulty and quarantine picks up the shard.
                let _spare = pool.remap(slot, plan);
            }
        }
        let mut words = vec![0u64; stored.bits().as_words().len()];
        let counts = sense_row(
            plan,
            row_masks(masks, plan, pool.resolve(slot)),
            stored.bits().as_words(),
            stored.dim(),
            epoch,
            policy.reads(),
            &mut words,
        );
        let seen = Hypervector::from_bitvec(BitVec::from_words(words, stored.dim()));
        (seen, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamConfig, StreamEngine};
    use dual_fault::{majority_read_bit, FaultPlanSpec};
    use dual_hdc::HdMapper;

    /// The sense loop as the engine ran it before `dual_fault::sense_row`:
    /// four `read_bit` calls per cell and a `row_fault_count` rescan per
    /// slot. Kept as the reference of the differential test below.
    pub(super) fn sense_slot_per_bit(
        fault: &mut FaultState,
        slot: usize,
        stored: &Hypervector,
        epoch: u64,
    ) -> (Hypervector, SenseCounts) {
        let reads = fault.policy.reads();
        if fault.policy.spares() > 0
            && !fault.pool.is_remapped(slot)
            && (fault.plan.is_dead_row(slot)
                || fault.plan.row_fault_count(slot) >= fault.remap_threshold)
        {
            let _spare = fault.pool.remap(slot, &fault.plan);
        }
        let row = fault.pool.resolve(slot);
        let mut seen = Hypervector::zeros(stored.dim());
        let mut counts = SenseCounts::default();
        for c in 0..stored.dim() {
            let stored_bit = stored.bits().get(c);
            let raw = fault
                .plan
                .read_bit(row, c, stored_bit, epoch.wrapping_mul(u64::from(reads)));
            let bit = if reads > 1 {
                majority_read_bit(&fault.plan, row, c, stored_bit, epoch, reads)
            } else {
                raw
            };
            if raw != stored_bit {
                counts.injected += 1;
                if bit == stored_bit {
                    counts.healed += 1;
                }
            }
            if bit != stored_bit {
                counts.bad += 1;
            }
            seen.bits_mut().set(c, bit);
        }
        (seen, counts)
    }

    /// 12 slots seeded four per batch (so rows are first sensed, and
    /// remapped, over several batches), three dead rows and a worn one
    /// against three spares of which the first is itself faulty.
    fn run(per_bit_reference: bool, policy: HealingPolicy) -> (Vec<u8>, FaultStatus) {
        let mut cfg = StreamConfig::new(3);
        cfg.centroids_per_cluster = 4;
        cfg.max_batch = 4;
        cfg.shards = 2;
        cfg.decay = 0.9;
        let mut spec = FaultPlanSpec::clean(15, 100);
        spec.seed = 0xBEEF;
        spec.stuck_rate = 0.004;
        spec.flip_rate = 0.02;
        let plan = FaultPlan::new(spec)
            .and_then(|p| p.with_dead_row(1))
            .and_then(|p| p.with_dead_row(6))
            .and_then(|p| p.with_dead_row(11))
            .and_then(|p| p.with_stuck_cell(4, 70, true))
            .and_then(|p| p.with_stuck_cell(4, 71, false))
            .and_then(|p| p.with_stuck_cell(12, 3, true))
            .unwrap();
        let mapper = HdMapper::new(70, 2, 7).unwrap();
        let mut e = StreamEngine::new(mapper, cfg)
            .unwrap()
            .with_fault_injection(FaultConfig::new(plan).with_policy(policy))
            .unwrap();
        e.fault.as_mut().unwrap().per_bit_reference = per_bit_reference;
        for i in 0..160 {
            let x = f64::from(i);
            e.push(&[(x * 0.37).sin() * 3.0, (x * 0.11).cos() * 3.0])
                .unwrap();
            if i % 4 == 3 {
                e.tick().unwrap();
            }
        }
        e.drain().unwrap();
        let status = e.fault_status().unwrap();
        (e.checkpoint(), status)
    }

    #[test]
    fn word_level_sense_replays_the_per_bit_engine_run() {
        for policy in [
            HealingPolicy::Full {
                spares: 3,
                reads: 3,
            },
            HealingPolicy::SpareRows { spares: 3 },
            HealingPolicy::MajorityReread { reads: 5 },
            HealingPolicy::Off,
        ] {
            let (want_blob, want) = run(true, policy);
            let (blob, status) = run(false, policy);
            assert_eq!(status, want, "{policy:?}");
            assert_eq!(blob, want_blob, "{policy:?}: the whole engine state");
            assert!(status.injected > 0, "{policy:?}: faults fired");
            if policy.spares() > 0 {
                // More rows ask for a spare than the pool holds (and
                // spare 12 is faulty, so skipped): the rest serve faulty.
                assert!(status.spares_used >= 1, "{policy:?}: {status:?}");
                assert_eq!(status.spares_free, 0, "{policy:?}: pool exhausted");
            }
            if policy.reads() > 1 {
                assert!(status.healed > 0, "{policy:?}: votes healed flips");
            }
        }
    }
}
