//! Fault injection as the engine sees it: the [`FaultConfig`] a caller
//! arms it with, the [`FaultStatus`] it exports, and the live
//! [`FaultState`] that owns the engine's fault policy — validation,
//! shard ranges, the quarantine threshold and release, masking, status
//! and the `fault.*` gauges. The sense stage reads every stored
//! sub-centroid through it.

use crate::engine::{as_f64, as_u64};
use crate::error::StreamError;
use crate::online::OnlineKMeans;
use dual_fault::{
    sense_row, FaultPlan, HealingPolicy, Quarantine, QuarantineConfig, RowMasks, SenseCounts,
    SpareRowPool,
};
use dual_hdc::{BitVec, Hypervector};
use dual_obs::{Key, Registry};
use dual_trace::{Event, Recorder};

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
#[derive(Debug, Clone, PartialEq)]
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
    /// Arm `fault` on a model of `slots` sub-centroid slots of `dim`
    /// bits split over `shards` shards: slot `s` lives in plan row `s`,
    /// the spare pool in rows `slots .. slots + spares`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] when the threshold is
    /// outside `(0, 1]`, the plan has fewer columns than `dim`, or
    /// fewer rows than `slots + spares`.
    pub(crate) fn new(
        fault: FaultConfig,
        dim: usize,
        slots: usize,
        shards: usize,
    ) -> Result<Self, StreamError> {
        if !(fault.quarantine_threshold > 0.0 && fault.quarantine_threshold <= 1.0) {
            return Err(StreamError::InvalidConfig {
                name: "fault.quarantine_threshold",
                reason: "must be in (0, 1]",
            });
        }
        if fault.plan.cols() < dim {
            return Err(StreamError::InvalidConfig {
                name: "fault.plan",
                reason: "plan columns narrower than the hypervector dimension",
            });
        }
        let spares = fault.policy.spares();
        if fault.plan.rows() < slots + spares {
            return Err(StreamError::InvalidConfig {
                name: "fault.plan",
                reason: "plan rows cannot hold every sub-centroid slot plus the spare pool",
            });
        }
        Ok(Self {
            pool: SpareRowPool::new(slots, spares),
            quarantine: Quarantine::new(shards, fault.quarantine),
            remap_threshold: fault.plan.cols() / 100 + 1,
            plan: fault.plan,
            policy: fault.policy,
            threshold: fault.quarantine_threshold,
            masks: vec![None; slots + spares],
            #[cfg(test)]
            per_bit_reference: false,
        })
    }

    /// The exported fault/healing state; the lifetime sense and requeue
    /// counts live in the engine's registry `obs`.
    pub(crate) fn status(&self, obs: &Registry) -> FaultStatus {
        FaultStatus {
            policy: self.policy.name().to_owned(),
            reads: self.policy.reads(),
            spares_used: self.pool.used(),
            spares_free: self.pool.free(),
            injected: obs.counter(Key::FaultInjected),
            healed: obs.counter(Key::FaultHealed),
            quarantine_trips: self.quarantine.stats().quarantined,
            requeues: obs.counter(Key::FaultRequeued),
            quarantined_now: self.quarantine.quarantined_count(),
            dead_shards: self.quarantine.dead_count(),
        }
    }

    /// Release every quarantined shard whose backoff expired by tick
    /// `now`: their deferred work requeues (the ring held it all along).
    pub(crate) fn release(&mut self, now: u64, obs: &mut Registry, trace: &mut Recorder) {
        let released = self.quarantine.tick(now);
        if !released.is_empty() {
            obs.add(Key::FaultRequeued, as_u64(released.len()));
            trace.emit(
                now,
                Event::QuarantineRelease {
                    shards: as_u64(released.len()),
                },
            );
            self.refresh_gauges(obs);
        }
    }

    /// The sense stage of one cut, run before any point is popped: read
    /// every stored sub-centroid of `model` through the fault plan at
    /// `epoch`, over `shards` shards. Dead or badly worn rows are first
    /// remapped into the spare pool (when the policy provisions spares)
    /// and every bit is majority-voted over re-reads (when it
    /// provisions them). Per-shard corrupted-bit fractions above the
    /// quarantine threshold bench the shard; slots of non-serving
    /// shards are masked (`None`) so assignment routes around them.
    ///
    /// Returns `None` when the batch defers: while a shard is benched,
    /// before this pass or after it trips one. A `force`d (drain) cut
    /// never defers and only masks the benched shards.
    ///
    /// Every draw is keyed off `(plan seed, physical row, column,
    /// epoch)` — never iteration order — so the sense pass replays
    /// bit-identically under any thread count. The `obs` adds and
    /// `trace` events keep one fixed order: snapshot bytes and the
    /// trace ring depend on it.
    pub(crate) fn sense_stage(
        &mut self,
        force: bool,
        model: &OnlineKMeans,
        shards: usize,
        epoch: u64,
        obs: &mut Registry,
        trace: &mut Recorder,
    ) -> Option<Vec<Option<Hypervector>>> {
        if !force && self.quarantine.quarantined_count() > 0 {
            return None;
        }
        let centroids = model.centroids();
        let ranges = dual_pool::chunk_ranges(centroids.len(), shards);
        let mut views: Vec<Option<Hypervector>> = Vec::with_capacity(centroids.len());
        let mut shard_bad: Vec<u64> = vec![0; ranges.len()];
        let mut injected = 0u64;
        let mut healed = 0u64;
        for (shard, range) in ranges.iter().enumerate() {
            for slot in range.clone() {
                let (seen, counts) = self.sense_slot(slot, &centroids[slot], epoch);
                injected += counts.injected;
                healed += counts.healed;
                shard_bad[shard] += counts.bad;
                views.push(Some(seen));
            }
        }
        // Trip quarantine on shards whose observed corruption exceeds
        // the threshold, and mask every slot of a non-serving shard.
        let mut trips = 0u64;
        for (shard, range) in ranges.iter().enumerate() {
            let cells = as_u64(range.len() * model.dim());
            if cells > 0
                && as_f64(shard_bad[shard]) / as_f64(cells) > self.threshold
                && self.quarantine.is_serving(shard)
            {
                self.quarantine.quarantine(shard, epoch);
                let shard = as_u64(shard);
                trace.emit(epoch, Event::QuarantineTrip { shard });
                trips += 1;
            }
            if !self.quarantine.is_serving(shard) {
                views[range.clone()].fill(None);
            }
        }
        obs.add(Key::FaultInjected, injected);
        obs.add(Key::FaultHealed, healed);
        if injected > 0 || healed > 0 {
            trace.emit(epoch, Event::FaultSense { injected, healed });
        }
        if trips > 0 {
            obs.add(Key::FaultQuarantined, trips);
        }
        if !force && self.quarantine.quarantined_count() > 0 {
            self.refresh_gauges(obs);
            return None;
        }
        Some(views)
    }

    /// Mirror the fault/healing state into `obs`'s `fault.*` gauges.
    pub(crate) fn refresh_gauges(&self, obs: &mut Registry) {
        obs.gauge(Key::FaultSpareUsed, as_f64(as_u64(self.pool.used())));
        obs.gauge(Key::FaultSpareFree, as_f64(as_u64(self.pool.free())));
        obs.gauge(
            Key::FaultQuarantineActive,
            as_f64(as_u64(self.quarantine.quarantined_count())),
        );
        obs.gauge(Key::FaultRereadReads, f64::from(self.policy.reads()));
    }

    /// Sense sub-centroid `slot` at `epoch`: remap the row into the
    /// spare pool first if the policy provisions spares and the row is
    /// dead or worn past `remap_threshold`, then read `stored` through
    /// the physical row it resolves to, majority-voted over the
    /// policy's re-reads.
    fn sense_slot(
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
