//! Self-healing policies: spare-row remap, majority-vote re-read, and
//! the shard quarantine state machine the streaming engine drives.
//!
//! The three policies target the three fault populations of a
//! [`crate::FaultPlan`]:
//!
//! | fault            | persistence | healed by |
//! |------------------|-------------|-----------|
//! | stuck-at cell    | permanent   | HD redundancy (graceful), spare-row remap when a row is badly worn |
//! | dead row         | permanent   | spare-row remap ([`SpareRowPool`]); quarantine + requeue when spares run out |
//! | variation flip   | transient   | majority-vote re-read ([`majority_read_bit`]) |
//!
//! All decisions are pure functions of the plan and the logical clock —
//! no wall time, no iteration-order dependence.

use crate::plan::FaultPlan;
use std::collections::BTreeMap;

/// Which self-healing mechanisms are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealingPolicy {
    /// No healing: faults land as-is (the degradation baseline).
    Off,
    /// Remap dead/over-worn rows into a bounded pool of
    /// manufacture-validated spare rows.
    SpareRows {
        /// Spare rows available (the pool bound).
        spares: usize,
    },
    /// Re-read each cell an odd number of times at distinct epochs and
    /// take the majority — cancels transient variation flips.
    MajorityReread {
        /// Reads per cell (forced odd; ≥ 3 to help).
        reads: u32,
    },
    /// Both spare-row remap and majority re-read.
    Full {
        /// Spare rows available.
        spares: usize,
        /// Reads per cell.
        reads: u32,
    },
}

impl HealingPolicy {
    /// Canonical label for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::SpareRows { .. } => "spare_rows",
            Self::MajorityReread { .. } => "majority_reread",
            Self::Full { .. } => "full",
        }
    }

    /// Spare rows this policy provisions (0 when remap is off).
    #[must_use]
    pub fn spares(self) -> usize {
        match self {
            Self::SpareRows { spares } | Self::Full { spares, .. } => spares,
            _ => 0,
        }
    }

    /// Reads per cell (1 when majority re-read is off), forced odd.
    #[must_use]
    pub fn reads(self) -> u32 {
        match self {
            Self::MajorityReread { reads } | Self::Full { reads, .. } => {
                let r = reads.max(1);
                if r % 2 == 0 {
                    r + 1
                } else {
                    r
                }
            }
            _ => 1,
        }
    }
}

/// A bounded pool of spare rows with a remap table.
///
/// Spare rows live at physical rows `base..base + total` and are
/// validated at allocation time (a spare that the plan marks dead or
/// stuck is skipped — the manufacture-test story of row redundancy).
/// Once the pool is exhausted, [`SpareRowPool::remap`] returns `None`
/// and the caller must degrade (quarantine, or serve the faulty row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpareRowPool {
    base: usize,
    total: usize,
    next: usize,
    map: BTreeMap<usize, usize>,
}

impl SpareRowPool {
    /// A pool of `total` spare rows starting at physical row `base`.
    #[must_use]
    pub fn new(base: usize, total: usize) -> Self {
        Self {
            base,
            total,
            next: 0,
            map: BTreeMap::new(),
        }
    }

    /// Rebuild a pool mid-flight from previously exported state — the
    /// snapshot-restore path. `map` holds the live (logical row →
    /// physical spare) remaps and `next` the allocation cursor, both
    /// taken verbatim so a restored pool hands out exactly the spares
    /// the snapshotted one would have.
    ///
    /// # Panics
    ///
    /// Panics when `next` exceeds `total` (the caller validates decoded
    /// snapshots before reconstructing).
    #[must_use]
    pub fn restore(base: usize, total: usize, next: usize, map: BTreeMap<usize, usize>) -> Self {
        assert!(next <= total, "allocation cursor past the pool bound");
        Self {
            base,
            total,
            next,
            map,
        }
    }

    /// First physical spare row of the pool.
    #[must_use]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Spare allocation cursor (consumed spares, including skipped
    /// faulty ones), for snapshotting.
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.next
    }

    /// The live (logical row → physical spare row) remaps in ascending
    /// logical-row order, for snapshotting.
    pub fn remaps(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Spares handed out so far.
    #[must_use]
    pub fn used(&self) -> usize {
        self.map.len()
    }

    /// Spares still available (skipped-as-faulty spares are consumed).
    #[must_use]
    pub fn free(&self) -> usize {
        self.total - self.next.min(self.total)
    }

    /// The pool bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.total
    }

    /// Remap `row` to a validated spare, returning the spare's physical
    /// row. Idempotent: an already-remapped row returns its existing
    /// spare. Spares that the plan itself marks faulty are skipped
    /// (consumed but never handed out). Returns `None` when the pool is
    /// exhausted.
    pub fn remap(&mut self, row: usize, plan: &FaultPlan) -> Option<usize> {
        if let Some(&spare) = self.map.get(&row) {
            return Some(spare);
        }
        while self.next < self.total {
            let candidate = self.base + self.next;
            self.next += 1;
            let valid = !plan.is_dead_row(candidate) && plan.row_fault_count(candidate) == 0;
            if valid {
                self.map.insert(row, candidate);
                return Some(candidate);
            }
        }
        None
    }

    /// The physical row logical `row` currently resolves to.
    #[must_use]
    pub fn resolve(&self, row: usize) -> usize {
        self.map.get(&row).copied().unwrap_or(row)
    }

    /// Whether `row` has been remapped.
    #[must_use]
    pub fn is_remapped(&self, row: usize) -> bool {
        self.map.contains_key(&row)
    }
}

/// Read cell `(row, col)` holding `stored` through the plan `reads`
/// times at epochs `epoch_base * reads + j` and majority-vote the
/// observations. With an odd read count and a flip rate below ½ the
/// majority converges on the persistent value — transient variation
/// flips cancel; permanent faults (by design) do not.
#[must_use]
pub fn majority_read_bit(
    plan: &FaultPlan,
    row: usize,
    col: usize,
    stored: bool,
    epoch_base: u64,
    reads: u32,
) -> bool {
    let reads = reads.max(1) | 1; // force odd
    let mut ones = 0u32;
    for j in 0..reads {
        let epoch = epoch_base
            .wrapping_mul(u64::from(reads))
            .wrapping_add(u64::from(j));
        if plan.read_bit(row, col, stored, epoch) {
            ones += 1;
        }
    }
    ones * 2 > reads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlanSpec;

    #[test]
    fn policy_surface() {
        assert_eq!(HealingPolicy::Off.name(), "off");
        assert_eq!(HealingPolicy::Off.spares(), 0);
        assert_eq!(HealingPolicy::Off.reads(), 1);
        assert_eq!(HealingPolicy::SpareRows { spares: 4 }.spares(), 4);
        assert_eq!(HealingPolicy::MajorityReread { reads: 4 }.reads(), 5);
        let full = HealingPolicy::Full {
            spares: 2,
            reads: 3,
        };
        assert_eq!((full.spares(), full.reads()), (2, 3));
        assert_eq!(full.name(), "full");
    }

    #[test]
    fn spare_pool_remaps_and_exhausts() {
        let plan = FaultPlan::fault_free(16, 8);
        let mut pool = SpareRowPool::new(8, 3);
        assert_eq!(pool.capacity(), 3);
        assert_eq!(pool.remap(0, &plan), Some(8));
        assert_eq!(pool.remap(0, &plan), Some(8), "idempotent");
        assert_eq!(pool.remap(1, &plan), Some(9));
        assert_eq!(pool.remap(2, &plan), Some(10));
        assert_eq!(pool.remap(3, &plan), None, "exhausted");
        assert_eq!(pool.used(), 3);
        assert_eq!(pool.free(), 0);
        assert_eq!(pool.resolve(1), 9);
        assert_eq!(pool.resolve(7), 7);
        assert!(pool.is_remapped(2));
        assert!(!pool.is_remapped(3));
    }

    #[test]
    fn faulty_spares_are_skipped() {
        let plan = FaultPlan::fault_free(16, 8)
            .with_dead_row(8)
            .unwrap()
            .with_stuck_cell(9, 0, true)
            .unwrap();
        let mut pool = SpareRowPool::new(8, 4);
        // Rows 8 (dead) and 9 (stuck) are skipped; 10 is handed out.
        assert_eq!(pool.remap(0, &plan), Some(10));
        assert_eq!(pool.free(), 1);
    }

    #[test]
    fn majority_reread_heals_transient_flips() {
        let mut spec = FaultPlanSpec::clean(64, 64);
        spec.seed = 5;
        spec.flip_rate = 0.05;
        let plan = FaultPlan::new(spec).unwrap();
        // Single reads flip ~5% of the time; a 5-vote majority needs
        // >=3 concurrent flips (~0.1%), a ~40x reduction.
        let mut single_errors = 0;
        let mut voted_errors = 0;
        for r in 0..64 {
            for c in 0..64 {
                let epoch = r as u64 * 64 + c as u64;
                if !plan.read_bit(r, c, true, epoch) {
                    single_errors += 1;
                }
                if !majority_read_bit(&plan, r, c, true, epoch, 5) {
                    voted_errors += 1;
                }
            }
        }
        assert!(single_errors > 100, "flips land: {single_errors}");
        assert!(
            voted_errors * 20 < single_errors,
            "majority voting must crush the error rate: {voted_errors} vs {single_errors}"
        );
    }

    #[test]
    fn majority_reread_cannot_heal_permanent_faults() {
        let plan = FaultPlan::fault_free(4, 4)
            .with_stuck_cell(1, 1, false)
            .unwrap();
        assert!(!majority_read_bit(&plan, 1, 1, true, 0, 5));
    }
}
