//! The word-level sense kernel: read one stored row through a
//! [`FaultPlan`] sixty-four cells at a time.
//!
//! [`FaultPlan::read_bit`] and [`crate::majority_read_bit`] *define* a
//! sensed cell, but every call redraws the row's dead flag and the
//! cell's stuck-at state — neither depends on the read epoch — and
//! rebuilds the flip key from the seed. [`RowMasks`] caches the
//! epoch-independent half per physical row; [`sense_row`] applies it a
//! word at a time and draws only the transient flips. No bit moves: the
//! tests below hold the kernel to the per-bit definition (DESIGN §8.6
//! has the argument).

use crate::plan::{splitmix, FaultPlan, SALT_FLIP};

const WORD_BITS: usize = 64;

/// The permanent faults of one physical row as word masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMasks {
    row: usize,
    faults: usize,
    dead: bool,
    stuck0: Vec<u64>,
    stuck1: Vec<u64>,
}

impl RowMasks {
    /// Scan row `row` of `plan` once (O(cols) `stuck_at` draws), so
    /// forced cells and forced dead rows are covered by construction. Rows outside the plan are fault-free, as they are
    /// for the point queries.
    #[must_use]
    pub fn build(plan: &FaultPlan, row: usize) -> Self {
        let cols = plan.cols();
        let dead = plan.is_dead_row(row);
        let mut stuck0 = vec![0u64; cols.div_ceil(WORD_BITS)];
        let mut stuck1 = stuck0.clone();
        let mut faults = if dead { cols } else { 0 };
        if !dead {
            for c in 0..cols {
                let mask = match plan.stuck_at(row, c) {
                    Some(true) => &mut stuck1,
                    Some(false) => &mut stuck0,
                    None => continue,
                };
                mask[c / WORD_BITS] |= 1 << (c % WORD_BITS);
                faults += 1;
            }
        }
        Self {
            row,
            faults,
            dead,
            stuck0,
            stuck1,
        }
    }

    /// Whether the whole row is dead (reads zeros).
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Permanently faulty cells in the row — equal to
    /// [`FaultPlan::row_fault_count`]: `cols` for a dead row, the stuck
    /// cells otherwise.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.faults
    }
}

/// What one [`sense_row`] call observed, in cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SenseCounts {
    /// Cells whose raw (first) read differed from the stored bit.
    pub injected: u64,
    /// Of those, cells the majority vote returned to the stored bit.
    pub healed: u64,
    /// Cells whose voted read still differs from the stored bit.
    pub bad: u64,
}

/// `⌈rate · 2⁵³⌉`: the 53-bit draw `h >> 11` flips iff it is below this.
/// `unit(h) < rate` compares `(h >> 11) · 2⁻⁵³` with `rate`; scaling both
/// sides by 2⁵³ is exact for a rate in `[0, 1]`, and an integer is below
/// a real exactly when it is below its ceiling.
fn flip_threshold(rate: f64) -> u64 {
    (rate * 9_007_199_254_740_992.0).ceil() as u64
}

/// Sense the `dim` stored bits in `stored` through `plan` as the row
/// `masks` was built from, at logical `epoch`, writing the
/// majority-of-`reads` view into `out` (tail bits past `dim` cleared).
///
/// Cell `c` of the result is
/// `majority_read_bit(plan, row, c, stored[c], epoch, reads)`, `reads`
/// forced odd as it is there, and `injected` counts against
/// `plan.read_bit(row, c, stored[c], epoch · reads)`, the first read of
/// the voting window. Per word the persistent value is
/// `dead ? 0 : (stored & !stuck0) | stuck1`; read `j` is
/// `persistent ^ flip_j`, and XOR with a common bit commutes with
/// majority, so the vote is `persistent ^ majority(flip_j)`. `flip_j`
/// keeps the key `(seed, SALT_FLIP, row, col, epoch · reads + j)` with
/// the row and column lanes folded once, one finaliser per read; a zero
/// flip rate skips the draws.
///
/// # Panics
///
/// Panics unless `stored` and `out` each hold exactly `⌈dim / 64⌉` words.
pub fn sense_row(
    plan: &FaultPlan,
    masks: &RowMasks,
    stored: &[u64],
    dim: usize,
    epoch: u64,
    reads: u32,
    out: &mut [u64],
) -> SenseCounts {
    let words = dim.div_ceil(WORD_BITS);
    assert_eq!(stored.len(), words, "stored words do not match dim");
    assert_eq!(out.len(), words, "output words do not match dim");
    let reads = u64::from(reads.max(1) | 1);
    let spec = plan.spec();
    let threshold = flip_threshold(spec.flip_rate);
    let row_key = splitmix(splitmix(spec.seed ^ SALT_FLIP).wrapping_add(masks.row as u64));
    let first_epoch = epoch.wrapping_mul(reads);
    let mut counts = SenseCounts::default();
    for (w, (&stored_word, out_word)) in stored.iter().zip(out.iter_mut()).enumerate() {
        let bits = (dim - w * WORD_BITS).min(WORD_BITS);
        let live = u64::MAX >> (WORD_BITS - bits);
        let persistent = if masks.dead {
            0
        } else {
            // A view wider than the plan has no permanent faults past it.
            let stuck0 = masks.stuck0.get(w).copied().unwrap_or(0);
            let stuck1 = masks.stuck1.get(w).copied().unwrap_or(0);
            (stored_word & !stuck0) | stuck1
        };
        let mut first_flip = 0u64;
        let mut voted_flip = 0u64;
        if threshold > 0 {
            for b in 0..bits {
                let cell_key = splitmix(row_key.wrapping_add((w * WORD_BITS + b) as u64));
                let flip = |j: u64| {
                    let h = splitmix(cell_key.wrapping_add(first_epoch.wrapping_add(j)));
                    u64::from((h >> 11) < threshold)
                };
                let first = flip(0);
                let flips = first + (1..reads).map(flip).sum::<u64>();
                first_flip |= first << b;
                voted_flip |= u64::from(flips * 2 > reads) << b;
            }
        }
        let raw_diff = ((persistent ^ first_flip) ^ stored_word) & live;
        let voted = (persistent ^ voted_flip) & live;
        let voted_diff = voted ^ stored_word;
        counts.injected += u64::from(raw_diff.count_ones());
        counts.healed += u64::from((raw_diff & !voted_diff).count_ones());
        counts.bad += u64::from(voted_diff.count_ones());
        *out_word = voted;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heal::majority_read_bit;
    use crate::plan::FaultPlanSpec;
    use proptest::prelude::*;

    fn pack(bits: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; bits.len().div_ceil(WORD_BITS)];
        for (i, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
            words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
        }
        words
    }

    /// A stored pattern with set and clear bits in every word.
    fn pattern(dim: usize, salt: u64) -> Vec<bool> {
        (0..dim)
            .map(|c| splitmix(salt.wrapping_add(c as u64)) & 3 != 0)
            .collect()
    }

    /// Hold `sense_row` to the per-bit definition, counted the way the
    /// engine's sense loop counted before the kernel existed.
    fn assert_matches_oracle(plan: &FaultPlan, row: usize, dim: usize, epoch: u64, reads: u32) {
        let stored = pattern(dim, row as u64 ^ epoch);
        let odd = u64::from(reads.max(1) | 1);
        let mut want = SenseCounts::default();
        let mut want_bits = Vec::with_capacity(dim);
        for (c, &bit) in stored.iter().enumerate() {
            let raw = plan.read_bit(row, c, bit, epoch.wrapping_mul(odd));
            let voted = majority_read_bit(plan, row, c, bit, epoch, reads);
            want.injected += u64::from(raw != bit);
            want.healed += u64::from(raw != bit && voted == bit);
            want.bad += u64::from(voted != bit);
            want_bits.push(voted);
        }
        // A dirty output buffer: every word must be overwritten.
        let mut out = vec![u64::MAX; dim.div_ceil(WORD_BITS)];
        let masks = RowMasks::build(plan, row);
        let got = sense_row(plan, &masks, &pack(&stored), dim, epoch, reads, &mut out);
        let ctx = format!("row {row} dim {dim} epoch {epoch} reads {reads}");
        assert_eq!(out, pack(&want_bits), "sensed words, {ctx}");
        assert_eq!(got, want, "counts, {ctx}");
    }

    fn plan(rows: usize, cols: usize, stuck: f64, dead: f64, flip: f64) -> FaultPlan {
        let mut spec = FaultPlanSpec::clean(rows, cols);
        spec.seed = 0xD0A1;
        spec.stuck_rate = stuck;
        spec.dead_row_rate = dead;
        spec.flip_rate = flip;
        FaultPlan::new(spec).unwrap()
    }

    /// Odd counts plus an even one (forced odd).
    const READS: [u32; 5] = [1, 3, 4, 5, 7];

    #[test]
    fn kernel_equals_the_per_bit_definition_on_every_shape() {
        // 0, the `topo_resilient` rate, a heavy rate, always, and one
        // below 2⁻⁵³.
        for flip in [0.0, 5e-4, 0.3, 1.0, 1e-17] {
            let p = plan(8, 1024, 0.02, 0.0, flip);
            for dim in [1, 63, 64, 65, 1000, 1024] {
                for reads in READS {
                    for (row, epoch) in [(0, 0), (3, 17), (7, 1 << 40)] {
                        assert_matches_oracle(&p, row, dim, epoch, reads);
                    }
                }
            }
        }
    }

    #[test]
    fn threshold_is_the_ceiling_so_a_zero_draw_flips_at_any_positive_rate() {
        assert_eq!(flip_threshold(0.0), 0);
        assert_eq!(flip_threshold(1e-17), 1);
        assert_eq!(flip_threshold(f64::MIN_POSITIVE), 1);
        assert_eq!(flip_threshold(0.5), 1 << 52);
        assert_eq!(flip_threshold(1.0), 1 << 53);
        // Half a step above a multiple of 2⁻⁵³ (0.25 has a 2⁻⁵⁴ ulp):
        // the draw equal to the multiple is still below the rate.
        assert_eq!(flip_threshold(0.25 + f64::EPSILON / 4.0), (1 << 51) + 1);
    }

    #[test]
    fn dead_forced_and_worn_rows_match() {
        let drawn = plan(64, 256, 0.01, 0.2, 5e-4);
        let dead_row = (0..64).find(|&r| drawn.is_dead_row(r)).unwrap();
        // Row 1 at epoch 0 stores `pattern(130, 1)`: put a stuck-at-0 and
        // a stuck-at-1 on a set and on a clear bit of it, and one of each
        // kind in the 2-bit tail word.
        let stored = pattern(130, 1);
        let set = |from: usize| (from..130).find(|&c| stored[c]).unwrap();
        let clear = |from: usize| (from..130).find(|&c| !stored[c]).unwrap();
        let mut forced = plan(8, 130, 0.0, 0.0, 0.05).with_dead_row(2).unwrap();
        for (col, stuck) in [
            (set(0), false),
            (clear(0), false),
            (set(64), true),
            (clear(64), true),
            (128, !stored[128]),
            (129, !stored[129]),
        ] {
            forced = forced.with_stuck_cell(1, col, stuck).unwrap();
        }
        // Dense rows: four in ten cells stuck, and every cell stuck.
        let worn = [0.4, 1.0].map(|stuck| plan(8, 256, stuck, 0.0, 5e-4));
        for reads in READS {
            for epoch in [0, 9] {
                assert_matches_oracle(&drawn, dead_row, 256, epoch, reads);
                assert_matches_oracle(&drawn, dead_row, 100, epoch, reads);
                assert_matches_oracle(&forced, 1, 130, epoch, reads);
                assert_matches_oracle(&forced, 2, 130, epoch, reads);
                for p in &worn {
                    for row in 0..3 {
                        assert_matches_oracle(p, row, 256, epoch, reads);
                    }
                }
            }
        }
    }

    #[test]
    fn rows_and_columns_outside_the_plan_only_see_flips() {
        let p = plan(4, 128, 0.5, 0.5, 0.1);
        for reads in [1, 3] {
            // A row past `plan.rows()` has no permanent faults…
            assert_matches_oracle(&p, 9, 128, 5, reads);
            // …a view narrower than the plan masks the tail word…
            assert_matches_oracle(&p, 1, 70, 5, reads);
            // …and one wider than it has none past `plan.cols()`.
            for row in 0..4 {
                assert_matches_oracle(&p, row, 200, 5, reads);
            }
        }
        assert_eq!(RowMasks::build(&p, 9).fault_count(), 0);
    }

    #[test]
    fn fault_count_equals_the_plan_scan_on_every_row() {
        // A sparse plan, then dense ones where most or all cells are stuck.
        for stuck in [0.02, 0.4, 1.0] {
            let p = plan(256, 256, stuck, 0.05, 0.1)
                .with_dead_row(200)
                .and_then(|p| p.with_stuck_cell(201, 255, true))
                .unwrap();
            let mut dead = 0;
            for row in 0..256 {
                let masks = RowMasks::build(&p, row);
                let ctx = format!("stuck {stuck} row {row}");
                assert_eq!(masks.fault_count(), p.row_fault_count(row), "{ctx}");
                assert_eq!(masks.is_dead(), p.is_dead_row(row), "{ctx}");
                dead += usize::from(masks.is_dead());
            }
            assert!(
                dead > 1,
                "drawn dead rows are covered, not just the forced one"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_kernel_equals_the_per_bit_definition(
            seed in any::<u64>(),
            row in 0usize..40,
            epoch in any::<u64>(),
            near_max in 0u64..8,
            stuck in 0.0f64..0.2,
            dead in 0.0f64..0.3,
            flip in 0.0f64..0.6,
            reads in 1u32..8,
            dim in 1usize..200,
        ) {
            let mut spec = FaultPlanSpec::clean(32, 192);
            spec.seed = seed;
            spec.stuck_rate = stuck;
            spec.dead_row_rate = dead;
            spec.flip_rate = flip;
            let p = FaultPlan::new(spec).unwrap();
            // `epoch · reads` wraps for most random epochs already; the
            // second call pins the last few values before `u64::MAX`.
            assert_matches_oracle(&p, row, dim, epoch, reads);
            assert_matches_oracle(&p, row, dim, u64::MAX - near_max, reads);
        }
    }
}
